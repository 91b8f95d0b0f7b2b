import copy
import re
import time
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imvalign import autodiff as ad
from imvalign.core import AlignmentError, validate_imv, Imv, compute_imv
from imvalign.cli import main
from imvalign.monotonic import KernelConfig
from imvalign.positions import AlignedPositions
from imvalign.toy import (
    ToyModel,
    ToyTask,
    TrainConfig,
    UntrainedModelError,
    _Adam,
    _decode,
    _predict_deltas,
    _rank_correlation,
    sequence_forward,
    alignment_accuracy,
    diagonality_score,
    infer,
    make_batch,
    positions_from_durations,
    token_patterns,
    train,
)
import reference_tape as ref
from reference_tape import CheckingTape

FAST = dict(steps=50, pool_size=16, batch_size=4, optimizer="adam")


@pytest.fixture(scope="module")
def trained():
    task = ToyTask(seed=0)
    cfg = TrainConfig(mode="HMA", steps=600, pool_size=32, optimizer="adam", lr=1e-2, seed=1)
    model, report = train(task, cfg)
    return task, cfg, model, report


def test_positions_from_durations_hand_case():
    assert np.allclose(positions_from_durations([2, 1, 3]), [1.0, 2.5, 4.5])


def test_make_batch_invariants():
    task = ToyTask(seed=3)
    for seed in range(10):
        b = make_batch(task, seed)
        assert b.durations.sum() == b.t2
        assert np.allclose(b.e_star, positions_from_durations(b.durations))
        assert task.t1_min <= b.token_ids.shape[0] <= task.t1_max
        assert len(set(b.token_ids.tolist())) >= 2


def test_make_batch_noise_free_frames_repeat_patterns():
    task = ToyTask(seed=3, noise_sigma=0.0)
    b = make_batch(task, 5)
    patterns = token_patterns(task)
    expected = np.repeat(patterns[b.token_ids], b.durations, axis=0)
    assert np.array_equal(b.frames, expected)


def test_make_batch_deterministic():
    task = ToyTask(seed=3)
    a = make_batch(task, 7)
    b = make_batch(task, 7)
    assert np.array_equal(a.token_ids, b.token_ids)
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.durations, b.durations)


def test_zero_steps_are_refused(tmp_path):
    # a run trains at least one step; there is no evaluation-only mode
    with pytest.raises(ValueError, match="steps and batch_size must be >= 1"):
        TrainConfig(steps=0)
    path = tmp_path / "cfg.json"
    path.write_text('{"steps": 0, "report_path": null}')
    assert main(["train-toy", "--config", str(path)]) == 2


def test_steps_to_threshold_is_first_step_reaching_it():
    task = ToyTask(seed=0)
    _, reached = train(task, TrainConfig(mode="HMA", seed=3, accuracy_threshold=0.8, **FAST))
    step = reached.steps_to_threshold
    assert isinstance(step, int) and step > 0
    assert reached.accuracy[step] >= 0.8
    assert np.all(reached.accuracy[:step] < 0.8)
    _, never = train(task, TrainConfig(mode="HMA", seed=3, accuracy_threshold=1.5, **FAST))
    assert never.steps_to_threshold is None
    assert np.array_equal(never.accuracy, reached.accuracy)
    best = never.best_accuracy
    assert type(best) is float and best == reached.accuracy.max() >= 0.8


@pytest.mark.parametrize("setting", [
    dict(sigma2=float("nan")), dict(sigma2=-1.0), dict(sigma2=0.0),
    dict(steps=0), dict(lr=0.0), dict(lr=float("nan")),
    dict(lr=-1.0), dict(sigma2=1e-320), dict(accuracy_threshold=float("nan")),
    dict(sigma2=float("inf")), dict(optimizer="rmsprop"), dict(pool_size=4, batch_size=8),
    dict(steps=1.5), dict(steps=True), dict(batch_size=2.5, pool_size=4), dict(seed=np.float64(1.0)),
    dict(lr=float("inf")), dict(mode="hma"), dict(pool_size=1.0, batch_size=1),
    dict(steps=-1), dict(batch_size=0), dict(optimizer="sgd"),
    dict(lr=True), dict(lr="0.1"), dict(sigma2=True), dict(accuracy_threshold=None), dict(seed=-1),
])
def test_train_config_rejects_invalid_numeric_settings(setting):
    with pytest.raises(ValueError):
        TrainConfig(**setting)


@pytest.mark.parametrize("setting", [
    dict(vocab=1), dict(dmin=3, dmax=2), dict(t1_min=1), dict(embed_dim=0), dict(frame_dim=0),
    dict(vocab=6.5), dict(seed=True), dict(dmin=1.5, dmax=3), dict(noise_sigma=False),
    dict(seed=np.int64(-1)),
])
def test_toy_task_rejects_invalid_settings(setting):
    with pytest.raises(ValueError):
        ToyTask(**setting)


def test_toy_task_caps_the_alignment_size():
    # t1_max * (t1_max * dmax) entries: exactly at the cap, then one token over it
    ToyTask(t1_max=1000, dmax=10)
    with pytest.raises(ValueError, match="^a 1001x10010 alignment is over the cap of 10000000 entries$"):
        ToyTask(t1_max=1001, dmax=10)
    # 5,001 digits: named to three, where str() would raise its digit-limit error
    with pytest.raises(ValueError, match=r"^a 1\.00e\+5000x1\.00e\+5000 alignment is over the cap"):
        ToyTask(t1_max=10**5000, dmax=1)


def test_configs_accept_numpy_integers():
    task = ToyTask(vocab=np.int64(5), seed=np.int32(2), noise_sigma=0)
    cfg = TrainConfig(steps=np.int64(3), batch_size=np.int16(2), pool_size=np.int64(4), lr=np.float32(0.5), sigma2=1)
    assert (task.vocab, task.noise_sigma, cfg.steps, cfg.lr, cfg.sigma2) == (5, 0, 3, 0.5, 1)


@pytest.mark.parametrize("noise_sigma", [float("nan"), -0.1, float("inf")])
def test_toy_task_rejects_invalid_noise_sigma(noise_sigma):
    with pytest.raises(ValueError, match="noise_sigma"):
        ToyTask(noise_sigma=noise_sigma)


def test_training_is_bit_deterministic():
    task = ToyTask(seed=0)
    cfg = TrainConfig(mode="HMA", seed=2, **FAST)
    _, r1 = train(task, cfg)
    _, r2 = train(task, cfg)
    assert np.array_equal(r1.total_loss, r2.total_loss)
    assert np.array_equal(r1.accuracy, r2.accuracy)
    assert np.array_equal(r1.diagonality, r2.diagonality)


def _record_results(monkeypatch, name):
    """Replace ``ad.<name>`` with a spy that calls it; returns the list of
    its results, one per call, in order."""
    results, fn = [], getattr(ad, name)

    def spy(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(ad, name, spy)
    return results


def test_default_training_runs_the_dense_gaussian_kernel(monkeypatch):
    """At the default ToyTask sizes the banded kernel never engages, and the
    positions never try the band: the loss traces equal, bit for bit, those
    of training through the dense chains."""
    banded = _record_results(monkeypatch, "_banded_gaussian")
    blocks = _record_results(monkeypatch, "_band_block")

    def traces(mode):
        _, report = train(ToyTask(), TrainConfig(mode=mode, steps=30, seed=3, optimizer="adam"))
        return [report.recon_loss, report.ap_loss, report.sma_loss, report.total_loss]

    fused = {mode: traces(mode) for mode in ("HMA", "SMA", "NM")}
    assert banded and not any(b is not None for b in banded) and not blocks
    monkeypatch.setattr(ad, "gaussian_softmax", lambda r, c, s: ref.gaussian_softmax_chain(r, c, s, 0))
    monkeypatch.setattr(ad, "gaussian_positions", lambda t, p, s: ad.matmul(
        ref.gaussian_softmax_chain(t, p, s, 1), np.arange(float(ad.data(p).size))))
    for mode, expected in fused.items():
        for got, want in zip(traces(mode), expected):
            assert got.tobytes() == want.tobytes()


def test_long_sequence_training_runs_the_band_within_its_bound(monkeypatch):
    """Three HMA steps at t1 64-128, where the positions and the
    reconstruction band: two runs are bit-identical, and each step's flat
    gradient is within the bound of gaussian_positions' docstring of the
    same step through the dense kernels."""
    from imvalign import toy

    task = ToyTask(t1_min=64, t1_max=128, dmin=2, dmax=6, vocab=12)
    cfg = TrainConfig(mode="HMA", steps=3, pool_size=2, batch_size=2)
    blocks = _record_results(monkeypatch, "_band_block")
    steps, step = [], toy._train_step

    def spy(model, batches, cfg, k):
        flat = model.flat.copy()
        grad, entry = step(model, batches, cfg, k)
        steps.append((flat, batches, grad))
        return grad, entry

    monkeypatch.setattr(toy, "_train_step", spy)
    runs = [train(task, cfg) for _ in range(2)]
    assert any(b is not None for b in blocks)
    (model, report), (again, report_again) = runs
    assert model.flat.tobytes() == again.flat.tobytes()
    for name in toy._TRACE_FIELDS:
        assert getattr(report, name).tobytes() == getattr(report_again, name).tobytes()
    assert all(a[2].tobytes() == b[2].tobytes() for a, b in zip(steps[:3], steps[3:]))
    monkeypatch.setattr(ad, "_BAND_MIN_ENTRIES", task.t1_max ** 2 * task.dmax + 1)
    blocks.clear()
    for k, (flat, batches, grad) in enumerate(steps[:3]):
        dense_model = ToyModel(task, cfg.seed)
        dense_model.flat[:] = flat
        dense, _ = step(dense_model, batches, cfg, k)
        assert np.all(np.abs(grad - dense) <= 1e-12 * max(1.0, float(np.abs(dense).max())))
    assert not blocks


def test_nm_is_sma_with_zero_weights():
    # identical forward graphs: the only difference is the penalty term
    from imvalign.monotonic import SmaWeights

    task = ToyTask(seed=0)
    base = dict(seed=2, **FAST)
    _, nm = train(task, TrainConfig(mode="NM", **base))
    _, sma0 = train(
        task, TrainConfig(mode="SMA", sma_weights=SmaWeights(0, 0, 0, 0), **base)
    )
    assert np.array_equal(nm.total_loss, sma0.total_loss)
    assert np.array_equal(nm.accuracy, sma0.accuracy)


def test_hma_feeds_normalized_complete_alignment():
    task = ToyTask(seed=0)
    cfg = TrainConfig(mode="HMA", seed=4)
    model = ToyModel(task, cfg.seed)
    batch = make_batch(task, 0)
    tape = ad.Tape()
    params = model.variables(tape)
    alpha_recon = sequence_forward(params, batch, cfg).alpha_recon
    sums = alpha_recon.data.sum(axis=0)
    assert np.allclose(sums, 1.0, atol=1e-9)
    # the positions behind it derive from a complete transformed IMV
    from imvalign.attention import scaled_dot_alignment
    from imvalign.monotonic import hma_transform

    alpha = scaled_dot_alignment(
        batch.frames @ model.params["frame_proj"],
        model.params["embed"][batch.token_ids],
    )
    star = hma_transform(compute_imv(alpha))
    assert validate_imv(star).complete


def test_divergence_carries_step_index():
    from imvalign.toy import TrainDivergenceError

    task = ToyTask(seed=0)
    cfg = TrainConfig(mode="HMA", steps=200, lr=1e6, pool_size=16, batch_size=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainDivergenceError) as exc:
            train(task, cfg)
    assert exc.value.step >= 0


@pytest.mark.parametrize("mode", ["HMA", "SMA", "NM"])
def test_divergence_matches_a_fully_checked_run(mode, monkeypatch):
    from imvalign.toy import TrainDivergenceError

    task = ToyTask(seed=0)
    cfg = TrainConfig(mode=mode, steps=200, lr=1e6, pool_size=16, batch_size=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainDivergenceError) as fast:
            train(task, cfg)
        monkeypatch.setattr(ad, "Tape", CheckingTape)
        with pytest.raises(TrainDivergenceError) as checked:
            train(task, cfg)
    assert fast.value.step == checked.value.step
    assert str(fast.value) == str(checked.value)
    cause, ref = fast.value.__cause__, checked.value.__cause__
    assert isinstance(cause, ad.NonFiniteError)
    assert (cause.op_name, cause.node_index) == (ref.op_name, ref.node_index)


def test_gradient_only_divergence_names_the_parameter(monkeypatch):
    from imvalign.toy import TrainDivergenceError

    def tanh_with_infinite_slope(x):
        # a clean forward whose backward hands its input an infinite gradient
        def backward(g):
            x.grad = np.full_like(x.data, np.inf)

        return x.tape.record("tanh", np.tanh(x.data), backward)

    monkeypatch.setattr(ad, "tanh", tanh_with_infinite_slope)
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainDivergenceError) as exc:
            train(ToyTask(seed=0), TrainConfig(mode="HMA", **FAST))
    assert exc.value.step == 0
    assert "non-finite gradient of parameter 'embed'" in str(exc.value)
    assert exc.value.__cause__ is None


def test_the_first_parameter_with_a_non_finite_gradient_is_named(monkeypatch):
    from imvalign.toy import TrainDivergenceError

    traced = []
    variables, backward = ToyModel.variables, ad.Tape.backward

    def keep(model, tape):
        traced.append(variables(model, tape))
        return traced[-1]

    def spoil(tape, root):
        backward(tape, root)
        for name in ("pred_w2", "pred_b2"):
            traced[-1][name].grad = np.full(traced[-1][name].shape, np.nan)

    monkeypatch.setattr(ToyModel, "variables", keep)
    monkeypatch.setattr(ad.Tape, "backward", spoil)
    with pytest.raises(TrainDivergenceError, match="parameter 'pred_w2'") as exc:
        train(ToyTask(seed=0), TrainConfig(mode="NM", **FAST))
    assert exc.value.step == 0 and exc.value.__cause__ is None


def test_all_degenerate_batch_diverges_at_step_zero():
    from imvalign.monotonic import DegenerateImvError
    from imvalign.toy import TrainDivergenceError, _train_step

    # zero embeddings give uniform attention: every raw IMV is constant
    task = ToyTask(seed=0)
    cfg = TrainConfig(mode="HMA", **FAST)
    model = ToyModel(task, cfg.seed)
    model.params["embed"][:] = 0.0
    batches = [make_batch(task, s) for s in range(cfg.batch_size)]
    with pytest.raises(TrainDivergenceError, match="every sequence in the batch") as exc:
        _train_step(model, batches, cfg, 0)
    assert exc.value.step == 0
    assert isinstance(exc.value.__cause__, DegenerateImvError)


def test_training_leaves_no_tape_to_the_cycle_collector():
    # each step releases its tape, so reference counting frees the graph;
    # unreleased, three steps leave 651 values and tapes in cycles
    import gc

    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        train(ToyTask(seed=0), TrainConfig(steps=3))
        gc.collect()
        left = sum(isinstance(o, (ad.Value, ad.Tape)) for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert left == 0


@pytest.mark.parametrize("mode, nodes", [("HMA", 192), ("SMA", 200), ("NM", 184)])
def test_tape_nodes_per_benchmark_step(mode, nodes):
    # the benchmark's toy config: one 8-sequence step
    from imvalign.toy import _evaluate_step

    task = ToyTask(seed=0)
    cfg = TrainConfig(mode=mode, steps=420)
    model = ToyModel(task, cfg.seed)
    batches = [make_batch(task, s) for s in range(cfg.batch_size)]
    tape = ad.Tape()
    _evaluate_step(model, batches, cfg, tape)
    assert len(tape.nodes) == nodes


def test_report_jsonl_roundtrip(tmp_path, monkeypatch):
    import json

    task = ToyTask(seed=0)
    path = tmp_path / "report.jsonl"
    cfg = TrainConfig(mode="NM", seed=2, **FAST)
    monkeypatch.chdir(tmp_path)
    _, report = train(task, cfg)
    assert not any(tmp_path.iterdir())  # the trainer writes no files
    report.write_jsonl(str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == cfg.steps
    first = json.loads(lines[0])
    assert set(first) == {
        "step", "recon_loss", "ap_loss", "sma_loss", "total_loss", "accuracy", "diagonality",
    }


def test_metric_helpers():
    # a perfect two-token alignment: spans [0,1] and [2,3]
    alpha = np.array(
        [[0.9, 0.8, 0.1, 0.0], [0.1, 0.2, 0.9, 1.0]]
    )
    e_star = positions_from_durations([2, 2])
    assert alignment_accuracy(alpha, e_star) == 1.0
    assert diagonality_score(alpha) > 0.5
    # an alignment stuck on one token scores zero diagonality
    stuck = np.tile([[0.9], [0.1]], (1, 4))
    assert diagonality_score(stuck) == 0.0
    # two output steps, along and against the diagonal; one output step
    assert diagonality_score(np.array([[0.9, 0.2], [0.1, 0.8]])) == pytest.approx(0.85, abs=1e-15)
    assert diagonality_score(np.array([[0.2, 0.9], [0.8, 0.1]])) == pytest.approx(-0.85, abs=1e-15)
    assert diagonality_score(np.array([[0.3], [0.7]])) == 0.0
    # no output step at all: 0.0, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert diagonality_score(np.zeros((3, 0))) == 0.0


def _loop_alignment_accuracy(alpha, e_star):
    """Per-token reference for the vectorised alignment_accuracy."""
    t1 = alpha.shape[0]
    owner = np.argmax(alpha, axis=0)
    hits = 0
    for i in range(t1):
        span = np.flatnonzero(owner == i)
        if span.size == 0:
            continue
        midpoint = (span[0] + span[-1]) / 2.0
        if abs(midpoint - e_star[i]) <= 1.0:
            hits += 1
    return hits / t1


def test_alignment_accuracy_matches_per_token_loop():
    rng = np.random.default_rng(13)
    for _ in range(300):
        t1 = int(rng.integers(1, 9))
        durations = rng.integers(1, 5, size=t1)
        t2 = int(durations.sum())
        e_star = positions_from_durations(durations)
        # a noisy diagonal (most tokens hit) or pure noise (few do)
        alpha = rng.random((t1, t2)) ** 4
        if rng.random() < 0.5:
            alpha[np.repeat(np.arange(t1), durations), np.arange(t2)] += rng.random(t2)
        assert alignment_accuracy(alpha, e_star) == _loop_alignment_accuracy(alpha, e_star)


@st.composite
def _alignments(draw):
    """An alignment with few distinct values (so argmax ties), any t2 from 1
    (often below t1), and token centres on the half-frame grid, where a
    midpoint lands exactly one frame away."""
    t1 = draw(st.integers(1, 8))
    t2 = draw(st.integers(1, 12))
    alpha = draw(hnp.arrays(np.float64, (t1, t2), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    e_star = draw(hnp.arrays(np.float64, t1, elements=st.integers(-4, 2 * t2 + 4).map(lambda k: k / 2)))
    return alpha, e_star


@settings(max_examples=300, deadline=None)
@given(case=_alignments())
@example(case=(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]), np.array([1.0, 2.0])))  # all on one token
@example(case=(np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 1.5, 2.5])))  # ties, t2 < t1
def test_alignment_accuracy_equals_the_per_token_loop(case):
    alpha, e_star = case
    assert alignment_accuracy(alpha, e_star) == _loop_alignment_accuracy(alpha, e_star)


def _owner_cases(rng):
    yield np.array([0, 1])
    yield np.array([1, 0])
    yield np.array([0, 0, 1])
    yield np.array([2, 2, 0, 0, 1, 1])
    for _ in range(200):
        t1 = int(rng.integers(2, 8))
        t2 = int(rng.integers(2, 30))
        owner = rng.integers(0, t1, size=t2)  # ties whenever t2 > t1
        if np.all(owner == owner[0]):
            continue
        yield owner


def test_rank_correlation_matches_scipy_spearmanr():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(14)
    for owner in _owner_cases(rng):
        expected = stats.spearmanr(owner, np.arange(owner.size)).statistic
        assert abs(_rank_correlation(owner) - expected) <= 1e-12
        # diagonality is the column sharpness times the same correlation
        alpha = rng.random((int(owner.max()) + 1, owner.size))
        alpha[owner, np.arange(owner.size)] += 1.0
        sharpness = alpha.max(axis=0).mean()
        assert abs(diagonality_score(alpha) - sharpness * expected) <= 1e-12


def test_infer_requires_training_and_tokens(trained):
    task, _, model, _ = trained
    untrained = ToyModel(task, 0)
    with pytest.raises(UntrainedModelError):
        infer(untrained, [0, 1])
    with pytest.raises(AlignmentError):
        infer(model, [])
    for rate in (np.nan, np.inf):
        with pytest.raises(AlignmentError):
            infer(model, [0, 1, 2], rate=rate)


@pytest.mark.parametrize("ids, message", [
    ([-1, 1, 3], "token 0 has id -1, not an integer in [0, 6)"),
    ([6, 1], "token 0 has id 6, not an integer in [0, 6)"),
    ([1, 2, 9], "token 2 has id 9, not an integer in [0, 6)"),
    ([1.7, 2], "token 0 has id 1.7, not an integer in [0, 6)"),
    ([[1, 2]], "token ids must be a non-empty 1-D sequence, got shape (1, 2)"),
])
def test_infer_refuses_token_ids_that_are_not_vocabulary_indices(trained, ids, message):
    # -1 would index the last embedding row, 6 raise numpy's IndexError and
    # 1.7 be truncated to 1
    _, _, model, _ = trained
    with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$"):
        infer(model, ids)


def test_infer_refuses_a_rate_that_stretches_every_position_to_inf(trained):
    # at the largest finite rate no stretched position is finite, so no
    # output step has a finite position to be refused from; the frames
    # would be NaN. scale_positions refuses before the length is inferred
    _, _, model, _ = trained
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match="overflows when scaled by rate"):
            infer(model, [0, 1, 2], rate=np.finfo(float).max)


def test_infer_refuses_a_nonfinite_predicted_increment(trained):
    # a predictor bias of 1000 overflows exp for every token; the first one
    # is named, with no overflow warning and before any length is inferred
    _, _, model, _ = trained
    broken = copy.deepcopy(model)
    broken.params["pred_b2"][()] = 1000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match="^the increment predictor gives token 0 a non-finite increment inf$"):
            infer(broken, [0, 1, 2])


def test_infer_refuses_an_output_over_the_size_cap_at_once(trained):
    # rate 1e9 stretches three tokens over billions of output steps: the
    # kernel would take tens of GB, and is refused before anything is built
    _, _, model, _ = trained
    start = time.perf_counter()
    with pytest.raises(ValueError, match="alignment is over the cap of 10000000 entries"):
        infer(model, [0, 1, 2], rate=1e9)
    assert time.perf_counter() - start < 1.0


def test_infer_names_a_huge_output_length_in_a_short_message(trained):
    # at rate 1e250 the output length has 251 digits; the message gives three
    _, _, model, _ = trained
    with pytest.raises(ValueError, match=r"^a 3x\d\.\d\de\+250 alignment is over the cap of 10000000 entries$"):
        infer(model, [0, 1, 2], rate=1e250)


def test_infer_generalizes_on_training_sequence(trained):
    task, cfg, model, report = trained
    batch = make_batch(task, 0)
    clean = np.repeat(token_patterns(task)[batch.token_ids], batch.durations, axis=0)
    # decoded at the reference length from the positions infer predicts
    emb = model.params["embed"][batch.token_ids]
    positions = AlignedPositions(np.cumsum(_predict_deltas(model.params, emb)))
    _, frames = _decode(model.params, emb, positions, batch.t2, KernelConfig(sigma2=cfg.sigma2))
    mse = float(np.mean((frames - clean) ** 2))
    assert mse < 2.0 * report.final_loss


def test_infer_rate_scales_output_length(trained):
    task, cfg, model, _ = trained
    for seed in range(6):
        batch = make_batch(task, seed)
        base = infer(model, batch.token_ids, rate=1.0, sigma2=cfg.sigma2)
        for rate in (0.8, 1.2, 2.0):
            scaled = infer(model, batch.token_ids, rate=rate, sigma2=cfg.sigma2)
            assert abs(scaled.shape[0] - rate * base.shape[0]) <= 1.0 + 1e-9


def _numpy_infer(model, token_ids, rate, sigma2):
    """The predictor/decoder chain infer used to restate in numpy; the
    reference for the shared forward steps."""
    from imvalign.core import context_map
    from imvalign.positions import align_from_positions, infer_t2, scale_positions

    p = model.params
    emb = p["embed"][np.asarray(token_ids, dtype=np.intp)]
    hidden = np.tanh(emb @ p["pred_w1"] + p["pred_b1"])
    deltas = np.exp(hidden @ p["pred_w2"] + p["pred_b2"])
    positions = scale_positions(AlignedPositions(np.cumsum(deltas)), rate)
    alpha = align_from_positions(positions, infer_t2(positions), KernelConfig(sigma2=sigma2))
    return context_map(alpha, emb) @ p["decoder"] + p["decoder_bias"]


def test_infer_equals_numpy_predictor_and_decoder(trained):
    task, cfg, model, _ = trained
    for seed in range(10):
        ids = make_batch(task, 100 + seed).token_ids
        for rate in (1.0, 1.2):
            expected = _numpy_infer(model, ids, rate, cfg.sigma2)
            assert np.array_equal(infer(model, ids, rate=rate, sigma2=cfg.sigma2), expected)


@pytest.mark.parametrize("mode", ["HMA", "SMA", "NM"])
def test_untraced_forward_equals_traced_data(mode):
    task = ToyTask(seed=0)
    cfg = TrainConfig(mode=mode, seed=1)
    model = ToyModel(task, cfg.seed)
    for seed in range(20):
        batch = make_batch(task, seed)
        plain = sequence_forward(model.params, batch, cfg)
        traced = sequence_forward(model.variables(ad.Tape()), batch, cfg)
        assert np.array_equal(plain.alpha_recon, traced.alpha_recon.data)
        assert np.array_equal(plain.positions.values, traced.positions.values)
        assert plain.recon == traced.recon.data and plain.ap == traced.ap.data
        assert (plain.sma is None) == (mode != "SMA")
        if mode == "SMA":
            assert plain.sma == traced.sma.data


# gradients with the values an update must not round differently: zeros of
# both signs, subnormals, and magnitudes whose squares are near the top of
# the float64 range
_GRADIENT_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150, -1e150]),
    st.floats(-1e150, 1e150),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flat_optimizers_equal_the_per_parameter_updates(data):
    # a small model: 28 parameters in 8 arrays, one of them 0-d
    task = ToyTask(vocab=2, embed_dim=2, frame_dim=3)
    lr = data.draw(st.sampled_from([1e-2, 0.3]))
    model = ToyModel(task, seed=data.draw(st.integers(0, 3)))
    params = {k: v.copy() for k, v in model.params.items()}
    flat, reference = _Adam(lr), ref.Adam(lr)
    for _ in range(data.draw(st.integers(1, 4))):
        grads = {k: data.draw(hnp.arrays(np.float64, v.shape, elements=_GRADIENT_ENTRIES))
                 for k, v in params.items()}
        flat.step(model.flat, np.concatenate(list(grads.values()), axis=None))
        reference.step(params, grads)
        for k, v in params.items():
            assert model.params[k].tobytes() == v.tobytes(), k


def test_parameters_are_views_of_the_flat_vector():
    model = ToyModel(ToyTask(seed=0), seed=1)
    assert model.flat.shape == (sum(v.size for v in model.params.values()),)
    for value in model.params.values():
        assert np.shares_memory(value, model.flat)
    model.params["embed"][:] = 0.0
    assert not model.flat[: model.params["embed"].size].any()
    model.flat[-1] = 2.5
    assert model.params["pred_b2"] == 2.5
