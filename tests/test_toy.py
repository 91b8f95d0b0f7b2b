import numpy as np
import pytest

from imvalign import autodiff as ad
from imvalign.core import AlignmentError, validate_imv, Imv, compute_imv
from imvalign.monotonic import KernelConfig
from imvalign.toy import (
    ToyModel,
    ToyTask,
    TrainConfig,
    UntrainedModelError,
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
        assert task.t1_min <= b.t1 <= task.t1_max
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


def test_zero_steps_reports_initial_losses_only():
    task = ToyTask(seed=0)
    model, report = train(task, TrainConfig(steps=0))
    assert report.total_loss.shape == (1,)
    assert np.isfinite(report.total_loss[0])
    assert not model.trained


def test_zero_steps_report_has_one_entry_per_trace():
    _, report = train(ToyTask(seed=0), TrainConfig(steps=0))
    for name in ("recon_loss", "ap_loss", "sma_loss", "total_loss", "accuracy", "diagonality"):
        assert getattr(report, name).shape == (1,)
    assert [r["step"] for r in report.records()] == [0]


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


@pytest.mark.parametrize("setting", [
    dict(sigma2=float("nan")), dict(sigma2=-1.0), dict(sigma2=0.0),
    dict(epsilon=float("nan")), dict(epsilon=-1.0), dict(lr=float("nan")),
    dict(ap_weight=float("nan")), dict(ap_weight=-1.0), dict(accuracy_threshold=float("nan")),
    dict(sigma2=float("inf")), dict(optimizer="rmsprop"), dict(pool_size=4, batch_size=8),
    dict(steps=1.5), dict(steps=True), dict(batch_size=2.5, pool_size=4), dict(seed=np.float64(1.0)),
    dict(lr=float("inf")), dict(epsilon=float("inf")), dict(ap_weight=float("inf")),
])
def test_train_config_rejects_invalid_numeric_settings(setting):
    with pytest.raises(ValueError):
        TrainConfig(**setting)


@pytest.mark.parametrize("setting", [
    dict(vocab=1), dict(dmin=3, dmax=2), dict(t1_min=1), dict(embed_dim=0), dict(frame_dim=0),
    dict(vocab=6.5), dict(seed=True), dict(dmin=1.5, dmax=3),
])
def test_toy_task_rejects_invalid_settings(setting):
    with pytest.raises(ValueError):
        ToyTask(**setting)


def test_toy_task_caps_the_alignment_size():
    # t1_max * (t1_max * dmax) entries: exactly at the cap, then one token over it
    ToyTask(t1_max=1000, dmax=10)
    with pytest.raises(ValueError, match="1001x10010 alignment, over the cap"):
        ToyTask(t1_max=1001, dmax=10)


def test_configs_accept_numpy_integers():
    task = ToyTask(vocab=np.int64(5), seed=np.int32(2))
    cfg = TrainConfig(steps=np.int64(3), batch_size=np.int16(2), pool_size=np.int64(4))
    assert (task.vocab, cfg.steps) == (5, 3)


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


def test_default_training_runs_the_dense_gaussian_kernel(monkeypatch):
    """At the default ToyTask sizes the banded kernel never engages: the loss
    traces equal, bit for bit, those of training through the dense chain."""
    banded = []
    band = ad._banded_gaussian

    def spy(*args):
        banded.append(band(*args))
        return banded[-1]

    monkeypatch.setattr(ad, "_banded_gaussian", spy)

    def traces(mode):
        _, report = train(ToyTask(), TrainConfig(mode=mode, steps=30, seed=3, optimizer="adam"))
        return [report.recon_loss, report.ap_loss, report.sma_loss, report.total_loss]

    fused = {mode: traces(mode) for mode in ("HMA", "SMA", "NM")}
    assert banded and not any(b is not None for b in banded)
    monkeypatch.setattr(ad, "gaussian_softmax", ref.gaussian_softmax_chain)
    for mode, expected in fused.items():
        for got, want in zip(traces(mode), expected):
            assert got.tobytes() == want.tobytes()


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
    cfg = TrainConfig(mode="HMA", steps=200, lr=1e6, optimizer="sgd", pool_size=16, batch_size=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainDivergenceError) as exc:
            train(task, cfg)
    assert exc.value.step >= 0


@pytest.mark.parametrize("mode", ["HMA", "SMA", "NM"])
def test_divergence_matches_a_fully_checked_run(mode, monkeypatch):
    from imvalign.toy import TrainDivergenceError

    task = ToyTask(seed=0)
    cfg = TrainConfig(mode=mode, steps=200, lr=1e6, optimizer="sgd", pool_size=16, batch_size=4)
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


@pytest.mark.parametrize("mode, nodes", [("HMA", 208), ("SMA", 216), ("NM", 200)])
def test_tape_nodes_per_benchmark_step(mode, nodes):
    # the benchmark's toy config: one 8-sequence step
    from imvalign.toy import _evaluate_step

    task = ToyTask(seed=0)
    cfg = TrainConfig(mode=mode, steps=420, pool_size=32, batch_size=8, optimizer="adam",
                      lr=1e-2, sigma2=0.25, seed=1, accuracy_threshold=0.9)
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


def test_infer_generalizes_on_training_sequence(trained):
    task, cfg, model, report = trained
    batch = make_batch(task, 0)
    clean = np.repeat(token_patterns(task)[batch.token_ids], batch.durations, axis=0)
    frames = infer(model, batch.token_ids, rate=1.0, sigma2=cfg.sigma2, t2=batch.t2)
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
    from imvalign.positions import AlignedPositions, align_from_positions, infer_t2, scale_positions

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
