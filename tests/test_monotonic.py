import itertools
import warnings

import numpy as np
import pytest
import reference_tape as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imvalign import autodiff as ad
from imvalign import monotonic
from imvalign.core import AlignmentError, Imv, check_alignment, compute_imv, index_vector, validate_imv
from imvalign.monotonic import (
    DEGENERATE_EPS,
    DegenerateImvError,
    KernelConfig,
    SmaWeights,
    StreamingHmaState,
    align_from_imv,
    hma_transform,
    sma_loss,
    streaming_hma_run,
    streaming_hma_step,
)


def test_sma_loss_zero_when_constraints_hold():
    assert sma_loss(Imv(np.array([0.0, 0.5, 1.0]), 2)) == 0.0


def test_sma_loss_hand_computed_violation():
    # deltas [-1, 2]: backward-motion term 2, overshoot term 2, boundaries 0
    loss = sma_loss(Imv(np.array([0.0, -1.0, 1.0]), 2))
    assert loss == pytest.approx(4.0, abs=1e-12)


def test_sma_loss_boundary_penalty_is_squared():
    loss = sma_loss(Imv(np.array([0.5, 1.0]), 2))
    assert loss == pytest.approx(0.25, abs=1e-12)
    loss_abs = sma_loss(Imv(np.array([0.5, 1.0]), 2), boundary="abs")
    assert loss_abs == pytest.approx(0.5, abs=1e-12)


def test_sma_loss_shift_invariant_when_boundary_weights_zero():
    rng = np.random.default_rng(0)
    w = SmaWeights(lambda2=0.0, lambda3=0.0)
    pi = rng.normal(size=10)
    base = sma_loss(Imv(pi, 5), w)
    shifted = sma_loss(Imv(pi + 3.7, 5), w)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_sma_loss_rejects_degenerate_dimensions():
    from imvalign.core import AlignmentError

    with pytest.raises(AlignmentError):
        sma_loss(Imv(np.array([0.0, 1.0]), 1))
    with pytest.raises(AlignmentError, match="2 output steps"):
        sma_loss(Imv(np.array([0.0]), 2))
    with pytest.raises(ValueError, match="boundary"):
        sma_loss(Imv(np.array([0.0, 1.0]), 2), boundary="max")


def test_hma_transform_hand_computed():
    # raw [0.5, 0.2, 1.0]: rectified deltas [0, 0.8], accumulated [0, 0, 0.8],
    # rescaled so the end lands on t1-1=4
    out = hma_transform(Imv(np.array([0.5, 0.2, 1.0]), 5))
    assert np.allclose(out.values, [0.0, 0.0, 4.0], atol=1e-12)
    assert out.t1 == 5


def test_hma_transform_is_noop_on_monotone_input():
    out = hma_transform(Imv(np.array([0.0, 1.0, 2.0]), 3))
    assert np.allclose(out.values, [0.0, 1.0, 2.0], atol=1e-12)


def test_hma_transform_rejects_constant_input():
    with pytest.raises(DegenerateImvError):
        hma_transform(Imv(np.full(4, 2.5), 3))
    with pytest.raises(AlignmentError, match="2 output steps"):
        hma_transform(Imv(np.array([1.0]), 3))


def test_hma_output_satisfies_constraints():
    rng = np.random.default_rng(1)
    for _ in range(200):
        t2 = int(rng.integers(4, 65))
        t1 = int(rng.integers(4, 33))
        raw = rng.normal(size=t2) * rng.uniform(0.1, 5.0)
        if np.all(np.diff(raw) <= 0):
            continue
        out = hma_transform(Imv(raw, t1))
        assert out.values[0] == 0.0
        assert abs(out.values[-1] - (t1 - 1)) < 1e-9
        assert np.all(np.diff(out.values) >= -1e-12)
        loss = sma_loss(out, SmaWeights(lambda1=0.0))
        assert loss < 1e-10
        assert validate_imv(out).complete


def _rectified_total(raw):
    return np.maximum(np.diff(raw), 0.0).sum()


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40).map(np.array),
    t1=st.integers(1, 4096),
)
def test_hma_contract_holds_for_any_raw_imv_that_is_not_degenerate(raw, t1):
    try:
        out = hma_transform(Imv(raw, t1)).values
    except DegenerateImvError:
        assert _rectified_total(raw) <= DEGENERATE_EPS
        return
    assert out[0] == 0.0 and (np.diff(out) >= 0.0).all()
    # p[-1] * (t1 - 1) / p[-1] rounds twice, so the end can miss t1 - 1 by an ulp
    assert abs(out[-1] - (t1 - 1)) <= np.spacing(float(t1 - 1))


def test_near_degenerate_hma_scales_its_gradient_as_one_over_the_total():
    # the lowest raw IMV of the pattern: rectified total 1.1 * DEGENERATE_EPS
    bottom = np.array([0.0, 0.3, 0.2, 1.0]) * np.nextafter(DEGENERATE_EPS, 1.0)
    assert DEGENERATE_EPS < _rectified_total(bottom) < 2 * DEGENERATE_EPS
    f = lambda v: hma_transform(Imv(v, 5)).pi
    out0, (grad0,) = ad.forward_backward(f, [bottom])
    assert np.array_equal(out0, [0.0, 12 / 11, 12 / 11, 4.0])
    for k in range(27):
        # powers of two scale exactly: the output keeps its bits, and the
        # gradient, ~6 / total at the bottom, shrinks by exactly 2**k
        out, (grad,) = ad.forward_backward(f, [bottom * 2.0**k])
        assert out.tobytes() == out0.tobytes()
        assert (grad * 2.0**k).tobytes() == grad0.tobytes()
    for raw in ([0.0, DEGENERATE_EPS], [0.0, np.nextafter(DEGENERATE_EPS, 0.0)], bottom / 2.0):
        with pytest.raises(DegenerateImvError):
            hma_transform(Imv(np.array(raw), 5))


@settings(max_examples=200, deadline=None)
@given(
    pi=st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=40).map(np.array),
    t1=st.integers(1, 40),
    sigma2=st.floats(1e-3, 1e3),
)
def test_align_from_imv_of_any_finite_imv_is_an_alignment(pi, t1, sigma2):
    # (|pi| up to 1e100: beyond about 1.3e154 * sqrt(sigma2) the logits overflow)
    check_alignment(align_from_imv(Imv(pi, t1), KernelConfig(sigma2=sigma2)))


# the smallest sigma2 whose reciprocal is finite
_SMALLEST_SIGMA2 = float(np.nextafter(1.0 / np.finfo(np.float64).max, 1.0))


def _a_largest_logit_overflows(pi, t1, sigma2) -> bool:
    """Whether the largest kernel logit over every row is infinite for some
    finite position: its column would be NaN."""
    with np.errstate(over="ignore"):
        diff = index_vector(t1)[:, None] - pi
        largest = (diff * diff * (-1.0 / sigma2)).max(axis=0)
    return bool((np.isfinite(pi) & np.isinf(largest)).any())


@settings(max_examples=300, deadline=None)
@given(
    pi=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40).map(np.array),
    t1=st.integers(1, 40),
    sigma2=st.floats(1e-3, 1e3) | st.sampled_from([1e-300, 1e300, _SMALLEST_SIGMA2]),
)
@example(pi=np.array([0.0, 1e160]), t1=3, sigma2=0.25)
@example(pi=np.array([0.0, 1e150]), t1=3, sigma2=0.25)
@example(pi=np.array([4.0, -1e10]), t1=3, sigma2=1e-300)
@example(pi=np.array([19.0]), t1=40, sigma2=_SMALLEST_SIGMA2)  # 19 rows from either end
def test_align_from_imv_raises_exactly_where_a_position_is_too_far(pi, t1, sigma2):
    imv, kernel = Imv(pi, t1), KernelConfig(sigma2=sigma2)
    if not _a_largest_logit_overflows(pi, t1, sigma2):
        with np.errstate(over="ignore"):  # the logits of far rows may overflow
            check_alignment(align_from_imv(imv, kernel))
        return
    # the check itself warns of no overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match=f"too far from rows 0..{t1 - 1}"):
            align_from_imv(imv, kernel)


@pytest.mark.parametrize("pi", [np.nan, np.inf, -np.inf])
def test_align_from_imv_gives_a_nonfinite_position_a_nan_column(pi):
    with np.errstate(invalid="ignore"):
        alpha = align_from_imv(Imv(np.array([0.0, pi]), 3))
    assert np.array_equal(alpha[:, :1], align_from_imv(Imv(np.zeros(1), 3))) and np.isnan(alpha[:, 1]).all()


def test_align_from_imv_concentrates_at_small_sigma():
    alpha = align_from_imv(Imv(np.array([0.0, 1.0]), 2), KernelConfig(sigma2=0.01))
    assert np.allclose(alpha, np.eye(2), atol=1e-10)


def test_align_from_imv_equidistant_column_is_uniform():
    alpha = align_from_imv(Imv(np.array([0.5]), 2), KernelConfig(sigma2=1.3))
    assert np.allclose(alpha[:, 0], [0.5, 0.5], atol=1e-15)


def test_align_from_imv_columns_normalized():
    rng = np.random.default_rng(2)
    pi = rng.uniform(0, 6, size=11)
    alpha = align_from_imv(Imv(pi, 7), KernelConfig(sigma2=1.0))
    assert np.allclose(alpha.sum(axis=0), 1.0, atol=1e-12)


def test_reconstruction_roundtrip_on_integer_imv():
    # hard-path IMVs sit on the index grid, so a sharp kernel reproduces them
    pi = np.array([0.0, 0.0, 1.0, 2.0, 2.0, 3.0])
    alpha = align_from_imv(Imv(pi, 4), KernelConfig(sigma2=1e-3))
    back = compute_imv(alpha)
    assert np.max(np.abs(back.values - pi)) < 1e-6


def test_streaming_step_clamps_advance():
    state = StreamingHmaState(t1=4)
    col = np.zeros(4)
    col[2] = 1.0  # raw position 2, but one step can advance at most 1
    state, _ = streaming_hma_step(state, col)
    assert state.pi == 1.0


def test_streaming_step_never_rewinds():
    state = StreamingHmaState(t1=4, pi=0.0)
    col = np.zeros(4)
    col[0] = 1.0
    state, _ = streaming_hma_step(state, col)
    assert state.pi == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_streaming_step_rejects_nonfinite_column(bad):
    # a NaN column sum compares false against any tolerance; the step must
    # reject it, as streaming_hma_run does, instead of carrying a NaN pi
    col = np.array([0.5, 0.5, 0.0, 0.0])
    col[2] = bad
    with pytest.raises(AlignmentError):
        streaming_hma_step(StreamingHmaState(t1=4), col)
    with pytest.raises(AlignmentError):
        streaming_hma_run(col[:, None])


def test_streaming_step_rejects_wrong_length_column():
    with pytest.raises(AlignmentError, match="length-4 column"):
        streaming_hma_step(StreamingHmaState(t1=4), np.array([0.5, 0.5]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("column", [
    [-1e308, 0.0, 0.0, 1e308, 1.0],  # sums to 1, but 3 * 1e308 overflows to inf
    [1e308, 0.0, 0.0, -1e308, 1.0],  # ... and to -inf
    [0.0, 1e308, -1e308, 1e308, -1e308, 1.0],
])
def test_streaming_rejects_an_overflowing_raw_position(column):
    # the clamp would turn an infinite raw position into a step of 1 or 0
    col = np.array(column)
    with pytest.raises(AlignmentError, match="not finite"):
        streaming_hma_step(StreamingHmaState(t1=col.size), col)
    with pytest.raises(AlignmentError, match="not finite"):
        streaming_hma_run(col[:, None])


@pytest.mark.parametrize("pi", [np.nan, np.inf, -np.inf])
def test_streaming_step_rejects_a_nonfinite_state(pi):
    with pytest.raises(AlignmentError, match="not finite"):
        streaming_hma_step(StreamingHmaState(t1=4, pi=pi), np.array([0.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("pi, sigma2", [(1e200, 0.25), (-1e10, 1e-300), (1e154, 1e-5)])
def test_streaming_step_rejects_a_position_whose_logit_overflows(pi, sigma2):
    # (i - pi)**2 / sigma2 overflows for every row: the column would be all NaN
    with np.errstate(over="ignore"):
        with pytest.raises(AlignmentError, match="too far from rows 0..3"):
            streaming_hma_step(StreamingHmaState(t1=4, pi=pi), np.array([0.0, 1.0, 0.0, 0.0]),
                               KernelConfig(sigma2=sigma2))


def test_streaming_step_keeps_a_far_position_whose_logit_is_finite():
    # far beyond the last row, but (3 - pi)**2 / sigma2 is finite: one-hot there
    state, col = streaming_hma_step(StreamingHmaState(t1=4, pi=1e10), np.array([0.0, 0.0, 0.0, 1.0]))
    assert state.pi == 1e10
    assert np.array_equal(col, [0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("pi", [1e17, 2.0**52])
def test_streaming_step_rejects_a_position_past_float64_row_resolution(pi):
    # from 2**52 on, fl(i - pi) rounds neighbouring rows together: at 1e17 the
    # column came back uniform instead of one-hot at the last row
    with pytest.raises(AlignmentError, match="too far from rows 0..3"):
        streaming_hma_step(StreamingHmaState(t1=4, pi=pi), np.array([0.0, 0.0, 0.0, 1.0]))


def test_streaming_step_keeps_a_position_just_inside_float64_row_resolution():
    state, col = streaming_hma_step(StreamingHmaState(t1=4, pi=2.0**52 - 1), np.array([0.0, 0.0, 0.0, 1.0]))
    assert np.array_equal(col, [0.0, 0.0, 0.0, 1.0])


_KERNEL_CONFIG = lambda v: KernelConfig(sigma2=v)
_SMA_WEIGHTS = lambda v: SmaWeights(lambda0=v)


@pytest.mark.parametrize("value, make", [
    (np.nan, _KERNEL_CONFIG), (np.nan, _SMA_WEIGHTS),
    (-1.0, _KERNEL_CONFIG), (-1.0, _SMA_WEIGHTS),
    (1e-320, _KERNEL_CONFIG),  # positive, but 1 / sigma2 overflows to inf
    (np.inf, _KERNEL_CONFIG),  # every kernel logit would be -0.0: a uniform kernel
    pytest.param(np.inf, _SMA_WEIGHTS, id="inf-SmaWeights"),  # inf * 0 makes the penalty NaN
])
def test_configs_reject_nan_and_negative(value, make):
    with pytest.raises(ValueError):
        make(value)


def test_streaming_positions_are_monotone_with_bounded_steps():
    rng = np.random.default_rng(3)
    state = StreamingHmaState(t1=6)
    previous = 0.0
    for _ in range(100):
        col = rng.random(6)
        col /= col.sum()
        state, _ = streaming_hma_step(state, col)
        assert previous <= state.pi <= previous + 1.0
        previous = state.pi


def test_streaming_steps_match_whole_sequence_run():
    rng = np.random.default_rng(4)
    for _ in range(20):
        t1 = int(rng.integers(3, 9))
        t2 = int(rng.integers(2, 17))
        alpha = rng.random((t1, t2))
        alpha /= alpha.sum(axis=0)
        kernel = KernelConfig(sigma2=float(rng.uniform(0.05, 1.0)))
        path, reconstructed = streaming_hma_run(alpha, kernel)
        state = StreamingHmaState(t1=t1)
        for j in range(t2):
            state, col = streaming_hma_step(state, alpha[:, j], kernel)
            assert abs(state.pi - path[j]) <= 1e-12
            assert np.max(np.abs(col - reconstructed[:, j])) <= 1e-12


@settings(max_examples=40, deadline=None)
@example(t1=1, t2=1, seed=0, sigma2=0.25, spread=1.0)
@example(t1=1, t2=256, seed=1, sigma2=0.25, spread=1.0)
@example(t1=64, t2=1, seed=2, sigma2=0.25, spread=1.0)
@example(t1=64, t2=256, seed=3, sigma2=0.05, spread=0.1)
@given(
    t1=st.integers(1, 64),
    t2=st.integers(1, 256),
    seed=st.integers(0, 2**32 - 1),
    sigma2=st.floats(0.05, 1.0),
    spread=st.floats(0.1, 8.0),
)
def test_streaming_steps_match_whole_sequence_run_at_any_size(t1, t2, seed, sigma2, spread):
    # Gaussian columns around random centres: ``spread`` moves them from
    # near-hard single-token columns to diffuse ones, so the raw positions
    # jump ahead, stall and fall back.
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1.0, t1, size=t2)
    alpha = np.exp(-((np.arange(t1)[:, None] - centres) ** 2) / spread)
    alpha += 1e-12
    alpha /= alpha.sum(axis=0)
    kernel = KernelConfig(sigma2=sigma2)
    path, reconstructed = streaming_hma_run(alpha, kernel)
    state = StreamingHmaState(t1=t1)
    for j in range(t2):
        state, col = streaming_hma_step(state, alpha[:, j], kernel)
        assert abs(state.pi - path[j]) <= 1e-12
        assert np.max(np.abs(col - reconstructed[:, j])) <= 1e-12


def _near_diagonal(rng, t1, t2):
    centres = np.linspace(0.0, t1 - 1.0, t2) + rng.normal(0.0, 0.7, t2)
    alpha = np.exp(-((np.arange(t1)[:, None] - centres) ** 2) / 2.0) + 1e-12
    return alpha / alpha.sum(axis=0)


@pytest.mark.parametrize("t1, t2", [(144, 433), (256, 1024)])
def test_streaming_steps_match_a_banded_whole_sequence_run(t1, t2, monkeypatch):
    # at these sizes the run's kernel evaluates only its band; the steps'
    # one-column kernels stay dense
    banded = []
    band = ad._banded_gaussian

    def spy(*args):
        banded.append(band(*args))
        return banded[-1]

    monkeypatch.setattr(ad, "_banded_gaussian", spy)
    alpha = _near_diagonal(np.random.default_rng(t1), t1, t2)
    kernel = KernelConfig()
    path, reconstructed = streaming_hma_run(alpha, kernel)
    assert len(banded) == 1 and banded[0] is not None
    state = StreamingHmaState(t1=t1)
    for j in range(t2):
        state, col = streaming_hma_step(state, alpha[:, j], kernel)
        assert abs(state.pi - path[j]) <= 1e-12
        assert np.max(np.abs(col - reconstructed[:, j])) <= 1e-12


_CLAMP_VALUES = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 5e-324, -5e-324,
                 1e308, -1e308, np.inf, -np.inf, np.nan]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_streaming_clamp_matches_the_min_max_form_bit_for_bit():
    # every pair, so the step raw - pos is exactly 0, 1, -0.0 (raw -0.0 from
    # pos 0.0), a subnormal, one ulp either side of 0 and 1, inf and NaN
    for pos, raw in itertools.product(_CLAMP_VALUES, repeat=2):
        assert _bits(monotonic._advance(pos, raw)) == _bits(ref._advance(pos, raw)), (pos, raw)


def _stream_columns(rng, t1: int, t2: int, pos: float) -> np.ndarray:
    """Columns whose raw positions sit on the half-row grid near the
    running position, which starts at ``pos`` (raw steps of exactly 0 and 1,
    new positions at k + 0.5 ties), beyond [0, t1 - 1] through a negative
    entry, or anywhere (a random column)."""
    alpha = np.zeros((t1, t2))
    for j in range(t2):
        kind = rng.choice(3, p=[0.6, 0.2, 0.2])
        if kind == 0 or t1 == 1:
            target = min(max(np.floor(2.0 * pos) / 2.0 + rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]), 0.0), t1 - 1.0)
            k = int(target)
            if target == k:
                alpha[k, j] = 1.0
            else:
                alpha[k:k + 2, j] = 0.5
        elif kind == 1:
            excess = rng.uniform(0.01, 3.0)
            ahead, behind = (t1 - 1, 0) if rng.random() < 0.5 else (0, t1 - 1)
            alpha[ahead, j], alpha[behind, j] = 1.0 + excess, -excess
        else:
            col = rng.random(t1) ** 4
            alpha[:, j] = col / col.sum()
        pos = ref._advance(pos, float(alpha[:, j] @ np.arange(t1)))
    return alpha


@settings(max_examples=12, deadline=None)
@example(t1=256, t2=1024, seed=0, sigma2=0.05, start=0.0, clamp=[])
@example(t1=256, t2=1024, seed=1, sigma2=1e6, start=0.0, clamp=[])
@example(t1=1, t2=16, seed=2, sigma2=0.25, start=-0.0, clamp=[(0.0, -0.0)])
@example(t1=40, t2=64, seed=3, sigma2=0.25, start=-40.0, clamp=[])
@given(
    t1=st.integers(1, 256),
    t2=st.integers(1, 1024),
    seed=st.integers(0, 2**32 - 1),
    sigma2=st.floats(0.05, 1e6),
    # the steps' starting position; the run always starts at 0
    start=st.sampled_from([0.0, -0.0, 0.5, 3.0, -2.5, -40.0]),
    clamp=st.lists(st.tuples(st.floats(), st.floats()), max_size=20),
)
def test_streaming_step_and_run_match_the_reference_bit_for_bit(t1, t2, seed, sigma2, start, clamp):
    for pos, raw in clamp:
        assert _bits(monotonic._advance(pos, raw)) == _bits(ref._advance(pos, raw))
    alpha = _stream_columns(np.random.default_rng(seed), t1, t2, start)
    kernel = KernelConfig(sigma2=sigma2)
    path, reconstructed = streaming_hma_run(alpha, kernel)
    ref_path, ref_reconstructed = ref.streaming_hma_run(alpha, kernel)
    assert path.tobytes() == ref_path.tobytes()
    assert reconstructed.tobytes() == ref_reconstructed.tobytes()
    state = ref_state = StreamingHmaState(t1=t1, pi=start)
    for j in range(t2):
        state, col = streaming_hma_step(state, alpha[:, j], kernel)
        # a step sums the column in its contiguous order, whatever its layout
        ref_state, ref_col = ref.streaming_hma_step(ref_state, alpha[:, j].copy(), kernel)
        assert _bits(state.pi) == _bits(ref_state.pi)
        assert col.tobytes() == ref_col.tobytes()


def test_streaming_step_does_not_depend_on_the_column_layout():
    # BLAS sums a strided column's dot product in another order; on this
    # alignment that moves one of the twelve positions by an ulp
    rng = np.random.default_rng(5)
    alpha = rng.random((7, 12))
    alpha /= alpha.sum(axis=0)
    kernel = KernelConfig(sigma2=0.25)
    strided = contiguous = StreamingHmaState(t1=7)
    for j in range(12):
        strided, col = streaming_hma_step(strided, alpha[:, j], kernel)
        contiguous, expected = streaming_hma_step(contiguous, alpha[:, j].copy(), kernel)
        assert _bits(strided.pi) == _bits(contiguous.pi)
        assert col.tobytes() == expected.tobytes()


def test_streaming_steps_return_fresh_columns_and_hold_no_input():
    rng = np.random.default_rng(5)
    alpha = rng.random((7, 12))
    alpha /= alpha.sum(axis=0)
    kernel = KernelConfig(sigma2=0.3)
    expected = []
    state = StreamingHmaState(t1=7)
    for j in range(12):
        state, col = streaming_hma_step(state, alpha[:, j], kernel)
        expected.append((state.pi, col.tobytes()))
    work = alpha.copy()
    state = StreamingHmaState(t1=7)
    state, first = streaming_hma_step(state, work[:, 0], kernel)
    kept = first.copy()
    for j in range(1, 12):
        state, col = streaming_hma_step(state, work[:, j], kernel)
        assert (state.pi, col.tobytes()) == expected[j]
        assert col.flags.writeable and col.flags.owndata
        col[:] = np.nan  # neither the returned column
        work[:, j] = np.nan  # nor the consumed input may reach a later step
    assert first.tobytes() == kept.tobytes() == expected[0][1]
    # the steps share an index grid; index_vector still returns a fresh one
    grid = index_vector(7)
    assert grid.flags.writeable
    grid[:] = -1.0
    assert np.array_equal(index_vector(7), np.arange(7.0))
