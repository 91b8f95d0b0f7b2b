import numpy as np
import pytest

from imvalign.core import AlignmentError, Imv, compute_imv
from imvalign.monotonic import KernelConfig
from imvalign.positions import (
    AlignedPositions,
    ApLossConfig,
    align_from_positions,
    ap_loss,
    density_matrix,
    extract_positions,
    infer_t2,
    scale_positions,
)

SHARP = KernelConfig(sigma2=0.01)


def test_density_matrix_concentrates_at_small_sigma():
    gamma = density_matrix(Imv(np.array([0.0, 1.0]), 2), SHARP)
    assert np.allclose(gamma, np.eye(2), atol=1e-10)


def test_density_matrix_constant_imv_gives_uniform_rows():
    gamma = density_matrix(Imv(np.full(5, 1.7), 3), KernelConfig(sigma2=0.4))
    assert np.allclose(gamma, 0.2, atol=1e-12)


def test_density_matrix_rows_normalized():
    rng = np.random.default_rng(0)
    gamma = density_matrix(Imv(rng.uniform(0, 3, size=9), 4), KernelConfig(sigma2=0.7))
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


def test_extract_positions_diagonal_case():
    pos = extract_positions(Imv(np.array([0.0, 1.0, 2.0, 3.0]), 4), SHARP)
    assert np.allclose(pos.values, [0.0, 1.0, 2.0, 3.0], atol=1e-9)


def test_extract_positions_two_frames_per_token():
    # token 0 covers frames {0,1}, token 1 covers {2,3}
    pos = extract_positions(Imv(np.array([0.0, 0.0, 1.0, 1.0]), 2), SHARP)
    assert np.allclose(pos.values, [0.5, 2.5], atol=1e-9)


def test_extract_positions_single_output_step():
    pos = extract_positions(Imv(np.zeros(1), 3), SHARP)
    assert np.array_equal(pos.values, np.zeros(3))


def test_extract_positions_preserves_order():
    rng = np.random.default_rng(1)
    for _ in range(20):
        deltas = rng.uniform(0, 1, size=12)
        pi = np.cumsum(deltas)
        t1 = int(np.ceil(pi[-1])) + 1
        pos = extract_positions(Imv(pi, t1), KernelConfig(sigma2=0.25))
        assert np.all(np.diff(pos.values) >= -1e-9)


def test_ap_loss_zero_on_equal_inputs():
    d = np.array([1.0, 2.0, 0.5])
    assert ap_loss(d, d) == 0.0


def test_ap_loss_hand_computed_epsilon_cancelling():
    eps = 1e-6
    pred = np.array([np.e - eps])
    target = np.array([1.0 - eps])
    assert ap_loss(pred, target, ApLossConfig(epsilon=eps)) == pytest.approx(1.0, abs=1e-12)


def test_ap_loss_identical_zeros():
    assert ap_loss(np.zeros(1), np.zeros(1), ApLossConfig(epsilon=1e-6)) == 0.0


def test_ap_loss_rejects_negative_inputs():
    with pytest.raises(AlignmentError):
        ap_loss(np.array([-0.1]), np.array([0.5]))
    with pytest.raises(AlignmentError):
        ap_loss(np.array([0.1]), np.array([-0.5]))


def test_ap_loss_rejects_mismatched_shapes():
    with pytest.raises(AlignmentError, match="shapes differ"):
        ap_loss(np.ones(3), np.ones(2))


def test_ap_loss_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(0, 3, size=6)
        b = rng.uniform(0, 3, size=6)
        assert ap_loss(a, b) >= 0.0


def test_align_from_positions_concentrates():
    alpha = align_from_positions(AlignedPositions(np.array([0.0, 1.0])), 2, SHARP)
    assert np.allclose(alpha, np.eye(2), atol=1e-10)


def test_align_from_positions_ties_share_weight():
    alpha = align_from_positions(
        AlignedPositions(np.array([1.0, 1.0, 4.0])), 6, KernelConfig(sigma2=0.5)
    )
    assert np.allclose(alpha[0], alpha[1], atol=1e-15)


def test_align_from_positions_rejects_zero_length():
    with pytest.raises(AlignmentError, match="t2 must be >= 1"):
        align_from_positions(AlignedPositions(np.array([0.0, 1.0])), 0, SHARP)


def test_align_from_positions_columns_normalized():
    rng = np.random.default_rng(3)
    alpha = align_from_positions(
        AlignedPositions(rng.uniform(0, 9, size=5)), 12, KernelConfig(sigma2=0.8)
    )
    assert np.allclose(alpha.sum(axis=0), 1.0, atol=1e-12)


def test_infer_t2_direct_formula():
    assert infer_t2(AlignedPositions(np.array([2.0, 7.0]))) == 12
    assert infer_t2(AlignedPositions(np.array([0.0, 1.0]))) == 2


def test_infer_t2_degenerate_zero_delta():
    assert infer_t2(AlignedPositions(np.array([3.0, 3.0]))) == 3


def test_infer_t2_floors_at_one():
    assert infer_t2(AlignedPositions(np.array([0.2, 0.1]))) == 1


def test_infer_t2_needs_two_positions():
    with pytest.raises(AlignmentError):
        infer_t2(AlignedPositions(np.array([4.0])))


def test_scale_positions():
    pos = AlignedPositions(np.array([2.0, 7.0]))
    assert np.array_equal(scale_positions(pos, 1.0).values, pos.values)
    half = scale_positions(pos, 0.5)
    assert np.allclose(half.values, [1.0, 3.5])
    assert infer_t2(half) == 6
    faster = scale_positions(AlignedPositions(np.array([0.0, 5.0])), 1.2)
    assert np.allclose(faster.values, [0.0, 6.0])
    assert infer_t2(faster) == 12


def test_scale_positions_rejects_nonpositive_rate():
    with pytest.raises(AlignmentError):
        scale_positions(AlignedPositions(np.array([1.0, 2.0])), 0.0)


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_scale_positions_rejects_nonfinite_rate(rate):
    # NaN fails no `rate <= 0` test; both would surface later as a bare
    # ValueError when the output length is rounded to an integer
    with pytest.raises(AlignmentError):
        scale_positions(AlignedPositions(np.array([1.0, 2.0])), rate)


def test_deltas_anchor_first_position():
    pos = AlignedPositions(np.array([1.5, 2.0, 4.0]))
    assert np.allclose(pos.deltas, [1.5, 0.5, 2.0])
    assert np.allclose(np.cumsum(pos.deltas), pos.values)


def test_scale_positions_gradient():
    from imvalign import autodiff as ad

    rng = np.random.default_rng(5)
    e = rng.uniform(0, 8, size=6)
    f = lambda v: ad.asum(scale_positions(AlignedPositions(v), 1.7).e)
    assert ad.gradcheck(f, [e], op_name="scale_positions").passed


def test_duration_roundtrip_keeps_positions_in_span():
    rng = np.random.default_rng(4)
    for _ in range(20):
        t1 = int(rng.integers(2, 7))
        durations = _smooth_durations(rng, t1)
        starts = np.concatenate([[0], np.cumsum(durations)[:-1]])
        pi = np.repeat(np.arange(t1, dtype=float), durations)
        pos = extract_positions(Imv(pi, t1), SHARP)
        for i in range(t1):
            assert starts[i] - 1e-9 <= pos.values[i] <= starts[i] + durations[i] - 1 + 1e-9
        t2 = int(durations.sum())
        back = compute_imv(align_from_positions(pos, t2, SHARP))
        assert np.max(np.abs(back.values - pi)) < 0.1


def _smooth_durations(rng, t1, dmin=1, dmax=4):
    # adjacent durations differing by more than 1 put span-edge frames
    # closer to the neighbouring token's centre, which a sharp kernel then
    # attributes to the wrong token; keep the profile smooth
    durations = np.empty(t1, dtype=int)
    durations[0] = rng.integers(dmin, dmax + 1)
    for i in range(1, t1):
        lo = max(dmin, durations[i - 1] - 1)
        hi = min(dmax, durations[i - 1] + 1)
        durations[i] = rng.integers(lo, hi + 1)
    return durations
