import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imvalign import autodiff as ad
from imvalign import core
from imvalign.core import AlignmentError, Imv, compute_imv, index_vector
from imvalign.monotonic import KernelConfig, align_from_imv, hma_transform
from imvalign.positions import (
    AP_EPSILON,
    AlignedPositions,
    align_from_positions,
    ap_loss,
    extract_positions,
    infer_t2,
    scale_positions,
)
import reference_tape as ref

SHARP = KernelConfig(sigma2=0.01)


def test_every_gaussian_kernel_is_built_at_the_size_cap_and_refused_over_it(monkeypatch):
    imv = Imv(np.array([0.0, 0.7, 1.2, 2.0]), 3)
    kernels = [
        lambda: align_from_imv(imv), lambda: extract_positions(imv),
        lambda: align_from_positions(AlignedPositions(np.array([0.5, 1.5, 2.5])), 4),
    ]
    monkeypatch.setattr(core, "MAX_ALIGNMENT_ENTRIES", 12)  # each kernel is 3x4
    for build in kernels:
        build()
    monkeypatch.setattr(core, "MAX_ALIGNMENT_ENTRIES", 11)
    for build in kernels:
        with pytest.raises(ValueError, match="^a 3x4 alignment is over the cap of 11 entries$") as info:
            build()
        # a plain ValueError, not an AlignmentError: the CLI exits 2 on it
        assert type(info.value) is ValueError
    # 2**62 x 4 entries: a product in numpy's int64 would wrap to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="over the cap"):
            align_from_imv(Imv(imv.pi, np.int64(2**62)))


def test_density_matrix_concentrates_at_small_sigma():
    # each token's mass, and so its position, is on the step at its IMV entry
    imv = Imv(np.array([0.0, 1.0]), 2)
    assert np.allclose(ref.density_matrix(imv, SHARP), np.eye(2), atol=1e-10)
    assert np.allclose(extract_positions(imv, SHARP).values, [0.0, 1.0], atol=1e-10)


def test_density_matrix_constant_imv_gives_uniform_rows():
    # every token spreads evenly over the 5 steps: its position is their mean
    imv, kernel = Imv(np.full(5, 1.7), 3), KernelConfig(sigma2=0.4)
    assert np.allclose(ref.density_matrix(imv, kernel), 0.2, atol=1e-12)
    assert np.allclose(extract_positions(imv, kernel).values, 2.0, atol=1e-12)


def test_density_matrix_rows_normalized():
    # at toy sizes each position is the normalised row's mean step bit for
    # bit, so it lies within the steps
    rng = np.random.default_rng(0)
    imv, kernel = Imv(rng.uniform(0, 3, size=9), 4), KernelConfig(sigma2=0.7)
    gamma = ref.density_matrix(imv, kernel)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
    e = extract_positions(imv, kernel).values
    assert e.tobytes() == (gamma @ index_vector(imv.t2)).tobytes()
    assert np.all((e >= 0.0) & (e <= imv.t2 - 1))


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


def test_extract_positions_rejects_a_finite_imv_too_far_from_a_token():
    # every squared distance to 1e200 overflows: each density row would be NaN;
    # the check runs before the kernel, so nothing overflows and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match="token 0 is too far from every IMV position"):
            extract_positions(Imv(np.array([1e200, 1e200]), 4))
    # one step near the tokens keeps every density row finite
    with np.errstate(over="ignore", invalid="ignore"):
        pos = extract_positions(Imv(np.array([0.0, 1e200]), 4))
    assert np.array_equal(pos.values, np.zeros(4))


def _tts_imv(kind, t1, t2, rng):
    """A hard-monotonic IMV at TTS lengths: the HMA output of a noisy walk
    that stalls and falls back, or rectified gamma steps (the benchmark's
    near-diagonal paths) scaled to end at the last token."""
    if kind == "walk":
        return hma_transform(Imv(np.cumsum(rng.normal(0.5, 1.0, t2)), t1)).values
    centres = np.concatenate([[0.0], np.cumsum(rng.gamma(4.0, 1.0, t2 - 1))])
    return centres * ((t1 - 1) / centres[-1])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_banded_positions_are_the_density_matrix_s_mean_within_their_bound(data):
    """At band sizes ``extract_positions`` takes each mean from the band, not
    from the density matrix: within 2 * t2 * eps * max(1, |e_i|) of the
    reference ``density_matrix(imv) @ index_vector(t2)``, the bound of
    ``autodiff.gaussian_positions``."""
    t1 = data.draw(st.integers(32, 256))
    t2 = data.draw(st.integers(max(t1 + 1, -(-ad._BAND_MIN_ENTRIES // t1)), 1024))
    kind = data.draw(st.sampled_from(["walk", "steps"]))
    kernel = KernelConfig(sigma2=data.draw(st.floats(0.1, 1.0)))
    pi = _tts_imv(kind, t1, t2, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    tokens = index_vector(t1)
    assert ad._band_block(pi, tokens, kernel.sigma2, -1.0 / kernel.sigma2) is not None
    e = extract_positions(Imv(pi, t1), kernel).values
    expected = ref.density_matrix(Imv(pi, t1), kernel) @ index_vector(t2)
    assert np.all(np.abs(e - expected) <= 2 * t2 * 2.0**-52 * np.maximum(1.0, np.abs(expected)))


# the smallest sigma2 whose reciprocal is finite: a logit overflows beyond ~1 token
_SMALLEST_SIGMA2 = float(np.nextafter(1.0 / np.finfo(np.float64).max, 1.0))


def _extract(pi, n, kernel):
    """The kernel over the IMV ``pi`` for each of ``n`` tokens."""
    return extract_positions(Imv(pi, n), kernel).values


def _align(pi, n, kernel):
    """The kernel over the aligned positions ``pi`` for each of ``n`` output steps."""
    return align_from_positions(AlignedPositions(pi), n, kernel)


@pytest.mark.parametrize("wrapper, entry", [(_extract, "token"), (_align, "output step")], ids=["extract", "align"])
@settings(max_examples=300, deadline=None)
@given(
    pi=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.floats(-3, 43), min_size=1, max_size=40)
    .map(np.array),
    n=st.integers(1, 40),
    sigma2=st.floats(1e-3, 1e3) | st.sampled_from([1e-300, _SMALLEST_SIGMA2]),
)
@example(pi=np.array([-1e200]), n=3, sigma2=0.25)
@example(pi=np.array([0.0, 39.0]), n=40, sigma2=_SMALLEST_SIGMA2)  # entries 2..37 are far
@example(pi=np.array([2.5, 2.5]), n=8, sigma2=_SMALLEST_SIGMA2)  # 1.5 from entries 1 and 4
@example(pi=np.array([3.0, 1e308, -1e308]), n=8, sigma2=1e-300)
@example(pi=np.array([-13390.0]), n=40, sigma2=1e-300)  # entries 18..39 are far; no magnitude alone is
def test_a_positions_kernel_raises_exactly_where_an_entry_is_too_far(wrapper, entry, pi, n, sigma2):
    kernel = KernelConfig(sigma2=sigma2)
    # the oracle: the largest kernel logit of each token or step, over every entry of pi
    with np.errstate(over="ignore"):
        diff = np.arange(n, dtype=np.float64)[:, None] - pi
        far = np.isinf((diff * diff * (-1.0 / sigma2)).max(axis=1))
    if not far.any():
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(wrapper(pi, n, kernel)).all()
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match=f"{entry} {int(far.argmax())} is too far from every"):
            wrapper(pi, n, kernel)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extract_positions_skips_a_nonfinite_entry_and_refuses_a_far_finite_one(bad):
    # the non-finite entry is skipped, as align_from_imv skips one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match="token 0 is too far from every IMV position"):
            extract_positions(Imv(np.array([bad, 1e200]), 4))


def test_extract_positions_passes_a_nonfinite_imv_through():
    with np.errstate(invalid="ignore"):
        pos = extract_positions(Imv(np.array([0.0, np.nan]), 3))
        no_finite_entry = extract_positions(Imv(np.array([np.nan, np.inf]), 3))
    assert np.isnan(pos.values).all() and np.isnan(no_finite_entry.values).all()


def test_ap_loss_zero_on_equal_inputs():
    d = np.array([1.0, 2.0, 0.5])
    assert ap_loss(d, d) == 0.0


def test_ap_loss_hand_computed_epsilon_cancelling():
    pred = np.array([np.e - AP_EPSILON])
    target = np.array([1.0 - AP_EPSILON])
    assert ap_loss(pred, target) == pytest.approx(1.0, abs=1e-12)


def test_ap_loss_identical_zeros():
    assert ap_loss(np.zeros(1), np.zeros(1)) == 0.0


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


@pytest.mark.parametrize("t2", [2.5, 3.0, True, np.float64(4.0), "5"])
def test_align_from_positions_refuses_a_length_that_is_not_an_integer(t2):
    with pytest.raises(AlignmentError, match=re.escape(f"t2 must be >= 1 and an integer, got {t2!r}")):
        align_from_positions(AlignedPositions(np.array([0.0, 1.0])), t2, SHARP)
    # a numpy integer is an integer
    assert align_from_positions(AlignedPositions(np.array([0.0, 1.0])), np.int64(3), SHARP).shape == (2, 3)


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


@pytest.mark.parametrize("e", [[0.0, 1.0, np.inf], [0.0, np.nan, 2.0], [0.0, 1e308, 1.7e308]],
                         ids=["inf", "nan", "overflow"])
def test_infer_t2_refuses_a_projection_that_is_not_finite(e):
    # the last position plus its increment is inf, NaN, or overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match="project an output length of"):
            infer_t2(AlignedPositions(np.array(e)))


def test_scale_positions():
    pos = AlignedPositions(np.array([2.0, 7.0]))
    assert np.array_equal(scale_positions(pos, 1.0).values, pos.values)
    half = scale_positions(pos, 0.5)
    assert np.allclose(half.values, [1.0, 3.5])
    assert infer_t2(half) == 6
    faster = scale_positions(AlignedPositions(np.array([0.0, 5.0])), 1.2)
    assert np.allclose(faster.values, [0.0, 6.0])
    assert infer_t2(faster) == 12


@settings(max_examples=200, deadline=None)
@given(
    e=st.lists(st.floats(0.0, 1e4), min_size=2, max_size=20).map(sorted),
    rate=st.floats(1e-3, 1e3),
)
def test_inferred_length_scales_with_the_rate_up_to_rounding(e, rate):
    e = np.array(e)
    n = infer_t2(scale_positions(AlignedPositions(e), rate))
    # rate x the projected length, exactly, and a bound on the rounding of
    # the scaled positions and of the float projection
    target = Fraction(rate) * (2 * Fraction(e[-1]) - Fraction(e[-2]))
    slack = Fraction(8 * np.finfo(float).eps) * Fraction(rate) * (2 * Fraction(e[-1]) + Fraction(e[-2]))
    lowest = max(1, math.floor(target - slack + Fraction(1, 2)))
    highest = max(1, math.floor(target + slack + Fraction(1, 2)))
    assert lowest <= n <= highest


def test_scale_positions_rejects_nonpositive_rate():
    with pytest.raises(AlignmentError):
        scale_positions(AlignedPositions(np.array([1.0, 2.0])), 0.0)


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_scale_positions_rejects_nonfinite_rate(rate):
    # NaN fails no `rate <= 0` test; both would surface later as a bare
    # ValueError when the output length is rounded to an integer
    with pytest.raises(AlignmentError):
        scale_positions(AlignedPositions(np.array([1.0, 2.0])), rate)


def test_scale_positions_refuses_a_finite_position_that_would_overflow():
    pos = AlignedPositions(np.array([0.0, 1.5, 2.0, np.inf]))
    top = np.finfo(float).max
    assert scale_positions(pos, top / 2.0).values[2] == top  # the largest finite one fits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match="magnitude 2 overflows when scaled by rate"):
            scale_positions(pos, top)


def test_deltas_anchor_first_position():
    pos = AlignedPositions(np.array([1.5, 2.0, 4.0]))
    assert np.allclose(pos.deltas, [1.5, 0.5, 2.0])
    assert np.allclose(np.cumsum(pos.deltas), pos.values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64).map(np.array))
def test_positions_are_the_cumulative_sum_of_their_deltas(values):
    p = AlignedPositions(values)
    back = AlignedPositions(np.cumsum(p.deltas)).values
    assert np.all(np.abs(back - p.values) <= 1e-12 * np.abs(p.values).max())


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
