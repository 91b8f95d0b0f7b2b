"""Metamorphic relations of the IMV calculus at TTS sizes (t1 up to 256, t2
up to 1024).

Each relation compares two runs of an op, so it needs no oracle. None holds
bit for bit: the rectified path is a running sum, and a run on a related
input sums in another order or over rounded inputs. The bounds of
``hma_transform``'s relations are the ones written in its docstring; each
reflection test states its own.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from imvalign import autodiff as ad
from imvalign.core import Imv
from imvalign.monotonic import DEGENERATE_EPS, DegenerateImvError, KernelConfig, align_from_imv, hma_transform
from imvalign.positions import AlignedPositions, align_from_positions, extract_positions, infer_t2, scale_positions

EPS = 2.0**-52
KINDS = ("walk", "uniform", "stalls", "one-jump")


def _raw_imv(kind, t1, t2, seed, scale):
    """A raw IMV of ``t2`` entries, as attention gives one before HMA."""
    rng = np.random.default_rng(seed)
    if kind == "walk":  # moves ahead, stalls and falls back
        return np.cumsum(rng.normal(0.5, 1.0, t2)) * scale
    if kind == "uniform":  # no order at all
        return rng.uniform(0.0, t1 - 1.0, t2) * scale
    if kind == "stalls":  # most steps do not move
        return np.cumsum(rng.exponential(1.0, t2) * (rng.random(t2) < 0.1)) * scale
    # steps below half an ulp of the last entry's jump of 1: summed after it
    # they round away, summed before it they do not. At t2 = 1024 this
    # reaches 1/16 of the time-reversal bound
    tiny = 2.0**-54 * np.arange(t2 - 1.0)
    return np.append(tiny, tiny[-1] + 1.0)


def _rectified_total(raw):
    return float(np.maximum(np.diff(raw), 0.0).sum())


raws = dict(
    kind=st.sampled_from(KINDS),
    t1=st.integers(1, 256),
    t2=st.integers(2, 1024),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
)


@settings(max_examples=150, deadline=None)
@example(kind="one-jump", t1=256, t2=1024, seed=0, scale=1.0)
@example(kind="walk", t1=1, t2=2, seed=0, scale=1.0)
@given(**raws)
def test_time_reversal_reflects_the_output(kind, t1, t2, seed, scale):
    # -reverse(raw) has the reversed increments, so its output is the
    # reflected one: the running sum only adds the same steps in reverse order
    raw = _raw_imv(kind, t1, t2, seed, scale)
    assume(_rectified_total(raw) > 2 * DEGENERATE_EPS)
    out = hma_transform(Imv(raw, t1)).values
    reflected = hma_transform(Imv(-raw[::-1], t1)).values
    assert np.abs(reflected - ((t1 - 1) - out[::-1])).max() <= 4 * t2 * EPS * (t1 - 1)


@settings(max_examples=150, deadline=None)
@example(kind="one-jump", t1=256, t2=1024, seed=0, scale=1.0, log2_a=-20.0, b=1e6)
@example(kind="walk", t1=256, t2=1024, seed=1, scale=1e3, log2_a=20.0, b=-1e6)
@given(**raws, log2_a=st.floats(-20.0, 20.0), b=st.just(0.0) | st.floats(-1e6, 1e6))
def test_a_positive_affine_map_leaves_the_output(kind, t1, t2, seed, scale, log2_a, b):
    raw = _raw_imv(kind, t1, t2, seed, scale)
    total = _rectified_total(raw)
    assume(total > 2 * DEGENERATE_EPS)
    a = 2.0**log2_a
    out = hma_transform(Imv(raw, t1)).values
    # the rounding of a*raw + b moves each increment by up to ~eps*(a*max|raw| + |b|)
    slack = 8 * t2 * EPS * (1 + (np.abs(raw).max() + abs(b) / a) / total)
    try:
        moved = hma_transform(Imv(a * raw + b, t1)).values
    except DegenerateImvError:
        # DEGENERATE_EPS is absolute, and a bound of t1 - 1 or more claims nothing
        assert a * total <= 2 * DEGENERATE_EPS or slack >= 1
        return
    assert np.abs(moved - out).max() <= slack * (t1 - 1)


@settings(max_examples=150, deadline=None)
@example(kind="one-jump", t1=256, t2=1024, seed=0, scale=1.0)
@example(kind="walk", t1=256, t2=1024, seed=2, scale=1e3)
@example(kind="walk", t1=1, t2=2, seed=0, scale=1.0)
@given(**raws)
def test_the_hard_transform_of_its_own_output_is_that_output(kind, t1, t2, seed, scale):
    """``hma_transform`` is idempotent within 4 * t2 * eps * (t1 - 1), the
    bound in its docstring: its output's steps are already rectified, so a
    second run only re-rounds their running sum and the rescale to t1 - 1.

    Measured over 2,982 draws of these kinds (t1 2-256, t2 2-1024): at most
    0.022 of the bound, and bit for bit in 229 draws. At t1 = 1 the output
    is all zeros, which has no forward motion. Kills the mutant
    ``hma-rectifier-leaks-negative-steps``.
    """
    raw = _raw_imv(kind, t1, t2, seed, scale)
    assume(_rectified_total(raw) > 2 * DEGENERATE_EPS)
    out = hma_transform(Imv(raw, t1)).values
    if t1 == 1:
        with pytest.raises(DegenerateImvError):
            hma_transform(Imv(out, t1))
        return
    again = hma_transform(Imv(out, t1)).values
    assert np.abs(again - out).max() <= 4 * t2 * EPS * (t1 - 1)


def _imv_in_range(kind, t1, t2, seed, scale):
    """An IMV within [0, t1 - 1]: the hard transform of a raw one, or for
    "uniform" the unordered draw itself, as an unconstrained model gives."""
    raw = _raw_imv(kind, t1, t2, seed, scale)
    if kind == "uniform":
        return raw / scale
    assume(_rectified_total(raw) > 2 * DEGENERATE_EPS)
    return hma_transform(Imv(raw, t1)).values


@settings(max_examples=150, deadline=None)
@example(kind="walk", t1=225, t2=939, seed=1024359652, scale=0.5656324416653783)
@example(kind="walk", t1=1, t2=2, seed=0, scale=1.0)
@given(**raws)
def test_reflecting_the_imv_flips_its_alignment_on_both_axes(kind, t1, t2, seed, scale):
    """``align_from_imv`` of (t1 - 1) - reverse(pi) is the alignment of pi
    flipped on both axes, within 4 * eps * t1 absolute (sigma2 0.25).

    Only the reflection rounds: by up to half an ulp of t1 - 1, which moves
    an entry by at most about eps * (t1 - 1) / sqrt(sigma2). Measured over
    3,989 draws of these kinds (t1 1-256, t2 2-1024): at most 2.9e-14, 0.23
    of the bound, and bit for bit in 32 draws (most of them t1 = 1). Kills
    the mutant ``align-from-imv-row-grid-shifted``.
    """
    pi = _imv_in_range(kind, t1, t2, seed, scale)
    alpha = align_from_imv(Imv(pi, t1))
    reflected = align_from_imv(Imv((t1 - 1) - pi[::-1], t1))
    assert np.abs(reflected - alpha[::-1, ::-1]).max() <= 4 * EPS * t1


@settings(max_examples=150, deadline=None)
@example(kind="one-jump", t1=255, t2=3, seed=0, scale=1.0)
@example(kind="walk", t1=1, t2=2, seed=0, scale=1.0)
@given(**raws)
def test_reflecting_the_imv_reflects_its_positions(kind, t1, t2, seed, scale):
    """``extract_positions`` of (t1 - 1) - reverse(pi) is (t2 - 1) -
    reverse(positions), within 4 * eps * t1**2 of t2 - 1 (sigma2 0.25).

    The reflection's rounding, up to half an ulp of t1 - 1, moves a token's
    kernel logits by 2 |i - p| / sigma2 times as much, and a token far from
    every IMV position weighs steps whose logits differ that little. Measured
    over 3,989 draws of these kinds (t1 1-256, t2 2-1024): at most 1.2e-12 of
    t2 - 1 (a one-jump IMV, whose middle tokens sit between its two clusters),
    0.20 of the bound, and bit for bit in 24 draws (most of them t1 = 1).
    Kills the mutant ``density-token-grid-shifted``.
    """
    pi = _imv_in_range(kind, t1, t2, seed, scale)
    positions = extract_positions(Imv(pi, t1)).values
    reflected = extract_positions(Imv((t1 - 1) - pi[::-1], t1)).values
    assert np.abs(reflected - ((t2 - 1) - positions[::-1])).max() <= 4 * EPS * t1**2 * (t2 - 1)


def _positions(kind, t1, t2, rng):
    """Aligned positions of ``t1`` tokens over ``t2`` output steps: gamma
    increments ending at t2 - 1, as a trained predictor gives them, sorted
    draws rounded to quarter steps (ties), or unsorted draws."""
    if kind == "steps":
        e = np.cumsum(rng.gamma(2.0, 1.0, t1))
        return e * ((t2 - 1) / e[-1])
    if kind == "ties":
        return np.sort(np.round(rng.uniform(0.0, t2 - 1.0, t1) * 4.0) / 4.0)
    return rng.uniform(-5.0, t2 + 5.0, t1)


def _bands(e, t2, sigma2):
    """Whether ``align_from_positions(e, t2)`` evaluates only the kernel's band."""
    return ad._banded_gaussian(e, np.arange(float(t2)), sigma2, -1.0 / sigma2) is not None


def _shift_error(kind, t1, t2, k, sigma2, seed):
    """The largest difference between ``align_from_positions(e, t2)`` and the
    last t2 columns of ``align_from_positions(e + k, t2 + k)``, and its bound
    in ``align_from_positions``'s docstring. A "crossing" draw maps the
    sizes to t1 in [16, 100] and t1 * t2 just under the band's size
    constant, and has sorted positions, so only the shifted call bands."""
    if kind == "crossing":
        t1 = 16 + t1 % 85
        least = -(-ad._BAND_MIN_ENTRIES // t1)  # the fewest output steps that band
        t2 = least - 1 - t2 % (least // 2)
        k = least - t2 + k % 64
    e = _positions("steps" if kind == "crossing" else kind, t1, t2, np.random.default_rng(seed))
    if kind == "crossing":
        assert not _bands(e, t2, sigma2) and _bands(e + k, t2 + k, sigma2)
    kernel = KernelConfig(sigma2=sigma2)
    alpha = align_from_positions(AlignedPositions(e), t2, kernel)
    shifted = align_from_positions(AlignedPositions(e + k), t2 + k, kernel)
    # the largest distance from an output step to its nearest position
    gap = np.abs(np.arange(float(t2)).reshape(-1, 1) - e).min(axis=1).max()
    bound = 2 * EPS * ((np.abs(e).max() + k) * (gap + np.sqrt(sigma2)) / sigma2 + t1)
    return np.abs(shifted[:, k:] - alpha).max(), bound


@settings(max_examples=100, deadline=None)
@example(kind="crossing", t1=100, t2=99, k=1, sigma2=0.25, seed=0)
@example(kind="steps", t1=1, t2=1, k=1, sigma2=0.25, seed=0)
@given(
    kind=st.sampled_from(["steps", "ties", "unsorted", "crossing"]),
    t1=st.integers(1, 256),
    t2=st.integers(1, 1024),
    k=st.integers(1, 1024),
    sigma2=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifting_the_positions_and_the_length_shifts_the_alignment(kind, t1, t2, k, sigma2, seed):
    """The last t2 columns of ``align_from_positions(e + k, t2 + k)`` are
    ``align_from_positions(e, t2)`` within the bound in its docstring.

    Measured over 7,000 draws (t1 1-256, t2 1-1024, k 1-1024, sigma2
    0.05-1, a quarter of them crossing): at most 0.164 of the bound, on a
    crossing draw, and bit for bit in 1,630. Kills the mutant
    ``align-from-positions-step-grid-stretched``.
    """
    error, bound = _shift_error(kind, t1, t2, k, sigma2, seed)
    assert error <= bound


@settings(max_examples=100, deadline=None)
@example(kind="steps", t1=2, t2=1024, seed=0, rates=[0.5, 2.0])
@given(
    kind=st.sampled_from(["steps", "ties", "unsorted"]),
    t1=st.integers(2, 256),
    t2=st.integers(1, 1024),
    seed=st.integers(0, 2**32 - 1),
    rates=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=12, unique=True),
)
def test_a_higher_rate_never_infers_a_shorter_length(kind, t1, t2, seed, rates):
    """``infer_t2(scale_positions(p, r))`` never decreases as r grows, within
    the bound in ``infer_t2``'s docstring: for r1 < r2 it does not decrease
    where the projections are farther apart than their rounding, and drops
    by at most 1 where they are not. Each projection that crosses a half
    step is also taken one and two ulps of the rate either side, where the
    rounding alone decides.

    Measured over 3,000 draws (2.95 million pairs of rates): 1,655 drops of
    1 among the 201,688 pairs within the rounding, none larger and none
    among the pairs farther apart. Kills the mutant
    ``scale-positions-divides-by-the-rate``.
    """
    e = _positions(kind, t1, t2, np.random.default_rng(seed))
    last, before = abs(e[-1]), abs(e[-2])
    slope = 2 * e[-1] - e[-2]
    rates = list(rates)
    if slope > 0:
        for half in {np.floor(r * slope - 0.5) + 0.5 for r in rates}:
            r = half / slope
            rates += [r, *(np.nextafter(r, d) for d in (0.0, np.inf)),
                      *(np.nextafter(np.nextafter(r, d), d) for d in (0.0, np.inf))]
    rates = sorted(r for r in set(rates) if r > 0)
    lengths = [infer_t2(scale_positions(AlignedPositions(e), r)) for r in rates]
    for i, (r1, n1) in enumerate(zip(rates, lengths)):
        for r2, n2 in zip(rates[i + 1:], lengths[i + 1:]):
            apart = (r2 - r1) * slope >= 3 * EPS * (r1 + r2) * (last + before)
            assert n2 >= (n1 if apart else n1 - 1)
