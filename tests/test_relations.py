"""Metamorphic relations of ``hma_transform`` at TTS sizes (t2 up to 1024).

Each relation compares two runs of the op, so it needs no oracle. Neither
holds bit for bit: the rectified path is a running sum, and a run on a
related input sums in another order or over rounded inputs. Each bound is
the one written in ``hma_transform``'s docstring.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from imvalign.core import Imv
from imvalign.monotonic import DEGENERATE_EPS, DegenerateImvError, hma_transform

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
