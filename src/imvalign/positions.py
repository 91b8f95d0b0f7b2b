"""Aligned positions: the per-token image of the alignment in output time.

Where an IMV maps each output step to an expected input position, the
aligned-position vector ``e`` maps each input token to an expected output
step. It is extracted from an IMV through a row-normalized Gaussian
density, trained through a log-scale loss on its increments, and used to
rebuild the alignment (and to infer the output length) when no reference
output exists. Each kernel here raises :class:`ValueError`, before building
anything, over the size cap (:func:`~imvalign.core.check_alignment_size`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .core import AlignmentError, Imv, check_alignment_size, index_vector, is_integer
from .monotonic import KernelConfig

# The stabiliser ap_loss adds to every increment, keeping log() away from zero.
AP_EPSILON = 1e-6

__all__ = [
    "AlignedPositions",
    "extract_positions",
    "ap_loss",
    "align_from_positions",
    "infer_t2",
    "scale_positions",
]


@dataclass(frozen=True)
class AlignedPositions:
    """Expected output step per input token.

    ``deltas`` uses the cumulative-sum anchoring convention: the first
    delta is e_0 itself, so positions and deltas are mutual inverses via
    cumulative sum.
    """

    e: "np.ndarray | ad.Value"

    @property
    def values(self) -> np.ndarray:
        return ad.data(self.e)

    @property
    def deltas(self) -> np.ndarray:
        v = self.values
        out = np.empty_like(v)
        out[0] = v[0]
        out[1:] = v[1:] - v[:-1]
        return out


def extract_positions(
    imv: Imv, kernel: KernelConfig = KernelConfig()
) -> AlignedPositions:
    """Expected output step per token: e_i = sum_j y_ij * j for the
    row-normalized Gaussian density y_ij = softmax_j(-(i - pi_j)^2 / sigma2),
    how much of token i's alignment mass falls on output step j
    (:func:`autodiff.gaussian_positions`). Differentiable end to end. Raises
    :class:`AlignmentError`, before the kernel runs, where a token's density
    row would be NaN because its nearest finite IMV position is so far that
    their kernel logit overflows (:func:`autodiff.first_far_entry`). Where
    the band of the transposed kernel applies (TTS lengths, a sorted IMV),
    the means come from that band without the (t1, t2) density, each within
    2 * t2 * eps * max(1, |e_i|) of the dense density's (eps = 2**-52): the
    band sums in another order and leaves out the terms below 2**-53 of a
    token's peak. Toy sizes never band."""
    check_alignment_size(imv.t1, imv.t2)
    tokens = index_vector(imv.t1)
    i = ad.first_far_entry(imv.values, tokens, kernel.sigma2)
    if i is not None:
        raise AlignmentError(f"token {i} is too far from every IMV position: its density row is nan")
    return AlignedPositions(ad.gaussian_positions(tokens, imv.pi, kernel.sigma2))


def ap_loss(pred_delta, target_delta):
    """L1 distance between position increments shifted by AP_EPSILON, in log scale.

    The log scale makes small increments count as much as large ones.
    Inputs must be non-negative; lengths must match.
    """
    pred_data = ad.data(pred_delta)
    target_data = ad.data(target_delta)
    if pred_data.shape != target_data.shape:
        raise AlignmentError(
            f"delta shapes differ: {pred_data.shape} vs {target_data.shape}"
        )
    if (pred_data < 0).any() or (target_data < 0).any():
        raise AlignmentError("position increments must be non-negative")
    return ad.log_l1_distance(pred_delta, target_delta, AP_EPSILON)


def align_from_positions(
    positions: AlignedPositions, t2: int, kernel: KernelConfig = KernelConfig()
):
    """Alignment matrix whose column j is a Gaussian bump over the tokens
    whose aligned positions fall near output step j. Raises
    :class:`AlignmentError`, before the kernel runs, where a column would be
    NaN, as :func:`extract_positions` does where a position would be.

    Shift: for an integer k, the last t2 columns of
    ``align_from_positions(e + k, t2 + k)`` are ``align_from_positions(e, t2)``
    within 2 eps ((max|e| + k) (g + sqrt(sigma2)) / sigma2 + t1), g the
    largest distance from an output step to its nearest position
    (eps = 2**-52): rounding e + k moves a logit by up to
    |e_i - j| ulp(e_i + k) / sigma2, and where only one of the two calls
    bands, the band's dropped terms move an entry by less than t1 2**-53."""
    if not is_integer(t2) or t2 < 1:
        raise AlignmentError(f"t2 must be >= 1 and an integer, got {t2!r}")
    e = positions.values
    check_alignment_size(e.shape[0], t2)
    steps = index_vector(t2)
    j = ad.first_far_entry(e, steps, kernel.sigma2)
    if j is not None:
        raise AlignmentError(f"output step {j} is too far from every aligned position: its column is nan")
    return ad.gaussian_softmax(positions.e, steps, kernel.sigma2)


def infer_t2(positions: AlignedPositions) -> int:
    """Output length implied by the aligned positions: the last position
    plus its increment, rounded half-up, floored at 1. Raises
    :class:`AlignmentError` where that projection is not finite.

    Rate: the length of ``scale_positions(positions, r)`` never decreases
    as r grows but by rounding, which moves the projection by up to
    3 eps r (|e[-1]| + |e[-2]|) (eps = 2**-52). For r1 < r2 it does not
    decrease where (r2 - r1) (2 e[-1] - e[-2]) is at least
    3 eps (r1 + r2) (|e[-1]| + |e[-2]|), and by at most 1 at closer rates
    while r (|e[-1]| + |e[-2]|) is below 2**49."""
    e = positions.values
    if e.shape[0] < 2:
        raise AlignmentError("need at least 2 aligned positions to infer a length")
    last, before = float(e[-1]), float(e[-2])
    # (Python floats overflow to inf without a warning)
    projected = last + (last - before)
    if not math.isfinite(projected):
        raise AlignmentError(f"the aligned positions project an output length of {projected}")
    return max(1, math.floor(projected + 0.5))


def scale_positions(positions: AlignedPositions, rate: float) -> AlignedPositions:
    """Uniformly stretch (rate > 1) or compress (rate < 1) the positions;
    the inferred output length scales with the rate up to rounding. Raises
    :class:`AlignmentError`, before anything is scaled, where a finite
    position would overflow to an infinite one."""
    if not 0 < rate < np.inf:
        raise AlignmentError(f"rate must be positive and finite, got {rate}")
    values = positions.values
    largest = float(np.abs(values[np.isfinite(values)]).max(initial=0.0))
    # (a product of Python floats overflows to inf without a warning)
    if math.isinf(largest * float(rate)):
        raise AlignmentError(f"a position of magnitude {largest:g} overflows when scaled by rate {rate:g}")
    return AlignedPositions(positions.e * rate)
