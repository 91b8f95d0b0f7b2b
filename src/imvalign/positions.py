"""Aligned positions: the per-token image of the alignment in output time.

Where an IMV maps each output step to an expected input position, the
aligned-position vector ``e`` maps each input token to an expected output
step. It is extracted from an IMV through a row-normalized Gaussian
density, trained through a log-scale loss on its increments, and used to
rebuild the alignment (and to infer the output length) when no reference
output exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .core import AlignmentError, Imv, index_vector
from .monotonic import KernelConfig

__all__ = [
    "AlignedPositions",
    "ApLossConfig",
    "density_matrix",
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
    def t1(self) -> int:
        return self.values.shape[0]

    @property
    def deltas(self) -> np.ndarray:
        v = self.values
        out = np.empty_like(v)
        out[0] = v[0]
        out[1:] = v[1:] - v[:-1]
        return out


@dataclass(frozen=True)
class ApLossConfig:
    """Log-scale loss stabilizer; epsilon keeps log() away from zero."""

    epsilon: float = 1e-6

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


def density_matrix(imv: Imv, kernel: KernelConfig = KernelConfig()):
    """Row-normalized Gaussian density (t1, t2): how much of token i's
    alignment mass falls on each output step."""
    return ad.gaussian_softmax(index_vector(imv.t1), imv.pi, kernel.sigma2, axis=1)


def extract_positions(
    imv: Imv, kernel: KernelConfig = KernelConfig()
) -> AlignedPositions:
    """Expected output step per token: the density-weighted mean of the
    output index vector. Differentiable end to end."""
    gamma = density_matrix(imv, kernel)
    e = ad.matmul(gamma, index_vector(imv.t2))
    return AlignedPositions(e)


def ap_loss(pred_delta, target_delta, cfg: ApLossConfig = ApLossConfig()):
    """L1 distance between log-shifted position increments.

    The log scale makes small increments count as much as large ones.
    Inputs must be non-negative; lengths must match.
    """
    pred_data = ad.data(pred_delta)
    target_data = ad.data(target_delta)
    if pred_data.shape != target_data.shape:
        raise AlignmentError(
            f"delta shapes differ: {pred_data.shape} vs {target_data.shape}"
        )
    if np.any(pred_data < 0) or np.any(target_data < 0):
        raise AlignmentError("position increments must be non-negative")
    return ad.log_l1_distance(pred_delta, target_delta, cfg.epsilon)


def align_from_positions(
    positions: AlignedPositions, t2: int, kernel: KernelConfig = KernelConfig()
):
    """Alignment matrix whose column j is a Gaussian bump over the tokens
    whose aligned positions fall near output step j."""
    if t2 < 1:
        raise AlignmentError(f"t2 must be >= 1, got {t2}")
    return ad.gaussian_softmax(positions.e, index_vector(t2), kernel.sigma2, axis=0)


def infer_t2(positions: AlignedPositions) -> int:
    """Output length implied by the aligned positions: the last position
    plus its increment, rounded half-up, floored at 1."""
    e = positions.values
    if e.shape[0] < 2:
        raise AlignmentError("need at least 2 aligned positions to infer a length")
    projected = e[-1] + (e[-1] - e[-2])
    return max(1, int(np.floor(projected + 0.5)))


def scale_positions(positions: AlignedPositions, rate: float) -> AlignedPositions:
    """Uniformly stretch (rate > 1) or compress (rate < 1) the positions;
    the inferred output length scales with the rate up to rounding."""
    if not 0 < rate < np.inf:
        raise AlignmentError(f"rate must be positive and finite, got {rate}")
    return AlignedPositions(positions.e * rate)
