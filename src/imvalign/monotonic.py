"""Monotonic alignment machinery built on index mapping vectors.

Two complementary strategies: a soft penalty (:func:`sma_loss`) that pushes
an unconstrained IMV toward the monotonicity, continuity, and completeness
constraints, and a hard transform (:func:`hma_transform`) that rebuilds any
raw IMV into one satisfying them by construction. A Gaussian kernel turns a
monotone IMV back into a full alignment matrix, and a streaming variant
applies the hard constraint one output step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from math import isfinite

import numpy as np

from . import autodiff as ad
from .core import COLUMN_SUM_TOL, AlignmentError, Imv, compute_imv, index_vector

__all__ = [
    "DegenerateImvError",
    "SmaWeights",
    "KernelConfig",
    "StreamingHmaState",
    "sma_loss",
    "hma_transform",
    "align_from_imv",
    "streaming_hma_step",
    "streaming_hma_run",
]

# Forward-motion threshold: below this cumulative advance the rescaling
# division is meaningless.
DEGENERATE_EPS = 1e-8


class DegenerateImvError(AlignmentError):
    """Raised when a raw IMV has no forward motion to rescale."""


@dataclass(frozen=True)
class SmaWeights:
    """Non-negative, finite weights of the four soft-constraint penalty
    terms: backward motion, steps over one, and the two boundary offsets."""

    lambda0: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0

    def __post_init__(self):
        for name in ("lambda0", "lambda1", "lambda2", "lambda3"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be non-negative and finite")


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian reconstruction kernel; sigma2 is the alignment variation in
    squared token-index units."""

    sigma2: float = 0.25

    def __post_init__(self):
        if not (0 < self.sigma2 < np.inf and isfinite(1.0 / self.sigma2)):
            raise ValueError(f"sigma2 must be positive and finite with a finite reciprocal, got {self.sigma2}")


def sma_loss(imv: Imv, weights: SmaWeights = SmaWeights(), boundary: str = "square"):
    """Soft monotonic alignment penalty.

    Sums four terms: L1 of the negative parts of the IMV steps, L1 of the
    step excess over one, and the two boundary offsets normalized by t1-1.
    The boundary penalty is squared by default; ``boundary="abs"`` uses the
    absolute value instead (the magnitude reading of a scalar norm). Zero
    exactly when every constraint holds.
    """
    if imv.t1 < 2:
        raise AlignmentError("sma_loss needs t1 >= 2 (boundary terms divide by t1-1)")
    if imv.t2 < 2:
        raise AlignmentError("sma_loss needs at least 2 output steps")
    if boundary not in ("square", "abs"):
        raise ValueError(f"boundary must be 'square' or 'abs', got {boundary!r}")
    lambdas = (weights.lambda0, weights.lambda1, weights.lambda2, weights.lambda3)
    return ad.sma_penalty(imv.pi, float(imv.t1 - 1), lambdas, square=boundary == "square")


def hma_transform(imv: Imv) -> Imv:
    """Rebuild a raw IMV into a strictly monotone, boundary-complete one.

    Differences of the raw IMV are rectified, re-accumulated from zero,
    and rescaled so the final entry lands on t1-1 (within an ulp). Raises
    :class:`DegenerateImvError` when the rectified total is at most
    ``DEGENERATE_EPS``. The output is invariant to the raw IMV's scale,
    so the gradient grows as 1/total: just above ``DEGENERATE_EPS`` it is
    ~1e8 times that of a unit total.
    """
    if imv.t2 < 2:
        raise AlignmentError("hma_transform needs at least 2 output steps")
    try:
        pi_star = ad.monotone_rescale(imv.pi, float(imv.t1 - 1), DEGENERATE_EPS)
    except ZeroDivisionError:
        raise DegenerateImvError("degenerate IMV: no forward motion") from None
    return Imv(pi_star, imv.t1)


def align_from_imv(imv: Imv, kernel: KernelConfig = KernelConfig()):
    """Alignment matrix whose column j is a Gaussian bump centered on pi_j.

    Columns are normalized over the input axis, so the result is a valid
    alignment for any finite centers, except one so far from every row that
    the nearest row's kernel logit overflows (its column would be NaN): that
    raises :class:`AlignmentError`, as :func:`streaming_hma_step` does.
    """
    finite = imv.values[np.isfinite(imv.values)]
    # A position's largest logit is at its nearest row (fl(i - p) is monotone in
    # i), and none overflows within half a row of a row: only the positions
    # farthest below row 0 and above row t1 - 1 can overflow.
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 0.0)
    d = max(-lo, hi - (imv.t1 - 1.0), 0.0)
    if not isfinite(d * d * (-1.0 / kernel.sigma2)):
        raise AlignmentError(f"position {lo if d == -lo else hi!r} is too far from rows 0..{imv.t1 - 1}")
    return ad.gaussian_softmax(index_vector(imv.t1), imv.pi, kernel.sigma2, axis=0)


@dataclass(frozen=True)
class StreamingHmaState:
    """Running cumulative position for the one-step-at-a-time hard monotonic
    constraint; ``pi`` never decreases and advances at most 1 per step."""

    t1: int
    pi: float = 0.0


def _advance(pos: float, raw: float) -> float:
    """The streaming clamp: move from ``pos`` toward the raw attended
    position ``raw`` by at least 0 and at most 1. A NaN step passes
    through; the callers reject it."""
    step = raw - pos
    return pos + (1.0 if step > 1.0 else 0.0 if step < 0.0 else step)


@lru_cache(maxsize=8)
def _index_grid(t1: int) -> np.ndarray:
    """A read-only :func:`index_vector` that the steps of one length share."""
    grid = index_vector(t1)
    grid.flags.writeable = False
    return grid


def streaming_hma_step(
    state: StreamingHmaState,
    alpha_col: np.ndarray,
    kernel: KernelConfig = KernelConfig(),
) -> tuple[StreamingHmaState, np.ndarray]:
    """Advance the streaming position by one output step.

    The raw attended position of the column is compared against the
    running position; the advance is clipped to [0, 1] by the clamp rule
    :func:`streaming_hma_run` also uses (the streaming path cannot rescale
    afterwards, so continuity is enforced directly), and the replacement
    column, a fresh array, is the Gaussian bump at the new position. Raises
    :class:`AlignmentError` when the raw or the new position is not finite
    (as from a NaN or infinite ``state.pi``), so far from every row that
    the nearest row's kernel logit overflows, or at least 2**52 in magnitude,
    where float64 spacing reaches 1 and rows' distances round together.
    """
    col = np.asarray(alpha_col, dtype=np.float64)
    t1 = state.t1
    if col.shape != (t1,):
        raise AlignmentError(f"expected a length-{t1} column, got {col.shape}")
    total = np.add.reduce(col)
    # written so that a NaN sum fails too
    if not abs(total - 1.0) <= COLUMN_SUM_TOL:
        raise AlignmentError(f"column sums to {total:.6g}, expected 1")
    p = _index_grid(t1)
    # a strided column's dot product would sum in another order
    raw = float(np.ascontiguousarray(col).dot(p))
    new_pi = _advance(state.pi, raw)
    if not (isfinite(raw) and isfinite(new_pi)):
        raise AlignmentError(f"streaming position is not finite: raw {raw!r}, from {state.pi!r} to {new_pi!r}")
    logits = p - new_pi
    logits *= logits
    logits /= -kernel.sigma2
    # fl(i - new_pi) is monotone in i, so the nearest row holds the largest logit
    shift = logits[min(max(round(new_pi), 0), t1 - 1)]
    if not isfinite(shift) or abs(new_pi) >= 2.0**52:
        raise AlignmentError(f"streaming position {new_pi!r} is too far from rows 0..{t1 - 1}")
    logits -= shift
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits)
    return StreamingHmaState(t1, new_pi), logits


def streaming_hma_run(
    alpha, kernel: KernelConfig = KernelConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-sequence form of the streaming constraint.

    Computes all raw attended positions at once, runs the clamp rule of
    :func:`streaming_hma_step` over them, and reconstructs every column in
    one kernel evaluation. Returns (position sequence, reconstructed
    alignment); matches stepping :func:`streaming_hma_step` column by
    column. Raises :class:`AlignmentError` when a raw position is not
    finite.
    """
    raw = compute_imv(alpha)
    if not np.isfinite(raw.values).all():
        raise AlignmentError("streaming run: a raw attended position is not finite")
    steps = accumulate(raw.values.tolist(), _advance, initial=0.0)
    pi_path = np.fromiter(islice(steps, 1, None), np.float64, raw.t2)
    return pi_path, align_from_imv(Imv(pi_path, raw.t1), kernel)
