"""Core alignment types: index mapping vectors, constraint checks, and the
exhaustive monotonic-path oracle.

An alignment matrix has shape (T1, T2): rows index input tokens, columns
index output steps, and every column is a probability distribution over
the input. The index mapping vector (IMV) of an alignment gives, for each
output step, the expected input position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import autodiff as ad

__all__ = [
    "AlignmentError",
    "Imv",
    "ImvValidationReport",
    "index_vector",
    "check_alignment",
    "compute_imv",
    "validate_imv",
    "context_map",
    "enumerate_monotonic_paths",
]

# Column sums of a learned attention matrix drift from 1 by rounding; this
# is the acceptance slack at the compute_imv boundary.
COLUMN_SUM_TOL = 1e-3

# The most float64 alignment entries one computation may build (80 MB): the
# oracle's path matrices together, or one toy sequence's t1 x t2 alignment.
MAX_ALIGNMENT_ENTRIES = 10_000_000


class AlignmentError(ValueError):
    """An alignment-matrix or IMV contract was violated."""


def index_vector(length: int) -> np.ndarray:
    """The position vector {0, 1, ..., length-1} as floats."""
    return np.arange(length, dtype=np.float64)


@dataclass(frozen=True)
class Imv:
    """Index mapping vector: expected input position per output step.

    ``pi`` may be a plain array or a traced :class:`~imvalign.autodiff.Value`;
    ``t1`` is the input length bounding the positions. No monotonicity is
    enforced at construction — a raw IMV may violate it and is checked
    explicitly via :func:`validate_imv`.
    """

    pi: "np.ndarray | ad.Value"
    t1: int

    def __post_init__(self):
        if self.t1 < 1:
            raise AlignmentError(f"t1 must be >= 1, got {self.t1}")

    @property
    def values(self) -> np.ndarray:
        return ad.data(self.pi)

    @property
    def t2(self) -> int:
        return self.values.shape[0]

    @property
    def deltas(self) -> np.ndarray:
        v = self.values
        return v[1:] - v[:-1]


@dataclass(frozen=True)
class ImvValidationReport:
    """Outcome of the monotonicity/continuity and completeness checks."""

    monotone_continuous: bool
    complete: bool
    violations: tuple[tuple[int, float], ...]
    tol: float

    def summary(self) -> str:
        parts = [
            "monotone" if self.monotone_continuous else "NOT monotone/continuous",
            "complete" if self.complete else "NOT complete",
        ]
        line = ", ".join(parts)
        if self.violations:
            worst = ", ".join(f"delta[{j}]={d:.6g}" for j, d in self.violations[:5])
            line += f" ({len(self.violations)} step violation(s): {worst}"
            if len(self.violations) > 5:
                line += ", ..."
            line += ")"
        return line


def check_alignment(alpha) -> None:
    """Assert alignment-matrix invariants; raises rather than renormalizing.

    Silent fixes would mask upstream bugs, so a column sum off by more
    than ``COLUMN_SUM_TOL`` is an error.
    """
    data = ad.data(alpha)
    if data.ndim != 2:
        raise AlignmentError(f"alignment must be 2-D, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise AlignmentError("alignment contains non-finite entries")
    sums = data.sum(axis=0)
    worst = np.max(np.abs(sums - 1.0)) if sums.size else 0.0
    if worst > COLUMN_SUM_TOL:
        j = int(np.argmax(np.abs(sums - 1.0)))
        raise AlignmentError(
            f"column {j} sums to {sums[j]:.6g}; expected 1 within {COLUMN_SUM_TOL:g}"
        )


def compute_imv(alpha) -> Imv:
    """Expected input position per output step: pi_j = sum_i alpha[i,j]*i."""
    check_alignment(alpha)
    t1 = ad.data(alpha).shape[0]
    pi = ad.matmul(index_vector(t1), alpha)
    return Imv(pi, t1)


def validate_imv(imv: Imv, tol: float = 1e-6) -> ImvValidationReport:
    """Check the step constraint 0 <= delta <= 1 and both boundary conditions.

    Works on raw values (not traced); validation is diagnostic, never
    part of a gradient path.
    """
    pi = imv.values
    if pi.shape[0] < 2:
        raise AlignmentError("IMV must have at least 2 steps to validate")
    deltas = imv.deltas
    bad = np.flatnonzero((deltas < -tol) | (deltas > 1.0 + tol))
    violations = tuple((int(j + 1), float(deltas[j])) for j in bad)
    monotone = bad.size == 0
    complete = abs(pi[0]) <= tol and abs(pi[-1] - (imv.t1 - 1)) <= tol
    return ImvValidationReport(
        monotone_continuous=monotone,
        complete=bool(complete),
        violations=violations,
        tol=tol,
    )


def context_map(alpha, h):
    """Map per-token features (T1, D) to per-step context vectors (T2, D)."""
    alpha_data = ad.data(alpha)
    h_data = ad.data(h)
    if alpha_data.shape[0] != h_data.shape[0]:
        raise AlignmentError(
            f"alignment has {alpha_data.shape[0]} tokens but features have "
            f"{h_data.shape[0]} rows"
        )
    return ad.matmul(ad.transpose(alpha), h)


def enumerate_monotonic_paths(t1: int, t2: int) -> list[np.ndarray]:
    """Every hard monotonic alignment from t1 tokens to t2 steps.

    Each path is a (t1, t2) matrix of one-hot columns: the attended index
    starts at 0, ends at t1-1, and advances by 0 or 1 per step. There are
    exactly C(t2-1, t1-1) such paths (choose which transitions advance).
    """
    if t1 < 2:
        raise AlignmentError(f"need at least 2 input tokens, got t1={t1}")
    if t1 > t2:
        raise AlignmentError(
            f"no complete monotonic path exists for t1={t1} > t2={t2}"
        )
    paths = []
    for advance_steps in combinations(range(1, t2), t1 - 1):
        rows = np.zeros(t2, dtype=np.intp)
        for step in advance_steps:
            rows[step:] += 1
        matrix = np.zeros((t1, t2))
        matrix[rows, np.arange(t2)] = 1.0
        paths.append(matrix)
    assert len(paths) == math.comb(t2 - 1, t1 - 1)
    return paths
