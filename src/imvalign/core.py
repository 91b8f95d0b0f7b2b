"""Core alignment types: index mapping vectors, constraint checks, and the
exhaustive monotonic-path oracle.

An alignment matrix has shape (T1, T2): rows index input tokens, columns
index output steps, and every column is a probability distribution over
the input. The index mapping vector (IMV) of an alignment gives, for each
output step, the expected input position. The trainer's errors are defined
here too, so the CLI maps them to exit codes without importing the trainer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from . import autodiff as ad

__all__ = [
    "AlignmentError",
    "TrainDivergenceError",
    "UntrainedModelError",
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
# oracle's path matrices together, one toy alignment, or one Gaussian kernel.
MAX_ALIGNMENT_ENTRIES = 10_000_000


def _length(n: int) -> str:
    """An integer for a message: in full below 10**12 in magnitude, else to 3
    significant digits. A library exception (toy.infer's, say) reaches no
    bounded CLI line, and ``str`` of an integer over 4,300 digits raises
    CPython's own digit-limit ValueError in place of the intended one."""
    if abs(n) < 10**12:
        return str(n)
    from decimal import Decimal  # exact for any int; float(n) can overflow

    return f"{Decimal(n):.3g}"


def check_alignment_size(t1: int, t2: int) -> None:
    """Raise :class:`ValueError` if a t1 x t2 alignment is over the cap."""
    if int(t1) * int(t2) > MAX_ALIGNMENT_ENTRIES:  # a numpy integer product could wrap
        raise ValueError(
            f"a {_length(int(t1))}x{_length(int(t2))} alignment is over the cap of {MAX_ALIGNMENT_ENTRIES} entries"
        )


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_fields(config) -> None:
    """Raise ValueError unless each ``int`` field of the dataclass ``config``
    holds an integer (a numpy one too, not a bool), a ``seed`` is not negative,
    and each ``float`` field holds a float, a numpy float or an integer no
    larger in magnitude than the largest float (not a bool or a string)."""
    for f in fields(config):
        value = getattr(config, f.name)
        integer = is_integer(value)
        if f.type == "int" and not integer:
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float" and integer and abs(value) > sys.float_info.max:
            raise ValueError(f"{f.name} must be within the float range, got {_length(value)}")
        if f.type == "float" and not (integer or isinstance(value, (float, np.floating))):
            raise ValueError(f"{f.name} must be a number, got {value!r}")
        if f.name == "seed":
            check_seed(value)


def check_seed(seed) -> None:
    """Raise ValueError for a negative seed, which numpy's generators refuse
    without naming it."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


class AlignmentError(ValueError):
    """An alignment-matrix or IMV contract was violated."""


class TrainDivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, step: int, cause: str):
        super().__init__(f"training diverged at step {step}: {cause}")
        self.step = step


class UntrainedModelError(RuntimeError):
    """Inference was requested from a model that was never trained."""


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
        if not is_integer(self.t1) or self.t1 < 1:
            raise AlignmentError(f"t1 must be >= 1 and an integer, got {self.t1!r}")

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

    complete: bool
    violations: tuple[tuple[int, float], ...]
    tol: float

    @property
    def monotone_continuous(self) -> bool:
        """True when no step violates the step constraint."""
        return not self.violations

    def summary(self) -> str:
        parts = [
            "monotone" if self.monotone_continuous else "NOT monotone/continuous",
            "complete" if self.complete else "NOT complete",
        ]
        line = ", ".join(parts)
        if self.violations:
            worst = ", ".join(f"delta[{j}]={d:.6g}" for j, d in self.violations[:5])
            more = ", ..." if len(self.violations) > 5 else ""
            line += f" ({len(self.violations)} step violation(s): {worst}{more})"
        return line


def check_alignment(alpha) -> None:
    """Assert alignment-matrix invariants; raises rather than renormalizing.

    Silent fixes would mask upstream bugs, so a column sum off by more
    than ``COLUMN_SUM_TOL`` is an error.
    """
    data = ad.data(alpha)
    if data.ndim != 2:
        raise AlignmentError(f"alignment must be 2-D, got shape {data.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        sums = data.sum(axis=0)
    # a NaN or infinite entry makes its column sum non-finite: scan only then
    if not np.isfinite(sums).all() and not np.isfinite(data).all():
        raise AlignmentError("alignment contains non-finite entries")
    worst = np.abs(sums - 1.0).max() if sums.size else 0.0
    if not worst <= COLUMN_SUM_TOL:
        j = int(np.argmax(np.abs(sums - 1.0)))
        raise AlignmentError(f"column {j} sums to {sums[j]:.6g}; expected 1 within {COLUMN_SUM_TOL:g}")


def compute_imv(alpha) -> Imv:
    """Expected input position per output step: pi_j = sum_i alpha[i,j]*i."""
    check_alignment(alpha)
    t1 = ad.data(alpha).shape[0]
    pi = ad.matmul(index_vector(t1), alpha)
    return Imv(pi, t1)


def validate_imv(imv: Imv, tol: float = 1e-6) -> ImvValidationReport:
    """Check the step constraint 0 <= delta <= 1 and both boundary conditions.

    Every step outside [-tol, 1 + tol] is a violation, a NaN step included,
    and a NaN boundary value is not complete. Works on raw values (not
    traced); validation is diagnostic, never part of a gradient path.
    """
    pi = imv.values
    if pi.shape[0] < 2:
        raise AlignmentError("IMV must have at least 2 steps to validate")
    deltas = imv.deltas
    bad = np.flatnonzero(~((deltas >= -tol) & (deltas <= 1.0 + tol)))
    violations = tuple((int(j + 1), float(deltas[j])) for j in bad)
    complete = abs(pi[0]) <= tol and abs(pi[-1] - (imv.t1 - 1)) <= tol
    return ImvValidationReport(bool(complete), violations, tol)


def context_map(alpha, h):
    """Map per-token features (T1, D) to per-step context vectors (T2, D)."""
    alpha_data = ad.data(alpha)
    h_data = ad.data(h)
    if alpha_data.shape[0] != h_data.shape[0]:
        raise AlignmentError(f"alignment has {alpha_data.shape[0]} tokens but features have {h_data.shape[0]} rows")
    return ad.matmul(ad.transpose(alpha), h)


def enumerate_monotonic_paths(t1: int, t2: int) -> list[np.ndarray]:
    """Every hard monotonic alignment from t1 tokens to t2 steps.

    Each path is a (t1, t2) matrix of one-hot columns: the attended index
    starts at 0, ends at t1-1, and advances by 0 or 1 per step. There are
    exactly C(t2-1, t1-1) such paths (choose which transitions advance).
    Raises :class:`ValueError` for t1 < 2 or t1 > t2, and, before building
    any path, when together they would hold more than
    ``MAX_ALIGNMENT_ENTRIES`` entries.
    """
    if t1 < 2:
        raise ValueError(f"need at least 2 input tokens, got t1={t1}")
    if t1 > t2:
        raise ValueError(f"no complete monotonic path exists for t1={t1} > t2={t2}")
    # one matrix alone over the cap: the count is not worth computing
    count = math.comb(t2 - 1, t1 - 1) if t1 * t2 <= MAX_ALIGNMENT_ENTRIES else None
    if count is None or count * t1 * t2 > MAX_ALIGNMENT_ENTRIES:
        named = f"C({t2 - 1}, {t1 - 1})" if count is None else count
        raise ValueError(
            f"{t1}x{t2} has {named} monotonic paths; the oracle builds at most "
            f"{MAX_ALIGNMENT_ENTRIES} matrix entries"
        )
    paths = []
    for advance_steps in combinations(range(1, t2), t1 - 1):
        rows = np.zeros(t2, dtype=np.intp)
        for step in advance_steps:
            rows[step:] += 1
        matrix = np.zeros((t1, t2))
        matrix[rows, np.arange(t2)] = 1.0
        paths.append(matrix)
    assert len(paths) == count
    return paths
