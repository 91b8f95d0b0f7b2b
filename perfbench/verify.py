"""Correctness checks for the benchmark's outputs.

Each check compares a program output against a property the method must
have, or against a reference computed here in plain numpy, and raises
:class:`CheckFailed` with the reason when it does not hold. None of them
imports ``imvalign``, so a fault in the library cannot hide in its own
reference.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """A program output violated a property the benchmark checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expected_imv(alpha: np.ndarray) -> np.ndarray:
    """sum_i i * alpha[i, j], by numpy's pairwise column sum (not BLAS)."""
    return (np.arange(alpha.shape[0], dtype=np.float64)[:, None] * alpha).sum(axis=0)


def gaussian_softmax(rows: np.ndarray, cols: np.ndarray, sigma2: float) -> np.ndarray:
    """Column softmax over rows of -(rows_i - cols_j)^2 / sigma2."""
    logits = -np.subtract.outer(rows, cols) ** 2 / sigma2
    weights = np.exp(logits - logits.max(axis=0))
    return weights / weights.sum(axis=0)


def row_gaussian_positions(pi: np.ndarray, t1: int, sigma2: float) -> np.ndarray:
    """Aligned positions: the row-normalised density times the step index."""
    logits = -np.subtract.outer(np.arange(t1, dtype=np.float64), pi) ** 2 / sigma2
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    gamma = weights / weights.sum(axis=1, keepdims=True)
    return (gamma * np.arange(pi.shape[0], dtype=np.float64)).sum(axis=1)


def sma_penalty(pi: np.ndarray, t1: int) -> float:
    """Soft monotonic penalty with unit weights and squared boundaries."""
    d = np.diff(pi)
    start = pi[0] / (t1 - 1)
    end = pi[-1] / (t1 - 1) - 1.0
    return float(2.0 * np.maximum(-d, 0.0).sum() + 2.0 * np.maximum(d - 1.0, 0.0).sum()
                 + start * start + end * end)


def imv_matches(alpha: np.ndarray, pi: np.ndarray, tol: float = 1e-12) -> None:
    """The IMV equals arange(t1) @ alpha, computed here."""
    ref = expected_imv(alpha)
    _require(pi.shape == ref.shape, f"IMV has shape {pi.shape}, expected {ref.shape}")
    err = float(np.max(np.abs(pi - ref)))
    _require(err <= tol, f"IMV differs from arange(t1) @ alpha by {err:.3g} > {tol:g}")


def hma_contract(pi: np.ndarray, t1: int, end_tol: float = 1e-9, step_tol: float = 1e-12) -> None:
    """Starts at 0, ends at t1-1, never steps backwards."""
    _require(abs(pi[0]) <= end_tol, f"HMA output starts at {pi[0]!r}, not 0")
    _require(abs(pi[-1] - (t1 - 1)) <= end_tol, f"HMA output ends at {pi[-1]!r}, not {t1 - 1}")
    worst = float(np.min(np.diff(pi)))
    _require(worst >= -step_tol, f"HMA output steps back by {-worst:.3g}")


def columns_match(alpha: np.ndarray, ref: np.ndarray, tol: float = 1e-12) -> None:
    """An alignment equals the reference and every column sums to 1."""
    _require(alpha.shape == ref.shape, f"alignment has shape {alpha.shape}, expected {ref.shape}")
    sums = alpha.sum(axis=0)
    j = int(np.argmax(np.abs(sums - 1.0)))
    _require(abs(sums[j] - 1.0) <= 1e-9, f"column {j} sums to {sums[j]!r}")
    err = float(np.max(np.abs(alpha - ref)))
    _require(err <= tol, f"alignment differs from the Gaussian softmax by {err:.3g} > {tol:g}")


def validation_matches(violations, pi: np.ndarray, tol: float) -> None:
    """validate_imv flags exactly the steps outside [-tol, 1 + tol]."""
    d = np.diff(pi)
    expected = (np.flatnonzero((d < -tol) | (d > 1.0 + tol)) + 1).tolist()
    _require([j for j, _ in violations] == expected, "validate_imv flagged other steps than [-tol, 1+tol] gives")


def stream_steps(path: np.ndarray, tol: float = 1e-12) -> None:
    """The streaming clamp starts from 0 and advances by [0, 1] per step
    (up to the rounding of re-differencing a running sum)."""
    steps = np.diff(np.concatenate([[0.0], path]))
    worst = float(max(-steps.min(), steps.max() - 1.0))
    _require(worst <= tol, f"streaming path steps outside [0, 1] by {worst:.3g}")


def stream_column_errors(path: np.ndarray, alpha: np.ndarray, step_path, step_cols, tol: float = 1e-12) -> int:
    """How many stepped columns (position or column) differ from the
    whole-sequence streaming run by more than tol."""
    n = len(step_path)
    if n == 0:
        return 0
    pos_err = np.abs(np.asarray(step_path) - path[:n])
    col_err = np.max(np.abs(np.column_stack(step_cols) - alpha[:, :n]), axis=0)
    return int(np.count_nonzero((pos_err > tol) | (col_err > tol)))


def close(actual: np.ndarray, expected: np.ndarray, tol: float, what: str) -> None:
    """Same shape and within tol, relative to max(1, |expected|)."""
    _require(actual.shape == expected.shape, f"{what} has shape {actual.shape}, expected {expected.shape}")
    err = float(np.max(np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))))
    _require(err <= tol, f"{what} differs from the reference by {err:.3g} > {tol:g}")


def rate_length(base: int, scaled: int, rate: float) -> None:
    """infer_t2's rounding bound: |scaled - rate*base| <= (1 + rate) / 2."""
    slack = 0.5 * (1.0 + rate)
    _require(abs(scaled - rate * base) <= slack + 1e-9,
             f"length {scaled} at rate {rate} is more than {slack} from {rate} x {base}")


def directional_derivatives(objective, inputs, grads, directions, h: float, tol: float) -> int:
    """Compare the gradient with central differences along each direction.

    ``objective(arrays)`` returns (value, kink signatures); a direction whose
    two perturbed evaluations see different signatures crosses a kink and is
    skipped. Returns the number of directions compared.
    """
    compared = 0
    for direction in directions:
        plus, plus_sig = objective([x + h * v for x, v in zip(inputs, direction)])
        minus, minus_sig = objective([x - h * v for x, v in zip(inputs, direction)])
        if len(plus_sig) != len(minus_sig) or not all(
            np.array_equal(a, b) for a, b in zip(plus_sig, minus_sig)
        ):
            continue
        _require(math.isfinite(plus) and math.isfinite(minus), "objective is not finite")
        numeric = (plus - minus) / (2.0 * h)
        analytic = float(sum(np.vdot(g, v) for g, v in zip(grads, direction)))
        denom = max(abs(numeric), abs(analytic), 1e-6)
        rel = abs(numeric - analytic) / denom
        _require(rel <= tol, f"directional derivative {analytic:.9g} vs central difference "
                             f"{numeric:.9g} (rel err {rel:.3g} > {tol:g})")
        compared += 1
    return compared


def hma_before_sma(hma_step, sma_step) -> None:
    """HMA reaches the accuracy threshold, and before SMA (never = infinitely late)."""
    _require(hma_step is not None, "HMA never reached the accuracy threshold")
    sma = math.inf if sma_step is None else sma_step
    _require(hma_step < sma, f"HMA reached the threshold at step {hma_step}, SMA at {sma_step}")


def diagonality_margin(hma: float, nm: float, margin: float = 0.2) -> None:
    _require(hma - nm >= margin, f"HMA diagonality {hma:.3f} exceeds NM's {nm:.3f} by less than {margin}")


def identical(a: np.ndarray, b: np.ndarray, what: str) -> None:
    _require(a.shape == b.shape and np.array_equal(a, b), f"{what} differ between identical trainings")


def oracle_report(stdout: str, t1: int, t2: int) -> None:
    """`imvalign oracle` reports C(t2-1, t1-1) paths, all passing."""
    expected = f"{math.comb(t2 - 1, t1 - 1)} paths, PASS"
    _require(stdout.strip() == expected, f"oracle printed {stdout.strip()!r}, expected {expected!r}")


def pgm_matches(text: str, shape: tuple[int, int]) -> None:
    """ASCII PGM whose header and pixel grid match the matrix shape."""
    lines = text.split("\n")
    rows, cols = shape
    _require(lines[0] == "P2", "PGM magic is not P2")
    _require(lines[1] == f"{cols} {rows}", f"PGM size {lines[1]!r}, expected '{cols} {rows}'")
    _require(lines[2] == "255", "PGM maxval is not 255")
    pixels = [line.split() for line in lines[3:] if line]
    _require(len(pixels) == rows and all(len(p) == cols for p in pixels), "PGM pixel grid has the wrong shape")
