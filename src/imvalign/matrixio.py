"""File formats for the command-line tools.

Matrices travel as CSV with an explicit ``rows,cols`` header line (easy to
diff in tests), vectors as one float per line, and heatmaps as ASCII PGM
(P2) with the entries scaled linearly so the largest maps to 255. Readers
skip blank lines and spaces around a field, and parse with numpy's parser
(:func:`parse_numbers`, which the CLI's numeric options use too): its
floats round as ``float()`` does, but it refuses ``0_5``, non-ASCII digits
and a trailing ``# ...``. The header sizes nothing; it is compared with
the parsed shape, after the finite check.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MatrixFormatError",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
    "write_pgm",
]


class MatrixFormatError(ValueError):
    """A matrix/vector file could not be parsed or violates its header."""


def _write_rows(fh, m: np.ndarray) -> None:
    # repr of a Python float is the shortest string that reads back to its bits
    for row in m.tolist():
        fh.write(",".join(map(repr, row)) + "\n")


def parse_numbers(lines: list[str], dtype=np.float64) -> np.ndarray:
    """The comma-separated numbers on non-blank ``lines`` as a 2-D array of
    ``dtype``; raises numpy's ValueError on a field it cannot read."""
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=2)


def _nonblank_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def _read_body(path, body: list[str], shape: tuple[int, int], claim: str) -> np.ndarray:
    """The finite entries of ``body``, which must have the declared ``shape``."""
    if not body:
        raise MatrixFormatError(f"{path}: no rows")
    try:
        data = parse_numbers(body)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    if not np.isfinite(data).all():
        raise MatrixFormatError(f"{path}: non-finite entries")
    if data.shape != shape:
        raise MatrixFormatError(f"{path}: {claim} {shape[0]}x{shape[1]}, found {data.shape[0]}x{data.shape[1]}")
    return data


def write_matrix(path, matrix) -> None:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise MatrixFormatError(f"expected a 2-D matrix, got shape {m.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.shape[0]},{m.shape[1]}\n")
        _write_rows(fh, m)


def read_matrix(path) -> np.ndarray:
    lines = _nonblank_lines(path)
    header = lines[0].split(",") if lines else []
    if len(header) != 2:
        raise MatrixFormatError(f"{path}: first line must be 'rows,cols'")
    try:
        shape = tuple(int(n) for n in parse_numbers(lines[:1], np.int64)[0])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: bad header {lines[0]!r}") from exc
    return _read_body(path, lines[1:], shape, "header says")


def write_vector(path, vector) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, np.asarray(vector, dtype=np.float64).reshape(-1, 1))


def read_vector(path) -> np.ndarray:
    lines = _nonblank_lines(path)
    return _read_body(path, lines, (len(lines), 1), "one value per line means")[:, 0]


def write_pgm(path, matrix) -> None:
    """ASCII PGM heatmap; row i of the image is row i of the matrix and the
    maximum entry renders as 255 (an all-zero matrix renders black). A
    matrix that is not 2-D or has a non-finite entry is refused before the
    file is opened."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise MatrixFormatError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise MatrixFormatError("matrix contains non-finite entries")
    m = np.clip(m, 0.0, None)
    peak = m.max()
    pixels = np.zeros(m.shape, dtype=int)
    if peak > 0:
        pixels = np.rint(m * (255.0 / peak)).astype(int)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("P2\n")
        fh.write(f"{m.shape[1]} {m.shape[0]}\n")
        fh.write("255\n")
        for row in pixels:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")
