"""File formats for the command-line tools.

Matrices travel as CSV with an explicit ``rows,cols`` header line (easy to
diff in tests), vectors as one float per line, and heatmaps as ASCII PGM
(P2) with the entries scaled linearly so the largest maps to 255.
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


def write_matrix(path, matrix) -> None:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise MatrixFormatError(f"expected a 2-D matrix, got shape {m.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.shape[0]},{m.shape[1]}\n")
        for row in m:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) != 2:
        raise MatrixFormatError(f"{path}: first line must be 'rows,cols'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: bad header {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"{path}: non-positive shape {rows}x{cols}")
    body = lines[1:]
    if len(body) != rows:
        raise MatrixFormatError(f"{path}: header says {rows} rows, found {len(body)}")
    if body[0].count(",") != cols - 1:  # before allocating the size the header claims
        raise MatrixFormatError(f"{path}: row 0 has {body[0].count(',') + 1} fields, header says {cols}")
    data = np.empty((rows, cols))
    for i, line in enumerate(body):
        fields = line.split(",")
        if len(fields) != cols:
            raise MatrixFormatError(
                f"{path}: row {i} has {len(fields)} fields, header says {cols}"
            )
        try:
            data[i] = [float(x) for x in fields]
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: row {i} is not numeric") from exc
    if not np.all(np.isfinite(data)):
        raise MatrixFormatError(f"{path}: matrix contains non-finite entries")
    return data


def write_vector(path, vector) -> None:
    v = np.asarray(vector, dtype=np.float64).reshape(-1)
    with open(path, "w", encoding="utf-8") as fh:
        for x in v:
            fh.write(repr(float(x)) + "\n")


def read_vector(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise MatrixFormatError(f"{path}: empty vector file")
    try:
        values = np.array([float(x) for x in lines])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: vector entries must be one float per line") from exc
    if not np.all(np.isfinite(values)):
        raise MatrixFormatError(f"{path}: vector contains non-finite entries")
    return values


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
