import numpy as np
import pytest

from imvalign.matrixio import (
    MatrixFormatError,
    read_matrix,
    read_vector,
    write_matrix,
    write_pgm,
    write_vector,
)


def test_matrix_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 5))
    path = tmp_path / "m.csv"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)
    assert path.read_text().splitlines()[0] == "3,5"


def test_vector_roundtrip_is_exact(tmp_path):
    v = np.array([0.1, -2.5, 1e-17, 3.0])
    path = tmp_path / "v.csv"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


@pytest.mark.parametrize("writer", [write_matrix, write_pgm])
def test_matrix_writers_reject_1d_arrays(tmp_path, writer):
    with pytest.raises(MatrixFormatError, match="2-D"):
        writer(tmp_path / "out", np.ones(3))
    assert not (tmp_path / "out").exists()


def test_read_matrix_rejects_bad_inputs(tmp_path):
    cases = {
        "empty.csv": "",
        "header.csv": "3\n1,2,3\n",
        "rows.csv": "2,2\n1,2\n",
        "cols.csv": "1,3\n1,2\n",
        "text.csv": "1,2\na,b\n",
        "nonfinite.csv": "1,2\n1,inf\n",
        "zero_rows.csv": "0,3\n",
    }
    for name, content in cases.items():
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(MatrixFormatError):
            read_matrix(path)


def test_read_vector_rejects_bad_inputs(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(MatrixFormatError):
        read_vector(empty)
    text = tmp_path / "text.csv"
    text.write_text("1.0\nnot-a-number\n")
    with pytest.raises(MatrixFormatError):
        read_vector(text)
    nonfinite = tmp_path / "nonfinite.csv"
    nonfinite.write_text("1.0\ninf\n")
    with pytest.raises(MatrixFormatError, match="non-finite"):
        read_vector(nonfinite)
