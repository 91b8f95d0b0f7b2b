import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# every finite float64: -0.0, subnormals and +-1.7976931348623157e308 included
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EDGES = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1])


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(m=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=_FINITE))
@example(m=_EDGES.reshape(2, 3))
def test_matrix_roundtrip_keeps_every_bit(tmp_path_factory, m):
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    write_matrix(path, m)
    assert _same_bits(read_matrix(path), m)


@settings(max_examples=60, deadline=None)
@given(v=hnp.arrays(np.float64, st.integers(1, 12), elements=_FINITE))
@example(v=_EDGES)
def test_vector_roundtrip_keeps_every_bit(tmp_path_factory, v):
    path = tmp_path_factory.getbasetemp() / "roundtrip.txt"
    write_vector(path, v)
    assert _same_bits(read_vector(path), v)


@pytest.mark.parametrize("writer", [write_matrix, write_pgm])
def test_matrix_writers_reject_1d_arrays(tmp_path, writer):
    with pytest.raises(MatrixFormatError, match="2-D"):
        writer(tmp_path / "out", np.ones(3))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_write_pgm_refuses_a_non_finite_entry_before_opening_the_file(tmp_path, bad):
    # a NaN peak would render black, an infinite one an invalid pixel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFormatError, match="non-finite"):
            write_pgm(tmp_path / "out.pgm", [[bad, 1.0]])
    assert not (tmp_path / "out.pgm").exists()


def test_read_matrix_rejects_bad_inputs(tmp_path):
    cases = {
        "empty.csv": "",
        "header.csv": "3\n1,2,3\n",
        "rows.csv": "2,2\n1,2\n",
        "cols.csv": "1,3\n1,2\n",
        "ragged.csv": "2,2\n1,2\n3\n",
        "text.csv": "1,2\na,b\n",
        "nonfinite.csv": "1,2\n1,inf\n",
        "zero_rows.csv": "0,3\n",
        "header_only.csv": "2,2\n\n",
        "negative_rows.csv": "-2,2\n1,2\n3,4\n",
        "fewer_rows.csv": "1,2\n1,2\n3,4\n",
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
    one_line = tmp_path / "one_line.csv"
    one_line.write_text("1,2\n")
    with pytest.raises(MatrixFormatError, match="one value per line means 1x1, found 1x2"):
        read_vector(one_line)


def test_readers_skip_blank_lines_spaces_around_fields_and_crlf(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_bytes(b"\r\n 2, 2 \r\n\r\n0.25 , 1\r\n\t-0.5,3e-1\r\n\r\n")
    assert np.array_equal(read_matrix(matrix), [[0.25, 1.0], [-0.5, 0.3]])
    vector = tmp_path / "v.txt"
    vector.write_bytes(b"\r\n 1.5 \r\n\r\n-2\r\n")
    assert _same_bits(read_vector(vector), np.array([1.5, -2.0]))


@pytest.mark.parametrize("entry", ["0_5", "١", "0.5 # c"])
def test_readers_refuse_what_only_float_or_a_comment_rule_would_read(tmp_path, entry):
    # float() reads 0_5 as 5.0 and the Arabic-Indic one as 1.0; a comment rule
    # would read "0.5 # c" as 0.5
    matrix = tmp_path / "m.csv"
    matrix.write_text(f"1,2\n1,{entry}\n", encoding="utf-8")
    with pytest.raises(MatrixFormatError, match="could not convert"):
        read_matrix(matrix)
    vector = tmp_path / "v.txt"
    vector.write_text(f"0\n{entry}\n2\n", encoding="utf-8")
    with pytest.raises(MatrixFormatError, match="could not convert"):
        read_vector(vector)


@pytest.mark.parametrize("header, rows", [("1_0,1", 10), ("٢,1", 2), ("2.0,1", 2)])
def test_read_matrix_refuses_a_header_only_int_would_read(tmp_path, header, rows):
    # int() reads 1_0 as 10 and the Arabic-Indic two as 2, which these bodies match
    path = tmp_path / "m.csv"
    path.write_text(header + "\n" + "0.5\n" * rows, encoding="utf-8")
    with pytest.raises(MatrixFormatError, match="bad header"):
        read_matrix(path)
