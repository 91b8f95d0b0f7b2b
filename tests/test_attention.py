import numpy as np
import pytest

from imvalign.attention import scaled_dot_alignment
from imvalign.core import AlignmentError, check_alignment


def test_saturated_alignment_is_near_identity():
    keys = np.eye(3)
    queries = keys * 100.0
    alpha = scaled_dot_alignment(queries, keys)
    assert np.allclose(alpha, np.eye(3), atol=1e-12)


def test_zero_queries_give_uniform_columns():
    rng = np.random.default_rng(0)
    keys = rng.normal(size=(4, 6))
    alpha = scaled_dot_alignment(np.zeros((5, 6)), keys)
    assert np.allclose(alpha, 0.25, atol=1e-15)


def test_columns_sum_to_one():
    rng = np.random.default_rng(1)
    alpha = scaled_dot_alignment(rng.normal(size=(4, 8)), rng.normal(size=(3, 8)))
    assert np.allclose(alpha.sum(axis=0), 1.0, atol=1e-12)
    check_alignment(alpha)
    assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(AlignmentError):
        scaled_dot_alignment(np.zeros((4, 5)), np.zeros((3, 6)))


@pytest.mark.parametrize("queries, keys, message", [
    (np.zeros(4), np.zeros((3, 4)), "2-D"),
    (np.full((2, 4), np.nan), np.zeros((3, 4)), "finite"),
    (np.zeros((2, 4)), np.full((3, 4), np.inf), "finite"),
])
def test_non_2d_or_nonfinite_inputs_rejected(queries, keys, message):
    with pytest.raises(AlignmentError, match=message):
        scaled_dot_alignment(queries, keys)


def test_uniform_logit_shift_leaves_alignment_unchanged():
    # construct keys whose projection onto u is identical, so adding t*u to
    # every query shifts each column's logits by one constant
    rng = np.random.default_rng(2)
    d = 6
    keys = rng.normal(size=(4, d))
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    keys = keys - np.outer(keys @ u, u) + 0.8 * u
    queries = rng.normal(size=(5, d))
    base = scaled_dot_alignment(queries, keys)
    shifted = scaled_dot_alignment(queries + 2.5 * u, keys)
    assert np.max(np.abs(base - shifted)) < 1e-12
