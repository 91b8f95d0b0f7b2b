import math

import numpy as np
import pytest

from imvalign.core import (
    AlignmentError,
    Imv,
    compute_imv,
    context_map,
    enumerate_monotonic_paths,
    validate_imv,
)


def test_imv_of_identity_alignment():
    imv = compute_imv(np.eye(2))
    assert np.array_equal(imv.values, [0.0, 1.0])
    assert imv.t1 == 2


def test_imv_of_uniform_columns():
    alpha = np.full((2, 3), 0.5)
    imv = compute_imv(alpha)
    assert np.array_equal(imv.values, [0.5, 0.5, 0.5])


def test_imv_hand_computed_case():
    # column 0: 0*0.25 + 1*0.5 + 2*0.25 = 1.0; column 1: 0.2 + 1.4 = 1.6
    alpha = np.array([[0.25, 0.1], [0.5, 0.2], [0.25, 0.7]])
    imv = compute_imv(alpha)
    assert np.allclose(imv.values, [1.0, 1.6], atol=1e-12)


def test_imv_rejects_unnormalized_columns():
    alpha = np.array([[0.5, 0.9], [0.4, 0.2]])
    with pytest.raises(AlignmentError):
        compute_imv(alpha)


def test_validate_monotone_complete():
    report = validate_imv(Imv(np.array([0.0, 0.5, 1.0]), 2))
    assert report.monotone_continuous
    assert report.complete
    assert report.violations == ()


def test_validate_flags_negative_step():
    report = validate_imv(Imv(np.array([0.0, -1.0, 1.0]), 2))
    assert not report.monotone_continuous
    # the negative step at index 1 and the compensating jump of 2 at index 2
    assert report.violations == ((1, -1.0), (2, 2.0))


def test_summary_names_at_most_five_violations():
    report = validate_imv(Imv(np.array([0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0]), 2))
    assert report.summary() == (
        "NOT monotone/continuous, NOT complete (6 step violation(s): delta[1]=2, "
        "delta[2]=-2, delta[3]=2, delta[4]=-2, delta[5]=2, ...)"
    )


def test_check_alignment_rejects_1d_input():
    with pytest.raises(AlignmentError, match="2-D"):
        compute_imv(np.array([0.5, 0.5]))


def test_imv_rejects_empty_input_and_one_step_validation():
    with pytest.raises(AlignmentError, match="t1 must be >= 1"):
        Imv(np.array([0.0, 0.0]), 0)
    with pytest.raises(AlignmentError, match="at least 2 steps"):
        validate_imv(Imv(np.array([0.0]), 1))


def test_validate_flags_incomplete_end():
    report = validate_imv(Imv(np.array([0.0, 1.0, 1.5]), 2))
    assert not report.complete
    assert report.monotone_continuous


def test_context_map_identity_and_mean():
    h = np.array([[1.0], [3.0]])
    assert np.array_equal(context_map(np.eye(2), h), h)
    alpha = np.full((2, 3), 0.5)
    assert np.allclose(context_map(alpha, h), np.full((3, 1), 2.0))


def test_context_map_matches_matrix_product():
    rng = np.random.default_rng(0)
    alpha = rng.random((3, 4))
    alpha /= alpha.sum(axis=0)
    h = rng.normal(size=(3, 5))
    assert np.allclose(context_map(alpha, h), alpha.T @ h, atol=1e-14)


def test_context_map_rejects_shape_mismatch():
    with pytest.raises(AlignmentError):
        context_map(np.eye(2), np.ones((3, 4)))


def test_enumerate_small_path_sets():
    paths = enumerate_monotonic_paths(2, 3)
    rows = sorted(tuple(np.argmax(m, axis=0)) for m in paths)
    assert rows == [(0, 0, 1), (0, 1, 1)]

    assert len(enumerate_monotonic_paths(2, 2)) == 1
    assert len(enumerate_monotonic_paths(3, 5)) == 6


def test_enumerate_rejects_infeasible():
    with pytest.raises(AlignmentError):
        enumerate_monotonic_paths(4, 3)
    with pytest.raises(AlignmentError, match="at least 2 input tokens"):
        enumerate_monotonic_paths(1, 3)


def test_path_imvs_satisfy_exact_constraints():
    # Exhaustive check of the step/boundary constraints on hard paths.
    for t1 in range(2, 5):
        for t2 in range(t1, 7):
            paths = enumerate_monotonic_paths(t1, t2)
            assert len(paths) == math.comb(t2 - 1, t1 - 1)
            for m in paths:
                imv = compute_imv(m)
                deltas = imv.deltas
                assert np.all((deltas == 0.0) | (deltas == 1.0))
                assert imv.values[0] == 0.0
                assert imv.values[-1] == t1 - 1


def test_convex_mixtures_keep_deltas_in_unit_interval():
    rng = np.random.default_rng(7)
    paths = enumerate_monotonic_paths(3, 6)
    for _ in range(50):
        w = rng.random(len(paths))
        w /= w.sum()
        mix = sum(wi * m for wi, m in zip(w, paths))
        imv = compute_imv(mix)
        report = validate_imv(imv, tol=1e-12)
        assert report.monotone_continuous
        assert report.complete


def test_compute_imv_is_linear_in_alpha():
    rng = np.random.default_rng(8)
    paths = enumerate_monotonic_paths(4, 6)
    a, b = paths[0], paths[-1]
    for lam in rng.random(10):
        mixed = compute_imv(lam * a + (1 - lam) * b).values
        direct = lam * compute_imv(a).values + (1 - lam) * compute_imv(b).values
        assert np.allclose(mixed, direct, atol=1e-12)
