import math
import re
import time
import warnings

import numpy as np
import pytest

from imvalign import core
from imvalign.core import (
    AlignmentError,
    Imv,
    check_alignment,
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


def test_validate_flags_a_nan_step():
    # both steps next to the NaN are NaN: neither is within [-tol, 1 + tol]
    report = validate_imv(Imv(np.array([0.0, np.nan, 2.0]), 3))
    assert not report.monotone_continuous
    assert [j for j, _ in report.violations] == [1, 2]
    assert all(math.isnan(d) for _, d in report.violations)
    assert report.summary().startswith("NOT monotone/continuous")


@pytest.mark.parametrize("tol", [1e-6, 0.1])
def test_validate_allows_steps_within_tol_of_the_unit_interval(tol):
    for step in (1.0 + tol / 2, -tol / 2):
        report = validate_imv(Imv(np.array([0.0, step]), 2), tol=tol)
        assert report.monotone_continuous and report.violations == ()
    for step in (1.0 + 2 * tol, -2 * tol):
        report = validate_imv(Imv(np.array([0.0, step]), 2), tol=tol)
        assert not report.monotone_continuous and report.violations == ((1, step),)


def test_summary_names_at_most_five_violations():
    report = validate_imv(Imv(np.array([0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0]), 2))
    assert report.summary() == (
        "NOT monotone/continuous, NOT complete (6 step violation(s): delta[1]=2, "
        "delta[2]=-2, delta[3]=2, delta[4]=-2, delta[5]=2, ...)"
    )


def test_check_alignment_rejects_1d_input():
    with pytest.raises(AlignmentError, match="2-D"):
        compute_imv(np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_alignment_rejects_a_nonfinite_entry_without_a_warning(bad):
    alpha = np.full((2, 3), 0.5)
    alpha[1, 2] = bad
    alpha[0, 2] = -bad  # inf - inf in one column sum: the sum is NaN, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match="alignment contains non-finite entries"):
            check_alignment(alpha)


@pytest.mark.parametrize("column, total", [
    ([1e308, 1e308], "inf"),
    # a contiguous column is summed pairwise: (1e308 + 1e308) + (-1e308 + -1e308) is inf - inf
    ([1e308, 1e308, 0, 0, -1e308, -1e308, 0, 0], "nan"),
])
def test_check_alignment_names_a_column_whose_finite_entries_overflow_its_sum(column, total):
    alpha = np.array(column)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlignmentError, match=f"column 0 sums to {total}; expected 1 within"):
            check_alignment(alpha)


def test_imv_rejects_empty_input_and_one_step_validation():
    with pytest.raises(AlignmentError, match="t1 must be >= 1"):
        Imv(np.array([0.0, 0.0]), 0)
    with pytest.raises(AlignmentError, match="at least 2 steps"):
        validate_imv(Imv(np.array([0.0]), 1))


@pytest.mark.parametrize("t1", [2.5, True, np.float64(3.0)])
def test_imv_refuses_a_t1_that_is_not_an_integer(t1):
    # t1 = 2.5 would size a 3-row alignment whose HMA ends at 1.5
    with pytest.raises(AlignmentError, match="t1 must be >= 1 and an integer"):
        Imv(np.zeros(2), t1)


def test_imv_accepts_a_numpy_integer_t1():
    assert Imv(np.zeros(2), np.int64(3)).t1 == 3


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
    with pytest.raises(ValueError, match="no complete monotonic path exists for t1=4 > t2=3"):
        enumerate_monotonic_paths(4, 3)
    with pytest.raises(ValueError, match="at least 2 input tokens"):
        enumerate_monotonic_paths(1, 3)


def test_enumerate_refuses_sizes_over_its_cap_before_building_a_path(monkeypatch):
    def no_paths(*args):
        raise AssertionError("a path was enumerated")

    monkeypatch.setattr(core, "combinations", no_paths)
    # the 40x80 paths would fill memory long before the enumeration ended
    for t1, t2, named in [(12, 40, "1676056044"), (40, 80, str(math.comb(79, 39))),
                          (100000, 200000, "C(199999, 99999)")]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^{t1}x{t2} has {re.escape(named)} monotonic paths") as info:
            enumerate_monotonic_paths(t1, t2)
        assert time.perf_counter() - start < 1.0
        # a plain ValueError, not an AlignmentError: `imvalign oracle` exits 2 on it
        assert type(info.value) is ValueError


def test_enumerate_cap_admits_exactly_its_entries(monkeypatch):
    # 126 paths of 5x10: 6300 entries together
    monkeypatch.setattr(core, "MAX_ALIGNMENT_ENTRIES", 6300)
    assert len(enumerate_monotonic_paths(5, 10)) == 126
    monkeypatch.setattr(core, "MAX_ALIGNMENT_ENTRIES", 6299)
    with pytest.raises(ValueError, match="has 126 monotonic paths; the oracle builds at most 6299 matrix entries"):
        enumerate_monotonic_paths(5, 10)
    # the count is named, not computed, only once one matrix alone is over the cap
    monkeypatch.setattr(core, "MAX_ALIGNMENT_ENTRIES", 50)
    with pytest.raises(ValueError, match="has 126 monotonic paths"):
        enumerate_monotonic_paths(5, 10)
    monkeypatch.setattr(core, "MAX_ALIGNMENT_ENTRIES", 49)
    with pytest.raises(ValueError, match=r"has C\(9, 4\) monotonic paths"):
        enumerate_monotonic_paths(5, 10)


def test_size_cap_names_a_length_too_long_for_str():
    # str() of a 5,001-digit int raises the interpreter's own digit-limit
    # ValueError; library callers such as toy.infer get no bounded CLI line
    with pytest.raises(ValueError, match=r"^a 1\.00e\+5000x3 alignment is over the cap of 10000000 entries$"):
        core.check_alignment_size(10**5000, 3)


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
