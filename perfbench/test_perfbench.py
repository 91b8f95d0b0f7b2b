"""Tests of the benchmark itself: its checks reject corrupted outputs, and
every workload runs end to end in its small mode, untraced and traced.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import verify  # noqa: E402
from verify import CheckFailed  # noqa: E402

from imvalign import Imv, KernelConfig, align_from_imv, forward_backward, hma_transform  # noqa: E402
from imvalign import extract_positions, infer_t2, scale_positions  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_hma_check_rejects_an_endpoint_off_t1_minus_1():
    t1 = 7
    pi = hma_transform(Imv(np.array([0.2, 0.1, 1.5, 2.5, 2.4, 3.9]), t1)).values
    verify.hma_contract(pi, t1)
    moved = pi.copy()
    moved[-1] = t1 - 1.5
    with pytest.raises(CheckFailed, match="ends at"):
        verify.hma_contract(moved, t1)


def test_column_check_rejects_a_column_that_does_not_sum_to_1():
    t1, star = 6, np.array([0.0, 0.7, 1.9, 2.2, 3.8, 5.0])
    alpha = align_from_imv(Imv(star, t1), KernelConfig(sigma2=0.25))
    ref = verify.gaussian_softmax(np.arange(t1, dtype=np.float64), star, 0.25)
    verify.columns_match(alpha, ref)
    bad = alpha.copy()
    bad[:, 3] *= 1.01
    with pytest.raises(CheckFailed, match="column 3 sums"):
        verify.columns_match(bad, ref)


def test_gradient_check_rejects_a_flipped_sign():
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(5, 5))

    def f(pi):
        return align_from_imv(Imv(pi, 5), KernelConfig(sigma2=0.5)) * weights

    x = np.array([0.0, 0.8, 1.7, 3.1, 4.0])
    _, (grad,) = forward_backward(f, [x])
    directions = [[rng.normal(size=5)] for _ in range(3)]

    def objective(arrays):
        return float(np.sum(f(arrays[0]))), []

    assert verify.directional_derivatives(objective, [x], [grad], directions, 1e-7, 1e-4) == 3
    with pytest.raises(CheckFailed, match="directional derivative"):
        verify.directional_derivatives(objective, [x], [-grad], directions, 1e-7, 1e-4)


def test_rate_check_rejects_a_length_off_by_3():
    pos = extract_positions(Imv(np.linspace(0.0, 9.0, 30), 10), KernelConfig(sigma2=0.25))
    base = infer_t2(pos)
    for rate in (0.8, 1.2):
        scaled = infer_t2(scale_positions(pos, rate))
        verify.rate_length(base, scaled, rate)
        with pytest.raises(CheckFailed, match="more than"):
            verify.rate_length(base, scaled + 3, rate)


def test_imv_oracle_and_pgm_checks_reject_corruption():
    alpha = np.array([[0.5, 0.1], [0.5, 0.9]])
    verify.imv_matches(alpha, np.array([0.5, 0.9]))
    with pytest.raises(CheckFailed):
        verify.imv_matches(alpha, np.array([0.5, 0.9 + 1e-9]))
    verify.oracle_report("10 paths, PASS\n", 3, 6)
    with pytest.raises(CheckFailed):
        verify.oracle_report("9 paths, PASS\n", 3, 6)
    verify.pgm_matches("P2\n2 3\n255\n0 1\n2 3\n4 5\n", (3, 2))
    with pytest.raises(CheckFailed):
        verify.pgm_matches("P2\n3 2\n255\n0 1\n2 3\n4 5\n", (3, 2))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_mode_runs_clean_and_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "header" in json.loads(lines[0])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0, proc.stderr
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])


def test_refuses_to_run_without_the_library_sources():
    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench("--workload", "align-long", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
