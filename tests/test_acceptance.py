"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The trainer-based criteria share one set of runs
through a module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from imvalign.checks import CHECKABLE_OPS, run_check
from imvalign.core import Imv, compute_imv, enumerate_monotonic_paths, validate_imv
from imvalign.monotonic import (
    KernelConfig,
    SmaWeights,
    StreamingHmaState,
    align_from_imv,
    hma_transform,
    sma_loss,
    streaming_hma_run,
    streaming_hma_step,
)
from imvalign.positions import align_from_positions, extract_positions
from imvalign.toy import ToyTask, TrainConfig, infer, make_batch, train

TOY_TASK = ToyTask(seed=0)
TOY_SEEDS = (1, 2, 3, 4, 5)


def _toy_config(mode: str, seed: int) -> TrainConfig:
    return TrainConfig(
        mode=mode,
        steps=1200,
        pool_size=32,
        batch_size=8,
        optimizer="adam",
        lr=1e-2,
        sigma2=0.25,
        seed=seed,
        accuracy_threshold=0.9,
    )


def test_the_default_train_config_is_the_acceptance_run():
    assert TrainConfig() == _toy_config("HMA", TOY_SEEDS[0])


def _report(criterion: int, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail} [{elapsed:.1f}s < {limit:.0f}s]")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_path_enumeration_oracle():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for t1 in range(2, 5):
        for t2 in range(t1, 7):
            paths = enumerate_monotonic_paths(t1, t2)
            ok &= len(paths) == math.comb(t2 - 1, t1 - 1)
            for m in paths:
                imv = compute_imv(m)
                deltas = imv.deltas
                ok &= bool(np.all((deltas == 0.0) | (deltas == 1.0)))
                ok &= imv.values[0] == 0.0 and imv.values[-1] == t1 - 1
                checked += 1
    _report(1, ok, f"{checked} hard paths, exact step/boundary constraints", time.perf_counter() - t0, 5.0)


def test_criterion_2_constraint_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    mixtures_ok = 0
    path_cache = {}
    for _ in range(1000):
        t1 = int(rng.integers(2, 5))
        t2 = int(rng.integers(t1, 7))
        paths = path_cache.setdefault((t1, t2), enumerate_monotonic_paths(t1, t2))
        w = rng.random(len(paths))
        w /= w.sum()
        alpha = np.tensordot(w, np.stack(paths), axes=1)
        report = validate_imv(compute_imv(alpha), tol=1e-12)
        if report.monotone_continuous and report.complete:
            mixtures_ok += 1

    flagged = 0
    for _ in range(1000):
        t1 = int(rng.integers(3, 9))
        t2 = int(rng.integers(4, 13))
        owners = rng.integers(0, t1, size=t2)
        j = int(rng.integers(0, t2 - 1))
        owners[j] = int(rng.integers(2, t1))
        owners[j + 1] = owners[j] - 2  # argmax inversion of >= 2 positions
        alpha = np.empty((t1, t2))
        for col in range(t2):
            peak = 0.99 + 0.01 * rng.random()
            alpha[:, col] = (1.0 - peak) / (t1 - 1)
            alpha[owners[col], col] = peak
        imv = compute_imv(alpha)
        deltas = imv.deltas
        step_violation = np.any((deltas < -1e-9) | (deltas > 1.0 + 1e-9))
        boundary_violation = abs(imv.values[0]) > 1e-9 or abs(imv.values[-1] - (t1 - 1)) > 1e-9
        if step_violation or boundary_violation:
            flagged += 1

    ok = mixtures_ok == 1000 and flagged >= 990
    _report(
        2,
        ok,
        f"{mixtures_ok}/1000 mixtures pass, {flagged}/1000 inverted matrices flagged",
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_3_hma_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    weights = SmaWeights(lambda1=0.0)
    ok = True
    n = 0
    while n < 1000:
        t2 = int(rng.integers(4, 65))
        t1 = int(rng.integers(4, 33))
        raw = rng.normal(size=t2) * rng.uniform(0.2, 4.0) + rng.normal() * 3.0
        if np.all(np.diff(raw) <= 0):
            continue
        n += 1
        star = hma_transform(Imv(raw, t1))
        v = star.values
        ok &= abs(v[0]) <= 1e-9
        ok &= abs(v[-1] - (t1 - 1)) <= 1e-9
        ok &= bool(np.all(np.diff(v) >= -1e-12))
        ok &= float(sma_loss(star, weights)) < 1e-10
    _report(3, ok, "1000 transforms: boundaries exact, steps non-negative, penalty < 1e-10", time.perf_counter() - t0, 5.0)


def test_criterion_4_gradient_suite():
    t0 = time.perf_counter()
    failures = []
    for name in CHECKABLE_OPS:
        for seed in range(10):
            report = run_check(name, seed=seed, h=1e-5, tol=1e-4)
            if not report.passed:
                failures.append((name, seed, report.max_rel_error))
    ok = not failures
    detail = f"{len(CHECKABLE_OPS)} ops x 10 seeds"
    if failures:
        detail += f"; failures: {failures[:5]}"
    _report(4, ok, detail, time.perf_counter() - t0, 60.0)


def test_criterion_5_reconstruction_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    kernel = KernelConfig(sigma2=1e-3)

    grid_ok = True
    for _ in range(200):
        t1 = int(rng.integers(2, 9))
        t2 = int(rng.integers(2, 17))
        # centres on the half-integer grid: distinct values differ by >= 0.5
        star = 0.5 * rng.integers(0, 2 * (t1 - 1) + 1, size=t2)
        back = compute_imv(align_from_imv(Imv(star, t1), kernel))
        grid_ok &= bool(np.max(np.abs(back.values - star)) < 1e-6)

    roundtrip_ok = True
    sharp = KernelConfig(sigma2=0.01)
    for _ in range(100):
        t1 = int(rng.integers(2, 8))
        durations = np.empty(t1, dtype=int)
        durations[0] = rng.integers(1, 5)
        for i in range(1, t1):
            durations[i] = rng.integers(
                max(1, durations[i - 1] - 1), min(4, durations[i - 1] + 1) + 1
            )
        starts = np.concatenate([[0], np.cumsum(durations)[:-1]])
        pi = np.repeat(np.arange(t1, dtype=float), durations)
        positions = extract_positions(Imv(pi, t1), sharp)
        e = positions.values
        in_span = all(
            starts[i] - 1e-9 <= e[i] <= starts[i] + durations[i] - 1 + 1e-9
            for i in range(t1)
        )
        back = compute_imv(align_from_positions(positions, int(durations.sum()), sharp))
        roundtrip_ok &= in_span and bool(np.max(np.abs(back.values - pi)) < 0.1)

    ok = grid_ok and roundtrip_ok
    _report(5, ok, "200 grid reconstructions < 1e-6; 100 duration roundtrips < 0.1", time.perf_counter() - t0, 10.0)


def test_criterion_6_streaming_batch_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(100):
        t1 = int(rng.integers(3, 17))
        t2 = int(rng.integers(2, 33))
        alpha = rng.random((t1, t2)) ** 2
        alpha /= alpha.sum(axis=0)
        kernel = KernelConfig(sigma2=float(rng.uniform(0.05, 1.0)))
        path, reconstructed = streaming_hma_run(alpha, kernel)
        state = StreamingHmaState(t1=t1)
        for j in range(t2):
            state, col = streaming_hma_step(state, alpha[:, j], kernel)
            ok &= abs(state.pi - path[j]) <= 1e-12
            ok &= bool(np.max(np.abs(col - reconstructed[:, j])) <= 1e-12)
    _report(6, ok, "100 sequences, column-for-column within 1e-12", time.perf_counter() - t0, 5.0)


@pytest.fixture(scope="module")
def mode_runs():
    runs = {}
    t0 = time.perf_counter()
    for seed in TOY_SEEDS:
        for mode in ("HMA", "SMA", "NM"):
            model, report = train(TOY_TASK, _toy_config(mode, seed))
            runs[(mode, seed)] = (model, report)
    return runs, time.perf_counter() - t0


def test_criterion_7_mode_convergence_contrast(mode_runs):
    runs, elapsed = mode_runs
    hma_reaches = []
    hma_beats_sma = []
    nm_margins = []
    for seed in TOY_SEEDS:
        hma = runs[("HMA", seed)][1]
        sma = runs[("SMA", seed)][1]
        nm = runs[("NM", seed)][1]
        hma_reaches.append(hma.steps_to_threshold is not None)
        hma_steps = hma.steps_to_threshold if hma.steps_to_threshold is not None else math.inf
        sma_steps = sma.steps_to_threshold if sma.steps_to_threshold is not None else math.inf
        hma_beats_sma.append(hma_steps < sma_steps)
        nm_margins.append(hma.final_diagonality - nm.final_diagonality)
    ok = (
        all(hma_reaches)
        and sum(hma_beats_sma) >= 4
        and all(m >= 0.2 for m in nm_margins)
    )
    detail = (
        f"HMA reaches 0.9 on {sum(hma_reaches)}/5 seeds; "
        f"HMA faster than SMA on {sum(hma_beats_sma)}/5; "
        f"NM diagonality margins {['%.2f' % m for m in nm_margins]}"
    )
    _report(7, ok, detail, elapsed, 600.0)


def test_criterion_8_rate_control(mode_runs):
    runs, _ = mode_runs
    t0 = time.perf_counter()
    model = runs[("HMA", TOY_SEEDS[0])][0]
    ok = True
    checked = 0
    for seed in range(20):
        batch = make_batch(TOY_TASK, 1000 + seed)
        base = infer(model, batch.token_ids, rate=1.0, sigma2=0.25)
        for rate in (0.8, 1.2):
            scaled = infer(model, batch.token_ids, rate=rate, sigma2=0.25)
            ok &= abs(scaled.shape[0] - rate * base.shape[0]) <= 1.0 + 1e-9
            checked += 1
    _report(8, ok, f"{checked} length checks at rates 0.8/1.2 within +/-1 frame", time.perf_counter() - t0, 60.0)
