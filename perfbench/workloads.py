"""The four benchmark workloads: inputs made from the seed, and rounds.

Every workload is a closed loop in one process: one operation at a time,
each timed on its own, each checked against :mod:`verify` with the checks
outside the timed region. A run repeats whole rounds of the same
operations until its time is up, so the share of failed operations does not
depend on how long the run lasts.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import reference
import verify
from verify import CheckFailed

import imvalign
from imvalign import autodiff, attention, core, monotonic, positions, toy

SIGMA2 = 0.25
KERNEL = monotonic.KernelConfig(sigma2=SIGMA2)

# The acceptance config of the trainer. The training seed is the default of
# `imvalign train-toy` and the first acceptance seed; HMA reaches accuracy
# 0.9 at step 345 there (TOY_STEPS leaves 75 steps of margin), while across
# seeds 1-8 that step ranges from 33 to beyond 600, which would make both the
# round length and the HMA-reaches-0.9 check depend on the seed.
TOY_TASK = toy.ToyTask(seed=0)
TOY_TRAIN_SEED = 1
TOY_STEPS = 420
TOY_REPLAY_STEPS = 24
TOY_HELD_OUT = 16
TOY_RATES = (0.8, 1.2)


def toy_config(mode: str, steps: int) -> toy.TrainConfig:
    return toy.TrainConfig(mode=mode, steps=steps, pool_size=32, batch_size=8, optimizer="adam",
                           lr=1e-2, sigma2=SIGMA2, seed=TOY_TRAIN_SEED, accuracy_threshold=0.9)


@dataclass
class Stats:
    """What one phase of a run did: operations, their times and failures.
    ``op_s`` holds one wall time per completed operation; ``host`` times the
    reference task between operations (see :mod:`reference`)."""

    attempted: int = 0
    failed: int = 0
    op_s: list = field(default_factory=list)
    busy_s: float = 0.0
    sums: dict = field(default_factory=dict)
    reported: int = 0
    host: reference.HostClock = field(default_factory=reference.HostClock)

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def fail(self, count: int, message: str) -> None:
        """Count failed operations; the first few are described on stderr."""
        self.failed += count
        self.reported += 1
        if self.reported <= 5:
            print(f"failed ({count} op): {message}", file=sys.stderr)

    def round_failed(self, message: str) -> None:
        """A property of the whole round rather than of one operation failed."""
        self.add("round_checks_failed", 1)
        print(f"round check failed: {message}", file=sys.stderr)

    def run_check(self, check, *args) -> None:
        try:
            check(*args)
        except CheckFailed as exc:
            self.round_failed(str(exc))


def stratified(rng, n: int, lo: float, hi: float, stride: int = 1) -> np.ndarray:
    """One draw from each of n equal slices of [lo, hi), so every seed covers
    the range alike. Entry k comes from slice (k * stride) % n: strides
    coprime to n pair two stratified sizes the same way for every seed, which
    keeps the corpus's cost, and so the timings, from depending on the seed."""
    slices = (np.arange(n) * stride) % n
    return lo + (slices + rng.random(n)) * (hi - lo) / n


def near_diagonal(rng, t1: int, t2: int, rewinds: bool = True) -> np.ndarray:
    """A noisy alignment whose peak walks from token 0 to t1-1 at a varying
    speed, with a few short local rewinds; columns sum to 1."""
    centre = np.concatenate([[0.0], np.cumsum(rng.gamma(4.0, 1.0, size=t2 - 1))])
    centre *= (t1 - 1) / centre[-1]
    if rewinds and t2 > 12:
        for _ in range(int(rng.integers(1, 4))):
            j0 = int(rng.integers(1, t2 - 10))
            length = int(rng.integers(3, 9))
            centre[j0:j0 + length] -= rng.uniform(0.5, 2.0) * np.sin(np.linspace(0.0, np.pi, length))
    width = rng.uniform(0.6, 1.5)
    logits = -np.subtract.outer(np.arange(t1, dtype=np.float64), centre) ** 2 / (2 * width * width)
    logits += 0.3 * rng.normal(size=(t1, t2))
    alpha = np.exp(logits - logits.max(axis=0))
    return alpha / alpha.sum(axis=0)


def run_rounds(round_fn, seconds: float, small: bool) -> int:
    """Whole rounds until ``seconds`` have passed (one round when small)."""
    start = time.perf_counter()
    rounds = 0
    while True:
        round_fn(rounds)
        rounds += 1
        if small or time.perf_counter() - start >= seconds:
            return rounds


# -- toy-train ------------------------------------------------------------


class StepClock:
    """Marks the start of each training step: the trainer asks the model for
    fresh tape variables once per step. Before each mark the host reference
    ticks; ``ticks`` holds when each tick began."""

    def __init__(self, host: reference.HostClock):
        self.marks: list[float] = []
        self.ticks: list[float] = []
        self.host = host

    def __enter__(self):
        original = self._original = toy.ToyModel.variables
        marks, ticks, host = self.marks, self.ticks, self.host

        def variables(model, tape):
            ticks.append(time.perf_counter())
            host.tick()
            marks.append(time.perf_counter())
            return original(model, tape)

        toy.ToyModel.variables = variables
        return self

    def __exit__(self, *exc):
        toy.ToyModel.variables = self._original

    def step_seconds(self, start: float, end: float) -> np.ndarray:
        """Each step's time, from its mark to the next tick (or the end);
        the first also counts the trainer's set-up from ``start``."""
        steps = np.array(self.ticks[1:] + [end]) - np.array(self.marks)
        if len(steps):
            steps[0] += self.ticks[0] - start
        return steps


def toy_inputs(seed: int, small: bool) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x70)))
    n = 4 if small else TOY_HELD_OUT
    held_out = [toy.make_batch(TOY_TASK, int(s)) for s in rng.integers(1000, 1_000_000, size=n)]
    return {"held_out": held_out, "steps": 12 if small else TOY_STEPS,
            "replay": 4 if small else TOY_REPLAY_STEPS, "small": small}


def toy_round(inputs: dict, stats: Stats, first: dict, paused) -> None:
    steps = inputs["steps"]
    reports = {}
    models = {}
    for mode in ("HMA", "SMA", "NM"):
        stats.attempted += steps
        with StepClock(stats.host) as clock:
            start = time.perf_counter()
            try:
                model, report = toy.train(TOY_TASK, toy_config(mode, steps))
            except Exception as exc:  # the workload goes on to its end
                stats.fail(steps, f"{mode} training raised {exc!r}")
                continue
            end = time.perf_counter()
        step_s = clock.step_seconds(start, end)
        stats.op_s.extend(step_s.tolist())
        stats.busy_s += float(step_s.sum())
        stats.add(f"{mode}_s", float(step_s.sum()))
        stats.add(f"{mode}_steps", steps)
        bad = ~np.isfinite(report.total_loss)
        if bad.any():
            stats.fail(int(bad.sum()), f"{mode}: {int(bad.sum())} non-finite losses")
        if mode == "HMA" and report.steps_to_threshold is not None:
            stats.add("hma_time_to_acc_s", float(step_s[:report.steps_to_threshold + 1].sum()))
            stats.add("hma_reached", 1)
        reports[mode] = report
        models[mode] = model

    if not inputs["small"] and {"HMA", "SMA", "NM"} <= set(reports):
        stats.run_check(verify.hma_before_sma, reports["HMA"].steps_to_threshold,
                        reports["SMA"].steps_to_threshold)
        stats.run_check(verify.diagonality_margin, reports["HMA"].final_diagonality,
                        reports["NM"].final_diagonality)
    with paused():
        for mode, report in reports.items():
            if mode in first:
                stats.run_check(verify.identical, report.total_loss, first[mode], f"{mode} loss traces")
                continue
            first[mode] = report.total_loss
            replay = inputs["replay"]
            try:
                _, again = toy.train(TOY_TASK, toy_config(mode, replay))
            except Exception as exc:
                stats.round_failed(f"{mode} replay raised {exc!r}")
                continue
            stats.run_check(verify.identical, again.total_loss, report.total_loss[:replay],
                            f"{mode} loss traces")

    model = models.get("HMA")
    for batch in inputs["held_out"]:
        stats.attempted += 1 + len(TOY_RATES)
        if model is None:
            stats.fail(1 + len(TOY_RATES), "no trained HMA model to infer with")
            continue
        try:
            base = toy.infer(model, batch.token_ids, rate=1.0, sigma2=SIGMA2)
            scaled = {rate: toy.infer(model, batch.token_ids, rate=rate, sigma2=SIGMA2) for rate in TOY_RATES}
        except Exception as exc:
            stats.fail(1 + len(TOY_RATES), f"infer raised {exc!r}")
            continue
        if not np.all(np.isfinite(base)):
            stats.fail(1 + len(TOY_RATES), "infer produced non-finite frames")
            continue
        for rate, frames in scaled.items():
            try:
                verify.rate_length(base.shape[0], frames.shape[0], rate)
                if not np.all(np.isfinite(frames)):
                    raise CheckFailed(f"non-finite frames at rate {rate}")
            except CheckFailed as exc:
                stats.fail(1, str(exc))


def run_toy(inputs: dict, seconds: float, stats: Stats, paused) -> None:
    first: dict = {}
    run_rounds(lambda r: toy_round(inputs, stats, first, paused), seconds, inputs["small"])


# -- align-long -----------------------------------------------------------


def align_inputs(seed: int, small: bool) -> list[dict]:
    """Stratified sizes t1 in [32, 256], t2 = t1 x [2, 4] up to 1024; every
    fourth size stratum also goes through the column-by-column stream."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA1)))
    n, (lo, hi) = (4, (8, 24)) if small else (32, (32, 257))
    t1s = np.floor(stratified(rng, n, lo, hi)).astype(int)
    ratios = stratified(rng, n, 2.0, 4.0, stride=11)
    rates = stratified(rng, n, 0.75, 1.5, stride=5)
    corpus = []
    for k in range(n):
        t1 = int(t1s[k])
        t2 = int(min(1024, round(t1 * ratios[k])))
        corpus.append({"alpha": near_diagonal(rng, t1, t2), "rate": float(rates[k]), "stream": k % 4 == 0})
    return [corpus[i] for i in rng.permutation(n)]


def align_sequence(seq: dict, stats: Stats) -> None:
    alpha = seq["alpha"]
    t1, t2 = alpha.shape
    rate = seq["rate"]
    stats.attempted += 1
    start = time.perf_counter()
    try:
        imv = core.compute_imv(alpha)
        report = core.validate_imv(imv)
        star = monotonic.hma_transform(imv)
        recon = monotonic.align_from_imv(star, KERNEL)
        pos = positions.extract_positions(star, KERNEL)
        base_len = positions.infer_t2(pos)
        scaled = positions.scale_positions(pos, rate)
        scaled_len = positions.infer_t2(scaled)
        recon_scaled = positions.align_from_positions(scaled, scaled_len, KERNEL)
        path, recon_stream = monotonic.streaming_hma_run(alpha, KERNEL)
    except Exception as exc:
        stats.fail(1, f"{t1}x{t2} sequence raised {exc!r}")
        path = None
    else:
        elapsed = time.perf_counter() - start
        stats.op_s.append(elapsed)
        stats.add("pipeline_s", elapsed)
        stats.busy_s += elapsed
        try:
            verify.imv_matches(alpha, imv.values)
            verify.validation_matches(report.violations, imv.values, report.tol)
            verify.hma_contract(star.values, t1)
            verify.columns_match(recon, verify.gaussian_softmax(np.arange(t1, dtype=np.float64), star.values, SIGMA2))
            verify.rate_length(base_len, scaled_len, rate)
            verify.columns_match(recon_scaled, verify.gaussian_softmax(
                scaled.values, np.arange(scaled_len, dtype=np.float64), SIGMA2))
            verify.stream_steps(path)
            verify.columns_match(recon_stream, verify.gaussian_softmax(np.arange(t1, dtype=np.float64), path, SIGMA2))
        except CheckFailed as exc:
            stats.fail(1, f"{t1}x{t2} sequence: {exc}")
            path = None
    if seq["stream"]:
        stream_columns(alpha, path, recon_stream if path is not None else None, stats)
    stats.host.tick()


def stream_columns(alpha: np.ndarray, path, recon, stats: Stats) -> None:
    """Feed the raw alignment one column at a time; each column is one
    operation, checked against the whole-sequence streaming run."""
    t1, t2 = alpha.shape
    stats.attempted += t2
    state = monotonic.StreamingHmaState(t1=t1)
    step_path, step_cols = [], []
    start = time.perf_counter()
    try:
        for j in range(t2):
            state, col = monotonic.streaming_hma_step(state, alpha[:, j], KERNEL)
            step_path.append(state.pi)
            step_cols.append(col)
    except Exception as exc:
        stats.fail(t2 - len(step_path), f"streaming step {len(step_path)} of {t1}x{t2} raised {exc!r}")
    elapsed = time.perf_counter() - start
    stats.add("stream_s", elapsed)
    stats.add("stream_cols", len(step_path))
    stats.busy_s += elapsed
    if path is None:
        stats.fail(len(step_path), f"{t1}x{t2}: no streaming run to compare the stepped columns with")
        return
    bad = verify.stream_column_errors(path, recon, step_path, step_cols)
    if bad:
        stats.fail(bad, f"{t1}x{t2}: {bad} stepped columns differ from the streaming run")


def run_align(corpus: list[dict], seconds: float, stats: Stats, small: bool) -> None:
    def one_round(_):
        for seq in corpus:
            align_sequence(seq, stats)

    run_rounds(one_round, seconds, small)


# -- grad-long ------------------------------------------------------------

GRAD_DIM = 32
GRAD_DIRECTIONS = 2
GRAD_H = 1e-7
GRAD_TOL = 1e-4


def grad_inputs(seed: int, small: bool) -> list[dict]:
    """Keys are random; each query is a noisy copy of the key its output step
    should attend to along a near-diagonal path, so the attention is a real
    alignment rather than uniform mush. t1 in [16, 128], t2 = t1 x [2, 4]
    within [64, 512]."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6D)))
    n, (lo, hi) = (3, (6, 12)) if small else (32, (16, 129))
    t1s = np.floor(stratified(rng, n, lo, hi)).astype(int)
    ratios = stratified(rng, n, 2.0, 4.0, stride=11)
    corpus = []
    for k in range(n):
        t1 = int(t1s[k])
        t2 = int(np.clip(round(t1 * ratios[k]), 16 if small else 64, 512))
        keys = rng.normal(size=(t1, GRAD_DIM))
        centre = np.concatenate([[0.0], np.cumsum(rng.gamma(4.0, 1.0, size=t2 - 1))])
        owner = np.rint(centre * (t1 - 1) / centre[-1]).astype(int)
        queries = 0.6 * keys[owner] + 0.5 * rng.normal(size=(t2, GRAD_DIM))
        directions = [[rng.normal(size=queries.shape), rng.normal(size=keys.shape)]
                      for _ in range(GRAD_DIRECTIONS)]
        corpus.append({"queries": queries, "keys": keys, "weights": rng.normal(size=(t1, t2)),
                       "directions": directions})
    return [corpus[i] for i in rng.permutation(n)]


def grad_objective(weights: np.ndarray):
    """IMV pipeline from attention to the rebuilt alignment, contracted with
    fixed weights, plus the soft penalty of the raw IMV."""
    t2 = weights.shape[1]

    def f(queries, keys):
        alpha = attention.scaled_dot_alignment(queries, keys)
        imv = core.compute_imv(alpha)
        star = monotonic.hma_transform(imv)
        pos = positions.extract_positions(star, KERNEL)
        recon = positions.align_from_positions(pos, t2, KERNEL)
        return recon * weights, monotonic.sma_loss(imv)

    return f


def traced_value(f, arrays):
    """Objective value and kink signatures of one evaluation on a fresh tape."""
    tape = autodiff.Tape()
    outputs = f(*[tape.variable(a) for a in arrays])
    value = sum(float(np.sum(o.data)) for o in outputs)
    return value, tape.kink_signatures


def grad_sequence(seq: dict, stats: Stats, paused) -> None:
    f = grad_objective(seq["weights"])
    inputs = [seq["queries"], seq["keys"]]
    stats.attempted += 1
    start = time.perf_counter()
    try:
        outputs, grads = autodiff.forward_backward(f, inputs)
    except Exception as exc:
        stats.fail(1, f"forward_backward raised {exc!r}")
        return
    elapsed = time.perf_counter() - start
    stats.op_s.append(elapsed)
    stats.busy_s += elapsed
    stats.host.tick()
    with paused():
        try:
            loss = sum(float(np.sum(o)) for o in outputs)
            if not math.isfinite(loss):
                raise CheckFailed(f"loss is {loss}")
            compared = verify.directional_derivatives(
                lambda arrays: traced_value(f, arrays), inputs, grads, seq["directions"], GRAD_H, GRAD_TOL)
            stats.add("grad_directions_skipped", GRAD_DIRECTIONS - compared)
        except CheckFailed as exc:
            stats.fail(1, f"{seq['keys'].shape[0]}x{seq['queries'].shape[0]}: {exc}")


def run_grad(corpus: list[dict], seconds: float, stats: Stats, small: bool, paused) -> None:
    def one_round(_):
        for seq in corpus:
            grad_sequence(seq, stats, paused)

    run_rounds(one_round, seconds, small)


# -- cli-files ------------------------------------------------------------

CLI_SETS = 4
# Two sets make a round of 14 commands, ~20 s: longer than a run, so every
# run does exactly one round rather than one or two by a narrow margin.
CLI_SETS_PER_ROUND = 2


def write_matrix_csv(path: str, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.shape[0]},{m.shape[1]}\n")
        for row in m:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_vector_txt(path: str, v: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(repr(float(x)) + "\n" for x in v))


def read_matrix_csv(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    rows, cols = (int(x) for x in lines[0].split(","))
    m = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    if m.shape != (rows, cols):
        raise CheckFailed(f"{path}: header says {rows}x{cols}, body is {m.shape}")
    return m


def read_vector_txt(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([float(x) for x in fh.read().split()])


def independent_hma(raw: np.ndarray, t1: int) -> np.ndarray:
    pi = np.concatenate([[0.0], np.cumsum(np.maximum(np.diff(raw), 0.0))])
    return pi * (t1 - 1) / pi[-1]


def cli_inputs(seed: int, small: bool, workdir: str) -> list[dict]:
    """CLI_SETS input sets: an alignment of t1 in [64, 128] by t2 in
    [256, 512], its raw IMV, a monotone IMV, and a small oracle size."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC1)))
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    sets = []
    for k in range(1 if small else CLI_SETS):
        t1 = int(rng.integers(8, 12) if small else rng.integers(64, 129))
        t2 = int(rng.integers(24, 40) if small else rng.integers(256, 513))
        alpha = near_diagonal(rng, t1, t2)
        raw = verify.expected_imv(alpha)
        star = independent_hma(raw, t1)
        files = {name: os.path.join(workdir, f"{name}{k}.{ext}") for name, ext in
                 (("alignment", "csv"), ("raw", "txt"), ("star", "txt"))}
        write_matrix_csv(files["alignment"], alpha)
        write_vector_txt(files["raw"], raw)
        write_vector_txt(files["star"], star)
        ot1 = int(rng.integers(3, 6))
        sets.append({"t1": t1, "t2": t2, "alpha": alpha, "raw": raw, "star": star, "files": files,
                     "oracle": (ot1, ot1 + int(rng.integers(2, 6))),
                     "out": os.path.join(workdir, "out")})
    return sets


def cli_commands(s: dict) -> list[tuple[str, list[str]]]:
    f, out, t1 = s["files"], s["out"], str(s["t1"])
    ot1, ot2 = s["oracle"]
    return [
        ("imv", ["imv", "--alignment", f["alignment"], "--out", os.path.join(out, "imv.txt")]),
        ("hma", ["hma", "--imv", f["raw"], "--t1", t1, "--out", os.path.join(out, "hma.txt")]),
        ("reconstruct", ["reconstruct", "--imv", f["star"], "--t1", t1, "--out", os.path.join(out, "rec.csv")]),
        ("positions", ["positions", "--imv", f["star"], "--t1", t1, "--out", os.path.join(out, "pos.txt")]),
        ("sma", ["sma", "--imv", f["raw"], "--t1", t1]),
        ("heatmap", ["heatmap", "--alignment", f["alignment"], "--out", os.path.join(out, "map.pgm")]),
        ("oracle", ["oracle", "--t1", str(ot1), "--t2", str(ot2)]),
    ]


def check_cli_output(name: str, s: dict, stdout: str) -> None:
    out, t1 = s["out"], s["t1"]
    if name == "imv":
        verify.imv_matches(s["alpha"], read_vector_txt(os.path.join(out, "imv.txt")))
    elif name == "hma":
        pi = read_vector_txt(os.path.join(out, "hma.txt"))
        verify.hma_contract(pi, t1)
        verify.close(pi, independent_hma(s["raw"], t1), 1e-9, "HMA output")
    elif name == "reconstruct":
        verify.columns_match(read_matrix_csv(os.path.join(out, "rec.csv")),
                             verify.gaussian_softmax(np.arange(t1, dtype=np.float64), s["star"], SIGMA2))
    elif name == "positions":
        verify.close(read_vector_txt(os.path.join(out, "pos.txt")),
                     verify.row_gaussian_positions(s["star"], t1, SIGMA2), 1e-9, "aligned positions")
    elif name == "sma":
        verify.close(np.array([float(stdout)]), np.array([verify.sma_penalty(s["raw"], t1)]), 1e-9, "SMA loss")
    elif name == "heatmap":
        with open(os.path.join(out, "map.pgm"), encoding="utf-8") as fh:
            verify.pgm_matches(fh.read(), s["alpha"].shape)
    elif name == "oracle":
        verify.oracle_report(stdout, *s["oracle"])


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_subprocess(argv: list[str], root: str) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "imvalign.cli", *argv], cwd=root, env=cli_env(root),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def import_seconds(root: str) -> float:
    """Wall time of a fresh interpreter that only imports imvalign.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import imvalign.cli"], cwd=root, env=cli_env(root),
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = imvalign.cli.main(argv)
    return code, buf.getvalue(), ""


def run_cli(sets: list[dict], seconds: float, stats: Stats, small: bool, root: str, traced: bool) -> None:
    """A round runs the seven commands on each of CLI_SETS_PER_ROUND input
    sets. Untraced, each command is a fresh `python -m imvalign.cli`. Traced,
    a fresh interpreter only imports the CLI, and the command runs in-process
    through the wrapped `cli.main`. After each command a fresh interpreter
    that imports only numpy times the host (:func:`reference.probe_seconds`)."""
    per_round = 1 if small else CLI_SETS_PER_ROUND
    stats.host = reference.HostClock(reference.NOMINAL_PROBE_S)

    def one_round(r):
        for k in range(per_round):
            run_set(sets[(r * per_round + k) % len(sets)])

    def run_set(s):
        for name, argv in cli_commands(s):
            stats.attempted += 1
            start = time.perf_counter()
            try:
                if traced:
                    imported = import_seconds(root)
                    stats.add("import_s", imported)
                    code, stdout, stderr = cli_in_process(argv)
                else:
                    code, stdout, stderr = cli_subprocess(argv, root)
            except Exception as exc:
                stats.fail(1, f"{name} raised {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            stats.op_s.append(elapsed)
            stats.busy_s += elapsed
            stats.host.add(reference.probe_seconds())
            try:
                if code != 0:
                    raise CheckFailed(f"exit code {code}: {stderr.strip()[-200:]}")
                check_cli_output(name, s, stdout)
            except (CheckFailed, OSError, ValueError) as exc:
                stats.fail(1, f"{name}: {exc}")

    run_rounds(one_round, seconds, small)
