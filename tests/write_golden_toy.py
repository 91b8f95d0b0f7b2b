"""Write ``golden_toy.json``, the reference that toy training stays bit for bit.

Run from the repository root:

    PYTHONPATH=src python3 tests/write_golden_toy.py

It trains HMA, SMA and NM for 420 steps each at the benchmark toy config
(about 3.5 s in all) and records:

- every per-step trace of each mode, as ``float.hex`` strings;
- a SHA-256 of each mode's final parameters;
- the number of tape nodes each step recorded;
- the numpy version and the BLAS the numbers were made with.

``test_golden_toy.py`` trains again and compares bit for bit when numpy and
the BLAS match the recorded ones. Otherwise it compares the traces of the
first ``tolerance["steps"]`` steps within the file's ``tolerance``.

It also makes the acceptance suite's criterion-7 runs (the 15 runs of 1200
steps, about a minute) and criterion-4 gradient checks, and records each
run's ``steps_to_threshold`` and each check's ``max_rel_error``. Criteria 7
and 4 compare their own results with these, bit for bit, on the recorded
environment only.

Rewrite the file only for a change that moves the numbers on purpose, and
report the largest deviation from the old file with it.

To find where a change leaves the file without rewriting it:

    PYTHONPATH=src python3 tests/write_golden_toy.py --check

trains the three 420-step runs again (about 4 s) and prints, per mode, the
first step at which a trace differs from the file (with the traces that
differ there, as recorded and as run), whether the final parameters hash the
same, and the first step whose node count differs. It exits 1 when anything
differs, and never writes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import warnings
from pathlib import Path

import numpy as np

from imvalign import toy
from imvalign.checks import CHECKABLE_OPS, run_check

GOLDEN = Path(__file__).with_name("golden_toy.json")

# the benchmark toy config: the acceptance run, cut to 420 steps
TASK = toy.ToyTask(seed=0)
STEPS = 420
MODES = ("HMA", "SMA", "NM")
TRACES = ("recon_loss", "ap_loss", "sma_loss", "total_loss", "accuracy", "diagonality")

# Where numpy or the BLAS differ from the recorded ones, a matmul may round
# differently, and training is chaotic. Scaling every initial weight matrix
# by (1 + 2**-52) moves some trace by more than 1e-9 relative from step 21
# (NM), 28 (HMA) or 60 (SMA) on; one ulp more in a single initial weight
# leaves HMA short of accuracy 0.9 after 420 steps (it reaches 0.9 at step
# 345 as recorded). Such a run can only be held to its first steps.
TOLERANCE = {"steps": 16, "rtol": 1e-9, "atol": 1e-12}

# the acceptance suite's criterion-7 training seeds (each run is the full
# TrainConfig default, i.e. 1200 steps) and criterion-4 gradient-check seeds
CRITERION7_SEEDS = (1, 2, 3, 4, 5)
CRITERION4_SEEDS = range(10)


def config(mode: str) -> toy.TrainConfig:
    return toy.TrainConfig(mode=mode, steps=STEPS)


def environment() -> dict:
    """numpy version, BLAS name and version, and the machine architecture."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def on_recorded_environment(recorded: dict, instead: str) -> bool:
    """Whether numpy, the BLAS and the machine are the recorded ones. If not,
    warns with ``instead``: what the caller does in place of comparing bit
    for bit."""
    if recorded["environment"] == environment():
        return True
    warnings.warn(f"{environment()} is not the recorded {recorded['environment']}: {instead}")
    return False


def hexes(values) -> str:
    return " ".join(float(x).hex() for x in values)


def params_sha256(params: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name]).tobytes())
    return digest.hexdigest()


def run(mode: str) -> tuple[toy.ToyModel, toy.TrainReport, list]:
    """Train one mode; also returns the tape of every step, in order (the
    trainer asks the model for its tape variables once per step)."""
    tapes = []
    variables = toy.ToyModel.variables

    def spy(model, tape):
        tapes.append(tape)
        return variables(model, tape)

    toy.ToyModel.variables = spy
    try:
        model, report = toy.train(TASK, config(mode))
    finally:
        toy.ToyModel.variables = variables
    return model, report, tapes


def record(model: toy.ToyModel, report: toy.TrainReport, tapes: list) -> dict:
    """One mode's entry of the golden file, from the outputs of :func:`run`."""
    return {
        "traces": {name: hexes(getattr(report, name)) for name in TRACES},
        "params_sha256": params_sha256(model.params),
        "nodes_per_step": " ".join(str(len(tape.nodes)) for tape in tapes),
    }


def first_difference(got: str, want: str):
    """Index of the first differing entry of two space-separated lists (the
    shorter length when one is a prefix of the other), or None."""
    a, b = got.split(), want.split()
    for k, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return k
    return None if len(a) == len(b) else min(len(a), len(b))


def _entry(trace: str, step: int) -> str:
    """A trace's entry at ``step`` as hex and decimal, or "(none)" past its end."""
    entries = trace.split()
    return f"{entries[step]} ({float.fromhex(entries[step])!r})" if step < len(entries) else "(none)"


def compare(mode: str, got: dict, want: dict) -> list[str]:
    """What :func:`check` prints for one mode: the first step where its
    traces leave the file, the parameter hash and the node counts."""
    steps = {name: first_difference(got["traces"][name], want["traces"][name]) for name in TRACES}
    differing = [k for k in steps.values() if k is not None]
    if not differing:
        lines = [f"{mode}: traces match ({STEPS} steps)"]
    else:
        step = min(differing)
        lines = [f"{mode}: traces leave the file at step {step}"]
        for name in TRACES:
            if steps[name] == step:
                run_value, recorded_value = (_entry(trace[name], step) for trace in (got["traces"], want["traces"]))
                lines.append(f"  {name}: recorded {recorded_value}, run {run_value}")
    same_hash = got["params_sha256"] == want["params_sha256"]
    lines.append(f"  params_sha256 {'matches' if same_hash else 'differs'}")
    node_step = first_difference(got["nodes_per_step"], want["nodes_per_step"])
    lines.append("  nodes_per_step " + ("match" if node_step is None else f"differ from step {node_step}"))
    return lines


def check() -> bool:
    """Train every mode and print where each leaves the file; True when all
    three match it bit for bit."""
    recorded = load()
    if recorded["environment"] != environment():
        print(f"note: {environment()} is not the recorded {recorded['environment']}")
    same = True
    for mode in MODES:
        want = recorded["modes"][mode]
        got = record(*run(mode))
        same &= got == want
        print("\n".join(compare(mode, got, want)))
    return same


def main() -> None:
    doc = {
        "environment": environment(),
        "tolerance": TOLERANCE,
        "modes": {mode: record(*run(mode)) for mode in MODES},
        "criterion7_steps_to_threshold": {
            mode: [toy.train(TASK, toy.TrainConfig(mode=mode, seed=seed))[1].steps_to_threshold
                   for seed in CRITERION7_SEEDS]
            for mode in MODES
        },
        "criterion4_max_rel_error": {
            name: hexes(run_check(name, seed=seed).max_rel_error for seed in CRITERION4_SEEDS)
            for name in CHECKABLE_OPS
        },
    }
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write or check golden_toy.json.")
    parser.add_argument("--check", action="store_true",
                        help="compare fresh 420-step runs with the file and print where they leave it; write nothing")
    if parser.parse_args().check:
        raise SystemExit(0 if check() else 1)
    main()
