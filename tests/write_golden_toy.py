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
first ``tolerance["steps"]`` steps within the file's ``tolerance``. Rewrite
the file only for a change that moves the numbers on purpose, and report
the largest deviation from the old file with it.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from imvalign import toy

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


def config(mode: str) -> toy.TrainConfig:
    return toy.TrainConfig(mode=mode, steps=STEPS, pool_size=32, batch_size=8, optimizer="adam",
                           lr=1e-2, sigma2=0.25, seed=1, accuracy_threshold=0.9)


def environment() -> dict:
    """numpy version, BLAS name and version, and the machine architecture."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


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
        "traces": {name: " ".join(float(x).hex() for x in getattr(report, name)) for name in TRACES},
        "params_sha256": params_sha256(model.params),
        "nodes_per_step": " ".join(str(len(tape.nodes)) for tape in tapes),
    }


def main() -> None:
    doc = {
        "environment": environment(),
        "tolerance": TOLERANCE,
        "modes": {mode: record(*run(mode)) for mode in MODES},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
