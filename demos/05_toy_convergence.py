"""No constraint vs soft penalty vs hard transform, head to head.

Trains the desk-scale seq2seq task once per strategy and prints the
convergence picture: the hard transform aligns fastest, the soft penalty
lags, and the unconstrained run never finds a diagonal alignment. Takes
roughly a minute; raise STEPS for a cleaner contrast.
"""

import numpy as np

from imvalign import ToyTask, TrainConfig, train

STEPS = 400

task = ToyTask(seed=0)
reports = {}
for mode in ("NM", "SMA", "HMA"):
    _, report = train(task, TrainConfig(mode=mode, steps=STEPS))
    reports[mode] = report
    print(
        f"{mode:3s}: loss {report.recon_loss[0]:.2f} -> {report.final_loss:.3f}, "
        f"best accuracy {report.best_accuracy:.2f}, "
        f"steps to 0.9 {report.steps_to_threshold}, "
        f"final diagonality {report.final_diagonality:.2f}"
    )

print("\naccuracy every 50 steps:")
header = "step  " + "  ".join(f"{m:>5s}" for m in reports)
print(header)
for step in range(0, STEPS, 50):
    row = f"{step:4d}  " + "  ".join(
        f"{reports[m].accuracy[step]:5.2f}" for m in reports
    )
    print(row)

print("\ndiagonality every 50 steps:")
print(header)
for step in range(0, STEPS, 50):
    row = f"{step:4d}  " + "  ".join(
        f"{reports[m].diagonality[step]:5.2f}" for m in reports
    )
    print(row)
