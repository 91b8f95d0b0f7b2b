"""Rate control: stretch the aligned positions, stretch the output.

After training, inference runs from predicted position increments alone:
cumulative-sum them into positions, infer the output length, rebuild the
alignment, decode. Multiplying the positions by a scalar changes the
speaking rate without touching content.
"""

import numpy as np

from imvalign import ToyTask, TrainConfig, infer, make_batch, train

task = ToyTask(seed=0)
cfg = TrainConfig(mode="HMA", steps=600)
print("training the hard-monotonic model (about 10s)...")
model, report = train(task, cfg)
print(f"final loss {report.final_loss:.3f}, best accuracy {report.best_accuracy:.2f}\n")

batch = make_batch(task, 0)
print(f"tokens: {batch.token_ids}, true length {batch.t2}")
for rate in (0.5, 0.8, 1.0, 1.2, 2.0):
    frames = infer(model, batch.token_ids, rate=rate, sigma2=cfg.sigma2)
    print(f"rate {rate:3.1f}: {frames.shape[0]:3d} frames")

base = infer(model, batch.token_ids, rate=1.0, sigma2=cfg.sigma2)
print("\nlength scales linearly with rate (up to rounding):")
for rate in (0.8, 1.2):
    scaled = infer(model, batch.token_ids, rate=rate, sigma2=cfg.sigma2)
    print(
        f"  rate {rate}: {scaled.shape[0]} frames "
        f"vs {rate} x {base.shape[0]} = {rate * base.shape[0]:.1f}"
    )
