"""Every alignment operation is differentiable, and provably so.

The package carries a small tape-based reverse-mode engine; this script
differentiates a few operations end to end and validates the gradients
against central finite differences, kinks excluded.
"""

import numpy as np

from imvalign import (
    CHECKABLE_OPS, Imv, SmaWeights, forward_backward, gradcheck, hma_transform, run_check, sma_loss,
)
from imvalign import autodiff as ad

np.set_printoptions(precision=4, suppress=True)

# Differentiate the soft penalty with respect to the IMV itself.
pi = np.array([0.1, -0.4, 0.9, 1.2, 2.3])
value, grads = forward_backward(lambda v: sma_loss(Imv(v, 3), SmaWeights()), [pi])
print("penalty:", value)
print("d penalty / d pi:", grads[0])

# The gradient engine is a plain tape: record forward, walk it backwards.
tape = ad.Tape()
x = tape.variable(np.array([1.0, 2.0, 3.0]))
y = ad.asum(ad.exp(x) * 0.1)
tape.backward(y)
print("\nd sum(0.1*exp(x)) / dx:", x.grad, "(= 0.1*exp(x))")

# A tape records NaN and infinity like any other value; forward_backward,
# gradcheck and train raise the error naming the first such node.
tape = ad.Tape()
with np.errstate(over="ignore"):
    ad.exp(tape.variable(np.array([1.0, 1000.0]))) * 2.0
print("first non-finite node:", tape.first_nonfinite())

# Central-difference validation. The hard transform rectifies the IMV's
# steps, and its step of exactly zero is a kink: the two points whose
# perturbation crosses it are excluded, not failed, because no finite
# difference straddling a kink is meaningful.
v = np.array([0.0, 1.0, 1.0, 2.5, 3.0])
report = gradcheck(lambda x: hma_transform(Imv(x, 4)).pi, [v], op_name="hma_transform")
print("\n" + report.summary())

# The registry covers every differentiable operation in the package,
# including the fully composed toy forward pass.
print("\nfull suite at one seed:")
for name in CHECKABLE_OPS:
    print(" ", run_check(name, seed=0).summary())
