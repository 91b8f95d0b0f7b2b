"""Named gradient checks for every differentiable alignment operation.

Each entry builds seeded random inputs and the operation on them;
:func:`run_check` contracts a matrix- or vector-valued output against
fixed random weights and runs the central-difference comparison from
:mod:`~imvalign.autodiff`.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .attention import scaled_dot_alignment
from .core import Imv, check_seed
from .monotonic import (
    DegenerateImvError,
    KernelConfig,
    SmaWeights,
    align_from_imv,
    hma_transform,
    sma_loss,
)
from .positions import AlignedPositions, align_from_positions, ap_loss, extract_positions

__all__ = ["CHECKABLE_OPS", "run_check"]

_T1 = 5
_T2 = 8
_KERNEL = KernelConfig(sigma2=0.4)


def _check_sma_loss(rng):
    pi = rng.normal(size=_T2) * 2.0
    return (lambda v: sma_loss(Imv(v, _T1), SmaWeights(0.7, 1.3, 0.9, 1.1))), [pi]


def _check_hma_transform(rng):
    pi = rng.normal(size=_T2) * 1.5
    while np.all(np.diff(pi) <= 0):
        pi = rng.normal(size=_T2) * 1.5
    return (lambda v: hma_transform(Imv(v, _T1)).pi), [pi]


def _imv_kernel_check(op):
    """Builder for ``op(imv, kernel)`` at an IMV drawn uniformly from
    [0, t1-1]."""

    def build(rng):
        return (lambda v: op(Imv(v, _T1), _KERNEL)), [rng.uniform(0, _T1 - 1, size=_T2)]

    return build


def _check_scaled_dot(rng):
    return scaled_dot_alignment, [rng.normal(size=(_T2, 4)), rng.normal(size=(_T1, 4))]


def _check_ap_loss(rng):
    pred = rng.uniform(0.05, 2.5, size=_T1)
    target = rng.uniform(0.05, 2.5, size=_T1)
    return ap_loss, [pred, target]


def _check_align_from_positions(rng):
    e = rng.uniform(0, _T2 - 1, size=_T1)
    return (lambda v: align_from_positions(AlignedPositions(v), _T2, _KERNEL)), [e]


def _check_toy_forward(rng):
    """Composed trainer forward pass differentiated w.r.t. all parameters.

    The increment-predictor targets are stop-gradient by design, so they
    are frozen at their base-point values; otherwise the finite-difference
    probe would measure a different function than the one the analytic
    gradient differentiates.
    """
    from .toy import ToyModel, ToyTask, TrainConfig, make_batch, sequence_forward

    while True:
        seed = int(rng.integers(1, 2**31))
        task = ToyTask(
            vocab=4,
            embed_dim=5,
            frame_dim=3,
            dmax=2,
            noise_sigma=0.05,
            t1_min=3,
            t1_max=3,
            seed=seed,
        )
        cfg = TrainConfig(mode="HMA", sigma2=0.4, seed=seed)
        batch = make_batch(task, 0)
        model = ToyModel(task, seed)
        # redraw if this instance starts in the degenerate reversed state
        try:
            base = sequence_forward(model.params, batch, cfg)
        except DegenerateImvError:
            continue
        break
    names = list(model.params)

    def f(*param_values):
        params = dict(zip(names, param_values))
        return sequence_forward(params, batch, cfg, ap_targets=base.ap_targets).loss

    return f, [model.params[name] for name in names]


CHECKABLE_OPS = {
    "sma_loss": _check_sma_loss,
    "hma_transform": _check_hma_transform,
    "align_from_imv": _imv_kernel_check(align_from_imv),
    "scaled_dot_alignment": _check_scaled_dot,
    "extract_positions": _imv_kernel_check(lambda imv, kernel: extract_positions(imv, kernel).e),
    "ap_loss": _check_ap_loss,
    "align_from_positions": _check_align_from_positions,
    "toy_forward": _check_toy_forward,
}


def run_check(name: str, seed: int = 0) -> ad.GradCheckReport:
    """Gradient-check one named operation on seeded random inputs.

    An array-valued output is contracted against random weights drawn
    after the inputs, so the checked scalar exercises every element (a
    plain sum of a normalized softmax has an identically zero gradient).
    """
    try:
        builder = CHECKABLE_OPS[name]
    except KeyError:
        raise ValueError(
            f"unknown op {name!r}; known: {', '.join(sorted(CHECKABLE_OPS))}"
        ) from None
    check_seed(seed)
    rng = np.random.default_rng(seed)
    op, inputs = builder(rng)
    shape = np.shape(ad.data(op(*inputs)))
    if shape:
        weights = rng.normal(size=shape)
        f = lambda *values: ad.asum(op(*values) * weights)
    else:
        f = op
    return ad.gradcheck(f, inputs, op_name=name)
