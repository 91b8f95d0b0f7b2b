"""Named gradient checks for every differentiable alignment operation.

Each entry builds random-but-seeded inputs and a scalar wrapper around one
operation, then runs the central-difference comparison from
:mod:`~imvalign.autodiff`. Matrix- and vector-valued operations are
contracted against fixed random weights so the scalar objective exercises
every output element (a plain sum of a normalized softmax has an
identically zero gradient and would check nothing).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .attention import scaled_dot_alignment
from .core import Imv
from .monotonic import (
    DegenerateImvError,
    KernelConfig,
    SmaWeights,
    align_from_imv,
    hma_transform,
    sma_loss,
)
from .positions import AlignedPositions, ApLossConfig, align_from_positions, ap_loss, density_matrix, extract_positions
from .toy import ToyModel, ToyTask, TrainConfig, make_batch, sequence_forward

__all__ = ["CHECKABLE_OPS", "run_check"]

_T1 = 5
_T2 = 8


def _weighted(op, rng, *shapes):
    """Wrap an array-valued op with a fixed random contraction."""
    weights = [rng.normal(size=s) for s in shapes]

    def f(*inputs):
        outs = op(*inputs)
        if not isinstance(outs, (tuple, list)):
            outs = (outs,)
        total = None
        for w, o in zip(weights, outs):
            term = ad.asum(o * w)
            total = term if total is None else total + term
        return total

    return f


def _check_sma_loss(rng):
    pi = rng.normal(size=_T2) * 2.0
    f = lambda v: sma_loss(Imv(v, _T1), SmaWeights(0.7, 1.3, 0.9, 1.1))
    return f, [pi]


def _check_hma_transform(rng):
    pi = rng.normal(size=_T2) * 1.5
    while np.all(np.diff(pi) <= 0):
        pi = rng.normal(size=_T2) * 1.5
    f = _weighted(lambda v: hma_transform(Imv(v, _T1)).pi, rng, (_T2,))
    return f, [pi]


def _check_align_from_imv(rng):
    pi = rng.uniform(0, _T1 - 1, size=_T2)
    f = _weighted(
        lambda v: align_from_imv(Imv(v, _T1), KernelConfig(sigma2=0.4)),
        rng,
        (_T1, _T2),
    )
    return f, [pi]


def _check_scaled_dot(rng):
    queries = rng.normal(size=(_T2, 4))
    keys = rng.normal(size=(_T1, 4))
    f = _weighted(scaled_dot_alignment, rng, (_T1, _T2))
    return f, [queries, keys]


def _check_density_matrix(rng):
    pi = rng.uniform(0, _T1 - 1, size=_T2)
    f = _weighted(
        lambda v: density_matrix(Imv(v, _T1), KernelConfig(sigma2=0.4)),
        rng,
        (_T1, _T2),
    )
    return f, [pi]


def _check_extract_positions(rng):
    pi = rng.uniform(0, _T1 - 1, size=_T2)
    f = _weighted(
        lambda v: extract_positions(Imv(v, _T1), KernelConfig(sigma2=0.4)).e,
        rng,
        (_T1,),
    )
    return f, [pi]


def _check_ap_loss(rng):
    pred = rng.uniform(0.05, 2.5, size=_T1)
    target = rng.uniform(0.05, 2.5, size=_T1)
    f = lambda p, t: ap_loss(p, t, ApLossConfig(epsilon=1e-6))
    return f, [pred, target]


def _check_align_from_positions(rng):
    e = rng.uniform(0, _T2 - 1, size=_T1)
    f = _weighted(
        lambda v: align_from_positions(AlignedPositions(v), _T2, KernelConfig(sigma2=0.4)),
        rng,
        (_T1, _T2),
    )
    return f, [e]


def _check_toy_forward(rng):
    """Composed trainer forward pass differentiated w.r.t. all parameters.

    The increment-predictor targets are stop-gradient by design, so they
    are frozen at their base-point values; otherwise the finite-difference
    probe would measure a different function than the one the analytic
    gradient differentiates.
    """
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
        kernel = KernelConfig(sigma2=cfg.sigma2)
        # base-point targets, identical to what the trainer would detach;
        # redraw if this instance starts in the degenerate reversed state
        try:
            base = sequence_forward(model.params, batch, cfg, kernel)
        except DegenerateImvError:
            continue
        break
    frozen_targets = np.maximum(base.positions.deltas, 0.0)
    names = list(model.params)

    def f(*param_values):
        params = dict(zip(names, param_values))
        out = sequence_forward(params, batch, cfg, kernel, ap_targets=frozen_targets)
        return out.recon + cfg.ap_weight * out.ap

    return f, [model.params[name] for name in names]


CHECKABLE_OPS = {
    "sma_loss": _check_sma_loss,
    "hma_transform": _check_hma_transform,
    "align_from_imv": _check_align_from_imv,
    "scaled_dot_alignment": _check_scaled_dot,
    "density_matrix": _check_density_matrix,
    "extract_positions": _check_extract_positions,
    "ap_loss": _check_ap_loss,
    "align_from_positions": _check_align_from_positions,
    "toy_forward": _check_toy_forward,
}


def run_check(
    name: str, seed: int = 0, h: float = 1e-5, tol: float = 1e-4
) -> ad.GradCheckReport:
    """Gradient-check one named operation on seeded random inputs."""
    try:
        builder = CHECKABLE_OPS[name]
    except KeyError:
        raise KeyError(
            f"unknown op {name!r}; known: {', '.join(sorted(CHECKABLE_OPS))}"
        ) from None
    f, inputs = builder(np.random.default_rng(seed))
    return ad.gradcheck(f, inputs, h=h, tol=tol, op_name=name)
