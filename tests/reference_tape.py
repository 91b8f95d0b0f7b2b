"""Reference tapes and primitives that the engine is tested against.

:class:`CheckingTape` is the per-node-checking tape of the finiteness rule.
The primitives below (``sub``, ``div``, ``log``, ``relu``, ``absolute``,
``cumsum``, ``concat``, ``reshape``, ``amean``) are the ops of the chains the
fused ops replace, and the earlier forms of ``asum`` (along an axis) and of
``matmul``'s backward; the library no longer calls them. They dispatch like
the library's own primitives, through the public :meth:`Tape.record`, so a
fused op can be compared with its chain bit for bit, kink signatures
included. A chain spells ``a - b`` and ``a / b`` as ``sub(a, b)`` and
``div(a, b)``: a :class:`~imvalign.autodiff.Value` has only the ``+``, ``*``
and ``x[key]`` operators the library applies. :func:`density_matrix` is
the aligned positions' reference. The streaming functions at the end are
the plain forms of :mod:`imvalign.monotonic`'s streaming clamp, step and
run, which the library's must match bit for bit. :class:`Adam` is the toy
trainer's optimizer as it was before the parameters shared one flat
vector: one update per parameter array.
"""

from typing import Sequence

import numpy as np

from imvalign import autodiff as ad
from imvalign.core import COLUMN_SUM_TOL, AlignmentError, Imv, compute_imv, index_vector
from imvalign.monotonic import KernelConfig, StreamingHmaState, align_from_imv


class CheckingTape(ad.Tape):
    """A tape that raises :class:`NonFiniteError` at the first NaN or
    infinite output, before recording it."""

    def record(self, name, out_data, backward):
        if not np.isfinite(out_data).all():
            raise ad.NonFiniteError(name, len(self.nodes))
        return super().record(name, out_data, backward)


def _accumulate(v, g: np.ndarray) -> None:
    if isinstance(v, ad.Value):
        v.grad = g if v.grad is None else v.grad + g


def _record(name: str, out, backward, *operands, kinks=()):
    """``out`` unchanged when no operand is traced; otherwise recorded on
    the operands' one tape, with ``kinks`` appended to its kink signatures."""
    tape = None
    for x in operands:
        if isinstance(x, ad.Value):
            if tape is None:
                tape = x.tape
                if tape is None:
                    raise ValueError("value belongs to a released tape")
            elif x.tape is not tape:
                raise ValueError("cannot combine values from different tapes")
    if tape is None:
        return out
    tape.kink_signatures.extend(kinks)
    return tape.record(name, out, backward)


def sub(a, b):
    a_data, b_data = ad.data(a), ad.data(b)

    def backward(g):
        if isinstance(a, ad.Value):
            _accumulate(a, ad._unbroadcast(g, a_data.shape))
        if isinstance(b, ad.Value):
            _accumulate(b, ad._unbroadcast(-g, b_data.shape))

    return _record("sub", a_data - b_data, backward, a, b)


def div(a, b):
    a_data, b_data = ad.data(a), ad.data(b)
    out_data = a_data / b_data

    def backward(g):
        if isinstance(a, ad.Value):
            _accumulate(a, ad._unbroadcast(g / b_data, a_data.shape))
        if isinstance(b, ad.Value):
            _accumulate(b, ad._unbroadcast(-g * out_data / b_data, b_data.shape))

    return _record("div", out_data, backward, a, b)


def log(x):
    xd = ad.data(x)
    return _record("log", np.log(xd), lambda g: _accumulate(x, g / xd), x)


def relu(x):
    """max(x, 0); subgradient at exactly 0 is taken as 0."""
    xd = ad.data(x)
    mask = xd > 0.0
    return _record(
        "relu", np.maximum(xd, 0.0), lambda g: _accumulate(x, g * mask), x, kinks=(mask,)
    )


def absolute(x):
    """|x|; subgradient at 0 is taken as 0 (sign convention)."""
    xd = ad.data(x)
    sign = np.sign(xd)
    return _record("abs", np.abs(xd), lambda g: _accumulate(x, g * sign), x, kinks=(sign,))


def asum(x, axis=None, keepdims: bool = False):
    """Sum along ``axis``, or of every entry when it is None (:func:`ad.asum`)."""
    xd = ad.data(x)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, xd.shape).copy())

    return _record("sum", np.sum(xd, axis=axis, keepdims=keepdims), backward, x)


def matmul(a, b):
    """:func:`ad.matmul` with its backward written as one branch per pair of
    operand ranks."""
    a_data, b_data = ad.data(a), ad.data(b)

    def backward(g):
        if a_data.ndim == 2 and b_data.ndim == 2:
            _accumulate(a, g @ b_data.T)
            _accumulate(b, a_data.T @ g)
        elif a_data.ndim == 2 and b_data.ndim == 1:
            _accumulate(a, np.outer(g, b_data))
            _accumulate(b, a_data.T @ g)
        elif a_data.ndim == 1 and b_data.ndim == 2:
            _accumulate(a, b_data @ g)
            _accumulate(b, np.outer(a_data, g))
        else:
            _accumulate(a, g * b_data)
            _accumulate(b, g * a_data)

    return _record("matmul", a_data @ b_data, backward, a, b)


def amean(x):
    n = ad.data(x).size
    return div(ad.asum(x), float(n))


def cumsum(x):
    """Prefix sums of a 1-D vector.

    The backward pass is the reversed cumulative sum of the incoming
    gradient, which is exact.
    """
    return _record(
        "cumsum",
        np.cumsum(ad.data(x)),
        lambda g: _accumulate(x, np.cumsum(g[::-1])[::-1]),
        x,
    )


def concat(parts: Sequence, axis: int = 0):
    datas = [ad.data(p) for p in parts]

    def backward(g):
        offsets = np.cumsum([d.shape[axis] for d in datas])[:-1]
        for p, piece in zip(parts, np.split(g, offsets, axis=axis)):
            _accumulate(p, piece)

    return _record("concat", np.concatenate(datas, axis=axis), backward, *parts)


def reshape(x, shape):
    xd = ad.data(x)
    return _record(
        "reshape", xd.reshape(shape), lambda g: _accumulate(x, g.reshape(xd.shape)), x
    )


def softmax_chain(x, axis, cutoff=None):
    """Stable softmax as the exp/sum/div chain that :func:`ad.softmax` fuses.

    With a ``cutoff``, the exponential of every shifted logit below it is
    multiplied by 0.0 (a NaN logit is not below it and stays NaN)."""
    m = np.max(ad.data(x), axis=axis, keepdims=True)
    shifted = sub(x, m)
    z = ad.exp(shifted)
    if cutoff is not None:
        z = z * np.where(ad.data(shifted) < cutoff, 0.0, 1.0)
    return div(z, asum(z, axis=axis, keepdims=True))


def gaussian_softmax_chain(rows, cols, sigma2, axis, cutoff=None):
    """The dense reshape/sub/mul/mul chain and softmax that
    :func:`ad.gaussian_softmax` fuses; ``cutoff`` as in :func:`softmax_chain`."""
    diff = sub(reshape(rows, (-1, 1)), cols)
    return softmax_chain(diff * diff * (-1.0 / sigma2), axis, cutoff)


def density_matrix(imv: Imv, kernel: KernelConfig = KernelConfig()):
    """The row-normalised Gaussian density (t1, t2) of an IMV, how much of
    token i's alignment mass falls on output step j: the dense
    :func:`gaussian_softmax_chain` along axis 1 over the token grid, whose
    means :func:`imvalign.positions.extract_positions` returns. Refuses
    nothing: a token too far from every IMV position gets a NaN row."""
    return gaussian_softmax_chain(index_vector(imv.t1), imv.pi, kernel.sigma2, 1)


def _advance(pos: float, raw: float) -> float:
    """The streaming clamp: move from ``pos`` toward the raw attended
    position ``raw`` by at least 0 and at most 1."""
    return pos + min(max(raw - pos, 0.0), 1.0)


def streaming_hma_step(
    state: StreamingHmaState,
    alpha_col: np.ndarray,
    kernel: KernelConfig = KernelConfig(),
    cutoff=None,
) -> tuple[StreamingHmaState, np.ndarray]:
    """One streaming step: the clamped advance and a dense one-column
    Gaussian kernel at the new position; ``cutoff`` as in
    :func:`softmax_chain`."""
    col = np.asarray(alpha_col, dtype=np.float64)
    if col.ndim != 1 or col.shape[0] != state.t1:
        raise AlignmentError(f"expected a length-{state.t1} column, got {col.shape}")
    total = col.sum()
    # written so that a NaN sum fails too
    if not abs(total - 1.0) <= COLUMN_SUM_TOL:
        raise AlignmentError(f"column sums to {total:.6g}, expected 1")
    p = index_vector(state.t1)
    new_pi = _advance(state.pi, float(col @ p))
    logits = -((new_pi - p) ** 2) / kernel.sigma2
    logits -= logits.max()
    weights = np.exp(logits)
    if cutoff is not None:
        weights = weights * np.where(logits < cutoff, 0.0, 1.0)
    return StreamingHmaState(state.t1, new_pi), weights / weights.sum()


def streaming_hma_run(
    alpha, kernel: KernelConfig = KernelConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """The clamp recurrence as an indexed loop over the raw positions, then
    one kernel evaluation over the whole path."""
    raw = compute_imv(alpha)
    pi_path = np.empty(raw.t2)
    pos = 0.0
    for j, target in enumerate(raw.values.tolist()):
        pos = pi_path[j] = _advance(pos, target)
    return pi_path, align_from_imv(Imv(pi_path, raw.t1), kernel)


class Adam:
    """Adam with per-parameter moments, one parameter array at a time."""

    def __init__(self, lr):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        for name, g in grads.items():
            m = self.m.setdefault(name, np.zeros_like(g))
            v = self.v.setdefault(name, np.zeros_like(g))
            m += (1 - 0.9) * (g - m)
            v += (1 - 0.999) * (g * g - v)
            m_hat = m / (1 - 0.9**self.t)
            v_hat = v / (1 - 0.999**self.t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)
