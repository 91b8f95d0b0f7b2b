"""Reference tapes and primitives that the engine is tested against.

:class:`CheckingTape` is the per-node-checking tape of the finiteness rule.
The primitives below are the chains the fused ops replace; the library no
longer calls them. They dispatch like the library's own primitives, through
the public :meth:`Tape.record`, so a fused op can be compared with its
chain bit for bit, kink signatures included.
"""

from typing import Sequence

import numpy as np

from imvalign import autodiff as ad


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
            elif x.tape is not tape:
                raise ValueError("cannot combine values from different tapes")
    if tape is None:
        return out
    tape.kink_signatures.extend(kinks)
    return tape.record(name, out, backward)


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


def amean(x):
    n = ad.data(x).size
    return ad.asum(x) / float(n)


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


def softmax_chain(x, axis):
    """Stable softmax as the exp/sum/div chain that :func:`ad.softmax` fuses."""
    m = np.max(ad.data(x), axis=axis, keepdims=True)
    z = ad.exp(x - m)
    return z / ad.asum(z, axis=axis, keepdims=True)


def gaussian_softmax_chain(rows, cols, sigma2, axis):
    """The dense reshape/sub/mul/mul chain and softmax that
    :func:`ad.gaussian_softmax` fuses."""
    diff = reshape(rows, (-1, 1)) - cols
    return softmax_chain(diff * diff * (-1.0 / sigma2), axis)
