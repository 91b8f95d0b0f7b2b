"""Tape-based reverse-mode differentiation over numpy arrays.

Every alignment operation in this package is written against the small set
of primitives below, so the same code runs on plain ``numpy`` arrays and on
:class:`Value` objects recorded on a :class:`Tape`.  One dispatch rule
covers every primitive: it computes its forward once from ``data(x)`` and
hands the result to ``_record``, which returns it unchanged when no operand
is a :class:`Value` and records it on the operands' tape otherwise, so
both paths compute the same values.  Gradients are validated against
central finite differences by :func:`gradcheck`.

:func:`softmax` and :func:`gaussian_softmax` (the Gaussian kernel logits
and their softmax in one node) write every entry whose shifted logit is
below -746 as 0.0 without calling ``exp``: ``exp`` returns exactly 0.0
there, so the values are unchanged, and it is slow on such inputs.
:func:`gaussian_softmax` goes further at TTS lengths: when the operand
along the softmax axis is finite, sorted and long, it evaluates only the
band of entries that can be non-zero, about 2 sqrt(746 sigma2) rows per
column. Axis-0 values and the ``cols`` gradient stay bit for bit; the
other results sum in another order and agree to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "NonFiniteError",
    "NonDeterministicError",
    "Tape",
    "Value",
    "GradCheckReport",
    "forward_backward",
    "gradcheck",
    "exp",
    "tanh",
    "asum",
    "transpose",
    "matmul",
    "softmax",
    "gaussian_softmax",
    "monotone_rescale",
    "sma_penalty",
    "log_l1_distance",
    "mean_squared_error",
    "data",
]

class NonFiniteError(FloatingPointError):
    """A traced operation produced a NaN or infinity."""

    def __init__(self, op_name: str, node_index: int):
        super().__init__(
            f"non-finite value produced by op '{op_name}' at tape node {node_index}"
        )
        self.op_name = op_name
        self.node_index = node_index


class NonDeterministicError(RuntimeError):
    """The checked function returned different values on identical inputs."""


class Tape:
    """Append-only record of primitive operations.

    Each node is the :class:`Value` an operation returned. Nodes are
    appended at execution time, so the list is topologically ordered by
    construction; the backward pass walks it once in reverse. One tape
    serves one computation and is not shared across threads. Recording
    does not check values: a NaN or infinite output is recorded like any
    other, and :meth:`first_nonfinite` names the first one.

    A tape and its values form a reference cycle (tape -> value -> tape),
    so the graph outlives its last user until the cycle collector runs.
    :meth:`release` breaks the cycle once the gradients are read. The toy
    trainer releases each step's tape: freeing ~1,500-1,700 small objects
    per step by reference counting saves the full collections that would
    otherwise free them. :func:`forward_backward` does not release its tape
    (see there).
    """

    def __init__(self):
        self.nodes: list[Value] = []
        self._variables: list[Value] = []
        # Sign snapshots at the kinks of the fused ops (the HMA rectifier in
        # monotone_rescale, the absolute values of the SMA penalty and the
        # AP loss), used by gradcheck to detect kink crossings between
        # perturbed evaluations.
        self.kink_signatures: list[np.ndarray] = []

    def variable(self, data) -> "Value":
        v = Value(np.asarray(data, dtype=np.float64), self)
        self._variables.append(v)
        return v

    def record(self, name: str, out_data: np.ndarray, backward) -> "Value":
        out = Value(out_data, self, name, backward)
        self.nodes.append(out)
        return out

    def release(self) -> None:
        """Detach every value this tape recorded from it.

        The values keep their data and gradients, and the tape keeps its
        nodes and kink signatures, but nothing refers back to the tape, so
        reference counting frees the graph as soon as the caller drops it.
        A released value can no longer be traced: a primitive given one, or
        :meth:`backward` from one, raises ValueError.
        """
        for v in self._variables:
            v.tape = None
        for v in self.nodes:
            v.tape = None

    def first_nonfinite(self) -> "NonFiniteError | None":
        """The error naming the first recorded node whose output is NaN or
        infinite (where checking each output would have stopped), or None."""
        for index, v in enumerate(self.nodes):
            if not np.isfinite(v.data).all():
                return NonFiniteError(v.name, index)
        return None

    def backward(self, root: "Value") -> None:
        """Accumulate gradients of ``root`` into every upstream value.

        Each node is visited exactly once; values never touched by the
        chain rule keep ``grad=None``.
        """
        if root.tape is not self:
            raise ValueError("root value does not belong to this tape")
        for v in self.nodes:
            v.grad = None
        for v in self._variables:
            v.grad = None
        root.grad = np.ones_like(root.data)
        for v in reversed(self.nodes):
            if v.grad is not None:
                v.backward(v.grad)


class Value:
    """A float64 array plus its place in a tape's graph. A recorded value is
    its own tape node, holding its operation's ``name`` and ``backward``."""

    __slots__ = ("data", "grad", "tape", "name", "backward")

    # Make numpy defer mixed ndarray-Value arithmetic to the reflected
    # operators below instead of coercing Value into an object array.
    __array_ufunc__ = None

    def __init__(self, data: np.ndarray, tape: Tape, name: str | None = None, backward=None):
        self.data = data
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.name = name
        self.backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Value({self.data!r})"

    # arithmetic ------------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    def __radd__(self, other):
        return _add(other, self)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(other, self)

    def __getitem__(self, key):
        return _getitem(self, key)


def _accumulate(v, g: np.ndarray) -> None:
    if isinstance(v, Value):
        v.grad = g if v.grad is None else v.grad + g


def data(x) -> np.ndarray:
    """The float64 array behind ``x``: a Value's data, or ``x`` as an array."""
    if isinstance(x, Value):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _record(name: str, out, backward, *operands, kinks=()):
    """Hand a primitive's forward result to the operands' tape.

    Returns ``out`` unchanged when no operand is a :class:`Value`;
    otherwise records it on the one tape the traced operands share, with
    ``kinks`` appended to the tape's kink signatures first. Raises
    ValueError for operands on different or released tapes.
    """
    tape = None
    for x in operands:
        if isinstance(x, Value):
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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- binary elementwise primitives -------------------------------------


# A backward pass computes an operand's gradient only when the operand is a
# Value: an untraced operand's gradient would be thrown away, and computing
# it costs time and can overflow where the traced gradients do not.


def _add(a, b):
    ad, bd = data(a), data(b)

    def backward(g):
        if isinstance(a, Value):
            _accumulate(a, _unbroadcast(g, ad.shape))
        if isinstance(b, Value):
            _accumulate(b, _unbroadcast(g, bd.shape))

    return _record("add", ad + bd, backward, a, b)


def _mul(a, b):
    ad, bd = data(a), data(b)

    def backward(g):
        if isinstance(a, Value):
            _accumulate(a, _unbroadcast(g * bd, ad.shape))
        if isinstance(b, Value):
            _accumulate(b, _unbroadcast(g * ad, bd.shape))

    return _record("mul", ad * bd, backward, a, b)


# -- unary primitives ---------------------------------------------------


def exp(x):
    out_data = np.exp(data(x))
    return _record("exp", out_data, lambda g: _accumulate(x, g * out_data), x)


def tanh(x):
    out_data = np.tanh(data(x))
    return _record(
        "tanh", out_data, lambda g: _accumulate(x, g * (1.0 - out_data * out_data)), x
    )


# -- reductions and structure -------------------------------------------


def asum(x):
    """The sum of every entry of ``x``."""
    xd = data(x)
    return _record(
        "sum", xd.sum(), lambda g: _accumulate(x, np.broadcast_to(g, xd.shape).copy()), x
    )


def _getitem(x: Value, key):
    """``x[key]``, the one gather. ``np.add.at`` gives an element selected
    twice (a repeated token's embedding) both contributions."""

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)
        _accumulate(x, gx)

    return _record("getitem", x.data[key], backward, x)


def transpose(x):
    return _record("transpose", data(x).T, lambda g: _accumulate(x, g.T), x)


def matmul(a, b):
    """Matrix product for operands of rank 1 or 2 (numpy ``@`` semantics)."""
    ad, bd = data(a), data(b)
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ValueError("matmul supports rank-1 and rank-2 operands only")

    def backward(g):
        want_a, want_b = isinstance(a, Value), isinstance(b, Value)
        if ad.ndim == 2 and bd.ndim == 2:
            if want_a:
                _accumulate(a, g @ bd.T)
            if want_b:
                _accumulate(b, ad.T @ g)
            return
        # A vector is a one-row (left) or one-column (right) matrix. Over its
        # length-1 axis the product is elementwise, as in np.outer: matmul
        # would add each product to +0.0 and lose the sign of a zero.
        a2, b2 = (ad if ad.ndim == 2 else ad[None, :]), (bd if bd.ndim == 2 else bd[:, None])
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        if want_a:
            _accumulate(a, (g2 * b2.T if bd.ndim == 1 else g2 @ b2.T).reshape(ad.shape))
        if want_b:
            _accumulate(b, (a2.T * g2 if ad.ndim == 1 else a2.T @ g2).reshape(bd.shape))

    return _record("matmul", ad @ bd, backward, a, b)


# exp(x) is exactly 0.0 in float64 for every x below this (ln 2**-1075 is
# about -745.13), and numpy's exp takes a slow path on such inputs.
_EXP_UNDERFLOW = -746.0


def _masked_softmax(shifted: np.ndarray, axis: int):
    """Softmax along ``axis`` of logits shifted to a per-slice max of 0.

    Overwrites ``shifted`` with the exponentials and returns (y, z, s): the
    softmax, the exponentials and their per-slice sums. The mask is written
    so that a NaN is not masked and still propagates through ``exp``.
    """
    underflow = shifted < _EXP_UNDERFLOW
    np.exp(shifted, out=shifted, where=~underflow)
    np.copyto(shifted, 0.0, where=underflow)
    s = shifted.sum(axis=axis, keepdims=True)
    return shifted / s, shifted, s


def _softmax_grad(g, y, z, s, axis: int) -> np.ndarray:
    """Gradient of the logits for upstream ``g``, evaluated as
    ``(g/s + sum(-g*y/s)) * z`` in the order an exp/sum/div chain of
    primitives would, so it equals that chain's bit for bit.

    Works in place on fresh arrays laid out as the chain's would be: the
    layout decides the order of the sum, and of the sums the result feeds.
    ``y`` is laid out as ``z``, so ``-g * y`` is laid out as ``(...) * z``.
    """
    t = np.multiply(np.negative(g), y)
    t /= s
    out = g / s
    out += t.sum(axis=axis, keepdims=True)
    return np.multiply(out, z, out=t)


def softmax(x, axis: int):
    """Stable softmax along ``axis``, recorded as one tape node.

    The per-slice max is subtracted as a constant before exponentiation;
    softmax is shift-invariant, so the gradient is unaffected while the
    exponentials stay bounded. Values and gradients equal those of an
    exp/sum/div chain of primitives bit for bit.
    """
    xd = data(x)
    y, z, s = _masked_softmax(xd - xd.max(axis=axis, keepdims=True), axis)
    return _record("softmax", y, lambda g: _accumulate(x, _softmax_grad(g, y, z, s, axis)), x)


def _diff_grad(g, y, z, s, axis: int, scale: float, diff: np.ndarray) -> np.ndarray:
    """Gradient of the kernel's ``diff`` (rows - cols) for upstream ``g``:
    ``half + half`` with ``half = softmax gradient * scale * diff``, as the
    chain evaluates it. ``z`` and ``diff`` are C-contiguous, so the softmax
    gradient is too and every step can work in place."""
    gd = _softmax_grad(g, y, z, s, axis)
    gd *= scale
    gd *= diff
    gd += gd
    return gd


def _dense_gaussian(rd, cd, scale: float, axis: int):
    """The kernel over every (row, col) pair: its softmax, and the function
    mapping an upstream gradient to the (rows, cols) gradients, each None
    unless asked for."""
    diff = rd.reshape(-1, 1) - cd
    logits = diff * diff
    logits *= scale
    logits -= logits.max(axis=axis, keepdims=True)
    y, z, s = _masked_softmax(logits, axis)

    def grads(g, want_rows: bool, want_cols: bool):
        gd = _diff_grad(g, y, z, s, axis, scale, diff)
        g_rows = _unbroadcast(gd, (rd.size, 1)).reshape(rd.shape) if want_rows else None
        return g_rows, _unbroadcast(-gd, cd.shape) if want_cols else None

    return y, grads


# Fitted to the kernel calls of two align-long corpora (CHANGES.md): an entry
# of the band costs about 2.2 entries of the dense kernel, and finding and
# scattering the band about 11,000. With some margin, the band runs where it
# saves more than that.
_BAND_ENTRY_COST = 2.5
_BAND_FIXED_COST = 16_000


def _band_pays(n: int, m: int, width) -> bool:
    """Whether a band ``width`` rows wide beats the dense (n, m) kernel."""
    return (n - _BAND_ENTRY_COST * width) * m >= _BAND_FIXED_COST


def _banded_gaussian(rd, cd, sigma2: float, scale: float, axis: int):
    """:func:`_dense_gaussian` evaluated only where an entry can be non-zero,
    or None where the dense kernel must run.

    Call ``a`` the operand along ``axis`` and ``b`` the other. With ``a``
    sorted ascending, an entry is exactly 0 unless its shifted logit is at
    least -746, that is, unless |a_i - b_j| <= sqrt(dmin_j^2 + 746 sigma2),
    where dmin_j is the distance from b_j to the nearest a_i. So each b_j
    needs a window of about 2 sqrt(746 sigma2) / spacing of ``a``, and the
    kernel is evaluated on a block: the dense matrix with its ``axis`` cut to
    that window, starting at row ``lo_j`` of ``a``. On axis 0 the block's
    sums run row by row in the dense order. The band runs when ``a`` and
    ``b`` are finite, ``a`` is sorted, ``b`` has two entries or more and
    :func:`_band_pays`, which is decided from shapes and the ends of ``a``
    before any O(n) work.
    """
    a, b = (rd, cd) if axis == 0 else (cd, rd)
    n, m = a.size, b.size
    # (with a single b the dense axis-0 sums run pairwise, not row by row)
    if n * m < _BAND_FIXED_COST or m < 2 or a.ndim != 1 or b.ndim != 1:
        return None
    reach2 = -_EXP_UNDERFLOW * float(sigma2)
    span = float(a[-1] - a[0])
    # the window at the mean spacing of a, two rows of margin included
    if not (math.isfinite(span) and span > 0 and reach2 > 0
            and _band_pays(n, m, 2.0 * math.sqrt(reach2) * (n - 1) / span + 3)):
        return None
    if not ((a[1:] >= a[:-1]).all() and np.isfinite(b).all()):
        return None
    # the signed distance to the nearest a (beyond an end of a both
    # neighbours are that end, and the smaller difference is minus it)
    k = np.searchsorted(a, b)
    near = np.minimum(b - a.take(k - 1, mode="clip"), a.take(k, mode="clip") - b)
    dmin2 = near * near
    radius = np.sqrt(dmin2 + reach2)
    lo = np.searchsorted(a, b - radius)
    # one more row either side, to check the window's edges below
    width = int((np.searchsorted(a, b + radius, side="right") - lo).max()) + 2
    if not _band_pays(n, m, width):
        return None
    lo = np.minimum(np.maximum(lo - 1, 0), n - width)
    # (1, m) and (width, 1) blocks for axis 0, (m, 1) and (1, width) for axis 1
    across, along = ((1, m), (width, 1)) if axis == 0 else ((m, 1), (1, width))
    steps = np.arange(width).reshape(along)
    idx = lo.reshape(across) + steps
    # diff is rows - cols, as in the dense kernel
    diff = a.take(idx)
    if axis == 0:
        diff -= b.reshape(across)
    else:
        np.subtract(b.reshape(across), diff, out=diff)
    logits = diff * diff
    logits *= scale
    # each b's peak is at its nearest a, whose logit is dmin2 * scale
    dmin2 *= scale
    logits -= dmin2.reshape(across)
    y, z, s = _masked_softmax(logits, axis)
    # Rounding can move an entry across the window's edge. The logits fall
    # away from their peak along sorted a, so a zero exponential at both ends
    # of each window (where that is not the end of a) makes every entry
    # outside the band exactly 0, as in the dense kernel.
    ends = z if axis == 0 else z.T
    if ends[0, lo > 0].any() or ends[-1, lo < n - width].any():
        return None
    shape, a_step, b_step = ((n, m), m, 1) if axis == 0 else ((m, n), 1, n)
    starts = lo * a_step + np.arange(0, m * b_step, b_step)
    flat = starts.reshape(across) + steps * a_step
    out = np.zeros(shape)
    out.reshape(-1)[flat] = y

    def grads(g, want_rows: bool, want_cols: bool):
        if not np.isfinite(g.sum()):
            # a NaN or inf outside the band reaches the dense gradients
            return _dense_gaussian(rd, cd, scale, axis)[1](g, want_rows, want_cols)
        gd = _diff_grad(np.take(g, flat), y, z, s, axis, scale, diff)
        if axis == 1:
            g_cols = np.bincount(idx.ravel(), -gd.ravel(), n) if want_cols else None
            return gd.sum(axis=1) if want_rows else None, g_cols
        g_rows = np.bincount(idx.ravel(), gd.ravel(), n) if want_rows else None
        return g_rows, (-gd).sum(axis=0) if want_cols else None

    return out, grads


def gaussian_softmax(rows, cols, sigma2: float, axis: int):
    """Softmax along ``axis`` of the Gaussian kernel logits
    -(rows_i - cols_j)^2 / sigma2, recorded as one tape node.

    ``rows`` and ``cols`` are 1-D; the result has shape (len(rows),
    len(cols)). Either operand may be traced. Values and gradients equal
    those of a reshape/sub/mul/mul chain followed by :func:`softmax`, bit
    for bit, except where the band applies (:func:`_banded_gaussian`: the
    operand along ``axis`` finite, sorted and long enough to pay, the other
    finite). There axis-0 values and the ``cols`` gradient are still bit
    for bit. The ``rows`` gradient on axis 0, and everything on axis 1, sum
    in another order: each entry is within 1e-12 times the largest
    magnitude of its array (or 1, if larger) of the chain's. A NaN or inf
    input or upstream gradient gives the chain's result.
    """
    rd, cd = data(rows), data(cols)
    scale = -1.0 / sigma2
    y, grads = _banded_gaussian(rd, cd, sigma2, scale, axis) or _dense_gaussian(rd, cd, scale, axis)

    def backward(g):
        g_rows, g_cols = grads(g, isinstance(rows, Value), isinstance(cols, Value))
        _accumulate(rows, g_rows)
        _accumulate(cols, g_cols)

    return _record("gaussian_softmax", y, backward, rows, cols)


# The fused primitives below each replace a chain of primitives with one
# tape node. Forward and backward evaluate every operation of that chain in
# its order, so values, gradients and the kink signatures they append are
# the chain's bit for bit.


def _accumulate_steps(x: "Value", g_d: np.ndarray, ends=None) -> None:
    """Accumulate into 1-D ``x`` the gradient of its steps x[1:] - x[:-1]
    for upstream ``g_d``, after ``ends``, the gradients of x[-1] and x[0]
    if given, in one array.

    The chain accumulates up to four arrays, each a scattered value added
    to zeros: x[-1]'s, x[0]'s, then ``-g_d`` on x[:-1] and ``g_d`` on x[1:].
    Adding zeros only turns -0.0 into 0.0, and once no entry is -0.0 the
    sign of an added zero makes no difference. So starting from the
    existing gradient plus 0.0 (or zeros) and adding each part in the
    chain's order gives the chain's bits.
    """
    gx = np.zeros(x.data.shape) if x.grad is None else x.grad + 0.0
    if ends is not None:
        gx[-1] += ends[0]
        gx[0] += ends[1]
    gx[:-1] -= g_d
    gx[1:] += g_d
    x.grad = gx


def monotone_rescale(x, end: float, min_total: float):
    """Rectified prefix path of a 1-D ``x``, rescaled to finish at ``end``.

    Computes p = concat([0], cumsum(relu(x[1:] - x[:-1]))) and returns
    p * end / p[-1] (the getitem/sub/relu/cumsum/concat/mul/getitem/div
    chain). Raises ZeroDivisionError, before recording anything, when
    p[-1] <= ``min_total``.
    """
    xd = data(x)
    d = xd[1:] - xd[:-1]
    mask = d > 0.0
    path = np.concatenate([np.zeros(1), np.cumsum(np.maximum(d, 0.0))])
    total = path[-1]
    if total <= min_total:
        raise ZeroDivisionError(f"rectified path total {float(total):.3g} <= {min_total:g}")
    end_data = np.asarray(end, dtype=np.float64)
    out_data = path * end_data / total

    def backward(g):
        # The chain adds p[-1]'s gradient to zeros, which turns each -0.0
        # into 0.0. Only g_path[-1] needs that, and gets it from the sum
        # (numpy sums start from 0.0): the reversed cumsum below starts from
        # it, and a sum onto a value that is not -0.0 cannot tell zeros apart.
        g_path = g / total
        g_path *= end_data
        g_path[-1] += (-g * out_data / total).sum()
        _accumulate_steps(x, np.cumsum(g_path[1:][::-1])[::-1] * mask)

    return _record("monotone_rescale", out_data, backward, x, kinks=(mask,))


def sma_penalty(x, span: float, lambdas: Sequence[float], square: bool = True):
    """Soft monotonic penalty of a 1-D ``x`` with steps d = x[1:] - x[:-1]:

        l0 * sum(|d| - d) + l1 * sum(|d - 1| + (d - 1))
            + l2 * b(x[0] / span) + l3 * b(x[-1] / span - 1)

    with b(v) = v * v when ``square``, else |v|.
    """
    l0, l1, l2, l3 = (np.asarray(w, dtype=np.float64) for w in lambdas)
    xd = data(x)
    d = xd[1:] - xd[:-1]
    sign_d = np.sign(d)
    d1 = d - 1.0
    sign_d1 = np.sign(d1)
    span_data = np.asarray(span, dtype=np.float64)
    start = xd[0] / span_data
    end = xd[-1] / span_data - 1.0
    if square:
        start_pen, end_pen, kinks = start * start, end * end, (sign_d, sign_d1)
    else:
        sign_start, sign_end = np.sign(start), np.sign(end)
        start_pen, end_pen = np.abs(start), np.abs(end)
        kinks = (sign_d, sign_d1, sign_start, sign_end)
    out_data = (
        l0 * (np.abs(d) - d).sum()
        + l1 * (np.abs(d1) + d1).sum()
        + l2 * start_pen
        + l3 * end_pen
    )

    def backward(g):
        g_end = g * l3
        g_start = g * l2
        if square:
            g_end = g_end * end + g_end * end
            g_start = g_start * start + g_start * start
        else:
            g_end = g_end * sign_end
            g_start = g_start * sign_start
        g_over, g_back = g * l1, g * l0
        g_d = g_over + g_over * sign_d1 + -g_back + g_back * sign_d
        _accumulate_steps(x, g_d, (g_end / span_data, g_start / span_data))

    return _record("sma_penalty", out_data, backward, x, kinks=kinks)


def log_l1_distance(pred, target, eps: float):
    """sum(|log(pred + eps) - log(target + eps)|); either operand may be traced."""
    pred_shift = data(pred) + eps
    target_shift = data(target) + eps
    diff = np.log(pred_shift) - np.log(target_shift)
    sign = np.sign(diff)

    def backward(g):
        g_diff = g * sign
        if isinstance(target, Value):
            _accumulate(target, _unbroadcast(-g_diff / target_shift, target.shape))
        if isinstance(pred, Value):
            _accumulate(pred, _unbroadcast(g_diff / pred_shift, pred.shape))

    return _record(
        "log_l1_distance", np.abs(diff).sum(), backward, pred, target, kinks=(sign,)
    )


def mean_squared_error(a, b):
    """mean((a - b)^2); either operand may be traced."""
    ad, bd = data(a), data(b)
    err = ad - bd
    count = np.asarray(float(err.size))

    def backward(g):
        g_sq = g / count
        g_err = g_sq * err + g_sq * err
        if isinstance(a, Value):
            _accumulate(a, _unbroadcast(g_err, ad.shape))
        if isinstance(b, Value):
            _accumulate(b, _unbroadcast(-g_err, bd.shape))

    return _record("mean_squared_error", (err * err).sum() / count, backward, a, b)


# -- driver and gradient checking ---------------------------------------


def _trace(f, arrays):
    """Run ``f`` on a fresh tape, one variable per array.

    Returns (tape, variables, output, objective): ``output`` is what ``f``
    returned and ``objective`` is the sum of all its outputs, the scalar
    that :func:`forward_backward` differentiates. If ``f`` raises or the
    objective is not finite, raises the :meth:`Tape.first_nonfinite` error;
    when there is none, what ``f`` raised is raised again.
    """
    tape = Tape()
    variables = [tape.variable(x) for x in arrays]
    try:
        out = f(*variables)
        objective = None
        for o in out if isinstance(out, (tuple, list)) else [out]:
            objective = asum(o) if objective is None else objective + asum(o)
    except Exception as exc:
        error = tape.first_nonfinite() or exc
    else:
        error = None if np.isfinite(data(objective)).all() else tape.first_nonfinite()
    if error is not None:
        raise error
    return tape, variables, out, objective


def forward_backward(f, inputs: Sequence[np.ndarray]):
    """Run ``f`` on a fresh tape and return (outputs, gradients).

    Gradients are of the sum of all outputs with respect to each input,
    matching input shapes.  If ``f`` raises or the sum of the outputs is not
    finite, raises :class:`NonFiniteError` naming the first traced
    intermediate that is NaN or infinite, if any; one that leaves the sum
    finite is allowed.
    """
    # The tape is not released (Tape.release): its arrays are large at the
    # sizes this serves, and freeing them as the call returns hands the heap
    # back to the system, which the next call faults in again. Released here,
    # grad-long (seed 11, 2 vCPUs) ran a median 490 sequences/s, not 500.
    tape, variables, out, objective = _trace(f, inputs)
    if isinstance(objective, Value):
        tape.backward(objective)
    grads = [
        v.grad if v.grad is not None else np.zeros_like(v.data) for v in variables
    ]
    if isinstance(out, (tuple, list)):
        return [data(o) for o in out], grads
    return data(out), grads


@dataclass
class GradCheckReport:
    """Outcome of one central-difference gradient check."""

    op_name: str
    max_rel_error: float
    passed: bool
    tol: float
    h: float
    excluded: list[tuple[int, int]] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{self.op_name}: {status} "
            f"(max rel err {self.max_rel_error:.3e}, tol {self.tol:g})"
        )
        if self.excluded:
            line += f", {len(self.excluded)} point(s) excluded near kinks"
        return line


def _traced_objective(f, arrays):
    """The objective of ``f`` at ``arrays`` and the kink signatures of its
    evaluation. The tape is released: nothing differentiates it."""
    tape, _, _, objective = _trace(f, arrays)
    value = float(data(objective))
    tape.release()
    return value, tape.kink_signatures


def _signatures_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def gradcheck(
    f,
    inputs: Sequence[np.ndarray],
    h: float = 1e-5,
    tol: float = 1e-4,
    op_name: str = "f",
) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    The numeric estimate for an element is (f(x+h)-f(x-h))/2h on the
    sum-of-outputs scalar; relative error uses a max(|a|,|b|,1e-8)
    denominator.  Elements whose perturbation crosses a kink (the HMA
    rectifier, an absolute value of the SMA penalty or the AP loss;
    detected by comparing sign snapshots of the two evaluations) are
    excluded rather than failed.  A non-finite analytic gradient
    element fails the check.  Raises :class:`NonDeterministicError` if two
    evaluations at the base point disagree.
    """
    if not h > 0 or not tol >= 0:
        raise ValueError(f"need step h > 0 and tol >= 0, got h={h}, tol={tol}")
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]

    base_value, base_sig = _traced_objective(f, arrays)
    repeat_value, repeat_sig = _traced_objective(f, arrays)
    if base_value != repeat_value or not _signatures_equal(base_sig, repeat_sig):
        raise NonDeterministicError(
            f"'{op_name}' returned different results on identical inputs"
        )

    _, analytic = forward_backward(f, arrays)

    excluded: list[tuple[int, int]] = []
    # max() keeps a NaN first argument, so a NaN here is reported and fails
    max_rel = 0.0 if all(np.isfinite(g).all() for g in analytic) else np.nan
    for k, x in enumerate(arrays):
        flat = x.reshape(-1)
        ana_flat = analytic[k].reshape(-1)
        for m in range(flat.size):
            keep = flat[m]
            flat[m] = keep + h
            plus, plus_sig = _traced_objective(f, arrays)
            flat[m] = keep - h
            minus, minus_sig = _traced_objective(f, arrays)
            flat[m] = keep
            if not _signatures_equal(plus_sig, minus_sig):
                excluded.append((k, m))
                continue
            numeric = (plus - minus) / (2.0 * h)
            if abs(numeric) <= 1e-8 and abs(ana_flat[m]) <= 1e-8:
                # both below the noise floor: a zero gradient measured by
                # central differences is pure cancellation noise at this h
                continue
            denom = max(abs(numeric), abs(ana_flat[m]), 1e-8)
            rel = abs(numeric - ana_flat[m]) / denom
            max_rel = max(max_rel, rel)

    return GradCheckReport(
        op_name=op_name,
        max_rel_error=max_rel,
        passed=max_rel <= tol,
        tol=tol,
        h=h,
        excluded=excluded,
    )
