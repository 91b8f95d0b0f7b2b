"""Tape-based reverse-mode differentiation over numpy arrays.

Every alignment operation in this package is written against the small set
of primitives below, so the same code runs on plain ``numpy`` arrays (fast
path, no bookkeeping) and on :class:`Value` objects recorded on a
:class:`Tape` (gradient path).  Gradients are validated against central
finite differences by :func:`gradcheck`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    "log",
    "tanh",
    "relu",
    "absolute",
    "asum",
    "amean",
    "cumsum",
    "concat",
    "take_rows",
    "reshape",
    "transpose",
    "matmul",
    "softmax",
    "gaussian_logits",
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


@dataclass
class _Node:
    name: str
    out: "Value"
    backward: Callable[[np.ndarray], None]


class Tape:
    """Append-only record of primitive operations.

    Nodes are appended at execution time, so the list is topologically
    ordered by construction; the backward pass walks it once in reverse.
    One tape serves one computation and is not shared across threads.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._variables: list[Value] = []
        # Sign snapshots of every relu/abs input, used by
        # gradcheck to detect kink crossings between perturbed evaluations.
        self.kink_signatures: list[np.ndarray] = []

    def variable(self, data) -> "Value":
        v = Value(np.asarray(data, dtype=np.float64), self)
        self._variables.append(v)
        return v

    def record(self, name: str, out_data: np.ndarray, backward) -> "Value":
        if not np.isfinite(out_data).all():
            raise NonFiniteError(name, len(self.nodes))
        out = Value(out_data, self)
        self.nodes.append(_Node(name, out, backward))
        return out

    def backward(self, root: "Value", seed=None) -> None:
        """Accumulate gradients of ``root`` into every upstream value.

        Each node is visited exactly once; values never touched by the
        chain rule keep ``grad=None``.
        """
        if root.tape is not self:
            raise ValueError("root value does not belong to this tape")
        for node in self.nodes:
            node.out.grad = None
        for v in self._variables:
            v.grad = None
        if seed is None:
            seed = np.ones_like(root.data)
        root.grad = np.asarray(seed, dtype=np.float64)
        for node in reversed(self.nodes):
            if node.out.grad is not None:
                node.backward(node.out.grad)


class Value:
    """A float64 array plus its position in a tape's computation graph."""

    __slots__ = ("data", "grad", "tape")

    # Make numpy defer mixed ndarray-Value arithmetic to the reflected
    # operators below instead of coercing Value into an object array.
    __array_ufunc__ = None

    def __init__(self, data: np.ndarray, tape: Tape):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.tape = tape

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Value({self.data!r})"

    # arithmetic ------------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    def __radd__(self, other):
        return _add(other, self)

    def __sub__(self, other):
        return _sub(self, other)

    def __rsub__(self, other):
        return _sub(other, self)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(other, self)

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __neg__(self):
        return _mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return _getitem(self, key)

    @property
    def T(self):
        return transpose(self)

    def reshape(self, shape):
        return reshape(self, shape)


def _accumulate(v, g: np.ndarray) -> None:
    if isinstance(v, Value):
        v.grad = g if v.grad is None else v.grad + g


def _tape_of(*args) -> Tape:
    tape = None
    for a in args:
        if isinstance(a, Value):
            if tape is None:
                tape = a.tape
            elif a.tape is not tape:
                raise ValueError("cannot combine values from different tapes")
    if tape is None:
        raise TypeError("expected at least one Value operand")
    return tape


def data(x) -> np.ndarray:
    """The float64 array behind ``x``: a Value's data, or ``x`` as an array."""
    if isinstance(x, Value):
        return x.data
    return np.asarray(x, dtype=np.float64)


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


def _add(a, b):
    if not isinstance(a, Value) and not isinstance(b, Value):
        return data(a) + data(b)
    tape = _tape_of(a, b)
    ad, bd = data(a), data(b)
    out = tape.record(
        "add",
        ad + bd,
        lambda g: (
            _accumulate(a, _unbroadcast(g, ad.shape)),
            _accumulate(b, _unbroadcast(g, bd.shape)),
        ),
    )
    return out


def _sub(a, b):
    if not isinstance(a, Value) and not isinstance(b, Value):
        return data(a) - data(b)
    tape = _tape_of(a, b)
    ad, bd = data(a), data(b)
    return tape.record(
        "sub",
        ad - bd,
        lambda g: (
            _accumulate(a, _unbroadcast(g, ad.shape)),
            _accumulate(b, _unbroadcast(-g, bd.shape)),
        ),
    )


def _mul(a, b):
    if not isinstance(a, Value) and not isinstance(b, Value):
        return data(a) * data(b)
    tape = _tape_of(a, b)
    ad, bd = data(a), data(b)
    return tape.record(
        "mul",
        ad * bd,
        lambda g: (
            _accumulate(a, _unbroadcast(g * bd, ad.shape)),
            _accumulate(b, _unbroadcast(g * ad, bd.shape)),
        ),
    )


def _div(a, b):
    if not isinstance(a, Value) and not isinstance(b, Value):
        return data(a) / data(b)
    tape = _tape_of(a, b)
    ad, bd = data(a), data(b)
    out_data = ad / bd
    return tape.record(
        "div",
        out_data,
        lambda g: (
            _accumulate(a, _unbroadcast(g / bd, ad.shape)),
            _accumulate(b, _unbroadcast(-g * out_data / bd, bd.shape)),
        ),
    )


# -- unary primitives ---------------------------------------------------


def exp(x):
    if not isinstance(x, Value):
        return np.exp(data(x))
    out_data = np.exp(x.data)
    return x.tape.record("exp", out_data, lambda g: _accumulate(x, g * out_data))


def log(x):
    if not isinstance(x, Value):
        return np.log(data(x))
    xd = x.data
    return x.tape.record("log", np.log(xd), lambda g: _accumulate(x, g / xd))


def tanh(x):
    if not isinstance(x, Value):
        return np.tanh(data(x))
    out_data = np.tanh(x.data)
    return x.tape.record(
        "tanh", out_data, lambda g: _accumulate(x, g * (1.0 - out_data * out_data))
    )


def relu(x):
    """max(x, 0); subgradient at exactly 0 is taken as 0."""
    if not isinstance(x, Value):
        return np.maximum(data(x), 0.0)
    mask = x.data > 0.0
    x.tape.kink_signatures.append(mask)
    return x.tape.record(
        "relu", np.where(mask, x.data, 0.0), lambda g: _accumulate(x, g * mask)
    )


def absolute(x):
    """|x|; subgradient at 0 is taken as 0 (sign convention)."""
    if not isinstance(x, Value):
        return np.abs(data(x))
    sign = np.sign(x.data)
    x.tape.kink_signatures.append(sign)
    return x.tape.record("abs", np.abs(x.data), lambda g: _accumulate(x, g * sign))


# -- reductions and structure -------------------------------------------


def asum(x, axis=None, keepdims: bool = False):
    if not isinstance(x, Value):
        return np.sum(data(x), axis=axis, keepdims=keepdims)
    xd = x.data
    out_data = np.sum(xd, axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, xd.shape).copy())

    return x.tape.record("sum", out_data, backward)


def amean(x):
    n = data(x).size
    return asum(x) / float(n)


def cumsum(x):
    """Prefix sums of a 1-D vector.

    The backward pass is the reversed cumulative sum of the incoming
    gradient, which is exact.
    """
    if not isinstance(x, Value):
        return np.cumsum(data(x))
    return x.tape.record(
        "cumsum",
        np.cumsum(x.data),
        lambda g: _accumulate(x, np.cumsum(g[::-1])[::-1]),
    )


def concat(parts: Sequence, axis: int = 0):
    datas = [data(p) for p in parts]
    if not any(isinstance(p, Value) for p in parts):
        return np.concatenate(datas, axis=axis)
    tape = _tape_of(*parts)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        for p, piece in zip(parts, np.split(g, offsets, axis=axis)):
            _accumulate(p, piece)

    return tape.record("concat", np.concatenate(datas, axis=axis), backward)


def take_rows(x, indices):
    """Row gather ``x[indices]`` (embedding lookup); indices are constants."""
    idx = np.asarray(indices, dtype=np.intp)
    if not isinstance(x, Value):
        return data(x)[idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        _accumulate(x, gx)

    return x.tape.record("take_rows", x.data[idx], backward)


def _getitem(x: Value, key):
    def backward(g):
        gx = np.zeros_like(x.data)
        gx[key] += g
        _accumulate(x, gx)

    return x.tape.record("getitem", x.data[key], backward)


def reshape(x, shape):
    if not isinstance(x, Value):
        return data(x).reshape(shape)
    orig = x.data.shape
    return x.tape.record(
        "reshape", x.data.reshape(shape), lambda g: _accumulate(x, g.reshape(orig))
    )


def transpose(x):
    if not isinstance(x, Value):
        return data(x).T
    return x.tape.record("transpose", x.data.T, lambda g: _accumulate(x, g.T))


def matmul(a, b):
    """Matrix product for operands of rank 1 or 2 (numpy ``@`` semantics)."""
    if not isinstance(a, Value) and not isinstance(b, Value):
        return data(a) @ data(b)
    tape = _tape_of(a, b)
    ad, bd = data(a), data(b)
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ValueError("matmul supports rank-1 and rank-2 operands only")
    out_data = ad @ bd

    def backward(g):
        if ad.ndim == 2 and bd.ndim == 2:
            _accumulate(a, g @ bd.T)
            _accumulate(b, ad.T @ g)
        elif ad.ndim == 2 and bd.ndim == 1:
            _accumulate(a, np.outer(g, bd))
            _accumulate(b, ad.T @ g)
        elif ad.ndim == 1 and bd.ndim == 2:
            _accumulate(a, bd @ g)
            _accumulate(b, np.outer(ad, g))
        else:
            _accumulate(a, g * bd)
            _accumulate(b, g * ad)

    return tape.record("matmul", out_data, backward)


def softmax(x, axis: int):
    """Stable softmax along ``axis``, recorded as one tape node.

    The per-slice max is subtracted as a constant before exponentiation;
    softmax is shift-invariant, so the gradient is unaffected while the
    exponentials stay bounded. The backward pass evaluates
    ``(g/s + sum(-g*y/s)) * z`` in the order an exp/sum/div chain of
    primitives would, so its gradients equal that chain's bit for bit.
    """
    xd = data(x)
    z = np.exp(xd - np.max(xd, axis=axis, keepdims=True))
    s = np.sum(z, axis=axis, keepdims=True)
    y = z / s
    if not isinstance(x, Value):
        return y

    def backward(g):
        _accumulate(x, (g / s + np.sum(-g * y / s, axis=axis, keepdims=True)) * z)

    return x.tape.record("softmax", y, backward)


def gaussian_logits(rows, cols, sigma2: float):
    """Gaussian kernel logits -(rows_i - cols_j)^2 / sigma2, one tape node.

    ``rows`` and ``cols`` are 1-D; the result has shape (len(rows),
    len(cols)). Either operand may be traced; the backward pass evaluates
    in the order a reshape/sub/mul/mul chain of primitives would, so its
    gradients equal that chain's bit for bit.
    """
    rd, cd = data(rows), data(cols)
    scale = -1.0 / sigma2
    diff = rd.reshape(-1, 1) - cd
    out_data = diff * diff * scale
    if not isinstance(rows, Value) and not isinstance(cols, Value):
        return out_data
    tape = _tape_of(rows, cols)

    def backward(g):
        half = g * scale * diff
        gd = half + half
        if isinstance(rows, Value):
            _accumulate(rows, np.sum(gd, axis=1))
        if isinstance(cols, Value):
            _accumulate(cols, np.sum(-gd, axis=0))

    return tape.record("gaussian_logits", out_data, backward)


# -- driver and gradient checking ---------------------------------------


def _as_output_list(out):
    return list(out) if isinstance(out, (tuple, list)) else [out]


def _scalar_objective(outputs):
    """Sum of all outputs, the scalar differentiated by forward_backward."""
    total = None
    for o in outputs:
        s = asum(o) if isinstance(o, Value) else float(np.sum(data(o)))
        total = s if total is None else total + s
    return total


def forward_backward(f, inputs: Sequence[np.ndarray]):
    """Run ``f`` on a fresh tape and return (outputs, gradients).

    Gradients are of the sum of all outputs with respect to each input,
    matching input shapes.  Raises :class:`NonFiniteError` if any traced
    intermediate is NaN or infinite.
    """
    tape = Tape()
    variables = [tape.variable(x) for x in inputs]
    raw_out = f(*variables)
    outputs = _as_output_list(raw_out)
    objective = _scalar_objective(outputs)
    if isinstance(objective, Value):
        tape.backward(objective, 1.0)
    out_data = [data(o) for o in outputs]
    grads = [
        v.grad if v.grad is not None else np.zeros_like(v.data) for v in variables
    ]
    if isinstance(raw_out, (tuple, list)):
        return out_data, grads
    return out_data[0], grads


@dataclass
class GradCheckReport:
    """Outcome of one central-difference gradient check."""

    op_name: str
    max_rel_error: float
    elementwise: list[np.ndarray]
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
    tape = Tape()
    variables = [tape.variable(x) for x in arrays]
    outputs = _as_output_list(f(*variables))
    objective = _scalar_objective(outputs)
    return float(data(objective)), tape.kink_signatures


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
    denominator.  Elements whose perturbation crosses a relu/abs
    kink (detected by comparing sign snapshots of the two evaluations)
    are excluded rather than failed.  Raises
    :class:`NonDeterministicError` if two evaluations at the base point
    disagree.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]

    base_value, base_sig = _traced_objective(f, arrays)
    repeat_value, repeat_sig = _traced_objective(f, arrays)
    if base_value != repeat_value or not _signatures_equal(base_sig, repeat_sig):
        raise NonDeterministicError(
            f"'{op_name}' returned different results on identical inputs"
        )

    _, analytic = forward_backward(f, arrays)

    elementwise = [np.zeros_like(x) for x in arrays]
    excluded: list[tuple[int, int]] = []
    max_rel = 0.0
    for k, x in enumerate(arrays):
        flat = x.reshape(-1)
        err_flat = elementwise[k].reshape(-1)
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
            err_flat[m] = rel
            max_rel = max(max_rel, rel)

    return GradCheckReport(
        op_name=op_name,
        max_rel_error=max_rel,
        elementwise=elementwise,
        passed=max_rel <= tol,
        tol=tol,
        h=h,
        excluded=excluded,
    )
