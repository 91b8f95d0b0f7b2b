import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imvalign import autodiff as ad
from imvalign.checks import CHECKABLE_OPS, run_check
from imvalign.core import Imv
from imvalign.monotonic import hma_transform
import reference_tape as ref
from reference_tape import CheckingTape


def test_identity_forward_backward():
    out, grads = ad.forward_backward(lambda x: x, [np.array([[3.0]])])
    assert np.array_equal(out, np.array([[3.0]]))
    assert np.array_equal(grads[0], np.array([[1.0]]))


def test_softmax_sum_has_zero_gradient():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    _, grads = ad.forward_backward(lambda v: ad.asum(ad.softmax(v, axis=0)), [x])
    assert np.allclose(grads[0], 0.0, atol=1e-12)


def test_softmax_columns_sum_to_one():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 7)) * 50.0
    s = ad.softmax(x, axis=0)
    assert np.allclose(s.sum(axis=0), 1.0, atol=1e-12)
    s_rows = ad.softmax(x, axis=1)
    assert np.allclose(s_rows.sum(axis=1), 1.0, atol=1e-12)


def test_cumsum_backward_is_reversed_cumsum():
    rng = np.random.default_rng(2)
    x = rng.normal(size=9)
    g = rng.normal(size=9)
    tape = ad.Tape()
    v = tape.variable(x)
    out = ref.cumsum(v)
    tape.backward(ad.asum(out * g))
    expected = np.cumsum(g[::-1])[::-1]
    assert np.array_equal(v.grad, expected)


def test_square_gradcheck_passes():
    report = ad.gradcheck(lambda x: x * x, [np.array(2.0)], op_name="square")
    assert report.passed
    assert report.max_rel_error < 1e-6
    # analytic d(x^2)/dx at 2 is 4
    _, grads = ad.forward_backward(lambda x: x * x, [np.array(2.0)])
    assert np.isclose(grads[0], 4.0)


def test_relu_at_zero_is_excluded_not_failed():
    report = ad.gradcheck(ref.relu, [np.array([0.0])], op_name="relu")
    assert report.passed
    assert report.excluded == [(0, 0)]
    assert report.summary().endswith(", 1 point(s) excluded near kinks")


def test_relu_subgradient_zero_at_kink():
    _, grads = ad.forward_backward(ref.relu, [np.array([0.0, -1.0, 2.0])])
    assert np.array_equal(grads[0], np.array([0.0, 0.0, 1.0]))


def test_hma_rectifier_kink_is_excluded_not_failed():
    # the step v[2] - v[1] is exactly 0: perturbing either end crosses the kink
    v = np.array([0.0, 1.0, 1.0, 2.5, 3.0])
    report = ad.gradcheck(lambda x: hma_transform(Imv(x, 4)).pi, [v], op_name="hma_transform")
    assert report.passed
    assert report.excluded == [(0, 1), (0, 2)]


def test_nonfinite_intermediate_carries_node_index():
    def f(x):
        y = ref.log(x)  # node 0
        return y * 2.0  # node 1

    with np.errstate(invalid="ignore"):
        with pytest.raises(ad.NonFiniteError) as exc:
            ad.forward_backward(f, [np.array([-1.0])])
    assert exc.value.node_index == 0
    assert exc.value.op_name == "log"


def test_nonfinite_softmax_names_the_fused_op():
    def f(x, a):
        b = a * 2.0  # node 0
        return ad.softmax(x, axis=0) * b  # node 1: inf - inf in the max shift

    x = np.array([[0.0, np.inf], [1.0, 2.0]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(ad.NonFiniteError) as exc:
            ad.forward_backward(f, [x, np.ones((2, 2))])
    assert exc.value.node_index == 1
    assert exc.value.op_name == "softmax"


def test_forward_backward_raises_the_nan_node_of_a_function_that_raises():
    def f(x):
        ref.log(ref.sub(x, 2.0))  # node 1: the log of a negative number
        raise KeyError("a later failure")

    with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError) as exc:
        ad.forward_backward(f, [np.array([1.0])])
    assert (exc.value.op_name, exc.value.node_index) == ("log", 1)


def test_forward_backward_reraises_what_f_raised_without_a_nan_node():
    failure = KeyError("no non-finite node")

    def f(x):
        x * 2.0
        raise failure

    with pytest.raises(KeyError) as exc:
        ad.forward_backward(f, [np.array([1.0])])
    assert exc.value is failure


def test_forward_backward_of_a_tuple_returns_a_list_and_the_gradients_of_the_sum():
    x, y = np.array([1.0, -2.0]), np.array([0.5, 3.0])
    f = lambda u, v: (u * u, ad.exp(v) * u)

    def total(u, v):
        first, second = f(u, v)
        return ad.asum(first) + ad.asum(second)

    outs, grads = ad.forward_backward(f, [x, y])
    assert isinstance(outs, list) and all(type(o) is np.ndarray for o in outs)
    assert _same_bits(outs[0], x * x) and _same_bits(outs[1], np.exp(y) * x)
    _, sum_grads = ad.forward_backward(total, [x, y])
    assert all(_same_bits(g, e) for g, e in zip(grads, sum_grads))
    assert np.allclose(grads[0], 2.0 * x + np.exp(y)) and np.allclose(grads[1], np.exp(y) * x)


def test_nondeterministic_function_rejected():
    state = {"calls": 0}

    def f(x):
        state["calls"] += 1
        return x * float(state["calls"])

    with pytest.raises(ad.NonDeterministicError):
        ad.gradcheck(f, [np.array([1.0])])


def test_matmul_shapes_and_gradients():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    w = rng.normal(size=(3, 2))
    f = lambda x, y: ad.asum(ad.matmul(x, y) * w)
    report = ad.gradcheck(f, [a, b], op_name="matmul")
    assert report.passed

    v = rng.normal(size=4)
    f_vec = lambda x, y: ad.asum(ad.matmul(x, y))
    report = ad.gradcheck(f_vec, [v, b], op_name="vec@mat")
    assert report.passed

    u = rng.normal(size=4)
    report = ad.gradcheck(ad.matmul, [u, v], op_name="vec@vec")
    assert report.passed


def test_broadcast_sub_and_unbroadcast():
    rng = np.random.default_rng(4)
    col = rng.normal(size=(4, 1))
    row = rng.normal(size=(1, 6))
    w = rng.normal(size=(4, 6))
    f = lambda a, b: ad.asum(ref.sub(a, b) * ref.sub(a, b) * w)
    report = ad.gradcheck(f, [col, row], op_name="broadcast-sub")
    assert report.passed


def test_concat_and_getitem_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=5)
    w = rng.normal(size=6)

    def f(v):
        padded = ref.concat([np.zeros(1), ref.cumsum(v)])
        return ad.asum(padded * w) + padded[-1]

    report = ad.gradcheck(f, [x], op_name="concat-getitem")
    assert report.passed


def test_getitem_accumulates_duplicate_indices():
    emb = np.arange(12.0).reshape(4, 3)
    idx = [1, 1, 2]
    tape = ad.Tape()
    v = tape.variable(emb)
    out = v[np.array(idx)]
    tape.backward(ad.asum(out))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[2] = 1.0
    assert np.array_equal(v.grad, expected)
    report = ad.gradcheck(lambda x: x[np.array([0, 0, 2])], [np.array([1.0, 2.0, 3.0])])
    assert report.passed


def test_values_from_different_tapes_rejected():
    a = ad.Tape().variable(np.ones(2))
    b = ad.Tape().variable(np.ones(2))
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError, match="does not belong to this tape"):
        ad.Tape().backward(a)


def test_release_keeps_the_nodes_gradients_and_first_nonfinite_node():
    tape = ad.Tape()
    x = tape.variable(np.array([1.0, 2.0]))
    tape.backward(ad.asum(ad.exp(x) * 2.0))
    grad = x.grad.copy()
    tape.release()
    assert [n.name for n in tape.nodes] == ["exp", "mul", "sum"]
    assert all(n.tape is None for n in tape.nodes) and x.tape is None
    assert np.array_equal(x.grad, grad) and tape.first_nonfinite() is None

    tape = ad.Tape()
    with np.errstate(over="ignore"):
        ad.exp(tape.variable(np.array([1.0, 2000.0]))) * 2.0
    tape.release()
    error = tape.first_nonfinite()
    assert (error.op_name, error.node_index) == ("exp", 0)


@pytest.mark.parametrize("name, op", [
    ("mul", lambda v: v * v),
    ("exp", ad.exp),
    ("matmul", lambda v: ad.matmul(np.ones((2, 3)), v)),
    ("getitem", lambda v: v[1:]),
    ("monotone_rescale", lambda v: ad.monotone_rescale(v, 2.0, 1e-8)),
])
def test_a_primitive_returns_its_tape_node(name, op):
    # a recorded value is its own node, holding its op's name and backward
    tape = ad.Tape()
    x = tape.variable(np.array([0.0, 1.0, 3.0]))
    out = op(x)
    assert len(tape.nodes) == 1 and tape.nodes[-1] is out
    assert out.name == name and callable(out.backward)
    assert x.name is None and x.backward is None


def test_a_value_shows_its_data():
    assert repr(ad.Tape().variable([1.0, 2.0])) == "Value(array([1., 2.]))"


def test_release_keeps_the_kink_signatures():
    tape = ad.Tape()
    ad.monotone_rescale(tape.variable(np.array([0.0, 2.0, 1.0, 3.0])), 4.0, 1e-9)
    tape.release()
    assert [k.tolist() for k in tape.kink_signatures] == [[True, False, True]]


def test_backward_from_a_released_root_raises():
    tape = ad.Tape()
    y = ad.asum(tape.variable(np.ones(3)) * 2.0)
    tape.release()
    with pytest.raises(ValueError, match="does not belong to this tape"):
        tape.backward(y)


@pytest.mark.parametrize("op", [
    lambda v: v * 2.0,
    lambda v: ref.sub(2.0, v),
    lambda v: 2.0 * v,
    lambda v: ad.exp(v),
    lambda v: v[0],
    lambda v: ad.matmul(np.ones((2, 3)), v),
    lambda v: ad.softmax(v, axis=0),
    lambda v: ad.Tape().variable(np.ones(3)) + v,
], ids=["mul", "rsub", "rmul", "exp", "getitem", "matmul", "softmax", "with-a-live-value"])
def test_a_primitive_given_a_released_value_raises(op):
    # instead of returning an untraced array that no backward pass reaches
    tape = ad.Tape()
    x = tape.variable(np.ones(3))
    y = x * 2.0
    tape.release()
    for released in (x, y):
        with pytest.raises(ValueError, match="tape"):
            op(released)


@pytest.mark.parametrize("f, x", [
    (lambda v: (np.array([1e-200]) * v) * np.array([1e200]), 1e300),
    (lambda v: ref.div(np.array([1e-300]), v) * np.array([1e300]), 1e-10),
    (lambda v: ad.matmul(np.array([[1e-200]]), v) * np.array([1e200]), 1e300),
], ids=["mul", "div", "matmul"])
def test_backward_computes_no_gradient_for_an_untraced_operand(f, x):
    # The constant's gradient (1e200 * 1e300, 1e300 / 1e-10, 1e200 * 1e300)
    # overflows; the traced operand's does not, so backward must not raise.
    tape = ad.Tape()
    v = tape.variable(np.array([x]))
    with np.errstate(over="raise"):
        root = ad.asum(f(v))
        tape.backward(root)
    _, (expected,) = ad.forward_backward(f, [np.array([x])])
    assert np.isfinite(v.grad).all() and np.array_equal(v.grad, expected)


def _same_bits(a, b) -> bool:
    """Equal shape and bytes: sign bits of zeros included."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_plain_numpy_dispatch_matches_traced():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))

    def pipeline(v):
        s = ad.softmax(v, axis=0)
        return ad.asum(ref.relu(ref.sub(s, 0.2)))

    plain = pipeline(x)
    traced, _ = ad.forward_backward(pipeline, [x])
    assert _same_bits(plain, traced)


# Each case draws the inputs of one primitive; every operand may be traced
# or a constant, so the property also covers the mixed operand paths.
_floats = st.floats(-5.0, 5.0, allow_nan=False, width=64)
_dims = st.integers(1, 5)


def _array(draw, shape):
    """Finite floats, with one NaN or infinity planted in about a quarter of
    the draws."""
    x = draw(hnp.arrays(np.float64, shape, elements=_floats))
    if x.size and draw(st.integers(0, 3)) == 0:
        spot = draw(st.integers(0, x.size - 1))
        x.flat[spot] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return x


def _matrix(draw):
    return _array(draw, (draw(_dims), draw(_dims)))


def _binary(op):
    def case(draw):
        m, n = draw(_dims), draw(_dims)
        other = draw(st.sampled_from([(m, n), (1, n), (m, 1), (n,), ()]))
        return op, [_array(draw, (m, n)), _array(draw, other)]

    return case


def _unary(op):
    return lambda draw: (op, [_matrix(draw)])


def _asum_case(draw):
    axis = draw(st.sampled_from([None, 0, 1]))
    keepdims = draw(st.booleans())
    return lambda x: ref.asum(x, axis=axis, keepdims=keepdims), [_matrix(draw)]


def _concat_case(draw):
    axis, n = draw(st.integers(0, 1)), draw(_dims)
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        shape = (draw(_dims), n) if axis == 0 else (n, draw(_dims))
        parts.append(_array(draw, shape))
    return lambda *p: ref.concat(p, axis=axis), parts


def _gather_case(draw):
    """An integer-array key that may repeat rows, as an embedding lookup does."""
    m = draw(_dims)
    idx = np.array(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6)))
    return lambda x: x[idx], [_array(draw, (m, draw(_dims)))]


def _getitem_case(draw):
    key = draw(st.sampled_from([-1, slice(1, None), (slice(None), 0), (slice(None, None, -1), 0)]))
    return lambda x: x[key], [_matrix(draw)]


def _reshape_case(draw):
    m, n = draw(_dims), draw(_dims)
    shape = draw(st.sampled_from([(m * n,), (n, m), (-1, 1)]))
    return lambda x: ref.reshape(x, shape), [_array(draw, (m, n))]


def _matmul_case(draw):
    m, k, n = draw(_dims), draw(_dims), draw(_dims)
    a_shape = draw(st.sampled_from([(m, k), (k,)]))
    b_shape = draw(st.sampled_from([(k, n), (k,)]))
    return ad.matmul, [_array(draw, a_shape), _array(draw, b_shape)]


def _softmax_case(draw):
    axis = draw(st.integers(0, 1))
    return lambda x: ad.softmax(x, axis), [_matrix(draw)]


def _gaussian_softmax_case(draw):
    sigma2, axis = draw(st.floats(0.05, 2.0)), draw(st.integers(0, 1))
    rows, cols = _array(draw, (draw(_dims),)), _array(draw, (draw(_dims),))
    return lambda r, c: ad.gaussian_softmax(r, c, sigma2, axis), [rows, cols]


def _sma_penalty_case(draw):
    square = draw(st.booleans())
    x = _array(draw, (draw(st.integers(2, 6)),))
    return lambda v: ad.sma_penalty(v, 2.0, (0.7, 1.3, 0.9, 1.1), square), [x]


_PRIMITIVE_CASES = {
    "add": _binary(lambda a, b: a + b),
    "sub": _binary(ref.sub),
    "mul": _binary(lambda a, b: a * b),
    "div": _binary(ref.div),
    "exp": _unary(ad.exp),
    "log": _unary(ref.log),
    "tanh": _unary(ad.tanh),
    "relu": _unary(ref.relu),
    "abs": _unary(ref.absolute),
    "sum": _unary(ad.asum),
    "sum_axis": _asum_case,
    "mean": _unary(ref.amean),
    "cumsum": lambda draw: (ref.cumsum, [_array(draw, (draw(_dims),))]),
    "concat": _concat_case,
    "gather": _gather_case,
    "getitem": _getitem_case,
    "reshape": _reshape_case,
    "transpose": _unary(ad.transpose),
    "matmul": _matmul_case,
    "softmax": _softmax_case,
    "gaussian_softmax": _gaussian_softmax_case,
    # a min_total of -inf never refuses: a zero total divides to NaN instead
    "monotone_rescale": lambda draw: (
        lambda x: ad.monotone_rescale(x, 3.0, -np.inf), [_array(draw, (draw(_dims),))]),
    "sma_penalty": _sma_penalty_case,
    "log_l1_distance": lambda draw: (
        lambda p, t: ad.log_l1_distance(p, t, 1e-6), [_array(draw, (4,)), _array(draw, (4,))]),
    "mean_squared_error": _binary(ad.mean_squared_error),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_untraced_primitive_equals_traced_data(name, data):
    op, inputs = _PRIMITIVE_CASES[name](data.draw)
    traced = data.draw(st.lists(st.booleans(), min_size=len(inputs), max_size=len(inputs)))
    if name == "getitem":
        traced = [True]  # indexing records only through Value.__getitem__
    elif not any(traced):
        traced[0] = True
    with np.errstate(all="ignore"):
        plain = op(*inputs)
        tape = ad.Tape()
        out = op(*[tape.variable(x) if t else x for x, t in zip(inputs, traced)])
    assert isinstance(out, ad.Value) and not isinstance(plain, ad.Value)
    assert _same_bits(plain, out.data)


def test_matmul_rejects_rank3_on_both_paths():
    a, b = np.ones((2, 3, 4)), np.ones((4, 2))
    with pytest.raises(ValueError, match="rank-1 and rank-2"):
        ad.matmul(a, b)
    with pytest.raises(ValueError, match="rank-1 and rank-2"):
        ad.matmul(ad.Tape().variable(a), b)


@pytest.mark.parametrize(
    "ranks", [(2, 2), (2, 1), (1, 2), (1, 1)], ids=["mat@mat", "mat@vec", "vec@mat", "vec@vec"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matmul_gradients_equal_the_four_branch_backward(ranks, data):
    m, k, n = data.draw(_dims), data.draw(_dims), data.draw(_dims)
    a = _array(data.draw, (m, k)[2 - ranks[0]:])
    b = _array(data.draw, (k, n)[:ranks[1]])
    with np.errstate(all="ignore"):
        shape = (a @ b).shape
    # drawn in reversed shape and transposed: a non-contiguous 2-D gradient
    g = _array(data.draw, shape[::-1]).T if data.draw(st.booleans()) else _array(data.draw, shape)
    grads = []
    for matmul in (ad.matmul, ref.matmul):
        tape = ad.Tape()
        va, vb = tape.variable(a), tape.variable(b)
        with np.errstate(all="ignore"):
            matmul(va, vb)
            tape.nodes[-1].backward(g)
        grads.append((va.grad, vb.grad))
    (ga, gb), (ref_ga, ref_gb) = grads
    assert _same_bits(ga, ref_ga) and _same_bits(gb, ref_gb)


def test_relu_nan_propagates_untraced_and_raises_traced():
    x = np.array([1.0, np.nan, -1.0])
    plain = ref.relu(x)
    assert plain[0] == 1.0 and np.isnan(plain[1]) and plain[2] == 0.0
    with pytest.raises(ad.NonFiniteError) as exc:
        ad.forward_backward(ref.relu, [x])
    assert exc.value.op_name == "relu"
    assert exc.value.node_index == 0


# -- fused primitives against the primitive chains they replace ---------


def _traced_grads(f, inputs, traced):
    """Gradients of asum(f(...) * w) for the inputs flagged in ``traced``;
    the others enter as constants."""
    tape = ad.Tape()
    args = [tape.variable(x) if t else x for x, t in zip(inputs, traced)]
    out = f(*args)
    w = np.random.default_rng(11).normal(size=out.shape)
    # a transposed consumer hands the node a non-contiguous gradient
    loss = ad.asum(out * w) + ad.asum(ad.transpose(out) * w.T * 0.5)
    tape.backward(loss)
    return out.data, [a.grad for a in args if isinstance(a, ad.Value)], tape


@pytest.mark.parametrize("axis", [0, 1])
def test_fused_softmax_is_bit_identical_to_chain(axis):
    rng = np.random.default_rng(7)
    for shape in [(5, 7), (1, 4), (6, 1)]:
        x = rng.normal(size=shape) * 3.0
        out, grads, _ = _traced_grads(lambda v: ad.softmax(v, axis), [x], [True])
        ref_out, ref_grads, _ = _traced_grads(lambda v: ref.softmax_chain(v, axis), [x], [True])
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grads[0], ref_grads[0])
        assert np.array_equal(ad.softmax(x, axis), ref_out)


@pytest.mark.parametrize("traced", [(True, False), (False, True), (True, True)])
def test_fused_gaussian_softmax_is_bit_identical_to_chain(traced):
    rng = np.random.default_rng(8)
    cases = [(rng.normal(size=t1) * 2.0, np.arange(float(t2))) for t1, t2 in [(5, 9), (1, 3), (4, 1)]]
    # shifted logits of about -710 and -740 on both axes: subnormal exponentials
    cases.append((np.array([0.0, 14.6, 14.9]), np.arange(16.0)))
    for axis in (0, 1):
        for rows, cols in cases:
            _assert_fused_matches_chain(
                lambda r, c: ad.gaussian_softmax(r, c, 0.3, axis),
                lambda r, c: ref.gaussian_softmax_chain(r, c, 0.3, axis), [rows, cols], traced)


def test_fused_nodes_record_one_node_each():
    tape = ad.Tape()
    x = tape.variable(np.ones(3))
    ad.softmax(ad.gaussian_softmax(x, np.arange(4.0), 0.25, axis=0), axis=1)
    assert [n.name for n in tape.nodes] == ["gaussian_softmax", "softmax"]


# Logits that straddle the exp mask: ordinary values, shifted logits in
# [-746, -708] where exp gives subnormals, the mask threshold and its
# neighbours, and values whose exp underflows to exactly 0.
_logits = st.one_of(
    st.floats(-3.0, 0.0),
    st.floats(-746.0, -708.0),
    st.sampled_from([-746.0, np.nextafter(-746.0, 0.0), np.nextafter(-746.0, -np.inf), -745.2]),
    st.floats(-2000.0, -746.0),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_masked_softmax_equals_unmasked_chain(data):
    """Skipping exp below the underflow threshold changes no bit of the
    softmax or its gradient, on either axis and for strided inputs."""
    axis = data.draw(st.integers(0, 1))
    m, n = data.draw(_dims), data.draw(_dims)
    x = data.draw(hnp.arrays(np.float64, (m, 2 * n), elements=_logits))
    if data.draw(st.booleans()):
        x[:, 0] = 0.0  # each row's max is 0: the drawn values are the shifted logits
    layout = data.draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    x = {"contiguous": x, "strided": x[:, ::2], "transposed": x.T}[layout]
    _assert_fused_matches_chain(
        lambda v: ad.softmax(v, axis), lambda v: ref.softmax_chain(v, axis), [x], [True])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_masked_gaussian_softmax_equals_unmasked_chain(data):
    axis = data.draw(st.integers(0, 1))
    sigma2 = data.draw(st.sampled_from([0.25, 1.0]) | st.floats(0.05, 2.0))
    coords = st.floats(-30.0, 30.0) | st.sampled_from([0.0, 720.0 ** 0.5, 740.0 ** 0.5])
    rows = data.draw(hnp.arrays(np.float64, (2 * data.draw(_dims),), elements=coords))
    cols = data.draw(hnp.arrays(np.float64, (data.draw(_dims),), elements=coords))
    rows = rows[::2]  # a strided operand
    traced = data.draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    _assert_fused_matches_chain(
        lambda r, c: ad.gaussian_softmax(r, c, sigma2, axis),
        lambda r, c: ref.gaussian_softmax_chain(r, c, sigma2, axis),
        [rows, cols], traced)


def test_exp_is_exactly_zero_below_the_mask_threshold():
    below = np.array([-746.0, np.nextafter(-746.0, -np.inf), -800.0, -1e308, -np.inf])
    assert _same_bits(np.exp(below), np.zeros(below.size))
    assert np.exp(np.nextafter(-746.0, 0.0)) == 0.0  # the threshold has margin
    assert np.exp(-745.0) > 0.0


def _recorded(f):
    """f()'s result and the warnings it raised, as (category, message) pairs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f()
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_nonfinite_inputs_match_the_unmasked_chain_without_new_warnings(special, axis):
    rng = np.random.default_rng(16)
    x = rng.normal(size=(4, 5)) * 400.0  # most shifted logits underflow
    x[1, 2] = special
    rows, cols = rng.normal(size=4) * 20.0, np.arange(5.0)
    rows[1] = special
    # a size where the band engages on either axis but for the special centre
    index, centres = np.arange(256.0), _jittered_grid(rng, 160)
    assert _band_engages(index, centres, 0.25, axis)
    centres[7] = special
    gaussian = (lambda r, c: ad.gaussian_softmax(r, c, 0.25, axis),
                lambda r, c: ref.gaussian_softmax_chain(r, c, 0.25, axis))
    cases = [
        ("softmax", lambda v: ad.softmax(v, axis), lambda v: ref.softmax_chain(v, axis), [x]),
        ("gaussian_softmax", *gaussian, [rows, cols]),
        ("gaussian_softmax", *gaussian, [index, centres]),
    ]
    for name, fused, chain, inputs in cases:
        expected, expected_warnings = _recorded(lambda: chain(*inputs))
        out, out_warnings = _recorded(lambda: fused(*inputs))
        assert _same_bits(out, expected) and out_warnings == expected_warnings
        if np.isfinite(out).all():  # an infinite logit whose exp is 0
            continue
        with np.errstate(all="ignore"):
            tape = ad.Tape()
            fused(*[tape.variable(v) for v in inputs])
        error = tape.first_nonfinite()
        assert error.op_name == name and error.node_index == 0


# -- the banded Gaussian kernel -------------------------------------------


def _band_engages(rows, cols, sigma2, axis):
    """Whether gaussian_softmax computes this call in a band."""
    return ad._banded_gaussian(rows, cols, sigma2, -1.0 / sigma2, axis) is not None


def _jittered_grid(rng, n):
    """Sorted centres about one apart, starting 40 below 0."""
    return np.arange(float(n)) - 40.0 + rng.uniform(-0.45, 0.45, n)


def _threshold_centres():
    """(sigma2, centre) pairs at which the shifted logit of some row of
    arange(n), n >= 200, is exactly the exp mask threshold -746 or one ulp
    either side of it, found by stepping sigma2 by ulps. The centre -186
    lies beyond the rows."""
    targets = [-746.0, np.nextafter(-746.0, 0.0), np.nextafter(-746.0, -np.inf)]
    rows = np.arange(200.0)
    found, hit = [], set()
    for centre, start in [(100.33928571428571, 0.25), (150.3392857142857, 0.25), (-186.0, 0.5)]:
        for direction in (np.inf, -np.inf):
            sigma2 = start
            for _ in range(300):
                diff = rows - centre
                logits = diff * diff * (-1.0 / sigma2)
                shifted = logits - logits.max()
                for t in targets:
                    if (shifted == t).any():
                        found.append((float(sigma2), centre))
                        hit.add(t)
                sigma2 = np.nextafter(sigma2, direction)
    assert len(hit) == 3
    return found


_THRESHOLD_CENTRES = _threshold_centres()


def _close(x, expected):
    """Within the band's stated tolerance: 1e-12 of the largest magnitude
    in ``expected``, or of 1 if that is smaller."""
    scale = max(1.0, float(np.abs(expected).max()))
    return x.shape == expected.shape and bool(np.all(np.abs(x - expected) <= 1e-12 * scale))


def _assert_band_matches_chain(rows, cols, sigma2, axis, traced):
    """Values and the cols gradient of an axis-0 band bit for bit, the
    other results within :func:`_close`, traced and untraced."""
    fused = lambda r, c: ad.gaussian_softmax(r, c, sigma2, axis)
    out, grads, _ = _traced_grads(fused, [rows, cols], traced)
    expected, expected_grads, _ = _traced_grads(
        lambda r, c: ref.gaussian_softmax_chain(r, c, sigma2, axis), [rows, cols], traced)
    assert _same_bits(fused(rows, cols), out)
    assert _same_bits(out, expected) if axis == 0 else _close(out, expected)
    operands = [name for name, t in zip(("rows", "cols"), traced) if t]
    for name, g, e in zip(operands, grads, expected_grads):
        assert _same_bits(g, e) if (axis, name) == (0, "cols") else _close(g, e)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_banded_gaussian_softmax_matches_the_dense_chain(data):
    axis = data.draw(st.integers(0, 1))
    n, m = data.draw(st.integers(230, 300)), data.draw(st.integers(160, 220))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    kind = data.draw(st.sampled_from(["index", "centres", "nm"]))
    if kind == "index":
        # Unit-spaced rows, a few of them repeated, along the softmax axis;
        # across it centres in and beyond their range, three of them where
        # a row's shifted logit is at the exp mask threshold.
        sigma2, centre = data.draw(st.sampled_from(_THRESHOLD_CENTRES))
        repeats = rng.choice(n, data.draw(st.integers(0, 3))).astype(float)
        a = np.sort(np.concatenate([np.arange(float(n)), repeats]))
        b = rng.uniform(-60.0, n + 60.0, m)
        b[rng.choice(m, 3, replace=False)] = centre
    else:
        # Centres along the softmax axis (the density matrix), some below
        # the index vector's range. NM centres are unsorted and run dense.
        sigma2 = data.draw(st.floats(0.1, 0.3))
        a, b = _jittered_grid(rng, n), np.arange(float(m))
        if kind == "nm":
            i, j = sorted(rng.choice(n, 2, replace=False))
            a[i], a[j] = a[j], a[i]
    rows, cols = (a, b) if axis == 0 else (b, a)
    traced = data.draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    assert _band_engages(rows, cols, sigma2, axis) == (kind != "nm")
    if kind == "nm":
        _assert_fused_matches_chain(
            lambda r, c: ad.gaussian_softmax(r, c, sigma2, axis),
            lambda r, c: ref.gaussian_softmax_chain(r, c, sigma2, axis), [rows, cols], traced)
    else:
        _assert_band_matches_chain(rows, cols, sigma2, axis, traced)


@pytest.mark.parametrize("axis", [0, 1])
def test_band_at_the_smallest_sigma2_with_a_finite_reciprocal(axis):
    # every entry but the nearest row's logit is -inf or below the mask
    sigma2 = float(np.nextafter(1.0 / np.finfo(np.float64).max, 1.0))
    assert np.isfinite(-1.0 / sigma2)
    rows, cols = np.arange(256.0), _jittered_grid(np.random.default_rng(17), 160) + 40.0
    rows, cols = (rows, cols) if axis == 0 else (cols, rows)
    out, out_warnings = _recorded(lambda: ad.gaussian_softmax(rows, cols, sigma2, axis))
    expected, expected_warnings = _recorded(
        lambda: ref.gaussian_softmax_chain(rows, cols, sigma2, axis))
    assert out_warnings == expected_warnings == [(RuntimeWarning, "overflow encountered in multiply")]
    with np.errstate(over="ignore"):
        assert _band_engages(rows, cols, sigma2, axis)
        _assert_band_matches_chain(rows, cols, sigma2, axis, (True, True))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize(
    "case", ["sigma2 1e6", "t1 = 1", "t2 = 1", "sorted equal centres", "a tight cluster"])
def test_band_edge_cases_run_dense_where_it_cannot_apply(axis, case):
    rng = np.random.default_rng(18)
    sigma2, rows, cols = 0.25, np.arange(256.0), _jittered_grid(rng, 160)
    if case == "sigma2 1e6":
        sigma2 = 1e6  # the window covers every row
    elif case == "t1 = 1":
        rows, cols = np.array([3.7]), np.arange(20000.0)
    elif case == "t2 = 1":
        rows, cols = np.arange(20000.0), np.array([3.7])
    elif case == "a tight cluster":
        # positions 5 apart pass the estimate from their mean spacing, but 80
        # of them within 0.08 of 400 put about 90 in one window: too many
        cluster = np.sort(np.concatenate([np.arange(176.0) * 5.0, 400.0 + np.arange(80.0) * 1e-3]))
        rows, cols = (cluster, np.linspace(0.0, 875.0, 160))[::1 - 2 * axis]
    else:
        cols = np.full(160, 37.25)
    along = rows if axis == 0 else cols
    # equal centres along the softmax axis span nothing; across it they band
    engages = case == "sorted equal centres" and along is rows
    assert _band_engages(rows, cols, sigma2, axis) == engages
    fused = lambda r, c: ad.gaussian_softmax(r, c, sigma2, axis)
    chain = lambda r, c: ref.gaussian_softmax_chain(r, c, sigma2, axis)
    if engages:
        _assert_band_matches_chain(rows, cols, sigma2, axis, (True, True))
    else:
        _assert_fused_matches_chain(fused, chain, [rows, cols], (True, True))


def test_band_falls_back_where_rounding_widens_the_window():
    # Centres 1.35e9 below rows 8.3e-8 apart: the logits, about -1.8e18,
    # are rounded to multiples of 256, and entries beyond the window of
    # radius sqrt(dmin^2 + 746) are non-zero.
    rows = np.concatenate([np.arange(12.0) * 8.330601273198334e-08, np.arange(1.0, 300.0)])
    cols = -1354275769.6264634 - np.arange(160.0) * 1e-3
    assert not _band_engages(rows, cols, 1.0, 0)
    _assert_band_matches_chain(rows, cols, 1.0, 0, (True, True))


@pytest.mark.parametrize("axis", [0, 1])
def test_band_gradient_with_a_nan_outside_the_band_is_the_dense_one(axis):
    rows, cols = np.arange(256.0), _jittered_grid(np.random.default_rng(19), 160) + 40.0
    rows, cols = (rows, cols) if axis == 0 else (cols, rows)
    assert _band_engages(rows, cols, 0.25, axis)

    def grads(f):
        tape = ad.Tape()
        r, c = tape.variable(rows), tape.variable(cols)
        out = f(r, c)
        w = np.ones(out.shape)
        w[0, -1] = np.nan  # the far corner: outside every window
        tape.backward(ad.asum(out * w))
        return r.grad, c.grad

    with np.errstate(invalid="ignore"):
        got = grads(lambda r, c: ad.gaussian_softmax(r, c, 0.25, axis))
        expected = grads(lambda r, c: ref.gaussian_softmax_chain(r, c, 0.25, axis))
    for g, e in zip(got, expected):
        assert np.isnan(e).any()
        np.testing.assert_array_equal(g, e)  # NaN where the chain has NaN


@pytest.mark.parametrize("axis", [0, 1])
def test_banded_gaussian_softmax_gradcheck(axis):
    # 120 centres about 2 apart along the softmax axis against 480 steps
    # 0.5 apart over the same range: about 28 of the 120 in each window,
    # and no one-hot softmax whose tiny gradients drown in rounding
    rng = np.random.default_rng(20)
    along, index = np.arange(120.0) * 2.0 + rng.uniform(-0.5, 0.5, 120), np.arange(480.0) * 0.5
    rows, cols = (along, index) if axis == 0 else (index, along)
    assert _band_engages(rows, cols, 1.0, axis)
    w = rng.normal(size=(rows.size, cols.size))
    f = lambda r, c: ad.asum(ad.gaussian_softmax(r, c, 1.0, axis) * w)
    assert ad.gradcheck(f, [rows, cols], op_name="gaussian_softmax").passed


@pytest.mark.parametrize("axis", [0, 1])
def test_softmax_gradcheck(axis):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=(4, 5))
    report = ad.gradcheck(lambda v: ad.asum(ad.softmax(v, axis) * w), [x], op_name="softmax")
    assert report.passed


@pytest.mark.parametrize("axis", [0, 1])
def test_gaussian_softmax_gradcheck(axis):
    rng = np.random.default_rng(10)
    rows = rng.normal(size=4) * 2.0
    cols = rng.normal(size=6) * 2.0
    w = rng.normal(size=(4, 6))
    f = lambda r, c: ad.asum(ad.gaussian_softmax(r, c, 4.0, axis) * w)
    report = ad.gradcheck(f, [rows, cols], op_name="gaussian_softmax")
    assert report.passed


# The primitive chains the four loss-side fused primitives replace, exactly
# as hma_transform, sma_loss, ap_loss and the toy reconstruction loss wrote
# them.


def _chain_monotone_rescale(x, end, min_total):
    pi = ref.concat([np.zeros(1), ref.cumsum(ref.relu(ref.sub(x[1:], x[:-1])))])
    return ref.div(pi * end, pi[-1])


def _chain_sma_penalty(pi, span, lambdas, square=True):
    l0, l1, l2, l3 = lambdas
    d = ref.sub(pi[1:], pi[:-1])
    backward_motion = ad.asum(ref.sub(ref.absolute(d), d))
    overshoot = ad.asum(ref.absolute(ref.sub(d, 1.0)) + ref.sub(d, 1.0))
    start = ref.div(pi[0], span)
    end = ref.sub(ref.div(pi[-1], span), 1.0)
    if square:
        start_pen, end_pen = start * start, end * end
    else:
        start_pen, end_pen = ref.absolute(start), ref.absolute(end)
    return l0 * backward_motion + l1 * overshoot + l2 * start_pen + l3 * end_pen


def _chain_log_l1_distance(pred, target, eps):
    return ad.asum(ref.absolute(ref.sub(ref.log(pred + eps), ref.log(target + eps))))


def _chain_mean_squared_error(a, b):
    err = ref.sub(a, b)
    return ref.amean(err * err)


def _assert_fused_matches_chain(fused, chain, inputs, traced):
    """Outputs, gradients and kink signatures bit-identical to the chain's,
    traced and untraced."""
    out, grads, tape = _traced_grads(fused, inputs, traced)
    ref_out, ref_grads, ref_tape = _traced_grads(chain, inputs, traced)
    assert _same_bits(out, ref_out)
    assert len(grads) == len(ref_grads) == sum(traced)
    for g, r in zip(grads, ref_grads):
        assert _same_bits(g, r)
    assert len(tape.kink_signatures) == len(ref_tape.kink_signatures)
    for k, r in zip(tape.kink_signatures, ref_tape.kink_signatures):
        assert _same_bits(k, r)
    plain, ref_plain = fused(*inputs), chain(*inputs)
    assert type(plain) is type(ref_plain) and _same_bits(plain, ref_plain)


_RESCALE_CASES = [
    np.array([0.3, 1.1]),  # t2 = 2
    np.array([0.0, 0.0, 0.5]),  # a relu exactly at 0
    np.array([2.0, 1.0, 1.0, 3.5, 3.5, 2.0, 4.25]),
    np.random.default_rng(12).normal(size=17) * 2.0,
]


@pytest.mark.parametrize("x", _RESCALE_CASES)
def test_fused_monotone_rescale_is_bit_identical_to_chain(x):
    for end in (4.0, 1.0):
        f = lambda v: ad.monotone_rescale(v, end, 1e-8)
        ref = lambda v: _chain_monotone_rescale(v, end, 1e-8)
        _assert_fused_matches_chain(f, ref, [x], [True])


def test_monotone_rescale_raises_before_recording():
    tape = ad.Tape()
    x = tape.variable(np.array([1.0, 1.0, 0.5]))
    with pytest.raises(ZeroDivisionError):
        ad.monotone_rescale(x, 2.0, 1e-8)
    assert tape.nodes == [] and tape.kink_signatures == []


_SMA_CASES = [
    np.array([0.0, 4.0]),  # t2 = 2, boundaries met exactly
    np.array([0.7, -0.2]),  # t2 = 2
    np.array([0.0, 0.0, 1.0, 2.0, 1.5, 4.0]),  # steps of exactly 0 and 1
    np.random.default_rng(13).normal(size=9) * 2.0,
]


@pytest.mark.parametrize("square", [True, False])
@pytest.mark.parametrize("pi", _SMA_CASES)
def test_fused_sma_penalty_is_bit_identical_to_chain(pi, square):
    for lambdas in [(0.7, 1.3, 0.9, 1.1), (1, 0, 2, 0)]:
        f = lambda v: ad.sma_penalty(v, 4.0, lambdas, square)
        ref = lambda v: _chain_sma_penalty(v, 4.0, lambdas, square)
        _assert_fused_matches_chain(f, ref, [pi], [True])


# steps of exactly 0 and 1, and upstream weights of both zero signs, give the
# gradients -0.0 entries; the extra consumer's gradient reaches x first
_STEP_VALUES = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 3.0]
_SIGNED_WEIGHTS = [0.0, -0.0, 1.0, -2.0]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_step_gradients_keep_the_zero_signs_of_the_chain(data):
    n = data.draw(st.integers(2, 7))
    x = data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from(_STEP_VALUES)))
    w = data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from(_SIGNED_WEIGHTS)))
    extra = data.draw(st.none() | hnp.arrays(np.float64, n, elements=st.sampled_from(_SIGNED_WEIGHTS)))
    square = data.draw(st.booleans())
    cases = [(lambda v: ad.sma_penalty(v, 3.0, (0.7, 1.3, 0.9, 1.1), square),
              lambda v: _chain_sma_penalty(v, 3.0, (0.7, 1.3, 0.9, 1.1), square))]
    if np.maximum(np.diff(x), 0.0).sum() > 1e-8:
        cases.append((lambda v: ad.monotone_rescale(v, 4.0, 1e-8),
                       lambda v: _chain_monotone_rescale(v, 4.0, 1e-8)))
    for fused, chain in cases:
        grads = []
        for f in (fused, chain):
            tape = ad.Tape()
            v = tape.variable(x)
            out = f(v)
            loss = ad.asum(out * (w if out.shape else w[0]))
            if extra is not None:
                loss = loss + ad.asum(v * extra)
            tape.backward(loss)
            grads.append(v.grad)
        assert _same_bits(*grads)


@pytest.mark.parametrize("traced", [(True, False), (False, True), (True, True)])
def test_fused_log_l1_distance_is_bit_identical_to_chain(traced):
    rng = np.random.default_rng(14)
    pred = rng.uniform(0.0, 2.5, size=7)
    target = rng.uniform(0.0, 2.5, size=7)
    target[2] = pred[2]  # a log difference of exactly 0
    pred[4] = 0.0
    f = lambda p, t: ad.log_l1_distance(p, t, 1e-6)
    ref = lambda p, t: _chain_log_l1_distance(p, t, 1e-6)
    _assert_fused_matches_chain(f, ref, [pred, target], traced)


@pytest.mark.parametrize("traced", [(True, False), (False, True), (True, True)])
@pytest.mark.parametrize("b_shape", [(6, 3), (1, 3)])
def test_fused_mean_squared_error_is_bit_identical_to_chain(traced, b_shape):
    rng = np.random.default_rng(15)
    a, b = rng.normal(size=(6, 3)), rng.normal(size=b_shape)
    _assert_fused_matches_chain(ad.mean_squared_error, _chain_mean_squared_error, [a, b], traced)


@pytest.mark.parametrize("name, op, inputs", [
    ("monotone_rescale", lambda v: ad.monotone_rescale(v, 3.0, 1e-8), [np.array([0.0, 1.0, 0.5, 2.0])]),
    ("sma_penalty", lambda v: ad.sma_penalty(v, 3.0, (1, 1, 1, 1)), [np.array([0.0, 1.0, 0.5, 2.0])]),
    ("log_l1_distance", lambda p, t: ad.log_l1_distance(p, t, 1e-6), [np.ones(3), np.full(3, 2.0)]),
    ("mean_squared_error", ad.mean_squared_error, [np.ones((2, 3)), np.zeros((2, 3))]),
])
def test_loss_side_fused_primitives_record_one_node(name, op, inputs):
    tape = ad.Tape()
    op(*[tape.variable(x) for x in inputs])
    assert [n.name for n in tape.nodes] == [name]


def test_intermediate_infinity_with_finite_result_raises_only_on_a_checking_tape():
    def f(x):
        ad.exp(x * 1000.0)  # overflows, but nothing downstream uses it
        return x * 2.0

    x = np.array([1.0, 2.0])
    with np.errstate(over="ignore"):
        out, grads = ad.forward_backward(f, [x])
        assert np.array_equal(out, [2.0, 4.0]) and np.array_equal(grads[0], [2.0, 2.0])
        tape = CheckingTape()
        with pytest.raises(ad.NonFiniteError) as exc:
            f(tape.variable(x))
    assert exc.value.op_name == "exp" and exc.value.node_index == 1


def test_unchecked_tape_records_nonfinite_outputs():
    tape = ad.Tape()
    with np.errstate(divide="ignore"):
        out = ref.log(tape.variable(np.array([1.0, 0.0]))) * 2.0
    assert out.data[1] == -np.inf and [n.name for n in tape.nodes] == ["log", "mul"]
    error = tape.first_nonfinite()
    assert (error.op_name, error.node_index) == ("log", 0)
    assert ad.Tape().first_nonfinite() is None


def test_gradcheck_replay_names_the_nonfinite_node():
    # the objective is NaN: gradcheck raises naming the first bad node
    def f(x):
        y = x * 1.0  # node 0
        return ref.log(ref.sub(y, 5.0))  # nodes 1 (sub) and 2 (log of a negative)

    with np.errstate(invalid="ignore"):
        with pytest.raises(ad.NonFiniteError) as exc:
            ad.gradcheck(f, [np.array([1.0])])
    assert exc.value.op_name == "log" and exc.value.node_index == 2


@pytest.mark.parametrize("name", sorted(CHECKABLE_OPS))
def test_run_check_leaves_at_most_the_forward_backward_tape_to_the_cycle_collector(name):
    # gradcheck releases the tape of every objective it evaluates;
    # forward_backward keeps its one tape (see there)
    import gc

    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_check(name, 0)
        gc.collect()
        tapes = sum(isinstance(o, ad.Tape) for o in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert tapes <= 1


# -- the tape scan against the per-node-checking reference ---------------

# 1-D primitives a chain draws from, with their arity
_CHAIN_OPS = {
    "add": (lambda a, b: a + b, 2),
    "sub": (ref.sub, 2),
    "mul": (lambda a, b: a * b, 2),
    "div": (ref.div, 2),
    "exp": (ad.exp, 1),
    "log": (ref.log, 1),
    "tanh": (ad.tanh, 1),
    "relu": (ref.relu, 1),
    "abs": (ref.absolute, 1),
    "cumsum": (ref.cumsum, 1),
    "softmax": (lambda x: ad.softmax(x, 0), 1),
    # raises ZeroDivisionError when the rectified path total is <= 0
    "monotone_rescale": (lambda x: ad.monotone_rescale(x, 3.0, 0.0), 1),
}


@st.composite
def _planted_chain(draw):
    """A random chain of primitives over 1-3 input vectors, with NaN or
    +-inf planted in the inputs (at least one in the first)."""
    n = draw(st.integers(2, 5))
    inputs = []
    for k in range(draw(st.integers(1, 3))):
        x = draw(hnp.arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))
        for i in draw(st.lists(st.integers(0, n - 1), min_size=int(k == 0), max_size=2)):
            x[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        inputs.append(x)
    ops = st.sampled_from(sorted(_CHAIN_OPS))
    steps = draw(st.lists(st.tuples(ops, st.integers(0, 99), st.integers(0, 99)),
                          min_size=1, max_size=8))

    def f(*xs):
        values = list(xs)
        for name, i, j in steps:
            op, arity = _CHAIN_OPS[name]
            operands = (values[i % len(values)], values[j % len(values)])[:arity]
            values.append(op(*operands))
        return values[-1]

    return f, inputs


def _outcome(run):
    """run()'s exception as (type, op_name, node_index), or None."""
    try:
        run()
    except ad.NonFiniteError as exc:
        return ad.NonFiniteError, exc.op_name, exc.node_index
    except Exception as exc:
        return type(exc), None, None
    return None


@settings(max_examples=200, deadline=None)
@given(case=_planted_chain())
def test_scan_names_the_node_a_checking_tape_raises_at(case):
    f, inputs = case

    def checked():
        tape = CheckingTape()
        ad.asum(f(*[tape.variable(x) for x in inputs]))  # forward_backward's objective

    with np.errstate(all="ignore"):
        try:
            finite = bool(np.isfinite(np.sum(f(*inputs))))  # untraced
        except ZeroDivisionError:
            finite = False
        ref = _outcome(checked)
        fast = _outcome(lambda: ad.forward_backward(f, inputs))
        if finite:  # intermediates may be non-finite; the objective is not
            assert fast is None
            return
        assert fast == ref
        if ref[0] is ad.NonFiniteError:
            assert _outcome(lambda: ad.gradcheck(f, inputs)) == ref
