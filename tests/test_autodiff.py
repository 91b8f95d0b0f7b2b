import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imvalign import autodiff as ad


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
    out = ad.cumsum(v)
    tape.backward(out, g)
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
    report = ad.gradcheck(ad.relu, [np.array([0.0])], op_name="relu")
    assert report.passed
    assert report.excluded == [(0, 0)]


def test_relu_subgradient_zero_at_kink():
    _, grads = ad.forward_backward(ad.relu, [np.array([0.0, -1.0, 2.0])])
    assert np.array_equal(grads[0], np.array([0.0, 0.0, 1.0]))


def test_nonfinite_intermediate_carries_node_index():
    def f(x):
        y = ad.log(x)  # node 0
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
    f = lambda x, y: ad.asum((x @ y) * w)
    report = ad.gradcheck(f, [a, b], op_name="matmul")
    assert report.passed

    v = rng.normal(size=4)
    f_vec = lambda x, y: ad.asum(x @ y)
    report = ad.gradcheck(f_vec, [v, b], op_name="vec@mat")
    assert report.passed


def test_broadcast_sub_and_unbroadcast():
    rng = np.random.default_rng(4)
    col = rng.normal(size=(4, 1))
    row = rng.normal(size=(1, 6))
    w = rng.normal(size=(4, 6))
    f = lambda a, b: ad.asum((a - b) * (a - b) * w)
    report = ad.gradcheck(f, [col, row], op_name="broadcast-sub")
    assert report.passed


def test_concat_and_getitem_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=5)
    w = rng.normal(size=6)

    def f(v):
        padded = ad.concat([np.zeros(1), ad.cumsum(v)])
        return ad.asum(padded * w) + padded[-1]

    report = ad.gradcheck(f, [x], op_name="concat-getitem")
    assert report.passed


def test_take_rows_accumulates_duplicate_indices():
    emb = np.arange(12.0).reshape(4, 3)
    idx = [1, 1, 2]
    tape = ad.Tape()
    v = tape.variable(emb)
    out = ad.take_rows(v, idx)
    tape.backward(ad.asum(out))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[2] = 1.0
    assert np.array_equal(v.grad, expected)


def test_values_from_different_tapes_rejected():
    a = ad.Tape().variable(np.ones(2))
    b = ad.Tape().variable(np.ones(2))
    with pytest.raises(ValueError):
        _ = a + b


def _same_bits(a, b) -> bool:
    """Equal shape and bytes: sign bits of zeros included."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_plain_numpy_dispatch_matches_traced():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))

    def pipeline(v):
        s = ad.softmax(v, axis=0)
        return ad.asum(ad.relu(s - 0.2))

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
    return lambda x: ad.asum(x, axis=axis, keepdims=keepdims), [_matrix(draw)]


def _concat_case(draw):
    axis, n = draw(st.integers(0, 1)), draw(_dims)
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        shape = (draw(_dims), n) if axis == 0 else (n, draw(_dims))
        parts.append(_array(draw, shape))
    return lambda *p: ad.concat(p, axis=axis), parts


def _take_rows_case(draw):
    m = draw(_dims)
    idx = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
    return lambda x: ad.take_rows(x, idx), [_array(draw, (m, draw(_dims)))]


def _getitem_case(draw):
    key = draw(st.sampled_from([-1, slice(1, None), (slice(None), 0), (slice(None, None, -1), 0)]))
    return lambda x: x[key], [_matrix(draw)]


def _reshape_case(draw):
    m, n = draw(_dims), draw(_dims)
    shape = draw(st.sampled_from([(m * n,), (n, m), (-1, 1)]))
    return lambda x: ad.reshape(x, shape), [_array(draw, (m, n))]


def _matmul_case(draw):
    m, k, n = draw(_dims), draw(_dims), draw(_dims)
    a_shape = draw(st.sampled_from([(m, k), (k,)]))
    b_shape = draw(st.sampled_from([(k, n), (k,)]))
    return ad.matmul, [_array(draw, a_shape), _array(draw, b_shape)]


def _softmax_case(draw):
    axis = draw(st.integers(0, 1))
    return lambda x: ad.softmax(x, axis), [_matrix(draw)]


def _gaussian_logits_case(draw):
    sigma2 = draw(st.floats(0.05, 2.0))
    rows, cols = _array(draw, (draw(_dims),)), _array(draw, (draw(_dims),))
    return lambda r, c: ad.gaussian_logits(r, c, sigma2), [rows, cols]


_PRIMITIVE_CASES = {
    "add": _binary(lambda a, b: a + b),
    "sub": _binary(lambda a, b: a - b),
    "mul": _binary(lambda a, b: a * b),
    "div": _binary(lambda a, b: a / b),
    "exp": _unary(ad.exp),
    "log": _unary(ad.log),
    "tanh": _unary(ad.tanh),
    "relu": _unary(ad.relu),
    "abs": _unary(ad.absolute),
    "sum": _asum_case,
    "mean": _unary(ad.amean),
    "cumsum": lambda draw: (ad.cumsum, [_array(draw, (draw(_dims),))]),
    "concat": _concat_case,
    "take_rows": _take_rows_case,
    "getitem": _getitem_case,
    "reshape": _reshape_case,
    "transpose": _unary(ad.transpose),
    "matmul": _matmul_case,
    "softmax": _softmax_case,
    "gaussian_logits": _gaussian_logits_case,
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
        args = [tape.variable(x) if t else x for x, t in zip(inputs, traced)]
        try:
            out = op(*args)
        except ad.NonFiniteError:
            # the traced path refuses exactly what the plain path lets through
            assert not np.isfinite(plain).all()
            return
    assert isinstance(out, ad.Value) and not isinstance(plain, ad.Value)
    assert _same_bits(plain, out.data)


def test_matmul_rejects_rank3_on_both_paths():
    a, b = np.ones((2, 3, 4)), np.ones((4, 2))
    with pytest.raises(ValueError, match="rank-1 and rank-2"):
        ad.matmul(a, b)
    with pytest.raises(ValueError, match="rank-1 and rank-2"):
        ad.matmul(ad.Tape().variable(a), b)


def test_relu_nan_propagates_untraced_and_raises_traced():
    x = np.array([1.0, np.nan, -1.0])
    plain = ad.relu(x)
    assert plain[0] == 1.0 and np.isnan(plain[1]) and plain[2] == 0.0
    with pytest.raises(ad.NonFiniteError) as exc:
        ad.relu(ad.Tape().variable(x))
    assert exc.value.op_name == "relu"
    assert exc.value.node_index == 0


# -- fused primitives against the primitive chains they replace ---------


def _composed_softmax(x, axis):
    m = np.max(x.data, axis=axis, keepdims=True)
    z = ad.exp(x - m)
    return z / ad.asum(z, axis=axis, keepdims=True)


def _composed_gaussian_logits(rows, cols, sigma2):
    diff = ad.reshape(rows, (-1, 1)) - cols
    return diff * diff * (-1.0 / sigma2)


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
    return out.data, [a.grad for a in args if isinstance(a, ad.Value)]


@pytest.mark.parametrize("axis", [0, 1])
def test_fused_softmax_is_bit_identical_to_chain(axis):
    rng = np.random.default_rng(7)
    for shape in [(5, 7), (1, 4), (6, 1)]:
        x = rng.normal(size=shape) * 3.0
        out, grads = _traced_grads(lambda v: ad.softmax(v, axis), [x], [True])
        ref_out, ref_grads = _traced_grads(lambda v: _composed_softmax(v, axis), [x], [True])
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grads[0], ref_grads[0])
        assert np.array_equal(ad.softmax(x, axis), ref_out)


@pytest.mark.parametrize("traced", [(True, False), (False, True), (True, True)])
def test_fused_gaussian_logits_is_bit_identical_to_chain(traced):
    rng = np.random.default_rng(8)
    for t1, t2 in [(5, 9), (1, 3), (4, 1)]:
        rows = rng.normal(size=t1) * 2.0
        cols = np.arange(t2, dtype=np.float64)
        f = lambda r, c: ad.gaussian_logits(r, c, 0.3)
        ref = lambda r, c: _composed_gaussian_logits(r, c, 0.3)
        out, grads = _traced_grads(f, [rows, cols], traced)
        ref_out, ref_grads = _traced_grads(ref, [rows, cols], traced)
        assert np.array_equal(out, ref_out)
        assert len(grads) == len(ref_grads) == sum(traced)
        for g, r in zip(grads, ref_grads):
            assert np.array_equal(g, r)
        assert np.array_equal(ad.gaussian_logits(rows, cols, 0.3), ref_out)


def test_fused_nodes_record_one_node_each():
    tape = ad.Tape()
    x = tape.variable(np.ones(3))
    ad.softmax(ad.gaussian_logits(x, np.arange(4.0), 0.25), axis=0)
    assert [n.name for n in tape.nodes] == ["gaussian_logits", "softmax"]


@pytest.mark.parametrize("axis", [0, 1])
def test_softmax_gradcheck(axis):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=(4, 5))
    report = ad.gradcheck(lambda v: ad.asum(ad.softmax(v, axis) * w), [x], op_name="softmax")
    assert report.passed


def test_gaussian_logits_gradcheck():
    rng = np.random.default_rng(10)
    rows = rng.normal(size=4) * 2.0
    cols = rng.normal(size=6) * 2.0
    w = rng.normal(size=(4, 6))
    f = lambda r, c: ad.asum(ad.gaussian_logits(r, c, 0.5) * w)
    report = ad.gradcheck(f, [rows, cols], op_name="gaussian_logits")
    assert report.passed
