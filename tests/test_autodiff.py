import numpy as np
import pytest

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


def test_plain_numpy_dispatch_matches_traced():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))

    def pipeline(v):
        s = ad.softmax(v, axis=0)
        return ad.asum(ad.relu(s - 0.2))

    plain = pipeline(x)
    traced, _ = ad.forward_backward(pipeline, [x])
    assert np.isclose(plain, traced)


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
