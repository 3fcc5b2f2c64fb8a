import gc
import inspect
import tracemalloc

import numpy as np
import pytest

from wasecom import gradcheck, tensor as T
from wasecom.tensor import Tensor
from wasecom.optim import Adam, Sgd
from wasecom.gradcheck import check_case, numeric_gradients, random_graph_suite


def test_mul_elementwise_values_and_grads():
    a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
    out = a * b
    assert np.array_equal(out.data, [4.0, 10.0, 18.0])
    out.sum().backward()
    assert np.array_equal(a.grad, [4.0, 5.0, 6.0])
    assert np.array_equal(b.grad, [1.0, 2.0, 3.0])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    eye = Tensor(np.eye(4))
    out = T.matmul(a, eye)
    assert np.array_equal(out.data, a.data)
    out.sum().backward()
    assert np.array_equal(a.grad, np.ones((4, 4)))


def test_relu_values_and_grads():
    x = Tensor([-2.0, 3.0], requires_grad=True)
    y = x.relu()
    assert np.array_equal(y.data, [0.0, 3.0])
    y.sum().backward()
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_mean_times_count_equals_sum():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = Tensor(rng.normal(size=(3, 5)))
        assert abs(float(x.mean().data) * x.size - float(x.sum().data)) <= 1e-12


def test_chain_rule_square_scale():
    x = Tensor([1.5, -0.5], requires_grad=True)
    y = T.scale(x.square(), 3.0).sum()
    y.backward()
    assert np.allclose(x.grad, 6.0 * x.data, atol=1e-12)


def test_constant_loss_leaves_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = Tensor(7.0)
    # no dependence on x; x keeps its zero-initialized grad buffer
    assert np.array_equal(x.grad, [0.0, 0.0])
    assert loss._parents == ()


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x.square()
    with pytest.raises(ValueError):
        y.backward()


def test_repeated_backward_errors():
    x = Tensor([1.0], requires_grad=True)
    y = x.square().sum()
    y.backward()
    with pytest.raises(RuntimeError):
        y.backward()


def test_shape_mismatch_names_op_and_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ValueError, match=r"add.*\(2, 3\).*\(4, 5\)"):
        T.add(a, b)
    with pytest.raises(ValueError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        T.matmul(a, Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("op", ["sub", "mul"])
def test_elementwise_shape_mismatch_names_op_and_shapes(op):
    with pytest.raises(ValueError, match=rf"{op}.*\(2, 3\).*\(4, 5\)"):
        getattr(T, op)(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def _dense_inputs(case):
    """x, w, b and an upstream gradient: a small layer, the text hidden layer
    (B * seq_len = 256 rows of 8-wide embeddings into 64 units), or a layer
    whose pre-activation holds 0.0 and NaN."""
    rows, cols, width = {"small": (5, 4, 3), "text": (256, 8, 64), "special": (6, 4, 3)}[case]
    rng = np.random.default_rng(0)
    x0, w0 = rng.normal(size=(rows, cols)), rng.normal(size=(cols, width))
    b0 = rng.normal(size=width)
    if case == "special":
        x0[:3] = 0.0                 # these rows' pre-activation is the bias itself
        # a matmul row is +0.0, never -0.0, so -0.0 + it is 0.0: the mask
        # test below covers a -0.0 pre-activation
        b0[:] = (0.0, np.nan, -0.0)
    return x0, w0, b0, rng.normal(size=(rows, width))


def _dense_and_chain(activation, case="small"):
    """Forward values and all three gradients of dense and of the op chain."""
    x0, w0, b0, upstream = _dense_inputs(case)
    results = []
    for fused in (True, False):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        if fused:
            y = T.dense(x, w, b, activation)
        else:
            y = T.matmul(x, w) + b
            y = {"tanh": T.tanh, "relu": T.relu, None: lambda t: t}[activation](y)
        (y * Tensor(upstream)).sum().backward()
        results.append((y.data, x.grad, w.grad, b.grad))
    return results


@pytest.mark.parametrize("activation,case", [
    pytest.param("tanh", "small", id="tanh"), pytest.param("relu", "small", id="relu"),
    pytest.param(None, "small", id="None"), pytest.param("tanh", "text", id="text-tanh"),
    pytest.param("relu", "text", id="text-relu"), pytest.param(None, "text", id="text-None"),
    pytest.param("relu", "special", id="relu-zero-nan"),
])
def test_dense_is_bitwise_equal_to_op_chain(activation, case):
    fused, chain = _dense_and_chain(activation, case)
    for got, want in zip(fused, chain):
        assert np.array_equal(got, want, equal_nan=True)
    if case == "special":
        assert np.isnan(fused[0][:, 1]).all() and (fused[0][:3, [0, 2]] == 0.0).all()


def test_relu_mask_from_output_equals_mask_from_pre_activation():
    # dense's relu backward reads y = max(pre, 0) > 0 where the chain reads pre > 0
    pre = np.array([-1.5, -0.0, 0.0, 2.0, np.nan, -np.inf, np.inf, 5e-324, -5e-324])
    assert np.array_equal(np.maximum(pre, 0.0) > 0, pre > 0)


@pytest.mark.parametrize("activation", ["tanh", "relu", None])
def test_dense_writes_neither_its_inputs_nor_the_incoming_gradient(activation):
    rng = np.random.default_rng(1)
    x, w, b = (Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in ((6, 4), (4, 3), (3,)))
    before = [t.data.copy() for t in (x, w, b)]
    y = T.dense(x, w, b, activation)
    T.tmean(y).backward()
    for t, data in zip((x, w, b), before):
        assert np.array_equal(t.data, data)
    # tmean hands dense a read-only broadcast view of 1 / count
    assert not y.grad.flags.writeable
    assert np.array_equal(y.grad, np.full((6, 3), 1.0 / 18))


def test_mlp_forward_keeps_one_array_per_hidden_layer():
    rows, width = 256, 64
    rng = np.random.default_rng(0)
    layers = [(Tensor(rng.uniform(-0.3, 0.3, size=(m, n)), requires_grad=True),
               Tensor(np.zeros(n), requires_grad=True))
              for m, n in ((8, width), (width, width), (width, 8))]
    x = Tensor(np.random.default_rng(1).normal(size=(rows, 8)), requires_grad=True)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = x
        for i, (w, b) in enumerate(layers):
            out = T.dense(out, w, b, "tanh" if i < len(layers) - 1 else None)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert out._parents
    hidden_array = rows * width * 8
    # two hidden outputs and the (256, 8) result: no pre-activation copies
    assert held < 3 * hidden_array, held


def test_dense_shape_mismatch_names_matmul():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"matmul.*incompatible"):
        T.dense(x, Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(ValueError, match=r"add.*incompatible"):
        T.dense(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros(5)))
    with pytest.raises(ValueError, match="activation"):
        T.dense(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)), "sigmoid")


def test_dense_without_grad_builds_no_graph():
    out = T.dense(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.zeros(2)), "tanh")
    assert out._parents == () and out._backward is None


def test_first_gradient_write_does_not_alias_upstream_grad():
    # add hands its own grad buffer downstream and the first write keeps it, so
    # the second branch's write must build a new array, or it would also change
    # the upstream node's grad
    x = Tensor(np.ones(3), requires_grad=True)
    h = x + Tensor(np.ones(3))
    y = h + h
    y.sum().backward()
    assert np.array_equal(y.grad, np.ones(3))
    assert np.array_equal(h.grad, 2 * np.ones(3))
    assert np.array_equal(x.grad, 2 * np.ones(3))


def test_backward_from_a_leaf_root():
    x = Tensor(np.array([2.5]), requires_grad=True)
    x.backward()
    assert np.array_equal(x.grad, [1.0])
    c = Tensor(4.0)  # a constant has no buffer; backward gives it one
    c.backward()
    assert np.array_equal(c.grad, 1.0)
    assert T._topological_order(x) == [] and T._topological_order(c) == []


def test_leaf_shared_by_many_nodes_accumulates_into_its_own_buffer():
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Sgd([w], lr=0.1)
    xs = [np.array([1.0, 2.0, 3.0]) * k for k in range(1, 6)]
    loss = T.tsum(sum((w * Tensor(x) for x in xs), Tensor(np.zeros(3))))
    loss.backward()
    assert np.array_equal(w.grad, sum(xs))
    # the leaf's buffer is still the optimizer's: written in place, not rebound
    assert np.shares_memory(w.grad, opt.grad) and np.array_equal(opt.grad, sum(xs))


def test_fan_out_and_fan_in_gradients_are_exact():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    h = x * Tensor(np.full(3, 2.0))
    s = h + h                        # one parent twice
    p = h * Tensor(np.full(3, 3.0))  # h has four children: s, p, q, r
    q = T.scale(h, 5.0)
    r = h.reshape(3)
    total = s + p + q + r
    total.sum().backward()
    # tsum hands down one read-only broadcast array, which add passes on by
    # reference: a write into an interior grad in place would fail here
    for node in (total, s, p, q, r):
        assert np.array_equal(node.grad, np.ones(3))
    assert np.array_equal(h.grad, np.full(3, 11.0))
    assert np.array_equal(x.grad, np.full(3, 22.0))
    assert not np.shares_memory(h.grad, s.grad)
    h.zero_grad()  # an interior node drops its gradient, it does not write into it
    assert h.grad is None and np.array_equal(s.grad, np.ones(3))


def _fused_and_chain(fused_fn, chain_fn, inputs, needs_grad, upstream_seed=1):
    """Values and leaf gradients of a fused op and of its op chain, on equal inputs.

    Each input that needs grad enters through a matmul with a leaf weight, so
    the op's input is an interior node as in the pipeline.
    """
    results = []
    for fn in (fused_fn, chain_fn):
        leaves, args = [], []
        for a, grad in zip(inputs, needs_grad):
            if grad:
                w = Tensor(np.eye(a.shape[1]) * 0.5 + 0.1, requires_grad=True)
                x = Tensor(a.copy(), requires_grad=True)
                leaves += [x, w]
                args.append(T.matmul(x, w))
            else:
                args.append(Tensor(a.copy()))
        y = fn(*args)
        upstream = np.random.default_rng(upstream_seed).normal(size=y.shape)
        (y * Tensor(upstream)).sum().backward()
        results.append([y.data] + [p.grad for p in leaves])
    return results


def _assert_bitwise(results):
    fused, chain = results
    assert len(fused) == len(chain)
    for got, want in zip(fused, chain):
        assert np.array_equal(got, want)


def test_rms_normalize_is_bitwise_equal_to_op_chain():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 5))
    a[3] = 0.0   # all-zero row: eps alone sets its scale

    def chain(u):
        power = u.square().mean(axis=1) + Tensor(np.full(u.shape[0], 1e-12))
        return u * power.pow(-0.5).reshape(u.shape[0], 1)

    results = _fused_and_chain(lambda u: T.rms_normalize(u, 1e-12), chain, [a], [True])
    _assert_bitwise(results)
    y = results[0][0]
    assert np.allclose(np.mean(np.delete(y, 3, axis=0) ** 2, axis=1), 1.0)
    assert np.array_equal(y[3], np.zeros(5))


def test_scale_shift_is_bitwise_equal_to_op_chain():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(5, 4))
    h = np.repeat(rng.rayleigh(scale=1 / np.sqrt(2), size=(5, 1)), 4, axis=1)
    w = rng.normal(scale=0.3, size=(5, 4))
    _assert_bitwise(_fused_and_chain(lambda t: T.scale_shift(t, h, w),
                                     lambda t: Tensor(h) * t + Tensor(w), [u], [True]))


@pytest.mark.parametrize("needs_grad", [(True, False), (True, True)])
def test_row_mse_is_bitwise_equal_to_op_chain(needs_grad):
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
    _assert_bitwise(_fused_and_chain(T.row_mse, lambda x, y: (x - y).square().mean(axis=1),
                                     [a, b], needs_grad))


def _mean_ref(a, axis=None):
    """tmean as written on ndarray.mean, with expand_dims and broadcast-then-divide."""
    count = a.data.size if axis is None else a.data.shape[axis]

    def _bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape) / count)

    return T._node(a.data.mean(axis=axis), (a,), _bw)


@pytest.mark.parametrize("axis", [None, 0, 1, -1])
def test_tmean_is_bitwise_equal_to_ndarray_mean(axis):
    a = np.random.default_rng(5).normal(size=(6, 7)) * 1e3
    y = T.tmean(Tensor(a), axis)
    want = a.mean(axis=axis)
    assert np.array_equal(y.data, want) and y.data.shape == np.shape(want)
    _assert_bitwise(_fused_and_chain(lambda u: T.tmean(u, axis), lambda u: _mean_ref(u, axis),
                                     [a], [True]))


@pytest.mark.parametrize("needs_grad", [(True, False), (True, True)])
def test_row_mse_is_bitwise_equal_to_ndarray_mean_chain(needs_grad):
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(6, 5)) * 1e3, rng.normal(size=(6, 5))
    assert np.array_equal(T.row_mse(Tensor(a), Tensor(b)).data, ((a - b) ** 2).mean(axis=1))
    _assert_bitwise(_fused_and_chain(T.row_mse, lambda x, y: _mean_ref((x - y).square(), 1),
                                     [a, b], needs_grad))


def test_rms_normalize_is_bitwise_equal_to_ndarray_mean_chain():
    a = np.random.default_rng(7).normal(size=(6, 5)) * 1e3
    power = (a * a).mean(axis=1) + 1e-12
    assert np.array_equal(T.rms_normalize(Tensor(a), 1e-12).data,
                          a * (power ** -0.5).reshape(6, 1))

    def chain(u):
        power = _mean_ref(u.square(), 1) + Tensor(np.full(u.shape[0], 1e-12))
        return u * power.pow(-0.5).reshape(u.shape[0], 1)

    _assert_bitwise(_fused_and_chain(lambda u: T.rms_normalize(u, 1e-12), chain, [a], [True]))


def _assert_same_bytes(results):
    """Like _assert_bitwise, but a -0.0 where the chain has 0.0 fails too."""
    fused, chain = results
    assert len(fused) == len(chain)
    for got, want in zip(fused, chain):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _token_nll_chain(logits, ids, seq_len):
    nll = T.logsumexp(logits) - T.select_columns(logits, ids)
    return nll.reshape(len(ids) // seq_len, seq_len).mean(axis=1)


def _token_nll_inputs(seq_len, vocab):
    """Logits of 3 sequences, their ids and an upstream gradient.  Two rows spread
    their logits by thousands, so exp underflows to 0 off their maximum: one in
    a sequence whose upstream gradient is negative, one where it is positive."""
    n = 3 * seq_len
    rng = np.random.default_rng(seq_len * 100 + vocab)
    x, w, b = rng.normal(size=(n, 4)), rng.normal(size=(4, vocab)), rng.normal(size=vocab)
    x[0] *= 3000.0
    x[seq_len] *= 3000.0
    ids = rng.integers(0, vocab, size=n)
    return x, w, b, ids, np.array([-1.3, 0.7, -0.4])


@pytest.mark.parametrize("vocab", [8, 32])
@pytest.mark.parametrize("seq_len", [1, 8])
@pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "chain"])
def test_token_nll_is_bytewise_equal_to_op_chain(seq_len, vocab, leaf):
    x0, w0, b0, ids, upstream = _token_nll_inputs(seq_len, vocab)
    results = []
    for fn in (T.token_nll, _token_nll_chain):
        if leaf:
            logits = Tensor(x0 @ w0 + b0, requires_grad=True)
            leaves = [logits]
        else:   # the logits are a dense layer's output, as in the pipeline
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0)]
            logits = T.dense(*leaves)
        y = fn(logits, ids, seq_len)
        (y * Tensor(upstream)).sum().backward()
        results.append([y.data, logits.grad] + [p.grad for p in leaves])
    _assert_same_bytes(results)
    # the softmax underflows in the first rows of sequences 0 and 1; times the
    # negative upstream gradient it is -0.0, and the chain's add of the
    # select term's zeros makes that 0.0
    logits_grad = results[1][1]
    for row in (0, seq_len):
        zeros = logits_grad[row] == 0.0
        assert zeros.any() and not np.signbit(logits_grad[row][zeros]).any()


@pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "chain"])
def test_row_sq_dist_is_bytewise_equal_to_op_chain(leaf):
    rng = np.random.default_rng(10)
    a, x = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
    a[2] = x[2]   # a row at the center: zero distance and zero gradient

    def chain(u):
        return (u - Tensor(x)).square().sum(axis=1)

    if not leaf:
        _assert_same_bytes(_fused_and_chain(lambda u: T.row_sq_dist(u, x), chain, [a], [True]))
        return
    upstream = rng.normal(size=6)
    results = []
    for fn in (lambda u: T.row_sq_dist(u, x), chain):
        u = Tensor(a.copy(), requires_grad=True)
        y = fn(u)
        (y * Tensor(upstream)).sum().backward()
        results.append([y.data, u.grad])
    _assert_same_bytes(results)
    assert results[0][0][2] == 0.0


def test_token_nll_and_row_sq_dist_pass_gradcheck():
    rng = np.random.default_rng(12)
    ids = rng.integers(0, 5, size=6)
    x = rng.normal(size=(4, 3))
    for name, forward, leaves in (
            ("token-nll", lambda p: T.token_nll(T.matmul(p[0], p[1]), ids, 3).mean(),
             [rng.normal(size=(6, 4)), rng.normal(size=(4, 5))]),
            ("row-sq-dist", lambda p: T.row_sq_dist(T.tanh(p[0]), x).mean(),
             [rng.normal(size=(4, 3))])):
        res = check_case(name, forward, leaves)
        assert res.ok, res


def test_node_takes_a_float64_array_as_is():
    data = np.ones((2, 3))
    out = T._node(data, (Tensor(np.zeros(3)),), None)
    assert out.data is data and out.grad is None and not out.requires_grad
    assert out._parents == () and out._backward is None and not out._backward_ran
    # anything else goes through the constructor's conversion
    for other in (np.float64(2.0), np.ones(3, dtype=np.float32), 1.5):
        out = T._node(other, (), None)
        assert out.data.__class__ is np.ndarray and out.data.dtype == np.float64


def test_fused_ops_shape_errors_keep_chain_messages():
    u = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"mul: incompatible shapes \(4, 5\) and \(2, 3\)"):
        T.scale_shift(u, np.ones((4, 5)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"add: incompatible shapes \(2, 3\) and \(4, 5\)"):
        T.scale_shift(u, np.ones((2, 3)), np.zeros((4, 5)))
    with pytest.raises(ValueError, match=r"sub: incompatible shapes \(2, 3\) and \(4, 5\)"):
        T.row_mse(u, Tensor(np.zeros((4, 5))))
    with pytest.raises(ValueError, match=r"rms_normalize.*\(3,\)"):
        T.rms_normalize(Tensor(np.zeros(3)), 1e-12)
    with pytest.raises(ValueError, match=r"sub: incompatible shapes \(2, 3\) and \(4, 5\)"):
        T.row_sq_dist(u, np.zeros((4, 5)))
    with pytest.raises(ValueError, match=r"row_sq_dist.*\(3,\)"):
        T.row_sq_dist(Tensor(np.zeros(3)), np.zeros(3))
    with pytest.raises(ValueError, match=r"token_nll: \(2, 3\) logits do not hold 3 ids"):
        T.token_nll(u, np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError, match=r"token_nll.*in sequences of 4"):
        T.token_nll(u, np.zeros(2, dtype=int), 4)


def test_fused_ops_without_grad_build_no_graph():
    u, v = Tensor(np.ones((2, 3))), Tensor(np.full((2, 3), 2.0))
    w, b = Tensor(np.ones((3, 2))), Tensor(np.zeros(2))
    ids = np.array([1, 0])
    outs = {
        "add": T.add(u, v), "sub": T.sub(u, v), "mul": T.mul(u, v), "scale": T.scale(u, 2.0),
        "matmul": T.matmul(u, w), "dense": T.dense(u, w, b, "tanh"),
        "rms_normalize": T.rms_normalize(u, 1e-12),
        "scale_shift": T.scale_shift(u, np.ones((2, 3)), np.zeros((2, 3))),
        "row_mse": T.row_mse(u, v), "relu": T.relu(u), "tanh": T.tanh(u), "exp": T.exp(u),
        "log": T.log(u), "square": T.square(u), "power": T.power(u, 1.5),
        "tsum": T.tsum(u, 1), "tmean": T.tmean(u), "reshape": T.reshape(u, (3, 2)),
        "gather_rows": T.gather_rows(u, ids), "select_columns": T.select_columns(u, ids),
        "logsumexp": T.logsumexp(u), "row_sq_dist": T.row_sq_dist(u, np.zeros((2, 3))),
        "token_nll": T.token_nll(u, ids, 1),
    }
    ops = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
           if fn.__module__ == T.__name__ and not name.startswith("_")}
    assert set(outs) == ops
    for name, out in outs.items():
        assert out._parents == () and out._backward is None, name


def test_dropped_graphs_leave_no_reference_cycles():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            h = T.dense(x, w, b, "tanh")
            T.logsumexp(T.rms_normalize(h, 1e-12)).sum().backward()
            del h
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bias_broadcast_gradient_sums_over_batch():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    (x + b).sum().backward()
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])


def test_gradient_accumulates_across_fanout():
    x = Tensor([2.0], requires_grad=True)
    y = x * x + x.square()  # both branches contribute 2x
    y.sum().backward()
    assert np.allclose(x.grad, [8.0])


def test_gradient_linearity():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(3, 3))

    def run(a, b):
        x = Tensor(x0.copy(), requires_grad=True)
        f = x.tanh().square().sum()
        g = T.exp(T.scale(x, 0.5)).mean()
        loss = T.scale(f, a) + T.scale(g, b)
        loss.backward()
        return x.grad.copy()

    ga, gb, gc = run(1.0, 0.0), run(0.0, 1.0), run(1.7, -0.3)
    assert np.allclose(gc, 1.7 * ga - 0.3 * gb, atol=1e-10)


def test_forward_determinism_bitwise():
    def build(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        y = T.matmul(x, Tensor(rng.normal(size=(4, 2)))).tanh().square().mean()
        y.backward()
        return y.data.copy(), x.grad.copy()

    v1, g1 = build(42)
    v2, g2 = build(42)
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


def test_logsumexp_matches_numpy_and_grad_is_softmax():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 5)) * 10, requires_grad=True)
    y = T.logsumexp(x)
    ref = np.log(np.exp(x.data - x.data.max(-1, keepdims=True)).sum(-1)) + x.data.max(-1)
    assert np.allclose(y.data, ref, atol=1e-12)
    y.sum().backward()
    soft = np.exp(x.data - ref[:, None])
    assert np.allclose(x.grad, soft, atol=1e-10)


def test_gather_rows_scatter_add_on_repeats():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = T.gather_rows(table, np.array([0, 2, 0]))
    out.sum().backward()
    assert np.array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_finite_difference_harness_on_known_gradient():
    x0 = np.array([0.3, -0.7])
    (g,) = numeric_gradients(lambda p: p[0].square().sum(), [x0])
    assert np.allclose(g, 2 * x0, atol=1e-8)


def _numeric_gradients_with_fresh_copies(forward, leaves, h=1e-5):
    """The finite-difference loop that copies every leaf for every forward pass."""
    grads = []
    for k in range(len(leaves)):
        g = np.zeros_like(leaves[k])
        flat = g.reshape(-1)
        for i in range(leaves[k].size):
            bumped = [a.copy() for a in leaves]
            bumped[k].reshape(-1)[i] += h
            hi = float(forward([Tensor(a) for a in bumped]).data)
            bumped[k].reshape(-1)[i] -= 2 * h
            lo = float(forward([Tensor(a) for a in bumped]).data)
            flat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def test_numeric_gradients_bump_in_place_bitwise():
    # the shared working copy must give the same bits as fresh copies, and
    # leave the caller's leaves untouched
    rng = np.random.default_rng(17)
    for make in gradcheck._CASES * 2:
        name, forward, leaves = make(rng)
        before = [a.copy() for a in leaves]
        got = numeric_gradients(forward, leaves)
        want = _numeric_gradients_with_fresh_copies(forward, leaves)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), name
        assert all(np.array_equal(a, b) for a, b in zip(leaves, before)), name


def test_gradcheck_smoke_suite():
    results = random_graph_suite(n_graphs=12, seed=11)
    bad = [r for r in results if not r.ok]
    assert not bad, f"finite-difference mismatches: {bad}"


def test_gradcheck_detects_wrong_gradient():
    # negative control: feed the finite-difference probe a slightly different
    # map than the one autodiff saw; the checker must flag the mismatch
    calls = {"n": 0}

    def forward(p):
        calls["n"] += 1
        k = 1.0 if calls["n"] == 1 else 1.001
        return T.scale(p[0].square().sum(), k)

    res = check_case("mismatch", forward, [np.array([1.0, 2.0])])
    assert not res.ok and res.max_rel_err > 1e-4


def test_sgd_zero_lr_keeps_params():
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.square().sum().backward()
    before = p.data.copy()
    Sgd([p], lr=0.0).step()
    assert np.array_equal(p.data, before)


def test_sgd_single_step():
    p = Tensor([3.0], requires_grad=True)
    p.square().sum().backward()  # grad = 6
    Sgd([p], lr=0.1).step()
    assert np.allclose(p.data, [3.0 - 0.6], atol=1e-15)


def test_sgd_missing_grad_errors():
    p = Tensor([1.0])  # requires_grad False -> no grad buffer
    with pytest.raises(ValueError):
        Sgd([p], lr=0.1).step()


def test_adam_first_step_magnitude_close_to_lr():
    # bias-corrected first step is lr * g / (|g| + eps): magnitude ~ lr
    p = Tensor([2.0, -1.0], requires_grad=True)
    (p * Tensor([3.0, -0.5])).sum().backward()  # grads 3.0, -0.5
    before = p.data.copy()
    Adam([p], lr=0.01).step()
    delta = p.data - before
    assert np.all(np.sign(delta) == [-1.0, 1.0])
    assert np.allclose(np.abs(delta), 0.01, rtol=1e-6)


def test_adam_trajectory_is_deterministic():
    def run():
        p = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        opt = Adam([p], lr=0.05)
        for _ in range(25):
            opt.zero_grad()
            (p.square().sum()).backward()
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


class _PerParamAdam:
    """Reference: Adam as one update per parameter, each with its own moments."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr = params, lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


class _PerParamSgd:
    def __init__(self, params, lr):
        self.params, self.lr = params, lr

    def step(self):
        for p in self.params:
            p.data -= self.lr * p.grad

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def _mixed_params():
    """A weight matrix, a 1-D bias and a text embedding table."""
    rng = np.random.default_rng(9)
    return [Tensor(rng.normal(size=(4, 3)), requires_grad=True),
            Tensor(rng.normal(size=3) * 0.1, requires_grad=True),
            Tensor(rng.normal(size=(8, 4)), requires_grad=True)]


def _mixed_loss(params, step):
    w, b, table = params
    ids = np.random.default_rng(step).integers(0, 8, size=6)
    y = T.dense(T.gather_rows(table, ids), w, b, "tanh")
    return (y - Tensor(np.full((6, 3), 0.3))).square().mean()


@pytest.mark.parametrize("flat_cls, ref_cls, lr", [(Adam, _PerParamAdam, 0.05),
                                                   (Sgd, _PerParamSgd, 0.1)])
def test_flat_optimizer_matches_per_parameter_loop(flat_cls, ref_cls, lr):
    flat_params, ref_params = _mixed_params(), _mixed_params()
    flat, ref = flat_cls(flat_params, lr), ref_cls(ref_params, lr)
    for step in range(25):
        for opt, params in ((flat, flat_params), (ref, ref_params)):
            opt.zero_grad()
            _mixed_loss(params, step).backward()
            opt.step()
        for p, q in zip(flat_params, ref_params):
            assert p.data.shape == q.data.shape
            assert np.array_equal(p.data, q.data)
            assert np.array_equal(p.grad, q.grad)
    # the parameters are views of the optimizer's two flat buffers
    assert all(np.shares_memory(p.data, flat.data) for p in flat_params)
    assert all(np.shares_memory(p.grad, flat.grad) for p in flat_params)


def test_flat_optimizer_keeps_initial_values_and_zeroes_grads():
    params = _mixed_params()
    before = [p.data.copy() for p in params]
    _mixed_loss(params, 0).backward()
    grads = [p.grad.copy() for p in params]
    opt = Adam(params, lr=0.01)
    for p, d, g in zip(params, before, grads):
        assert np.array_equal(p.data, d) and np.array_equal(p.grad, g)
    opt.zero_grad()
    assert all(not p.grad.any() for p in params)


@pytest.mark.parametrize("cls", [Adam, Sgd])
def test_optimizer_rejects_duplicate_parameter(cls):
    p, q = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="more than once"):
        cls([p, q, p], lr=0.1)


def test_heap_pad_call_never_raises(monkeypatch):
    def no_libc(*_args, **_kwargs):
        raise OSError("cannot load the C library")

    monkeypatch.setattr(T.ctypes, "CDLL", no_libc)
    T._keep_freed_heap_mapped()
    monkeypatch.setattr(T.ctypes, "CDLL", lambda *_args, **_kwargs: object())  # no mallopt
    T._keep_freed_heap_mapped()
    monkeypatch.undo()
    T._keep_freed_heap_mapped()   # a second real call only sets the same pad again
    T._keep_freed_heap_mapped()
