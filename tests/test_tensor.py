import math
import tracemalloc
import weakref

import numpy as np
import pytest

import tensor_reference as ref
from entqa import tensor as T
from entqa.tensor import Tensor


def numerical_grad(fn, x: np.ndarray, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


# (id, input shapes, op over the input tensors); every op of the engine
# appears, with broadcasting on both sides of + and *
KEY_MASK = np.array([[True, True, False], [True, False, True]])
# x, ln_g, ln_b, w1, b1, w2, b2
FFN_SHAPES = [(2, 3, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,)]
# x, ln_g, ln_b, wq, bq, wk, wv, bv, wo, bo
ATTENTION_SHAPES = [(2, 3, 4), (4,), (4,), (4, 4), (4,), (4, 4), (4, 4), (4,),
                    (4, 4), (4,)]
OPS = [
    ("add_trailing", [(2, 3, 4), (4,)], lambda a, b: a + b),
    ("add_both_sides", [(2, 1, 4), (3, 1)], lambda a, b: a + b),
    ("radd_scalar", [(2, 3)], lambda a: 2.0 + a),
    ("mul_trailing", [(2, 3, 4), (4,)], lambda a, b: a * b),
    ("mul_both_sides", [(2, 1, 4), (3, 1)], lambda a, b: a * b),
    ("mul_self", [(3, 2)], lambda a: a * a),
    ("matmul", [(4, 3), (3, 5)], lambda a, b: a.matmul(b)),
    ("matmul_batched_2d_weight", [(2, 3, 4), (4, 5)], lambda a, b: a @ b),
    ("matmul_batched_both", [(2, 3, 4), (2, 4, 5)], lambda a, b: a @ b),
    ("linear", [(2, 3, 4), (4, 5), (5,)], T.linear),
    ("ffn", FFN_SHAPES, T.ffn),
    ("reshape", [(2, 3, 4)], lambda a: a.reshape(6, 4)),
    ("getitem_slice", [(3, 4)], lambda a: a[:, 1:3]),
    ("getitem_int_and_slice", [(2, 3, 4)], lambda a: a[:, 0]),
    ("getitem_repeated_fancy", [(3, 4)], lambda a: a[np.array([0, 2, 0, 0])]),
    ("getitem_fancy_pairs", [(3, 4)],
     lambda a: a[np.array([1, 1, 2]), np.array([0, 0, 3])]),
    ("sum_all", [(2, 3, 4)], lambda a: a.sum()),
    ("gelu", [(2, 5)], T.gelu),
    ("layer_norm", [(2, 3, 5), (5,), (5,)], T.layer_norm),
    ("embedding_repeated_ids", [(4, 3)],
     lambda t: T.embedding(t, np.array([[0, 2, 0], [1, 1, 3]]))),
    ("dropout_fixed_rng", [(3, 4)],
     lambda a: T.dropout(a, 0.3, np.random.default_rng(0), True, (3, 4))),
    ("softmax_cross_entropy", [(4, 5)],
     lambda a: T.softmax_cross_entropy(a, np.array([0, 2, 4, 2]))),
    ("bce_with_logits", [(2, 3)],
     lambda a: T.binary_cross_entropy_with_logits(a, np.array([[0, 1, 1],
                                                               [1, 0, 0]]))),
    ("attention_key_mask", ATTENTION_SHAPES,
     lambda *a: T.attention(*a, 1, mask=KEY_MASK)),
    # [B, L, d] split into two heads of width 2, as the model calls it
    ("attention_heads_key_mask", ATTENTION_SHAPES,
     lambda *a: T.attention(*a, 2, mask=KEY_MASK)),
]
OP_IDS = [case[0] for case in OPS]


def _inputs(shapes, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=s) for s in shapes]


@pytest.mark.parametrize("name,shapes,op", OPS, ids=OP_IDS)
def test_op_gradient_matches_finite_differences(name, shapes, op):
    arrays = _inputs(shapes)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors)
    # a random weighting keeps gradients like softmax's from cancelling
    w = np.random.default_rng(12).normal(size=out.shape)
    (out * Tensor(w)).sum().backward()

    def loss():
        return float((op(*[Tensor(a) for a in arrays]).data * w).sum())

    for t, a in zip(tensors, arrays):
        assert t.grad.shape == a.shape
        np.testing.assert_allclose(t.grad, numerical_grad(loss, a),
                                   rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("name,shapes,op", OPS, ids=OP_IDS)
def test_op_on_constants_records_no_edges(name, shapes, op):
    out = op(*[Tensor(a) for a in _inputs(shapes)])
    assert out._node is None
    assert not out.requires_grad


@pytest.mark.parametrize("name,shapes,op",
                         [case for case in OPS if len(case[1]) > 1],
                         ids=[case[0] for case in OPS if len(case[1]) > 1])
def test_backward_leaves_constant_grad_none(name, shapes, op):
    for const in range(len(shapes)):
        tensors = [Tensor(a, requires_grad=i != const)
                   for i, a in enumerate(_inputs(shapes))]
        op(*tensors).sum().backward()
        for i, t in enumerate(tensors):
            assert (t.grad is None) == (i == const), (const, i)


def test_adopted_gradient_is_never_written_in_place():
    # `a + b` hands both inputs the same gradient array, which each adopts;
    # a's second gradient must not leak into b's
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    ((a + b) + a * 2.0).sum().backward()
    np.testing.assert_array_equal(a.grad, [3.0, 3.0, 3.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])


def test_third_gradient_adds_into_the_owned_sum():
    # each later gradient makes a fresh sum, with the bits of
    # ((g1 + g2) + g3); no gradient handed in is written
    rng = np.random.default_rng(13)
    g1, g2, g3 = (rng.normal(size=(4, 5)) for _ in range(3))
    before = [g.copy() for g in (g1, g2, g3)]
    node = T._Node((4, 5))
    for g in (g1, g2, g3):
        node.accumulate(g)
    assert np.array_equal(node.grad.view(np.uint64),
                          ((g1 + g2) + g3).view(np.uint64))
    for g, b in zip((g1, g2, g3), before):
        np.testing.assert_array_equal(g, b)


def test_shared_gradient_survives_a_third_consumer():
    # a adopts the array `a + b` hands both inputs, then takes two more
    # gradients; b's copy of that array must not change
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    ((a + b) + a * 2.0 + a * 3.0).sum().backward()
    np.testing.assert_array_equal(a.grad, [6.0, 6.0, 6.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])


def test_second_backward_raises():
    w = Tensor(np.ones(3), requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    with pytest.raises(T.GradientError):
        loss.backward()
    np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])


def test_backward_through_a_freed_subgraph_raises():
    w = Tensor(np.ones(3), requires_grad=True)
    h = w * w
    other = (h * 3.0).sum()    # recorded before h's graph is walked
    h.sum().backward()
    with pytest.raises(T.GradientError):
        other.backward()
    np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])


def test_scalar_gradient_keeps_its_shape():
    x = Tensor(2.0, requires_grad=True)
    (x * x).backward()
    assert x.grad.shape == () and x.grad == 4.0


@pytest.mark.parametrize("shape", [(3, 1, 1), (2,)], ids=["leading", "row"])
def test_backward_refuses_a_gradient_of_another_shape(shape):
    # both broadcast against the (2, 2) result: summed down, the first
    # would read three times the gradient and the second a wider one
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    out = w * w
    with pytest.raises(T.ShapeError, match=r"\(2, 2\)"):
        out.backward(np.ones(shape))
    assert w.grad is None
    out.backward(np.broadcast_to(np.ones(2), (2, 2)))
    np.testing.assert_array_equal(w.grad, np.full((2, 2), 2.0))


def test_vjp_returning_too_few_gradients_raises():
    # zip would pair the first input alone and silently skip the second
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    out = a * b
    out._node.vjp = lambda g: (g * 2.0,)
    with pytest.raises(T.GradientError, match="2 inputs"):
        out.sum().backward()


def test_mul_computes_no_gradient_for_a_constant():
    # fusion multiplies by constant entity flags; nothing reads their
    # gradient, so the vjp neither computes it nor keeps x for it
    x = Tensor(np.arange(3.0), requires_grad=True)
    out = x * Tensor(np.array([1.0, 0.0, 1.0]))
    gx, gc = out._node.vjp(np.ones(3))
    np.testing.assert_array_equal(gx, [1.0, 0.0, 1.0])
    assert gc is None
    assert not any(a is x.data for a in _captured_arrays(out._node.vjp))


# (id, input shapes, op, whether the op's vjp reads each input's array)
KEEPS = [
    ("add", [(2, 3), (2, 3)], lambda a, b: a + b, (False, False)),
    ("mul", [(2, 3), (2, 3)], lambda a, b: a * b, (True, True)),
    ("matmul", [(2, 3), (3, 4)], lambda a, b: a @ b, (True, True)),
    ("reshape", [(2, 3, 4)], lambda a: a.reshape(6, 4), (False,)),
    ("getitem", [(3, 4)], lambda a: a[:, 1:3], (False,)),
    ("sum", [(2, 3, 4)], lambda a: a.sum(), (False,)),
    ("linear", [(2, 3, 4), (4, 5), (5,)], T.linear, (True, True, False)),
    ("ffn", FFN_SHAPES, T.ffn, (False, True, True, True, True, True, False)),
    ("gelu", [(2, 5)], T.gelu, (True,)),
    ("layer_norm", [(2, 3, 5), (5,), (5,)], T.layer_norm,
     (False, True, False)),
    ("embedding", [(4, 3)],
     lambda t: T.embedding(t, np.array([[0, 2, 0], [1, 1, 3]])), (False,)),
    ("dropout", [(3, 4)],
     lambda a: T.dropout(a, 0.3, np.random.default_rng(0), True, (3, 4)),
     (False,)),
    ("attention", ATTENTION_SHAPES,
     lambda *a: T.attention(*a, 2, mask=KEY_MASK),
     (False, True, True, True, True, True, True, True, True, False)),
    ("softmax_cross_entropy", [(4, 5)],
     lambda a: T.softmax_cross_entropy(a, np.array([0, 2, 4, 2])), (False,)),
    ("bce_with_logits", [(2, 3)],
     lambda a: T.binary_cross_entropy_with_logits(a, np.array([[0, 1, 1],
                                                               [1, 0, 0]])),
     (True,)),
]


@pytest.mark.parametrize("name,shapes,op,keeps", KEEPS,
                         ids=[case[0] for case in KEEPS])
def test_graph_keeps_an_input_array_only_if_a_vjp_reads_it(name, shapes, op,
                                                           keeps):
    def run(drop_inputs):
        leaves = [Tensor(a, requires_grad=True) for a in _inputs(shapes)]
        # op results, so that nothing but the graph could hold their arrays
        inputs = [leaf + 0.0 for leaf in leaves]
        alive = [weakref.ref(t.data) for t in inputs]
        out = op(*inputs)
        w = np.random.default_rng(12).normal(size=out.shape)
        loss = (out * Tensor(w)).sum()
        if drop_inputs:
            del inputs, out
        kept = tuple(ref() is not None for ref in alive)
        loss.backward()
        return kept, [leaf.grad for leaf in leaves]

    kept, grads = run(drop_inputs=True)
    assert kept == keeps
    _, want = run(drop_inputs=False)
    for g, ref_g in zip(grads, want):
        np.testing.assert_array_equal(g, ref_g)


def _held_by_node(op, inputs) -> tuple:
    """(bytes an op's result and node hold after forward beyond its output
    array, the output) with the caller holding `inputs`."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op(*inputs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held - out.data.nbytes, out


# what a node's closures, cells and tuples take besides its arrays
NODE_OVERHEAD = 16 << 10


def _sublayer_inputs(shapes, seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=s) / np.sqrt(s[0]), requires_grad=True)
            for s in shapes]


def test_attention_node_holds_no_probabilities():
    # only the layer norm's normalized rows and inverse deviations and the
    # [B, L] mask bias: not xn, q, k, v, the probabilities or the merged
    # heads, which backward recomputes
    B, L, d, heads = 2, 64, 32, 4
    x = [(B, L, d), (d,), (d,)]
    ins = _sublayer_inputs(x + [(d, d), (d,), (d, d), (d, d), (d,), (d, d),
                                (d,)], 14)
    mask = np.arange(L)[None, :] < np.array([[L], [L // 2]])
    held, out = _held_by_node(
        lambda *a: T.attention(*a, heads, mask=mask), ins)
    assert out.requires_grad
    kept = 8 * (B * L * d + B * L + B * L)
    assert kept <= held < kept + NODE_OVERHEAD


def test_ffn_node_holds_its_cdf_and_no_pre_activation():
    # the normalized rows, the inverse deviations and the pre-activation's
    # cdf: not xn, the pre-activation or GELU's output
    B, L, d, n = 2, 64, 32, 128
    ins = _sublayer_inputs([(B, L, d), (d,), (d,), (d, n), (n,), (n, d),
                            (d,)], 15)
    held, out = _held_by_node(T.ffn, ins)
    assert out.requires_grad
    kept = 8 * (B * L * d + B * L + B * L * n)
    assert kept <= held < kept + NODE_OVERHEAD


def test_attention_vjp_scratch_is_one_batch_row():
    # backward holds the recomputed probabilities y and their gradient gy,
    # each [B, H, L, L]; the softmax gradient's gy * y goes one batch row
    # at a time, so it adds one [H, L, L], not a third [B, H, L, L]. With
    # d = 8 every [B, L, d] array is 1/64 of the probabilities
    B, L, d, heads = 8, 128, 8, 4
    ins = _sublayer_inputs([(B, L, d), (d,), (d,), (d, d), (d,), (d, d),
                            (d, d), (d,), (d, d), (d,)], 17)
    out = T.attention(*ins, heads, np.ones((B, L), dtype=bool))
    g = np.random.default_rng(18).normal(size=out.shape)
    tracemalloc.start()
    try:
        out._node.vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    probs = 8 * B * heads * L * L
    assert 2 * probs <= peak < 2 * probs + probs // 2, peak / probs


def test_ffn_vjp_fills_gelu_gradient_in_place():
    # GELU's gradient fills one fresh [B, L, n] buffer in place; as a plain
    # expression its temporaries would add a whole [B, L, n] more to the
    # peak (4.38 of them against 3.38). With n = 4d the [B, L, n] arrays
    # dominate
    B, L, d = 8, 128, 64
    n = 4 * d
    ins = _sublayer_inputs([(B, L, d), (d,), (d,), (d, n), (n,), (n, d),
                            (d,)], 19)
    out = T.ffn(*ins)
    g = np.random.default_rng(20).normal(size=out.shape)
    tracemalloc.start()
    try:
        out._node.vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hidden = 8 * B * L * n
    assert peak < 3.75 * hidden, peak / hidden


@pytest.mark.parametrize("name,shapes,op", [
    ("attention", ATTENTION_SHAPES, lambda *a: T.attention(*a, 2, KEY_MASK)),
    ("ffn", FFN_SHAPES, T.ffn)], ids=["attention", "ffn"])
def test_sublayer_node_passes_gradcheck(name, shapes, op):
    rng = np.random.default_rng(16)
    params = {str(i): Tensor(a, requires_grad=True)
              for i, a in enumerate(_inputs(shapes))}
    w = Tensor(rng.normal(size=shapes[0]))
    report = T.gradcheck(lambda: (op(*params.values()) * w).sum(), params,
                         rng)
    assert set(report) == set(params)
    assert max(report.values()) <= 1e-6, report


class TestMatmul:
    def test_identity(self):
        b = np.random.default_rng(0).normal(size=(3, 5))
        out = Tensor(np.eye(3)).matmul(Tensor(b))
        np.testing.assert_allclose(out.data, b)

    def test_hand_expanded(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_allclose(a.matmul(b).data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.ones((2, 3))).matmul(Tensor(np.ones((2, 3))))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        a.matmul(b).sum().backward()
        na = numerical_grad(lambda: np.matmul(a.data, b.data).sum(), a.data)
        nb = numerical_grad(lambda: np.matmul(a.data, b.data).sum(), b.data)
        np.testing.assert_allclose(a.grad, na, rtol=1e-6)
        np.testing.assert_allclose(b.grad, nb, rtol=1e-6)

    def test_batched_backward(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        (a.matmul(b) * 0.5).sum().backward()
        nb = numerical_grad(
            lambda: (np.matmul(a.data, b.data) * 0.5).sum(), b.data)
        np.testing.assert_allclose(b.grad, nb, rtol=1e-6, atol=1e-10)


class TestCrossEntropy:
    def test_uniform(self):
        loss = T.softmax_cross_entropy(Tensor([[0.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(np.log(2), abs=1e-12)

    def test_stability(self):
        loss = T.softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        targets = np.array([0, 2, 4, 1])
        T.softmax_cross_entropy(logits, targets).backward()

        def f():
            z = logits.data - logits.data.max(axis=1, keepdims=True)
            logz = np.log(np.exp(z).sum(axis=1))
            return (logz - z[np.arange(4), targets]).mean()

        num = numerical_grad(f, logits.data)
        np.testing.assert_allclose(logits.grad, num, rtol=1e-6, atol=1e-10)


def _attend(x, heads, mask=None, **weights):
    """T.attention over array x [B, L, d] as constants; unnamed weights are
    an identity layer norm and identity projections without biases, and
    no mask keeps every key."""
    d = x.shape[-1]
    if mask is None:
        mask = np.ones(x.shape[:2], dtype=bool)
    eye, zero = np.eye(d), np.zeros(d)
    names = ("ln_g", "ln_b", "wq", "bq", "wk", "wv", "bv", "wo", "bo")
    defaults = dict(ln_g=np.ones(d), ln_b=zero, wq=eye, bq=zero, wk=eye,
                    wv=eye, bv=zero, wo=eye, bo=zero)
    defaults.update(weights)
    return T.attention(Tensor(x), *(Tensor(defaults[n]) for n in names),
                       heads, mask).data


def _normalized(x):
    return ref.layer_norm(Tensor(x), Tensor(np.ones(x.shape[-1])),
                          Tensor(np.zeros(x.shape[-1]))).data


class TestAttention:
    def test_identical_keys_give_mean_of_values(self):
        # a zero key projection gives every key the same score
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4))
        wv, bv = rng.normal(size=(4, 4)), rng.normal(size=4)
        out = _attend(x, 2, wk=np.zeros((4, 4)), wv=wv, bv=bv)
        expected = (_normalized(x) @ wv + bv).mean(axis=1, keepdims=True)
        np.testing.assert_allclose(out, np.broadcast_to(expected, (2, 3, 4)),
                                   atol=1e-12)

    def test_degenerate_mask_selects_v0(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 3, 4))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        out = _attend(x, 2, np.array([[True, False, False]]), wq=wq, wk=wk,
                      wv=wv)
        v0 = _normalized(x)[0, 0] @ wv
        for row in range(3):
            np.testing.assert_allclose(out[0, row], v0, atol=1e-12)

    def test_matches_loop_oracle(self):
        # head h of row b reads features [h * dh, (h + 1) * dh) of the
        # layer norm's projections and attends only to the keys row b's
        # mask keeps; the merged heads are projected by wo, bo
        rng = np.random.default_rng(6)
        B, L, heads, dh = 2, 3, 2, 2
        d = heads * dh
        x = rng.normal(size=(B, L, d))
        w = {n: rng.normal(size=(d, d)) for n in ("wq", "wk", "wv", "wo")}
        b = {n: rng.normal(size=d) for n in ("bq", "bv", "bo")}
        g, beta = rng.normal(size=d), rng.normal(size=d)
        mask = KEY_MASK
        out = _attend(x, heads, mask, ln_g=g, ln_b=beta, **w, **b)
        xn = ref.layer_norm(Tensor(x), Tensor(g), Tensor(beta)).data
        q, k, v = xn @ w["wq"] + b["bq"], xn @ w["wk"], xn @ w["wv"] + b["bv"]
        att = np.zeros((B, L, d))
        for bi in range(B):
            keys = [j for j in range(L) if mask[bi, j]]
            for h in range(heads):
                f = slice(h * dh, (h + 1) * dh)
                for i in range(L):
                    scores = np.array([q[bi, i, f] @ k[bi, j, f]
                                       for j in keys]) / np.sqrt(dh)
                    p = np.exp(scores - scores.max())
                    p /= p.sum()
                    att[bi, i, f] = sum(pj * v[bi, j, f]
                                        for pj, j in zip(p, keys))
        np.testing.assert_allclose(out, att @ w["wo"] + b["bo"], atol=1e-9)

    def test_degenerate_dims_raise(self):
        with pytest.raises(T.ShapeError):
            _attend(np.zeros((1, 0, 4)), 1)

    def test_width_not_divisible_by_heads_raises(self):
        with pytest.raises(T.ShapeError, match="3 heads"):
            _attend(np.zeros((1, 2, 4)), 3)


class TestOtherOps:
    def test_layer_norm_stats(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(6, 32)) * 3 + 1)
        g = Tensor(np.ones(32))
        b = Tensor(np.zeros(32))
        y = T.layer_norm(x, g, b).data
        assert np.abs(y.mean(axis=-1)).max() <= 1e-7
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_layer_norm_backward(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        g = Tensor(rng.normal(size=8) + 1, requires_grad=True)
        b = Tensor(rng.normal(size=8), requires_grad=True)
        (T.layer_norm(x, g, b) * Tensor(rng.normal(size=(3, 8)))).sum()
        w = rng.normal(size=(3, 8))
        (T.layer_norm(x, g, b) * Tensor(w)).sum().backward()

        def f():
            mu = x.data.mean(axis=-1, keepdims=True)
            var = x.data.var(axis=-1, keepdims=True)
            xhat = (x.data - mu) / np.sqrt(var + 1e-5)
            return ((xhat * g.data + b.data) * w).sum()

        np.testing.assert_allclose(x.grad, numerical_grad(f, x.data),
                                   rtol=1e-5, atol=1e-9)
        np.testing.assert_allclose(g.grad, numerical_grad(f, g.data),
                                   rtol=1e-6, atol=1e-9)

    def test_gelu_values_and_grad(self):
        x = Tensor(np.array([0.0, 5.0]), requires_grad=True)
        y = T.gelu(x)
        assert y.data[0] == 0.0
        assert y.data[1] == pytest.approx(4.99999, abs=1e-4)
        y.sum().backward()
        from scipy.special import erf
        num = numerical_grad(
            lambda: (x.data * 0.5 * (1 + erf(x.data / np.sqrt(2)))).sum(),
            x.data)
        np.testing.assert_allclose(x.grad, num, rtol=1e-6)

    def test_embedding_scatter(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        ids = np.array([[0, 0, 2]])
        out = T.embedding(table, ids)
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 2.0
        expected[2] = 1.0
        np.testing.assert_allclose(table.grad, expected)

    def test_embedding_out_of_range(self):
        with pytest.raises(IndexError):
            T.embedding(Tensor(np.zeros((3, 2))), np.array([3]))

    def test_bce_with_logits(self):
        logits = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        loss = T.binary_cross_entropy_with_logits(logits, [0, 1])
        assert loss.item() == pytest.approx(np.log(2), abs=1e-12)
        loss.backward()
        np.testing.assert_allclose(logits.grad, [0.25, -0.25], atol=1e-12)

    def test_getitem_backward(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        x[:, 0].sum().backward()
        expected = np.zeros((3, 4))
        expected[:, 0] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestGradcheck:
    def test_linear_layer_passes(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 6)))
        report = T.gradcheck(lambda: (x.matmul(w) + b).sum(),
                             {"w": w, "b": b}, rng)
        assert set(report) == {"w", "b"}
        assert max(report.values()) <= 1e-6

    def test_detects_wrong_gradient(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)

        def bad_loss():
            out = w.sum()
            # corrupt the recorded vjp
            out._node.vjp = lambda g: (np.full((2, 2), 2.0) * g,)
            return out

        report = T.gradcheck(bad_loss, {"w": w}, np.random.default_rng(0))
        assert report["w"] > 1e-6

    @pytest.mark.parametrize("where", ["analytic", "numeric"])
    def test_non_finite_derivative_reports_inf(self, where):
        # max() keeps its first argument over a NaN, so a NaN error would
        # otherwise read as 0.0
        w = Tensor(np.ones((2, 2)), requires_grad=True)

        def loss():
            out = (w * w).sum()
            if where == "analytic":
                out._node.vjp = lambda g: (np.full((2, 2), np.nan),)
            elif not np.all(w.data == 1.0):
                out.data = np.array(np.nan)
            return out

        report = T.gradcheck(loss, {"w": w}, np.random.default_rng(0))
        assert report == {"w": math.inf}


def _captured_arrays(fn) -> list:
    """The arrays `fn`'s closure holds, through the functions it holds."""
    arrays = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif callable(value) and hasattr(value, "__closure__"):
            arrays += _captured_arrays(value)
    return arrays


class TestDeterminism:
    def test_dropout_seeded(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        a = T.dropout(x, 0.5, np.random.default_rng(0), True, (4, 4)).data
        b = T.dropout(x, 0.5, np.random.default_rng(0), True, (4, 4)).data
        np.testing.assert_array_equal(a, b)

    def test_dropout_cut_from_wider_draw(self):
        x = Tensor(np.ones((2, 5, 3)))
        wide = T.dropout(Tensor(np.ones((2, 8, 3))), 0.5,
                         np.random.default_rng(0), True, (2, 8, 3)).data
        cut = T.dropout(x, 0.5, np.random.default_rng(0), True,
                        (2, 8, 3)).data
        np.testing.assert_array_equal(cut, wide[:, :5])

    def test_dropout_keeps_a_boolean_mask(self):
        out = T.dropout(Tensor(np.ones((4, 4)), requires_grad=True), 0.5,
                        np.random.default_rng(0), True, (4, 4))
        assert [a.dtype for a in _captured_arrays(out._node.vjp)] == [
            np.dtype(bool)]

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert T.dropout(x, 0.5, np.random.default_rng(0), False,
                         (4, 4)) is x
