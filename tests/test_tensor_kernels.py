"""The package's kernels give the plain expressions' exact bits.

`entqa.tensor` computes GELU and attention's softmax in owned buffers
filled with in-place ufuncs, embedding's gradient in one bincount, and
attention's softmax gradient and the feed-forward node's weight gradient
one batch row at a time; linear, layer norm and dropout are plain
expressions, as in the reference. Each forward and every gradient a vjp
returns must equal the plain expression in tests/tensor_reference.py bit
for bit (signed zeros included), at the model's default and acceptance
sizes, for a single row, and for non-contiguous upstream gradients. No
vjp may write into the gradient it is handed. The pre-norm sublayer
nodes (attention and feed-forward) are checked whole: their forward and
every input's gradient after backward, which recomputes their
intermediates, must equal those of the reference chain of nodes they
replace.
"""

import numpy as np
import pytest

import tensor_reference as ref
from entqa import tensor as T
from entqa.tensor import Tensor


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def _gradients(shape, rng):
    """Upstream gradients of `shape`: contiguous, row-strided, with the
    leading axes swapped, and broadcast along the rows."""
    yield "contiguous", rng.normal(size=shape)
    yield "strided", rng.normal(size=shape[:-1] + (2 * shape[-1],))[..., ::2]
    if len(shape) >= 3:
        swapped = rng.normal(size=(shape[1], shape[0]) + shape[2:])
        yield "swapped", swapped.swapaxes(0, 1)
    yield "broadcast", np.broadcast_to(rng.normal(size=shape[-1]), shape)


def _check(op, ref_op, arrays, rng, **kwargs):
    """Forward and the gradient tuple of `op`'s vjp against `ref_op`'s,
    bit for bit, for each upstream gradient."""
    ins = [Tensor(a, requires_grad=True) for a in arrays]
    ref_ins = [Tensor(a, requires_grad=True) for a in arrays]
    out, want = op(*ins, **kwargs), ref_op(*ref_ins, **kwargs)
    assert _same_bits(out.data, want.data)
    assert len(out._node.inputs) == len(want._node.inputs) == len(ins)
    for name, g in _gradients(out.shape, rng):
        before = g.copy()
        grads, ref_grads = out._node.vjp(g), want._node.vjp(g)
        assert len(grads) == len(ref_grads) == len(ins), name
        for i, (got, ref_got) in enumerate(zip(grads, ref_grads)):
            assert _same_bits(got, ref_got), (name, i)
        assert _same_bits(g, before), f"a vjp wrote into the {name} gradient"


def _sublayer_arrays(op, shape, rng):
    """Inputs of the pre-norm sublayer `op` over x of [B, L, d]: the layer
    norm's gain and bias, then attention's projections or the
    feed-forward weights (hidden width four times d, at most 512)."""
    d = shape[-1]

    def weight(m, n):
        return rng.normal(size=(m, n)) / np.sqrt(m)

    arrays = [rng.normal(size=shape) * 2.0 + 0.5,
              1.0 + 0.2 * rng.normal(size=d), rng.normal(size=d)]
    if op == "attention":
        return arrays + [weight(d, d), rng.normal(size=d), weight(d, d),
                         weight(d, d), rng.normal(size=d), weight(d, d),
                         rng.normal(size=d)]
    n = min(4 * d, 512)
    return arrays + [weight(d, n), rng.normal(size=n), weight(n, d),
                     rng.normal(size=d)]


SUBLAYERS = {"attention": (T.attention, ref.pre_norm_attention),
             "ffn": (T.ffn, ref.pre_norm_ffn)}


def _check_sublayer(op, arrays, rng, **kwargs):
    """Forward and every input's gradient of the sublayer node `op`, for
    each upstream gradient, against its reference chain, bit for bit."""
    node, chain = SUBLAYERS[op]
    for kind, g in _gradients(arrays[0].shape, rng):
        before = g.copy()
        ins = [Tensor(a, requires_grad=True) for a in arrays]
        ref_ins = [Tensor(a, requires_grad=True) for a in arrays]
        out = node(*ins, **kwargs)
        want = chain(*ref_ins, **kwargs)
        assert _same_bits(out.data, want.data)
        assert len(out._node.inputs) == len(ins)
        out.backward(g)
        want.backward(g)
        for i, (t, ref_t) in enumerate(zip(ins, ref_ins)):
            assert _same_bits(t.grad, ref_t.grad), (kind, i)
        assert _same_bits(g, before), f"backward wrote into the {kind} gradient"


# (id, shape); the default model is d = 128, FFN 512, B = 16, L = 128 and
# the acceptance model d = 48, FFN 96, entity d = 12, B = 32, L = 30
ROW_SHAPES = [
    ("single_row", (1, 7)),
    ("small_3d", (2, 3, 5)),
    ("default_hidden", (16, 128, 128)),
    ("default_ffn", (16, 128, 512)),
    ("acceptance_hidden", (32, 30, 48)),
    ("acceptance_ffn", (32, 30, 96)),
    ("acceptance_entity", (32, 30, 12)),
]
ROW_IDS = [case[0] for case in ROW_SHAPES]


def _kept_ids(ids):
    """`ids` under the `default_block-` prefix that the kernel cases'
    names carried when they also ran at a three-row block size, so each
    case keeps its name across revisions."""
    return [f"default_block-{i}" for i in ids]


@pytest.mark.parametrize("name,shape", ROW_SHAPES, ids=_kept_ids(ROW_IDS))
def test_gelu_bits(name, shape):
    rng = np.random.default_rng(0)
    _check(T.gelu, ref.gelu, [rng.normal(size=shape) * 3.0], rng)


@pytest.mark.parametrize("name,shape", ROW_SHAPES, ids=_kept_ids(ROW_IDS))
def test_layer_norm_bits(name, shape):
    rng = np.random.default_rng(1)
    x = rng.normal(size=shape) * 2.0 + 0.5
    gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    _check(T.layer_norm, ref.layer_norm, [x, gain, bias], rng)


@pytest.mark.parametrize("name,shape", ROW_SHAPES, ids=ROW_IDS)
@pytest.mark.parametrize("p", [0.1, 0.5], ids=_kept_ids(["0.1", "0.5"]))
def test_dropout_bits(name, shape, p):
    rng = np.random.default_rng(2)
    x = rng.normal(size=shape)
    # a draw wider than x, as the model draws at max_seq_len
    draw_shape = shape[:-2] + (shape[-2] + 3, shape[-1]) if len(shape) > 2 \
        else shape

    def op(module):
        return lambda a: module.dropout(a, p, np.random.default_rng(5), True,
                                        draw_shape)

    _check(op(T), op(ref), [x], rng)


@pytest.mark.parametrize("name,shape", ROW_SHAPES, ids=ROW_IDS)
def test_linear_bits(name, shape):
    rng = np.random.default_rng(3)
    x = rng.normal(size=shape)
    w, b = rng.normal(size=(shape[-1], 6)), rng.normal(size=6)
    _check(T.linear, ref.linear, [x, w, b], rng)


@pytest.mark.parametrize("name,shape",
                         [case for case in ROW_SHAPES if len(case[1]) == 3],
                         ids=_kept_ids([case[0] for case in ROW_SHAPES
                                        if len(case[1]) == 3]))
def test_ffn_bits(name, shape):
    # x is [B, L, d] and the output d wide again, as in an encoder block
    rng = np.random.default_rng(7)
    _check_sublayer("ffn", _sublayer_arrays("ffn", shape, rng), rng)


# (id, table shape, ids shape); the default token and acceptance entity
# tables, and a small table whose ids repeat in every row
EMBEDDING_SHAPES = [
    ("small_repeated", (3, 5), (4, 6)),
    ("default_tokens", (400, 128), (16, 128)),
    ("acceptance_entities", (40, 12), (32, 30)),
]


@pytest.mark.parametrize("name,table,ids", EMBEDDING_SHAPES,
                         ids=[case[0] for case in EMBEDDING_SHAPES])
def test_embedding_bits(name, table, ids):
    rng = np.random.default_rng(6)
    ids = rng.integers(0, table[0], size=ids)
    _check(T.embedding, ref.embedding, [rng.normal(size=table)], rng, ids=ids)


# (id, [B, L, d], heads); the default token encoder, the acceptance
# model's token and entity encoders, an acceptance batch trimmed short,
# and small cases
ATTENTION_SHAPES = [
    ("single_sequence", (1, 5, 4), 2),
    ("small", (5, 7, 6), 3),
    ("default_tokens", (16, 128, 128), 4),
    ("acceptance_tokens", (32, 30, 48), 2),
    ("acceptance_entities", (32, 30, 12), 2),
    ("acceptance_short_batch", (32, 12, 48), 2),
]


def _key_mask(rng, B, L):
    """Padded keys after a random length per row, one row with no padding,
    and scattered masked keys in another; position 0 is always kept."""
    lengths = rng.integers(1, L + 1, size=B)
    lengths[0] = L
    mask = np.arange(L)[None, :] < lengths[:, None]
    if B > 1:
        mask[1] &= rng.random(L) < 0.6
        mask[1, 0] = True
    return mask


@pytest.mark.parametrize("name,shape,heads", ATTENTION_SHAPES,
                         ids=[case[0] for case in ATTENTION_SHAPES])
@pytest.mark.parametrize("masked", [True, False],
                         ids=_kept_ids(["masked", "unmasked"]))
def test_attention_bits(name, shape, heads, masked):
    B, L, d = shape
    rng = np.random.default_rng(4)
    arrays = _sublayer_arrays("attention", shape, rng)
    # unmasked: every key kept, as in a batch of full-length rows
    mask = _key_mask(rng, B, L) if masked else np.ones((B, L), dtype=bool)
    _check_sublayer("attention", arrays, rng, heads=heads, mask=mask)

