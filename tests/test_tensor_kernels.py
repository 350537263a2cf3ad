"""The blocked kernels give the whole-array expressions' exact bits.

`entqa.tensor` computes GELU, layer norm, dropout, attention's softmax and
linear's bias in owned buffers, in blocks of rows, embedding's gradient
in one bincount, and the feed-forward node's weight gradient one batch
row at a time. Each forward and each vjp here must equal the plain
expression in tests/tensor_reference.py bit for bit (signed zeros
included), at the model's default and acceptance sizes, for a single
row, for row counts that are not a multiple of the block, and for
non-contiguous upstream gradients. No vjp may write into the gradient it
is handed. The pre-norm sublayer nodes (attention and feed-forward) are
checked whole: their forward and every input's gradient after backward
must equal those of the reference chain of nodes they replace, and what
they recompute in backward must keep those bits when the block size
changes between forward and backward.
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
    """Forward and every vjp of `op` against `ref_op`, bit for bit."""
    ins = [Tensor(a, requires_grad=True) for a in arrays]
    ref_ins = [Tensor(a, requires_grad=True) for a in arrays]
    out, want = op(*ins, **kwargs), ref_op(*ref_ins, **kwargs)
    assert _same_bits(out.data, want.data)
    assert len(out._node.edges) == len(want._node.edges) == len(ins)
    for name, g in _gradients(out.shape, rng):
        before = g.copy()
        # fresh nodes per gradient: attention caches its first g's products
        out, want = op(*ins, **kwargs), ref_op(*ref_ins, **kwargs)
        for (_, vjp), (_, ref_vjp) in zip(out._node.edges, want._node.edges):
            assert _same_bits(vjp(g), ref_vjp(g)), name
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


def _check_sublayer(op, arrays, rng, backward_block=None, **kwargs):
    """Forward and every input's gradient of the sublayer node `op`, for
    each upstream gradient, against its reference chain, bit for bit;
    `backward_block` sets the block size for backward alone."""
    node, chain = SUBLAYERS[op]
    for kind, g in _gradients(arrays[0].shape, rng):
        before = g.copy()
        ins = [Tensor(a, requires_grad=True) for a in arrays]
        ref_ins = [Tensor(a, requires_grad=True) for a in arrays]
        out = node(*ins, **kwargs)
        want = chain(*ref_ins, **kwargs)
        assert _same_bits(out.data, want.data)
        assert len(out._node.edges) == len(ins)
        with pytest.MonkeyPatch.context() as patch:
            if backward_block is not None:
                patch.setattr(T, "_BLOCK_BYTES", backward_block)
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


@pytest.fixture(params=["default_block", "three_row_block"])
def block(request, monkeypatch):
    """The module's block size, or one of three rows of the checked shape
    (so most row counts leave a partial last block)."""
    def set_rows(row_bytes):
        if request.param == "three_row_block":
            monkeypatch.setattr(T, "_BLOCK_BYTES", 3 * row_bytes)
    return set_rows


@pytest.mark.parametrize("name,shape", ROW_SHAPES, ids=ROW_IDS)
def test_gelu_bits(name, shape, block):
    block(8 * shape[-1])
    rng = np.random.default_rng(0)
    _check(T.gelu, ref.gelu, [rng.normal(size=shape) * 3.0], rng)


@pytest.mark.parametrize("name,shape", ROW_SHAPES, ids=ROW_IDS)
def test_layer_norm_bits(name, shape, block):
    block(8 * shape[-1])
    rng = np.random.default_rng(1)
    x = rng.normal(size=shape) * 2.0 + 0.5
    gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    _check(T.layer_norm, ref.layer_norm, [x, gain, bias], rng)


@pytest.mark.parametrize("name,shape", ROW_SHAPES, ids=ROW_IDS)
@pytest.mark.parametrize("p", [0.1, 0.5])
def test_dropout_bits(name, shape, p, block):
    block(8 * shape[-1])
    rng = np.random.default_rng(2)
    x = rng.normal(size=shape)
    # a draw wider than x, as the model draws at max_seq_len
    draw_shape = shape[:-2] + (shape[-2] + 3, shape[-1]) if len(shape) > 2 \
        else None

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
                         ids=[case[0] for case in ROW_SHAPES
                              if len(case[1]) == 3])
def test_ffn_bits(name, shape, block):
    # x is [B, L, d] and the output d wide again, as in an encoder block
    block(8 * min(4 * shape[-1], 512))
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
# model's token and entity encoders, and small cases with a partial block
ATTENTION_SHAPES = [
    ("single_sequence", (1, 5, 4), 2),
    ("small", (5, 7, 6), 3),
    ("default_tokens", (16, 128, 128), 4),
    ("acceptance_tokens", (32, 30, 48), 2),
    ("acceptance_entities", (32, 30, 12), 2),
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
@pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
def test_attention_bits(name, shape, heads, masked, block):
    B, L, d = shape
    block(8 * heads * L * L)
    rng = np.random.default_rng(4)
    arrays = _sublayer_arrays("attention", shape, rng)
    mask = _key_mask(rng, B, L) if masked else None
    _check_sublayer("attention", arrays, rng, heads=heads, mask=mask)


def test_row_blocks_cover_every_row_once():
    for shape in [(0, 1), (1, 1), (7, T._BLOCK_BYTES // 24),
                  (64, T._BLOCK_BYTES // 8), (5, T._BLOCK_BYTES // 4),
                  (1000, 0)]:
        a = np.empty(shape)
        blocks = T._row_blocks(a)
        covered = [i for rows in blocks for i in range(len(a))[rows]]
        assert covered == list(range(len(a)))
        step = max(1, T._BLOCK_BYTES // max(1, a[0:1].nbytes))
        assert all(rows.stop - rows.start <= step for rows in blocks)


# (op, [B, L, d], heads); both sublayer nodes recompute the layer norm's
# output, attention its projections, probabilities and merged heads, and
# the feed-forward node its pre-activation, in backward
RECOMPUTED = [
    ("attention", (5, 7, 6), 3),
    ("attention", (16, 128, 128), 4),
    ("ffn", (2, 3, 5), None),
    ("ffn", (16, 128, 128), None),
]


@pytest.mark.parametrize("name,shape,heads", RECOMPUTED,
                         ids=[f"{c[0]}_{'x'.join(map(str, c[1]))}"
                              for c in RECOMPUTED])
@pytest.mark.parametrize("backward_block", [1, 1 << 26],
                         ids=["row_blocks", "one_block"])
def test_recomputed_bits_with_another_block_in_backward(
        name, shape, heads, backward_block):
    # forward at the module's block size, backward at another: what
    # backward recomputes must still give the reference's bits
    rng = np.random.default_rng(8)
    arrays = _sublayer_arrays(name, shape, rng)
    kwargs = {}
    if name == "attention":
        kwargs = dict(heads=heads, mask=_key_mask(rng, shape[0], shape[1]))
    _check_sublayer(name, arrays, rng, backward_block=backward_block,
                    **kwargs)
