"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery to train a small transformer QA stack on CPU, and
no op the package does not call: broadcast ``+`` and ``*``, stacked
matmul, ``reshape``, indexing, ``sum`` to a scalar, ``linear``, ``gelu``,
``layer_norm``, the pre-norm sublayers ``attention`` and ``ffn``,
``embedding``, ``dropout`` and the fused cross-entropy losses, which
``gradcheck`` audits by finite differences. No GPU, no broadcasting rules
beyond what the model needs.

Graph. An op computes its value and hands ``Tensor._make`` its tensor
inputs and one ``vjp``, which maps the output's gradient to one gradient
per input, in input order: ``None`` where nothing reads it, as ``*``
returns for a constant operand. A gradient may keep the output's
broadcast shape; ``Tensor.backward`` alone sums it down to the input's
shape. A result that requires a gradient has a ``_Node``, which holds
the value's shape, its gradient, its inputs' nodes (``None`` for an
input that needs no gradient) and the vjp, but never a value: an op
result's array outlives the caller's reference only when a vjp captured
it. ``backward`` calls each node's vjp once, in reverse topological
order, then drops the node's gradient, inputs and vjp, so a result can
be backpropagated once (a second ``backward`` raises ``GradientError``)
and only leaf gradients remain.

Each vjp captures only what it reads: ``linear`` keeps x and w,
``layer_norm`` its normalized rows and inverse deviations, ``dropout`` a
boolean mask, and ``sum`` and indexing their input's shape. An encoder
block is six nodes: two pre-norm sublayers, two dropouts and two
residual adds. A sublayer keeps its layer norm's normalized rows and
inverse deviations, and the mask bias (``attention``) or the
pre-activation's normal cdf (``ffn``); its vjp recomputes the rest with
forward's operations on the same arrays in the same order, so with
forward's bits at a fixed BLAS thread count.

Buffers. An op owns the arrays it allocates: its result and what its vjp
keeps for backward. The elementwise kernels (GELU in ``gelu`` and
``ffn``, the layer norm in ``layer_norm`` and both sublayers,
``dropout``, attention's scale, mask bias and softmax, ``linear``'s
bias) allocate each result once and fill it with in-place and ``out=``
ufuncs over the whole array, rather than allocating a temporary per
operation; a vjp allocates the gradients it returns the same way. Each
keeps the plain expression's operations in their order, so the bits
equal those of that expression (tests/tensor_reference.py holds them).
Two gradients go one batch row at a time: attention's softmax gradient,
so that its ``gy * y`` scratch is one row's [H, L, L], and ``ffn``'s
``w2`` gradient. A vjp never writes into the gradient ``g`` it is
handed, nor into anything it keeps: ``g`` may be shared with another
node: ``a + b`` hands both inputs the same array, which each may adopt
as its gradient (``_Node.accumulate``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

DTYPE = np.float64

MASK_NEG = -1e30

LAYER_NORM_EPS = 1e-5   # added to the variance before its root

GRADCHECK_STEP = 1e-5   # central finite-difference step


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradientError(RuntimeError):
    """Raised on a non-finite gradient, on a vjp's wrong gradient count,
    or on backward through a graph an earlier backward already freed."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """A tensor's place in the graph: the shape of its value, the gradient
    backward accumulates for it, and the input nodes (``None`` for an input
    that needs no gradient) and vjp of the op that made it (none for a
    leaf). It never holds the value."""

    __slots__ = ("shape", "grad", "inputs", "vjp", "requires_grad",
                 "owns_grad")

    def __init__(self, shape: tuple, inputs: tuple = (), vjp=None):
        self.shape = shape
        self.grad = None
        self.inputs = inputs
        self.vjp = vjp
        self.requires_grad = True
        self.owns_grad = False

    def accumulate(self, g: np.ndarray):
        # adopt the first gradient, copied only when not C-contiguous (as a
        # broadcast view is); `g` may be shared with another node, so an
        # adopted array is never written in place. The second gradient
        # allocates the sum, which the node owns and adds later ones into
        if self.grad is None:
            self.grad = np.asarray(g, order="C")
        elif self.owns_grad:
            self.grad += g
        else:
            self.grad = self.grad + g
            self.owns_grad = True


class Tensor:
    """A dense n-d float64 array and, if it requires a gradient, its node.

    ``backward()`` on a scalar result walks the graph in reverse
    topological order, fills ``grad`` on every requires_grad leaf
    reachable from it and frees the op results' nodes it passes through.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self._node = _Node(self.data.shape) if requires_grad else None

    # -- structural helpers -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self._node is not None and self._node.requires_grad

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):   # a tensor that requires no gradient has no node
        self._node.grad, self._node.owns_grad = g, False

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    @staticmethod
    def _make(data, inputs: tuple, vjp) -> "Tensor":
        """The op result `data`; `vjp(g)` returns one gradient per input."""
        out = Tensor(data)
        nodes = tuple(t._node if t.requires_grad else None for t in inputs)
        if nodes.count(None) < len(nodes):
            out._node = _Node(out.data.shape, nodes, vjp)
        return out

    # -- autodiff ------------------------------------------------------------

    def backward(self, grad=None):
        if not self.requires_grad:
            raise GradientError(
                "backward() on a tensor that requires no gradient (an op "
                "result can be backpropagated once)")
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=DTYPE)
        if grad.shape != self.data.shape:
            raise ShapeError(f"backward() grad of shape {grad.shape} for a "
                             f"result of shape {self.data.shape}")
        root = self._node
        topo = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.inputs:
                if p is None or id(p) in seen:
                    continue
                # every input node required a gradient when the op ran
                if not p.requires_grad:
                    raise GradientError(
                        "backward() through a graph already freed by an "
                        "earlier backward()")
                stack.append((p, False))
        root.accumulate(grad)
        # reverse topological order; a node is dropped from `topo` once its
        # gradient is passed on, so its vjp's arrays are freed as the walk goes
        while topo:
            node = topo.pop()
            if not node.inputs:
                continue
            grads = node.vjp(node.grad)
            if len(grads) != len(node.inputs):
                raise GradientError(
                    f"a vjp returned {len(grads)} gradients for a node of "
                    f"{len(node.inputs)} inputs")
            for p, g in zip(node.inputs, grads):
                if p is not None:
                    p.accumulate(_unbroadcast(g, p.shape))
            node.grad, node.inputs, node.vjp = None, (), None
            node.requires_grad = False

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._coerce(other)
        return Tensor._make(self.data + other.data, (self, other),
                            lambda g: (g, g))

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor._coerce(other)
        # keep an operand's array only for the other operand's gradient
        a = self.data if other.requires_grad else None
        b = other.data if self.requires_grad else None
        return Tensor._make(self.data * other.data, (self, other),
                            lambda g: (None if b is None else g * b,
                                       None if a is None else g * a))

    __rmul__ = __mul__

    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        _check_matmul(a, b)
        return Tensor._make(np.matmul(a, b), (self, other),
                            lambda g: (np.matmul(g, b.swapaxes(-1, -2)),
                                       np.matmul(a.swapaxes(-1, -2), g)))

    __matmul__ = matmul

    def reshape(self, *shape) -> "Tensor":
        old = self.data.shape
        return Tensor._make(self.data.reshape(shape), (self,),
                            lambda g: (g.reshape(old),))

    def __getitem__(self, idx) -> "Tensor":
        shape = self.data.shape

        def vjp(g):
            full = np.zeros(shape)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor._make(self.data[idx], (self,), vjp)

    def sum(self) -> "Tensor":
        shape = self.data.shape
        return Tensor._make(self.data.sum(), (self,),
                            lambda g: (np.broadcast_to(g, shape),))


def _check_matmul(a: np.ndarray, b: np.ndarray):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} vs {b.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node; the product is not kept for backward."""
    xd, wd = x.data, w.data
    _check_matmul(xd, wd)
    out = np.matmul(xd, wd)
    out += b.data
    return Tensor._make(out, (x, w, b),
                        lambda g: (np.matmul(g, wd.swapaxes(-1, -2)),
                                   np.matmul(xd.swapaxes(-1, -2), g), g))


# -- elementwise kernels ------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_fill(X: np.ndarray) -> tuple:
    """GELU of `X` and its normal cdf, in owned buffers."""
    # cdf = 0.5 * (1 + erf(x / sqrt 2)); out = x * cdf
    C = np.multiply(X, _INV_SQRT2)
    erf(C, out=C)
    C += 1.0
    C *= 0.5
    return np.multiply(X, C), C


def _gelu_grad(X: np.ndarray, C: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The gradient `G` through GELU of `X` (cdf `C`), in a fresh buffer."""
    # g * (cdf + x * exp(-0.5 * x * x) / sqrt(2 pi))
    GX = np.multiply(X, -0.5)
    GX *= X
    np.exp(GX, out=GX)
    GX *= _INV_SQRT2PI
    GX *= X
    GX += C
    GX *= G
    return GX


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU; keeps x and its normal cdf for backward."""
    xd = x.data
    out, cdf = _gelu_fill(xd)
    return Tensor._make(out, (x,), lambda g: (_gelu_grad(xd, cdf, g),))


def _norm_fill(X: np.ndarray, gd: np.ndarray, bd: np.ndarray) -> tuple:
    """Layer norm over `X`'s last axis: the normalized rows, inverse
    deviations and xhat * gain + bias, in owned buffers. The variance is
    the mean square of the centered rows, as ``np.var`` computes it."""
    XH = np.subtract(X, X.mean(axis=-1, keepdims=True))
    O = np.multiply(XH, XH)
    INV = O.mean(axis=-1, keepdims=True)
    INV += LAYER_NORM_EPS
    np.sqrt(INV, out=INV)
    np.divide(1.0, INV, out=INV)
    XH *= INV
    _affine(XH, gd, bd, out=O)
    return XH, INV, O


def _affine(XH: np.ndarray, gd: np.ndarray, bd: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """xhat * gain + bias, in `out` or a fresh buffer; elementwise, so a
    recomputation has the fill's bits."""
    out = np.multiply(XH, gd, out=out)
    out += bd
    return out


def _norm_grads(XH: np.ndarray, INV: np.ndarray, gd: np.ndarray,
                G: np.ndarray) -> tuple:
    """The gradients of a layer norm's x, gain and bias (normalized rows
    `XH`, inverse deviations `INV`, gain `gd`) for its output's gradient
    `G`; x's in a fresh buffer."""
    # inv * (gy - mean(gy) - xhat * mean(gy * xhat)), gy = g * gain
    GX = np.multiply(G, gd)
    m1 = GX.mean(axis=-1, keepdims=True)
    t = np.multiply(GX, XH)
    m2 = t.mean(axis=-1, keepdims=True)
    GX -= m1
    np.multiply(XH, m2, out=t)
    GX -= t
    GX *= INV
    return GX, G * XH, G


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Keeps the normalized input and the inverse deviation per row for
    backward.
    """
    gd = gain.data
    XH, INV, out = _norm_fill(x.data, gd, bias.data)
    return Tensor._make(out, (x, gain, bias),
                        lambda g: _norm_grads(XH, INV, gd, g))


# -- pre-norm sublayers ---------------------------------------------------------

def attention(x: Tensor, ln_g: Tensor, ln_b: Tensor, wq: Tensor, bq: Tensor,
              wk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
              heads: int, mask: np.ndarray) -> Tensor:
    """The pre-norm attention sublayer wo(attn(layer_norm(x))), one node.

    x is [B, L, d]. Its layer norm (gain ln_g, bias ln_b) is projected to
    q = xn @ wq + bq, k = xn @ wk and v = xn @ wv + bv; each is split into
    `heads` heads of d // heads features, every head attends on its own,
    and the heads are merged back and projected by wo, bo. `mask` is a
    [B, L] boolean key mask whose False positions are excluded from
    normalization. The node keeps the layer norm's normalized rows and
    inverse deviations and the [B, L] mask bias only: backward recomputes
    xn, q, k, v, the [B, H, L, L] softmax probabilities and the merged
    heads once, with forward's operations in forward's order, so they
    have the same bits.
    """
    xd = x.data
    B, L, d = xd.shape
    if L == 0 or d == 0 or d % heads:
        raise ShapeError(f"cannot attend over L={L}, d={d} in {heads} heads")
    dh = d // heads
    gd, bd, wqd, wkd, wvd, wod = (t.data for t in (ln_g, ln_b, wq, wk, wv, wo))
    bqd, bvd = bq.data, bv.data
    scale = 1.0 / math.sqrt(dh)
    # bias applies along the key axis, for every head and query
    bias = np.where(np.asarray(mask, dtype=bool), 0.0, MASK_NEG)

    def split(a):   # [B, L, d] -> [B, H, L, dh] view
        return a.reshape(B, L, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):   # [B, H, L, dh] -> [B, L, d], C-contiguous as a node's
        # adopted gradient is, so the products that read it are unchanged
        return np.ascontiguousarray(a.transpose(0, 2, 1, 3).reshape(B, L, d))

    def attend(xn):
        # (q, k^T and v in heads, the probabilities, the merged heads)
        q = np.matmul(xn, wqd)
        q += bqd
        k = np.matmul(xn, wkd)
        v = np.matmul(xn, wvd)
        v += bvd
        qh, kt, vh = split(q), split(k).swapaxes(-1, -2), split(v)
        # softmax(q k^T * scale + bias) over keys, in the scores' buffer
        y = np.matmul(qh, kt)
        y *= scale
        y += bias[:, None, None, :]
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        return qh, kt, vh, y, merge(np.matmul(y, vh))

    XH, INV, xn = _norm_fill(xd, gd, bd)
    out = np.matmul(attend(xn)[-1], wod)
    out += bo.data

    def grads(g):
        # (xn, the merged heads, q's, k's and v's gradients); the
        # probabilities and the heads' gradients die on return
        xn = _affine(XH, gd, bd)
        qh, kt, vh, y, att = attend(xn)
        gh = np.ascontiguousarray(split(np.matmul(g, wod.swapaxes(-1, -2))))
        # y * (gy - sum(gy * y)) * scale, in gy's buffer, one batch row at
        # a time so that gy * y takes one row's [H, L, L] of scratch
        gy = np.matmul(gh, vh.swapaxes(-1, -2))
        t = np.empty(gy.shape[1:])
        for gb, yb in zip(gy, y):
            np.multiply(gb, yb, out=t)
            gb -= t.sum(axis=-1, keepdims=True)
            gb *= yb
            gb *= scale
        dq = merge(np.matmul(gy, kt.swapaxes(-1, -2)))
        dk = merge(np.matmul(qh.swapaxes(-1, -2), gy).swapaxes(-1, -2))
        dv = merge(np.matmul(y.swapaxes(-1, -2), gh))
        return xn, att, dq, dk, dv

    def vjp(g):
        xn, att, dq, dk, dv = grads(g)
        # summed in the order backward would sum three consumers' gradients
        dxn = np.matmul(dq, wqd.swapaxes(-1, -2)) \
            + np.matmul(dk, wkd.swapaxes(-1, -2))
        dxn += np.matmul(dv, wvd.swapaxes(-1, -2))
        xt = xn.swapaxes(-1, -2)   # weight gradients are batched [B, d, d]
        return (*_norm_grads(XH, INV, gd, dxn),
                np.matmul(xt, dq), dq, np.matmul(xt, dk), np.matmul(xt, dv),
                dv, np.matmul(att.swapaxes(-1, -2), g), g)

    return Tensor._make(out, (x, ln_g, ln_b, wq, bq, wk, wv, bv, wo, bo), vjp)


def ffn(x: Tensor, ln_g: Tensor, ln_b: Tensor, w1: Tensor, b1: Tensor,
        w2: Tensor, b2: Tensor) -> Tensor:
    """The pre-norm feed-forward sublayer
    linear(gelu(linear(layer_norm(x), w1, b1)), w2, b2), one node.

    Keeps the layer norm's normalized rows and inverse deviations and the
    pre-activation's normal cdf, but neither the layer norm's output xn,
    the pre-activation a = xn @ w1 + b1 nor GELU's output h = a * cdf.
    Backward recomputes xn and a once, with forward's operations on the
    same arrays (so the same bits at a fixed BLAS thread count), for
    GELU's gradient and for w2's gradient, which recomputes h one batch
    row at a time.
    """
    xd, gd, bd, w1d, b1d, w2d = (t.data for t in (x, ln_g, ln_b, w1, b1, w2))
    _check_matmul(xd, w1d)
    _check_matmul(w1d, w2d)
    batch = xd.shape[:-2]

    def pre_activation(xn):
        a = np.matmul(xn, w1d)
        a += b1d
        return a

    XH, INV, xn = _norm_fill(xd, gd, bd)
    h, C = _gelu_fill(pre_activation(xn))
    out = np.matmul(h, w2d)
    out += b2.data

    def grads(g):
        # (xn, a's gradient, w2's gradient); a and h's gradient die on
        # return. w2's gradient adds the batch rows' h_i^T g_i in row
        # order, as _unbroadcast sums the batched product, with the same
        # bits: one [L, n] @ [L, d] product per row neither forms h nor the
        # [B, n, d] products whole, and at [16, 128, 512] it took 8 ms
        # against 14 ms for the batched product (1 BLAS thread, Xeon)
        xn = _affine(XH, gd, bd)
        a = pre_activation(xn)
        rows = (np.matmul((a[i] * C[i]).swapaxes(-1, -2), g[i])
                for i in np.ndindex(batch))
        gw = next(rows)
        for p in rows:
            gw += p
        dh = np.matmul(g, w2d.swapaxes(-1, -2))
        return xn, _gelu_grad(a, C, dh), gw

    def vjp(g):
        xn, da, gw = grads(g)
        return (*_norm_grads(XH, INV, gd, np.matmul(da, w1d.swapaxes(-1, -2))),
                np.matmul(xn.swapaxes(-1, -2), da), da, gw, g)

    return Tensor._make(out, (x, ln_g, ln_b, w1, b1, w2, b2), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )

    n, d = table.data.shape

    def vjp(g):
        # one bincount adds each row's entries from 0.0 in row order, as
        # np.add.at would, so the sums have the same bits
        flat = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        return (np.bincount(flat, weights=g.reshape(-1),
                            minlength=n * d).reshape(n, d),)

    return Tensor._make(table.data[ids], (table,), vjp)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool,
            draw_shape: tuple) -> Tensor:
    """Inverted dropout; identity when not training or p == 0.

    The mask is drawn at `draw_shape` and its leading corner of x's shape
    is used, so an entry's mask does not depend on how far x was cut
    short of `draw_shape`.
    """
    if not train or p <= 0.0:
        return x
    draw = rng.random(draw_shape)
    keep = draw[tuple(slice(n) for n in x.data.shape)] >= p
    scale = 1.0 / (1.0 - p)

    def masked(a):   # a * keep * scale, which is a * (keep / (1 - p))
        out = np.multiply(a, keep)
        out *= scale
        return out

    return Tensor._make(masked(x.data), (x,), lambda g: (masked(g),))


# -- fused losses ------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target].

    Stabilized by max-subtraction; `logits` is [batch, C] and each
    target must lie in [0, C).
    """
    ld = logits.data
    if ld.ndim != 2:
        raise ShapeError(f"logits must be 2-d, got {ld.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    n, c = ld.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} != ({n},)")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise IndexError(f"target out of range [0, {c})")
    z = ld - ld.max(axis=1, keepdims=True)
    logz = np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = logz[:, 0] - z[np.arange(n), targets]

    def vjp(g):
        p = np.exp(z - logz)
        p[np.arange(n), targets] -= 1.0
        return (g * p / n,)

    return Tensor._make(nll.mean(), (logits,), vjp)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on raw logits; targets in {0, 1}."""
    ld = logits.data.reshape(-1)
    t = np.asarray(targets, dtype=DTYPE).reshape(-1)
    if ld.shape != t.shape:
        raise ShapeError(f"logit/target shapes disagree: {ld.shape} vs {t.shape}")
    # log(1 + exp(-|x|)) form avoids overflow on large |x|
    loss = np.maximum(ld, 0.0) - ld * t + np.log1p(np.exp(-np.abs(ld)))

    def vjp(g):
        sig = 1.0 / (1.0 + np.exp(-ld))
        return ((g * (sig - t) / ld.size).reshape(logits.data.shape),)

    return Tensor._make(loss.mean(), (logits,), vjp)


# -- gradient checking --------------------------------------------------------

def gradcheck(loss_fn, params: dict, rng: np.random.Generator,
              max_elements: int = 25) -> dict:
    """Compare analytic gradients against central finite differences.

    `loss_fn()` must rebuild the scalar loss from the live `params`
    tensors on every call (deterministic: no dropout). Returns
    {name: max relative error}, which is inf where an analytic or numeric
    derivative is not finite; the caller holds the tolerance. Large
    parameters are probed at `max_elements` entries drawn from `rng`.
    """
    for p in params.values():
        p.grad = None
    loss_fn().backward()
    report = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        analytic = np.zeros_like(flat) if p.grad is None else p.grad.reshape(-1)
        n = flat.size
        idxs = (rng.choice(n, size=max_elements, replace=False)
                if n > max_elements else np.arange(n))
        max_rel = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + GRADCHECK_STEP
            up = loss_fn().item()
            flat[i] = orig - GRADCHECK_STEP
            down = loss_fn().item()
            flat[i] = orig
            num = (up - down) / (2 * GRADCHECK_STEP)
            if not (math.isfinite(num) and math.isfinite(analytic[i])):
                max_rel = math.inf   # max() would drop a NaN
                break
            denom = max(abs(num), abs(analytic[i]), 1e-8)
            max_rel = max(max_rel, abs(num - analytic[i]) / denom)
        report[name] = max_rel
    return report
