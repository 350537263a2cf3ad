"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery to train a small transformer QA stack on CPU, and
no op the package does not call: broadcast ``+`` and ``*``, stacked
matmul, ``reshape``, indexing, ``sum``, ``linear``, ``gelu``,
``layer_norm``, ``embedding``, ``dropout``, multi-head ``attention`` and
the fused cross-entropy losses, which ``gradcheck`` audits by finite
differences. No GPU, no broadcasting rules beyond what the model needs.

Every op computes its forward value and hands ``Tensor._make`` one
``(input, vjp)`` edge per tensor input, where ``vjp`` maps the output's
gradient to that input's gradient. The vjp may return a gradient in the
output's broadcast shape: ``Tensor.backward`` alone sums it down to the
input's shape and accumulates it. Edges whose input needs no gradient are
dropped when the op runs, so ops on constants record no graph.

A node keeps only what its backward needs: ``linear`` is one node for
``x @ w + b``, ``attention`` one node that takes [B, L, d] projections,
splits and merges the heads itself and holds q, k, v and the softmax
probabilities, and ``dropout`` a boolean mask. ``backward`` frees the
graph as it walks it: once a node has passed its gradient to its inputs
it drops its gradient and edges and stops requiring a gradient, so a
result can be backpropagated once (a second ``backward`` raises
``GradientError``), and only parameter (leaf) gradients remain
afterwards.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

DTYPE = np.float64

MASK_NEG = -1e30


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradientError(RuntimeError):
    """Raised on a non-finite gradient, or on backward through a graph
    that an earlier backward already freed."""


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


class Tensor:
    """A dense n-d float64 array with an optional gradient buffer.

    A tensor built by an op keeps ``_edges``: the ``(input, vjp)`` pairs
    of the inputs that require a gradient. ``backward()`` on a scalar
    result walks the edges in reverse topological order, fills ``grad`` on
    every requires_grad leaf reachable from it and frees the op results it
    passes through.
    """

    __slots__ = ("data", "grad", "requires_grad", "_edges")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._edges = ()

    # -- structural helpers -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray):
        # adopt the first gradient, copied only when not C-contiguous (as a
        # broadcast view is); `g` may be shared with another node, so
        # neither it nor the adopted buffer is ever written in place
        if self.grad is None:
            self.grad = np.asarray(g, order="C")
        else:
            self.grad = self.grad + g

    @staticmethod
    def _make(data, edges) -> "Tensor":
        """The op result `data`; keeps the edges whose input needs a gradient."""
        out = Tensor(data)
        out._edges = tuple((t, vjp) for t, vjp in edges if t.requires_grad)
        out.requires_grad = bool(out._edges)
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
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p, _ in node._edges:
                # every edge's input required a gradient when the op ran
                if not p.requires_grad:
                    raise GradientError(
                        "backward() through a graph already freed by an "
                        "earlier backward()")
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=DTYPE))
        # reverse topological order; a node is dropped from `topo` once its
        # gradient is passed on, so its arrays are freed as the walk goes
        while topo:
            node = topo.pop()
            if node._edges:
                for p, vjp in node._edges:
                    p._accumulate(_unbroadcast(vjp(node.grad), p.data.shape))
                node.grad, node._edges, node.requires_grad = None, (), False

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._coerce(other)
        return Tensor._make(self.data + other.data,
                            ((self, lambda g: g), (other, lambda g: g)))

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor._coerce(other)
        return Tensor._make(self.data * other.data,
                            ((self, lambda g: g * other.data),
                             (other, lambda g: g * self.data)))

    __rmul__ = __mul__

    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        _check_matmul(a, b)
        return Tensor._make(np.matmul(a, b),
                            ((self, lambda g: np.matmul(g, b.swapaxes(-1, -2))),
                             (other, lambda g: np.matmul(a.swapaxes(-1, -2), g))))

    __matmul__ = matmul

    def reshape(self, *shape) -> "Tensor":
        old = self.data.shape
        return Tensor._make(self.data.reshape(shape),
                            ((self, lambda g: g.reshape(old)),))

    def __getitem__(self, idx) -> "Tensor":
        def vjp(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            return full

        return Tensor._make(self.data[idx], ((self, vjp),))

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape)

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims),
                            ((self, vjp),))


def _check_matmul(a: np.ndarray, b: np.ndarray):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} vs {b.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node; the product is not kept for backward."""
    xd, wd = x.data, w.data
    _check_matmul(xd, wd)
    return Tensor._make(np.matmul(xd, wd) + b.data,
                        ((x, lambda g: np.matmul(g, wd.swapaxes(-1, -2))),
                         (w, lambda g: np.matmul(xd.swapaxes(-1, -2), g)),
                         (b, lambda g: g)))


# -- nonlinearities ----------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))

    def vjp(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return g * (cdf + xd * pdf)

    return Tensor._make(xd * cdf, ((x, vjp),))


def _softmax(xd: np.ndarray, axis: int) -> np.ndarray:
    z = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_vjp(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv

    def vjp_x(g):
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        return inv * (gy - m1 - xhat * m2)

    return Tensor._make(xhat * gain.data + bias.data,
                        ((x, vjp_x), (gain, lambda g: g * xhat), (bias, lambda g: g)))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return full

    return Tensor._make(table.data[ids], ((table, vjp),))


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool,
            draw_shape: tuple | None = None) -> Tensor:
    """Inverted dropout; identity when not training or p == 0.

    The mask is drawn at `draw_shape` (default: x's shape) and its leading
    corner of x's shape is used, so an entry's mask does not depend on how
    far x was cut short of `draw_shape`.
    """
    if not train or p <= 0.0:
        return x
    draw = rng.random(draw_shape or x.data.shape)
    keep = draw[tuple(slice(n) for n in x.data.shape)] >= p
    return Tensor._make(x.data * (keep / (1.0 - p)),
                        ((x, lambda g: g * (keep / (1.0 - p))),))


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
        return g * p / n

    return Tensor._make(nll.mean(), ((logits, vjp),))


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
        return (g * (sig - t) / ld.size).reshape(logits.data.shape)

    return Tensor._make(loss.mean(), ((logits, vjp),))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention, as one node.

    q, k, v are [B, L, d] projections; each is split into `heads` heads of
    d // heads features, every head attends on its own, and the heads are
    merged back into a [B, L, d] result. `mask` is a [B, L] boolean key
    mask whose False positions are excluded from normalization. Backward
    keeps q, k, v and the softmax probabilities only.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    B, L, d = q.shape
    if L == 0 or d == 0 or d % heads:
        raise ShapeError(f"cannot attend over L={L}, d={d} in {heads} heads")
    dh = d // heads

    def split(a):   # [B, L, d] -> [B, H, L, dh] view
        return a.reshape(B, L, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):   # [B, H, L, dh] -> [B, L, d]
        return a.transpose(0, 2, 1, 3).reshape(B, L, d)

    qd, kt, vd = split(q.data), split(k.data).swapaxes(-1, -2), split(v.data)
    scale = 1.0 / math.sqrt(dh)
    scores = np.matmul(qd, kt) * scale
    if mask is not None:
        # bias applies along the key axis, for every head and query
        bias = np.where(np.asarray(mask, dtype=bool), 0.0, MASK_NEG)
        scores = scores + bias[:, None, None, :]
    y = _softmax(scores, -1)
    memo = []   # (g, g split into heads, d(loss)/d(scaled scores))

    def head_grads(g):
        # Tensor.backward calls a node's vjps once each, all with the same g
        if not memo:
            gh = np.ascontiguousarray(split(g))
            gy = np.matmul(gh, vd.swapaxes(-1, -2))
            memo.append((g, gh, _softmax_vjp(y, gy, -1) * scale))
        assert memo[0][0] is g, "attention vjps called with different gradients"
        return memo[0][1:]

    return Tensor._make(
        merge(np.matmul(y, vd)),
        ((q, lambda g: merge(np.matmul(head_grads(g)[1], kt.swapaxes(-1, -2)))),
         (k, lambda g: merge(np.matmul(qd.swapaxes(-1, -2),
                                       head_grads(g)[1]).swapaxes(-1, -2))),
         (v, lambda g: merge(np.matmul(y.swapaxes(-1, -2), head_grads(g)[0])))))


# -- gradient checking --------------------------------------------------------

def gradcheck(loss_fn, params: dict, rng: np.random.Generator, h: float = 1e-5,
              max_elements: int = 25) -> dict:
    """Compare analytic gradients against central finite differences.

    `loss_fn()` must rebuild the scalar loss from the live `params`
    tensors on every call (deterministic: no dropout). Returns
    {name: max relative error}; the caller holds the tolerance. Large
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
            flat[i] = orig + h
            up = loss_fn().item()
            flat[i] = orig - h
            down = loss_fn().item()
            flat[i] = orig
            num = (up - down) / (2 * h)
            denom = max(abs(num), abs(analytic[i]), 1e-8)
            max_rel = max(max_rel, abs(num - analytic[i]) / denom)
        report[name] = max_rel
    return report
