"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery to train a small transformer QA stack on CPU:
elementwise arithmetic, stacked matmul, softmax, layer norm, GELU,
embedding lookup, dropout and fused cross-entropy losses. No GPU, no
broadcasting rules beyond what the model needs.
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
    """Raised when a non-finite gradient is encountered."""


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

    Building ops on Tensors records a backward closure; calling
    ``backward()`` on a scalar result fills ``grad`` on every
    requires_grad tensor reachable from it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- autodiff ------------------------------------------------------------

    def backward(self, grad=None):
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
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=DTYPE))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other):
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor._coerce(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dims disagree: {a.shape} vs {b.shape}")
        out_data = np.matmul(a, b)

        def backward(g):
            if self.requires_grad:
                ga = np.matmul(g, b.swapaxes(-1, -2))
                self._accumulate(_unbroadcast(ga, a.shape))
            if other.requires_grad:
                gb = np.matmul(a.swapaxes(-1, -2), g)
                other._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(old))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out_data = self.data.swapaxes(a, b)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.swapaxes(a, b))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(range(self.data.ndim))[::-1]
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.transpose(inv))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, idx, g)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


# -- nonlinearities ----------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out_data = xd * cdf

    def backward(g):
        if x.requires_grad:
            pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
            x._accumulate(g * (cdf + xd * pdf))

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along `axis`."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        n = xd.shape[-1]
        gy = g * gain.data
        if x.requires_grad:
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (gy - m1 - xhat * m2))
        if gain.requires_grad:
            red = tuple(range(g.ndim - 1))
            gain._accumulate((g * xhat).sum(axis=red))
        if bias.requires_grad:
            red = tuple(range(g.ndim - 1))
            bias._accumulate(g.sum(axis=red))

    return Tensor._make(out_data, (x, gain, bias), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    out_data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
            table._accumulate(full)

    return Tensor._make(out_data, (table,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not train or p <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p) / (1.0 - p)
    out_data = x.data * keep

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * keep)

    return Tensor._make(out_data, (x,), backward)


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
    out_data = nll.mean()

    def backward(g):
        if logits.requires_grad:
            p = np.exp(z - logz)
            p[np.arange(n), targets] -= 1.0
            logits._accumulate(g * p / n)

    return Tensor._make(out_data, (logits,), backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on raw logits; targets in {0, 1}."""
    ld = logits.data.reshape(-1)
    t = np.asarray(targets, dtype=DTYPE).reshape(-1)
    if ld.shape != t.shape:
        raise ShapeError(f"logit/target shapes disagree: {ld.shape} vs {t.shape}")
    # log(1 + exp(-|x|)) form avoids overflow on large |x|
    loss = np.maximum(ld, 0.0) - ld * t + np.log1p(np.exp(-np.abs(ld)))
    out_data = loss.mean()

    def backward(g):
        if logits.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-ld))
            logits._accumulate((g * (sig - t) / ld.size).reshape(logits.data.shape))

    return Tensor._make(out_data, (logits,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention over the last two axes.

    q, k, v are [..., L, d]; `mask` is a boolean key mask broadcastable
    to [..., L] where False positions are excluded from normalization.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    L, d = q.shape[-2], q.shape[-1]
    if L == 0 or d == 0:
        raise ShapeError(f"degenerate attention dims L={L}, d={d}")
    scores = q.matmul(k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d))
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        bias = np.where(mask, 0.0, MASK_NEG)
        # bias applies along the key axis
        scores = scores + Tensor(np.expand_dims(bias, -2))
    return softmax(scores, axis=-1).matmul(v)


# -- gradient checking --------------------------------------------------------

def gradcheck(loss_fn, params: dict, h: float = 1e-5, tolerance: float = 1e-4,
              max_elements: int = 25, rng: np.random.Generator | None = None) -> dict:
    """Compare analytic gradients against central finite differences.

    `loss_fn()` must rebuild the scalar loss from the live `params`
    tensors on every call (deterministic: no dropout). Returns a report
    {name: {"max_rel_err": float, "passed": bool}} plus an "all_passed"
    key. Large parameters are probed at `max_elements` random entries.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for p in params.values():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    report = {}
    all_passed = True
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if n > max_elements:
            idxs = rng.choice(n, size=max_elements, replace=False)
        else:
            idxs = np.arange(n)
        max_rel = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn().item()
            flat[i] = orig - h
            down = loss_fn().item()
            flat[i] = orig
            num = (up - down) / (2 * h)
            ana = analytic[name].reshape(-1)[i]
            denom = max(abs(num), abs(ana), 1e-8)
            max_rel = max(max_rel, abs(num - ana) / denom)
        passed = max_rel <= tolerance
        all_passed = all_passed and passed
        report[name] = {"max_rel_err": max_rel, "passed": passed}
    report["all_passed"] = all_passed
    return report
