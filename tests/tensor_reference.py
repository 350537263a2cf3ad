"""Tensor ops that only the tests use.

The package's graph needs none of these. The kernels are the plain
expressions of linear, GELU, layer norm, embedding, dropout and
attention, each allocating a temporary per operation. The package
writes linear, layer norm and dropout the same way; it computes GELU and
attention's softmax with the same operations in the same order in owned
buffers filled in place (the softmax gradient one batch row at a time),
and embedding's gradient in one ``np.bincount``.
tests/test_tensor_kernels.py requires the same bits. The pre-norm
sublayers at the end chain those kernels into the graph of several nodes
that the package's one-node ``attention`` and ``ffn`` replace;
tests/test_model.py trains a model on these chains and requires the
package's gradients.
"""

import math

import numpy as np
from scipy.special import erf

from entqa import tensor as T
from entqa.tensor import Tensor


def _softmax(xd: np.ndarray, axis: int) -> np.ndarray:
    z = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_vjp(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


# -- plain kernels: the oracle for the package's in-place ones --------------

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    xd, wd = x.data, w.data
    return Tensor._make(np.matmul(xd, wd) + b.data, (x, w, b),
                        lambda g: (np.matmul(g, wd.swapaxes(-1, -2)),
                                   np.matmul(xd.swapaxes(-1, -2), g), g))


def gelu(x: Tensor) -> Tensor:
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * T._INV_SQRT2))

    def vjp(g):
        pdf = np.exp(-0.5 * xd * xd) * T._INV_SQRT2PI
        return (g * (cdf + xd * pdf),)

    return Tensor._make(xd * cdf, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv

    def vjp(g):
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        return inv * (gy - m1 - xhat * m2), g * xhat, g

    return Tensor._make(xhat * gain.data + bias.data, (x, gain, bias), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return (full,)

    return Tensor._make(table.data[ids], (table,), vjp)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool,
            draw_shape: tuple) -> Tensor:
    if not train or p <= 0.0:
        return x
    draw = rng.random(draw_shape)
    keep = draw[tuple(slice(n) for n in x.data.shape)] >= p
    return Tensor._make(x.data * (keep / (1.0 - p)), (x,),
                        lambda g: (g * (keep / (1.0 - p)),))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              mask: np.ndarray) -> Tensor:
    B, L, d = q.shape
    dh = d // heads

    def split(a):
        return a.reshape(B, L, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(B, L, d)

    qd, kt, vd = split(q.data), split(k.data).swapaxes(-1, -2), split(v.data)
    scale = 1.0 / math.sqrt(dh)
    bias = np.where(np.asarray(mask, dtype=bool), 0.0, T.MASK_NEG)
    scores = np.matmul(qd, kt) * scale + bias[:, None, None, :]
    y = _softmax(scores, -1)

    def vjp(g):
        gh = np.ascontiguousarray(split(g))
        gy = _softmax_vjp(y, np.matmul(gh, vd.swapaxes(-1, -2)), -1) * scale
        return (merge(np.matmul(gy, kt.swapaxes(-1, -2))),
                merge(np.matmul(qd.swapaxes(-1, -2), gy).swapaxes(-1, -2)),
                merge(np.matmul(y.swapaxes(-1, -2), gh)))

    return Tensor._make(merge(np.matmul(y, vd)), (q, k, v), vjp)


# -- pre-norm sublayers as chains of nodes ------------------------------------

def pre_norm_attention(x: Tensor, ln_g: Tensor, ln_b: Tensor, wq: Tensor,
                       bq: Tensor, wk: Tensor, wv: Tensor, bv: Tensor,
                       wo: Tensor, bo: Tensor, heads: int,
                       mask: np.ndarray) -> Tensor:
    xn = layer_norm(x, ln_g, ln_b)
    att = attention(linear(xn, wq, bq), xn.matmul(wk), linear(xn, wv, bv),
                    heads, mask)
    return linear(att, wo, bo)


def pre_norm_ffn(x: Tensor, ln_g: Tensor, ln_b: Tensor, w1: Tensor,
                 b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    return linear(gelu(linear(layer_norm(x, ln_g, ln_b), w1, b1)), w2, b2)
