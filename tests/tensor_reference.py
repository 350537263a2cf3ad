"""Unfused tensor ops that only the tests use.

The package's graph needs none of these: attention does its own head
split, merge and softmax inside one node. The tests build unfused
references from them (see tests/test_model.py) and check their
gradients alongside the package's ops (tests/test_tensor.py).
"""

import numpy as np

from entqa import tensor as T
from entqa.tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along `axis`."""
    y = T._softmax(x.data, axis)
    return Tensor._make(y, ((x, lambda g: T._softmax_vjp(y, g, axis)),))


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    return Tensor._make(x.data.swapaxes(a, b),
                        ((x, lambda g: g.swapaxes(a, b)),))


def transpose(x: Tensor, *axes) -> Tensor:
    inv = np.argsort(axes)
    return Tensor._make(x.data.transpose(axes),
                        ((x, lambda g: g.transpose(inv)),))


def mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return x.sum(axis=axis, keepdims=keepdims) * (1.0 / n)
