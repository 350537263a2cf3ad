"""Adam with decoupled weight decay, operating on named parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import GradientError, Tensor

BETA1 = 0.9     # first-moment decay
BETA2 = 0.999   # second-moment decay
EPS = 1e-8      # added to the root of the second moment


@dataclass
class AdamState:
    """Per-parameter moment buffers plus the weight decay; the learning
    rate is passed to each `adam_step`."""

    weight_decay: float = 1e-5
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)

    def _ensure(self, name: str, data: np.ndarray):
        if name not in self.first_moment:
            self.first_moment[name] = np.zeros_like(data)
            self.second_moment[name] = np.zeros_like(data)


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float):
    """One in-place update of every parameter that has a gradient, at
    learning rate `lr` (the schedule's value for this step).

    Weight decay is decoupled: it scales with lr and is applied even to
    zero-gradient parameters.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient in parameter '{name}'")
        state._ensure(name, p.data)
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p.data -= lr * mhat / (np.sqrt(vhat) + EPS)
        if state.weight_decay:
            p.data -= lr * state.weight_decay * p.data
