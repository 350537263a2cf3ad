import numpy as np
import pytest

from entqa.optim import AdamState, adam_step
from entqa.tensor import GradientError, Tensor


def test_zero_grad_moves_only_by_weight_decay():
    p = Tensor(np.full(3, 2.0), requires_grad=True)
    p.grad = np.zeros(3)
    state = AdamState(weight_decay=0.01)
    adam_step({"p": p}, state, lr=0.1)
    np.testing.assert_allclose(p.data, 2.0 - 0.1 * 0.01 * 2.0, rtol=1e-12)


def test_single_step_closed_form():
    p = Tensor(np.zeros(1), requires_grad=True)
    p.grad = np.ones(1)
    state = AdamState(weight_decay=0.0)
    adam_step({"p": p}, state, lr=0.1)
    # bias-corrected m-hat and v-hat are both exactly 1 after one step
    assert p.data[0] == pytest.approx(-0.1, rel=1e-6)


def test_quadratic_loss_decreases_monotonically():
    p = Tensor(np.array([3.0]), requires_grad=True)
    state = AdamState(weight_decay=0.0)
    losses = []
    for _ in range(3):
        losses.append(float(p.data[0] ** 2))
        p.grad = 2 * p.data
        adam_step({"p": p}, state, lr=0.05)
    losses.append(float(p.data[0] ** 2))
    assert losses == sorted(losses, reverse=True)


def test_nonfinite_gradient_names_parameter():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([1.0, np.nan])
    with pytest.raises(GradientError, match="theta"):
        adam_step({"theta": p}, AdamState(), lr=2e-5)


def test_moments_shape_matched_and_zero_initialized():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    p.grad = np.zeros((2, 3))
    state = AdamState()
    adam_step({"p": p}, state, lr=2e-5)
    assert state.first_moment["p"].shape == (2, 3)
    assert state.step_count == 1


def test_defaults_match_contract():
    state = AdamState()
    assert state.weight_decay == 1e-5
