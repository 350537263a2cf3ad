"""A short tour of the tensor core: building graphs, backprop, and the
finite-difference audit that keeps the gradients honest."""

import numpy as np

from entqa.tensor import Tensor, gelu, gradcheck, softmax_cross_entropy

# ---------------------------------------------------------------------------
# 1. A tiny computation graph: y = sum((x @ w + b)^2) / 8
# ---------------------------------------------------------------------------
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(4, 3)))
w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
b = Tensor(np.zeros(2), requires_grad=True)

h = x @ w + b
y = (h * h).sum() * (1.0 / h.data.size)
y.backward()

print("loss:", y.item())
print("dL/dw:\n", w.grad)
print("dL/db:", b.grad)

# ---------------------------------------------------------------------------
# 2. Cross-entropy on uniform logits is exactly log(num_classes).
# ---------------------------------------------------------------------------
logits = Tensor(np.zeros((2, 5)), requires_grad=True)
loss = softmax_cross_entropy(logits, np.array([1, 3]))
print("\nuniform 5-way CE:", loss.item(), "vs log(5):", np.log(5))

# ---------------------------------------------------------------------------
# 3. gradcheck compares every analytic gradient against central
#    differences; the same harness guards the full model in the tests.
# ---------------------------------------------------------------------------
def loss_fn():
    h = x @ w + b
    return (gelu(h) * h).sum()

TOLERANCE = 1e-4
errors = gradcheck(loss_fn, {"w": w, "b": b}, rng=np.random.default_rng(1))
for name, err in errors.items():
    print(f"{name}: max relative error {err:.2e} "
          f"({'ok' if err <= TOLERANCE else 'FAIL'})")
print("all passed:", max(errors.values()) <= TOLERANCE)
