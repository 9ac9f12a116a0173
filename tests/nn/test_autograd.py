"""Autograd correctness: every op's gradient vs central finite differences."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, concat, log_softmax, no_grad, softmax, stack

RNG = np.random.default_rng(42)


def gradcheck(fn, x0, eps=1e-6, tol=1e-7):
    """Max abs difference between autograd and numeric gradient of fn(x).sum-like scalar."""
    x = Tensor(x0.copy(), requires_grad=True)
    fn(x).backward()
    analytic = x.grad.copy()
    numeric = np.zeros_like(x0)
    flat = x0.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(Tensor(x0)).item()
        flat[i] = original - eps
        minus = fn(Tensor(x0)).item()
        flat[i] = original
        num_flat[i] = (plus - minus) / (2 * eps)
    error = np.abs(analytic - numeric).max()
    assert error < tol, f"gradcheck failed: {error}"


def test_add_sub_mul():
    x0 = RNG.normal(size=(3, 4))
    gradcheck(lambda x: ((x + 2.0) * (x - 1.0)).sum(), x0)


def test_division():
    x0 = RNG.normal(size=(3, 4)) + 5.0
    gradcheck(lambda x: (1.0 / x + x / 3.0).sum(), x0)


def test_power():
    x0 = np.abs(RNG.normal(size=(2, 3))) + 0.5
    gradcheck(lambda x: (x**3 + x**0.5).sum(), x0)


def test_broadcast_add():
    x0 = RNG.normal(size=(4,))
    other = Tensor(RNG.normal(size=(3, 4)))
    gradcheck(lambda x: (x + other).sum(), x0)


def test_broadcast_mul_keepdims():
    x0 = RNG.normal(size=(3, 1))
    other = Tensor(RNG.normal(size=(3, 5)))
    gradcheck(lambda x: (x * other).sum(), x0)


def test_matmul_2d():
    x0 = RNG.normal(size=(3, 4))
    w = Tensor(RNG.normal(size=(4, 5)))
    gradcheck(lambda x: (x @ w).sum(), x0)


def test_matmul_weight_side():
    a = Tensor(RNG.normal(size=(3, 4)))
    w0 = RNG.normal(size=(4, 5))
    gradcheck(lambda w: (a @ w).sum(), w0)


def test_matmul_batched():
    x0 = RNG.normal(size=(2, 3, 4))
    w = Tensor(RNG.normal(size=(2, 4, 5)))
    gradcheck(lambda x: (x @ w).sum(), x0)


def test_matmul_broadcast_batch():
    x0 = RNG.normal(size=(3, 4))
    w = Tensor(RNG.normal(size=(2, 4, 5)))
    gradcheck(lambda x: (x @ w).sum(), x0)


def test_elementwise_nonlinearities():
    x0 = RNG.normal(size=(3, 3))
    gradcheck(lambda x: x.tanh().sum(), x0)
    gradcheck(lambda x: x.sigmoid().sum(), x0)
    gradcheck(lambda x: x.gelu().sum(), x0, tol=1e-6)
    gradcheck(lambda x: (x + 10.0).log().sum(), x0)
    gradcheck(lambda x: x.exp().sum(), x0, tol=1e-6)


def test_gelu_bitwise_same_with_and_without_grad():
    """Training and inference run one GELU: the values under ``no_grad``
    equal the graph-recording values to the bit. 100k draws at scale 3
    are enough to expose a single-ulp difference in the cube."""
    x0 = np.random.default_rng(7).normal(scale=3.0, size=(100, 1000))
    with_grad = Tensor(x0, requires_grad=True).gelu()
    assert with_grad._parents  # the graph was recorded
    with no_grad():
        inference = Tensor(x0, requires_grad=True).gelu()
    assert inference._parents == ()
    assert np.array_equal(with_grad.numpy(), inference.numpy())


def test_relu_gradient_away_from_kink():
    x0 = RNG.normal(size=(4, 4))
    x0[np.abs(x0) < 0.1] += 0.5  # avoid the non-differentiable point
    gradcheck(lambda x: x.relu().sum(), x0)


def test_reductions():
    x0 = RNG.normal(size=(3, 4))
    gradcheck(lambda x: x.sum(axis=0).sum(), x0)
    gradcheck(lambda x: x.sum(axis=1, keepdims=True).sum(), x0)
    gradcheck(lambda x: x.mean(axis=1).sum(), x0)
    gradcheck(lambda x: x.mean(), x0)


def test_reshape_transpose():
    x0 = RNG.normal(size=(2, 3, 4))
    w = Tensor(RNG.normal(size=(2, 4, 3)))
    gradcheck(lambda x: (x.reshape(2, 12).reshape(2, 3, 4) * w.transpose(0, 2, 1)).sum(), x0)


def test_getitem_slice():
    x0 = RNG.normal(size=(4, 5))
    gradcheck(lambda x: (x[1:3, ::2] ** 2).sum(), x0)


def test_take_rows_embedding_gather():
    x0 = RNG.normal(size=(6, 3))
    indices = np.array([[0, 2, 2], [5, 0, 1]])
    gradcheck(lambda x: (x.take_rows(indices) ** 2).sum(), x0)


def test_concat_and_stack():
    x0 = RNG.normal(size=(2, 3))
    other = Tensor(RNG.normal(size=(2, 2)))
    gradcheck(lambda x: concat([x, other], axis=1).sum(), x0)
    y = Tensor(RNG.normal(size=(2, 3)))
    gradcheck(lambda x: (stack([x, y], axis=0) ** 2).sum(), x0)


def test_softmax_and_log_softmax():
    x0 = RNG.normal(size=(3, 5))
    weights = Tensor(RNG.normal(size=(3, 5)))
    gradcheck(lambda x: (softmax(x) * weights).sum(), x0, tol=1e-6)
    gradcheck(lambda x: (log_softmax(x) * weights).sum(), x0, tol=1e-6)


def test_softmax_rows_sum_to_one():
    out = softmax(Tensor(RNG.normal(size=(4, 7)))).numpy()
    assert np.allclose(out.sum(axis=-1), 1.0)


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    y.backward()
    assert x.grad[0] == pytest.approx(7.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * 2).backward()


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2).sum()
    assert y._parents == ()


def test_detach_cuts_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    y = (x * 2).detach()
    z = (y * 3).sum()
    z.backward()
    assert x.grad is None


def test_diamond_graph_topological_order():
    """Shared subexpressions must receive both gradient contributions."""
    x = Tensor(np.array([3.0]), requires_grad=True)
    shared = x * 2.0
    out = (shared * shared).sum()  # d/dx (2x)^2 = 8x = 24
    out.backward()
    assert x.grad[0] == pytest.approx(24.0)
