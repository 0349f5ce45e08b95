"""Unit tests for the autodiff tensor substrate (gradients vs finite differences)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar-valued function."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x.copy())
        flat[i] = original - eps
        minus = fn(x.copy())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(op, shape, seed=0, atol=2e-2, positive=False):
    rng = np.random.default_rng(seed)
    x_np = rng.normal(0, 1, size=shape).astype(np.float32)
    if positive:
        x_np = np.abs(x_np) + 0.5

    def scalar_fn(values):
        return float(op(Tensor(values)).sum().data)

    x = Tensor(x_np.copy(), requires_grad=True)
    out = op(x).sum()
    out.backward()
    numeric = numerical_gradient(scalar_fn, x_np.astype(np.float64))
    np.testing.assert_allclose(x.grad, numeric, atol=atol, rtol=1e-2)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda x: x + 3.0, (4, 5))

    def test_mul(self):
        check_gradient(lambda x: x * x, (3, 4))

    def test_sub_rsub(self):
        check_gradient(lambda x: 2.0 - x, (6,))

    def test_div(self):
        check_gradient(lambda x: x / 2.5, (3, 3))

    def test_rdiv(self):
        check_gradient(lambda x: 1.0 / x, (4,), positive=True)

    def test_pow(self):
        check_gradient(lambda x: x**3, (5,))

    def test_neg(self):
        check_gradient(lambda x: -x, (2, 3))

    def test_exp(self):
        check_gradient(lambda x: x.exp(), (3, 2))

    def test_log(self):
        check_gradient(lambda x: x.log(), (4,), positive=True)

    def test_sqrt(self):
        check_gradient(lambda x: x.sqrt(), (4,), positive=True)

    def test_tanh(self):
        check_gradient(lambda x: x.tanh(), (3, 3))

    def test_relu(self):
        # Offset away from 0 to avoid the kink in finite differences.
        check_gradient(lambda x: (x + 5.0).relu(), (4, 4))

    def test_abs(self):
        check_gradient(lambda x: (x + 5.0).abs(), (6,))

    def test_clip(self):
        check_gradient(lambda x: x.clip(-0.5, 0.5) * 2.0, (20,), atol=5e-2)


class TestReductionGradients:
    def test_sum_all(self):
        check_gradient(lambda x: x.sum(), (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda x: x.sum(axis=1).sum(), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda x: x.sum(axis=0, keepdims=True).sum(), (3, 4))

    def test_mean(self):
        check_gradient(lambda x: x.mean(axis=-1).sum(), (2, 6))

    def test_var(self):
        check_gradient(lambda x: x.var(axis=-1).sum(), (2, 8), atol=3e-2)

    def test_max(self):
        rng = np.random.default_rng(3)
        x_np = rng.normal(0, 1, size=(3, 5)).astype(np.float32)
        x = Tensor(x_np, requires_grad=True)
        x.max(axis=1).sum().backward()
        # Gradient lands only on the (unique) max elements.
        expected = np.zeros_like(x_np)
        expected[np.arange(3), x_np.argmax(axis=1)] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestMatmulGradients:
    def test_matmul_2d(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T, atol=1e-5)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)), atol=1e-5)

    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)).astype(np.float32), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == a.shape
        assert b.grad.shape == b.shape

    def test_matmul_broadcast_weight(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        (a @ w).sum().backward()
        assert w.grad.shape == (4, 5)


class TestShapeOps:
    def test_reshape_grad(self):
        check_gradient(lambda x: x.reshape(6, 2).sum(axis=0).sum(), (3, 4))

    def test_transpose_grad(self):
        check_gradient(lambda x: x.transpose(1, 0).sum(axis=0).sum(), (3, 4))

    def test_getitem_grad(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
        x[1].sum().backward()
        expected = np.zeros((3, 4))
        expected[1] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_pad_grad(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        padded = x.pad(((1, 1), (1, 1)))
        assert padded.shape == (4, 4)
        padded.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 2)))

    def test_concatenate_grad(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))

    def test_stack(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        out = Tensor.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))

    def test_swapaxes(self):
        x = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        assert x.swapaxes(0, 2).shape == (4, 3, 2)


class TestBroadcasting:
    def test_broadcast_add_grad_shapes(self):
        a = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((1, 3), dtype=np.float32), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (4, 3)
        assert b.grad.shape == (1, 3)
        np.testing.assert_allclose(b.grad, np.full((1, 3), 4.0))

    def test_broadcast_scalar(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 3.0))

    def test_broadcast_mul_vector(self):
        a = Tensor(np.ones((2, 3, 4), dtype=np.float32), requires_grad=True)
        b = Tensor(np.full((4,), 2.0, dtype=np.float32), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((4,), 6.0))


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5], dtype=np.float32), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a * b).backward()  # d/dx (6x^2) = 12x
        np.testing.assert_allclose(x.grad, [18.0], atol=1e-5)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        x = Tensor(np.ones(1, dtype=np.float32))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad and y._parents == ()
        z = x * 2.0  # recording resumes on leaving the block
        assert z.requires_grad and z._parents

    def test_detach(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        assert not x.detach().requires_grad

    def test_zero_grad(self):
        x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_float64_downcast(self):
        x = Tensor(np.ones(3, dtype=np.float64))
        assert x.dtype == np.float32

    def test_comparisons_no_grad(self):
        x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        mask = x > 0
        assert not mask.requires_grad
        np.testing.assert_array_equal(mask.data, [True, False])

    def test_item_and_len(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_repr_mentions_shape(self):
        assert "shape=(2, 3)" in repr(Tensor(np.zeros((2, 3))))
