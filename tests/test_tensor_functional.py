"""Tests for functional ops: convolution, pooling, activations and losses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F
from repro.tensor.functional import col2im, im2col


# Every zoo model's array path runs through this code: a numpy
# invalid/overflow/divide warning fails.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def naive_conv2d(x, w, b, stride=1, padding=0):
    """Direct convolution reference used to validate the im2col path."""
    n, c, h, width = x.shape
    out_ch, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kh) // stride + 1
    out_w = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, out_ch, out_h, out_w), dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            patch = x[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            out[:, :, i, j] = np.einsum("nchw,ochw->no", patch, w)
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


class TestIm2Col:
    def test_roundtrip_counts(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols, (oh, ow) = im2col(x, (3, 3), stride=1, padding=1)
        assert cols.shape == (2, 36, 27)
        assert (oh, ow) == (6, 6)
        # col2im of ones counts how many windows cover each pixel.
        counts = col2im(np.ones_like(cols), x.shape, (3, 3), 1, 1)
        assert counts.max() == 9  # interior pixels covered by all 9 taps
        assert counts.min() == 4  # corners covered by 4

    def test_stride_output_size(self):
        x = np.zeros((1, 1, 8, 8), dtype=np.float32)
        _, (oh, ow) = im2col(x, (3, 3), stride=2, padding=1)
        assert (oh, ow) == (4, 4)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_naive(self, stride, padding):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)).astype(np.float32))
        b = Tensor(rng.normal(size=(5,)).astype(np.float32))
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        expected = naive_conv2d(x.data, w.data, b.data, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-4)

    def test_grouped_conv_shapes(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 4, 6, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 1, 3, 3)).astype(np.float32))
        out = F.conv2d(x, w, None, padding=1, groups=4)
        assert out.shape == (1, 4, 6, 6)

    def test_grouped_equals_blockdiag_dense(self):
        """A grouped conv must equal a dense conv with a block-diagonal kernel."""
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)).astype(np.float32))
        w_group = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        dense = np.zeros((4, 4, 3, 3), dtype=np.float32)
        dense[0:2, 0:2] = w_group[0:2]
        dense[2:4, 2:4] = w_group[2:4]
        out_grouped = F.conv2d(x, Tensor(w_group), None, padding=1, groups=2)
        out_dense = F.conv2d(x, Tensor(dense), None, padding=1)
        np.testing.assert_allclose(out_grouped.data, out_dense.data, atol=1e-4)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_gradients_flow(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        F.conv2d(x, w, b, padding=1).sum().backward()
        assert x.grad.shape == x.shape
        assert w.grad.shape == w.shape
        # Bias gradient is the number of output positions per channel.
        np.testing.assert_allclose(b.grad, np.full(3, 25.0), atol=1e-4)

    def test_weight_gradient_numeric(self):
        rng = np.random.default_rng(5)
        x_np = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        w_np = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)

        def loss_for(weights):
            out = F.conv2d(Tensor(x_np), Tensor(weights), None, padding=1)
            return float((out * out).sum().data)

        w = Tensor(w_np.copy(), requires_grad=True)
        out = F.conv2d(Tensor(x_np), w, None, padding=1)
        (out * out).sum().backward()

        eps = 1e-3
        index = (1, 0, 1, 2)
        perturbed = w_np.copy()
        perturbed[index] += eps
        plus = loss_for(perturbed)
        perturbed[index] -= 2 * eps
        minus = loss_for(perturbed)
        numeric = (plus - minus) / (2 * eps)
        assert w.grad[index] == pytest.approx(numeric, rel=5e-2)


class TestPooling:
    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 4, 4), dtype=np.float32))
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, 1.0)


class TestActivations:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 7)).astype(np.float32))
        probs = F.softmax(x)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-5)
        assert (probs.data >= 0).all()

    def test_softmax_invariant_to_shift(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 5)).astype(np.float32))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-5
        )

    def test_gelu_values(self):
        x = Tensor(np.array([0.0, 10.0, -10.0], dtype=np.float32))
        out = F.gelu(x).data
        assert out[0] == pytest.approx(0.0, abs=1e-6)
        assert out[1] == pytest.approx(10.0, rel=1e-3)
        assert out[2] == pytest.approx(0.0, abs=1e-3)

    def test_relu6_clips(self):
        x = Tensor(np.array([-1.0, 3.0, 9.0], dtype=np.float32))
        np.testing.assert_allclose(F.relu6(x).data, [0.0, 3.0, 6.0])

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 16)).astype(np.float32))
        weight = Tensor(np.ones(16, dtype=np.float32))
        bias = Tensor(np.zeros(16, dtype=np.float32))
        out = F.layer_norm(x, weight, bias).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)


class TestLosses:
    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32))
        loss = F.cross_entropy(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(4), rel=1e-4)

    def test_cross_entropy_confident(self):
        logits = np.full((1, 3), -10.0, dtype=np.float32)
        logits[0, 1] = 10.0
        loss = F.cross_entropy(Tensor(logits), np.array([1]))
        assert loss.item() < 1e-3

    def test_cross_entropy_gradient_direction(self):
        logits = Tensor(np.zeros((1, 3), dtype=np.float32), requires_grad=True)
        F.cross_entropy(logits, np.array([2])).backward()
        # Gradient pushes the target logit up (negative grad) and others down.
        assert logits.grad[0, 2] < 0
        assert logits.grad[0, 0] > 0

    def test_soft_cross_entropy_matches_hard_for_onehot(self):
        rng = np.random.default_rng(3)
        logits_np = rng.normal(size=(4, 5)).astype(np.float32)
        labels = np.array([1, 0, 3, 2])
        onehot = np.eye(5, dtype=np.float32)[labels]
        hard = F.cross_entropy(Tensor(logits_np), labels).item()
        soft = F.soft_cross_entropy(Tensor(logits_np), onehot).item()
        assert hard == pytest.approx(soft, rel=1e-5)

    def test_accuracy(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]], dtype=np.float32)
        assert F.accuracy(logits, np.array([1, 0])) == 1.0
        assert F.accuracy(logits, np.array([0, 0])) == 0.5
