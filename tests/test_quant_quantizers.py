"""Tests for observers and quantizer primitives (including property tests)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant.observers import EmaMinMaxObserver, MinMaxObserver, TensorRange
from repro.quant.quantizers import (
    QuantParams,
    compute_qparams,
    dequantize,
    fake_quantize,
    int_range,
    lower_bitwidth_naive,
    quantize,
)
from repro.tensor import Tensor
from reference_kernels import quantization_error


class TestObservers:
    def test_minmax_per_tensor(self):
        obs = MinMaxObserver()
        obs.observe(np.array([1.0, -3.0, 2.0]))
        obs.observe(np.array([0.5, 4.0]))
        r = obs.range()
        assert r.low[0] == -3.0 and r.high[0] == 4.0
        assert r.max_abs[0] == 4.0

    def test_minmax_per_channel(self):
        obs = MinMaxObserver(channel_axis=0)
        obs.observe(np.array([[1.0, -2.0], [3.0, 0.5]]))
        r = obs.range()
        np.testing.assert_allclose(r.low, [-2.0, 0.5])
        np.testing.assert_allclose(r.high, [1.0, 3.0])

    def test_minmax_uninitialised_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxObserver().range()

    def test_ema_converges_to_stationary_range(self):
        obs = EmaMinMaxObserver(momentum=0.9)
        for _ in range(200):
            obs.observe(np.array([-1.0, 1.0]))
        r = obs.range()
        assert r.low[0] == pytest.approx(-1.0, abs=1e-3)
        assert r.high[0] == pytest.approx(1.0, abs=1e-3)

    def test_ema_smooths_outliers(self):
        obs = EmaMinMaxObserver(momentum=0.99)
        obs.observe(np.array([-1.0, 1.0]))
        obs.observe(np.array([-100.0, 100.0]))  # single outlier batch
        assert obs.range().high[0] < 3.0

    def test_ema_invalid_momentum(self):
        with pytest.raises(ValueError):
            EmaMinMaxObserver(momentum=1.5)


class TestQuantParams:
    def test_int_range(self):
        assert int_range(8) == (-128, 127)
        assert int_range(4) == (-8, 7)
        with pytest.raises(ValueError):
            int_range(1)
        with pytest.raises(ValueError):
            int_range(16)

    def test_compute_qparams_per_tensor(self):
        r = TensorRange(low=np.array([-2.0]), high=np.array([1.0]))
        params = compute_qparams(r, bits=8)
        assert params.scale[0] == pytest.approx(2.0 / 127)
        assert not params.per_channel

    def test_compute_qparams_per_channel_broadcast(self):
        r = TensorRange(low=np.array([-1.0, -2.0, -4.0]), high=np.array([1.0, 2.0, 4.0]))
        params = compute_qparams(r, bits=8, channel_axis=0)
        assert params.per_channel
        assert params.broadcast_scale(3).shape == (3, 1, 1)

    def test_zero_range_protected(self):
        r = TensorRange(low=np.array([0.0]), high=np.array([0.0]))
        params = compute_qparams(r, bits=8)
        assert params.scale[0] > 0


class TestQuantizeDequantize:
    def test_values_in_integer_range(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 3, size=(64,)).astype(np.float32)
        params = compute_qparams(TensorRange(low=values.min(None, keepdims=True),
                                             high=values.max(None, keepdims=True)), 8)
        q = quantize(values, params)
        assert q.min() >= -128 and q.max() <= 127

    def test_roundtrip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-1, 1, size=200).astype(np.float32)
        params = compute_qparams(TensorRange(low=np.array([-1.0]), high=np.array([1.0])), 8)
        reconstructed = dequantize(quantize(values, params), params)
        assert np.abs(values - reconstructed).max() <= params.scale[0] / 2 + 1e-6

    def test_per_channel_uses_own_scale(self):
        values = np.array([[0.1, 0.1], [10.0, 10.0]], dtype=np.float32)
        params = compute_qparams(
            TensorRange(low=np.array([-0.1, -10.0]), high=np.array([0.1, 10.0])),
            8, channel_axis=0,
        )
        q = quantize(values, params)
        np.testing.assert_array_equal(q[0], q[1])  # both rows map to full scale

    def test_quantization_error_smaller_for_more_bits(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=500).astype(np.float32)
        r = TensorRange(low=np.array([values.min()]), high=np.array([values.max()]))
        err8 = quantization_error(values, compute_qparams(r, 8))
        err4 = quantization_error(values, compute_qparams(r, 4))
        assert err8 < err4

    def test_clipping_saturates(self):
        params = QuantParams(scale=np.array([1.0]), bits=4)
        q = quantize(np.array([100.0, -100.0]), params)
        np.testing.assert_array_equal(q, [7, -8])

    def test_naive_lowering(self):
        q8 = np.array([127, -128, 16, 7])
        q4 = lower_bitwidth_naive(q8, 8, 4)
        np.testing.assert_array_equal(q4, [7, -8, 1, 0])


class TestFakeQuantize:
    def test_forward_matches_integer_grid(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(8, 8)).astype(np.float32)
        params = compute_qparams(
            TensorRange(low=np.array([values.min()]), high=np.array([values.max()])), 8
        )
        fake = fake_quantize(Tensor(values), params).data
        exact = dequantize(quantize(values, params), params)
        np.testing.assert_allclose(fake, exact, atol=1e-6)

    def test_straight_through_gradient(self):
        params = QuantParams(scale=np.array([0.1]), bits=8)
        x = Tensor(np.array([0.33, -0.57], dtype=np.float32), requires_grad=True)
        fake_quantize(x, params).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_gradient_masked_outside_range(self):
        params = QuantParams(scale=np.array([0.01]), bits=4)  # range +-0.08
        x = Tensor(np.array([0.0, 5.0], dtype=np.float32), requires_grad=True)
        fake_quantize(x, params).sum().backward()
        assert x.grad[0] == 1.0
        assert x.grad[1] == 0.0


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
float_arrays = hnp.arrays(
    dtype=np.float32,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=32),
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
)


class TestQuantizationProperties:
    @given(values=float_arrays, bits=st.integers(min_value=2, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_error_bounded(self, values, bits):
        max_abs = float(np.abs(values).max())
        if max_abs == 0:
            return
        params = compute_qparams(
            TensorRange(low=np.array([-max_abs]), high=np.array([max_abs])), bits
        )
        reconstructed = dequantize(quantize(values, params), params)
        assert np.abs(values - reconstructed).max() <= params.scale[0] * 0.5 + 1e-5

    @given(values=float_arrays)
    @settings(max_examples=40, deadline=None)
    def test_quantize_idempotent_on_grid(self, values):
        max_abs = float(np.abs(values).max())
        if max_abs == 0:
            return
        params = compute_qparams(
            TensorRange(low=np.array([-max_abs]), high=np.array([max_abs])), 8
        )
        once = dequantize(quantize(values, params), params)
        twice = dequantize(quantize(once, params), params)
        np.testing.assert_allclose(once, twice, atol=1e-6)

    @given(values=float_arrays, bits=st.integers(min_value=2, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_quantized_values_within_bit_range(self, values, bits):
        max_abs = max(float(np.abs(values).max()), 1e-3)
        params = compute_qparams(
            TensorRange(low=np.array([-max_abs]), high=np.array([max_abs])), bits
        )
        q = quantize(values, params)
        qmin, qmax = int_range(bits)
        assert q.min() >= qmin and q.max() <= qmax
