"""Property-based tests tying the runtime layers, kernels and selection together."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bit_extraction import BitExtractionPlan, extraction_shift, lower_bits
from repro.core.layout import ChannelLayout, build_layout_plan
from repro.core.prepared import PreparedKernel
from repro.core.runtime import FlexiQConv2d, FlexiQLinear
from repro.core.selection import SelectionConfig, greedy_selection, random_selection
from repro.hardware.kernels import MixedPrecisionGemm, mixed_gemm_reference
from repro.nn.layers import Conv2d, Linear
from repro.quant.quantizers import QuantParams, gemm_plane, quantize, quantize_unclipped
from repro.tensor import Tensor
from repro.tensor.functional import im2col, kept_columns, unfold
from reference_kernels import uniform_gemm_reference
from tests.test_core_selection import make_scores


# A quantized forward that emits a numpy invalid/overflow/divide warning fails.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def random_operands(seed, rows, out, channels):
    rng = np.random.default_rng(seed)
    channel_max = rng.integers(1, 128, size=channels)
    q_x = np.stack([rng.integers(-m, m + 1, size=rows) for m in channel_max], axis=1)
    q_w = np.stack([rng.integers(-m, m + 1, size=out) for m in channel_max], axis=1)
    return q_x, q_w, channel_max


class TestMixedGemmProperties:
    @given(
        seed=st.integers(0, 5000),
        rows=st.integers(1, 8),
        out=st.integers(1, 8),
        groups=st.integers(1, 6),
        boundary_groups=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_kernel_matches_reference(self, seed, rows, out, groups, boundary_groups):
        """For group-uniform shifts the grouped hardware kernel and the flat
        reference formulation agree exactly, for any boundary position."""
        group_size = 4
        channels = groups * group_size
        boundary = min(boundary_groups, groups) * group_size
        q_x, q_w, channel_max = random_operands(seed, rows, out, channels)
        shifts = extraction_shift(channel_max, 8, 4)
        group_shifts = shifts.reshape(-1, group_size).max(axis=1).repeat(group_size)

        kernel = MixedPrecisionGemm(group_size=group_size)
        acc = kernel(q_x, q_w, boundary, group_shifts, group_shifts)
        reference = mixed_gemm_reference(q_x, q_w, boundary, group_shifts, group_shifts)
        np.testing.assert_array_equal(acc, reference)

        # Dynamic extraction is the same kernel at the position (paper §4.1,
        # ``extraction_shift``) of each group's observed maximum: same
        # accumulator, same counts but for the OR-reductions that found it.
        observed = np.abs(q_x).reshape(rows, groups, group_size).max(axis=(0, 2))
        observed_shifts = extraction_shift(observed, 8, 4).repeat(group_size)
        static = MixedPrecisionGemm(group_size=group_size)
        dynamic = MixedPrecisionGemm(group_size=group_size)
        np.testing.assert_array_equal(
            static(q_x, q_w, boundary, observed_shifts, group_shifts),
            dynamic(
                q_x, q_w, boundary, group_shifts, group_shifts, dynamic_extraction=True
            ),
        )
        static.stats.dynamic_or_reductions = rows * boundary
        assert dynamic.stats == static.stats

    @given(seed=st.integers(0, 5000), rows=st.integers(1, 6), out=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_boundary_zero_is_exact_int8(self, seed, rows, out):
        q_x, q_w, channel_max = random_operands(seed, rows, out, 16)
        shifts = extraction_shift(channel_max, 8, 4)
        acc = mixed_gemm_reference(q_x, q_w, 0, shifts, shifts)
        np.testing.assert_array_equal(acc, uniform_gemm_reference(q_x, q_w, 8))

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_mixed_error_bounded_by_extraction_step(self, seed):
        """The deviation of the mixed result from exact INT8 is bounded by the
        worst-case per-channel rounding error times the operand magnitudes."""
        rows, out, channels = 4, 4, 32
        q_x, q_w, channel_max = random_operands(seed, rows, out, channels)
        shifts = extraction_shift(channel_max, 8, 4)
        exact = uniform_gemm_reference(q_x, q_w, 8)
        mixed = mixed_gemm_reference(q_x, q_w, channels, shifts, shifts)
        # Each channel contributes at most (err_x*|w| + err_w*|x| + err_x*err_w)
        # where err <= 2**shift / 2 per operand.
        step = np.power(2.0, shifts) / 2.0
        bound = np.zeros((rows, out))
        for c in range(channels):
            bound += (
                step[c] * np.abs(q_w[:, c])[None, :]
                + step[c] * np.abs(q_x[:, c])[:, None]
                + step[c] ** 2
            )
        assert (np.abs(exact - mixed) <= bound + 1e-6).all()


class TestMergedClipLowering:
    #: Values well inside, at the edges of, and far outside the int8 range
    #: (in units of the scale), rounding ties and both infinities.
    VALUES = st.one_of(
        st.floats(-300.0, 300.0, width=32),
        st.floats(-(2.0 ** 100), 2.0 ** 100, width=32),
        st.integers(-260, 260).map(lambda k: k / 2.0),
        st.sampled_from([np.inf, -np.inf, 127.5, -128.5, 128.0, -129.0]),
    )

    @given(
        values=st.lists(VALUES, min_size=8, max_size=8),
        shifts=st.lists(st.integers(0, 4), min_size=8, max_size=8),
        boundary=st.integers(0, 8),
        seed=st.integers(0, 100),
        taps=st.sampled_from([1, 4]),
    )
    @settings(max_examples=200, deadline=None)
    def test_lower_equals_clip_then_lower_bits(self, values, shifts, boundary, seed, taps):
        """PreparedKernel.lower on unclipped float32 roundings == the reference
        ``lower_bits(clip(round(x / scale)))`` on the 4-bit prefix and the plain
        clip elsewhere, in the column and in the image domain."""
        rng = np.random.default_rng(seed)
        channels = len(shifts)
        order = rng.permutation(channels)
        act_shift = np.asarray(shifts)
        qparams = QuantParams(np.float32(0.5), 8)
        planes = np.zeros((channels * taps, 1))
        kernel = PreparedKernel(
            order=order, w8_t=planes, w4_t=planes, act_shift=act_shift, taps=taps,
            group_size=1, high_bits=8, low_bits=4, weight_src=None,
            act_qparams_src=qparams,
        )
        # One row per rotation, so every value meets every channel's shift.
        rows = np.stack([np.roll(values, k) for k in range(channels)])
        x = (rows * qparams.scale).astype(np.float32)

        expected = quantize(x, qparams)
        prefix = order[:boundary]
        expected[:, prefix] = lower_bits(expected[:, prefix], act_shift[prefix], 4)

        if taps == 1:
            q = quantize_unclipped(x, qparams)
            kernel.lower(q, boundary)
        else:  # an (N, C, 2, 2) image whose every pixel of a channel agrees
            x = np.broadcast_to(x[:, :, None, None], x.shape + (2, 2))
            q = quantize_unclipped(x, qparams)
            kernel.lower(q, boundary, image=True)
            assert (q == q[:, :, :1, :1]).all()
            q = q[:, :, 0, 0]
        assert q.dtype == np.float32
        np.testing.assert_array_equal(q, expected)


class TestCompiledSteps:
    """A compiled step (one layer) and a stacked one (siblings sharing an
    input) against the uncached reference, three separate projections and the
    ``Tensor`` forward -- ``array_equal`` throughout."""

    @staticmethod
    def siblings(rng, count, in_features, out_features, group_size, bias=True):
        """``count`` frozen, configured FlexiQ linears calibrated on one input."""
        spread = rng.uniform(0.1, 3.0, size=in_features).astype(np.float32)
        data = rng.normal(size=(48, in_features)).astype(np.float32) * spread
        layers = []
        for index in range(count):
            source = Linear(in_features, out_features, bias=bias, rng=rng)
            source.weight.data = source.weight.data * spread
            layer = FlexiQLinear(source)
            layer(Tensor(data))
            layer.freeze()
            q_weight = np.abs(layer.quantized_weight()).max(axis=0)
            act_max = np.clip(
                np.round(layer.input_channel_range().max_abs / layer.act_qparams.scale), 0, 127
            )
            layer.configure(
                ChannelLayout(
                    f"l{index}", rng.permutation(in_features),
                    {0.5: in_features // 2, 1.0: in_features},
                ),
                BitExtractionPlan.from_channel_maxima(q_weight, act_max),
                group_size=group_size,
            )
            layers.append(layer)
        return layers, data

    @staticmethod
    def strided(rng, lead, features, data):
        """An input with leading dims ``lead``, C-contiguous or not."""
        rows = int(np.prod(lead))
        x = data[rng.integers(0, len(data), size=rows)].reshape(lead + (features,))
        layout = rng.integers(0, 3)
        if layout == 1 and x.ndim >= 3:  # a transposed view over two leading axes
            x = np.ascontiguousarray(np.swapaxes(x, 0, -2)).swapaxes(0, -2)
        elif layout:  # every other feature column of a wider buffer
            wide = np.zeros(lead + (2 * features,), np.float32)
            wide[..., ::2] = x
            x = wide[..., ::2]
        return x

    @given(
        seed=st.integers(0, 10_000),
        in_features=st.integers(1, 40),
        out_features=st.integers(1, 24),
        group_size=st.sampled_from([1, 4, 8]),
        lead=st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple),
        where=st.sampled_from(["zero", "half", "full", "unconfigured"]),
        bias=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_step_equals_uncached_and_tensor(
        self, seed, in_features, out_features, group_size, lead, where, bias
    ):
        rng = np.random.default_rng(seed)
        (layer,), data = self.siblings(rng, 1, in_features, out_features, group_size, bias)
        boundary = {
            "zero": 0, "half": in_features // 2, "full": in_features,
            # outside the layout's ratio set: its plane is built on first use
            "unconfigured": int(rng.integers(0, in_features + 1)),
        }[where]
        layer.set_boundary(boundary)
        x = self.strided(rng, lead, in_features, data)
        kernel = layer._prepared
        assert layer._static_kernel(x) is kernel
        built = boundary in kernel._boundary_planes
        assert built or boundary == 0 or where == "unconfigured"
        fast = layer(x)
        assert (boundary in kernel._boundary_planes or boundary == 0) and layer._prepared is kernel
        assert type(fast) is np.ndarray and fast.dtype == np.float32
        assert fast.shape == lead + (out_features,)
        np.testing.assert_array_equal(fast, layer(Tensor(x)).data)
        layer.use_prepared = False
        np.testing.assert_array_equal(fast, layer(x))
        np.testing.assert_array_equal(fast, layer(Tensor(x)).data)

    @given(
        seed=st.integers(0, 10_000),
        features=st.integers(1, 32),
        out_features=st.integers(1, 16),
        group_size=st.sampled_from([1, 4]),
        lead=st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple),
        count=st.integers(1, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_stacked_equals_separate_projections(
        self, seed, features, out_features, group_size, lead, count
    ):
        rng = np.random.default_rng(seed)
        layers, data = self.siblings(rng, count, features, out_features, group_size)
        for layer in layers:
            layer.set_boundary(int(rng.choice([0, features // 2, features, rng.integers(0, features + 1)])))
        x = self.strided(rng, lead, features, data)
        stacked = FlexiQLinear.stacked_forward(layers, x)
        assert stacked is not None and stacked.dtype == np.float32
        assert stacked.shape == (count,) + lead + (out_features,)
        for part, layer in zip(stacked, layers):
            np.testing.assert_array_equal(part, layer(x))
            np.testing.assert_array_equal(part, layer(Tensor(x)).data)
            layer.use_prepared = False
            np.testing.assert_array_equal(part, layer(x))
            layer.use_prepared = True

    @given(
        seed=st.integers(0, 10_000),
        channels=st.integers(1, 12),
        out_channels=st.integers(1, 8),
        k=st.integers(1, 3),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        extra=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        batch=st.integers(1, 4),
        group_size=st.sampled_from([1, 4]),
        where=st.sampled_from(["zero", "half", "full", "unconfigured"]),
        bias=st.booleans(),
        dynamic=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_conv_step_equals_uncached_and_tensor(
        self, seed, channels, out_channels, k, stride, padding, extra, batch, group_size,
        where, bias, dynamic,
    ):
        """Any geometry (1x1, stride = kernel, junk columns or none), any
        batch, image strides and boundary: the guarded step (static) and the
        checked one (dynamic) equal the ``Tensor`` forward and the uncached
        reference."""
        rng = np.random.default_rng(seed)
        h, w = (max(k - 2 * padding, 1) + e for e in extra)
        spread = rng.uniform(0.1, 3.0, size=(channels, 1, 1)).astype(np.float32)
        data = rng.normal(size=(12, channels, h, w)).astype(np.float32) * spread
        source = Conv2d(channels, out_channels, k, stride, padding, bias=bias, rng=rng)
        source.weight.data = source.weight.data * spread
        layer = FlexiQConv2d(source)
        layer(Tensor(data))
        layer.freeze()
        q_weight = np.abs(layer.quantized_weight()).reshape(out_channels, channels, -1).max(axis=(0, 2))
        act_max = np.clip(
            np.round(layer.input_channel_range().max_abs / layer.act_qparams.scale), 0, 127
        )
        layer.configure(
            ChannelLayout("conv", rng.permutation(channels), {0.5: channels // 2, 1.0: channels}),
            BitExtractionPlan.from_channel_maxima(q_weight, act_max),
            group_size=group_size,
        )
        layer.set_boundary({
            "zero": 0, "half": channels // 2, "full": channels,
            "unconfigured": int(rng.integers(0, channels + 1)),
        }[where])
        layer.set_dynamic_extraction(dynamic)
        x = data[rng.integers(0, len(data), size=batch)]
        x = [x, np.asfortranarray(x), np.ascontiguousarray(x[..., ::-1])[..., ::-1]][rng.integers(3)]
        kernel = layer._prepared
        assert layer._static_kernel(x) is (None if dynamic else kernel)
        fast = layer(x)
        assert layer._prepared is kernel
        assert type(fast) is np.ndarray and fast.dtype == np.float32 and fast.flags.c_contiguous
        out_hw = tuple((size + 2 * padding - k) // stride + 1 for size in (h, w))
        assert fast.shape == (batch, out_channels) + out_hw
        np.testing.assert_array_equal(fast, layer(Tensor(x)).data)
        layer.use_prepared = False
        np.testing.assert_array_equal(fast, layer(x))
        np.testing.assert_array_equal(fast, layer(Tensor(x)).data)

    def test_stacking_is_refused_where_a_pass_cannot_be_shared(self):
        rng = np.random.default_rng(0)
        layers, data = self.siblings(rng, 3, 8, 6, 4)
        x = data[:5]
        assert FlexiQLinear.stacked_forward(layers, x) is not None
        assert FlexiQLinear.stacked_forward(layers, Tensor(x)) is None  # autograd
        assert FlexiQLinear.stacked_forward(layers, x.astype(np.float64)) is None
        assert FlexiQLinear.stacked_forward(layers, x[:, :7]) is None  # wrong width

        other_scale, _ = self.siblings(np.random.default_rng(1), 1, 8, 6, 4)
        assert other_scale[0].act_qparams.scale != layers[0].act_qparams.scale
        assert FlexiQLinear.stacked_forward(layers[:2] + other_scale, x) is None
        wider, _ = self.siblings(np.random.default_rng(0), 1, 8, 7, 4)
        wider[0].act_qparams = layers[0].act_qparams
        assert FlexiQLinear.stacked_forward(layers[:2] + wider, x) is None
        no_bias, _ = self.siblings(np.random.default_rng(0), 1, 8, 6, 4, bias=False)
        assert FlexiQLinear.stacked_forward(layers[:2] + no_bias, x) is None
        layers[1].set_dynamic_extraction(True)
        assert FlexiQLinear.stacked_forward(layers, x) is None


class TestFloat32PlaneCriterion:
    """The proof obligation of ``repro.core.prepared``'s "Plane dtype" section:
    a plane that passes ``gemm_plane`` gives the same integers in a float32
    GEMM as in a float64 one, for any lowered activations its tables allow."""

    @staticmethod
    def adversarial_rows(plane, amax, rng):
        """Activations at the clip bounds ``-amax`` / ``amax - 1``: per output
        column the signs that push its sum furthest up and furthest down, plus
        rows of random bound picks."""
        lo, hi = -amax, amax - 1.0
        up = np.where(plane.T < 0, lo, hi)    # every product >= 0
        down = np.where(plane.T < 0, hi, lo)  # every product <= 0
        coin = rng.integers(0, 2, size=(4, len(amax))).astype(bool)
        return np.concatenate([up, down, np.where(coin, lo, hi)])

    @staticmethod
    def assert_float32_gemm_exact(plane, amax, rng):
        stored = gemm_plane(plane, amax)
        assert stored.dtype == np.float32
        rows = TestFloat32PlaneCriterion.adversarial_rows(plane, amax, rng)
        exact = rows @ plane
        assert exact.dtype == np.float64 and np.abs(exact).max(initial=0) < 2.0 ** 24
        np.testing.assert_array_equal(rows.astype(np.float32) @ stored, exact)
        # ... and in the convolutions' orientation, plane.T @ cols.
        cols = np.ascontiguousarray(rows.T, dtype=np.float32)
        np.testing.assert_array_equal(stored.T @ cols, exact.T)

    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 96),
        out=st.integers(1, 6),
        prefix=st.floats(0.0, 1.0),
        spread=st.sampled_from([1, 16, 128, 2048]),
    )
    @settings(max_examples=150, deadline=None)
    def test_qualifying_plane_is_exact_up_to_the_bound(self, seed, k, out, prefix, spread):
        rng = np.random.default_rng(seed)
        # 8 on 4-bit prefix rows, 128 elsewhere, as the lowering tables give.
        amax = np.where(rng.random(k) < prefix, 8.0, 128.0)
        plane = rng.integers(-spread, spread + 1, size=(k, out)).astype(np.float64)
        bound = (amax[:, None] * np.abs(plane)).sum(axis=0).max()
        if bound < 2 ** 24:
            self.assert_float32_gemm_exact(plane, amax, rng)
        else:
            assert gemm_plane(plane, amax).dtype == np.float64

        # The same plane topped up to sit one unit under 2**24, then on it: a
        # filler row whose activations are +-1 carries the remainder.
        column = int((amax[:, None] * np.abs(plane)).sum(axis=0).argmax())
        if bound >= 2 ** 24 - 1:
            return
        filler = np.zeros((1, out))
        filler[0, column] = (2 ** 24 - 1 - bound) * rng.choice([-1.0, 1.0])
        edge, edge_amax = np.vstack([plane, filler]), np.append(amax, 1.0)
        assert (edge_amax[:, None] * np.abs(edge)).sum(axis=0).max() == 2 ** 24 - 1
        self.assert_float32_gemm_exact(edge, edge_amax, rng)
        edge[-1, column] += np.sign(edge[-1, column])
        refused = gemm_plane(edge, edge_amax)
        assert refused.dtype == np.float64
        np.testing.assert_array_equal(refused, edge)

    @given(
        seed=st.integers(0, 10_000),
        c=st.integers(1, 5),
        extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        k=st.integers(1, 3),
        padding=st.integers(0, 2),
        out=st.integers(1, 4),
        prefix=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_junk_columns_meet_the_bound_too(self, seed, c, extra, k, padding, out, prefix):
        """The row-grid unfold multiplies junk columns and drops them after.
        They are windows of the same padded image (each tap's run wraps into
        the next padded row of *its own channel*, then into the zero tail), so
        ``|a[k]| <= amax[k]`` holds there as well: a plane one unit under 2**24
        against activations at their clip bounds gives the float64 GEMM's
        integers in every column, and the kept ones are ``im2col``'s."""
        rng = np.random.default_rng(seed)
        h, w = k + extra[0], k + extra[1]  # an interior window exists
        # 8 on 4-bit prefix channels, 128 elsewhere; a last channel of +-1
        # activations carries what is missing to 2**24 - 1 on one tap.
        amax = np.append(np.where(rng.random(c) < prefix, 8.0, 128.0), 1.0)
        rows = np.repeat(amax, k * k)
        plane = rng.integers(0, 2049, size=(len(rows), out)).astype(np.float64)
        plane[-k * k:] = 0.0
        filler = len(rows) - 1 - int(rng.integers(k * k))
        plane[filler] = 2 ** 24 - 1 - rows @ plane
        assert (rows @ plane == 2 ** 24 - 1).all()
        signed = plane * rng.choice([-1.0, 1.0], size=plane.shape)

        lo = -amax[None, :, None, None]
        coin = rng.integers(0, 2, size=(2, c + 1, h, w)).astype(bool)
        for weights, image in (
            (plane, np.broadcast_to(lo, coin.shape)),  # every product <= 0
            (signed, np.where(coin, lo, -lo - 1.0)),
        ):
            stored = gemm_plane(weights, rows)
            assert stored.dtype == np.float32
            cols, grid = unfold(image.astype(np.float32), (k, k), 1, padding)
            assert cols.dtype == np.float32 and grid[2] - grid[1] == k - 1  # junk per grid row
            acc = stored.T @ cols
            exact = weights.T @ cols.astype(np.float64)
            np.testing.assert_array_equal(acc, exact)
            assert np.abs(exact).max() <= 2 ** 24 - 1
            reference, _ = im2col(image, (k, k), 1, padding)  # float64 (N, P, K)
            np.testing.assert_array_equal(
                kept_columns(acc, grid).reshape(2, out, -1), (reference @ weights).transpose(0, 2, 1)
            )
            if weights is plane:  # an interior window sits exactly on the bound
                assert kept_columns(acc, grid).min() == -(2 ** 24 - 1)
        plane[filler] += 1.0  # on the bound: refused
        assert gemm_plane(plane, rows).dtype == np.float64

    def test_non_integer_plane_is_refused(self):
        plane = np.array([[1.0, 2.0], [0.5, 3.0]])
        assert gemm_plane(plane, 8.0).dtype == np.float64
        assert gemm_plane(np.rint(plane), 8.0).dtype == np.float32


class TestBatchMajorUnfold:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 3),
        c=st.integers(1, 5),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        k=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=200, deadline=None)
    def test_kept_columns_equal_im2col_and_junk_is_where_the_geometry_says(
        self, seed, n, c, h, w, k, stride, padding, dtype
    ):
        """The kept columns are ``im2col``'s per image, transposed -- whatever
        the memory layout of the image; only a stride-1 grid has junk columns,
        ``kw - 1`` per grid row, and they are the row-wrapped windows of the
        zero-tailed padded image."""
        if min(h, w) + 2 * padding < k:
            with pytest.raises(ValueError, match="cannot convolve"):
                unfold(np.zeros((n, c, h, w), np.float32), (k, k), stride, padding)
            return
        x = np.random.default_rng(seed).integers(-128, 128, size=(n, c, h, w))
        x = x.astype(np.float32)
        reference, (out_h, out_w) = im2col(x, (k, k), stride, padding)
        expected = reference.transpose(0, 2, 1).reshape(n, c * k * k, out_h, out_w)
        wp = w + 2 * padding
        row = wp if stride == 1 else out_w
        if stride == 1:  # every grid column, junk included, by plain indexing
            flat = np.zeros((n, c, (h + 2 * padding) * wp + k - 1), np.float32)
            flat[..., : -(k - 1) or None] = np.pad(x, [(0, 0)] * 2 + [(padding,) * 2] * 2).reshape(n, c, -1)
            taps = (np.arange(k)[:, None] * wp + np.arange(k)).reshape(-1)
            grid_cols = flat[:, :, taps[:, None] + np.arange(out_h * wp)].reshape(n, c * k * k, -1)
        flipped = np.ascontiguousarray(x[..., ::-1])[..., ::-1]  # negative stride
        for image in (x, np.asfortranarray(x), flipped):
            assert np.array_equal(image, x)
            cols, grid = unfold(image, (k, k), stride, padding, dtype)
            assert grid == (out_h, out_w, row) and cols.dtype == dtype and cols.flags.c_contiguous
            assert cols.shape == (n, c * k * k, out_h * row)
            np.testing.assert_array_equal(kept_columns(cols, grid), expected)
            if stride == 1:
                np.testing.assert_array_equal(cols, grid_cols)
        assert w == 1 or flipped.strides[-1] < 0


class TestSelectionLayoutProperties:
    @given(seed=st.integers(0, 2000))
    @settings(max_examples=25, deadline=None)
    def test_layout_prefix_property_for_random_nested_selections(self, seed):
        """For any nested chain of selections, the layout order puts exactly the
        ratio-r channels in the first boundary(r) positions."""
        scores = make_scores({"a": 16, "b": 24}, seed=seed)
        config = SelectionConfig(group_size=4)
        selections = {}
        base = None
        for ratio in (0.25, 0.5, 1.0):
            base = (
                greedy_selection(scores, ratio, config, base=base)
                if seed % 2
                else random_selection(scores, ratio, config, base=base, seed=seed)
            )
            selections[ratio] = base
        plan = build_layout_plan(selections)
        for name in ("a", "b"):
            layout = plan.layout_for(name)
            assert sorted(layout.order.tolist()) == list(range(layout.num_channels))
            for ratio, selection in selections.items():
                prefix = set(layout.order[: layout.boundaries[ratio]].tolist())
                assert prefix == set(np.nonzero(selection.channel_mask(name))[0].tolist())

    @given(seed=st.integers(0, 2000), ratio=st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=25, deadline=None)
    def test_boundary_for_never_exceeds_configured(self, seed, ratio):
        scores = make_scores({"a": 16}, seed=seed)
        selection = greedy_selection(scores, ratio, SelectionConfig(group_size=4))
        plan = build_layout_plan({ratio: selection})
        layout = plan.layout_for("a")
        assert layout.boundary_for(ratio - 0.01) <= layout.boundaries[ratio]
        assert layout.boundary_for(1.0) == layout.boundaries[ratio]
        assert layout.boundary_for(0.0) == 0
