"""Tests for the hardware latency models, kernels and framework baselines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.devices import GPU_CATALOG, get_gpu
from repro.hardware.frameworks import framework_comparison, framework_latency
from repro.hardware.gpu import GpuLatencyModel, GpuModelConfig
from repro.hardware.kernels import MixedPrecisionGemm, mixed_gemm_reference
from repro.hardware.npu import NpuConfig, NpuLatencyModel
from repro.hardware.workloads import LayerOp, model_ops, resnet_ops, vit_ops
from repro.core.bit_extraction import extraction_shift
from reference_kernels import uniform_gemm_reference


class TestDevices:
    def test_catalog_contains_paper_gpus(self):
        assert {"rtx3090", "a6000", "a100", "l40s"} == set(GPU_CATALOG)

    def test_lookup_case_insensitive(self):
        assert get_gpu("A6000").name == "a6000"
        with pytest.raises(KeyError):
            get_gpu("h100")

    def test_int4_rate_double_int8(self):
        for spec in GPU_CATALOG.values():
            assert spec.int4_tops == pytest.approx(2 * spec.int8_tops, rel=0.01)

    def test_a100_cuda_core_weakness(self):
        """The property Table 4 hinges on: A100 has the lowest CUDA-core rate
        relative to its tensor-core rate."""
        ratios = {
            name: spec.cuda_fp32_tflops / spec.int8_tops
            for name, spec in GPU_CATALOG.items()
        }
        assert min(ratios, key=ratios.get) == "a100"


class TestWorkloads:
    def test_vit_base_op_count_and_macs(self):
        ops = vit_ops(batch=1)
        assert any(op.name == "patch_embed" for op in ops)
        total_gmacs = sum(op.macs for op in ops) / 1e9
        # ViT-Base/16 at 224x224 is ~17.6 GMACs per image (timm reference).
        assert 14.0 < total_gmacs < 21.0

    def test_resnet18_macs(self):
        ops = resnet_ops(batch=1)
        total_gmacs = sum(op.macs for op in ops if op.kind == "gemm") / 1e9
        # ResNet-18 at 224x224 is ~1.8 GMACs per image.
        assert 1.3 < total_gmacs < 2.3

    def test_first_and_last_not_quantizable(self):
        ops = vit_ops(batch=4)
        assert not ops[0].quantizable
        assert not ops[-1].quantizable

    def test_macs_scale_with_batch(self):
        small = sum(op.macs for op in vit_ops(batch=2))
        large = sum(op.macs for op in vit_ops(batch=4))
        assert large == pytest.approx(2 * small, rel=0.05)

    def test_model_ops_registry(self):
        for name in ("vit_base", "resnet50", "swin_small"):
            assert len(model_ops(name, 8)) > 10
        with pytest.raises(KeyError):
            model_ops("alexnet", 8)

    def test_residual_reorder_flags_present_in_resnet(self):
        assert any(op.residual_reorder for op in resnet_ops(batch=1))

    def test_layerop_macs(self):
        op = LayerOp("x", m=2, n=3, k=4)
        assert op.macs == 24


class TestGpuLatencyModel:
    @pytest.fixture(scope="class")
    def model(self):
        return GpuLatencyModel("a6000")

    @pytest.fixture(scope="class")
    def ops(self):
        return model_ops("vit_base", 16)

    def test_int4_faster_than_int8(self, model, ops):
        assert model.model_latency(ops, "int4") < model.model_latency(ops, "int8")

    def test_int8_faster_than_fp16(self, model, ops):
        assert model.model_latency(ops, "int8") < model.model_latency(ops, "fp16")

    def test_flexiq_latency_monotone_in_ratio(self, model, ops):
        latencies = [
            model.model_latency(ops, "flexiq", four_bit_ratio=r)
            for r in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(latencies, latencies[1:]))

    def test_flexiq_bounded_by_int8_and_close_to_int4(self, model, ops):
        int8 = model.model_latency(ops, "int8")
        int4 = model.model_latency(ops, "int4")
        flexi_full = model.model_latency(ops, "flexiq", four_bit_ratio=1.0)
        assert flexi_full <= int8
        assert flexi_full >= int4
        assert flexi_full <= int4 * 1.15  # within ~10-15% of the INT4 kernel

    def test_paper_scale_absolute_latency(self, model, ops):
        """ViT-Base / batch 16 / A6000 INT8 lands in the paper's ballpark (~12 ms)."""
        latency_ms = model.model_latency(ops, "int8") * 1e3
        assert 6.0 < latency_ms < 25.0

    def test_dynamic_extraction_adds_overhead(self, model, ops):
        base = model.model_latency(ops, "flexiq", four_bit_ratio=1.0)
        dynamic = model.model_latency(
            ops, "flexiq", four_bit_ratio=1.0, dynamic_extraction=True
        )
        assert base < dynamic < base * 1.08

    def test_a100_flexiq_penalty_larger_than_a6000(self):
        """Table 4: the CUDA-core bottleneck hurts FlexiQ more on the A100."""
        ops = model_ops("vit_base", 16)

        def penalty(gpu):
            m = GpuLatencyModel(gpu)
            return m.model_latency(ops, "flexiq", 1.0) / m.model_latency(ops, "int4")

        assert penalty("a100") > penalty("a6000")

    def test_per_layer_ratio_override(self, model, ops):
        names = [op.name for op in ops if op.quantizable and op.kind == "gemm"]
        override = {name: 1.0 for name in names[: len(names) // 2]}
        partial = model.model_latency(ops, "flexiq", 0.0, per_layer_ratio=override)
        nothing = model.model_latency(ops, "flexiq", 0.0)
        assert partial < nothing

    @staticmethod
    def _breakdown(model, ops, mode, four_bit_ratio=0.0):
        """Each op billed as ``model_latency`` specifies: float ops in fp16,
        non-quantizable GEMMs at 8 bits (fp16 in fp16 mode), the rest in
        ``mode``."""

        def bill(op):
            if op.kind == "float":
                return model.float_op_latency(op)
            if not op.quantizable:
                return model.gemm_latency(op, "fp16" if mode == "fp16" else "int8")
            if mode != "flexiq":
                return model.gemm_latency(op, mode)
            return model.gemm_latency(op, mode, four_bit_ratio=four_bit_ratio)

        return {op.name: bill(op) for op in ops}

    def test_latency_breakdown_sums_to_total(self, model, ops):
        breakdown = self._breakdown(model, ops, "int8")
        assert sum(breakdown.values()) == pytest.approx(
            model.model_latency(ops, "int8"), rel=1e-6
        )

    @pytest.mark.parametrize("mode", ["fp16", "int8", "int4", "flexiq"])
    def test_breakdown_is_the_model_latency_exactly(self, mode):
        # Non-quantizable GEMMs run in fp16 in fp16 mode: model_latency
        # bills each op as the breakdown does.
        model = GpuLatencyModel("a6000")
        ops = model_ops("vit_base", 8)
        breakdown = self._breakdown(model, ops, mode, 0.25)
        assert list(breakdown) == [op.name for op in ops]
        assert sum(breakdown.values()) == model.model_latency(ops, mode, 0.25)

    def test_unknown_mode_raises(self, model, ops):
        with pytest.raises(ValueError):
            model.gemm_latency(ops[1], "int2")

    def test_ratio_switch_latency_tiny(self, model):
        assert model.ratio_switch_latency() < 1e-4

    @given(ratio=st.floats(min_value=0, max_value=1))
    @settings(max_examples=20, deadline=None)
    def test_flexiq_latency_between_int8_and_int4_property(self, ratio):
        model = GpuLatencyModel("l40s")
        op = LayerOp("g", m=4096, n=768, k=768, feature_channels=768)
        flexi = model.gemm_latency(op, "flexiq", four_bit_ratio=ratio)
        int8 = model.gemm_latency(op, "int8")
        int4 = model.gemm_latency(op, "int4")
        assert int4 * 0.99 <= flexi <= int8 * 1.07


class TestNpuModel:
    @pytest.fixture(scope="class")
    def npu(self):
        return NpuLatencyModel()

    @pytest.fixture(scope="class")
    def ops(self):
        return resnet_ops(batch=1)

    def test_four_bit_reduces_latency(self, npu, ops):
        full8 = npu.model_latency(ops, four_bit_ratio=0.0)
        full4 = npu.model_latency(ops, four_bit_ratio=1.0)
        assert full4 < full8
        # Ideal bound is 2x; overheads keep it below that.
        assert full8 / full4 < 2.05

    def test_latency_monotone_in_ratio(self, npu, ops):
        values = [npu.model_latency(ops, four_bit_ratio=r) for r in (0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_channel_group_constraint(self, npu):
        assert NpuConfig().channel_group_for(4) == 64

    def test_residual_reorder_overhead_charged(self, npu):
        op_plain = LayerOp("a", m=196, n=64, k=576, feature_channels=64)
        op_reorder = LayerOp("b", m=196, n=64, k=576, feature_channels=64,
                             residual_reorder=True)
        assert npu.op_latency(op_reorder) > npu.op_latency(op_plain)

    def test_stem_excluded_by_default(self, npu, ops):
        with_stem = npu.model_latency(ops, include_non_quantizable=True)
        without = npu.model_latency(ops)
        assert with_stem > without

    def test_ratio_switch_latency(self, npu):
        assert npu.ratio_switch_latency() <= 0.3e-6 + 1e-12


class TestKernels:
    def _setup(self, seed=0, channels=32, rows=6, out=5):
        rng = np.random.default_rng(seed)
        channel_max = rng.integers(4, 128, size=channels)
        q_x = rng.integers(-1, 2, size=(rows, channels)) * 0
        q_x = np.stack([rng.integers(-m, m + 1, size=rows) for m in channel_max], axis=1)
        q_w = np.stack([rng.integers(-m, m + 1, size=out) for m in channel_max], axis=1)
        shifts = extraction_shift(channel_max, 8, 4)
        return q_x, q_w, shifts

    def test_boundary_zero_equals_uniform_int8(self):
        q_x, q_w, shifts = self._setup()
        acc = mixed_gemm_reference(q_x, q_w, 0, shifts, shifts)
        np.testing.assert_array_equal(acc, uniform_gemm_reference(q_x, q_w, 8))

    def test_group_kernel_matches_reference_when_shifts_uniform_per_group(self):
        q_x, q_w, shifts = self._setup(seed=1)
        group = 4
        # Make shifts group-uniform so both formulations agree exactly.
        grouped_shifts = shifts.reshape(-1, group).max(axis=1).repeat(group)
        kernel = MixedPrecisionGemm(group_size=group)
        acc_kernel = kernel(q_x, q_w, 16, grouped_shifts, grouped_shifts)
        acc_ref = mixed_gemm_reference(q_x, q_w, 16, grouped_shifts, grouped_shifts)
        np.testing.assert_array_equal(acc_kernel, acc_ref)

    def test_kernel_stats_counting(self):
        q_x, q_w, shifts = self._setup(seed=2)
        kernel = MixedPrecisionGemm(group_size=8)
        kernel(q_x, q_w, 16, shifts, shifts)
        stats = kernel.stats
        assert stats.mma_int4 == 6 * 5 * 16
        assert stats.mma_int8 == 6 * 5 * 16
        assert stats.shift_accumulates == 6 * 5 * 2  # two 4-bit groups
        assert stats.weight_bytes == q_w.size

    def test_dynamic_extraction_counts_or_reductions(self):
        q_x, q_w, shifts = self._setup(seed=3)
        kernel = MixedPrecisionGemm(group_size=8)
        kernel(q_x, q_w, 16, shifts, shifts, dynamic_extraction=True)
        assert kernel.stats.dynamic_or_reductions > 0

    def test_mixed_gemm_error_vs_exact_is_bounded(self):
        q_x, q_w, shifts = self._setup(seed=4)
        exact = uniform_gemm_reference(q_x, q_w, 8)
        mixed = mixed_gemm_reference(q_x, q_w, q_x.shape[1], shifts, shifts)
        channels = q_x.shape[1]
        # Error per output <= sum over channels of extraction errors.
        bound = channels * (2 ** shifts.max()) * 130 * 1.5
        assert np.abs(exact - mixed).max() <= bound

    def test_kernel_input_validation(self):
        kernel = MixedPrecisionGemm(group_size=4)
        with pytest.raises(ValueError):
            kernel(np.zeros((2, 8)), np.zeros((3, 6)), 0, np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError):
            kernel(np.zeros((2, 8)), np.zeros((3, 8)), 9, np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError):
            MixedPrecisionGemm(group_size=0)


class TestFrameworks:
    @pytest.fixture(scope="class")
    def comparison(self):
        model = GpuLatencyModel("a6000")
        return framework_comparison(model, model_ops("vit_base", 16))

    def test_table3_orderings(self, comparison):
        # Our custom INT8 kernel beats CUTLASS and TensorRT INT8.
        assert comparison["custom_int8"] < comparison["cutlass_int8"]
        assert comparison["custom_int8"] < comparison["tensorrt_int8"]
        # FlexiQ 100% is within a few percent of the uniform INT4 kernel.
        assert comparison["flexiq"] < comparison["custom_int8"]
        assert comparison["flexiq"] == pytest.approx(comparison["custom_int4"], rel=0.1)
        # CUTLASS INT4 gains nothing over its INT8 path (layout transform).
        assert comparison["cutlass_int4"] == pytest.approx(
            comparison["cutlass_int8"], rel=0.05
        )
        # TensorRT weight-only INT4 is the slowest configuration.
        assert comparison["tensorrt_int4_weight_only"] == max(comparison.values())

    def test_unknown_framework_raises(self):
        model = GpuLatencyModel("a6000")
        with pytest.raises(ValueError):
            framework_latency(model, model_ops("vit_base", 16), "onnxruntime")
