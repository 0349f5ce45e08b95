"""Analytic GPU latency model for the FlexiQ mixed-precision GEMM kernel.

The model charges three pipelined resources per operation, following the
kernel structure of Section 7:

* **Tensor cores** run the integer (or fp16) multiply-accumulate.  INT4 runs
  at twice the INT8 rate; a FlexiQ layer splits its reduction dimension
  between the two rates according to the current 4-bit channel ratio.
* **CUDA cores** perform the bit-shifted accumulation of the 4-bit partial
  sums (one shift+add per channel group per output element).  Because this
  stage is pipelined with the tensor-core stage, the compute time is the
  maximum of the two -- which is why the A100, whose CUDA-core rate is low
  relative to its tensor cores, sees smaller FlexiQ speedups (Table 4).
* **Memory** moves weights (always stored in 8 bits for FlexiQ so the ratio
  can change at run time; 4-bit models store 4-bit weights), activations and
  outputs.

Per-operation framework overhead models the PyTorch dispatch cost that
dominates small-batch latency in the paper's absolute numbers.  Absolute
milliseconds are approximate by design; the quantities being reproduced are
the orderings and ratios across precisions, ratios, batch sizes and devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.hardware.devices import GpuSpec, get_gpu
from repro.hardware.workloads import LayerOp


@dataclass(frozen=True)
class GpuModelConfig:
    """Tunable constants of the latency model."""

    tensor_core_efficiency: float = 0.24   # fraction of peak sustained on GEMMs
    fp16_efficiency: float = 0.30
    cuda_core_efficiency: float = 0.35
    memory_efficiency: float = 0.70
    per_op_overhead_us: float = 33.0       # framework / launch overhead per op
    flexiq_kernel_overhead: float = 0.06   # dynamic-ratio kernel vs uniform INT4
    dynamic_extract_overhead: float = 0.035  # optional runtime bit-OR pass (2-5%)
    group_size: int = 32                   # channels per MMA group (Section 7)
    shift_accumulate_flops: float = 1.5    # CUDA-core flops per group partial sum


class GpuLatencyModel:
    """Latency estimates for whole models and individual GEMMs on a GPU."""

    config = GpuModelConfig()

    def __init__(self, gpu: str | GpuSpec = "a6000") -> None:
        self.spec = gpu if isinstance(gpu, GpuSpec) else get_gpu(gpu)

    # ------------------------------------------------------------------
    # Per-op latency
    # ------------------------------------------------------------------
    def _memory_seconds(self, op: LayerOp, weight_bytes_per_elem: float,
                        act_bytes_per_elem: float) -> float:
        weight_bytes = op.n * op.k * weight_bytes_per_elem
        act_bytes = op.m * op.k * act_bytes_per_elem
        out_bytes = op.m * op.n * 2.0  # fp16 outputs
        bandwidth = self.spec.memory_bandwidth_gbps * 1e9 * self.config.memory_efficiency
        return (weight_bytes + act_bytes + out_bytes) / bandwidth

    def _tensor_core_seconds(self, macs: float, tops: float, efficiency: float) -> float:
        if macs <= 0:
            return 0.0
        return (2.0 * macs) / (tops * 1e12 * efficiency)

    def float_op_latency(self, op: LayerOp) -> float:
        """Latency of a non-quantizable fp16 operation."""
        compute = self._tensor_core_seconds(
            op.macs, self.spec.fp16_tflops, self.config.fp16_efficiency
        )
        memory = self._memory_seconds(op, weight_bytes_per_elem=0.0, act_bytes_per_elem=2.0)
        return max(compute, memory) + self.config.per_op_overhead_us * 1e-6

    def gemm_latency(
        self,
        op: LayerOp,
        mode: str,
        four_bit_ratio: float = 0.0,
        dynamic_extraction: bool = False,
    ) -> float:
        """Latency of one quantizable GEMM.

        ``mode`` is one of ``"int8"``, ``"int4"``, ``"fp16"``, ``"flexiq"``.
        ``four_bit_ratio`` only applies to the FlexiQ mode.
        """
        cfg = self.config
        overhead = cfg.per_op_overhead_us * 1e-6
        if mode == "fp16":
            compute = self._tensor_core_seconds(
                op.macs, self.spec.fp16_tflops, cfg.fp16_efficiency
            )
            memory = self._memory_seconds(op, 2.0, 2.0)
            return max(compute, memory) + overhead
        if mode == "int8":
            compute = self._tensor_core_seconds(
                op.macs, self.spec.int8_tops, cfg.tensor_core_efficiency
            )
            memory = self._memory_seconds(op, 1.0, 1.0)
            return max(compute, memory) + overhead
        if mode == "int4":
            compute = self._tensor_core_seconds(
                op.macs, self.spec.int4_tops, cfg.tensor_core_efficiency
            )
            memory = self._memory_seconds(op, 0.5, 0.5)
            return max(compute, memory) + overhead
        if mode == "flexiq":
            return self._flexiq_gemm_latency(op, four_bit_ratio, dynamic_extraction)
        raise ValueError(f"unknown mode {mode!r}")

    def _flexiq_gemm_latency(
        self, op: LayerOp, four_bit_ratio: float, dynamic_extraction: bool
    ) -> float:
        cfg = self.config
        ratio = min(max(four_bit_ratio, 0.0), 1.0)
        macs_low = op.macs * ratio
        macs_high = op.macs * (1.0 - ratio)

        tensor_time = self._tensor_core_seconds(
            macs_high, self.spec.int8_tops, cfg.tensor_core_efficiency
        ) + self._tensor_core_seconds(
            macs_low, self.spec.int4_tops, cfg.tensor_core_efficiency
        )
        # Shift-and-accumulate of 4-bit group partial sums on CUDA cores.
        low_channels = op.k * ratio
        groups = low_channels / max(cfg.group_size, 1)
        cuda_flops = op.m * op.n * groups * cfg.shift_accumulate_flops
        cuda_time = cuda_flops / (
            self.spec.cuda_fp32_tflops * 1e12 * cfg.cuda_core_efficiency
        )
        compute = max(tensor_time, cuda_time)
        # The dynamic-ratio kernel's bookkeeping (bit extraction, group
        # boundary handling) costs ~6% on the 4-bit portion relative to the
        # uniform INT4 kernel; at ratio 0 the kernel degenerates to the plain
        # INT8 path.
        compute *= 1.0 + cfg.flexiq_kernel_overhead * ratio
        if dynamic_extraction:
            compute *= 1.0 + cfg.dynamic_extract_overhead * ratio

        # FlexiQ keeps 8-bit weights resident so the ratio can change at
        # run time; activations are read at 8-bit.
        memory = self._memory_seconds(op, 1.0, 1.0)
        return max(compute, memory) + cfg.per_op_overhead_us * 1e-6

    # ------------------------------------------------------------------
    # Whole-model latency
    # ------------------------------------------------------------------
    def _op_latency(
        self,
        op: LayerOp,
        mode: str,
        four_bit_ratio: float = 0.0,
        dynamic_extraction: bool = False,
        per_layer_ratio: Optional[Dict[str, float]] = None,
    ) -> float:
        """Latency (seconds) of one op of a model run in ``mode``.

        Float ops run in fp16; non-quantizable GEMMs (first/last layers) run
        at 8-bit, or fp16 in ``"fp16"`` mode.  ``per_layer_ratio`` optionally
        overrides the global 4-bit ratio per layer name (used when replaying
        the ratios chosen by the selection algorithm rather than a uniform
        ratio).
        """
        if op.kind == "float":
            return self.float_op_latency(op)
        if not op.quantizable:
            return self.gemm_latency(op, "fp16" if mode == "fp16" else "int8")
        if mode != "flexiq":
            return self.gemm_latency(op, mode)
        if per_layer_ratio:
            four_bit_ratio = per_layer_ratio.get(op.name, four_bit_ratio)
        return self.gemm_latency(
            op, "flexiq", four_bit_ratio=four_bit_ratio,
            dynamic_extraction=dynamic_extraction,
        )

    def model_latency(
        self,
        ops: Sequence[LayerOp],
        mode: str,
        four_bit_ratio: float = 0.0,
        dynamic_extraction: bool = False,
        per_layer_ratio: Optional[Dict[str, float]] = None,
    ) -> float:
        """End-to-end latency (seconds) of a model under one precision mode:
        its ops' latencies summed in order."""
        return sum(
            self._op_latency(
                op, mode, four_bit_ratio, dynamic_extraction, per_layer_ratio
            )
            for op in ops
        )

    def ratio_switch_latency(self) -> float:
        """Cost of changing the 4-bit ratio: one variable update per layer.

        The paper measures this at a few microseconds on GPUs; it is modelled
        as a single small constant.
        """
        return 2e-6
