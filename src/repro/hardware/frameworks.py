"""Cost models of the deployment-framework baselines in Table 3.

Table 3 compares the paper's custom uniform INT8/INT4 kernels and the FlexiQ
kernel against CUTLASS and TensorRT.  The baselines are modelled as
multiplicative adjustments on top of the analytic GPU model, encoding the
structural reasons the paper gives for each gap:

* **CUTLASS INT8/INT4** -- the CUTLASS epilogue produces column-major output
  which must be transposed back to PyTorch's row-major layout, adding a
  memory-bound pass over the output; in the paper this makes CUTLASS INT4 as
  slow as its INT8 path.
* **TensorRT INT8** -- a well-optimised INT8 engine, slightly slower than the
  custom kernel at these batch sizes.
* **TensorRT INT4** -- TensorRT lacks full INT4 compute support; the paper
  evaluates weight-only quantization, so activations stay fp16 and compute
  runs at the fp16 tensor-core rate plus a dequantization pass.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.hardware.gpu import GpuLatencyModel
from repro.hardware.workloads import LayerOp

# Relative adjustment factors applied to the quantizable GEMM portion.
_CUTLASS_LAYOUT_OVERHEAD = 0.18      # output transpose pass
_TENSORRT_INT8_OVERHEAD = 0.13       # engine overhead vs custom kernel
_TENSORRT_WEIGHT_ONLY_DEQUANT = 0.10  # weight dequantization pass


def framework_latency(
    model: GpuLatencyModel,
    ops: Sequence[LayerOp],
    framework: str,
) -> float:
    """End-to-end latency (seconds) of a model under a framework baseline.

    ``framework`` is one of ``"cutlass_int8"``, ``"cutlass_int4"``,
    ``"tensorrt_int8"``, ``"tensorrt_int4_weight_only"``, ``"custom_int8"``,
    ``"custom_int4"``, ``"flexiq"``.
    """
    framework = framework.lower()
    if framework == "custom_int8":
        return model.model_latency(ops, "int8")
    if framework == "custom_int4":
        return model.model_latency(ops, "int4")
    if framework == "flexiq":
        return model.model_latency(ops, "flexiq", four_bit_ratio=1.0)
    if framework == "cutlass_int8":
        return _adjusted(model, ops, "int8", 1.0 + _CUTLASS_LAYOUT_OVERHEAD)
    if framework == "cutlass_int4":
        # The layout transformation dominates: the INT4 compute saving is
        # lost and the end-to-end time lands near the INT8 CUTLASS path.
        int8_like = _adjusted(model, ops, "int8", 1.0 + _CUTLASS_LAYOUT_OVERHEAD)
        return int8_like * 0.99
    if framework == "tensorrt_int8":
        return _adjusted(model, ops, "int8", 1.0 + _TENSORRT_INT8_OVERHEAD)
    if framework == "tensorrt_int4_weight_only":
        # Weight-only quantization: compute at fp16 rate + dequant pass.
        fp16 = model.model_latency(ops, "fp16")
        return fp16 * (1.0 + _TENSORRT_WEIGHT_ONLY_DEQUANT)
    raise ValueError(f"unknown framework {framework!r}")


FRAMEWORKS = (
    "cutlass_int8",
    "tensorrt_int8",
    "custom_int8",
    "flexiq",
    "custom_int4",
    "cutlass_int4",
    "tensorrt_int4_weight_only",
)


def framework_comparison(model: GpuLatencyModel, ops: Sequence[LayerOp]) -> Dict[str, float]:
    """Latency of every framework baseline, keyed by framework name."""
    return {name: framework_latency(model, ops, name) for name in FRAMEWORKS}


def _adjusted(
    model: GpuLatencyModel, ops: Sequence[LayerOp], mode: str, gemm_factor: float
) -> float:
    """Scale only the quantizable-GEMM portion of the latency."""
    total = model.model_latency(ops, mode)
    gemm_portion = sum(
        model.gemm_latency(op, mode)
        for op in ops
        if op.kind == "gemm" and op.quantizable
    )
    return total + gemm_portion * (gemm_factor - 1.0)
