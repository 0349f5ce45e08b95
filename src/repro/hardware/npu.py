"""Cycle-level latency model of the custom mixed-precision NPU (Section 7).

The modelled device follows the paper's DNNWeaver-v2 extension:

* a 32x32 systolic array of processing elements (PEs), weight-stationary;
* each PE contains four 4-bit MAC units: in 8-bit mode the four units
  combine into one 8-bit MAC per cycle, in 4-bit mode two units operate in
  parallel, doubling MAC throughput;
* rows of the array map to input (feature) channels and columns to output
  channels, so fully utilising 4-bit mode needs input-channel groups of 64
  (2 x 32 rows) -- the NPU channel-group constraint used during selection;
* switching between 4-bit and 8-bit channel regions causes no pipeline
  bubbles (same data bandwidth, same PE latency);
* outputs feeding residual connections are additionally stored reordered,
  costing ~3% of the layer's execution (Section 5, step 3), and loading
  8-bit tensors instead of 4-bit ones costs an extra 1-2% at high 4-bit
  ratios (Section 8.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.hardware.workloads import LayerOp


@dataclass(frozen=True)
class NpuConfig:
    """Architectural parameters of the NPU."""

    array_rows: int = 32
    array_cols: int = 32
    macs_per_pe: int = 4
    clock_mhz: float = 200.0
    memory_bandwidth_gbps: float = 25.6    # DDR-class external memory
    weight_load_overlap: float = 0.8       # fraction of weight loads hidden by compute
    residual_reorder_overhead: float = 0.03
    eight_bit_load_overhead: float = 0.015
    instruction_load_us: float = 0.3       # ratio-switch cost (Section 8.5)

    def channel_group_for(self, low_bits: int) -> int:
        """Input-channel group needed to fill the array at ``low_bits``.

        Each PE holds four 4-bit MAC units: 4-bit mode runs two MACs per PE
        (group 64), the 2-bit extension (Section 7, "Supporting Lower
        Precisions") splits each 4-bit MAC into two 2-bit MACs for four per
        PE (group 128).
        """
        if low_bits not in (2, 4, 8):
            raise ValueError("the NPU supports 2-, 4- and 8-bit computation")
        return self.array_rows * (8 // low_bits)

    def low_bit_parallelism(self, low_bits: int) -> int:
        """MACs per PE per cycle at ``low_bits`` (1 at 8-bit, 2 at 4, 4 at 2)."""
        if low_bits not in (2, 4, 8):
            raise ValueError("the NPU supports 2-, 4- and 8-bit computation")
        return 8 // low_bits


class NpuLatencyModel:
    """Latency estimates for convolution/linear layers on the NPU."""

    def __init__(self, config: NpuConfig = NpuConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Per-op cycle counts
    # ------------------------------------------------------------------
    def op_cycles(
        self, op: LayerOp, four_bit_ratio: float = 0.0, low_bits: int = 4
    ) -> float:
        """Compute cycles for one GEMM-shaped op with a low-bit channel prefix.

        In 8-bit mode the array retires ``rows * cols`` MACs per cycle; the
        low-precision portion of the reduction dimension retires 2x (4-bit)
        or 4x (2-bit extension) that rate.  Tiling inefficiency is modelled
        by rounding the reduction and output dimensions up to multiples of
        the array size; the larger channel groups required by lower
        precisions additionally round the low-precision span up to a whole
        group, capturing the utilisation/granularity trade-off the paper
        discusses for the 2-bit extension.
        """
        cfg = self.config
        rows, cols = cfg.array_rows, cfg.array_cols
        parallelism = cfg.low_bit_parallelism(low_bits)
        k_tiles = int(np.ceil(op.k / rows))
        n_tiles = int(np.ceil(op.n / cols))
        effective_k = k_tiles * rows
        effective_n = n_tiles * cols

        ratio = min(max(four_bit_ratio, 0.0), 1.0)
        k_low = effective_k * ratio
        if k_low > 0:
            group = cfg.channel_group_for(low_bits)
            k_low = min(np.ceil(k_low / group) * group, effective_k)
        k_high = effective_k - k_low
        # One output row per cycle per (k-tile, n-tile) pass; the low-bit
        # prefix divides the passes needed by the per-PE MAC parallelism.
        cycles_high = op.m * (k_high / rows) * n_tiles
        cycles_low = op.m * (k_low / rows) * n_tiles / parallelism
        compute_cycles = cycles_high + cycles_low

        # Weight loading (weight-stationary: each tile loaded once), partially
        # overlapped with compute.
        weight_elems = effective_k * effective_n
        bytes_per_weight = 1.0  # weights stored as 8-bit to allow ratio changes
        load_cycles = (
            weight_elems * bytes_per_weight
            / (cfg.memory_bandwidth_gbps * 1e9 / (cfg.clock_mhz * 1e6))
        )
        exposed_load = load_cycles * (1.0 - cfg.weight_load_overlap)
        return compute_cycles + exposed_load

    def op_latency(
        self, op: LayerOp, four_bit_ratio: float = 0.0, low_bits: int = 4
    ) -> float:
        """Latency in seconds of one op."""
        cycles = self.op_cycles(op, four_bit_ratio, low_bits=low_bits)
        seconds = cycles / (self.config.clock_mhz * 1e6)
        if op.residual_reorder:
            seconds *= 1.0 + self.config.residual_reorder_overhead
        if four_bit_ratio > 0:
            # Loading 8-bit tensors where a pure 4-bit model would load 4-bit.
            seconds *= 1.0 + self.config.eight_bit_load_overhead * four_bit_ratio
        return seconds

    # ------------------------------------------------------------------
    # Whole-model latency
    # ------------------------------------------------------------------
    def model_latency(
        self,
        ops: Sequence[LayerOp],
        four_bit_ratio: float = 0.0,
        per_layer_ratio: Optional[Dict[str, float]] = None,
        include_non_quantizable: bool = False,
    ) -> float:
        """Latency (seconds) of a model at a given 4-bit channel ratio.

        The paper excludes the 3-channel stem from NPU measurements (it does
        not map onto weight-stationary parallelism); ``include_non_quantizable``
        keeps that behaviour switchable.
        """
        total = 0.0
        for op in ops:
            if op.kind == "float":
                continue
            if not op.quantizable and not include_non_quantizable:
                continue
            ratio = (
                per_layer_ratio.get(op.name, four_bit_ratio)
                if per_layer_ratio
                else four_bit_ratio
            )
            if not op.quantizable:
                ratio = 0.0
            total += self.op_latency(op, four_bit_ratio=ratio)
        return total

    def ratio_switch_latency(self) -> float:
        """Cost of loading the instructions for a new ratio (< 0.3 us)."""
        return self.config.instruction_load_us * 1e-6

    def as_service_backend(self) -> "NpuServiceAdapter":
        """Adapt this NPU model to the GPU-style serving latency interface."""
        return NpuServiceAdapter(self)


class NpuServiceAdapter:
    """Mode-aware facade over :class:`NpuLatencyModel` for the serving layer.

    :class:`~repro.serving.simulator.ServiceTimeModel` talks to latency
    backends through the GPU signature ``model_latency(ops, mode,
    four_bit_ratio=...)``; the NPU's native interface has no ``mode``
    argument (the array computes in integer precision only, with a 4-bit
    channel prefix).  This adapter maps the serving modes onto NPU ratios —
    ``"int8"`` is ratio 0, ``"int4"`` is ratio 1, ``"flexiq"`` uses the
    requested ratio — so heterogeneous clusters can mix GPU- and NPU-backed
    servers behind one engine (see :func:`repro.serving.cluster.npu_server`).

    Serving totals include the non-quantizable stem/head layers (unlike the
    paper's NPU microbenchmarks, which exclude them): a request pays for the
    whole forward.  ``dynamic_extraction`` is accepted for signature
    compatibility and ignored — runtime bit-extraction is free on the NPU
    (Section 7; the low-bit planes are native operands).
    """

    def __init__(self, npu: Optional[NpuLatencyModel] = None) -> None:
        self.npu = npu if npu is not None else NpuLatencyModel()

    def model_latency(
        self,
        ops: Sequence[LayerOp],
        mode: str,
        four_bit_ratio: float = 0.0,
        dynamic_extraction: bool = False,
        per_layer_ratio: Optional[Dict[str, float]] = None,
    ) -> float:
        if mode == "int8":
            ratio = 0.0
        elif mode == "int4":
            ratio = 1.0
        elif mode == "flexiq":
            ratio = float(four_bit_ratio)
        else:
            raise ValueError(
                f"the NPU serves int8/int4/flexiq modes, not {mode!r}"
            )
        return self.npu.model_latency(
            ops,
            four_bit_ratio=ratio,
            per_layer_ratio=per_layer_ratio if mode == "flexiq" else None,
            include_non_quantizable=True,
        )

    def ratio_switch_latency(self) -> float:
        return self.npu.ratio_switch_latency()
