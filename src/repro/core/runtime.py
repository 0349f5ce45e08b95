"""FlexiQ mixed-precision runtime layers and model wrapper.

A FlexiQ layer stores 8-bit weights (per-output-channel scales) and computes
a leading prefix of its feature channels in 4-bit, the rest in 8-bit.  The
prefix length (``max_4bit_ch``) is the only state that changes when the
runtime adjusts the 4-bit ratio, mirroring the kernel described in Section 7.

The 4-bit path uses the effective bit extraction of Section 4.1: each channel
group has an extraction shift; activations and weights are lowered by their
shifts, multiplied as small integers, and the product is scaled back by
``2**(shift_w + shift_a)`` before being accumulated with the 8-bit partial
sums.  Because the per-channel rescale factorises into the two operands, the
functional kernel applies it per operand; the hardware models account for the
grouped shift-accumulate structure the real kernels use.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bit_extraction import (
    BitExtractionPlan,
    extraction_shift,
    group_shared_max,
    lower_bits,
)
from repro.core.layout import ChannelLayout, LayoutPlan
from repro.core.prepared import PreparedKernel, prepare_model
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.quant.qmodules import QuantConv2d, QuantLinear, QuantizedLayer
from repro.quant.quantizers import quantize
from repro.tensor import Tensor, TensorOrArray
from repro.tensor.functional import im2col


class _FlexiQMixin:
    """Mixed-precision machinery shared by FlexiQ linear and conv layers.

    Must precede the ``Quant*`` base class in the MRO so that its
    ``_on_weight_cache_invalidated`` override (which drops the prepared
    kernel) shadows the base class no-op.
    """

    def _init_flexiq_state(self) -> None:
        self.layout: Optional[ChannelLayout] = None
        self.extraction_plan: Optional[BitExtractionPlan] = None
        self.group_size: int = 1
        self.max_4bit_ch: int = 0
        self.dynamic_extract: bool = False
        self.low_bits: int = 4
        # Prepared-kernel cache (weight planes, permutations, factor tables).
        # ``use_prepared=False`` forces the uncached reference kernel, which
        # tests and benchmarks use for bit-exactness and speedup comparisons.
        self._prepared: Optional[PreparedKernel] = None
        self.use_prepared: bool = True

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(
        self,
        layout: ChannelLayout,
        extraction_plan: BitExtractionPlan,
        group_size: int = 1,
        low_bits: int = 4,
    ) -> None:
        """Attach the channel layout and bit-extraction plan to this layer.

        ``extraction_plan`` is given in the *original* channel order; it is
        permuted into the layout order here so the runtime kernel can slice
        leading channels directly.
        """
        if layout.num_channels != self.feature_channels:
            raise ValueError(
                f"layout has {layout.num_channels} channels, layer expects "
                f"{self.feature_channels}"
            )
        if extraction_plan.num_channels != self.feature_channels:
            raise ValueError("extraction plan does not match layer channels")
        plan = extraction_plan
        if group_size > 1:
            # Shifts are shared within hardware channel groups; channel counts
            # that are not a multiple of the group size pad the last group.
            plan = plan.group_reduce(group_size)
        self.layout = layout
        self.group_size = int(group_size)
        self.low_bits = int(low_bits)
        order = layout.order
        self.extraction_plan = BitExtractionPlan(
            weight_shift=plan.weight_shift[order],
            act_shift=plan.act_shift[order],
            high_bits=plan.high_bits,
            low_bits=low_bits,
        )
        self.max_4bit_ch = 0
        # The layout/plan changed, so any prepared weight planes are stale.
        # Rebuild eagerly when the layer is already frozen: all weight-side
        # work happens here, at configure time, never per forward.
        self._prepared = None
        self.prepare()

    def set_boundary(self, boundary: int) -> None:
        """Set the number of leading (permuted) channels computed in 4-bit."""
        if self.layout is None:
            raise RuntimeError("configure() must be called before set_boundary")
        if not 0 <= boundary <= self.feature_channels:
            raise ValueError("boundary out of range")
        self.max_4bit_ch = int(boundary)

    def set_ratio(self, ratio: float) -> None:
        """Set the 4-bit prefix from a configured target ratio."""
        if self.layout is None:
            raise RuntimeError("configure() must be called before set_ratio")
        self.set_boundary(self.layout.boundary_for(ratio))

    def set_dynamic_extraction(self, enabled: bool) -> None:
        self.dynamic_extract = bool(enabled)

    # ------------------------------------------------------------------
    # Prepared-kernel cache
    # ------------------------------------------------------------------
    @property
    def kernel_taps(self) -> int:
        """Consecutive GEMM columns per feature channel (k*k for convs)."""
        return 1

    @property
    def _supports_prepared(self) -> bool:
        return True

    def prepare(self) -> Optional[PreparedKernel]:
        """Build (or refresh) the prepared kernel for this layer.

        Returns ``None`` when the layer is not ready (not configured, not
        frozen, or the mixed-precision path does not apply) or when the
        prepared path is disabled via ``use_prepared``.
        """
        if not self._uses_prepared():
            return None
        prepared = self._get_prepared(self.kernel_taps)
        # Pre-build the combined planes for every ratio boundary of the
        # layout so set_ratio() switches between fully prepared states.
        # Boundary 0 needs no plane (the kernel uses the 8-bit plane as is).
        boundaries = {self.max_4bit_ch}
        boundaries.update(self.layout.boundaries.values())
        prepared.prepare_boundaries(b for b in boundaries if b > 0)
        return prepared

    def _get_prepared(self, taps: int) -> PreparedKernel:
        prepared = self._prepared
        if prepared is not None and prepared.matches(self, taps):
            return prepared
        prepared = PreparedKernel.build(self, taps)
        self._prepared = prepared
        return prepared

    def _on_weight_cache_invalidated(self) -> None:
        # The prepared planes are derived from the cached integer weights.
        self._prepared = None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def current_4bit_fraction(self) -> float:
        return self.max_4bit_ch / max(self.feature_channels, 1)

    def effective_weight_bits(self) -> float:
        """Average weight bitwidth given the current 4-bit prefix."""
        frac = self.current_4bit_fraction()
        return 4.0 * frac + self.weight_bits * (1.0 - frac)

    # ------------------------------------------------------------------
    # Mixed-precision integer GEMM
    # ------------------------------------------------------------------
    def _uses_prepared(self) -> bool:
        return (
            self.use_prepared
            and self._supports_prepared
            and self.layout is not None
            and self.extraction_plan is not None
            and self.weight_qparams is not None
        )

    def _flexiq_matmul(self, q_x: np.ndarray, taps: int) -> np.ndarray:
        """Uncached mixed-precision GEMM, weight quantization included.

        This is the reference path the quantized forwards fall back to when
        the prepared kernel is disabled or not applicable: it re-derives all
        weight-side state from the float weights on every call, exactly as
        the seed implementation did.  It is a bit-exact equivalent of the
        prepared path: every operand is a small integer times an exact power
        of two, so all float64 products and sums are exactly representable
        regardless of evaluation order.
        """
        q_w = quantize(self._weight_reference().data, self.weight_qparams)
        w_mat = q_w.astype(np.float64).reshape(q_w.shape[0], -1)
        return self._mixed_precision_matmul(q_x, w_mat, taps=taps)

    def _mixed_precision_matmul(
        self, q_x: np.ndarray, q_w: np.ndarray, taps: int = 1
    ) -> np.ndarray:
        """Compute ``q_x @ q_w.T`` with a 4-bit prefix and an 8-bit remainder.

        This is the uncached reference kernel; :meth:`_flexiq_matmul` prefers
        the prepared kernel and only falls back here.

        ``q_x``: (rows, channels * taps) integer activations, channel-major.
        ``q_w``: (out, channels * taps) integer weights, channel-major.
        ``taps``: number of consecutive columns per feature channel (k*k for
        convolutions, 1 for linear layers).
        """
        if self.layout is None or self.extraction_plan is None:
            return q_x @ q_w.T

        channels = self.feature_channels
        order = self.layout.order
        boundary = self.max_4bit_ch

        if taps == 1:
            column_order = order
        else:
            column_order = (order[:, None] * taps + np.arange(taps)[None, :]).reshape(-1)
        x_perm = q_x[:, column_order]
        w_perm = q_w[:, column_order]

        split = boundary * taps
        acc = np.zeros((q_x.shape[0], q_w.shape[0]), dtype=np.float64)

        if split > 0:
            act_shift = self.extraction_plan.act_shift[:boundary]
            weight_shift = self.extraction_plan.weight_shift[:boundary]
            if self.dynamic_extract:
                act_shift = self._dynamic_act_shift(x_perm[:, :split], boundary, taps)
            act_shift_cols = np.repeat(act_shift, taps)
            weight_shift_cols = np.repeat(weight_shift, taps)

            x_low = lower_bits(x_perm[:, :split], act_shift_cols[None, :], self.low_bits)
            w_low = lower_bits(w_perm[:, :split], weight_shift_cols[None, :], self.low_bits)
            # Rescale each operand by its own shift; the product then carries
            # 2**(shift_a + shift_w), exactly the bit-shifted accumulation the
            # hardware performs per channel group.
            x_scaled = x_low.astype(np.float64) * np.power(2.0, act_shift_cols)[None, :]
            w_scaled = w_low.astype(np.float64) * np.power(2.0, weight_shift_cols)[None, :]
            acc += x_scaled @ w_scaled.T

        if split < channels * taps:
            acc += (
                x_perm[:, split:].astype(np.float64)
                @ w_perm[:, split:].astype(np.float64).T
            )
        return acc

    def _dynamic_act_shift(
        self, x_low_cols: np.ndarray, boundary: int, taps: int
    ) -> np.ndarray:
        """Per-channel extraction shifts computed from the runtime batch."""
        per_channel = x_low_cols.reshape(x_low_cols.shape[0], boundary, taps)
        max_abs = np.abs(per_channel).max(axis=(0, 2))
        shifts = extraction_shift(
            max_abs, high_bits=self.extraction_plan.high_bits, low_bits=self.low_bits
        )
        if self.group_size > 1:
            shifts = group_shared_max(shifts, self.group_size)
        return shifts


class FlexiQLinear(_FlexiQMixin, QuantLinear):
    """Fully connected layer with a runtime-adjustable 4-bit channel prefix."""

    def __init__(self, source: Linear, weight_bits: int = 8, act_bits: int = 8) -> None:
        super().__init__(source, weight_bits=weight_bits, act_bits=act_bits)
        self._init_flexiq_state()

    def _static_kernel(self, x) -> Optional[PreparedKernel]:
        """The inline cache's guard: the prepared kernel if ``x``, a float32 array of
        this layer's width, may go straight to its constants, else ``None``."""
        prepared = self._prepared
        return prepared if (
            type(x) is np.ndarray and x.dtype.char == "f" and x.shape[-1:] == (self.in_features,)
            and prepared is not None and self.use_prepared and not self.dynamic_extract
            and not self.calibrating and self.qat_bits is None
            and self.layout is not None and self.extraction_plan is not None
            and prepared.weight_src is self.weight.data
            and prepared.weight_qparams_src is self.weight_qparams
            and prepared.act_qparams_src is self.act_qparams
        ) else None

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        prepared = self._static_kernel(x)
        if prepared is None:  # any miss: the checked path (and the width check)
            return super().forward(x)
        return prepared.linear(x, self.max_4bit_ch, self.bias)

    @staticmethod
    def stacked_forward(layers, x: np.ndarray) -> Optional[np.ndarray]:
        """The stacked-projection capability (:mod:`repro.nn.module`): every
        layer's forward of ``x`` from one pass, or ``None`` (a guard missed, a
        layer has no bias, activation scales or plane shapes differ)."""
        kernels = [layer._static_kernel(x) for layer in layers]
        biases = [layer.bias for layer in layers]
        if None in kernels or None in biases:
            return None
        boundaries = tuple([layer.max_4bit_ch for layer in layers])
        step = kernels[0].stacked_step(boundaries, kernels + [bias.data for bias in biases])
        return step and step(x)

    def _quantized_forward(self, x: np.ndarray) -> np.ndarray:
        if self._uses_prepared():
            # Fast path, no activation permutation (the layout is folded into
            # the prepared planes).  Bit-exact with the reference branch below.
            return self._get_prepared(1).linear(
                np.asarray(x, np.float32), self.max_4bit_ch, self.bias, self.dynamic_extract
            )
        if self.use_prepared and self.layout is None:
            # Unconfigured layers (e.g. first/last kept at 8 bits) still use
            # the cached integer weights of the uniform path.
            return super()._quantized_forward(x)
        q_x = quantize(x, self.act_qparams).astype(np.float64)
        rows = q_x.reshape(-1, self.in_features)
        acc = self._flexiq_matmul(rows, taps=1)
        scale = self.act_qparams.scale * self.weight_qparams.scale
        out = acc * scale.reshape(1, -1)
        if self.bias is not None:
            out = out + self.bias.data.reshape(1, -1)
        out = out.reshape(x.shape[:-1] + (self.out_features,))
        return out.astype(np.float32)

    def __repr__(self) -> str:
        return (
            f"FlexiQLinear(in={self.in_features}, out={self.out_features}, "
            f"4bit={self.max_4bit_ch}/{self.in_features})"
        )


class FlexiQConv2d(_FlexiQMixin, QuantConv2d):
    """Convolution with a runtime-adjustable 4-bit feature-channel prefix."""

    def __init__(self, source: Conv2d, weight_bits: int = 8, act_bits: int = 8) -> None:
        super().__init__(source, weight_bits=weight_bits, act_bits=act_bits)
        self._init_flexiq_state()

    @property
    def kernel_taps(self) -> int:
        return self.kernel_size * self.kernel_size

    @property
    def _supports_prepared(self) -> bool:
        # Grouped/depthwise convolutions run the uniform quantized path.
        return self.groups == 1

    def _static_kernel(self, x) -> Optional[PreparedKernel]:
        """The inline cache's guard (as :meth:`FlexiQLinear._static_kernel`): the
        prepared kernel if ``x``, a float32 (N, in_channels, H, W) array, may go
        straight to its constants, else ``None``."""
        prepared = self._prepared
        return prepared if (
            type(x) is np.ndarray and x.dtype.char == "f" and x.ndim == 4
            and x.shape[1] == self.in_channels and self.groups == 1
            and prepared is not None and self.use_prepared and not self.dynamic_extract
            and not self.calibrating and self.qat_bits is None
            and self.layout is not None and self.extraction_plan is not None
            and prepared.taps == self.kernel_size * self.kernel_size
            and prepared.weight_src is self.weight.data
            and prepared.weight_qparams_src is self.weight_qparams
            and prepared.act_qparams_src is self.act_qparams
        ) else None

    def forward(self, x: TensorOrArray) -> TensorOrArray:
        prepared = self._static_kernel(x)
        if prepared is None:  # any miss: the checked path (and the shape check)
            return super().forward(x)
        return prepared.conv(
            x, self.max_4bit_ch, self.kernel_size, self.stride, self.padding, self.bias
        )

    def _quantized_forward(self, x: np.ndarray) -> np.ndarray:
        if self.groups != 1:
            # Depthwise/grouped convolutions follow the uniform quantized path;
            # FlexiQ channel selection targets dense convolutions and linears.
            return super()._quantized_forward(x)
        n = x.shape[0]
        k = self.kernel_size
        if self._uses_prepared():
            # Fast path, layout folded into the prepared planes.  Bit-exact
            # with the reference ordering below.
            return self._get_prepared(k * k).conv(
                np.asarray(x, np.float32), self.max_4bit_ch, k, self.stride, self.padding,
                self.bias, self.dynamic_extract,
            )
        if self.use_prepared and self.layout is None:
            # Unconfigured layers (e.g. first/last kept at 8 bits) still use
            # the cached integer weights of the uniform path.
            return super()._quantized_forward(x)
        cols, (out_h, out_w) = im2col(x, (k, k), self.stride, self.padding)
        q_cols = quantize(cols, self.act_qparams).astype(np.float64)
        rows = q_cols.reshape(-1, q_cols.shape[-1])
        acc = self._flexiq_matmul(rows, taps=k * k)
        scale = self.act_qparams.scale * self.weight_qparams.scale
        out = acc.reshape(n, out_h * out_w, self.out_channels) * scale.reshape(1, 1, -1)
        if self.bias is not None:
            out = out + self.bias.data.reshape(1, 1, -1)
        out = out.transpose(0, 2, 1).reshape(n, self.out_channels, out_h, out_w)
        return out.astype(np.float32)

    def __repr__(self) -> str:
        return (
            f"FlexiQConv2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, 4bit={self.max_4bit_ch}/{self.in_channels})"
        )


class FlexiQModel:
    """A quantized model whose 4-bit channel ratio can be switched at runtime."""

    def __init__(
        self,
        model: Module,
        layout_plan: LayoutPlan,
        selections: Dict[float, "ChannelSelection"],
        group_size: int,
    ) -> None:
        from repro.core.selection import ChannelSelection  # noqa: F401 (typing only)

        self.model = model
        self.layout_plan = layout_plan
        self.selections = selections
        self.group_size = group_size
        self.current_ratio: float = 0.0
        # Ratio switches performed by forward_batch (the serving hot path);
        # executors read deltas of this instead of re-deriving the switch
        # condition themselves.
        self.ratio_switches: int = 0
        self._flexiq_layers: List[Tuple[str, QuantizedLayer]] = [
            (name, module)
            for name, module in model.named_modules()
            if isinstance(module, (FlexiQLinear, FlexiQConv2d))
        ]
        # [layer, layout read, boundary below every plan ratio and at each]: set_ratio's.
        self._ratio_rows: List[list] = [
            [layer, None, ()] for name, layer in self._flexiq_layers if name in layout_plan.layouts
        ]

    # ------------------------------------------------------------------
    # Ratio control
    # ------------------------------------------------------------------
    @property
    def available_ratios(self) -> List[float]:
        return [0.0] + list(self.layout_plan.ratios)

    def flexiq_layers(self) -> List[Tuple[str, QuantizedLayer]]:
        return list(self._flexiq_layers)

    def set_ratio(self, ratio: float) -> None:
        """Switch every FlexiQ layer to the channel prefix for ``ratio``.

        A single variable update per layer (Section 8.5): the ratio resolves,
        with ``boundary_for``'s floor, to an index into the plan's ratios and
        each layer is written its boundary there -- no weight requantization,
        re-permutation or plane lowering.  A ratio outside [0, 1] is an error.
        """
        ratio = float(ratio)
        if not 0.0 <= ratio <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"ratio must be a finite number in [0, 1], got {ratio!r}")
        index = bisect_right(self.layout_plan.ratios, ratio + 1e-9)
        for row in self._ratio_rows:
            layer, layout, boundaries = row
            if layer.layout is not layout:  # (re-)configured since the row was read
                if layer.layout is None:
                    raise RuntimeError("configure() must be called before set_ratio")
                layout = layer.layout
                boundaries = (0, *map(layout.boundary_for, self.layout_plan.ratios))
                row[1:] = layout, boundaries
            layer.__dict__["max_4bit_ch"] = boundaries[index]  # an int: no Module.__setattr__
        self.current_ratio = ratio

    def set_dynamic_extraction(self, enabled: bool) -> None:
        for _, layer in self._flexiq_layers:
            layer.set_dynamic_extraction(enabled)

    # ------------------------------------------------------------------
    # Prepared kernels
    # ------------------------------------------------------------------
    def prepare(self, use_prepared: Optional[bool] = None) -> int:
        """Eagerly build the prepared kernels of every FlexiQ layer.

        Forward passes build missing kernels lazily, so calling this is an
        optimization, not a requirement; the pipeline calls it once so the
        very first inference after construction is already on the fast path.
        ``use_prepared`` optionally toggles the prepared path on all layers
        (``False`` forces the uncached reference kernels, used by tests and
        benchmarks).  Returns the number of layers holding a prepared kernel.
        """
        return prepare_model(self.model, use_prepared=use_prepared)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        return self.model(*args, **kwargs)

    def forward(self, *args, **kwargs):
        return self.model(*args, **kwargs)

    def forward_batch(
        self, x, ratio: Optional[float] = None
    ) -> Tuple[Tensor, float]:
        """Serve one batch: optional ratio switch, one forward, measured time.

        This is the serving engine's batch-forward hook
        (:class:`repro.serving.executors.RuntimeExecutor` calls it once per
        batch): the ratio switch is the O(1) per-layer variable update, the
        forward runs on the prepared kernels, and the returned wall-clock
        seconds stand in for the accelerator's batch service time.

        An array batch is served without autograd, whatever the model: it
        flows through the module tree as a raw float32 ``ndarray`` and only
        the logits are wrapped in a ``Tensor`` (:mod:`repro.nn.module`'s
        rule).  A ``Tensor`` batch records a graph as usual; both give
        bit-identical values.
        """
        if len(x) == 0:
            raise ValueError("forward_batch needs at least one sample, got an empty batch")
        if ratio is not None:
            # Always apply, even when the ratio looks unchanged: it is a
            # handful of O(1) boundary updates, and it resynchronizes layers
            # whose boundaries were moved behind the model's back (direct
            # layer.set_boundary calls, freshly constructed models whose
            # current_ratio was never materialized).
            previous = self.current_ratio
            self.set_ratio(ratio)
            self.ratio_switches += self.current_ratio != previous
        if not isinstance(x, Tensor):
            x = np.asarray(x, dtype=np.float32)
        start = time.perf_counter()
        output = self.model(x)
        seconds = time.perf_counter() - start
        if not isinstance(output, Tensor):
            output = Tensor(output)
        return output, seconds

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def per_layer_4bit_fraction(self) -> Dict[str, float]:
        """Fraction of channels currently computed in 4-bit, per layer."""
        return {
            name: layer.current_4bit_fraction() for name, layer in self._flexiq_layers
        }

    def average_weight_bits(self) -> float:
        """Parameter-weighted average bitwidth at the current ratio."""
        from repro.quant.qmodel import model_average_bits

        return model_average_bits(self.model)
