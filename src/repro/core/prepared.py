"""Prepared-kernel cache for the FlexiQ mixed-precision GEMM.

The real FlexiQ serving system (Section 8.5) switches the 4-bit channel ratio
with *a single variable update per layer*: all weight-side state -- the
quantized weights, the channel permutation, the lowered 4-bit weight planes
and the ``2**shift`` rescale factors -- lives in device memory, prepared
ahead of time.  This module reproduces that separation of prepare-time from
run-time work.

A :class:`PreparedKernel` snapshots everything about one layer's weight side
and extraction plan at prepare time, in *original* (unpermuted) column order:

* ``w8_t`` -- the int8 quantized weight matrix, stored transposed and as a
  float plane so the GEMM consumes it without any per-call conversion (it is
  the boundary-0 plane, shared with the layer's uniform path);
* ``w4_t`` -- the lowered 4-bit weight planes ``lower_bits(w, weight_shift)
  * 2**weight_shift``, also transposed; only a source for the combined
  planes, kept in float32 (its entries are integers within the 8-bit range);
* per-boundary *combined* plane matrices: running at boundary ``b`` uses a
  matrix whose rows are the 4-bit planes for the ``b`` leading channels of
  the layout order and the 8-bit rows for the rest, together with float32
  lowering tables: per-column ``2**-act_shift`` factors (built with
  :func:`np.ldexp` -- exact powers of two) and clip bounds.

Because an integer GEMM is a sum over columns, folding the layout
permutation into the weight rows is exact: activations are never permuted at
inference time.  A forward pass is one element-wise lowering pass over the
activations (:meth:`PreparedKernel.lower`, in float32) followed by a single
GEMM in the plane's dtype.  Every operand is a small integer times an exact
power of two, so all float64 products and sums are exactly representable and
the result is **bit-exact identical** to the uncached reference path
(``_FlexiQMixin._mixed_precision_matmul``) regardless of BLAS summation
order.

Plane dtype
-----------

A plane is stored in float32 *when that GEMM is provably exact*, else in
float64: decided from the plane's values when it is built
(:func:`repro.quant.quantizers.gemm_plane`), and only that one copy is kept
(:meth:`PreparedKernel.nbytes` counts what is stored).  A plane qualifies iff
its entries are integers and ``max_j sum_k amax[k] * |plane[k, j]| < 2**24``,
``amax[k]`` being the larger clip magnitude of row ``k``'s lowering table (8
on 4-bit prefix rows, 128 elsewhere).  Proof:

1. lowered activations are integers, ``|a[k]| <= amax[k]``: every product
   ``a[k] * plane[k, j]`` and every partial sum, in any order, is an integer;
2. its magnitude is at most ``sum_k amax[k] * |plane[k, j]| < 2**24``;
3. float32 holds every such integer exactly, so no multiply, add or FMA ever
   rounds: the float32 GEMM returns the float64 one's integers.

A stride-1 convolution also multiplies the *junk* columns of
:func:`repro.tensor.functional.unfold`'s padded-row grid and drops them after.
Those are windows too -- each tap's run wraps into the next padded row of its
own channel, then into a zero tail -- so they hold lowered values of the same
image, ``|a[k]| <= amax[k]`` and steps 1-3 hold for them as well; a GEMM column
depends on no other, so every kept entry is the exact integer it was
(generated obligation: ``TestFloat32PlaneCriterion`` in
``tests/test_property_kernels.py``).

The rescale that follows is a float64 multiply either way.  Dynamic
extraction scales lowered rows by ``2**(dynamic - static)``, which the bound
does not cover: that path upcasts to a float64 GEMM.

The activation clip is merged into the lowering clip.  The reference computes
``clip(round(clip(r, qmin, qmax) / 2**s), lo4, hi4)`` with ``r = round(x /
scale)``; the kernel takes the *unclipped* ``r`` and clips once, to ``[lo4,
hi4]`` on prefix columns and ``[qmin, qmax]`` elsewhere.  That is exact as
long as ``(qmax + 1) / 2**s >= hi4 + 1``, i.e. every shift lies in ``[0,
act_bits - low_bits]``: an out-of-range ``r`` then still lands at or beyond
the 4-bit bound.  Extraction plans produce such shifts;
:meth:`PreparedKernel.build` checks them against the plan's ``high_bits`` and
the tables against the activation quantizer.  On the 8-bit plane (boundary
0) the pass is the plain clip, so 4-bit channels cost two extra ufunc calls
per layer (multiply, rint) over 8-bit ones.

Prepare/invalidate lifecycle
----------------------------

* ``freeze()`` on a quantized layer caches the int8 quantized weights (see
  :meth:`repro.quant.qmodules.QuantizedLayer.quantized_weight`).
* ``configure()`` on a FlexiQ layer drops any stale prepared kernel and, when
  the layer is already frozen, eagerly rebuilds it for the new layout/plan,
  including the combined planes for every boundary of the layout (so
  ``set_ratio()`` switches between fully prepared states).
* ``set_boundary()`` / ``set_ratio()`` are O(1): they update one integer and
  never touch the prepared state (the paper's single-variable-update claim).
  A boundary outside the layout's ratio set builds its combined plane
  lazily, once, on first use.
* ``reset_calibration()`` and re-``freeze()`` invalidate both the quantized
  weight cache and the prepared kernel.
* Weight updates that rebind the parameter's ``.data`` array (the optimizer
  and ``load_state_dict`` both do) are detected automatically through an
  object-identity check; purely in-place mutation of the same array must be
  followed by an explicit ``invalidate_weight_cache()``.
* A static linear's ndarray forward is an inline cache: one guard
  (``FlexiQLinear._static_kernel``: every condition of the checked path, the
  identity checks of :meth:`PreparedKernel.matches` included), then
  :meth:`PreparedKernel.linear` on what :meth:`build` fixed (both scales) and
  the boundary's plane and tables; a miss takes the checked path and rebuilds.
* A static convolution's likewise (``FlexiQConv2d._static_kernel``: float32
  4-d array of the layer's channels, ungrouped, and the same conditions) in
  front of :meth:`PreparedKernel.conv`, which reads the boundary's plane and
  image tables and the pre-shaped rescale; dynamic extraction, a ``Tensor`` and
  every miss take the checked path, which ends in the same method.
* Sibling projections run one :meth:`PreparedKernel.stacked_step`: a closure
  over copies of their planes, tables, rescales and biases, stacked.  The first
  sibling's kernel holds it per boundary tuple -- compiled on first use (a
  ``plane_build_count``), bounded like the planes, recompiled when a sibling's
  kernel or bias array was replaced, dropped with the kernel.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import is_
from typing import Callable, Iterable, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.bit_extraction import (
    extraction_shift,
    group_shared_max,
    lower_bits,
)
from repro.quant.qmodules import conv_rescale
from repro.quant.quantizers import gemm_plane, int_range
from repro.tensor.functional import kept_columns, unfold

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import _FlexiQMixin

# Combined plane matrices are one (channels * taps, out) float array per
# boundary; serving uses only the layout's ratio boundaries, so a small cache
# never evicts in practice.  The cap bounds memory when callers sweep many
# ad-hoc boundaries (e.g. the GA fitness loop).
_MAX_BOUNDARY_PLANES = 16


def _scale_round_clip(q: np.ndarray, inv, lo, hi) -> None:
    """``q = clip(rint(q * inv), lo, hi)`` in place, one ufunc per step."""
    np.multiply(q, inv, out=q)
    np.rint(q, out=q)
    np.maximum(q, lo, out=q)
    np.minimum(q, hi, out=q)


class PreparedKernel:
    """Precomputed weight-side and plan-side state for one FlexiQ layer.

    All arrays are computed in :meth:`build` (plus lazily cached per-boundary
    combined planes) and only read afterwards.  ``weight_src`` keeps a
    reference to the exact weight array the kernel was prepared from so
    staleness can be detected with an ``is`` check, never a recompute.
    """

    #: Process-wide count of :meth:`build` calls.  Serving tests snapshot it
    #: around ratio-switching workloads to assert the single-variable-update
    #: claim: steady-state serving must never rebuild a prepared kernel (no
    #: weight requantization, re-permutation or plane lowering per batch).
    build_count: int = 0

    #: Process-wide count of lazy per-boundary constructions (combined
    #: planes, channel tables, prefix indices).  These are cheap relative to
    #: :meth:`build` but are exactly the plane-lowering work the O(1) switch
    #: claim excludes — if a workload cycles through more boundaries than
    #: ``_MAX_BOUNDARY_PLANES`` the caches thrash and this counter keeps
    #: rising per batch, so serving gates assert it stays flat after warmup.
    plane_build_count: int = 0

    def __init__(
        self,
        order: np.ndarray,
        w8_t: np.ndarray,
        w4_t: np.ndarray,
        act_shift: np.ndarray,
        taps: int,
        group_size: int,
        high_bits: int,
        low_bits: int,
        weight_src: np.ndarray,
        act_qparams_src,
        weight_qparams_src=None,
    ) -> None:
        self.order = order                # layout order: position -> channel
        self.w8_t = w8_t                  # (channels * taps, out) GEMM plane
        self.w4_t = w4_t                  # (channels * taps, out) plane source
        self.act_shift = act_shift        # (channels,) original channel order
        self.taps = int(taps)
        self.channels = int(act_shift.shape[0])
        self.out_features = int(w8_t.shape[1])
        self.group_size = int(group_size)
        self.high_bits = int(high_bits)
        self.low_bits = int(low_bits)
        self.qmin_low, self.qmax_low = int_range(low_bits)
        self.weight_src = weight_src
        self.weight_qparams_src = weight_qparams_src
        # The activation clip merged into the tables is this quantizer's.
        self.act_qparams_src = act_qparams_src
        self.act_qmin, self.act_qmax = act_qparams_src.qmin, act_qparams_src.qmax
        # :meth:`linear`'s and :meth:`conv`'s constants (a kernel built without
        # weight quantizer only lowers)
        self.act_scale = act_qparams_src.scale.reshape(())
        if weight_qparams_src is not None:
            self.out_scale = (act_qparams_src.scale * weight_qparams_src.scale).astype(np.float64)
            self.out_scale_image = self.out_scale[:, None, None]
        self._act_shift_cols = np.repeat(act_shift, taps) if taps > 1 else act_shift
        # boundary -> (combined plane, inv factors, lo, hi), column domain
        self._boundary_planes: "OrderedDict[int, Tuple[np.ndarray, ...]]" = (
            OrderedDict()
        )
        # boundary -> (inv, lo, hi), per-channel (image) domain
        self._channel_tables: "OrderedDict[int, Tuple[np.ndarray, ...]]" = (
            OrderedDict()
        )
        # boundary -> (prefix column index, static act shifts per column)
        self._prefix_cache: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        # sibling linears' boundaries (this one's first) -> (sources, bytes held, step)
        self._stacked: "OrderedDict[Tuple[int, ...], tuple]" = OrderedDict()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def build(layer: "_FlexiQMixin", taps: int) -> "PreparedKernel":
        """Prepare the weight-side state of a configured, frozen layer."""
        if layer.layout is None or layer.extraction_plan is None:
            raise RuntimeError("configure() must be called before preparing")
        order = layer.layout.order
        plan = layer.extraction_plan  # stored in layout (permuted) order
        # Undo the layout permutation: shifts per *original* channel index.
        weight_shift = np.empty_like(plan.weight_shift)
        weight_shift[order] = plan.weight_shift
        act_shift = np.empty_like(plan.act_shift)
        act_shift[order] = plan.act_shift
        if act_shift.size and not (
            0 <= act_shift.min() and act_shift.max() <= plan.high_bits - layer.low_bits
        ):
            raise ValueError(
                "activation extraction shifts must lie in [0, high_bits - low_bits]"
            )

        PreparedKernel.build_count += 1
        w8_t = layer._gemm_weight_t()  # shared, cached (channels * taps, out)
        weight_shift_cols = np.repeat(weight_shift, taps)
        w_low = lower_bits(w8_t.T, weight_shift_cols[None, :], layer.low_bits)
        w4 = w_low.astype(np.float64) * np.ldexp(1.0, weight_shift_cols)[None, :]
        return PreparedKernel(
            order=order,
            w8_t=w8_t,
            w4_t=np.ascontiguousarray(w4.T, dtype=np.float32),
            act_shift=act_shift,
            taps=taps,
            group_size=layer.group_size,
            high_bits=plan.high_bits,
            low_bits=layer.low_bits,
            weight_src=layer._weight_reference().data,
            weight_qparams_src=layer.weight_qparams,
            act_qparams_src=layer.act_qparams,
        )

    def matches(self, layer: "_FlexiQMixin", taps: int) -> bool:
        """Whether this kernel is still valid for the layer's current state."""
        return (
            self.taps == taps
            and self.weight_src is layer._weight_reference().data
            and self.weight_qparams_src is layer.weight_qparams
            and self.act_qparams_src is layer.act_qparams
        )

    # ------------------------------------------------------------------
    # Per-boundary combined planes
    # ------------------------------------------------------------------
    def _prefix_info(self, boundary: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached (prefix column index, static act shifts per column).

        Both are pure functions of the boundary; the dynamic-extraction path
        needs them on every forward, so they are cached alongside the
        boundary planes instead of being rebuilt per batch.
        """
        cached = self._prefix_cache.get(boundary)
        if cached is not None:
            return cached
        PreparedKernel.plane_build_count += 1
        channels = self.order[:boundary]
        if self.taps == 1:
            prefix_cols = channels
        else:
            prefix_cols = (
                channels[:, None] * self.taps + np.arange(self.taps)[None, :]
            ).reshape(-1)
        entry = (prefix_cols, self._act_shift_cols[prefix_cols])
        self._prefix_cache[boundary] = entry
        while len(self._prefix_cache) > _MAX_BOUNDARY_PLANES:
            self._prefix_cache.popitem(last=False)
        return entry

    def prepare_boundaries(self, boundaries: Iterable[int]) -> None:
        """Eagerly build the planes and lowering tables for some boundaries."""
        for boundary in boundaries:
            self._boundary_plane(int(boundary))
            if self.taps > 1:
                self._image_tables(int(boundary))

    def _lowering_tables(
        self, prefix: np.ndarray, shifts: np.ndarray, size: int
    ) -> Tuple[np.ndarray, ...]:
        """Float32 (inv, lo, hi) over ``size`` positions, ``prefix`` lowered.

        Prefix positions are scaled by ``2**-shift`` and clipped to the low
        range, the 8-bit remainder passes through (factor 1; rint is exact
        on integers) and is clipped to the activation range: the merged clip
        of the module docstring.  Analysis code may rebind the activation
        quantizer to fewer bits than the plan was made for; lowering is then
        refused rather than silently inexact (the 8-bit plane stays usable).
        """
        if shifts.size and (self.qmax_low + 1) << int(shifts.max()) > self.act_qmax + 1:
            raise ValueError(
                "activations are quantized to fewer bits than the extraction "
                "plan's shifts assume; the merged clip would not be exact"
            )
        inv = np.ones(size, dtype=np.float32)
        inv[prefix] = np.ldexp(np.float32(1.0), -shifts)
        lo = np.full(size, self.act_qmin, dtype=np.float32)
        lo[prefix] = self.qmin_low
        hi = np.full(size, self.act_qmax, dtype=np.float32)
        hi[prefix] = self.qmax_low
        return inv, lo, hi

    def _boundary_plane(self, boundary: int) -> Tuple[np.ndarray, ...]:
        cached = self._boundary_planes.get(boundary)
        if cached is not None:
            return cached
        PreparedKernel.plane_build_count += 1
        total = self.channels * self.taps
        prefix_cols, shift_cols = self._prefix_info(boundary)
        inv, lo, hi = self._lowering_tables(prefix_cols, shift_cols, total)
        if boundary == 0:
            combined = self.w8_t
        else:
            combined = self.w8_t.astype(np.float64)
            combined[prefix_cols] = self.w4_t[prefix_cols]
            # Fold the static activation rescale (2**act_shift per column of
            # x, i.e. per *row* of the plane) into the prefix rows: the GEMM
            # then consumes the lowered activations directly and the fourth
            # element-wise pass disappears.  Exact: the rows are small
            # integers scaled by powers of two.
            combined[prefix_cols] *= np.ldexp(1.0, shift_cols)[:, None]
            combined = gemm_plane(combined, np.maximum(-lo, hi))
        entry = (combined, inv[None, :], lo[None, :], hi[None, :])
        self._boundary_planes[boundary] = entry
        while len(self._boundary_planes) > _MAX_BOUNDARY_PLANES:
            self._boundary_planes.popitem(last=False)
        return entry

    def _image_tables(self, boundary: int) -> Tuple[np.ndarray, ...]:
        """Per-*channel* lowering tables, shaped for an (N, C, H, W) image.

        The extraction shift is shared by all taps of a feature channel, so a
        convolution can lower the quantized *image* (k*k times less data than
        the unfolded columns) and hand :meth:`gemm_lowered` activations that
        need no further element-wise work.
        """
        cached = self._channel_tables.get(boundary)
        if cached is not None:
            return cached
        PreparedKernel.plane_build_count += 1
        prefix = self.order[:boundary]
        entry = tuple(
            table.reshape(1, -1, 1, 1)
            for table in self._lowering_tables(
                prefix, self.act_shift[prefix], self.channels
            )
        )
        self._channel_tables[boundary] = entry
        while len(self._channel_tables) > _MAX_BOUNDARY_PLANES:
            self._channel_tables.popitem(last=False)
        return entry

    def lower(self, q: np.ndarray, boundary: int, image: bool = False) -> None:
        """Clip and bit-lower rounded, *unclipped* activations in place.

        ``q`` holds ``rint(x / scale)`` (float32 on the hot path): either
        (rows, channels * taps) GEMM rows or, with ``image``, the (N, C, H,
        W) input of a convolution before unfolding.  Afterwards it is what
        :meth:`gemm_lowered` consumes.  Uses the static extraction shifts.
        """
        if boundary <= 0:
            np.maximum(q, self.act_qmin, out=q)
            np.minimum(q, self.act_qmax, out=q)
            return
        if image:
            inv, lo, hi = self._image_tables(boundary)
        else:
            _, inv, lo, hi = self._boundary_plane(boundary)
        _scale_round_clip(q, inv, lo, hi)

    def plane(self, boundary: int) -> np.ndarray:
        """The (channels * taps, out) GEMM operand for ``boundary``."""
        return self.w8_t if boundary <= 0 else self._boundary_plane(boundary)[0]

    def gemm_lowered(self, q_cols: np.ndarray, boundary: int) -> np.ndarray:
        """``plane.T @ cols`` per image -> (N, out, L) for already-lowered
        batch-major columns in the plane's dtype, handed over 2-D: the batch's
        (channels * taps, L) blocks stacked on the rows, so the operand shape
        times ``out`` is the flops executed."""
        plane = self.plane(boundary)
        return plane.T @ q_cols.reshape(-1, plane.shape[0], q_cols.shape[1])

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def matmul(
        self, q_x: np.ndarray, boundary: int, dynamic: bool = False
    ) -> np.ndarray:
        """``q_x @ q_w.T`` with a 4-bit prefix of ``boundary`` layout channels.

        ``q_x`` is (rows, channels * taps) in *original* column order and
        holds the rounded activations ``rint(x / scale)``; they need not be
        clipped yet (see :meth:`lower`) and are modified in place (callers
        pass a fresh buffer).  The layout permutation is folded into the
        prepared weight rows, so no activation permutation happens here: one
        element-wise lowering pass in ``q_x``'s dtype, a single GEMM in the
        plane's dtype (dynamic rows: in float64, see the module docstring).
        """
        if boundary <= 0:
            plane = self.w8_t
            np.maximum(q_x, self.act_qmin, out=q_x)
            np.minimum(q_x, self.act_qmax, out=q_x)
        else:
            entry = self._boundary_planes.get(boundary) or self._boundary_plane(boundary)
            plane, inv, lo, hi = entry
            if dynamic:
                # Dynamic shifts are derived from the clipped activations, so
                # this path clips first and lowers with per-batch factors.
                self.lower(q_x, 0)
                inv, fac = self._dynamic_tables(q_x, boundary)
                _scale_round_clip(q_x, inv, lo, hi)
                # Dynamic shifts replace the static ones folded into the plane:
                # rescale by 2**(dynamic - static), an exact power of two.
                np.multiply(q_x, fac, out=q_x)
                return q_x.astype(np.float64, copy=False) @ plane
            _scale_round_clip(q_x, inv, lo, hi)
        return (q_x if q_x.dtype == plane.dtype else q_x.astype(plane.dtype)) @ plane

    def linear(self, x: np.ndarray, boundary: int, bias, dynamic: bool = False) -> np.ndarray:
        """A linear layer's whole forward of float32 ``x``: round, clip +
        lower + one GEMM (through :meth:`matmul`, so a wrapper on it sees the
        call), float64 rescale, bias, float32 -- constants only, no checks."""
        q = x / self.act_scale
        np.rint(q, out=q)
        acc = self.matmul(q.reshape(-1, self.channels), boundary, dynamic) * self.out_scale
        if bias is not None:
            acc += bias.data
        return acc.astype(np.float32).reshape(x.shape[:-1] + (self.out_features,))

    def conv(
        self, x: np.ndarray, boundary: int, k: int, stride: int, padding: int, bias,
        dynamic: bool = False,
    ) -> np.ndarray:
        """A convolution's whole forward of float32 (N, C, H, W) ``x``: round,
        clip + lower the *image* (:meth:`_image_tables`; every step maps padded
        zero to zero, so it commutes with the unfold), :func:`unfold` in the
        plane's dtype, one batched GEMM (through :meth:`gemm_lowered`, so a
        wrapper on it sees the call), :func:`conv_rescale` -- constants only,
        no checks.  Dynamic shifts come from the window values: that path
        lowers the kept columns as (N*P, C*k*k) rows in :meth:`matmul`."""
        q = x / self.act_scale
        np.rint(q, out=q)
        if dynamic:
            cols, grid = unfold(q, (k, k), stride, padding)
            rows = kept_columns(cols, grid).transpose(0, 2, 3, 1).reshape(-1, cols.shape[1])
            acc = self.matmul(rows, boundary, dynamic=True)
            acc = acc.reshape((len(x),) + grid[:2] + (-1,)).transpose(0, 3, 1, 2)
        else:
            self.lower(q, boundary, image=True)
            cols, grid = unfold(q, (k, k), stride, padding, self.plane(boundary).dtype)
            acc = kept_columns(self.gemm_lowered(cols.reshape(-1, cols.shape[2]), boundary), grid)
        return conv_rescale(acc, self.out_scale_image, bias)

    def stacked_step(self, boundaries: Tuple[int, ...], sources: list) -> Optional[Callable]:
        """``step(x) -> (layers, ..., out)`` for sibling linears reading one
        input: quantize it once, lower it against every layer's own tables in
        one (layers, rows, K) pass, one stacked GEMM, one rescale.  Each element
        meets its own layer's :meth:`linear` operations (factor 1 and ``rint``
        are exact on an 8-bit column's integers; planes of both dtypes stack
        to float64, exact too).  ``sources``: the kernels (``self`` first) then
        the bias arrays.  ``None`` if plane shapes or activation scales differ."""
        entry = self._stacked.get(boundaries)
        if entry is not None and all(map(is_, entry[0], sources)):
            return entry[2]
        PreparedKernel.plane_build_count += 1
        kernels, scale, held, step = sources[:len(boundaries)], self.act_scale, 0, None
        entries = [k._boundary_plane(b) for k, b in zip(kernels, boundaries)]
        plane, inv, lo, hi = zip(*entries)
        if len({p.shape for p in plane}) == 1 and all(k.act_scale == scale for k in kernels):
            plane, inv, lo, hi = map(np.stack, (plane, inv, lo, hi))
            out_scale = np.stack([k.out_scale for k in kernels])[:, None]
            bias = np.stack(sources[len(kernels):])[:, None]
            count, features, out = plane.shape
            held, lowers = plane.nbytes + 3 * inv.nbytes, any(boundaries)

            def step(x: np.ndarray) -> np.ndarray:
                q = x / scale
                np.rint(q, out=q)
                if lowers:
                    low = q.reshape(-1, features) * inv
                    np.rint(low, out=low)
                    np.maximum(low, lo, out=low)
                else:  # every layer at 8 bits: the plain clip, as in lower()
                    low = np.maximum(q.reshape(-1, features), lo)
                np.minimum(low, hi, out=low)
                acc = (low.astype(plane.dtype, copy=False) @ plane) * out_scale
                acc += bias
                return acc.astype(np.float32).reshape((count,) + x.shape[:-1] + (out,))

        self._stacked[boundaries] = (sources, held, step)
        while len(self._stacked) > _MAX_BOUNDARY_PLANES:
            self._stacked.popitem(last=False)
        return step

    def _dynamic_tables(
        self, q_x: np.ndarray, boundary: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Factor tables from runtime shifts (Section 8.6, dynamic extraction).

        The combined plane carries the *static* ``2**act_shift`` fold, so the
        post-clip factor is ``2**(dynamic - static)`` on prefix columns --
        still an exact power of two, keeping the kernel bit-exact with the
        reference dynamic path.
        """
        prefix_cols, static_cols = self._prefix_info(boundary)
        shifts = self.dynamic_act_shift(q_x, boundary)
        shift_cols = np.repeat(shifts, self.taps)
        total = self.channels * self.taps
        one = np.float32(1.0)
        inv = np.ones(total, dtype=np.float32)
        inv[prefix_cols] = np.ldexp(one, -shift_cols)
        fac = np.ones(total, dtype=np.float32)
        fac[prefix_cols] = np.ldexp(one, shift_cols - static_cols)
        return inv[None, :], fac[None, :]

    def dynamic_act_shift(self, q_x: np.ndarray, boundary: int) -> np.ndarray:
        """Per-channel extraction shifts computed from the runtime batch.

        Returned in layout order (leading ``boundary`` channels), exactly as
        the reference kernel computes them from the permuted activations.
        """
        sub = q_x[:, self._prefix_info(boundary)[0]]
        per_channel = sub.reshape(sub.shape[0], boundary, self.taps)
        max_abs = np.abs(per_channel).max(axis=(0, 2))
        shifts = extraction_shift(
            max_abs, high_bits=self.high_bits, low_bits=self.low_bits
        )
        if self.group_size > 1:
            shifts = group_shared_max(shifts, self.group_size)
        return shifts

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Device-memory footprint of the prepared planes (bytes)."""
        total = self.w8_t.nbytes + self.w4_t.nbytes + self.order.nbytes
        for combined, inv, lo, hi in self._boundary_planes.values():
            if combined is not self.w8_t and combined is not self.w4_t:
                total += combined.nbytes
            total += inv.nbytes + lo.nbytes + hi.nbytes
        return int(total + sum(entry[1] for entry in self._stacked.values()))

    def __repr__(self) -> str:
        return (
            f"PreparedKernel(channels={self.channels}, taps={self.taps}, "
            f"out={self.out_features}, low_bits={self.low_bits}, "
            f"boundaries={sorted(self._boundary_planes)})"
        )


def prepare_model(model, use_prepared: Optional[bool] = None) -> int:
    """Eagerly (re)build prepared kernels for every FlexiQ layer of ``model``.

    Returns the number of layers prepared.  ``use_prepared`` optionally
    toggles the prepared path on every layer first (``None`` leaves it as
    is), which tests and benchmarks use to compare against the uncached
    reference implementation.
    """
    from repro.core.runtime import FlexiQConv2d, FlexiQLinear

    prepared = 0
    for _, module in model.named_modules():
        if not isinstance(module, (FlexiQLinear, FlexiQConv2d)):
            continue
        if use_prepared is not None:
            module.use_prepared = bool(use_prepared)
        if module.prepare() is not None:
            prepared += 1
    return prepared
