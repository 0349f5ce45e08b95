"""Modeled batch service times (Figure 8): the analytic cost of one batch.

:class:`ServiceTimeModel` maps (mode, 4-bit ratio, batch size) to seconds on
the analytic GPU or NPU latency models.  Wrapped in a
:class:`~repro.serving.executors.ModeledExecutor` it is what a
:class:`~repro.serving.engine.ServingEngine` serves the Figure 8/9
reproductions with: an open-loop request stream hits an accelerator, which
takes up to ``max_batch`` queued requests whenever it is idle and serves
them as one batch of this duration.  The response time of a request is
queueing delay plus the service time of the batch it rode in.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.gpu import GpuLatencyModel
from repro.hardware.workloads import _SHAPES, model_ops
from repro.checks import check_positive
from repro.serving.core import check_integer, check_ratio


class ServiceTimeModel:
    """Maps (mode, 4-bit ratio, batch size) to a batch service time.

    Every price is in one table per (mode, ratio), batch size -> seconds,
    filled on demand (:meth:`table`): a size is computed the first time
    anybody asks for it, by linear interpolation between the hardware
    model's latencies at the anchor batch sizes (computed once per (mode,
    ratio)), or past the last anchor as the exact hardware-model latency
    (``np.interp`` would clamp it, under-reporting ``max_batch`` above the
    anchors).  Every reader -- executors, the engine's sweep, the cluster's
    placement estimators, generation -- holds that table or reads it
    through the price methods; none keeps a memo of its own.  A table is an
    exact ``dict`` on purpose: CPython specializes only those subscripts, so
    a subclass (a ``__missing__`` hook) slows every read in the sweep.

    For autoregressive workloads the model also exposes a prefill-vs-decode
    cost split (:meth:`prefill_latency` / :meth:`decode_latency`) read from
    the same table: a prefill processes a whole prompt in parallel, so its
    cost scales with prompt tokens (``TOKENS_PER_SAMPLE`` tokens cost one
    batch-1 forward); a decode step processes one token per live sequence,
    so its cost scales with the batch *width* and is a
    ``decode_token_fraction`` of the equally-wide one-shot forward
    (compute per token, defaulting to ``1 / TOKENS_PER_SAMPLE``).
    One-shot classification runs never touch either method.
    """

    TOKENS_PER_SAMPLE = 64

    def __init__(
        self,
        model_name: str = "vit_base",
        gpu: str = "a6000",
        anchor_batches: Sequence[int] = (1, 8, 16, 32, 64, 128),
        latency_model: Optional[GpuLatencyModel] = None,
        decode_token_fraction: Optional[float] = None,
    ) -> None:
        # Every argument is refused here, not at the first batch that reads
        # it: a NaN fraction makes every decode step NaN seconds long.
        if model_name not in _SHAPES:
            raise ValueError(
                f"unknown model {model_name!r}; known models: "
                f"{', '.join(sorted(_SHAPES))}"
            )
        self.model_name = model_name
        self.latency_model = latency_model or GpuLatencyModel(gpu)
        self.anchor_batches = sorted(
            {check_integer("anchor batch", b, 1) for b in anchor_batches}
        )
        if not self.anchor_batches:
            raise ValueError("anchor_batches must name at least one batch size")
        if decode_token_fraction is None:
            decode_token_fraction = 1.0 / self.TOKENS_PER_SAMPLE
        self.decode_token_fraction = check_positive(
            "decode_token_fraction", decode_token_fraction
        )
        # Anchor latencies and price tables by (mode, ratio), the ratio as the
        # float itself: rounding it (the seed used ``f"{ratio:.3f}"``) made
        # distinct ratios within 5e-4 return each other's latencies.
        self._anchors: Dict[Tuple[str, float], np.ndarray] = {}
        self._tables: Dict[Tuple[str, float], Dict[int, float]] = {}

    def _latency(self, batch: int, mode: str, ratio: float) -> float:
        """The hardware model's latency for one ``batch``-sized forward."""
        ops = model_ops(self.model_name, batch)
        return self.latency_model.model_latency(ops, mode, four_bit_ratio=ratio)

    def table(
        self, mode: str, ratio: float, sizes: Iterable[int] = ()
    ) -> Dict[int, float]:
        """The (mode, ratio) price table, holding at least ``sizes``: the
        same dict on every call, which only ever gains entries.  The ratio is
        checked when first seen and a size when first computed, so reading a
        price already in the table costs nothing."""
        key = (mode, ratio)
        table = self._tables.get(key)
        if table is None:
            check_ratio(ratio)  # a nan would become every later clock
            table = self._tables[key] = {}
        last = self.anchor_batches[-1]
        for size in sizes:
            if size not in table:
                size = check_integer("batch size", size, 1)
                if size > last:
                    table[size] = float(self._latency(size, mode, ratio))
                else:
                    anchors = self._anchors.get(key)
                    if anchors is None:
                        anchors = self._anchors[key] = np.asarray(
                            [self._latency(b, mode, ratio) for b in self.anchor_batches]
                        )
                    table[size] = float(np.interp(size, self.anchor_batches, anchors))
        return table

    def batch_latency(self, batch_size: int, mode: str, ratio: float = 0.0) -> float:
        """Service time (seconds) for one batch; nothing for an empty one."""
        try:
            return self._tables[mode, ratio][batch_size]
        except KeyError:
            if batch_size <= 0:
                return 0.0
            return self.table(mode, ratio, (batch_size,))[batch_size]

    def prefill_latency(
        self, prompt_tokens: int, mode: str, ratio: float = 0.0
    ) -> float:
        """Seconds to prefill one ``prompt_tokens``-token prompt.

        The prompt is processed in parallel like a batch of
        ``ceil(tokens / TOKENS_PER_SAMPLE)`` one-shot samples —
        compute scales with prompt length, with the hardware model's own
        sub-linear batching efficiency applied.  Zero-length prompts (pure
        decode continuations) cost nothing.  Only an ``int`` prompt reads the
        table unchecked: a fraction rounds up to a size the table may hold.
        """
        equivalent = -(-prompt_tokens // self.TOKENS_PER_SAMPLE)
        try:
            if type(prompt_tokens) is int:
                return self._tables[mode, ratio][equivalent]
        except KeyError:
            pass
        if prompt_tokens <= 0:
            return 0.0
        check_integer("prompt_tokens", prompt_tokens, 1)
        return self.table(mode, ratio, (equivalent,))[equivalent]

    def decode_latency(self, width: int, mode: str, ratio: float = 0.0) -> float:
        """Seconds for one decode step over ``width`` live sequences.

        Each sequence contributes one token, so the step is a width-sized
        forward at per-token compute: ``decode_token_fraction`` of the
        equally-wide one-shot batch latency.  An empty step costs nothing.
        """
        try:
            return self._tables[mode, ratio][width] * self.decode_token_fraction
        except KeyError:
            if width <= 0:
                return 0.0
            check_integer("width", width, 1)
            return self.table(mode, ratio, (width,))[width] * self.decode_token_fraction
