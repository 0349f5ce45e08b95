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

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.gpu import GpuLatencyModel
from repro.hardware.workloads import model_ops
from repro.serving.core import check_integer, check_positive, check_ratio


class ServiceTimeModel:
    """Maps (mode, 4-bit ratio, batch size) to a batch service time.

    Latency is precomputed from the hardware model at a set of anchor batch
    sizes and linearly interpolated in between, so the discrete-event loop
    stays cheap even for millions of requests.  Batch sizes beyond the
    largest anchor are computed exactly from the hardware model and cached
    on demand (``np.interp`` would silently clamp them to the last anchor's
    latency, under-reporting service time for ``max_batch`` above the
    anchor range).

    For autoregressive workloads the model also exposes a prefill-vs-decode
    cost split (:meth:`prefill_latency` / :meth:`decode_latency`) built on
    the same anchors: a prefill processes a whole prompt in parallel, so its
    cost scales with prompt tokens (``prefill_tokens_per_sample`` tokens
    cost one batch-1 forward); a decode step processes one token per live
    sequence, so its cost scales with the batch *width* and is a
    ``decode_token_fraction`` of the equally-wide one-shot forward
    (compute per token, defaulting to ``1 / prefill_tokens_per_sample``).
    One-shot classification runs never touch either method.
    """

    def __init__(
        self,
        model_name: str = "vit_base",
        gpu: str = "a6000",
        anchor_batches: Sequence[int] = (1, 8, 16, 32, 64, 128),
        latency_model: Optional[GpuLatencyModel] = None,
        prefill_tokens_per_sample: int = 64,
        decode_token_fraction: Optional[float] = None,
    ) -> None:
        self.model_name = model_name
        self.latency_model = latency_model or GpuLatencyModel(gpu)
        # Every argument is refused here, not at the first batch that reads
        # it: a NaN fraction makes every decode step NaN seconds long.
        self.anchor_batches = sorted(
            {check_integer("anchor batch", b, 1) for b in anchor_batches}
        )
        if not self.anchor_batches:
            raise ValueError("anchor_batches must name at least one batch size")
        self.prefill_tokens_per_sample = check_integer(
            "prefill_tokens_per_sample", prefill_tokens_per_sample, 1
        )
        if decode_token_fraction is None:
            decode_token_fraction = 1.0 / self.prefill_tokens_per_sample
        self.decode_token_fraction = check_positive(
            "decode_token_fraction", decode_token_fraction
        )
        # Anchor latencies per (mode, ratio).  The ratio is keyed as the
        # float itself: rounding it (the seed used ``f"{ratio:.3f}"``) made
        # distinct ratios within 5e-4 return each other's latencies.
        self._cache: Dict[Tuple[str, float], np.ndarray] = {}
        # batch_latency results.  The anchors above never change once
        # built, so a latency is a pure function of its arguments.  One
        # entry per distinct (batch_size, mode, ratio) asked for.
        self._latencies: Dict[Tuple[int, str, float], float] = {}

    def _anchor_latencies(self, mode: str, ratio: float) -> np.ndarray:
        key = (mode, ratio)
        if key not in self._cache:
            values = []
            for batch in self.anchor_batches:
                ops = model_ops(self.model_name, batch)
                values.append(
                    self.latency_model.model_latency(ops, mode, four_bit_ratio=ratio)
                )
            self._cache[key] = np.asarray(values)
        return self._cache[key]

    def batch_latency(self, batch_size: int, mode: str, ratio: float = 0.0) -> float:
        """Service time (seconds) for one batch."""
        if batch_size <= 0:
            return 0.0
        key = (batch_size, mode, ratio)
        latency = self._latencies.get(key)
        if latency is None:
            check_ratio(ratio)  # on a miss only: a nan would become every later clock
            if batch_size > self.anchor_batches[-1]:
                # Exact (non-interpolated) hardware-model latency.
                ops = model_ops(self.model_name, int(batch_size))
                latency = float(
                    self.latency_model.model_latency(ops, mode, four_bit_ratio=ratio)
                )
            else:
                anchors = self._anchor_latencies(mode, ratio)
                latency = float(np.interp(batch_size, self.anchor_batches, anchors))
            self._latencies[key] = latency
        return latency

    def prefill_latency(
        self, prompt_tokens: int, mode: str, ratio: float = 0.0
    ) -> float:
        """Seconds to prefill one ``prompt_tokens``-token prompt.

        The prompt is processed in parallel like a batch of
        ``ceil(tokens / prefill_tokens_per_sample)`` one-shot samples —
        compute scales with prompt length, with the hardware model's own
        sub-linear batching efficiency applied.  Zero-length prompts (pure
        decode continuations) cost nothing.
        """
        if prompt_tokens <= 0:
            return 0.0
        equivalent = -(-int(prompt_tokens) // self.prefill_tokens_per_sample)
        return self.batch_latency(equivalent, mode, ratio)

    def decode_latency(self, width: int, mode: str, ratio: float = 0.0) -> float:
        """Seconds for one decode step over ``width`` live sequences.

        Each sequence contributes one token, so the step is a width-sized
        forward at per-token compute: ``decode_token_fraction`` of the
        equally-wide one-shot batch latency.  An empty step costs nothing.
        """
        if width <= 0:
            return 0.0
        return self.batch_latency(int(width), mode, ratio) * self.decode_token_fraction
