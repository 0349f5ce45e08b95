"""Executors: pluggable batch-execution backends for the serving engine.

Two implementations of the :class:`~repro.serving.engine.Executor` protocol:

* :class:`ModeledExecutor` — analytic service times from a
  :class:`~repro.serving.simulator.ServiceTimeModel`; reproduces the seed
  simulator (and thus the Figure 8/9 experiments) bit-identically.
* :class:`RuntimeExecutor` — real forwards through a prepared
  :class:`~repro.core.runtime.FlexiQModel`, with measured wall-clock batch
  latencies.  Thanks to the prepared-kernel cache (PR 1), the per-batch
  ``set_ratio()`` the engine's policy drives is an O(1) variable update:
  serving heterogeneous-ratio traffic performs no weight requantization,
  re-permutation or plane lowering (asserted by the serving tests via
  :attr:`repro.core.prepared.PreparedKernel.build_count`).  It runs
  one-shot image batches only: generation prices its iterations with
  :class:`~repro.serving.generation.ModeledGenerationBackend`.

With multi-server engines (``ServingEngine(num_servers=K)``) an endpoint
registers either one shared executor or a list of K executors, one per
server.  :class:`ModeledExecutor` is stateless and safe to share;
:class:`RuntimeExecutor` holds a runtime whose ratio state mutates per
batch, so a scaled-out deployment registers one per server — K independent
prepared-kernel caches, exactly like K real accelerators each holding their
own copy of the weights.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.serving.engine import Batch, BatchExecution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import FlexiQModel
    from repro.serving.simulator import ServiceTimeModel


class ModeledExecutor:
    """Batch service times from the analytic hardware latency models."""

    def __init__(self, service_model: "ServiceTimeModel") -> None:
        self.service_model = service_model

    def execute(self, batch: Batch, mode: str, ratio: float) -> BatchExecution:
        return BatchExecution(
            service_time=self.service_model.batch_latency(batch.size, mode, ratio)
        )


class RuntimeExecutor:
    """Real batched forwards through a prepared FlexiQ runtime.

    Request payloads (one sample each, e.g. one ``(C, H, W)`` image) are
    stacked into one input batch.  The reported service time is the
    measured wall-clock duration of the batch forward; the engine advances
    its simulated clock by it, which makes queueing behave as if the
    accelerator really took that long.

    ``mode`` is honoured the way the fixed deployments of Figure 8 define
    it: ``"int8"`` forces ratio 0.0 and ``"int4"`` forces ratio 1.0, while
    ``"flexiq"`` runs at the policy-selected ratio.
    """

    def __init__(self, runtime: "FlexiQModel") -> None:
        self.runtime = runtime
        self.batches_executed = 0
        self.requests_executed = 0
        self.ratio_switches = 0

    def _batch_input(self, batch: Batch) -> np.ndarray:
        samples = []
        for position, request in enumerate(batch.requests):
            payload = request.payload
            if payload is None:
                raise ValueError(f"request at batch position {position} has no payload")
            shape = np.shape(payload)
            if not samples:
                first_shape = shape
            elif shape != first_shape:
                raise ValueError(
                    f"payload at batch position {position} has shape {shape}, "
                    f"but position 0 has shape {first_shape}; "
                    "a batch is stacked into one array"
                )
            samples.append(payload)
        return np.asarray(samples, dtype=np.float32)

    def execute(self, batch: Batch, mode: str, ratio: float) -> BatchExecution:
        if mode == "int8":
            ratio = 0.0
        elif mode == "int4":
            ratio = 1.0
        x = self._batch_input(batch)
        switches_before = self.runtime.ratio_switches
        output, seconds = self.runtime.forward_batch(x, ratio=ratio)
        self.ratio_switches += self.runtime.ratio_switches - switches_before
        self.batches_executed += 1
        self.requests_executed += batch.size
        outputs = [output.data[i] for i in range(batch.size)]
        # Report the executed ratio: mode pinning above may have overridden
        # the policy's selection, and batch records must reflect reality.
        return BatchExecution(service_time=seconds, outputs=outputs, ratio=ratio)
