"""Inference serving: one engine for modeled *and* real batched execution.

The public surface, by module (each module's own docstring has the detail,
CHANGES.md the history).  The package root re-exports what callers build a
run from; result records, protocols and helpers import from their module.

* :mod:`~repro.serving.engine` -- :class:`ServingEngine` (admission,
  batching over ``num_servers`` clocks, per-batch ratio selection;
  ``run()`` or ``start``/``submit``/``step``/``finish``; a trace, a
  request list, a lazy view and streamed submissions all become the
  session's one :class:`RequestStore`), :class:`Request`/``Response``,
  :func:`requests_from_trace`.
* :mod:`~repro.serving.core` -- columnar :class:`RequestStore` and its
  ``LazyRequests`` view, the batch ledger and the resumable FIFO sweep.
* :mod:`~repro.serving.schedulers` -- queue order: FIFO, EDF.
* :mod:`~repro.serving.executors` -- what a batch costs:
  :class:`ModeledExecutor` (analytic) or :class:`RuntimeExecutor` (real
  prepared-kernel forwards of one-shot image batches).
* :mod:`~repro.serving.policies` -- the 4-bit ratio per batch or per
  generation step.
* :mod:`~repro.serving.placement`, :mod:`~repro.serving.telemetry`,
  :mod:`~repro.serving.cluster` -- server choice, windowed telemetry,
  :class:`ClusterEngine` over heterogeneous :class:`ServerSpec` servers,
  topology and the SLO autoscaler.
* :mod:`~repro.serving.resilience` -- fault schedules, preemption and
  migration policies, warm spares, step checkpoints.
* :mod:`~repro.serving.generation` -- :class:`IterationScheduler`
  (continuous batching on one FIFO server, bypassing the engine),
  admission policies, the modeled generation backend,
  :func:`run_to_completion`.
* :mod:`~repro.serving.simulator` -- :class:`ServiceTimeModel`, the
  analytic batch cost behind :class:`ModeledExecutor` (Figures 8/9 run on
  the engine itself; :mod:`~repro.serving.adaptation` scores an adaptive
  run's effective accuracy).
* :mod:`~repro.serving.metrics` -- latency and token-stream summaries.
"""

from repro.serving.core import RequestStore
from repro.serving.engine import (
    BatchExecution,
    BatchingConfig,
    Request,
    ServingEngine,
    requests_from_trace,
)
from repro.serving.cluster import (
    ClusterEngine,
    ClusterTopology,
    ServerSpec,
    SloLatencyAutoscaler,
    gpu_server,
    npu_server,
)
from repro.serving.executors import ModeledExecutor, RuntimeExecutor
from repro.serving.generation import (
    FcfsAdmission,
    IterationScheduler,
    ModeledGenerationBackend,
    PrefillPriorityAdmission,
    run_to_completion,
)
from repro.serving.placement import (
    LeastOutstandingWorkPlacer,
    PlacementContext,
    PredictivePlacer,
    SpreadPlacer,
    WeightedSpeedPlacer,
)
from repro.serving.resilience import (
    DropExpiredMigration,
    FaultEvent,
    FaultSchedule,
    Migrant,
    RedistributeMigration,
    RequeueAtHeadMigration,
    StepCheckpoint,
    WarmSparePool,
)
from repro.serving.policies import (
    DecodePressureRatioPolicy,
    FixedRatioPolicy,
    PerServerAdaptiveRatioPolicy,
    PolicyContext,
    QueueDepthRatioPolicy,
    RoundRobinRatioPolicy,
)
from repro.serving.telemetry import ClusterWindowStats, ScaleEvent, TelemetryBus
from repro.serving.schedulers import EdfScheduler, FifoScheduler
from repro.serving.simulator import ServiceTimeModel
from repro.serving.metrics import streaming_summary, summarize_migrations

__all__ = [
    "BatchExecution",
    "BatchingConfig",
    "ClusterEngine",
    "ClusterTopology",
    "ClusterWindowStats",
    "DecodePressureRatioPolicy",
    "DropExpiredMigration",
    "EdfScheduler",
    "FaultEvent",
    "FaultSchedule",
    "FcfsAdmission",
    "FifoScheduler",
    "FixedRatioPolicy",
    "IterationScheduler",
    "LeastOutstandingWorkPlacer",
    "Migrant",
    "ModeledExecutor",
    "ModeledGenerationBackend",
    "PerServerAdaptiveRatioPolicy",
    "PlacementContext",
    "PolicyContext",
    "PredictivePlacer",
    "PrefillPriorityAdmission",
    "QueueDepthRatioPolicy",
    "RedistributeMigration",
    "Request",
    "RequestStore",
    "RequeueAtHeadMigration",
    "RoundRobinRatioPolicy",
    "RuntimeExecutor",
    "ScaleEvent",
    "ServerSpec",
    "ServiceTimeModel",
    "ServingEngine",
    "SloLatencyAutoscaler",
    "SpreadPlacer",
    "StepCheckpoint",
    "TelemetryBus",
    "WarmSparePool",
    "WeightedSpeedPlacer",
    "gpu_server",
    "npu_server",
    "requests_from_trace",
    "run_to_completion",
    "streaming_summary",
    "summarize_migrations",
]
