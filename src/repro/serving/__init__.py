"""Inference serving: one engine for modeled *and* real batched execution.

The public surface, by module (each module's own docstring has the detail,
CHANGES.md the history):

* :mod:`~repro.serving.engine` -- :class:`ServingEngine` (admission,
  batching over ``num_servers`` clocks, per-batch ratio selection;
  ``run()`` or ``start``/``submit``/``step``/``finish``; a trace, a
  request list, a lazy view and streamed submissions all become the
  session's one :class:`RequestStore`), :class:`Request`/:class:`Response`,
  :func:`requests_from_trace`.
* :mod:`~repro.serving.core` -- columnar :class:`RequestStore` and its
  :class:`LazyRequests` view, typed :class:`EventCalendar`.
* :mod:`~repro.serving.schedulers` -- queue order: FIFO, priority, EDF.
* :mod:`~repro.serving.executors` -- what a batch costs:
  :class:`ModeledExecutor` (analytic) or :class:`RuntimeExecutor` (real
  prepared-kernel forwards).
* :mod:`~repro.serving.policies` -- the 4-bit ratio per batch or per
  generation step.
* :mod:`~repro.serving.placement`, :mod:`~repro.serving.telemetry`,
  :mod:`~repro.serving.cluster` -- server choice, windowed telemetry,
  :class:`ClusterEngine` over heterogeneous :class:`ServerSpec` servers,
  topology and autoscalers.
* :mod:`~repro.serving.resilience` -- fault schedules, preemption and
  migration policies, warm spares, step checkpoints.
* :mod:`~repro.serving.generation` -- :class:`IterationScheduler`
  (continuous batching), admission policies, generation backends,
  :func:`run_to_completion`.
* :mod:`~repro.serving.simulator` -- :class:`ServiceTimeModel`, the
  analytic batch cost behind :class:`ModeledExecutor` (Figures 8/9 run on
  the engine itself; :mod:`~repro.serving.adaptation` scores an adaptive
  run's effective accuracy).
* :mod:`~repro.serving.metrics` -- latency and token-stream summaries.
"""

from repro.serving.core import (
    Event,
    EventCalendar,
    LazyRequests,
    RequestStore,
)
from repro.serving.engine import (
    Batch,
    BatchExecution,
    BatchRecord,
    BatchingConfig,
    EngineResult,
    Executor,
    RatioPolicy,
    Request,
    Response,
    ServingEngine,
    requests_from_trace,
)
from repro.serving.cluster import (
    Autoscaler,
    ClusterEngine,
    ClusterResult,
    ClusterTopology,
    PredictiveFaultAutoscaler,
    QueueDepthAutoscaler,
    ServerSpec,
    SloLatencyAutoscaler,
    gpu_server,
    npu_server,
)
from repro.serving.executors import ModeledExecutor, RuntimeExecutor
from repro.serving.generation import (
    AdmissionPolicy,
    FcfsAdmission,
    GenerationBackend,
    GenerationPreemption,
    GenerationResponse,
    GenerationResult,
    IterationRecord,
    IterationScheduler,
    ModeledGenerationBackend,
    PrefillPriorityAdmission,
    RuntimeGenerationBackend,
    SequenceState,
    TokenBudgetAdmission,
    run_to_completion,
)
from repro.serving.placement import (
    FreeClockPlacer,
    LeastOutstandingWorkPlacer,
    ModelAffinityPlacer,
    Placer,
    PlacementContext,
    PredictivePlacer,
    SpreadPlacer,
    WeightedSpeedPlacer,
)
from repro.serving.resilience import (
    CheckpointPolicy,
    DegradableExecutor,
    DropExpiredMigration,
    FaultEvent,
    FaultSchedule,
    Migrant,
    MigrationPolicy,
    Preemption,
    RedistributeMigration,
    RequeueAtHeadMigration,
    StepCheckpoint,
    WarmSparePool,
)
from repro.serving.policies import (
    AdaptiveRatioPolicy,
    DecodePressureRatioPolicy,
    FixedRatioPolicy,
    GenerationStepContext,
    PerServerAdaptiveRatioPolicy,
    PolicyContext,
    QueueDepthRatioPolicy,
    RatioSchedulePolicy,
    RoundRobinRatioPolicy,
    policy_selector,
)
from repro.serving.telemetry import (
    ClusterWindowStats,
    ScaleEvent,
    ServerWindowStats,
    TelemetryBus,
)
from repro.serving.schedulers import (
    EdfScheduler,
    FifoScheduler,
    PriorityScheduler,
    Scheduler,
    admission_key,
)
from repro.serving.simulator import ServiceTimeModel
from repro.serving.metrics import (
    attainment_within,
    latency_percentiles,
    slo_attainment,
    streaming_summary,
    summarize_latencies,
    summarize_migrations,
)

__all__ = [
    "AdaptiveRatioPolicy",
    "AdmissionPolicy",
    "Autoscaler",
    "Batch",
    "BatchExecution",
    "BatchRecord",
    "BatchingConfig",
    "CheckpointPolicy",
    "ClusterEngine",
    "ClusterResult",
    "ClusterTopology",
    "ClusterWindowStats",
    "DecodePressureRatioPolicy",
    "DegradableExecutor",
    "DropExpiredMigration",
    "EdfScheduler",
    "EngineResult",
    "Event",
    "EventCalendar",
    "Executor",
    "FaultEvent",
    "FaultSchedule",
    "FcfsAdmission",
    "FifoScheduler",
    "FixedRatioPolicy",
    "FreeClockPlacer",
    "GenerationBackend",
    "GenerationPreemption",
    "GenerationResponse",
    "GenerationResult",
    "GenerationStepContext",
    "IterationRecord",
    "IterationScheduler",
    "LazyRequests",
    "LeastOutstandingWorkPlacer",
    "Migrant",
    "MigrationPolicy",
    "ModelAffinityPlacer",
    "ModeledExecutor",
    "ModeledGenerationBackend",
    "PerServerAdaptiveRatioPolicy",
    "Placer",
    "PlacementContext",
    "PolicyContext",
    "Preemption",
    "PredictiveFaultAutoscaler",
    "PredictivePlacer",
    "PrefillPriorityAdmission",
    "PriorityScheduler",
    "QueueDepthAutoscaler",
    "QueueDepthRatioPolicy",
    "RatioPolicy",
    "RatioSchedulePolicy",
    "RedistributeMigration",
    "Request",
    "RequestStore",
    "RequeueAtHeadMigration",
    "Response",
    "RoundRobinRatioPolicy",
    "RuntimeExecutor",
    "RuntimeGenerationBackend",
    "ScaleEvent",
    "Scheduler",
    "SequenceState",
    "ServerSpec",
    "ServerWindowStats",
    "ServiceTimeModel",
    "ServingEngine",
    "SloLatencyAutoscaler",
    "SpreadPlacer",
    "StepCheckpoint",
    "TelemetryBus",
    "TokenBudgetAdmission",
    "WarmSparePool",
    "WeightedSpeedPlacer",
    "admission_key",
    "attainment_within",
    "gpu_server",
    "latency_percentiles",
    "npu_server",
    "policy_selector",
    "requests_from_trace",
    "run_to_completion",
    "slo_attainment",
    "streaming_summary",
    "summarize_latencies",
    "summarize_migrations",
]
