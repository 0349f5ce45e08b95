"""repro.obs — observability for the serving stack: traces, metrics, SLOs.

A cross-cutting, opt-in subsystem wired through the engine, cluster and
resilience layers.  Engines run bit-identically with it disabled
(``tracer=None`` everywhere); enabled, it answers *why* a p99 breached or an
attainment SLO dipped, not just *that* it did.

Span taxonomy
-------------
The :class:`~repro.obs.tracing.Tracer` records typed spans into a
columnar :class:`~repro.obs.tracing.SpanStore` (structure-of-arrays,
matching the engine's ``RequestStore`` design).  Kinds:

===========  =========  ===========================================================
kind         shape      meaning
===========  =========  ===========================================================
``queued``    duration  request waiting: arrival → batch start (or drop time)
``execute``   duration  a batch occupying a server: start → finish
``preempted`` duration  a killed execution, truncated at the kill instant
``served``    instant   terminal: request completed (value = latency)
``dropped``   instant   terminal: request expired in queue (value = wait)
``migrate``   instant   hop: first requeue off a preempted/failed server
``retry``     instant   hop: repeat requeue (the request migrated before)
``cancelled`` internal  a retracted terminal (undone by preemption); never exported
===========  =========  ===========================================================

Every traced request ends in **exactly one** live terminal span, even
across preemption, migration and checkpointed re-execution — the chaos
suite asserts this conservation invariant.  Head-based sampling
(``sample_rate``) decides per request by a deterministic slot hash;
drops and deadline misses are always traced.

Exporter formats
----------------
* **Chrome/Perfetto trace-event JSON**
  (:func:`~repro.obs.export.to_chrome_trace`): ``{"traceEvents": [...]}``
  with microsecond timestamps.  Process 0 ("servers") renders per-server
  swimlanes of execute/preempted spans plus fault, scale and alert
  markers from the cluster timeline; process 1 ("requests") holds
  per-request queued spans and terminal/hop instants.  Load the file at
  https://ui.perfetto.dev or ``chrome://tracing``.
* **Prometheus text exposition**
  (:func:`~repro.obs.registry.prometheus_exposition`) of a
  :class:`~repro.obs.registry.MetricsRegistry`.  Which run metrics exist
  and where each value is read from is one table,
  ``repro.obs.registry.ENGINE_METRICS`` / ``CLUSTER_METRICS``
  (``registry_from_engine`` / ``registry_from_cluster`` walk it); the same
  totals as a plain dict are ``EngineResult.to_json()``, and per control
  window :class:`repro.serving.telemetry.WindowStats`.

SLO monitoring (:class:`~repro.obs.slo.SloMonitor`) evaluates
multi-window burn-rate rules over attainment and latency objectives at
cluster window boundaries; fired :class:`~repro.obs.slo.AlertEvent`\\ s
land on the merged timeline next to scale/fault events.
"""

from .export import to_chrome_trace, validate_chrome_trace
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_exposition,
    registry_from_cluster,
    registry_from_engine,
)
from .slo import (
    DEFAULT_RULES,
    AlertEvent,
    BurnRateRule,
    SloMonitor,
    SloObjective,
)
from .tracing import (
    KIND_NAMES,
    SPAN_CANCELLED,
    SPAN_DROPPED,
    SPAN_EXECUTE,
    SPAN_MIGRATE,
    SPAN_PREEMPTED,
    SPAN_QUEUED,
    SPAN_RETRY,
    SPAN_SERVED,
    SpanStore,
    Tracer,
)

__all__ = [
    "AlertEvent",
    "BurnRateRule",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_RULES",
    "Gauge",
    "Histogram",
    "KIND_NAMES",
    "MetricsRegistry",
    "SPAN_CANCELLED",
    "SPAN_DROPPED",
    "SPAN_EXECUTE",
    "SPAN_MIGRATE",
    "SPAN_PREEMPTED",
    "SPAN_QUEUED",
    "SPAN_RETRY",
    "SPAN_SERVED",
    "SloMonitor",
    "SloObjective",
    "SpanStore",
    "Tracer",
    "prometheus_exposition",
    "registry_from_cluster",
    "registry_from_engine",
    "to_chrome_trace",
    "validate_chrome_trace",
]
