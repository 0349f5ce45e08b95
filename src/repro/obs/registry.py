"""Metrics export: a labeled counter/gauge/histogram registry.

:class:`MetricsRegistry` is the aggregation point between the serving
layers' telemetry and external consumers.  Instruments follow the
Prometheus data model — a metric has a name, help text and a fixed label
schema; each distinct label-value combination is an independent child —
and :func:`prometheus_exposition` serializes a registry snapshot in the
Prometheus text exposition format (``# HELP`` / ``# TYPE`` headers, escaped
label values, cumulative histogram buckets with ``+Inf``/``_sum``/
``_count``), scrapeable as a ``/metrics`` payload.

:func:`registry_from_engine` / :func:`registry_from_cluster` populate a
registry from finished runs, so ``EngineResult`` / ``ClusterResult``
convert to exportable metrics without the engines importing this module.
"""

from __future__ import annotations

import copy
import math
from collections import Counter as _Tally
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_LATENCY_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _Metric:
    """A named metric with a fixed label schema and one value per label set.

    ``labels(...)`` returns the same metric bound to one label set — a view
    sharing the children — so every verb (``inc``/``set``/``observe``) is
    written once and works on a labelled child and, for a metric without
    labels, on the metric itself.
    """

    kind = ""

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: Dict[Tuple[str, ...], object] = {}
        self._key: Optional[Tuple[str, ...]] = None

    def _zero(self):
        return 0.0

    def labels(self, **labels: str):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"labels {sorted(labels)} do not match schema "
                f"{sorted(self.labelnames)}"
            )
        child = copy.copy(self)
        child._key = tuple(str(labels[name]) for name in self.labelnames)
        self._values.setdefault(child._key, self._zero())
        return child

    def _bound(self) -> Tuple[str, ...]:
        if self._key is not None:
            return self._key
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        return ()

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        return sorted(self._values.items())


class Counter(_Metric):
    """Monotonically increasing count (per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        key = self._bound()
        self._values[key] = self._values.get(key, 0.0) + float(amount)


class Gauge(_Metric):
    """Point-in-time value (per label set); can move both directions."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._values[self._bound()] = float(value)


class Histogram(_Metric):
    """Bucketed distribution (per label set) with sum and count.

    A child's value is ``[per-bucket counts..., +Inf count, sum]``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        upper = sorted(float(b) for b in buckets)
        if not upper or any(not math.isfinite(b) for b in upper):
            raise ValueError("buckets must be finite and non-empty")
        super().__init__(name, help, labelnames)
        self.buckets = tuple(upper)

    def _zero(self):
        return [0.0] * (len(self.buckets) + 2)

    def observe(self, value: float) -> None:
        self.observe_many([value])

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe a whole sample at once (an empty one creates the child)."""
        values = np.asarray(values, dtype=np.float64)
        cells = self._values.setdefault(self._bound(), self._zero())
        if not len(values):
            return
        counts = np.bincount(
            np.searchsorted(self.buckets, values, side="left"),
            minlength=len(self.buckets) + 1,
        )
        for index, count in enumerate(counts.tolist()):
            cells[index] += count
        cells[-1] += float(values.sum())


class MetricsRegistry:
    """Named collection of metrics with get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def counter(self, name: str, help: str, labelnames: Sequence[str]) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames: Sequence[str]) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str, labelnames: Sequence[str]) -> Histogram:
        """A histogram over ``DEFAULT_LATENCY_BUCKETS``."""
        return self._get_or_create(Histogram, name, help, labelnames)

    def _get_or_create(self, cls, name, help, labelnames):
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = cls(name, help, labelnames)
        elif not isinstance(existing, cls):
            raise ValueError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        elif existing.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} label schema mismatch: "
                f"{existing.labelnames} vs {tuple(labelnames)}"
            )
        return existing

    def metrics(self) -> List[_Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_str(labelnames, labelvalues, extra: str = "") -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def prometheus_exposition(registry: MetricsRegistry) -> str:
    """Serialize a registry in Prometheus text exposition format."""
    lines: List[str] = []
    for metric in registry.metrics():
        lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.kind == "histogram":
            for key, cells in metric.samples():
                cumulative = 0.0
                # The overflow cell is the bucket whose bound is +Inf.
                for upper, count in zip((*metric.buckets, math.inf), cells):
                    cumulative += count
                    le = _label_str(
                        metric.labelnames, key,
                        f'le="{_format_value(upper)}"',
                    )
                    lines.append(
                        f"{metric.name}_bucket{le} {_format_value(cumulative)}"
                    )
                labels = _label_str(metric.labelnames, key)
                lines.append(
                    f"{metric.name}_sum{labels} {_format_value(cells[-1])}"
                )
                lines.append(
                    f"{metric.name}_count{labels} {_format_value(cumulative)}"
                )
        else:
            for key, value in metric.samples():
                labels = _label_str(metric.labelnames, key)
                lines.append(f"{metric.name}{labels} {_format_value(value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Population from finished runs
# ----------------------------------------------------------------------
def _total(key: str):
    """A run total, read from the mapping ``EngineResult.to_json`` reports."""
    return lambda result: result.totals()[key]


def _per_server(values) -> Dict[Tuple[str, ...], float]:
    return {(str(server),): value for server, value in enumerate(values)}


def _server_batches(result) -> Dict[Tuple[str, ...], float]:
    counts = np.bincount(result.batch_servers).tolist()
    return {key: count for key, count in _per_server(counts).items() if count}


def _tally(events: str, *labels: str):
    """Events of one kind on the outcome, counted by the named attributes."""
    return lambda outcome: _Tally(
        tuple(str(getattr(event, label)) for label in labels)
        for event in getattr(outcome, events)
    )


#: The one table of exported run metrics: (name, kind, help, label names,
#: where the value comes from).  A labelled source returns ``{label values:
#: value}``, a histogram source the sample to observe.  Counters add to a
#: registry that already holds the metric, gauges overwrite.
ENGINE_METRICS = (
    ("repro_requests_served_total", "counter", "Requests completed.", (),
     _total("served")),
    ("repro_requests_dropped_total", "counter",
     "Requests dropped before service.", (), _total("dropped")),
    ("repro_requests_migrated_total", "counter",
     "Requests that migrated servers.", (), _total("migrated")),
    ("repro_batches_total", "counter", "Batches executed.", ("server",),
     _server_batches),
    ("repro_server_busy_seconds", "gauge", "Busy time per server.", ("server",),
     lambda result: _per_server(result.totals()["server_busy_times"])),
    # ``latencies`` holds the served requests only; ``request_latencies``
    # keeps a nan slot per dropped one.
    ("repro_request_latency_seconds", "histogram", "End-to-end request latency.",
     (), lambda result: result.latencies),
)
CLUSTER_METRICS = (
    ("repro_scale_events_total", "counter", "Autoscaler actions.", ("action",),
     _tally("scale_events", "action")),
    ("repro_fault_events_total", "counter", "Injected fault events.", ("kind",),
     _tally("fault_events", "kind")),
    ("repro_slo_alerts_total", "counter", "SLO burn-rate alerts fired.",
     ("objective", "severity"), _tally("alert_events", "objective", "severity")),
    ("repro_servers_active", "gauge", "Active servers at run end.", (),
     lambda outcome: outcome.active_timeline()[-1]["active"]),
    ("repro_servers_active_peak", "gauge", "Peak active servers over the run.",
     (), lambda outcome: outcome.peak_active),
)


_VERBS = {"counter": "inc", "gauge": "set", "histogram": "observe_many"}


def _populate(registry: MetricsRegistry, table, subject) -> None:
    for name, kind, help, labelnames, source in table:
        metric = getattr(registry, kind)(name, help, labelnames)
        value = source(subject)
        for key, amount in (value if labelnames else {(): value}).items():
            child = metric.labels(**dict(zip(labelnames, key)))
            getattr(child, _VERBS[kind])(amount)


def registry_from_engine(result) -> MetricsRegistry:
    """A registry populated from an ``EngineResult`` (``ENGINE_METRICS``)."""
    registry = MetricsRegistry()
    _populate(registry, ENGINE_METRICS, result)
    return registry


def registry_from_cluster(outcome) -> MetricsRegistry:
    """A registry populated from a ``ClusterResult`` (both tables)."""
    registry = registry_from_engine(outcome.result)
    _populate(registry, CLUSTER_METRICS, outcome)
    return registry
