"""Metrics export: a labeled counter/gauge/histogram registry.

:class:`MetricsRegistry` is the aggregation point between the serving
layers' telemetry and external consumers.  Instruments follow the
Prometheus data model — a metric has a name, help text and a fixed label
schema; each distinct label-value combination is an independent child —
and two exporters serialize a registry snapshot:

* :func:`prometheus_exposition` — Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, escaped label values, cumulative
  histogram buckets with ``+Inf``/``_sum``/``_count``), scrapeable as a
  ``/metrics`` payload.
* :func:`json_snapshot` — a plain-dict snapshot for report pipelines.

:func:`registry_from_engine` / :func:`registry_from_cluster` populate a
registry from finished runs, so ``EngineResult`` / ``ClusterResult``
convert to exportable metrics without the engines importing this module.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_LATENCY_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(
    labelnames: Sequence[str], labels: Dict[str, str]
) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match schema {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Counter:
    """Monotonically increasing count (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], float] = {}

    def labels(self, **labels: str) -> "_BoundCounter":
        key = _label_key(self.labelnames, labels)
        self._children.setdefault(key, 0.0)
        return _BoundCounter(self, key)

    def inc(self, amount: float = 1.0) -> None:
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        self._inc((), amount)

    def _inc(self, key: Tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self._children[key] = self._children.get(key, 0.0) + float(amount)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        return sorted(self._children.items())


class _BoundCounter:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Counter, key: Tuple[str, ...]):
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._metric._inc(self._key, amount)


class Gauge:
    """Point-in-time value (per label set); can move both directions."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], float] = {}

    def labels(self, **labels: str) -> "_BoundGauge":
        key = _label_key(self.labelnames, labels)
        self._children.setdefault(key, 0.0)
        return _BoundGauge(self, key)

    def set(self, value: float) -> None:
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        self._children[()] = float(value)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        return sorted(self._children.items())


class _BoundGauge:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Gauge, key: Tuple[str, ...]):
        self._metric = metric
        self._key = key

    def set(self, value: float) -> None:
        self._metric._children[self._key] = float(value)


class Histogram:
    """Bucketed distribution (per label set) with sum and count."""

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
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(upper)
        # child → [per-bucket counts..., +Inf count, sum]
        self._children: Dict[Tuple[str, ...], List[float]] = {}

    def labels(self, **labels: str) -> "_BoundHistogram":
        key = _label_key(self.labelnames, labels)
        self._children.setdefault(key, [0.0] * (len(self.buckets) + 2))
        return _BoundHistogram(self, key)

    def observe(self, value: float) -> None:
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        self._observe_many((), np.asarray([value], dtype=np.float64))

    def _observe_many(self, key: Tuple[str, ...], values: np.ndarray) -> None:
        cells = self._children.setdefault(
            key, [0.0] * (len(self.buckets) + 2)
        )
        counts = np.bincount(
            np.searchsorted(self.buckets, values, side="left"),
            minlength=len(self.buckets) + 1,
        )
        for index, count in enumerate(counts.tolist()):
            cells[index] += count
        cells[-1] += float(values.sum())

    def samples(self) -> List[Tuple[Tuple[str, ...], List[float]]]:
        return sorted(self._children.items())


class _BoundHistogram:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Histogram, key: Tuple[str, ...]):
        self._metric = metric
        self._key = key

    def observe(self, value: float) -> None:
        self._metric._observe_many(
            self._key, np.asarray([value], dtype=np.float64)
        )

    def observe_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if len(values):
            self._metric._observe_many(self._key, values)


class MetricsRegistry:
    """Named collection of metrics with get-or-create semantics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is None:
            metric = Histogram(name, help, labelnames, buckets)
            self._metrics[name] = metric
            return metric
        self._check(existing, Histogram, name, labelnames)
        return existing

    def _get_or_create(self, cls, name, help, labelnames):
        existing = self._metrics.get(name)
        if existing is None:
            metric = cls(name, help, labelnames)
            self._metrics[name] = metric
            return metric
        self._check(existing, cls, name, labelnames)
        return existing

    @staticmethod
    def _check(existing, cls, name, labelnames) -> None:
        if not isinstance(existing, cls):
            raise ValueError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        if existing.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} label schema mismatch: "
                f"{existing.labelnames} vs {tuple(labelnames)}"
            )

    def metrics(self) -> List:
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
                for upper, count in zip(metric.buckets, cells):
                    cumulative += count
                    le = _label_str(
                        metric.labelnames, key,
                        f'le="{_format_value(upper)}"',
                    )
                    lines.append(
                        f"{metric.name}_bucket{le} {_format_value(cumulative)}"
                    )
                cumulative += cells[len(metric.buckets)]
                le = _label_str(metric.labelnames, key, 'le="+Inf"')
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


def json_snapshot(registry: MetricsRegistry) -> Dict:
    """Serialize a registry as a plain JSON-ready dict."""
    out: Dict[str, Dict] = {}
    for metric in registry.metrics():
        entry: Dict = {
            "type": metric.kind,
            "help": metric.help,
            "labelnames": list(metric.labelnames),
        }
        if metric.kind == "histogram":
            entry["buckets"] = list(metric.buckets)
            entry["samples"] = [
                {
                    "labels": dict(zip(metric.labelnames, key)),
                    "counts": cells[: len(metric.buckets) + 1],
                    "sum": cells[-1],
                    "count": float(sum(cells[: len(metric.buckets) + 1])),
                }
                for key, cells in metric.samples()
            ]
        else:
            entry["samples"] = [
                {"labels": dict(zip(metric.labelnames, key)), "value": value}
                for key, value in metric.samples()
            ]
        out[metric.name] = entry
    return out


# ----------------------------------------------------------------------
# Population from finished runs
# ----------------------------------------------------------------------
def registry_from_engine(
    result,
    registry: Optional[MetricsRegistry] = None,
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
) -> MetricsRegistry:
    """Populate a registry from an ``EngineResult``-shaped object."""
    registry = registry or MetricsRegistry()
    served = registry.counter(
        "repro_requests_served_total", "Requests completed."
    )
    # ``latencies`` holds the served requests only; ``request_latencies``
    # keeps a nan slot per dropped one.
    served.inc(len(result.latencies))
    dropped = registry.counter(
        "repro_requests_dropped_total", "Requests dropped before service."
    )
    dropped.inc(int(result.dropped))
    batches = registry.counter(
        "repro_batches_total", "Batches executed.", ("server",)
    )
    for record in result.batch_records:
        batches.labels(server=str(record.server)).inc()
    busy = registry.gauge(
        "repro_server_busy_seconds", "Busy time per server.", ("server",)
    )
    for server, seconds in enumerate(result.server_busy_times):
        busy.labels(server=str(server)).set(float(seconds))
    migrated = registry.counter(
        "repro_requests_migrated_total", "Requests that migrated servers."
    )
    migrated.inc(int(getattr(result, "migrated", 0)))
    latency = registry.histogram(
        "repro_request_latency_seconds",
        "End-to-end request latency.",
        buckets=buckets,
    )
    values = np.asarray(result.latencies, dtype=np.float64)
    if len(values):
        latency._observe_many((), values)
    else:
        latency._children.setdefault((), [0.0] * (len(latency.buckets) + 2))
    return registry


def registry_from_cluster(
    outcome,
    registry: Optional[MetricsRegistry] = None,
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
) -> MetricsRegistry:
    """Populate a registry from a ``ClusterResult``-shaped object."""
    registry = registry_from_engine(
        outcome.result, registry=registry, buckets=buckets
    )
    scale = registry.counter(
        "repro_scale_events_total", "Autoscaler actions.", ("action",)
    )
    for event in outcome.scale_events:
        scale.labels(action=str(event.action)).inc()
    faults = registry.counter(
        "repro_fault_events_total", "Injected fault events.", ("kind",)
    )
    for event in outcome.fault_events:
        faults.labels(kind=str(event.kind)).inc()
    alerts = registry.counter(
        "repro_slo_alerts_total",
        "SLO burn-rate alerts fired.",
        ("objective", "severity"),
    )
    for event in getattr(outcome, "alert_events", ()):
        alerts.labels(
            objective=str(event.objective), severity=str(event.severity)
        ).inc()
    active = registry.gauge(
        "repro_servers_active", "Active servers at run end."
    )
    history = [outcome.initial_active] + [
        event.active_after for event in outcome.scale_events
    ]
    active.set(float(history[-1]))
    peak = registry.gauge(
        "repro_servers_active_peak", "Peak active servers over the run."
    )
    peak.set(float(max(history)))
    return registry
