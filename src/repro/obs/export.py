"""Trace export: Chrome/Perfetto trace-event JSON from a span store.

The exporter maps the span taxonomy onto the Chrome trace-event format
(loadable in ``chrome://tracing`` and https://ui.perfetto.dev):

* **pid 0 — "servers"**: one thread lane per server.  ``execute`` and
  ``preempted`` spans become complete-duration ``"X"`` events, so the run
  renders as per-server swimlanes of batch work.
  Fault and scale events from the merged cluster timeline land as
  instant ``"i"`` markers on the affected server's lane; SLO alerts land
  on a dedicated ``control`` lane after the last server.
* **pid 1 — "requests"**: one thread lane per sampled request slot.
  ``queued`` spans are ``"X"`` events; ``served`` / ``dropped``
  terminals and ``migrate`` / ``retry`` hops are instants.

Timestamps are microseconds (the format's unit); simulated seconds are
scaled by 1e6.  ``cancelled`` spans (terminals retracted by preemption)
are never exported.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

import numpy as np

from .tracing import (
    DURATION_KINDS,
    KIND_NAMES,
    SPAN_CANCELLED,
    SPAN_EXECUTE,
    SPAN_PREEMPTED,
    SpanStore,
    Tracer,
)

_US = 1e6
_SERVER_PID = 0
_REQUEST_PID = 1
#: Span kinds drawn on server lanes; the rest belong to request lanes.
_SERVER_LANE_KINDS = frozenset((SPAN_EXECUTE, SPAN_PREEMPTED))


def to_chrome_trace(
    source,
    timeline: Sequence = (),
    server_names: Optional[Sequence[str]] = None,
) -> Dict:
    """Render spans (+ optional cluster timeline) as a Chrome trace dict.

    ``source`` is a :class:`~repro.obs.tracing.Tracer` or its
    :class:`~repro.obs.tracing.SpanStore`; ``timeline`` is the merged
    event sequence from ``ClusterResult.timeline()`` (scale, fault and
    alert events, interleaved by time); ``server_names`` labels the
    server lanes.  Returns a JSON-serializable dict with a
    ``traceEvents`` list — dump with ``json.dump`` and load in Perfetto.
    """
    store = source.store if isinstance(source, Tracer) else source
    if not isinstance(store, SpanStore):
        raise TypeError("source must be a Tracer or SpanStore")
    columns = store.columns()
    kinds = columns["kind"]
    events = []

    servers_seen = sorted(
        int(s) for s in np.unique(columns["server"]) if int(s) >= 0
    )
    events.append(_meta(_SERVER_PID, None, "process_name", "servers"))
    for server in servers_seen:
        name = (
            server_names[server]
            if server_names is not None and server < len(server_names)
            else f"server {server}"
        )
        events.append(_meta(_SERVER_PID, server, "thread_name", name))
    events.append(_meta(_REQUEST_PID, None, "process_name", "requests"))

    live = kinds != SPAN_CANCELLED
    for row in np.flatnonzero(live).tolist():
        kind = int(kinds[row])
        name = KIND_NAMES[kind]
        start = float(columns["start"][row])
        end = float(columns["end"][row])
        request = int(columns["request"][row])
        server = int(columns["server"][row])
        if kind in _SERVER_LANE_KINDS:
            pid, tid = _SERVER_PID, server
        else:
            pid, tid = _REQUEST_PID, request
        event = {
            "name": name,
            "ph": "X" if kind in DURATION_KINDS else "i",
            "pid": pid,
            "tid": tid,
            "ts": start * _US,
            "args": {"value": float(columns["value"][row])},
        }
        if kind in DURATION_KINDS:
            event["dur"] = max(0.0, end - start) * _US
        else:
            event["s"] = "t"
        if request >= 0:
            event["args"]["request"] = request
        if server >= 0:
            event["args"]["server"] = server
        events.append(event)

    control_lane = (max(servers_seen) + 1) if servers_seen else 0
    control_named = False
    for entry in timeline:
        event = entry[-1] if isinstance(entry, tuple) else entry
        marker = _timeline_marker(event, control_lane)
        if marker is None:
            continue
        if marker["tid"] == control_lane and not control_named:
            events.append(
                _meta(_SERVER_PID, control_lane, "thread_name", "control")
            )
            control_named = True
        events.append(marker)

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _meta(pid: int, tid: Optional[int], name: str, value: str) -> Dict:
    event = {"name": name, "ph": "M", "pid": pid, "args": {"name": value}}
    if tid is not None:
        event["tid"] = tid
    return event


def _timeline_marker(event, control_lane: int) -> Optional[Dict]:
    """One cluster event → one instant marker (None for unknown shapes)."""
    time = getattr(event, "time", None)
    if time is None:
        return None
    args = {}
    if hasattr(event, "objective"):          # AlertEvent
        name = f"alert:{event.objective}"
        tid = control_lane
        args = {
            "severity": event.severity,
            "burn_fast": event.burn_fast,
            "burn_slow": event.burn_slow,
        }
    elif hasattr(event, "action"):           # ScaleEvent
        name = f"scale:{event.action}"
        tid = int(event.server)
        args = {"active_after": int(event.active_after)}
        if getattr(event, "reason", ""):
            args["reason"] = event.reason
    elif hasattr(event, "kind"):             # FaultEvent
        name = f"fault:{event.kind}"
        tid = int(getattr(event, "server", control_lane))
    else:
        return None
    return {
        "name": name,
        "ph": "i",
        "s": "g",
        "pid": _SERVER_PID,
        "tid": tid,
        "ts": float(time) * _US,
        "args": args,
    }


def validate_chrome_trace(trace: Dict) -> None:
    """Schema-check a trace dict; raises ``ValueError`` on any violation.

    Checks the subset of the trace-event format the exporter relies on:
    a ``traceEvents`` list whose entries carry ``name``/``ph``/``pid``
    with numeric non-negative ``ts`` on non-metadata events, ``dur`` on
    complete events, and a scope flag on instants — enough that a file
    passing here loads in Perfetto.
    """
    if not isinstance(trace, dict):
        raise ValueError("trace must be a dict")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace.traceEvents must be a list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        for key in ("name", "ph", "pid"):
            if key not in event:
                raise ValueError(f"{where} missing '{key}'")
        phase = event["ph"]
        if phase not in ("X", "i", "M", "B", "E", "C"):
            raise ValueError(f"{where} has unsupported phase {phase!r}")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or not np.isfinite(ts) or ts < 0:
            raise ValueError(f"{where} has invalid ts {ts!r}")
        if "tid" not in event:
            raise ValueError(f"{where} missing 'tid'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or not np.isfinite(dur) or dur < 0:
                raise ValueError(f"{where} has invalid dur {dur!r}")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"{where} instant missing scope")
    # Must round-trip through JSON (no numpy scalars, arrays, or NaN).
    try:
        json.dumps(trace, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trace is not JSON-serializable: {exc}") from exc
