"""The benchmark's own span recorder (not ``repro.obs``: that is a layer
under measurement).

Spans are recorded from outside the program only: around calls the
benchmark makes, and around public methods of objects the benchmark builds
and injects, wrapped through an instance attribute so the object keeps its
type (``type(x) is ...`` checks inside the program still pass).  Everything
stays in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, ContextManager, Dict, Iterator, List, Optional

import numpy as np

#: Most events written to one Chrome trace file (keeps it loadable).
MAX_TRACE_EVENTS = 50_000


_NO_SPAN = nullcontext()


def no_span(name: str, layer: str) -> ContextManager[None]:
    """Stand-in for :meth:`SpanRecorder.span` in untraced reps."""
    return _NO_SPAN


class SpanRecorder:
    """Nested wall-clock spans: name, layer, start, end, parent, request id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._stack: List[int] = []
        self._next_request = 0
        self._request = -1

    def __len__(self) -> int:
        return len(self.names)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, layer: str) -> None:
        stack = self._stack
        if not stack:
            # A root span opens a new request: every span below shares its id.
            self._request = self._next_request
            self._next_request += 1
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(stack[-1] if stack else -1)
        self.requests.append(self._request)
        self.ends.append(0.0)
        stack.append(index)
        # Clock read last here and first in end(): the recorder's own
        # bookkeeping lands in the parent's self time, not in this span.
        self.starts.append(time.perf_counter())

    def end(self) -> None:
        now = time.perf_counter()
        self.ends[self._stack.pop()] = now

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        self.begin(name, layer)
        try:
            yield
        finally:
            self.end()

    def wrap(
        self,
        obj: object,
        method: str,
        name: str,
        layer: str,
        on_call: Optional[Callable[..., None]] = None,
    ) -> Callable[[], None]:
        """Time ``obj.method`` through an instance attribute; returns undo.

        ``on_call`` (optional) sees the call's positional arguments before
        the span opens -- for counts taken at the same boundary.
        """
        inner = getattr(obj, method)
        had_own = method in getattr(obj, "__dict__", {})
        begin, end = self.begin, self.end

        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            begin(name, layer)
            try:
                return inner(*args, **kwargs)
            finally:
                end()

        setattr(obj, method, timed)

        def undo() -> None:
            if had_own:
                setattr(obj, method, inner)
            else:
                delattr(obj, method)

        return undo

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus what its child spans cover."""
        durations = self.durations()
        parents = np.asarray(self.parents, dtype=np.intp)
        covered = np.zeros(len(durations))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], durations[has_parent])
        return durations - covered

    def layer_seconds(self) -> Dict[str, float]:
        """Total self time per layer over everything recorded."""
        totals: Dict[str, float] = {}
        for layer, seconds in zip(self.layers, self.self_times().tolist()):
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def layer_calls(self) -> Dict[str, int]:
        calls: Dict[str, int] = {}
        for layer in self.layers:
            calls[layer] = calls.get(layer, 0) + 1
        return calls

    def per_request(self, layers: List[str]) -> np.ndarray:
        """(requests, len(layers)) matrix of self time per request and layer."""
        self_times = self.self_times()
        column = {layer: index for index, layer in enumerate(layers)}
        cols = np.fromiter((column.get(l, -1) for l in self.layers), np.intp, len(self))
        rows = np.asarray(self.requests, dtype=np.intp)
        matrix = np.zeros((self._next_request, len(layers)))
        known = cols >= 0
        np.add.at(matrix, (rows[known], cols[known]), self_times[known])
        return matrix

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome_trace(self, process: str) -> dict:
        """Chrome trace-event JSON (loadable at ui.perfetto.dev)."""
        count = min(len(self), MAX_TRACE_EVENTS)
        origin = self.starts[0] if count else 0.0
        events: List[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": process}}
        ]
        for index in range(count):
            events.append(
                {
                    "ph": "X",
                    "name": self.names[index],
                    "cat": self.layers[index],
                    "pid": 1,
                    "tid": 1,
                    "ts": (self.starts[index] - origin) * 1e6,
                    "dur": (self.ends[index] - self.starts[index]) * 1e6,
                    "args": {
                        "span": index,
                        "parent": self.parents[index],
                        "request": self.requests[index],
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path, process: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace(process)))
