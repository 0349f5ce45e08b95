"""The serving engine's specification, as the simplest program that meets it.

Plain Python, no numpy, no incremental state: every batch re-derives the
queue from scratch and sorts it.  ``seed_serving_run`` (the K=1 FIFO seed
loop in ``tests/test_serving_engine.py``) generalised to K servers, the
three queue disciplines, same-model batching, ``max_batch`` and
``drop_after`` — what ``ServingEngine`` must reproduce bit for bit with no
placer, a fixed ratio and modeled executors.  Quadratic and proud of it:
specification first, implementation checked against it (PAPERS.md, Bowen).

The rules, in the order a batch applies them:

1. A request is *waiting* from submission until served or dropped; requests
   are numbered in arrival order (ties: the order they were handed in).
2. The batch runs on the active server whose clock frees first (ties: the
   lowest id) and starts when that server is free and somebody is there:
   ``start = max(free_at[server], earliest waiting arrival)``.
3. Everybody who arrived by ``start`` is *arrived*.  With ``drop_after``,
   arrived requests that waited longer (``start - arrival > drop_after``)
   are dropped at ``start`` and the batch is derived again from rule 2.
4. The arrived requests are ordered by the discipline — FIFO: arrival;
   priority: higher first; EDF: earlier deadline first, none last — then
   arrival, then number.  The first leads; the batch is the leader plus the
   next requests *of the leader's model* in that order, ``max_batch`` at
   most.  FIFO stops at the first request of another model (a batch is a
   run of the queue); the other disciplines skip over it.
5. ``finish = start + service_seconds(model, size)``; every rider's latency
   is ``finish - arrival``; the server is busy until ``finish``.
"""

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple


class SpecRequest(NamedTuple):
    arrival: float
    model: str = "m"
    priority: int = 0
    deadline: Optional[float] = None


@dataclass
class SpecBatch:
    server: int
    start: float
    finish: float
    model: str
    riders: List[int]      # request numbers, in batch order
    queue_depth: int       # arrived and waiting when the batch formed


@dataclass
class SpecOutcome:
    """Per request number: ``latencies`` (``None`` = dropped); per batch: ``batches``."""

    latencies: List[Optional[float]]
    batches: List[SpecBatch] = field(default_factory=list)
    drops: List[Tuple[int, float]] = field(default_factory=list)  # (number, time)


def discipline_key(scheduler: str, request: SpecRequest) -> Tuple:
    if scheduler == "fifo":
        return ()
    if scheduler == "priority":
        return (-request.priority,)
    if scheduler == "edf":
        return (float("inf") if request.deadline is None else request.deadline,)
    raise ValueError(f"unknown discipline {scheduler!r}")


def reference_run(
    requests: List[SpecRequest],
    num_servers: int,
    service_seconds: Callable[[str, int], float],
    scheduler: str = "fifo",
    max_batch: int = 64,
    drop_after: Optional[float] = None,
) -> SpecOutcome:
    """Serve ``requests`` to completion by the rules in the module docstring.

    Request *numbers* index ``sorted(requests, key=arrival)`` (stable) — the
    engine's slots — and so do ``SpecOutcome.latencies`` and the riders.
    """
    ordered = sorted(requests, key=lambda request: request.arrival)
    waiting = list(range(len(ordered)))           # rule 1
    free_at = [0.0] * num_servers
    outcome = SpecOutcome(latencies=[None] * len(ordered))
    while waiting:
        server = min(range(num_servers), key=lambda s: (free_at[s], s))  # rule 2
        earliest = min(ordered[n].arrival for n in waiting)
        start = max(free_at[server], earliest)
        arrived = [n for n in waiting if ordered[n].arrival <= start]  # rule 3
        if drop_after is not None:
            expired = [n for n in arrived if start - ordered[n].arrival > drop_after]
            if expired:
                outcome.drops.extend((n, start) for n in expired)
                waiting = [n for n in waiting if n not in expired]
                continue
        arrived.sort(  # rule 4
            key=lambda n: (discipline_key(scheduler, ordered[n]), ordered[n].arrival, n)
        )
        model = ordered[arrived[0]].model
        riders: List[int] = []
        for n in arrived:
            if len(riders) == max_batch:
                break
            if ordered[n].model == model:
                riders.append(n)
            elif scheduler == "fifo":
                break
        finish = start + service_seconds(model, len(riders))  # rule 5
        for n in riders:
            outcome.latencies[n] = finish - ordered[n].arrival
        outcome.batches.append(
            SpecBatch(server, start, finish, model, riders, len(arrived))
        )
        free_at[server] = finish
        waiting = [n for n in waiting if n not in riders]
    return outcome
