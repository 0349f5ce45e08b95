"""The serving engine's specification, as the simplest program that meets it.

Plain Python, no numpy, no incremental state: every batch re-derives the
queue from scratch and sorts it.  ``seed_serving_run`` (the K=1 FIFO seed
loop in ``tests/test_serving_engine.py``) generalised to K servers, the
three queue disciplines, same-model batching, ``max_batch`` and
``drop_after``, and one server crash whose riders are requeued — what
``ServingEngine`` must reproduce bit for bit with no placer, a fixed ratio
and modeled executors.  Quadratic and proud of it: specification first,
implementation checked against it (PAPERS.md, Bowen).

The rules, in the order a batch applies them:

1. A request is *waiting* from submission until served or dropped; requests
   are numbered in arrival order (ties: the order they were handed in).  It
   is *ready* from its arrival and queues in number order.
2. The batch runs on the active server whose clock frees first (ties: the
   lowest id) and starts when that server is free and somebody is there:
   ``start = max(free_at[server], earliest waiting ready time)``.
3. Everybody ready by ``start`` is *arrived*.  With ``drop_after``,
   arrived requests that waited longer (``start - ready > drop_after``)
   are dropped at ``start`` and the batch is derived again from rule 2.
4. The arrived requests are ordered by the discipline — FIFO: nothing;
   priority: higher first; EDF: earlier deadline first, none last — then
   ready time, then queue order under FIFO and the request number under
   priority and EDF.  The first leads; the batch is the leader
   plus the next requests *of the leader's model* in that order,
   ``max_batch`` at most.  FIFO stops at the first request of another model
   (a batch is a run of the queue); the other disciplines skip over it.
5. ``finish = start + service_seconds(model, size)``; every rider's latency
   is ``finish - arrival``; the server is busy until ``finish``.
6. A crash (:class:`SpecCrash`) strikes once ``after_batches`` batches
   have formed, or when nobody is waiting any more.  The server's batches
   with ``finish > time`` are struck from the record — running or not yet
   started at ``time`` alike — and their riders wait again: ready (and
   waiting, for ``drop_after``) from ``max(time + delay, time)``, their
   latency still charged from the original arrival.  Everybody else keeps
   the ready time they had.
7. Requeued riders queue behind everybody already waiting with the same
   ready time, in the order they were struck: batches in formation order,
   riders in batch order.  Only FIFO reads that queue order; priority and
   EDF break the tie on the request number (rule 4).
8. The crashed server stays in service; its clock restarts at ``time`` or at
   its last surviving finish, whichever is later.  A crash that strikes no
   batch changes nothing, the clock included.
"""

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple


class SpecRequest(NamedTuple):
    arrival: float
    model: str = "m"
    priority: int = 0
    deadline: Optional[float] = None


class SpecCrash(NamedTuple):
    after_batches: int
    server: int
    time: float
    delay: float = 0.0


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
    """Per request number: ``latencies`` (``None`` = dropped) and ``migrations``
    (times requeued by a crash); per batch: ``batches``."""

    latencies: List[Optional[float]]
    migrations: List[int]
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
    crash: Optional[SpecCrash] = None,
) -> SpecOutcome:
    """Serve ``requests`` to completion by the rules in the module docstring.

    Request *numbers* index ``sorted(requests, key=arrival)`` (stable) — the
    engine's slots — and so do ``SpecOutcome.latencies`` and the riders.
    """
    ordered = sorted(requests, key=lambda request: request.arrival)
    waiting = list(range(len(ordered)))           # rule 1
    ready = [request.arrival for request in ordered]
    queue_order = list(range(len(ordered)))
    free_at = [0.0] * num_servers
    outcome = SpecOutcome([None] * len(ordered), [0] * len(ordered))
    formed = 0
    while True:
        if crash is not None and (formed == crash.after_batches or not waiting):
            struck = [  # rule 6
                batch for batch in outcome.batches
                if batch.server == crash.server and batch.finish > crash.time
            ]
            if struck:
                outcome.batches = [b for b in outcome.batches if b not in struck]
                for n in [n for batch in struck for n in batch.riders]:
                    outcome.latencies[n] = None
                    outcome.migrations[n] += 1
                    ready[n] = max(crash.time + crash.delay, crash.time)
                    queue_order[n] = max(queue_order) + 1  # rule 7
                    waiting.append(n)
                free_at[crash.server] = max(  # rule 8
                    [crash.time]
                    + [b.finish for b in outcome.batches if b.server == crash.server]
                )
            crash = None
        if not waiting:
            return outcome
        server = min(range(num_servers), key=lambda s: (free_at[s], s))  # rule 2
        start = max(free_at[server], min(ready[n] for n in waiting))
        arrived = [n for n in waiting if ready[n] <= start]  # rule 3
        if drop_after is not None:
            expired = [n for n in arrived if start - ready[n] > drop_after]
            if expired:
                outcome.drops.extend((n, start) for n in expired)
                waiting = [n for n in waiting if n not in expired]
                continue
        arrived.sort(  # rule 4
            key=lambda n: (
                discipline_key(scheduler, ordered[n]), ready[n],
                queue_order[n] if scheduler == "fifo" else n,
            )
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
        formed += 1
        waiting = [n for n in waiting if n not in riders]
