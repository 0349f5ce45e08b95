"""Cost claims, checked by counting calls instead of reading a clock.

A claim here says how a loop's work grows with its input.  The test counts
the Python and C function calls the loop makes (the ``call`` and ``c_call``
events of ``sys.setprofile``) on inputs of growing size, so it holds on any
machine under any load.
"""

from __future__ import annotations

import sys

from repro.data.traces import PoissonTrace
from repro.serving import (
    DecodePressureRatioPolicy,
    IterationScheduler,
    ModeledGenerationBackend,
    PrefillPriorityAdmission,
    Request,
    ServiceTimeModel,
    requests_from_trace,
)

# bench/gen.py's traffic mix and backend, copied (not imported) so the
# benchmark can change without moving the claim.
RATE = 120
SEED = 8
MAX_BATCH = 8
PROMPT_TOKENS = (32, 512, 96, 256)
NEW_TOKENS = (96, 8, 160, 16)
DECODE_FRACTION = 0.05
PRESSURE_THRESHOLD = 900
WAITING_WEIGHT = 64.0


def _calls_per_iteration(duration: float) -> float:
    """Calls one ``IterationScheduler.run`` over a ``duration``-second trace
    makes per iteration, after a five-request warm-up run (the cost model
    memoizes each latency on first use)."""
    trace = PoissonTrace(RATE, duration=duration, seed=SEED).generate()
    requests = requests_from_trace(
        trace, model="m",
        prefill_tokens=list(PROMPT_TOKENS), max_new_tokens=list(NEW_TOKENS),
    )
    scheduler = IterationScheduler(
        ModeledGenerationBackend(
            ServiceTimeModel("vit_base", gpu="a6000", decode_token_fraction=DECODE_FRACTION)
        ),
        max_batch=MAX_BATCH,
        admission=PrefillPriorityAdmission(),
        policy=DecodePressureRatioPolicy(
            pressure_threshold=PRESSURE_THRESHOLD, waiting_weight=WAITING_WEIGHT
        ),
    )
    scheduler.run(requests[:5])
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        result = scheduler.run(requests)
    finally:
        sys.setprofile(None)
    return calls / len(result.iterations)


def test_generation_pays_per_iteration_not_per_trace_length():
    """``IterationScheduler`` does O(running batch + queue depth) work per
    iteration, whatever the length of the trace: doubling the trace twice
    does not raise the calls per iteration."""
    counts = [_calls_per_iteration(seconds) for seconds in (1.0, 2.0, 4.0)]
    assert counts == sorted(counts, reverse=True), counts


def _calls_per_decode_iteration(width: int, steps: int = 30) -> int:
    """Calls ``steps`` decode-only iterations make over a batch ``width``
    sequences wide: every sequence joins in the first iteration and none
    retires before the last counted one (the cost model is warmed by one
    run of the same requests first)."""
    requests = [
        Request(0.0, "m", request_id=i, prefill_tokens=32, max_new_tokens=steps + 5)
        for i in range(width)
    ]
    scheduler = IterationScheduler(
        ModeledGenerationBackend(
            ServiceTimeModel("vit_base", gpu="a6000", decode_token_fraction=DECODE_FRACTION)
        ),
        max_batch=width,
        policy=DecodePressureRatioPolicy(pressure_threshold=PRESSURE_THRESHOLD),
    )
    scheduler.run(requests)
    scheduler.start(requests)
    assert scheduler.step().prefills == width
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        records = [scheduler.step() for _ in range(steps)]
    finally:
        sys.setprofile(None)
    assert all(r.prefills == 0 and r.decode_width == width for r in records)
    scheduler.finish()
    return calls


def test_decode_iteration_cost_does_not_grow_with_batch_width():
    """A decode iteration touches no sequence: the running sequences'
    tokens are derived from the iteration they joined and the iteration
    end times, so 30 decode-only iterations make the same calls whatever
    the batch width."""
    counts = [_calls_per_decode_iteration(width) for width in (1, 2, 4, 8, 16)]
    assert len(set(counts)) == 1, counts
