"""gen_continuous: the iteration-level (continuous-batching) scheduler.

``repro.serving.generation`` is a loop of its own: it bypasses
``ServingEngine`` and ``ClusterEngine`` entirely, so engine-only work
predicts no change here.  Offline batch job: simulated tokens per host
second.  Its per-iteration cost grows with the length of the trace (the
waiting set is scanned every iteration), so ``overhead_ratio`` is the host
time per iteration of one run over the whole trace over that of the same
requests run a quarter of the trace at a time -- 1.0 for a loop whose cost
is per iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.traces import PoissonTrace
from repro.serving import (
    DecodePressureRatioPolicy,
    IterationScheduler,
    ModeledGenerationBackend,
    PrefillPriorityAdmission,
    Request,
    ServiceTimeModel,
    requests_from_trace,
    run_to_completion,
)

from bench.harness import (
    OUT_DIR,
    BoxSpeed,
    Outcome,
    Rounds,
    bench_values,
    median,
    quietest,
    reference_seconds,
    timed_rounds,
)
from bench.spans import SpanRecorder, no_span

# The traffic mix and backend of examples/continuous_batching.py, copied
# (not imported) so the example can change without moving the benchmark.
MODEL = "m"
RATE = 120
MAX_BATCH = 8
PROMPT_TOKENS = (32, 512, 96, 256)
NEW_TOKENS = (96, 8, 160, 16)
DECODE_FRACTION = 0.05
PRESSURE_THRESHOLD = 900
WAITING_WEIGHT = 64.0
#: A request is "good" when its first token arrives within this many
#: simulated seconds of its arrival (p99 TTFT is 0.14-0.87 s over seeds, so
#: the share stays above 0.99 whatever the seed and drops when queueing
#: gets worse).
GOOD_TTFT = 0.75
#: The like-for-like baseline runs the trace in this many consecutive pieces.
PIECES = 4

GEN_PROXIES = (
    ("serving.generation.backend", "backend", ("prefill_seconds", "decode_seconds")),
    ("serving.generation.admission", "admission", ("admit",)),
    ("serving.generation.policy", "policy", ("select",)),
)


@dataclass
class GenState:
    sizes: Dict[str, float]
    requests: List[Request]
    pieces: List[List[Request]]   # the same requests, by quarter of the trace
    split: Dict[str, float] = field(default_factory=dict)


def _requests(duration: float, seed: int) -> List[Request]:
    trace = PoissonTrace(RATE, duration=duration, seed=seed).generate()
    return requests_from_trace(
        trace, model=MODEL,
        prefill_tokens=list(PROMPT_TOKENS), max_new_tokens=list(NEW_TOKENS),
    )


def _parts() -> Dict[str, object]:
    return dict(
        backend=ModeledGenerationBackend(
            ServiceTimeModel("vit_base", gpu="a6000", decode_token_fraction=DECODE_FRACTION)
        ),
        admission=PrefillPriorityAdmission(),
        policy=DecodePressureRatioPolicy(
            pressure_threshold=PRESSURE_THRESHOLD, waiting_weight=WAITING_WEIGHT
        ),
    )


class GenContinuous:
    name = "gen_continuous"
    SIZES = {
        "full": dict(duration=12.0, min_rounds=4),
        "tiny": dict(duration=1.0, min_rounds=2),
    }

    def setup(self, seed: int, scale: str) -> GenState:
        sizes = self.SIZES[scale]
        start = time.perf_counter()
        requests = _requests(sizes["duration"], seed)
        piece = sizes["duration"] / PIECES
        pieces: List[List[Request]] = [[] for _ in range(PIECES)]
        for request in requests:
            pieces[min(int(request.arrival_time / piece), PIECES - 1)].append(request)
        state = GenState(
            sizes=sizes, requests=requests, pieces=pieces,
            split={"serving.engine.materialize_s": time.perf_counter() - start},
        )
        self._rep(state.requests, _parts())  # discarded warm-up rep
        return state

    def _rep(self, requests: Sequence[Request], parts: Dict[str, object],
             recorder: Optional[SpanRecorder] = None):
        """Scheduler construction + ``run`` + streaming summary."""
        span = recorder.span if recorder is not None else no_span
        with span("rep", "bench.rep"):
            start = time.perf_counter()
            scheduler = IterationScheduler(
                parts["backend"], max_batch=MAX_BATCH,
                admission=parts["admission"], policy=parts["policy"],
            )
            built = time.perf_counter()
            with span("run", "serving.generation.self"):
                result = scheduler.run(requests)
            ran = time.perf_counter()
            with span("streaming", "serving.generation.summary"):
                stream = result.streaming((99,))
            done = time.perf_counter()
        return (start, built, ran, done), result, stream

    @staticmethod
    def _exact(result, stream, requests: Sequence[Request]) -> Dict[str, float]:
        """The exact (simulated-time) outcome of one run."""
        ttfts = np.asarray([response.ttft for response in result.responses])
        ratios = [record.ratio for record in result.iterations]
        return {
            "requests": len(requests),
            "finished": sum(1 for response in result.responses if response.finished),
            "tokens": int(result.tokens),
            "tokens_asked": sum(request.max_new_tokens for request in requests),
            "iterations": len(result.iterations),
            "ttft_p99": float(stream["ttft_p99"]),
            "tokens_per_sim_s": float(stream["tokens_per_sec"]),
            "good": int(np.count_nonzero(ttfts <= GOOD_TTFT)),
            "ratio_switches": sum(1 for a, b in zip(ratios, ratios[1:]) if a != b),
        }

    def _check_rep(self, outcome: Outcome, exact: Dict, first: Dict) -> None:
        """One rep is one operation: every token produced, identical to rep 0."""
        outcome.attempted += 1
        if (
            exact["finished"] != exact["requests"]
            or exact["tokens"] != exact["tokens_asked"]
        ):
            outcome.fail(1, "gen_continuous: a request did not finish all its tokens")
        elif exact != first:
            outcome.fail(1, "gen_continuous: exact outcome differs from rep 0")

    def _piecewise_us_per_iteration(self, state: GenState,
                                    box: Optional[BoxSpeed] = None) -> float:
        """Host us per iteration of the same requests run one piece of the
        trace at a time (at reference speed when a ``box`` is sampling)."""
        seconds, iterations = 0.0, 0
        for piece in state.pieces:
            (_, built, ran, _), result, _ = self._rep(piece, _parts())
            seconds += box.at_reference_speed(built, ran)[0] if box is not None else ran - built
            iterations += len(result.iterations)
        return seconds / iterations * 1e6

    def measure(self, state: GenState, seconds: float) -> Outcome:
        outcome = Outcome()
        rounds = Rounds()
        first = None
        with BoxSpeed() as box:
            for _ in timed_rounds(seconds, state.sizes["min_rounds"]):
                (start, built, ran, done), result, stream = self._rep(state.requests, _parts())
                wall, measured = box.at_reference_speed(start, done)
                run, _ = box.at_reference_speed(built, ran)
                exact = self._exact(result, stream, state.requests)
                first = exact if first is None else first
                self._check_rep(outcome, exact, first)
                rounds.walls.append(wall)
                rounds.walls_measured.append(measured)
                rounds.ops_ms.append(run * 1e3)
                rounds.costs.append(run / exact["iterations"] * 1e6)
                rounds.baselines.append(self._piecewise_us_per_iteration(state, box))
        return rounds.finish(
            outcome, box, first["tokens"],
            good_share=first["good"] / first["requests"], op_label="run() ms",
        )

    def trace(self, state: GenState, seconds: float) -> Outcome:
        outcome = Outcome()
        recorder = SpanRecorder()
        untraced, traced, runs, scaling, static, references = [], [], [], [], [], []
        first = None
        for _ in timed_rounds(seconds, state.sizes["min_rounds"]):
            references.append(reference_seconds())
            (start, built, ran, done), result, stream = self._rep(state.requests, _parts())
            untraced.append(done - start)
            runs.append(ran - built)
            exact = self._exact(result, stream, state.requests)
            first = exact if first is None else first
            self._check_rep(outcome, exact, first)
            scaling.append(
                (ran - built) / exact["iterations"] * 1e6
                / self._piecewise_us_per_iteration(state)
            )

            parts = _parts()
            for layer, key, methods in GEN_PROXIES:
                for method in methods:
                    recorder.wrap(parts[key], method, f"{key}.{method}", layer)
            (start, _, _, done), result, stream = self._rep(state.requests, parts, recorder)
            traced.append(done - start)
            self._check_rep(outcome, self._exact(result, stream, state.requests), first)

            start = time.perf_counter()
            run_to_completion(state.requests, _parts()["backend"], max_batch=MAX_BATCH)
            static.append(time.perf_counter() - start)
        recorder.write(OUT_DIR / f"trace-{self.name}.json", self.name)

        reps = len(traced)
        iterations = first["iterations"]
        layer_s = recorder.layer_seconds()
        calls = recorder.layer_calls()

        def per_iteration(layer: str) -> float:
            return layer_s[layer] / reps / iterations * 1e6

        run_s = quietest(runs)
        outcome.values = {
            **state.split,
            "sim.requests": first["requests"],
            "sim.ttft_p99_ms": first["ttft_p99"] * 1e3,
            "sim.tokens_per_sim_s": first["tokens_per_sim_s"],
            "serving.generation.run_p50_s": median(runs),
            "serving.generation.us_per_iteration": run_s / iterations * 1e6,
            "serving.generation.iterations": iterations,
            "serving.generation.ratio_switches": first["ratio_switches"],
            "serving.generation.backend_step_us": (
                layer_s["serving.generation.backend"]
                / calls["serving.generation.backend"] * 1e6
            ),
            "serving.generation.admission_us_per_iteration": per_iteration(
                "serving.generation.admission"
            ),
            "serving.generation.policy_us_per_iteration": per_iteration(
                "serving.generation.policy"
            ),
            "serving.generation.self_us_per_iteration": per_iteration(
                "serving.generation.self"
            ),
            "serving.generation.static_run_s": quietest(static),
            "serving.generation.scaling_ratio": median(scaling),
            **bench_values(references, traced, untraced, len(recorder)),
        }
        return outcome
