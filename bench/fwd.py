"""fwd_resnet18 / fwd_vit_small: real prepared-kernel forwards, served.

Closed loop, one client: the next ``submit`` happens after the previous
``step()`` returned.  Every round (~0.2 s) runs four short phases in a fixed
order so that an episode of contention hits all of them alike:

* ``b1_mixed``  single requests at ratio 0.5 (``FixedRatioPolicy``)
* ``b1_int8``   single requests at ratio 0.0
* ``b1_int4``   single requests at ratio 1.0
* ``b8_switch`` batches of 8, ratio rewritten every batch
  (``RoundRobinRatioPolicy`` over every available ratio)

``b1_int4``/``b1_int8`` is an interleaved in-process A/B: the CPU analogue
of the paper's "minimal runtime overhead" claim.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import FlexiQConfig, FlexiQPipeline
from repro.core.prepared import PreparedKernel
from repro.core.runtime import FlexiQConv2d, FlexiQLinear, FlexiQModel
from repro.core.selection import SelectionConfig
from repro.data import CalibrationSampler
from repro.nn.attention import MultiHeadAttention, WindowAttention
from repro.nn.layers import GELU, BatchNorm2d, LayerNorm, ReLU, ReLU6
from repro.nn.registry import get_spec
from repro.serving import (
    BatchingConfig,
    FixedRatioPolicy,
    Request,
    RoundRobinRatioPolicy,
    RuntimeExecutor,
    ServingEngine,
)
from repro.serving.engine import Batch
from repro.train.pretrain import default_epochs, get_dataset_for, get_pretrained

from bench.harness import (
    OUT_DIR,
    ROOT,
    BoxSpeed,
    Outcome,
    bench_values,
    block_medians,
    distribution,
    median,
    quietest,
    reference_seconds,
    timed_rounds,
)
from bench.spans import SpanRecorder

MODEL = "m"
MIXED_RATIO = 0.5


@dataclass(frozen=True)
class Phase:
    name: str
    batch: int
    ratio: Optional[float]  # None: round-robin over every available ratio
    block: int              # consecutive operations whose median is one value


PHASES = (
    Phase("b1_mixed", 1, MIXED_RATIO, 8),
    Phase("b1_int8", 1, 0.0, 8),
    Phase("b1_int4", 1, 1.0, 8),
    Phase("b8_switch", 8, None, 4),
)

#: Operations per phase and round, sized so a round takes ~0.2 s on the
#: sizing box (ResNet-18 2.2 ms / 6.7 ms, ViT-small 1.7 ms / 2.8 ms per
#: single request / batch of 8) and holds whole blocks; ``checked``
#: responses per phase and round are compared with the reference logits,
#: ``direct`` is the length of the traced run's direct-call phases.
SIZES = {
    "resnet18": {
        "full": dict(b1_mixed=40, b1_int8=16, b1_int4=16, b8_switch=12,
                     checked=16, warm=8, direct=16, min_rounds=20),
        "tiny": dict(b1_mixed=8, b1_int8=8, b1_int4=8, b8_switch=4,
                     checked=8, warm=2, direct=8, min_rounds=2),
    },
    "vit_small": {
        "full": dict(b1_mixed=48, b1_int8=24, b1_int4=24, b8_switch=24,
                     checked=16, warm=8, direct=16, min_rounds=20),
        "tiny": dict(b1_mixed=8, b1_int8=8, b1_int4=8, b8_switch=4,
                     checked=8, warm=2, direct=8, min_rounds=2),
    },
}

#: Span layers inside one forward, in report order.
FORWARD_LAYERS = [
    "core.runtime.quant",
    "core.prepared.matmul",
    "nn.norm",
    "nn.attention",
    "nn.activation",
    "nn.other",
    "tensor.glue",
]


@dataclass
class ForwardState:
    name: str
    sizes: Dict[str, int]
    runtime: FlexiQModel
    images: np.ndarray           # test images in the seed's order
    ratios: List[float]
    engines: Dict[str, ServingEngine]
    executors: Dict[str, RuntimeExecutor]
    ref_b1: Dict[Tuple[int, float], np.ndarray]
    ref_b8: Dict[Tuple[int, float], np.ndarray]
    top1: float
    split: Dict[str, float] = field(default_factory=dict)


def _pretrain_cache_file(name: str) -> Path:
    cache = os.environ.get("REPRO_PRETRAIN_CACHE", ROOT / ".cache" / "pretrained")
    return Path(cache) / f"{name}_e{default_epochs(get_spec(name))}.npz"


def _requests(images: np.ndarray, first: int, size: int) -> List[Request]:
    total = len(images)
    return [
        Request(arrival_time=0.0, model=MODEL, payload=images[(first + j) % total])
        for j in range(size)
    ]


def _batch(requests: List[Request]) -> Batch:
    return Batch(
        model=MODEL,
        start_time=0.0,
        size=len(requests),
        indices=np.arange(len(requests)),
        requests=requests,
    )


def _engine(runtime: FlexiQModel, batch: int, policy) -> Tuple[ServingEngine, RuntimeExecutor]:
    executor = RuntimeExecutor(runtime)
    engine = ServingEngine(BatchingConfig(max_batch=batch))
    engine.register(MODEL, executor, policy=policy)
    return engine, executor


def _durations(marks: np.ndarray) -> np.ndarray:
    """Seconds between the (start, end) pairs ``_run_phase`` returns."""
    return marks[:, 1] - marks[:, 0]


def _classify(module) -> str:
    if isinstance(module, (FlexiQConv2d, FlexiQLinear)):
        return "core.runtime.quant"
    if isinstance(module, (BatchNorm2d, LayerNorm)):
        return "nn.norm"
    if isinstance(module, (MultiHeadAttention, WindowAttention)):
        return "nn.attention"
    if isinstance(module, (ReLU, ReLU6, GELU)):
        return "nn.activation"
    if next(module.named_children(), None) is None:
        return "nn.other"
    return "tensor.glue"  # containers: residual adds, reshapes, Tensor wrapping


class ForwardWorkload:
    """One model of the zoo behind ``ServingEngine`` + ``RuntimeExecutor``."""

    def __init__(self, model_name: str) -> None:
        self.model_name = model_name
        self.name = f"fwd_{model_name}"

    # ------------------------------------------------------------------
    # Set-up (everything before the first timed sample)
    # ------------------------------------------------------------------
    def setup(self, seed: int, scale: str) -> ForwardState:
        sizes = SIZES[self.model_name][scale]
        split: Dict[str, float] = {}

        cached = _pretrain_cache_file(self.model_name).exists()
        start = time.perf_counter()
        model = get_pretrained(self.model_name)
        elapsed = time.perf_counter() - start
        split["train.pretrain.load_s"] = elapsed if cached else 0.0
        split["train.pretrain.train_s"] = 0.0 if cached else elapsed

        dataset = get_dataset_for(self.model_name)
        spec = get_spec(self.model_name)
        calibration = CalibrationSampler(
            dataset.train_images, size=spec.calibration_size, batch_size=32, seed=0
        )
        start = time.perf_counter()
        runtime = FlexiQPipeline(
            model,
            calibration.all(),
            FlexiQConfig(
                ratios=(0.25, 0.5, 1.0),
                group_size=4,
                selection="greedy",
                selection_config=SelectionConfig(group_size=4),
            ),
        ).run()
        split["core.pipeline.run_s"] = time.perf_counter() - start
        start = time.perf_counter()
        runtime.prepare(use_prepared=True)
        split["core.runtime.prepare_s"] = time.perf_counter() - start

        order = np.random.default_rng(seed).permutation(len(dataset.test_images))
        images = dataset.test_images[order]
        labels = dataset.test_labels[order]
        ratios = list(runtime.available_ratios)

        # Reference logits from the uncached kernels, through the same
        # executor code that will stack the served payloads.
        checked = sizes["checked"]
        reference = RuntimeExecutor(runtime)
        runtime.prepare(use_prepared=False)
        ref_b1 = {
            (i, ratio): reference.execute(
                _batch(_requests(images, i, 1)), "flexiq", ratio
            ).outputs[0].copy()
            for ratio in (MIXED_RATIO, 0.0, 1.0)
            for i in range(checked)
        }
        ref_b8 = {
            (k, ratio): np.stack(
                reference.execute(
                    _batch(_requests(images, 8 * k, 8)), "flexiq", ratio
                ).outputs
            )
            for ratio in ratios
            for k in range(max(1, checked // 8))
        }
        runtime.prepare(use_prepared=True)

        engines: Dict[str, ServingEngine] = {}
        executors: Dict[str, RuntimeExecutor] = {}
        for phase in PHASES:
            policy = (
                RoundRobinRatioPolicy(ratios)
                if phase.ratio is None
                else FixedRatioPolicy(phase.ratio)
            )
            engines[phase.name], executors[phase.name] = _engine(runtime, phase.batch, policy)

        state = ForwardState(
            name=self.name, sizes=sizes, runtime=runtime, images=images,
            ratios=ratios, engines=engines, executors=executors,
            ref_b1=ref_b1, ref_b8=ref_b8, top1=0.0, split=split,
        )

        # Prepared kernels must be bit-exact with the uncached ones at every
        # available ratio (8 images); this is also the per-ratio warm-up.
        for ratio in ratios:
            fast, _ = runtime.forward_batch(
                np.stack([r.payload for r in _requests(images, 0, 8)]), ratio=ratio
            )
            if not np.array_equal(fast.data, ref_b8[(0, ratio)]):
                raise AssertionError(
                    f"{self.name}: prepared path is not bit-exact at ratio {ratio}"
                )
            runtime.forward_batch(images[:1], ratio=ratio)

        correct = 0
        for first in range(0, len(images), 64):
            logits, _ = runtime.forward_batch(
                images[first:first + 64], ratio=MIXED_RATIO
            )
            correct += int(
                np.count_nonzero(logits.data.argmax(axis=1) == labels[first:first + 64])
            )
        state.top1 = correct / len(images)

        warm = Outcome()
        for phase in PHASES:  # one short discarded round
            self._run_phase(state, phase, warm, count=sizes["warm"])
        return state

    # ------------------------------------------------------------------
    # One phase of one round
    # ------------------------------------------------------------------
    def _run_phase(
        self,
        state: ForwardState,
        phase: Phase,
        outcome: Outcome,
        count: Optional[int] = None,
        recorder: Optional[SpanRecorder] = None,
    ) -> np.ndarray:
        """Serve ``count`` operations; returns the clock before each one's
        ``submit`` and after its ``step`` returned, an array of (start, end)."""
        count = state.sizes[phase.name] if count is None else count
        size = phase.batch
        engine = state.engines[phase.name]
        operations = [
            _requests(state.images, i * size, size) for i in range(count)
        ]
        marks = np.empty((count, 2))
        executed: List[Optional[float]] = []
        engine.start(record_responses=True)
        try:
            for i, requests in enumerate(operations):
                if recorder is not None:
                    recorder.begin(phase.name, "serving.engine")
                start = time.perf_counter()
                engine.submit(requests)
                record = engine.step()
                marks[i] = start, time.perf_counter()
                if recorder is not None:
                    recorder.end()
                ok = record is not None and record.size == size
                executed.append(record.ratio if ok else None)
            result = engine.finish()
        except BaseException:
            engine.abort()
            raise

        outcome.attempted += count * size
        bad_steps = sum(1 for ratio in executed if ratio is None)
        outcome.fail(bad_steps * size, f"{phase.name}: step() record of wrong size")
        mismatched = 0
        for slot in range(min(state.sizes["checked"], count * size)):
            i, j = divmod(slot, size)
            ratio = executed[i]
            if ratio is None:
                continue
            if size == 1:
                expected = state.ref_b1.get((slot, ratio))
            else:
                block = state.ref_b8.get((i, ratio))
                expected = None if block is None else block[j]
            response = result.responses[slot]
            if (
                expected is None
                or response is None
                or response.output is None
                or not np.array_equal(response.output, expected)
            ):
                mismatched += 1
        outcome.fail(mismatched, f"{phase.name}: logits differ from the reference")
        return marks

    @staticmethod
    def _builds_since(before: Tuple[int, int] = (0, 0)) -> Tuple[int, int]:
        """(kernel builds, plane builds) of the whole process, minus ``before``."""
        return (
            PreparedKernel.build_count - before[0],
            PreparedKernel.plane_build_count - before[1],
        )

    def _check_builds(self, before: Tuple[int, int], outcome: Outcome) -> Tuple[int, int]:
        """Serving must not rebuild a prepared kernel: the counters stand still."""
        built, planes = self._builds_since(before)
        if built or planes:
            outcome.fail(built + planes, "prepared kernels were rebuilt while serving")
            outcome.violated(
                f"PreparedKernel.build_count moved by {built}, "
                f"plane_build_count by {planes} during timing"
            )
        return built, planes

    # ------------------------------------------------------------------
    # End-to-end run
    # ------------------------------------------------------------------
    def measure(self, state: ForwardState, seconds: float) -> Outcome:
        outcome = Outcome()
        marks: Dict[str, List[np.ndarray]] = {phase.name: [] for phase in PHASES}
        builds = self._builds_since()
        with BoxSpeed() as box:
            for _ in timed_rounds(seconds, state.sizes["min_rounds"]):
                for phase in PHASES:
                    marks[phase.name].append(self._run_phase(state, phase, outcome))
        self._check_builds(builds, outcome)

        # Every request's latency at reference speed (ms), and as measured
        # net of the speed samples that fell inside it (one row per round).
        at_speed, measured = {}, {}
        for name, rounds in marks.items():
            starts, ends = np.vstack(rounds).T
            fast, net = box.intervals_at_reference_speed(starts, ends)
            at_speed[name] = fast * 1e3
            measured[name] = net.reshape(len(rounds), -1) * 1e3
        overhead = np.median(measured["b1_int4"], axis=1) / np.median(
            measured["b1_int8"], axis=1
        )
        outcome.values = {
            "op_p50_ms": median(at_speed["b1_mixed"]),
            "work_per_s": 8000.0 / median(at_speed["b8_switch"]),
            "overhead_ratio": median(overhead),
            "good_share": state.top1,
        }
        outcome.detail = {
            "b1_mixed request ms": distribution(at_speed["b1_mixed"]),
            "b1_mixed request ms, as measured": distribution(measured["b1_mixed"]),
            "b8_switch batch ms": distribution(at_speed["b8_switch"]),
            "b8_switch batch ms, as measured": distribution(measured["b8_switch"]),
            "b1_int4 / b1_int8 / round": distribution(overhead),
            "reference kernel ms": distribution([s * 1e3 for _, s in box.samples]),
        }
        return outcome

    # ------------------------------------------------------------------
    # Traced run
    # ------------------------------------------------------------------
    @staticmethod
    def _paired(state: ForwardState, size: int, count: int) -> np.ndarray:
        """Host seconds of ``forward_batch``, ``RuntimeExecutor.execute`` and
        engine ``submit`` + ``step`` on the same ``count`` batches of
        ``size`` at ratio 0.5, a (count, 3) array.

        The three run back to back on each batch, so the box is in one mood
        for all of them and the differences (executor over forward, engine
        over executor) are differences of pairs, not of separate series.
        """
        engine, executor = _engine(state.runtime, size, FixedRatioPolicy(MIXED_RATIO))
        seconds = np.empty((count, 3))
        engine.start(record_responses=True)
        try:
            for i in range(count):
                requests = _requests(state.images, i * size, size)
                # Stacked as the executor stacks them: a copy, so that no
                # layer reads the images from colder memory than the others.
                x = np.stack([request.payload for request in requests])
                batch = _batch(requests)
                start = time.perf_counter()
                state.runtime.forward_batch(x, ratio=MIXED_RATIO)
                forwarded = time.perf_counter()
                executor.execute(batch, "flexiq", MIXED_RATIO)
                executed = time.perf_counter()
                engine.submit(requests)
                engine.step()
                seconds[i] = (
                    forwarded - start, executed - forwarded, time.perf_counter() - executed
                )
            engine.finish()
        except BaseException:
            engine.abort()
            raise
        return seconds

    def _instrument(self, state: ForwardState, recorder: SpanRecorder, counts: Dict[str, float]):
        """Wrap every module forward, every prepared kernel and the serving hooks."""
        undos = []
        kernels = {}
        for path, module in state.runtime.model.named_modules():
            undos.append(
                recorder.wrap(module, "forward", path or "model", _classify(module))
            )
            if isinstance(module, (FlexiQConv2d, FlexiQLinear)):
                kernel = module.prepare()
                if kernel is not None:
                    kernels[id(kernel)] = (path, kernel)
        for path, kernel in kernels.values():
            def count_gemm(q_x, *_, _out=kernel.out_features):
                # Computed from operand shapes, not measured.
                counts["flop"] += 2.0 * q_x.shape[0] * q_x.shape[1] * _out

            # Linears enter through matmul (lowering pass + GEMM), convs lower
            # in the image domain and enter through gemm_lowered (GEMM only).
            for entry in ("matmul", "gemm_lowered"):
                undos.append(
                    recorder.wrap(
                        kernel, entry, f"{path}.{entry}", "core.prepared.matmul",
                        on_call=count_gemm,
                    )
                )
        undos.append(
            recorder.wrap(state.runtime, "forward_batch", "forward_batch", "tensor.glue")
        )
        for executor in state.executors.values():
            undos.append(
                recorder.wrap(executor, "execute", "execute", "serving.executors")
            )
        counts["nbytes"] = float(sum(k.nbytes() for _, k in kernels.values()))
        return undos

    def trace(self, state: ForwardState, seconds: float) -> Outcome:
        outcome = Outcome()
        sizes = state.sizes
        runtime, images = state.runtime, state.images
        recorder = SpanRecorder()
        counts = {"flop": 0.0, "nbytes": 0.0}
        phases = {phase.name: phase for phase in PHASES}
        # Block medians (ms; us for set_ratio) of every series, pooled over rounds.
        untraced: Dict[str, List[float]] = {phase.name: [] for phase in PHASES}
        pooled: Dict[str, List[np.ndarray]] = {"b1_mixed": [], "b8_switch": []}
        traced_b1: List[float] = []
        paired: Dict[int, List[np.ndarray]] = {1: [], 8: []}  # by batch size
        set_ratio: List[float] = []
        references: List[float] = []
        switches = 0
        builds = self._builds_since()

        for _ in timed_rounds(seconds, sizes["min_rounds"]):
            references.append(reference_seconds())
            for phase in PHASES:
                samples = _durations(self._run_phase(state, phase, outcome))
                untraced[phase.name].extend(block_medians(samples, phase.block) * 1e3)
                if phase.name in pooled:
                    pooled[phase.name].append(samples)

            # The layers below the engine, untraced, one after the other on
            # the same images: forward_batch, execute, submit+step.
            for size, sink in paired.items():
                sink.append(self._paired(state, size, sizes["direct"]))
            samples = np.empty(sizes["direct"])
            for i in range(len(samples)):
                ratio = state.ratios[i % len(state.ratios)]
                start = time.perf_counter()
                runtime.set_ratio(ratio)
                samples[i] = time.perf_counter() - start
            set_ratio.extend(block_medians(samples, 8) * 1e6)

            # The same two phases again with every layer boundary wrapped.
            undos = self._instrument(state, recorder, counts)
            try:
                samples = _durations(
                    self._run_phase(state, phases["b1_mixed"], outcome, recorder=recorder)
                )
                traced_b1.extend(block_medians(samples, phases["b1_mixed"].block) * 1e3)
                before = state.executors["b8_switch"].ratio_switches
                self._run_phase(state, phases["b8_switch"], outcome, recorder=recorder)
                switches = state.executors["b8_switch"].ratio_switches - before
            finally:
                for undo in reversed(undos):
                    undo()
        built, planes = self._check_builds(builds, outcome)
        recorder.write(OUT_DIR / f"trace-{self.name}.json", self.name)

        # Per request at batch 1, ratio 0.5: median over the traced requests
        # of each layer's self time inside that request.
        roots = [i for i, parent in enumerate(recorder.parents) if parent < 0]
        b1_rows = [recorder.requests[i] for i in roots if recorder.names[i] == "b1_mixed"]
        matrix = recorder.per_request(FORWARD_LAYERS)[b1_rows] * 1e3
        column = {layer: i for i, layer in enumerate(FORWARD_LAYERS)}
        quant = matrix[:, column["core.runtime.quant"]] + matrix[:, column["core.prepared.matmul"]]
        forward = matrix.sum(axis=1)
        b1_set = set(b1_rows)
        matmul_calls = sum(
            1 for layer, request in zip(recorder.layers, recorder.requests)
            if layer == "core.prepared.matmul" and request in b1_set
        )
        b8_rows = len(roots) - len(b1_rows)
        # The flop counter runs over both traced phases; a b8 batch does
        # eight requests' worth of rows, so normalise per request served.
        requests_traced = len(b1_rows) + 8 * b8_rows

        # (operations, 3): host seconds of forward_batch, execute, submit+step.
        b1, b8 = np.vstack(paired[1]), np.vstack(paired[8])
        outcome.values = {
            "core.runtime.forward_batch_p50_ms": quietest(block_medians(b1[:, 0], 8)) * 1e3,
            "core.runtime.quant_layers_ms": median(quant),
            "core.runtime.quant_share": median(quant / forward),
            "core.prepared.matmul_ms": median(matrix[:, column["core.prepared.matmul"]]),
            "core.prepared.matmul_calls": matmul_calls / max(len(b1_rows), 1),
            "core.prepared.gemm_mflop": counts["flop"] / max(requests_traced, 1) / 1e6,
            "core.prepared.nbytes_mb": counts["nbytes"] / 2**20,
            "core.prepared.builds": built,
            "core.prepared.plane_builds": planes,
            "core.runtime.set_ratio_p50_us": quietest(set_ratio),
            "core.runtime.ratio_switches": switches,
            "nn.norm_ms": median(matrix[:, column["nn.norm"]]),
            "nn.attention_ms": median(matrix[:, column["nn.attention"]]),
            "nn.activation_ms": median(matrix[:, column["nn.activation"]]),
            "nn.other_modules_ms": median(matrix[:, column["nn.other"]]),
            "tensor.glue_ms": median(matrix[:, column["tensor.glue"]]),
            "serving.executors.execute_overhead_us": median(b1[:, 1] - b1[:, 0]) * 1e6,
            "serving.engine.step_overhead_us": median(b1[:, 2] - b1[:, 1]) * 1e6,
            "serving.engine.step_overhead_b8_us": median(b8[:, 2] - b8[:, 1]) * 1e6,
            "serving.engine.b1_latency_p99_ms": float(
                np.percentile(np.concatenate(pooled["b1_mixed"]), 99) * 1e3
            ),
            "serving.engine.b8_batch_p99_ms": float(
                np.percentile(np.concatenate(pooled["b8_switch"]), 99) * 1e3
            ),
            "quality.top1_acc": state.top1,
            **bench_values(references, traced_b1, untraced["b1_mixed"], len(recorder)),
            **state.split,
        }
        return outcome
