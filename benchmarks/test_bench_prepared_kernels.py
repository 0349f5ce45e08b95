"""Prepared-kernel cache on real ResNet-18 / ViT-small runtimes: outcomes only.

The serving steady state of the FlexiQ runtime is: freeze + configure once,
then serve many requests, switching only the 4-bit ratio between them.  The
prepared-kernel cache (:mod:`repro.core.prepared`) computes all weight-side
state once at prepare time; the uncached kernels re-derive it on every call
and survive as the correctness reference.  Two properties make the cache
safe to serve on, and both are exact:

* prepared logits are ``array_equal`` to the uncached reference at every
  available ratio;
* switching the ratio per batch through ``ServingEngine`` +
  ``RuntimeExecutor`` never rebuilds a kernel or a bit plane (the O(1)
  ratio-switch claim).

How *fast* the prepared path is lives in ``bench/`` (``fwd_resnet18`` /
``fwd_vit_small``: ``op_p50_ms``, ``work_per_s``, ``overhead_ratio``), not
here.  Both tests take the session's shared greedy runtimes, which the
Figure 11-14 benches already build, and leave them as they found them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prepared import PreparedKernel
from repro.serving import (
    BatchingConfig,
    Request,
    RoundRobinRatioPolicy,
    RuntimeExecutor,
    ServingEngine,
)
from repro.tensor import Tensor

MODELS = ("resnet18", "vit_small")
SERVING_BATCH = 8
SERVING_REQUESTS = 64


@pytest.fixture(params=MODELS)
def served_model(request, bundles, flexiq_runtimes):
    """(runtime, images); prepared path and ratio left as they were found."""
    runtime = flexiq_runtimes[(request.param, "greedy", False)]
    ratio = runtime.current_ratio
    yield runtime, bundles[request.param].dataset.train_images
    runtime.prepare(use_prepared=True)
    runtime.set_ratio(ratio)


def test_prepared_logits_bit_exact_with_uncached_reference(served_model):
    runtime, images = served_model
    x = Tensor(images[:8])
    for ratio in runtime.available_ratios:
        runtime.set_ratio(ratio)
        runtime.prepare(use_prepared=True)
        prepared = runtime(x).data.copy()
        runtime.prepare(use_prepared=False)
        uncached = runtime(x).data.copy()
        assert np.array_equal(prepared, uncached), f"not bit-exact at ratio {ratio}"


def test_ratio_switching_through_the_engine_never_rebuilds_a_kernel(served_model):
    runtime, images = served_model
    ratios = runtime.available_ratios
    for ratio in ratios:  # warm every boundary plane before counting
        runtime.forward_batch(images[:1], ratio=ratio)
    # All requests arrive at once, so every batch is full; the policy
    # round-robins the ratios, so consecutive batches switch precision.
    requests = [
        Request(arrival_time=0.0, model="m", payload=images[i % len(images)])
        for i in range(SERVING_REQUESTS)
    ]
    executor = RuntimeExecutor(runtime)
    engine = ServingEngine(BatchingConfig(max_batch=SERVING_BATCH))
    engine.register("m", executor, policy=RoundRobinRatioPolicy(ratios))

    builds = (PreparedKernel.build_count, PreparedKernel.plane_build_count)
    outcome = engine.run(requests=requests, record_responses=False)
    assert (PreparedKernel.build_count, PreparedKernel.plane_build_count) == builds

    assert set(outcome.batch_sizes) == {SERVING_BATCH}
    assert len(outcome.latencies) == SERVING_REQUESTS
    assert len(set(outcome.batch_ratios)) >= 2
    assert executor.ratio_switches > 0
