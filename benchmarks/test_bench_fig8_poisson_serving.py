"""Figure 8: median and p90 end-to-end latency vs Poisson request rate.

FlexiQ at 25-100% 4-bit ratios is compared against uniform INT4 and INT8
deployments of ViT-Base and Swin-Small on the A6000 model, with requests
arriving open-loop at 100-3000 requests/second.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reports import format_table
from repro.data.traces import PoissonTrace
from repro.serving import (
    BatchingConfig,
    FixedRatioPolicy,
    ModeledExecutor,
    ServiceTimeModel,
    ServingEngine,
)

RATES = (100, 500, 1000, 1500, 2000, 2500, 3000)
CONFIGS = [
    ("int8", 0.0),
    ("flexiq", 0.25),
    ("flexiq", 0.5),
    ("flexiq", 0.75),
    ("flexiq", 1.0),
    ("int4", 0.0),
]


def _label(mode, ratio):
    return f"FlexiQ {int(ratio * 100)}%" if mode == "flexiq" else mode.upper()


@pytest.mark.parametrize("model_name", ["vit_base", "swin_small"])
def test_fig8_latency_vs_request_rate(benchmark, results_writer, model_name):
    service = ServiceTimeModel(model_name, gpu="a6000", anchor_batches=(1, 16, 64, 128))
    duration = 4.0

    def serve(trace, mode, ratio):
        engine = ServingEngine(BatchingConfig(max_batch=128))
        engine.register(
            model_name, ModeledExecutor(service), policy=FixedRatioPolicy(ratio),
            mode=mode,
        )
        return engine.run(trace)

    def run_sweep():
        table = {}
        for mode, ratio in CONFIGS:
            medians, p90s = [], []
            for rate in RATES:
                trace = PoissonTrace(rate, duration, seed=17).generate()
                result = serve(trace, mode, ratio)
                medians.append(result.median_latency * 1e3)
                p90s.append(result.p90_latency * 1e3)
            table[_label(mode, ratio)] = (medians, p90s)
        return table

    table = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for label, (medians, p90s) in table.items():
        rows.append([label + " (median)"] + medians)
        rows.append([label + " (p90)"] + p90s)
    text = format_table(
        ["configuration"] + [f"{r} rps" for r in RATES], rows, precision=1,
        title=f"Figure 8 -- serving latency (ms) vs Poisson request rate ({model_name}, A6000)",
    )
    results_writer(f"fig8_poisson_{model_name}", text)

    int8_median = np.asarray(table["INT8"][0])
    int4_median = np.asarray(table["INT4"][0])
    flexiq_full = np.asarray(table["FlexiQ 100%"][0])
    flexiq_half = np.asarray(table["FlexiQ 50%"][0])
    # At the highest rate INT8 has saturated while INT4 still serves quickly.
    assert int8_median[-1] > 3 * int4_median[-1]
    # FlexiQ 100% tracks INT4 closely across the sweep.
    assert flexiq_full[-1] < int8_median[-1]
    assert flexiq_full[-1] <= int4_median[-1] * 2.5
    # Intermediate ratios interpolate between the two extremes at high load.
    assert int4_median[-2] <= flexiq_full[-2] <= flexiq_half[-2] <= int8_median[-2] * 1.05
