"""Adaptive serving: FlexiQ's dynamic 4-bit ratio control under load (Fig. 9).

The engine divides time into control windows; at every window boundary the
:class:`~repro.core.controller.AdaptiveRatioController` observes the request
rate of the previous window and picks the 4-bit ratio for the next one.  On a
:class:`~repro.serving.engine.ServingEngine` the controller rides in an
:class:`~repro.serving.policies.AdaptiveRatioPolicy` (via
:meth:`~repro.core.controller.AdaptiveRatioController.as_policy`), which
keeps the window/timeline bookkeeping; the effective accuracy of the run is
the ratio-weighted average of the per-ratio accuracies measured offline
(Table 2), computed here from the policy's ``window_ratios``.

That policy (like the paper's Figure 9 setup) adapts on the **global**
window rate of one accelerator's trace.  Multi-server deployments should
prefer :class:`~repro.serving.policies.PerServerAdaptiveRatioPolicy`, which
runs one controller per server on per-server telemetry signals (see
:mod:`repro.serving.cluster`).
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def _effective_accuracy(
    window_ratios: np.ndarray, accuracy_by_ratio: Dict[float, float]
) -> float:
    """Time-averaged accuracy given per-ratio accuracies.

    Ratios not present in the table are mapped to the nearest configured
    ratio (the runtime only ever uses configured ratios, but guard anyway).
    Vectorized: one broadcast ``argmin`` over the |windows| x |ratios|
    difference matrix instead of a per-window Python loop; ties resolve to
    the lowest index, exactly like the sequential ``np.argmin``.
    """
    window_ratios = np.asarray(window_ratios, dtype=np.float64)
    if window_ratios.size == 0:
        return float("nan")
    ratios = np.asarray(sorted(accuracy_by_ratio))
    accuracies = np.asarray([accuracy_by_ratio[r] for r in ratios])
    nearest = np.argmin(np.abs(ratios[None, :] - window_ratios[:, None]), axis=1)
    return float(np.mean(accuracies[nearest]))
