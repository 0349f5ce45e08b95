"""A strict-priority queue discipline, the tests' second keyed scheduler.

``repro.serving`` ships FIFO and EDF; the engine serves any
:class:`~repro.serving.schedulers.Scheduler`.  The generated reference,
count-schema and sweep cases use this one to drive the scheduled loop with
keys that are not deadlines: integer priorities, with ties inside a class.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.serving.core import RequestStore


class PriorityScheduler:
    """Strict priority: higher ``Request.priority`` first, FIFO within."""

    def keys(self, store: RequestStore, slots: np.ndarray) -> List[Tuple]:
        if store.priorities is None:
            return [(0,)] * len(slots)
        return [(p,) for p in (-store.priorities[slots]).tolist()]
