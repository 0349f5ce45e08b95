"""The seed dispatch rule as a placer, the tests' generic ``Placer``.

``repro.serving`` has no such placer: ``placer=None`` is the seed rule,
inlined.  Tests that need *some* placer object (a ``SpreadPlacer``'s
``within``, a session off the sweep for the ``placer`` clause, a
``place`` call to compare against) use this one.
"""

from __future__ import annotations

from repro.serving.placement import PlacementContext, earliest_free


class FreeClockPlacer:
    """Argmin over server free clocks, ties to the lowest id."""

    def place(self, context: PlacementContext) -> int:
        return earliest_free(context.free_at, context.active)
