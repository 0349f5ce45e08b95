"""Argument checks shared by ``repro.data`` and ``repro.serving``: a leaf
module, since importing ``repro.serving`` imports ``repro.data.traces``."""

from __future__ import annotations

import numpy as np


def check_positive(name: str, value: float, allow_zero: bool = False) -> float:
    """``value`` as a float; refuse NaN, inf, a negative and (unless allowed) zero.

    ``nan <= 0`` is false, so a bare sign test lets a NaN window or speed
    through to divide every timestamp by it.
    """
    number = float(value)
    if not np.isfinite(number) or number < 0 or (number == 0 and not allow_zero):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be a finite number {bound} (got {value!r})")
    return number
