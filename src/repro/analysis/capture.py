"""Capture per-layer inputs/outputs without modifying the model code.

The layer-error analyses (Figure 14, Table 6) need the input that each
quantized layer sees under 8-bit inference so that alternative precision
settings can be replayed layer-locally.  :func:`capture_layer_io` wraps the
requested layers with a transparent recording proxy; :func:`release_capture`
restores the original modules.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor


class CapturingLayer(Module):
    """Transparent wrapper that records the wrapped layer's last input/output."""

    def __init__(self, inner: Module) -> None:
        super().__init__()
        self.inner = inner
        self.last_input: Optional[np.ndarray] = None
        self.last_output: Optional[np.ndarray] = None

    def forward(self, x: Tensor) -> Tensor:
        self.last_input = np.array(x.data, copy=True)
        out = self.inner(x)
        self.last_output = np.array(out.data, copy=True)
        return out

    def __getattr__(self, name: str):
        # Delegate attribute access (e.g. ``feature_channels``) to the inner
        # layer so wrapped models keep working with code that inspects layers.
        inner = self.__dict__.get("inner")
        if inner is not None and hasattr(inner, name):
            return getattr(inner, name)
        raise AttributeError(name)


def capture_layer_io(model: Module, layer_names: Iterable[str]) -> Dict[str, CapturingLayer]:
    """Wrap the named submodules of ``model`` with recording proxies."""
    wrappers: Dict[str, CapturingLayer] = {}
    for name in layer_names:
        inner = model.get_submodule(name)
        wrapper = CapturingLayer(inner)
        model.set_submodule(name, wrapper)
        wrappers[name] = wrapper
    return wrappers


def release_capture(model: Module, wrappers: Dict[str, CapturingLayer]) -> None:
    """Undo :func:`capture_layer_io`, restoring the original layers."""
    for name, wrapper in wrappers.items():
        model.set_submodule(name, wrapper.inner)
