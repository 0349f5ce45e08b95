"""Module/Parameter containers mirroring the familiar torch.nn structure.

One rule decides how a forward runs: **``np.ndarray`` in => inference,
``Tensor`` in => autograd.**  Every module accepts a raw float32 array: it
then computes the same per-element operations in the same order as for a
:class:`Tensor` (bit-identical values), builds no graph and returns an
``ndarray``.  A ``forward`` is therefore written with operators and
:mod:`repro.tensor.functional` ops that both kinds define -- not with a
method whose meaning differs between them (``x.mean`` is numpy's divide on an
array but ``Tensor.mean``'s multiply by ``1 / count``: use ``F.mean``).
Containers just pass whatever they were given on to their children through
``child(x)``, so hooks and wrappers on ``forward`` see both kinds.  Training,
calibration and evaluation pass ``Tensor`` and are unaffected.

A layer *type* may define ``stacked_forward(layers, x)``: sibling layers'
forwards of one array, stacked on a new leading axis, or ``None`` to decline.
``MultiHeadAttention`` asks ``type(q_proj)`` -- a wrapper delegates attributes,
not its type -- only if all three are exactly that type with no instance-level
``forward``; otherwise, and always for a ``Tensor``, it calls them one by one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a learnable parameter of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural-network modules.

    Sub-modules and parameters assigned as attributes are registered
    automatically, which gives us ``named_modules``/``named_parameters``
    traversal, train/eval mode switching, and dotted-path submodule
    replacement -- the hook the quantization passes use to swap float layers
    for quantized ones.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training: bool = True

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        else:
            # Re-assigning a registered name with a non-module clears it.
            params = self.__dict__.get("_parameters")
            if params is not None and name in params:
                del params[name]
            modules = self.__dict__.get("_modules")
            if modules is not None and name in modules:
                del modules[name]
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-learnable array that is part of the module state."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace a registered buffer's contents."""
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} is not registered")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix + module_name + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix + name + ".")

    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        yield from self._modules.items()

    def get_submodule(self, path: str) -> "Module":
        """Return a descendant module addressed by dotted ``path``."""
        if not path:
            return self
        module: Module = self
        for part in path.split("."):
            if part not in module._modules:
                raise KeyError(f"no submodule {path!r} (missing {part!r})")
            module = module._modules[part]
        return module

    def set_submodule(self, path: str, new_module: "Module") -> None:
        """Replace the descendant module addressed by dotted ``path``."""
        parts = path.split(".")
        parent = self.get_submodule(".".join(parts[:-1])) if len(parts) > 1 else self
        name = parts[-1]
        if name not in parent._modules:
            raise KeyError(f"no submodule {path!r}")
        parent._modules[name] = new_module
        object.__setattr__(parent, name, new_module)

    # ------------------------------------------------------------------
    # Mode switching and gradient management
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for _, module in self.named_modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for _, module in self.named_modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # State (de)serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flatten all parameters and buffers into a name -> array mapping."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for module_name, module in self.named_modules():
            prefix = module_name + "." if module_name else ""
            for buffer_name, buffer in module._buffers.items():
                state[prefix + buffer_name] = np.array(buffer, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a mapping previously produced by :meth:`state_dict`."""
        param_map = dict(self.named_parameters())
        buffer_owners: Dict[str, Tuple[Module, str]] = {}
        for module_name, module in self.named_modules():
            prefix = module_name + "." if module_name else ""
            for buffer_name in module._buffers:
                buffer_owners[prefix + buffer_name] = (module, buffer_name)
        for name, value in state.items():
            if name in param_map:
                target = param_map[name]
                if target.data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {target.data.shape} vs {value.shape}"
                    )
                target.data = value.astype(target.data.dtype).copy()
            elif name in buffer_owners:
                module, buffer_name = buffer_owners[name]
                module.update_buffer(buffer_name, value.copy())
            else:
                raise KeyError(f"unexpected key in state dict: {name}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class ModuleList(Module):
    """A list of sub-modules that registers each element.

    Iteration reads from the registration table so swapping an element via
    :meth:`Module.set_submodule` (as the quantization passes do) is reflected
    immediately.
    """

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        setattr(self, str(len(self._modules)), module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[str(index)]


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for module in modules:
            setattr(self, str(len(self._modules)), module)

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[str(index)]
