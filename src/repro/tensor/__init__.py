"""Minimal reverse-mode autodiff tensor library on top of NumPy.

This module replaces PyTorch for the purposes of the reproduction: it
provides a :class:`Tensor` type with broadcasting-aware gradients, the small
set of operators needed by convolutional and transformer vision models, and
functional helpers (convolution, pooling, attention primitives, losses).

The design goal is correctness and readability rather than raw speed -- the
model zoo in :mod:`repro.nn` is sized so that end-to-end experiments stay
fast on a CPU.
"""

from repro.tensor.tensor import Tensor, TensorOrArray, no_grad
from repro.tensor import functional

__all__ = ["Tensor", "TensorOrArray", "functional", "no_grad"]
