"""Functional neural-network operations built on :class:`repro.tensor.Tensor`.

Convolution is implemented with the classic im2col/col2im transformation so
both the forward and backward passes are expressed as matrix multiplies --
the same structure the quantized kernels in :mod:`repro.hardware.kernels`
use, which keeps the float and integer paths directly comparable.

The convolution, linear, concatenation, pooling, activation and
normalisation helpers also accept a raw float32 ``np.ndarray`` (the
inference rule of :mod:`repro.nn.module`): they then run the *same
per-element operations in the same order* as the ``Tensor`` branch -- so the
result is bit-identical -- but on temporaries updated in place, with no
graph, and return an ``ndarray``.  The input array is never written.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor, TensorOrArray


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def _unfold_windows(
    x_padded: np.ndarray, out_h: int, out_w: int, kh: int, kw: int, stride: int
) -> np.ndarray:
    """Strided (N, C, out_h, out_w, kh, kw) window view of a padded image."""
    n, c = x_padded.shape[:2]
    strides = x_padded.strides
    return np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, out_h*out_w, C*kh*kw)."""
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    windows = _unfold_windows(x, out_h, out_w, kh, kw, stride)
    # (N, out_h, out_w, C, kh, kw) -> (N, out_h*out_w, C*kh*kw)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), (out_h, out_w)


def unfold(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    dtype=np.float32,
) -> Tuple[np.ndarray, Tuple[int, int, int]]:
    """Unfold ``x`` (N, C, H, W) into batch-major (N, C*kh*kw, out_h*row)
    columns of ``dtype``; returns them and the grid ``(out_h, out_w, row)``.

    :func:`im2col`'s columns per image, transposed (the Caffe/NCHW form), for
    the quantized convolution hot path: ``w.T @ cols`` is (N, out, out_h*row),
    already NCHW.  At stride 1 the grid is the *padded-row* one (``row = Wp``):
    a tap's columns are then one contiguous run of the flat padded image, so
    the gather -- it doubles as the cast to ``dtype`` -- is N*C*kh*kw long
    copies, and the ``Wp - out_w`` columns that end each grid row are junk
    (windows wrapped into the next padded row of the same channel, or into the
    zero tail) that :func:`kept_columns` leaves out.  At stride > 1, where half
    of such a grid would be junk, windows are gathered per output row (``row =
    out_w``).  ``x`` may have any strides.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"cannot convolve a {h}x{w} input with a {kh}x{kw} kernel at stride "
            f"{stride}, padding {padding}: the output would be {out_h}x{out_w}"
        )
    # Always copy into an owned zeroed buffer (np.pad costs more than the whole
    # gather on these small images): the windows are then a plain ndarray over
    # it whatever ``x``'s strides -- as_strided alone costs a third of it.
    flat = np.zeros((n, c, hp * wp + kw - 1), dtype=x.dtype)
    flat[:, :, : hp * wp].reshape(n, c, hp, wp)[
        :, :, padding : padding + h, padding : padding + w
    ] = x
    s_n, s_c, s_w = flat.strides
    if stride == 1:
        shape, steps, row = (out_h * wp,), (s_w,), wp
    else:
        shape, steps, row = (out_h, out_w), (wp * s_w * stride, s_w * stride), out_w
    windows = np.ndarray(
        (n, c, kh, kw) + shape, x.dtype, flat, strides=(s_n, s_c, wp * s_w, s_w) + steps
    )
    cols = windows.astype(dtype, order="C")
    return cols.reshape(n, c * kh * kw, out_h * row), (out_h, out_w, row)


def kept_columns(a: np.ndarray, grid: Tuple[int, int, int]) -> np.ndarray:
    """The (N, M, out_h, out_w) view of (N, M, out_h*row) values over
    :func:`unfold`'s grid that leaves the junk columns out."""
    out_h, out_w, row = grid
    return a.reshape(a.shape[:2] + (out_h, row))[..., :out_w]


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to an image."""
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += (
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    if padding > 0:
        return padded[:, :, padding : padding + h, padding : padding + w]
    return padded


# ----------------------------------------------------------------------
# Convolution / linear
# ----------------------------------------------------------------------
def _data(value):
    """The array behind a ``Tensor``; an array or ``None`` as is."""
    return value.data if isinstance(value, Tensor) else value


def concatenate(parts, axis: int = 0) -> TensorOrArray:
    """Join arrays into an array, or -- if any part is a ``Tensor`` -- into a
    ``Tensor`` with a graph."""
    if any(isinstance(part, Tensor) for part in parts):
        return Tensor.concatenate(parts, axis=axis)
    return np.concatenate(parts, axis=axis)


def conv2d(
    x: TensorOrArray,
    weight: TensorOrArray,
    bias: Optional[TensorOrArray] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> TensorOrArray:
    """2D convolution.  ``x``: (N, C, H, W); ``weight``: (O, C/groups, kh, kw).

    An array ``x`` reads ``weight``/``bias`` (tensors or arrays) as arrays
    and gives an array."""
    n, c, h, w = x.shape
    out_ch, in_per_group, kh, kw = weight.shape
    if c != in_per_group * groups:
        raise ValueError(
            f"conv2d channel mismatch: input has {c} channels, "
            f"weight expects {in_per_group * groups}"
        )
    if isinstance(x, np.ndarray):  # slice arrays below, never Tensors
        weight, bias = _data(weight), _data(bias)

    if groups == 1:
        return _conv2d_single(x, weight, bias, stride, padding)

    # Grouped convolution (MobileNet depthwise): run each group independently.
    group_in = c // groups
    group_out = out_ch // groups
    outputs = []
    for g in range(groups):
        xg = x[:, g * group_in : (g + 1) * group_in]
        wg = weight[g * group_out : (g + 1) * group_out]
        bg = bias[g * group_out : (g + 1) * group_out] if bias is not None else None
        outputs.append(_conv2d_single(xg, wg, bg, stride, padding))
    return concatenate(outputs, axis=1)


def _conv2d_single(
    x: TensorOrArray,
    weight: TensorOrArray,
    bias: Optional[TensorOrArray],
    stride: int,
    padding: int,
) -> TensorOrArray:
    n, c, h, w = x.shape
    out_ch, _, kh, kw = weight.shape
    cols, (out_h, out_w) = im2col(_data(x), (kh, kw), stride, padding)
    w_mat = _data(weight).reshape(out_ch, -1)
    out = cols @ w_mat.T  # (N, out_h*out_w, out_ch)
    if bias is not None:
        out = out + _data(bias).reshape(1, 1, -1)
    out = out.transpose(0, 2, 1).reshape(n, out_ch, out_h, out_w)
    if isinstance(x, np.ndarray):
        return out

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray):
        # grad: (N, out_ch, out_h, out_w)
        grad_mat = grad.reshape(n, out_ch, out_h * out_w).transpose(0, 2, 1)
        grad_weight = np.einsum("npo,npk->ok", grad_mat, cols).reshape(weight.shape)
        grad_cols = grad_mat @ w_mat  # (N, out_h*out_w, C*kh*kw)
        grad_x = col2im(grad_cols, x.shape, (kh, kw), stride, padding)
        grads = [grad_x, grad_weight]
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2, 3)))
        return tuple(grads)

    return Tensor._make(out, parents, backward)


def linear(
    x: TensorOrArray, weight: Tensor, bias: Optional[Tensor] = None
) -> TensorOrArray:
    """Affine transform ``x @ weight.T + bias``; ``weight``: (out, in)."""
    if isinstance(x, np.ndarray):
        out = x @ weight.data.T
        if bias is not None:
            out += bias.data
        return out
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def mean(x: TensorOrArray, axis, keepdims: bool = False) -> TensorOrArray:
    """:meth:`Tensor.mean` for a tensor or an array: sum times ``1 / count``."""
    if isinstance(x, Tensor):
        return x.mean(axis=axis, keepdims=keepdims)
    out = x.sum(axis=axis, keepdims=keepdims)
    out *= np.float32(1.0 / (x.size // out.size))
    return out


def global_avg_pool2d(x: TensorOrArray) -> TensorOrArray:
    """Pool each (H, W) plane down to a single value: (N, C, H, W) -> (N, C)."""
    return mean(x, axis=(2, 3))


# ----------------------------------------------------------------------
# Activations and normalisation helpers
# ----------------------------------------------------------------------
def relu(x: TensorOrArray) -> TensorOrArray:
    if isinstance(x, np.ndarray):
        return np.maximum(x, 0)
    return x.relu()


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: TensorOrArray) -> TensorOrArray:
    """GELU with the tanh approximation used by most vision transformers."""
    if isinstance(x, np.ndarray):
        inner = x * x
        inner *= x
        inner *= np.float32(0.044715)
        inner += x
        inner *= np.float32(_GELU_C)
        np.tanh(inner, out=inner)
        inner += np.float32(1.0)
        out = x * np.float32(0.5)
        out *= inner
        return out
    inner = (x + x * x * x * 0.044715) * _GELU_C
    return x * 0.5 * (inner.tanh() + 1.0)


def relu6(x: TensorOrArray) -> TensorOrArray:
    if isinstance(x, np.ndarray):
        return np.clip(x, 0.0, 6.0)
    return x.clip(0.0, 6.0)


def softmax(x: TensorOrArray, axis: int = -1) -> TensorOrArray:
    if isinstance(x, np.ndarray):
        out = x - x.max(axis=axis, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=axis, keepdims=True)
        return out
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def layer_norm(
    x: TensorOrArray, weight: Tensor, bias: Tensor, eps: float = 1e-5
) -> TensorOrArray:
    """Layer normalisation over the last dimension."""
    if isinstance(x, np.ndarray):
        inv_count = np.float32(1.0 / x.shape[-1])
        mu = x.sum(axis=-1, keepdims=True)
        mu *= inv_count
        out = x - mu
        var = (out * out).sum(axis=-1, keepdims=True)
        var *= inv_count
        var += np.float32(eps)
        np.sqrt(var, out=var)
        out /= var
        out *= weight.data
        out += bias.data
        return out
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalized = (x - mean) / (var + eps).sqrt()
    return normalized * weight + bias


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, classes) and integer labels."""
    targets = np.asarray(targets)
    log_probs = log_softmax(logits, axis=-1)
    n = logits.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def soft_cross_entropy(logits: Tensor, soft_targets: np.ndarray) -> Tensor:
    """Cross-entropy against a probability distribution (distillation loss)."""
    soft_targets = np.asarray(soft_targets, dtype=np.float32)
    log_probs = log_softmax(logits, axis=-1)
    return -(log_probs * Tensor(soft_targets)).sum(axis=-1).mean()


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    logits = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = logits.argmax(axis=-1)
    return float((predictions == np.asarray(targets)).mean())
