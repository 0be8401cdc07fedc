"""Low-level numerical kernels for the NumPy deep-learning substrate.

This module provides the forward and backward primitives (im2col-based
convolution, pooling, batch normalisation, activations and the softmax /
cross-entropy head) that the layer classes in :mod:`repro.nn.layers` are
built from.  Every function is a pure function of arrays: layers own the
parameters and the cached context needed for the backward pass.

Array layout conventions
------------------------
* Images / activations: ``(N, C, H, W)`` -- batch, channels, height, width.
* Convolution weights: ``(C_out, C_in, KH, KW)``.
* Linear weights: ``(out_features, in_features)``.

The im2col transformation reshapes each convolution into a single GEMM so
that the weight matrix seen by the pruning framework matches the paper's
``(H * W * R, S)`` reshaped layout (Sec. III of the CRISP paper).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "depthwise_conv2d_forward",
    "depthwise_conv2d_backward",
    "linear_forward",
    "linear_backward",
    "max_pool2d_forward",
    "max_pool2d_backward",
    "avg_pool2d_forward",
    "avg_pool2d_backward",
    "global_avg_pool_forward",
    "global_avg_pool_backward",
    "batchnorm_forward",
    "batchnorm_backward",
    "relu_forward",
    "relu_backward",
    "relu6_forward",
    "relu6_backward",
    "softmax",
    "log_softmax",
    "cross_entropy_forward",
    "cross_entropy_backward",
    "conv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"Non-positive output size {out} for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Unfold an image batch into a matrix of receptive-field columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    np.ndarray
        Matrix of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )

    stride_n, stride_c, stride_h, stride_w = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kernel_h, kernel_w, out_h, out_w),
        strides=(
            stride_n,
            stride_c,
            stride_h,
            stride_w,
            stride_h * stride,
            stride_w * stride,
        ),
        writeable=False,
    )
    cols = windows.transpose(0, 4, 5, 1, 2, 3).reshape(
        n * out_h * out_w, c * kernel_h * kernel_w
    )
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold receptive-field columns back into an image batch (adjoint of im2col)."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    cols_reshaped = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    cols_reshaped = cols_reshaped.transpose(0, 3, 4, 5, 1, 2)

    h_padded, w_padded = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, h_padded, w_padded), dtype=cols.dtype)

    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            x_padded[:, :, i:i_max:stride, j:j_max:stride] += cols_reshaped[:, :, i, j]

    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, dict]:
    """2-D convolution via im2col + GEMM.

    Returns the output of shape ``(N, C_out, out_h, out_w)`` and a cache
    dict consumed by :func:`conv2d_backward`.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"Channel mismatch: input has {c_in}, weight expects {c_in_w}")

    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    cols = im2col(x, kh, kw, stride, padding)
    w_mat = weight.reshape(c_out, -1)
    out = cols @ w_mat.T
    if bias is not None:
        out = out + bias
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)

    cache = {
        "cols": cols,
        "x_shape": x.shape,
        "weight_shape": weight.shape,
        "stride": stride,
        "padding": padding,
        "has_bias": bias is not None,
    }
    return out, cache


def conv2d_backward(
    grad_out: np.ndarray, weight: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``.
    """
    cols = cache["cols"]
    x_shape = cache["x_shape"]
    stride = cache["stride"]
    padding = cache["padding"]
    c_out, c_in, kh, kw = weight.shape

    n, _, out_h, out_w = grad_out.shape
    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c_out)

    grad_weight = (grad_mat.T @ cols).reshape(weight.shape)
    grad_bias = grad_mat.sum(axis=0) if cache["has_bias"] else None

    grad_cols = grad_mat @ weight.reshape(c_out, -1)
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding)
    return grad_x, grad_weight, grad_bias


def depthwise_conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, dict]:
    """Depthwise convolution: one filter per input channel.

    ``weight`` has shape ``(C, 1, KH, KW)``.  Implemented as a grouped
    im2col GEMM with groups == channels.
    """
    n, c, h, w = x.shape
    c_w, one, kh, kw = weight.shape
    if c_w != c or one != 1:
        raise ValueError(
            f"Depthwise weight shape {weight.shape} incompatible with input channels {c}"
        )

    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    cols = im2col(x, kh, kw, stride, padding)  # (N*oh*ow, C*kh*kw)
    cols_g = cols.reshape(-1, c, kh * kw)
    w_g = weight.reshape(c, kh * kw)
    # einsum over the kernel dimension, independently per channel
    out = np.einsum("bck,ck->bc", cols_g, w_g)
    if bias is not None:
        out = out + bias
    out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    cache = {
        "cols_g": cols_g,
        "x_shape": x.shape,
        "stride": stride,
        "padding": padding,
        "has_bias": bias is not None,
    }
    return out, cache


def depthwise_conv2d_backward(
    grad_out: np.ndarray, weight: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`depthwise_conv2d_forward`."""
    cols_g = cache["cols_g"]
    x_shape = cache["x_shape"]
    stride = cache["stride"]
    padding = cache["padding"]
    c, _, kh, kw = weight.shape

    n, _, out_h, out_w = grad_out.shape
    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c)  # (N*oh*ow, C)

    grad_w = np.einsum("bc,bck->ck", grad_mat, cols_g).reshape(weight.shape)
    grad_bias = grad_mat.sum(axis=0) if cache["has_bias"] else None

    w_g = weight.reshape(c, kh * kw)
    grad_cols_g = np.einsum("bc,ck->bck", grad_mat, w_g)
    grad_cols = grad_cols_g.reshape(grad_mat.shape[0], c * kh * kw)
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding)
    return grad_x, grad_w, grad_bias


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------

def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
) -> Tuple[np.ndarray, dict]:
    """Fully connected layer: ``y = x @ W.T + b``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out, {"x": x, "has_bias": bias is not None}


def linear_backward(
    grad_out: np.ndarray, weight: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`linear_forward`."""
    x = cache["x"]
    grad_weight = grad_out.T @ x
    grad_bias = grad_out.sum(axis=0) if cache["has_bias"] else None
    grad_x = grad_out @ weight
    return grad_x, grad_weight, grad_bias


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def max_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int | None = None, padding: int = 0
) -> Tuple[np.ndarray, dict]:
    """Max pooling over non-overlapping or strided windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)

    x_r = x.reshape(n * c, 1, h, w)
    cols = im2col(x_r, kernel, kernel, stride, padding)  # (N*C*oh*ow, k*k)
    argmax = cols.argmax(axis=1)
    out = cols[np.arange(cols.shape[0]), argmax]
    out = out.reshape(n, c, out_h, out_w)

    cache = {
        "argmax": argmax,
        "cols_shape": cols.shape,
        "x_shape": x.shape,
        "kernel": kernel,
        "stride": stride,
        "padding": padding,
    }
    return out, cache


def max_pool2d_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`max_pool2d_forward`."""
    n, c, h, w = cache["x_shape"]
    kernel = cache["kernel"]
    stride = cache["stride"]
    padding = cache["padding"]
    argmax = cache["argmax"]

    grad_cols = np.zeros(cache["cols_shape"], dtype=grad_out.dtype)
    grad_flat = grad_out.reshape(-1)
    grad_cols[np.arange(grad_cols.shape[0]), argmax] = grad_flat

    grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, kernel, stride, padding)
    return grad_x.reshape(n, c, h, w)


def avg_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int | None = None, padding: int = 0
) -> Tuple[np.ndarray, dict]:
    """Average pooling."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)

    x_r = x.reshape(n * c, 1, h, w)
    cols = im2col(x_r, kernel, kernel, stride, padding)
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    cache = {
        "x_shape": x.shape,
        "kernel": kernel,
        "stride": stride,
        "padding": padding,
        "cols_shape": cols.shape,
    }
    return out, cache


def avg_pool2d_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`avg_pool2d_forward`."""
    n, c, h, w = cache["x_shape"]
    kernel = cache["kernel"]
    stride = cache["stride"]
    padding = cache["padding"]

    grad_flat = grad_out.reshape(-1, 1) / float(kernel * kernel)
    grad_cols = np.broadcast_to(grad_flat, cache["cols_shape"]).copy()
    grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, kernel, stride, padding)
    return grad_x.reshape(n, c, h, w)


def global_avg_pool_forward(x: np.ndarray) -> Tuple[np.ndarray, dict]:
    """Global average pooling: ``(N, C, H, W) -> (N, C)``."""
    out = x.mean(axis=(2, 3))
    return out, {"x_shape": x.shape}


def global_avg_pool_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`global_avg_pool_forward`."""
    n, c, h, w = cache["x_shape"]
    grad = grad_out[:, :, None, None] / float(h * w)
    return np.broadcast_to(grad, (n, c, h, w)).copy()


# ---------------------------------------------------------------------------
# Batch normalisation
# ---------------------------------------------------------------------------

def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tuple[np.ndarray, dict]:
    """Batch normalisation over the channel axis of ``(N, C, H, W)`` or ``(N, C)``.

    ``running_mean`` / ``running_var`` are updated in place when ``training``.

    ``x`` is centered once and normalized in place into ``x_hat``; the
    variance is the mean of ``centered * centered`` over the same axes,
    which is exactly what ``np.var`` computes, so the result is
    bit-identical to the textbook two-pass form.  Every full-size
    temporary is elementwise over ``x``, so it keeps ``x``'s memory order
    (channel-major conv outputs stay channel-major).
    """
    is_conv = x.ndim == 4
    axes = (0, 2, 3) if is_conv else (0,)

    def per_channel(v: np.ndarray) -> np.ndarray:
        return v[None, :, None, None] if is_conv else v

    mean = x.mean(axis=axes) if training else running_mean
    centered = x - per_channel(mean)
    out = None
    if training:
        # The squares' buffer is reused for the output below.
        out = np.multiply(centered, centered)
        var = out.mean(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        var = running_var

    inv_std = 1.0 / np.sqrt(per_channel(var) + eps)
    x_hat = centered
    x_hat *= inv_std
    out = np.multiply(x_hat, per_channel(gamma), out=out)
    out += per_channel(beta)

    cache = {
        "x_hat": x_hat,
        "inv_std": inv_std,
        "gamma": gamma,
        "axes": axes,
        "is_conv": is_conv,
        "training": training,
    }
    return out, cache


def batchnorm_backward(
    grad_out: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`batchnorm_forward`.

    Returns ``(grad_x, grad_gamma, grad_beta)``.  In evaluation mode the
    mean/var are treated as constants (the standard inference behaviour).
    """
    x_hat = cache["x_hat"]
    inv_std = cache["inv_std"]
    gamma = cache["gamma"]
    axes = cache["axes"]
    is_conv = cache["is_conv"]

    grad_gamma = (grad_out * x_hat).sum(axis=axes)
    grad_beta = grad_out.sum(axis=axes)

    gamma_b = gamma[None, :, None, None] if is_conv else gamma

    if not cache["training"]:
        grad_x = grad_out * gamma_b * inv_std
        return grad_x, grad_gamma, grad_beta

    # Count of elements that contributed to each channel statistic.
    m = grad_out.size / grad_out.shape[1]
    grad_xhat = grad_out * gamma_b
    mean_grad_xhat = grad_xhat.mean(axis=axes, keepdims=True)
    mean_grad_xhat_xhat = (grad_xhat * x_hat).mean(axis=axes, keepdims=True)
    grad_x = inv_std * (grad_xhat - mean_grad_xhat - x_hat * mean_grad_xhat_xhat)
    # The keepdims means above already divide by m; no further scaling needed.
    _ = m
    return grad_x, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> Tuple[np.ndarray, dict]:
    """Rectified linear unit."""
    mask = x > 0
    return x * mask, {"mask": mask}


def relu_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`relu_forward`."""
    return grad_out * cache["mask"]


def relu6_forward(x: np.ndarray) -> Tuple[np.ndarray, dict]:
    """ReLU6 activation used by MobileNetV2."""
    mask = (x > 0) & (x < 6.0)
    return np.clip(x, 0.0, 6.0), {"mask": mask}


def relu6_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`relu6_forward`."""
    return grad_out * cache["mask"]


# ---------------------------------------------------------------------------
# Softmax / cross-entropy
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_forward(
    logits: np.ndarray, targets: np.ndarray, label_smoothing: float = 0.0
) -> Tuple[float, dict]:
    """Mean cross-entropy loss over a batch of integer class targets."""
    n, num_classes = logits.shape
    log_probs = log_softmax(logits)

    if label_smoothing > 0.0:
        smooth = label_smoothing / num_classes
        target_dist = np.full_like(log_probs, smooth)
        target_dist[np.arange(n), targets] += 1.0 - label_smoothing
        loss = -(target_dist * log_probs).sum(axis=1).mean()
        cache = {"log_probs": log_probs, "target_dist": target_dist, "n": n}
    else:
        loss = -log_probs[np.arange(n), targets].mean()
        cache = {"log_probs": log_probs, "targets": targets, "n": n, "target_dist": None}
    return float(loss), cache


def cross_entropy_backward(cache: dict) -> np.ndarray:
    """Gradient of the mean cross-entropy loss with respect to the logits."""
    log_probs = cache["log_probs"]
    n = cache["n"]
    probs = np.exp(log_probs)
    if cache["target_dist"] is not None:
        grad = (probs - cache["target_dist"]) / n
    else:
        grad = probs.copy()
        grad[np.arange(n), cache["targets"]] -= 1.0
        grad /= n
    return grad
