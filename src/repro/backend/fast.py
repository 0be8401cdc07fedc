"""The ``fast`` backend: vectorized sparse kernels + im2col workspace reuse.

Three things distinguish this backend from ``reference``:

* the sparse matmuls replace the per-row (and per-nnz) Python loops of
  :mod:`repro.sparsity.sparse_ops`.  CSR and CRISP decode the stored weight
  once, memoize the dense operand on the format, and run one BLAS GEMM per
  call: the compressed formats are storage and accelerator forms, not the
  host CPU's execution form.  Blocked-Ellpack runs one block-row-batched
  ``matmul`` plus a ``bincount`` scatter;
* inference runs channel-major.  A convolution's output is an NCHW view of
  ``(C, N, H, W)`` memory (its GEMM yields ``(C_out, N*oh*ow)``), and
  BatchNorm, ReLU and the residual add are elementwise, so they keep that
  order.  Inference ``im2col`` returns columns whose transpose
  ``(C*kh*kw, N*oh*ow)`` is C-contiguous: for an unpadded stride-1 1x1
  kernel on channel-major input that is the input itself, so a chain of
  1x1 convolutions never copies an activation.  Other kernels copy their
  windows into a per-thread, shape-keyed workspace buffer, and padded ones
  first place the input in a zero-bordered per-thread workspace instead of
  a fresh ``np.pad``;
* training-mode layer kernels are inherited from the reference backend
  unchanged, so training numerics stay bit-identical.

All kernels produce outputs within floating-point round-off of the reference
backend (the parity suite pins this to 1e-8); they are *not* guaranteed to
be bit-exact because vectorized reductions may re-associate sums.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..sparsity.formats import BlockedEllpackFormat, CRISPFormat, CSRFormat
from ..sparsity.sparse_ops import check_activation_rows
from .base import register_backend
from .reference import ReferenceBackend


__all__ = [
    "FastBackend",
    "WorkspaceCache",
    "csr_matmul_fast",
    "blocked_ellpack_matmul_fast",
    "crisp_matmul_fast",
]


def _pad_rows(activations: np.ndarray, block: int) -> np.ndarray:
    """Zero-pad activation rows up to a block multiple (no copy when aligned)."""
    short = (-activations.shape[0]) % block
    if short == 0:
        return activations
    return np.pad(activations, ((0, short), (0, 0)))


class WorkspaceCache:
    """Shape-keyed cache of reusable scratch buffers.

    ``get`` returns a buffer for ``key`` if one with a matching shape/dtype
    is already cached, otherwise allocates (evicting FIFO beyond
    ``max_buffers``).  A cached buffer comes back exactly as its last user
    left it: callers overwrite what they read, and a ``zeroed`` buffer
    (zero-filled on allocation) keeps zeros wherever no caller writes.
    """

    def __init__(self, max_buffers: int = 64) -> None:
        self.max_buffers = max_buffers
        self._buffers: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        # Callers key buffers per thread, but the table itself is shared —
        # concurrent serving shards insert/evict under one lock.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(
        self, key: tuple, shape: Tuple[int, ...], dtype, zeroed: bool = False
    ) -> np.ndarray:
        with self._lock:
            buf = self._buffers.get(key)
            if buf is not None and buf.shape == shape and buf.dtype == np.dtype(dtype):
                self.hits += 1
                self._buffers.move_to_end(key)
                return buf
            self.misses += 1
            while len(self._buffers) >= self.max_buffers:
                self._buffers.popitem(last=False)
            buf = (np.zeros if zeroed else np.empty)(shape, dtype=dtype)
            self._buffers[key] = buf
            return buf

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "buffers": len(self._buffers)}


# ---------------------------------------------------------------------------
# Vectorized sparse kernels
# ---------------------------------------------------------------------------

def _format_cache(fmt) -> dict:
    """Per-format memo of derived operands and index arrays.

    Format objects are immutable encodings, so anything that depends only on
    the stored structure (the decoded dense operand, tile views, scatter
    indices) is computed once and reused across matmul calls.  (Mutating a
    format's arrays in place invalidates the memo; re-encode instead.)
    """
    cache = getattr(fmt, "_fast_cache", None)
    if cache is None:
        cache = {}
        fmt._fast_cache = cache
    return cache


def _tile_scatter_index(fmt, block: int, batch: int) -> np.ndarray:
    """Flat ``bincount`` indices scattering per-tile GEMM results by block column.

    Element ``(tile, c, b)`` of a ``(tiles, block, batch)`` contribution array
    lands at flat position ``block_cols[tile] * block * batch + c * batch + b``
    of the ``(out_block_cols * block, batch)`` output.
    """
    cache = _format_cache(fmt)
    key = ("scatter", batch)
    idx = cache.get(key)
    if idx is None:
        base = fmt.block_cols.reshape(-1) * (block * batch)
        idx = (base[:, None] + np.arange(block * batch)[None, :]).ravel()
        cache[key] = idx
    return idx


def _dense_operand(fmt) -> np.ndarray:
    """The format decoded once into a contiguous transposed dense operand.

    The vectorized ``to_dense`` scatters the stored values in one
    fancy-indexing pass; the result is memoized on the format, so a served
    weight pays the decode once, not per request.
    """
    cache = _format_cache(fmt)
    dense_t = cache.get("dense_t")
    if dense_t is None:
        dense_t = np.ascontiguousarray(fmt.to_dense().T)
        cache["dense_t"] = dense_t
    return dense_t


def csr_matmul_fast(fmt: CSRFormat, activations: np.ndarray) -> np.ndarray:
    """CSR GEMM as one BLAS call on the memoized dense operand."""
    check_activation_rows(fmt, activations)
    return _dense_operand(fmt) @ np.asarray(activations, dtype=np.float64)


def blocked_ellpack_matmul_fast(
    fmt: BlockedEllpackFormat, activations: np.ndarray
) -> np.ndarray:
    """Vectorized Blocked-Ellpack GEMM: block-row-batched matmul + bincount scatter.

    The retained tiles of each block-row are viewed as one
    ``(slots * B, B)`` operand (cached on the format), so the whole compute
    is a single batched matmul over block-rows; results are scattered to
    their output block columns with one ``bincount``.  Padded (unused) slots
    hold all-zero tiles, so their contributions vanish without a validity
    mask.
    """
    rows, cols = fmt.shape
    check_activation_rows(fmt, activations)
    activations = np.asarray(activations, dtype=np.float64)
    block = fmt.block_size
    batch = activations.shape[1]
    block_rows, slots = fmt.block_cols.shape
    out_block_cols = -(-cols // block)

    cache = _format_cache(fmt)
    row_tiles = cache.get("row_tiles")
    if row_tiles is None:
        # (block_rows, slots * B, B): tile c-axis first so each block-row's
        # retained tiles stack into one GEMM operand.
        row_tiles = np.ascontiguousarray(
            fmt.blocks.transpose(0, 1, 3, 2).reshape(block_rows, slots * block, block)
        )
        cache["row_tiles"] = row_tiles

    act_tiles = _pad_rows(activations, block).reshape(block_rows, block, batch)

    # contrib[r, s*B + c, b] = sum_i blocks[r, s, i, c] * act_tiles[r, i, b]
    contrib = np.matmul(row_tiles, act_tiles)

    flat_idx = _tile_scatter_index(fmt, block, batch)
    out = np.bincount(
        flat_idx, weights=contrib.ravel(), minlength=out_block_cols * block * batch
    )
    return out.reshape(out_block_cols * block, batch)[:cols]


def crisp_matmul_fast(fmt: CRISPFormat, activations: np.ndarray) -> np.ndarray:
    """CRISP GEMM as one BLAS call on the memoized dense operand.

    CRISP is a storage and accelerator format; on a host CPU a dense GEMM
    over the decoded weight beats any gather over the stored offsets.
    """
    check_activation_rows(fmt, activations)
    return _dense_operand(fmt) @ np.asarray(activations, dtype=np.float64)


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------

@register_backend
class FastBackend(ReferenceBackend):
    """Vectorized backend with inference-time workspace reuse.

    Training-path numerics are inherited from :class:`ReferenceBackend`;
    only inference ``im2col`` and convolutions (channel-major, workspace
    backed) and the sparse matmul family (vectorized) are overridden.
    """

    name = "fast"

    def __init__(self, max_buffers: int = 64) -> None:
        self._workspace = WorkspaceCache(max_buffers=max_buffers)

    # -- im2col ---------------------------------------------------------------
    def im2col(
        self,
        x: np.ndarray,
        kernel_h: int,
        kernel_w: int,
        stride: int = 1,
        padding: int = 0,
        training: bool = True,
    ) -> np.ndarray:
        """Receptive-field columns ``(N*oh*ow, C*kh*kw)``.

        At inference the result is the transpose of a C-contiguous
        ``(C*kh*kw, N*oh*ow)`` matrix: a free view of a channel-major input
        for unpadded stride-1 1x1 kernels, a workspace buffer otherwise.
        """
        if training:
            # A backward pass may hold onto the columns; never hand out a
            # shared buffer that a later forward would overwrite.
            return F.im2col(x, kernel_h, kernel_w, stride, padding)
        n, c, h, w = x.shape
        out_h = F.conv_output_size(h, kernel_h, stride, padding)
        out_w = F.conv_output_size(w, kernel_w, stride, padding)
        planes = x.transpose(1, 0, 2, 3)  # (C, N, H, W)
        if (kernel_h, kernel_w, stride, padding) == (1, 1, 1, 0) and planes.flags.c_contiguous:
            return planes.reshape(c, n * h * w).T
        # Workspaces are keyed by thread identity as well as shape: concurrent
        # serving shards (repro.cluster) run same-shaped convolutions in
        # parallel, and a shared buffer would let one thread overwrite another's
        # columns between the copy and the GEMM that consumes them.
        tid = threading.get_ident()
        if padding > 0:
            # Only the interior is ever written, so the border stays zero.
            padded = self._workspace.get(
                ("pad", tid, x.shape, padding),
                (c, n, h + 2 * padding, w + 2 * padding),
                x.dtype,
                zeroed=True,
            )
            padded[:, :, padding : padding + h, padding : padding + w] = planes
            planes = padded
        s_c, s_n, s_h, s_w = planes.strides
        windows = np.lib.stride_tricks.as_strided(
            planes,
            shape=(c, kernel_h, kernel_w, n, out_h, out_w),
            strides=(s_c, s_h, s_w, s_n, s_h * stride, s_w * stride),
            writeable=False,
        )
        key = ("im2col", tid, x.shape, kernel_h, kernel_w, stride, padding)
        buf = self._workspace.get(key, windows.shape, x.dtype)
        np.copyto(buf, windows)
        return buf.reshape(c * kernel_h * kernel_w, n * out_h * out_w).T

    # -- conv kernels (workspace-backed at inference) -------------------------
    def conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int = 1,
        padding: int = 0,
        training: bool = True,
    ) -> Tuple[np.ndarray, dict]:
        if training:
            return F.conv2d_forward(x, weight, bias, stride, padding)

        n, c_in, h, w = x.shape
        c_out, c_in_w, kh, kw = weight.shape
        if c_in != c_in_w:
            raise ValueError(f"Channel mismatch: input has {c_in}, weight expects {c_in_w}")
        out_h = F.conv_output_size(h, kh, stride, padding)
        out_w = F.conv_output_size(w, kw, stride, padding)

        cols = self.im2col(x, kh, kw, stride, padding, training=False)
        out = weight.reshape(c_out, -1) @ cols.T  # (C_out, N*oh*ow)
        if bias is not None:
            out += bias[:, None]
        out = out.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3)
        # `cols` aliases the input or a shared workspace buffer that the next
        # same-shaped forward overwrites, so the cache keeps the input
        # instead; conv2d_backward rebuilds fresh columns on the rare
        # eval-mode backward (e.g. saliency estimation).
        cache = {
            "x": x,
            "x_shape": x.shape,
            "weight_shape": weight.shape,
            "stride": stride,
            "padding": padding,
            "has_bias": bias is not None,
        }
        return out, cache

    def conv2d_backward(self, grad_out, weight, cache):
        if "cols" not in cache:
            _, _, kh, kw = weight.shape
            cache = dict(cache)
            cache["cols"] = F.im2col(cache["x"], kh, kw, cache["stride"], cache["padding"])
        return F.conv2d_backward(grad_out, weight, cache)

    def depthwise_conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int = 1,
        padding: int = 0,
        training: bool = True,
    ) -> Tuple[np.ndarray, dict]:
        if training:
            return F.depthwise_conv2d_forward(x, weight, bias, stride, padding)

        n, c, h, w = x.shape
        c_w, one, kh, kw = weight.shape
        if c_w != c or one != 1:
            raise ValueError(
                f"Depthwise weight shape {weight.shape} incompatible with input channels {c}"
            )
        out_h = F.conv_output_size(h, kh, stride, padding)
        out_w = F.conv_output_size(w, kw, stride, padding)

        cols = self.im2col(x, kh, kw, stride, padding, training=False)
        taps = cols.T.reshape(c, kh * kw, n * out_h * out_w)
        out = np.einsum("ckm,ck->cm", taps, weight.reshape(c, kh * kw))
        if bias is not None:
            out += bias[:, None]
        out = out.reshape(c, n, out_h, out_w).transpose(1, 0, 2, 3)
        # Same workspace-aliasing rule as conv2d_forward: never cache the
        # shared buffer for a potential backward.
        cache = {
            "x": x,
            "x_shape": x.shape,
            "stride": stride,
            "padding": padding,
            "has_bias": bias is not None,
        }
        return out, cache

    def depthwise_conv2d_backward(self, grad_out, weight, cache):
        if "cols_g" not in cache:
            c, _, kh, kw = weight.shape
            cache = dict(cache)
            cols = F.im2col(cache["x"], kh, kw, cache["stride"], cache["padding"])
            cache["cols_g"] = cols.reshape(-1, c, kh * kw)
        return F.depthwise_conv2d_backward(grad_out, weight, cache)

    # -- sparse matmul family -------------------------------------------------
    def csr_matmul(self, fmt, activations):
        return csr_matmul_fast(fmt, activations)

    def blocked_ellpack_matmul(self, fmt, activations):
        return blocked_ellpack_matmul_fast(fmt, activations)

    def crisp_matmul(self, fmt, activations):
        return crisp_matmul_fast(fmt, activations)

    # -- workspace management -------------------------------------------------
    def clear_workspace(self) -> None:
        self._workspace.clear()

    def workspace_stats(self) -> Dict[str, int]:
        return self._workspace.stats()
