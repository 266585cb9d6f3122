"""Patch gathering (im2col) and its adjoint (col2im) on numpy.

Convolution is implemented by unfolding input patches into the columns of
a matrix and performing a single large matrix multiply, the standard
approach for CPU deep-learning kernels.

Every unfold in the repo — the interpreted :func:`im2col` (conv forward
on both the grad and no-grad paths, pooling), the compiled ``reference``
conv step and the ``fast`` backend's blocked panels — replays one
precomputed :class:`Im2colPlan`: a flat gather-index table mapping each
patch element of one *sample* to its source position in the (padded)
input, applied with a single ``np.take``.  The index table depends only
on the per-sample geometry ``(C, H, W, kernel, stride, padding)``, so
one plan serves every batch size that flows through a layer, and the
process-global cache (bounded by the bytes of its index tables; least
recently used plans go first) makes plan construction a one-time cost
per layer shape.

:func:`col2im` is the exact adjoint of :func:`im2col`; the pooling
backward passes use it.  The conv input gradient does not: it is
computed as shifted GEMMs in :func:`repro.tensor.functional.conv2d`.

All workspaces (padded input, patch columns, scatter-add scratch) come
from the process-global :class:`~repro.tensor.pool.BufferPool`, so
repeated calls at the same layer shape — the normal case inside a
training loop or an evaluation sweep — are allocation-free.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.tensor.pool import BufferPool, default_pool
from repro.utils import profiler as _profiler


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def pad_nchw(
    x: np.ndarray, padding: Tuple[int, int], pool: BufferPool
) -> Optional[np.ndarray]:
    """Zero-pad an NCHW batch spatially into a pooled buffer.

    Returns ``None`` when ``padding`` is ``(0, 0)`` — callers keep using
    ``x`` directly and skip the release.  Otherwise the returned buffer
    comes from ``pool`` and the caller owns releasing it.  Shared by
    :meth:`Im2colPlan.gather` and the fast backend's blocked
    convolution, so both pad identically.
    """
    ph, pw = padding
    if not (ph or pw):
        return None
    n, c, h, w = x.shape
    pad_buf = pool.get((n, c, h + 2 * ph, w + 2 * pw), x.dtype)
    pad_buf.fill(0)
    pad_buf[:, :, ph : ph + h, pw : pw + w] = x
    return pad_buf


class Im2colPlan:
    """Gather indices for one convolution geometry (batch-size free)."""

    __slots__ = (
        "channels",
        "height",
        "width",
        "kernel",
        "stride",
        "padding",
        "out_h",
        "out_w",
        "patch_len",
        "index",
    )

    def __init__(
        self,
        channels: int,
        height: int,
        width: int,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
    ):
        self.channels = channels
        self.height = height
        self.width = width
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        self.out_h = conv_output_size(height, kh, sh, ph)
        self.out_w = conv_output_size(width, kw, sw, pw)
        self.patch_len = channels * kh * kw

        padded_h = height + 2 * ph
        padded_w = width + 2 * pw
        # Flat offsets of one patch's elements within a flattened
        # (C, padded_h, padded_w) sample, column order (c, kh, kw).
        element = (
            np.arange(channels, dtype=np.intp)[:, None, None] * (padded_h * padded_w)
            + np.arange(kh, dtype=np.intp)[None, :, None] * padded_w
            + np.arange(kw, dtype=np.intp)[None, None, :]
        ).reshape(-1)
        # Flat offset of each patch's top-left corner, row order (oh, ow).
        origin = (
            np.arange(self.out_h, dtype=np.intp)[:, None] * sh * padded_w
            + np.arange(self.out_w, dtype=np.intp)[None, :] * sw
        ).reshape(-1)
        self.index = origin[:, None] + element[None, :]

    def gather(self, x: np.ndarray, pool: BufferPool) -> np.ndarray:
        """Unfold an NCHW batch into pooled patch columns.

        Returns a pooled ``(N * out_h * out_w, C * kh * kw)`` buffer whose
        rows are the flattened receptive fields, ordered so that
        ``cols.reshape(N, out_h, out_w, -1)`` recovers spatial layout;
        the caller releases it when the matmul has consumed it.  An
        unpadded input that is not C-contiguous (a conv output keeps its
        NHWC memory layout) is flattened through one transient copy.
        """
        token = _profiler.op_start()
        n = x.shape[0]
        pad_buf = pad_nchw(x, self.padding, pool)
        src = x if pad_buf is None else pad_buf
        cols = pool.get((n * self.out_h * self.out_w, self.patch_len), x.dtype)
        src.reshape(n, -1).take(
            self.index,
            axis=1,
            out=cols.reshape(n, self.out_h * self.out_w, self.patch_len),
        )
        if pad_buf is not None:
            pool.release(pad_buf)
        _profiler.op_end(token, "im2col")
        return cols


_PlanKey = Tuple[int, int, int, int, int, int, int, int, int]

#: Bound on the index tables the plan cache keeps resident.  A table
#: takes 8 bytes per element of one sample's patch columns (ResNet-50's
#: 224x224 stem alone needs ~14.7 MB), so once the cached tables exceed
#: this the least recently used plans are dropped; they are rebuilt on
#: their next use.  Every geometry of the bundled training and serving
#: models fits many times over.
_CACHE_BYTES = 16 << 20

_CACHE: "OrderedDict[_PlanKey, Im2colPlan]" = OrderedDict()
_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0
_BYTES = 0


def get_plan(
    channels: int,
    height: int,
    width: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Im2colPlan:
    """The cached plan for one per-sample geometry (thread-safe)."""
    global _HITS, _MISSES, _BYTES
    key = (channels, height, width, *kernel, *stride, *padding)
    with _LOCK:
        plan = _CACHE.get(key)
        if plan is not None:
            _CACHE.move_to_end(key)
            _HITS += 1
            return plan
        _MISSES += 1
    # Build outside the lock (construction can be non-trivial for large
    # geometries); a racing duplicate is discarded harmlessly.
    plan = Im2colPlan(channels, height, width, kernel, stride, padding)
    with _LOCK:
        cached = _CACHE.get(key)
        if cached is not None:
            return cached
        _CACHE[key] = plan
        _BYTES += plan.index.nbytes
        while _BYTES > _CACHE_BYTES and len(_CACHE) > 1:
            _, evicted = _CACHE.popitem(last=False)
            _BYTES -= evicted.index.nbytes
        return plan


def plan_cache_stats() -> Dict[str, int]:
    """``{"size", "hits", "misses"}`` counters of the global plan cache."""
    with _LOCK:
        return {"size": len(_CACHE), "hits": _HITS, "misses": _MISSES}


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    global _HITS, _MISSES, _BYTES
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
        _BYTES = 0


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Unfold an NCHW array into patch columns with its cached plan.

    Returns an array of shape ``(N * out_h * out_w, C * kh * kw)`` whose
    rows are the flattened receptive fields, ordered so that
    ``cols.reshape(N, out_h, out_w, -1)`` recovers spatial layout.

    The returned array comes from the buffer pool; callers that consume
    it within one op (e.g. the conv forward under ``no_grad``) may
    release it back for reuse.
    """
    _, c, h, w = x.shape
    return get_plan(c, h, w, kernel, stride, padding).gather(x, default_pool())


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch columns back.

    Given ``cols`` of shape ``(N * out_h * out_w, C * kh * kw)``, returns
    an array of the original shape ``x_shape`` where every patch element
    has been accumulated into its source position.
    """
    token = _profiler.op_start()
    pool = default_pool()
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    padded = pool.zeros((n, c, h + 2 * ph, w + 2 * pw), cols.dtype)
    patches = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(
        0, 3, 1, 2, 4, 5
    )
    # Accumulate each kernel offset with a strided slice; this loops only
    # over kh*kw (small) rather than over all output positions.
    for i in range(kh):
        h_end = i + sh * out_h
        for j in range(kw):
            w_end = j + sw * out_w
            padded[:, :, i:h_end:sh, j:w_end:sw] += patches[:, :, :, :, i, j]

    if ph or pw:
        # Copy the interior out so the (larger) padded scratch can be
        # recycled instead of staying alive behind a view.
        out = np.empty((n, c, h, w), dtype=cols.dtype)
        np.copyto(out, padded[:, :, ph : ph + h, pw : pw + w])
        pool.release(padded)
    else:
        out = padded
    _profiler.op_end(token, "col2im")
    return out
