"""The fast backend: cache-blocked, thread-parallel GEMM convolution.

Numerically equivalent to the reference backend — *not* bit-identical.
Three transformations buy the speed, each changing only float rounding
(never the algebra), which is why this backend is gated by the
tolerance parity suite instead of the exact-equality grid:

- **batch-norm folding**: the eval-mode chain ``((conv + bias) - mean)
  / std * gamma + beta`` collapses into the GEMM itself (``w' = w *
  gamma/std``, ``b' = (bias - mean) * gamma/std + beta``), deleting
  three full-tensor elementwise passes per convolution;
- **shift-and-GEMM** for deep inputs: a k x k convolution over an NHWC
  view decomposes into k*k accumulated ``(positions, c_in) @ (c_in,
  c_out)`` GEMMs over *shifted slices* of the padded input — no im2col
  matrix is ever materialised, so the dominant cost of the reference
  kernel (the patch gather, ~3x the GEMM itself on the repo's shapes)
  disappears;
- **cache-blocked panels** for shallow inputs (where k*k GEMM-call
  overhead would dominate): instead of materialising the whole im2col
  matrix (megabytes at batch 32) and then running one huge GEMM, the
  batch is processed in sample chunks sized to the blocking budget —
  gather a panel, GEMM it, add bias, activate and transpose it to NCHW
  while it is still cache-hot, then reuse the same scratch for the
  next panel;
- **single-pass activations**: ReLU is one ``np.maximum`` (the
  reference replays the interpreter's two-pass mask-multiply) and the
  DoReFa act-quant chain pre-combines its scale factors.

When the host has multiple cores, panels are fanned out over a shared
daemon thread pool (BLAS releases the GIL inside each panel's GEMM).
All pool traffic stays on the calling thread — worker threads touch
only preallocated scratch — so the runtime's recorded buffer tapes
replay correctly.  When ``numba`` is importable the act-quant chain is
additionally JIT-fused into one pass; without it the numpy chain runs
(this container ships no numba, so the numpy path is the tested one).

The backend declines (returns ``None`` for) ops it cannot accelerate
or must not touch — convolutions with probes attached (probes must
observe the *unfolded* pre-BN activation, which no longer exists once
the weights are folded), linear layers, pooling, input quantization —
and the scheduler falls back to the bit-identical reference kernels
per op.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.compile.backends import Backend, register_backend
from repro.compile.ir import ActSpec
from repro.tensor.im2col import get_plan, pad_nchw

__all__ = ["FastBackend", "PARITY_ATOL"]

#: Documented logit tolerance of the fast backend vs the interpreter
#: (max absolute error; the parity suite also requires top-1
#: agreement).  BN folding perturbs each conv output by O(eps_f32 *
#: |activation|) and the perturbation is re-clamped by every act-quant
#: stage, so end-to-end logit drift stays orders of magnitude below
#: this bound on the repo's model zoo.
PARITY_ATOL = 1e-3

#: Per-panel blocking budget: gathered patch columns + GEMM output for
#: one chunk should stay inside a typical per-core L2 slice.
_PANEL_BYTES = 512 * 1024

#: Panels smaller than this many column elements are not worth a
#: thread hop (the GEMM finishes before a task could be scheduled).
_MIN_PARALLEL_ELEMENTS = 1 << 18

_MAX_WORKERS = min(8, os.cpu_count() or 1)

#: Input-channel threshold for the shift-and-GEMM strategy.  Below it
#: (the 3-channel image stem) each shifted GEMM is too skinny to beat
#: the gather it replaces, so the blocked-panel path runs instead.
_SHIFT_MIN_CHANNELS = 8

_EXECUTOR: Optional[ThreadPoolExecutor] = None
_EXECUTOR_LOCK = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None:
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=_MAX_WORKERS,
                thread_name_prefix="compile-fast",
            )
        return _EXECUTOR


def _reset_executor_in_child() -> None:
    # A forked child inherits the pool object but none of its worker
    # threads (and possibly a lock held mid-submit): start afresh.
    global _EXECUTOR, _EXECUTOR_LOCK
    _EXECUTOR = None
    _EXECUTOR_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_executor_in_child)


# Optional numba JIT for the act-quant chain: one fused pass instead of
# four numpy passes.  Gated at import *and* guarded per-call — any
# numba failure silently drops back to the numpy chain.
try:  # pragma: no cover - numba is absent in the CI container
    from numba import njit as _njit

    @_njit(cache=False)
    def _quant_clip_jit(flat, ceiling, scale, inv_scale):
        for i in range(flat.shape[0]):
            v = flat[i]
            if v < np.float32(0.0):
                v = np.float32(0.0)
            elif v > ceiling:
                v = ceiling
            flat[i] = np.rint(v * scale) * inv_scale

    _HAVE_NUMBA = True
except Exception:  # noqa: BLE001 - any import/jit failure disables it
    _quant_clip_jit = None
    _HAVE_NUMBA = False


# ----------------------------------------------------------------------
# single-pass activation appliers
# ----------------------------------------------------------------------
class FastReLUApply:
    """One-pass ``np.maximum`` (reference uses a two-pass mask-multiply)."""

    def apply(self, dst: np.ndarray, pool) -> None:
        np.maximum(dst, np.float32(0.0), out=dst)


class FastClipApply:
    """Clipped ReLU; already a single pass in the reference backend."""

    def __init__(self, ceiling: float):
        self.ceiling = ceiling

    def apply(self, dst: np.ndarray, pool) -> None:
        dst.clip(0.0, self.ceiling, out=dst)


class FastQuantClipApply:
    """DoReFa act-quant with pre-combined scales (4 passes, or 1 jitted).

    The reference applier rescales by ``1/ceiling`` and ``levels``
    separately (replaying the interpreter); here the products
    ``levels/ceiling`` and ``ceiling/levels`` are folded into single
    float32 factors.  Values near a rounding boundary may snap to the
    neighbouring grid step — a one-ulp-of-the-grid difference covered
    by the parity tolerance.
    """

    def __init__(self, bx: int, ceiling: float):
        self.bx = bx
        self.ceiling = np.float32(ceiling)
        levels = (1 << bx) - 1 if bx < 32 else 0
        self.scale = np.float32(levels / ceiling) if levels else None
        self.inv_scale = np.float32(ceiling / levels) if levels else None

    def apply(self, dst: np.ndarray, pool) -> None:
        if self.scale is None:
            dst.clip(0.0, self.ceiling, out=dst)
            return
        if _HAVE_NUMBA:  # pragma: no cover - exercised only with numba
            try:
                _quant_clip_jit(
                    dst.reshape(-1), self.ceiling, self.scale, self.inv_scale
                )
                return
            except Exception:  # noqa: BLE001 - fall back to numpy
                pass
        dst.clip(0.0, self.ceiling, out=dst)
        dst *= self.scale
        dst.round(out=dst)
        dst *= self.inv_scale


def _data_dependent(injector) -> bool:
    """Whether ``injector`` hosts a model that reads the pre-activation."""
    if injector is None:
        return False
    model = getattr(injector, "model", None)
    return bool(model is not None and model.data_dependent)


def _lower_act_applier(act: Optional[ActSpec]):
    if act is None:
        return None
    if act.kind == "relu":
        return FastReLUApply()
    if act.kind == "clip":
        return FastClipApply(act.ceiling)
    if act.kind == "quant_clip":
        return FastQuantClipApply(act.bx, act.ceiling)
    return None


# ----------------------------------------------------------------------
# the blocked-GEMM convolution step
# ----------------------------------------------------------------------
class FastConvStep:
    """im2col-GEMM conv with folded BN, blocked panels, fused act.

    Executes ``dst = act(conv(x, w') + b' [+ scaled noise])`` where the
    batch-norm affine lives inside ``w'``/``b'``.  The batch is
    processed in sample chunks; each chunk's patch gather, GEMM, bias,
    activation and NCHW transpose all happen while the panel is
    cache-hot.  Chunks fan out over the shared thread pool when the
    host has cores to spare — every buffer is drawn from ``ctx.pool``
    on the calling thread first, keeping the recorded tape
    deterministic.
    """

    op = "compiled.fast_conv"

    def __init__(
        self,
        w_mat: np.ndarray,
        bias,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
        injector,
        bn,
        act,
    ):
        scale = None
        if bn is not None:
            std = np.sqrt(bn.running_var + bn.eps).astype(np.float32)
            scale = (bn.weight.data / std).astype(np.float32)
        bias_vec = (
            np.zeros(w_mat.shape[0], dtype=np.float32)
            if bias is None
            else bias.data.astype(np.float32)
        )
        if scale is not None:
            folded_w = (w_mat * scale[:, None]).astype(np.float32)
            folded_b = (
                (bias_vec - bn.running_mean) * scale + bn.bias.data
            ).astype(np.float32)
        else:
            folded_w = w_mat.astype(np.float32)
            folded_b = bias_vec
        #: (K, c_out) C-contiguous so each panel GEMM is a plain sgemm.
        self.w_t = np.ascontiguousarray(folded_w.T)
        #: Per-offset (c_in, c_out) weight slices for shift-and-GEMM.
        kh, kw = kernel
        c_in = folded_w.shape[1] // (kh * kw)
        w4 = folded_w.reshape(folded_w.shape[0], c_in, kh, kw)
        self.w_off = [
            [np.ascontiguousarray(w4[:, :, dy, dx].T) for dx in range(kw)]
            for dy in range(kh)
        ]
        self.bias_vec = folded_b
        self.noise_scale = scale  # None when no BN is folded
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.injector = injector
        self.act = _lower_act_applier(act)
        self._plan = None
        self._plan_src = None

    # -- blocking ------------------------------------------------------
    def _chunk_samples(self, positions: int, patch_len: int, c_out: int) -> int:
        """Samples per panel so gather+GEMM scratch fits the budget."""
        per_sample = positions * (patch_len + c_out) * 4
        return max(1, _PANEL_BYTES // max(per_sample, 1))

    def _worker_count(self, n_chunks: int, elements: int) -> int:
        if (
            _MAX_WORKERS < 2
            or n_chunks < 2
            or elements < _MIN_PARALLEL_ELEMENTS
        ):
            return 1
        return min(_MAX_WORKERS, n_chunks)

    # -- execution -----------------------------------------------------
    def run(self, x: np.ndarray, ctx) -> np.ndarray:
        pool = ctx.pool
        n, c, h, w = x.shape
        if self._plan_src != (c, h, w):
            self._plan = get_plan(
                c, h, w, self.kernel, self.stride, self.padding
            )
            self._plan_src = (c, h, w)
        plan = self._plan
        dst = pool.get((n, self.w_t.shape[1], plan.out_h, plan.out_w), x.dtype)

        noise = None
        inj = self.injector
        if inj is not None and inj.active and inj.error_std != 0.0:
            # Same draw call (shape, RNG streams) as the reference
            # kernel, so request-keyed noise reproducibility survives
            # the backend swap; the BN scale is folded into the noise
            # once, here, instead of rescaling the whole activation.
            noise = inj.sample_noise(dst.shape, x.dtype, pool)
            if self.noise_scale is not None:
                noise *= self.noise_scale.reshape(1, -1, 1, 1)

        if c >= _SHIFT_MIN_CHANNELS:
            self._run_shift(x, dst, noise, plan, pool)
        else:
            self._run_panels(x, dst, noise, plan, pool)

        if noise is not None:
            pool.release(noise)
        ctx.release(x)
        return ctx.own(dst)

    def _run_shift(self, x, dst, noise, plan, pool) -> None:
        """k*k accumulated GEMMs over shifted NHWC slices (no im2col)."""
        n, c, h, w = x.shape
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        oh, ow = plan.out_h, plan.out_w
        c_out = self.w_t.shape[1]

        # One transposed copy pads straight into channels-last layout.
        nhwc = pool.get((n, h + 2 * ph, w + 2 * pw, c), x.dtype)
        if ph or pw:
            nhwc.fill(0)
            nhwc[:, ph : ph + h, pw : pw + w, :] = x.transpose(0, 2, 3, 1)
        else:
            np.copyto(nhwc, x.transpose(0, 2, 3, 1))

        acc = pool.get((n, oh, ow, c_out), x.dtype)
        workers = self._worker_count(n, n * oh * ow * c)
        chunk = -(-n // workers)
        chunks = [(i, min(i + chunk, n)) for i in range(0, n, chunk)]
        # All scratch is drawn on the calling thread, in a fixed order,
        # so the runtime's buffer tape records a deterministic sequence.
        scratch = [
            pool.get((chunk, oh, ow, c_out), x.dtype) for _ in range(workers)
        ]

        def _run_chunk(bounds: Tuple[int, int], slot: int) -> None:
            i0, i1 = bounds
            a = acc[i0:i1]
            tmp = scratch[slot][: i1 - i0]
            first = True
            for dy in range(kh):
                for dx in range(kw):
                    view = nhwc[
                        i0:i1, dy : dy + sh * oh : sh, dx : dx + sw * ow : sw
                    ]
                    if first:
                        np.matmul(view, self.w_off[dy][dx], out=a)
                        first = False
                    else:
                        np.matmul(view, self.w_off[dy][dx], out=tmp)
                        a += tmp
            a += self.bias_vec
            if noise is not None:
                a += noise[i0:i1].transpose(0, 2, 3, 1)
            if self.act is not None:
                self.act.apply(a, pool)
            np.copyto(dst[i0:i1], a.transpose(0, 3, 1, 2))

        if workers == 1:
            _run_chunk(chunks[0], 0)
        else:
            futures = [
                _executor().submit(_run_chunk, bounds, slot)
                for slot, bounds in enumerate(chunks)
            ]
            for future in futures:
                future.result()

        for tmp in scratch:
            pool.release(tmp)
        pool.release(acc)
        pool.release(nhwc)

    def _run_panels(self, x, dst, noise, plan, pool) -> None:
        """Blocked im2col panels: gather, GEMM, fuse while cache-hot."""
        n = x.shape[0]
        positions = plan.out_h * plan.out_w
        patch_len = plan.patch_len
        c_out = self.w_t.shape[1]

        padded = pad_nchw(x, self.padding, pool)
        src2d = (x if padded is None else padded).reshape(n, -1)

        chunk = min(n, self._chunk_samples(positions, patch_len, c_out))
        chunks = [(i, min(i + chunk, n)) for i in range(0, n, chunk)]
        workers = self._worker_count(
            len(chunks), n * positions * patch_len
        )

        # All scratch is drawn on the calling thread, in a fixed order,
        # so the runtime's buffer tape records a deterministic sequence.
        scratch = [
            (
                pool.get((chunk, positions, patch_len), x.dtype),
                pool.get((chunk * positions, c_out), x.dtype),
            )
            for _ in range(workers)
        ]

        def _run_chunks(bounds: List[Tuple[int, int]], slot: int) -> None:
            panel, pout = scratch[slot]
            for i0, i1 in bounds:
                cn = i1 - i0
                cols = panel[:cn]
                src2d[i0:i1].take(plan.index, axis=1, out=cols)
                omat = pout[: cn * positions]
                np.matmul(
                    cols.reshape(cn * positions, patch_len),
                    self.w_t,
                    out=omat,
                )
                omat += self.bias_vec
                nhwc = omat.reshape(cn, plan.out_h, plan.out_w, c_out)
                if noise is not None:
                    nhwc += noise[i0:i1].transpose(0, 2, 3, 1)
                if self.act is not None:
                    self.act.apply(omat, pool)
                np.copyto(dst[i0:i1], nhwc.transpose(0, 3, 1, 2))

        if workers == 1:
            _run_chunks(chunks, 0)
        else:
            futures = [
                _executor().submit(_run_chunks, chunks[slot::workers], slot)
                for slot in range(workers)
            ]
            for future in futures:
                future.result()

        for panel, pout in scratch:
            pool.release(pout)
            pool.release(panel)
        if padded is not None:
            pool.release(padded)


@register_backend
class FastBackend(Backend):
    """Blocked-GEMM kernels with folded BN; tolerance-gated parity."""

    name = "fast"

    def lower(self, op):
        if (
            op.kind == "conv"
            and not op.probes
            and not _data_dependent(op.injector)
        ):
            return FastConvStep(
                op.w_mat,
                op.bias,
                op.kernel,
                op.stride,
                op.padding,
                op.injector,
                op.bn,
                op.act,
            )
        # Probed convs need the unfolded pre-BN activation, and
        # data-dependent error models need the pre-activation this
        # backend never materialises (noise is pre-drawn by shape
        # before the GEMM); linear, pooling and input-quant ops have
        # nothing left to accelerate.  Declining routes them to the
        # reference backend per op.
        return None

    def lower_act(self, act):
        return _lower_act_applier(act)
