"""Reference-backend kernels: fused, bit-identical numpy steps.

These are the executable steps the **reference backend**
(:mod:`repro.compile.backends.reference`) emits when the scheduler
realizes a fused IR tape.  Each step consumes a raw numpy activation
array and produces the next one, drawing every intermediate from the
shared :class:`~repro.tensor.pool.BufferPool` and releasing its input
as soon as it is consumed.  No autograd tensors, no backward closures,
no per-batch weight quantization — those costs were paid once, at
compile time.

Nothing outside the backend layer may import this module — compute
must route through the backend dispatcher so realized models stay
swappable (``tools/compile_lint.py`` enforces this as a tier-1 check).

Bit-identity contract
---------------------
Every step replays the *exact* float operation sequence of the
interpreted forward pass, only in place on pooled buffers (elementwise
IEEE arithmetic is identical in and out of place):

- convolution keeps the interpreter's ``cols @ w_mat.T`` operand
  layouts so the same BLAS sgemm runs on the same values;
- batch norm is NOT algebraically folded into the weights (that would
  change rounding) — the eval-branch op chain ``(x - mean) / std *
  gamma + beta`` is replayed with only ``std = sqrt(var + eps)``
  precomputed;
- ReLU uses the interpreter's mask-multiply (``x * (x > 0)``), not
  ``np.maximum``, preserving ``-0.0`` outputs for negative inputs;
- global average pooling is ``sum * float32(1/count)``, matching
  ``Tensor.mean``, not ``np.mean``;
- AMS noise is drawn through the injector's own
  :meth:`~repro.ams.models.AMSErrorInjector.sample_noise`, reading
  its live ``rng`` / ``row_rngs`` state, so per-request noise streams
  match the interpreted serving path draw for draw; the pre-activation
  is passed through so data-dependent error models see exactly the
  values the interpreter hands them.

Residual-block control flow (main path before downsample, preserving
the sequential noise-draw order) is backend-independent and lives in
:class:`repro.compile.runtime.ResidualStep`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.tensor.im2col import get_plan
from repro.tensor.pool import BufferPool
from repro.tensor.tensor import Tensor, no_grad


# ----------------------------------------------------------------------
# in-place activation appliers
# ----------------------------------------------------------------------
class ReLUApply:
    """``x * (x > 0)`` in place — the interpreter's mask-multiply."""

    def apply(self, dst: np.ndarray, pool: BufferPool) -> None:
        mask = pool.get(dst.shape, dst.dtype)
        np.greater(dst, 0, out=mask)
        dst *= mask
        pool.release(mask)


class ClipApply:
    """Clipped ReLU: clamp to ``[0, ceiling]`` in place."""

    def __init__(self, ceiling: float):
        self.ceiling = ceiling

    def apply(self, dst: np.ndarray, pool: BufferPool) -> None:
        dst.clip(0.0, self.ceiling, out=dst)


class QuantClipApply:
    """DoReFa quantized ReLU: clip to [0, ceiling], round to ``bx`` bits."""

    def __init__(self, bx: int, ceiling: float):
        self.bx = bx
        self.ceiling = ceiling
        self.levels = (1 << bx) - 1 if bx < 32 else 0
        self.inv_ceiling = np.float32(1.0 / ceiling)
        self.ceiling_f32 = np.float32(ceiling)

    def apply(self, dst: np.ndarray, pool: BufferPool) -> None:
        dst.clip(0.0, self.ceiling, out=dst)
        if self.bx >= 32:
            return
        if self.ceiling != 1.0:
            dst *= self.inv_ceiling
        dst *= self.levels
        dst.round(out=dst)
        dst /= self.levels
        if self.ceiling != 1.0:
            dst *= self.ceiling_f32


class BNApply:
    """Eval-mode batch norm replayed in place on an NCHW buffer.

    Only ``std = sqrt(running_var + eps)`` is precomputed (it is the
    single non-trivial derived quantity); mean/gamma/beta are broadcast
    *views* of the live module's arrays, so in-place mutation of the
    running stats or parameters flows through.  Rebinding ``.data`` to
    a new array (``load_state_dict``) leaves the views stale — which is
    exactly what the model fingerprint that keys the compiled-model
    cache detects, forcing a recompile.
    """

    VIEW = (1, -1, 1, 1)

    def __init__(self, bn):
        self.bn = bn
        self.std = np.sqrt(bn.running_var.reshape(self.VIEW) + bn.eps)
        self.mean = bn.running_mean.reshape(self.VIEW)
        self.gamma = bn.weight.data.reshape(self.VIEW)
        self.beta = bn.bias.data.reshape(self.VIEW)

    def mean_view(self) -> np.ndarray:
        return self.mean

    def apply(self, dst: np.ndarray, subtract_mean: bool) -> None:
        if subtract_mean:
            dst -= self.mean
        dst /= self.std
        dst *= self.gamma
        dst += self.beta


# ----------------------------------------------------------------------
# steps
# ----------------------------------------------------------------------
class InputQuantStep:
    """First-layer input treatment (``InputQuantizer.forward``)."""

    op = "compiled.input_quant"

    def __init__(self, module):
        self.module = module

    def run(self, x: np.ndarray, ctx) -> np.ndarray:
        m = self.module
        scale = m.max_abs
        if scale is None:
            scale = float(np.abs(x).max())
        if scale == 0.0:
            scale = 1.0
        buf = ctx.pool.get(x.shape, x.dtype)
        np.multiply(x, np.float32(1.0 / scale), out=buf)
        buf.clip(-1.0, 1.0, out=buf)
        if m.bx < 32:
            steps = (1 << (m.bx - 1)) - 1
            buf *= steps
            buf.round(out=buf)
            buf /= steps
        ctx.release(x)
        return ctx.own(buf)


class FusedConvStep:
    """conv (pre-quantized weights) + probes + AMS noise + BN + act."""

    op = "compiled.conv"

    def __init__(
        self,
        w_mat: np.ndarray,
        bias,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: Tuple[int, int],
        probes: List,
        injector,
        bn: Optional[BNApply],
        act,
    ):
        self.w_mat = w_mat  # (c_out, c_in*kh*kw), quantized at compile
        self.bias = bias
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.probes = probes
        self.injector = injector
        self.bn = bn
        self.act = act
        self._plan = None
        self._plan_src = None

    def run(self, x: np.ndarray, ctx) -> np.ndarray:
        pool = ctx.pool
        n, c, h, w = x.shape
        if self._plan_src != (c, h, w):
            self._plan = get_plan(
                c, h, w, self.kernel, self.stride, self.padding
            )
            self._plan_src = (c, h, w)
        plan = self._plan
        cols = plan.gather(x, pool)
        ctx.release(x)
        c_out = self.w_mat.shape[0]
        out_mat = pool.get((cols.shape[0], c_out), cols.dtype)
        np.matmul(cols, self.w_mat.T, out=out_mat)
        pool.release(cols)
        if self.bias is not None:
            out_mat += self.bias.data
        # The interpreter's NCHW result is exactly this transpose view.
        view = out_mat.reshape(n, plan.out_h, plan.out_w, c_out).transpose(
            0, 3, 1, 2
        )
        for probe in self.probes:
            probe.observe(view)
        dst = pool.get(view.shape, view.dtype)
        inj = self.injector
        if inj is not None and inj.active and inj.error_std != 0.0:
            noise = inj.sample_noise(view.shape, view.dtype, pool, pre=view)
            np.add(view, noise, out=dst)
            pool.release(noise)
            if self.bn is not None:
                self.bn.apply(dst, subtract_mean=True)
        elif self.bn is not None:
            np.subtract(view, self.bn.mean_view(), out=dst)
            self.bn.apply(dst, subtract_mean=False)
        else:
            np.copyto(dst, view)
        pool.release(out_mat)
        if self.act is not None:
            self.act.apply(dst, pool)
        return ctx.own(dst)


class FusedLinearStep:
    """linear (pre-quantized weights) + probes + AMS noise."""

    op = "compiled.linear"

    def __init__(self, w: np.ndarray, bias, probes: List, injector):
        self.w = w  # (out_features, in_features)
        self.bias = bias
        self.probes = probes
        self.injector = injector

    def run(self, x: np.ndarray, ctx) -> np.ndarray:
        pool = ctx.pool
        out = pool.get((x.shape[0], self.w.shape[0]), x.dtype)
        np.matmul(x, self.w.T, out=out)
        if self.bias is not None:
            out += self.bias.data
        for probe in self.probes:
            probe.observe(out)
        inj = self.injector
        if inj is not None and inj.active and inj.error_std != 0.0:
            noise = inj.sample_noise(out.shape, out.dtype, pool, pre=out)
            out += noise
            pool.release(noise)
        ctx.release(x)
        return ctx.own(out)


class GlobalPoolStep:
    """Global average pooling, replaying ``Tensor.mean``'s arithmetic."""

    op = "compiled.gap"

    def run(self, x: np.ndarray, ctx) -> np.ndarray:
        n, c, h, w = x.shape
        out = ctx.pool.get((n, c), x.dtype)
        np.sum(x, axis=(2, 3), out=out)
        out *= np.float32(1.0 / (h * w))
        ctx.release(x)
        return ctx.own(out)


class FlattenStep:
    """Flatten trailing dims; a pure view when input is contiguous."""

    op = "compiled.flatten"

    def run(self, x: np.ndarray, ctx) -> np.ndarray:
        if x.ndim == 2:
            return x
        out = x.reshape(x.shape[0], -1)
        backing = ctx.disown(x)
        if backing is not None:
            ctx.own(out, backing)
        return out


class ActStep:
    """Standalone activation (between un-fusable layers, e.g. MLP)."""

    op = "compiled.act"

    def __init__(self, act):
        self.act = act

    def run(self, x: np.ndarray, ctx) -> np.ndarray:
        backing = ctx.disown(x)
        if backing is None:
            # Caller-owned input: copy before mutating in place.
            buf = ctx.pool.get(x.shape, x.dtype)
            np.copyto(buf, x)
            x = backing = buf
        self.act.apply(x, ctx.pool)
        return ctx.own(x, backing)


class ModuleFallbackStep:
    """Run an un-fused module through the interpreter under ``no_grad``.

    Used for the rare layers with no fused kernel (the ImageNet stem's
    max pool); identical output by construction since it *is* the
    interpreted op.
    """

    op = "compiled.fallback"

    def __init__(self, module):
        self.module = module

    def run(self, x: np.ndarray, ctx) -> np.ndarray:
        with no_grad():
            out = self.module(Tensor(x)).data
        ctx.release(x)
        return ctx.own(out)
