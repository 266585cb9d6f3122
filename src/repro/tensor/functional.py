"""Neural-network operators built on the autograd :class:`Tensor`.

Heavy operators (convolution, pooling, log-softmax) are implemented as
primitives with hand-written backward closures for speed; everything
else composes differentiable tensor ops.

Two primitives here are specific to the paper's method:

- :func:`straight_through` — arbitrary non-differentiable forward with
  identity backward, the straight-through estimator used by DoReFa
  quantization [28].
- AMS error injection is ordinary addition of a ``requires_grad=False``
  noise tensor, so the error perturbs only the forward pass, exactly as
  in Section 2 of the paper ("we inject this error during only the
  forward pass, leaving the backward pass untouched").
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import ShapeError
from repro.tensor.im2col import col2im, conv_output_size, im2col
from repro.tensor.pool import default_pool
from repro.tensor.tensor import Tensor, _ensure_tensor, is_grad_enabled
from repro.utils import profiler as _profiler

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation over an NCHW input.

    The forward pass unfolds the input with its cached
    :class:`~repro.tensor.im2col.Im2colPlan` and runs one GEMM; the
    result is the ``(N, oh, ow, C_out)`` GEMM output viewed as NCHW.
    The input gradient is computed as shifted GEMMs
    (:func:`_conv_grad_input`), the weight gradient as
    ``g_mat.T @ cols``.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, kH, kW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding:
        Int or (h, w) pair.
    """
    token = _profiler.op_start()
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c_in}, weight expects {c_in_w}"
        )
    out_h = conv_output_size(h, kh, stride[0], padding[0])
    out_w = conv_output_size(w, kw, stride[1], padding[1])

    cols = im2col(x.data, (kh, kw), stride, padding)  # (N*oh*ow, C*kh*kw)
    w_data = weight.data
    out = cols @ w_data.reshape(c_out, -1).T  # (N*oh*ow, C_out)
    if bias is not None:
        out = out + bias.data
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)

    if not is_grad_enabled():
        # Inference: skip the backward-closure construction entirely;
        # the patch-column workspace is immediately reusable.
        result = Tensor(out)
        default_pool().release(cols)
        _profiler.op_end(token, "conv2d.forward")
        return result

    x_shape = x.shape

    def grad_x(g: np.ndarray) -> np.ndarray:
        token = _profiler.op_start()
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        result = _conv_grad_input(g_mat, w_data, x_shape, stride, padding)
        _profiler.op_end(token, "conv2d.grad_x")
        return result

    def grad_w(g: np.ndarray) -> np.ndarray:
        token = _profiler.op_start()
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        result = (g_mat.T @ cols).reshape(weight.shape)
        _profiler.op_end(token, "conv2d.grad_w")
        return result

    parents = [(x, grad_x), (weight, grad_w)]
    if bias is not None:
        parents.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    result = Tensor._result(out, parents)
    _profiler.op_end(token, "conv2d.forward")
    return result


def _conv_grad_input(
    g_mat: np.ndarray,
    weight: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Convolution input gradient as shifted GEMMs, with no col2im.

    Kernel offset ``(i, j)`` sends ``g_mat @ weight[:, :, i, j]`` (one
    ``(N*oh*ow, C_in)`` block) back to the input positions it read,
    which in a zero-padded NHWC buffer is one strided slice.  The
    blocks are added in col2im's ``(i, j)`` order, so every input
    element sees the same additions of the same products as
    ``col2im(g_mat @ w_mat)``, and the result is bitwise equal to it.
    The blocks come from one GEMM per offset where the host BLAS rounds
    those like the columns of the single ``g_mat @ w_mat`` GEMM
    (:func:`_offset_gemms_match`), and from slices of that single GEMM
    elsewhere.  Returns a C-contiguous NCHW array, the layout col2im
    returned.

    The scratch is plain numpy, not pooled: its shapes match no other
    buffer, so parked copies would only add resident memory.
    """
    n, c_in, h, w = x_shape
    c_out, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    dtype = np.result_type(g_mat.dtype, weight.dtype)

    per_offset = _offset_gemms_match(g_mat, weight)
    if per_offset:
        block = np.empty((g_mat.shape[0], c_in), dtype)
        block_nhwc = block.reshape(n, out_h, out_w, c_in)
    else:
        blocks = (g_mat @ weight.reshape(c_out, -1)).reshape(
            n, out_h, out_w, c_in, kh, kw
        )
    padded = np.zeros((n, h + 2 * ph, w + 2 * pw, c_in), dtype)
    for i in range(kh):
        h_end = i + sh * out_h
        for j in range(kw):
            w_end = j + sw * out_w
            if per_offset:
                np.matmul(g_mat, np.ascontiguousarray(weight[:, :, i, j]), out=block)
                padded[:, i:h_end:sh, j:w_end:sw] += block_nhwc
            else:
                padded[:, i:h_end:sh, j:w_end:sw] += blocks[..., i, j]
    out = np.empty((n, c_in, h, w), dtype=dtype)
    np.copyto(out, padded[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2))
    return out


#: :func:`_offset_gemms_match` verdicts by GEMM shape and dtypes.
_OFFSET_GEMMS_MATCH: Dict[Tuple[int, int, int, int, str, str], bool] = {}


def _offset_gemms_match(g_mat: np.ndarray, weight: np.ndarray) -> bool:
    """Whether per-offset GEMMs reproduce ``g_mat @ w_mat`` bit for bit.

    ``g_mat @ weight[:, :, i, j]`` holds the same dot products as the
    ``(i, j)`` columns of ``g_mat @ weight.reshape(c_out, -1)``, but a
    BLAS may round them differently: it picks kernels (and numpy picks
    gemv for a single column) from the operand shapes.  On OpenBLAS
    0.3.31, for instance, 17 or 24 input channels with 32 output
    channels over 1024 rows differ in the last bits, as do 16 input
    and 512 output channels over 64 rows.  Since the choice depends on
    shapes and not on values, both products are compared once per
    shape on fixed pseudo-random operands and the verdict is cached.
    The per-offset blocks are contiguous, which makes their
    accumulation about twice as fast as that of strided slices of the
    single product.
    """
    c_out, c_in, kh, kw = weight.shape
    rows = g_mat.shape[0]
    key = (rows, c_out, c_in, kh * kw, g_mat.dtype.str, weight.dtype.str)
    verdict = _OFFSET_GEMMS_MATCH.get(key)
    if verdict is None:
        rng = np.random.default_rng(0)
        g = rng.standard_normal((rows, c_out)).astype(g_mat.dtype)
        w = rng.standard_normal(weight.shape).astype(weight.dtype)
        full = (g @ w.reshape(c_out, -1)).reshape(rows, c_in, kh, kw)
        block = np.empty((rows, c_in), full.dtype)
        verdict = all(
            np.array_equal(
                np.matmul(g, np.ascontiguousarray(w[:, :, i, j]), out=block),
                full[..., i, j],
            )
            for i in range(kh)
            for j in range(kw)
        )
        _OFFSET_GEMMS_MATCH[key] = verdict
    return verdict


# ----------------------------------------------------------------------
# pooling
# ----------------------------------------------------------------------
def max_pool2d(
    x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None,
    padding: IntPair = 0,
) -> Tensor:
    """Max pooling over an NCHW input (supports overlapping windows)."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel[0], stride[0], padding[0])
    out_w = conv_output_size(w, kernel[1], stride[1], padding[1])

    flat = x.data.reshape(n * c, 1, h, w)
    if padding != (0, 0):
        # Pad with -inf so padding never wins the max.
        flat = np.pad(
            flat,
            ((0, 0), (0, 0), (padding[0], padding[0]), (padding[1], padding[1])),
            mode="constant",
            constant_values=-np.inf,
        )
    cols = im2col(flat, kernel, stride, (0, 0))  # (N*C*oh*ow, kh*kw)
    arg = cols.argmax(axis=1)
    rows = np.arange(cols.shape[0])
    out = cols[rows, arg].reshape(n, c, out_h, out_w)
    cols_shape, cols_dtype = cols.shape, cols.dtype
    # The backward needs only arg, not the column values: recycle now.
    default_pool().release(cols)

    padded_shape = flat.shape

    def grad_x(g: np.ndarray) -> np.ndarray:
        grad_cols = np.zeros(cols_shape, dtype=cols_dtype)
        grad_cols[rows, arg] = g.reshape(-1)
        grad_padded = col2im(grad_cols, padded_shape, kernel, stride, (0, 0))
        grad_padded = grad_padded.reshape(
            n, c, padded_shape[2], padded_shape[3]
        )
        ph, pw = padding
        if ph or pw:
            grad_padded = grad_padded[:, :, ph : ph + h, pw : pw + w]
        return grad_padded

    return Tensor._result(out, [(x, grad_x)])


def avg_pool2d(
    x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None,
    padding: IntPair = 0,
) -> Tensor:
    """Average pooling over an NCHW input."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel[0], stride[0], padding[0])
    out_w = conv_output_size(w, kernel[1], stride[1], padding[1])
    window = kernel[0] * kernel[1]

    flat = x.data.reshape(n * c, 1, h, w)
    cols = im2col(flat, kernel, stride, padding)
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    # The backward needs only the window size, not the columns.
    default_pool().release(cols)

    flat_shape = flat.shape

    def grad_x(g: np.ndarray) -> np.ndarray:
        grad_cols = np.repeat(
            g.reshape(-1, 1) / window, window, axis=1
        ).astype(g.dtype)
        grad_flat = col2im(grad_cols, flat_shape, kernel, stride, padding)
        return grad_flat.reshape(n, c, h, w)

    return Tensor._result(out, [(x, grad_x)])


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over spatial dims: ``(N, C, H, W) -> (N, C)``."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# linear / normalization
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in)."""
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel axis of NCHW (or NC) input.

    In training mode, normalizes with batch statistics and updates
    ``running_mean`` / ``running_var`` in place (exponential moving
    average with ``momentum``, PyTorch convention).  In eval mode, uses
    the running statistics.
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        view = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        view = (1, -1)
    else:
        raise ShapeError(f"batch_norm expects 2-D or 4-D input, got {x.shape}")

    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        count = x.size // x.shape[1]
        unbiased = var.data * (count / max(count - 1, 1))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.data.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased.reshape(-1)
        x_hat = (x - mean) / (var + eps).sqrt()
    else:
        mean = Tensor(running_mean.reshape(view))
        std = Tensor(np.sqrt(running_var.reshape(view) + eps))
        x_hat = (x - mean) / std
    return x_hat * gamma.reshape(view) + beta.reshape(view)


# ----------------------------------------------------------------------
# activations
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def clipped_relu(x: Tensor, ceiling: float = 1.0) -> Tensor:
    """ReLU that also clips at ``ceiling``.

    DoReFa replaces every activation function with a ReLU that clips at
    1, which bounds the next layer's activations to [0, 1] and fixes the
    binary point for the AMS error model (paper Section 2).
    """
    return x.clip(0.0, ceiling)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid, computed stably via tanh."""
    out_data = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
    return Tensor._result(
        out_data, [(x, lambda g: g * out_data * (1.0 - out_data))]
    )


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax primitive."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    softmax = np.exp(out_data)

    def grad_x(g: np.ndarray) -> np.ndarray:
        return g - softmax * g.sum(axis=axis, keepdims=True)

    return Tensor._result(out_data, [(x, grad_x)])


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits (N, K) and integer labels (N,).

    Implemented as a primitive so the backward is the familiar
    ``(softmax - onehot) / N``.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"cross_entropy got logits {logits.shape}, labels {labels.shape}"
        )
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(n), labels].mean()
    probs = np.exp(log_probs)

    def grad_logits(g: np.ndarray) -> np.ndarray:
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return grad * (g / n)

    return Tensor._result(
        np.asarray(loss, dtype=logits.dtype), [(logits, grad_logits)]
    )


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    target = _ensure_tensor(target)
    diff = pred - target
    return (diff * diff).mean()


# ----------------------------------------------------------------------
# estimator primitives
# ----------------------------------------------------------------------
def straight_through(x: Tensor, forward_fn: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Apply ``forward_fn`` to the values; backpropagate identity.

    This is the straight-through estimator (STE): the forward pass sees
    the (typically non-differentiable) quantized values while the
    backward pass treats the op as the identity, which is how DoReFa
    trains through its quantizers.
    """
    out_data = np.asarray(forward_fn(x.data), dtype=x.dtype)
    if out_data.shape != x.shape:
        raise ShapeError(
            "straight_through forward_fn changed shape "
            f"{x.shape} -> {out_data.shape}"
        )
    return Tensor._result(out_data, [(x, lambda g: g)])


def add_forward_noise(x: Tensor, noise: np.ndarray) -> Tensor:
    """Add a fixed noise sample to the forward value; identity backward.

    Because ``noise`` is a constant w.r.t. the graph, d(out)/d(x) is
    exactly 1 — the backward pass is untouched, matching the paper's
    injection scheme.
    """
    noise = np.asarray(noise, dtype=x.dtype)
    return Tensor._result(x.data + noise, [(x, lambda g: g)])


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity in eval mode."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return Tensor._result(x.data * mask, [(x, lambda g: g * mask)])
