"""Reference conv kernels for differential tests of ``F.conv2d``.

:func:`reference_conv2d` is the conv the interpreter ran before its
gather plan and shift-GEMM input gradient: a strided-view ``im2col``
copy, one GEMM, ``col2im`` for the input gradient and ``g_mat.T @
cols`` for the weight gradient.  The current kernel must match it bit
for bit.  The ``oracle_*`` functions are float64 loop references for
the two gradients (``tests/tensor/test_im2col.py`` has the forward
one).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.im2col import col2im, conv_output_size
from repro.tensor.tensor import Tensor, is_grad_enabled


def _pair(value):
    return (value, value) if isinstance(value, int) else tuple(value)


def strided_im2col(x, kernel, stride, padding):
    """Patch columns through an ``as_strided`` view and one copy."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    s = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s[0], s[1], s[2] * sh, s[3] * sw, s[2], s[3]),
        writeable=False,
    )
    return np.ascontiguousarray(patches.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * out_h * out_w, c * kh * kw
    )


def reference_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Drop-in for ``F.conv2d``: im2col -> GEMM -> col2im."""
    stride, padding = _pair(stride), _pair(padding)
    n, _, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride[0], padding[0])
    out_w = conv_output_size(w, kw, stride[1], padding[1])
    cols = strided_im2col(x.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out = cols @ w_mat.T
    if bias is not None:
        out = out + bias.data
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    if not is_grad_enabled():
        return Tensor(out)
    x_shape = x.shape

    def grad_x(g):
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        grad_cols = np.empty(
            (g_mat.shape[0], w_mat.shape[1]),
            np.result_type(g_mat.dtype, w_mat.dtype),
        )
        np.matmul(g_mat, w_mat, out=grad_cols)
        return col2im(grad_cols, x_shape, (kh, kw), stride, padding)

    def grad_w(g):
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        return (g_mat.T @ cols).reshape(weight.shape)

    parents = [(x, grad_x), (weight, grad_w)]
    if bias is not None:
        parents.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return Tensor._result(out, parents)


def oracle_conv2d_grads(x, w, g, stride, padding):
    """Float64 loop ``(grad_x, grad_w)`` of ``sum(conv2d(x, w) * g)``."""
    x, w, g = (np.asarray(a, np.float64) for a in (x, w, g))
    n, _, h, wd = x.shape
    _, _, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for b in range(n):
        for i in range(g.shape[2]):
            for j in range(g.shape[3]):
                rows = slice(i * sh, i * sh + kh)
                cols = slice(j * sw, j * sw + kw)
                gb = g[b, :, i, j][:, None, None, None]
                gxp[b, :, rows, cols] += (gb * w).sum(axis=0)
                gw += gb * xp[b, :, rows, cols][None]
    return gxp[:, :, ph : ph + h, pw : pw + wd], gw
