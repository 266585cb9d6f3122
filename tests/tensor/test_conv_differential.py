"""``F.conv2d`` against the im2col/col2im kernel and a float64 oracle.

On random geometries — stride 1–2, padding 0–2, square and non-square
kernels up to 3x3, 1–9, 16, 17, 24 or 32 input channels, 1–34, 300 or
512 output channels, batch 1–5, contiguous or NHWC-strided inputs —
the forward output, the input gradient and the weight gradient must be
bitwise equal to :func:`~tests.tensor.conv_reference.reference_conv2d`
and within 1e-4 relative of float64 loop references.  The input
gradient is checked on the path the BLAS probe picks for the shape and
on the single-GEMM path, which every shape may take.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, check_gradients
from repro.tensor import functional as F
from repro.tensor.im2col import conv_output_size
from tests.tensor.conv_reference import oracle_conv2d_grads, reference_conv2d
from tests.tensor.test_im2col import naive_conv2d


@st.composite
def geometries(draw):
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ph, pw = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return {
        "n": draw(st.integers(1, 5)),
        "c_in": draw(
            st.one_of(st.integers(1, 9), st.sampled_from([16, 17, 24, 32]))
        ),
        "c_out": draw(st.one_of(st.integers(1, 34), st.sampled_from([300, 512]))),
        "kernel": (kh, kw),
        "stride": (draw(st.integers(1, 2)), draw(st.integers(1, 2))),
        "padding": (ph, pw),
        "h": draw(st.integers(max(1, kh - 2 * ph), 9)),
        "w": draw(st.integers(max(1, kw - 2 * pw), 9)),
        "nhwc": draw(st.booleans()),
        "bias": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def _inputs(geo):
    rng = np.random.default_rng(geo["seed"])
    n, c_in, h, w = geo["n"], geo["c_in"], geo["h"], geo["w"]
    if geo["nhwc"]:
        # A conv output's layout: NHWC memory viewed as NCHW.
        x = rng.standard_normal((n, h, w, c_in)).astype(np.float32)
        x = x.transpose(0, 3, 1, 2)
    else:
        x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
    weight = rng.standard_normal(
        (geo["c_out"], c_in, *geo["kernel"])
    ).astype(np.float32)
    bias = (
        rng.standard_normal(geo["c_out"]).astype(np.float32)
        if geo["bias"] else None
    )
    return rng, x, weight, bias


def _run(conv, geo, x, weight, bias, g):
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(weight, requires_grad=True)
    bt = None if bias is None else Tensor(bias, requires_grad=True)
    out = conv(xt, wt, bt, stride=geo["stride"], padding=geo["padding"])
    out.backward(g)
    return out.data, xt.grad, wt.grad, None if bt is None else bt.grad


def _assert_rel_close(actual, oracle):
    scale = float(np.abs(oracle).max())
    np.testing.assert_allclose(actual, oracle, rtol=1e-4, atol=1e-4 * scale)


class TestConvDifferential:
    @given(geometries())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_im2col_col2im(self, geo):
        rng, x, weight, bias = _inputs(geo)
        (sh, sw), (ph, pw) = geo["stride"], geo["padding"]
        out_shape = (
            geo["n"],
            geo["c_out"],
            conv_output_size(geo["h"], geo["kernel"][0], sh, ph),
            conv_output_size(geo["w"], geo["kernel"][1], sw, pw),
        )
        g = rng.standard_normal(out_shape).astype(np.float32)
        old = _run(reference_conv2d, geo, x, weight, bias, g)
        new = _run(F.conv2d, geo, x, weight, bias, g)
        match = F._offset_gemms_match
        try:
            F._offset_gemms_match = lambda g_mat, weight: False
            single = _run(F.conv2d, geo, x, weight, bias, g)
        finally:
            F._offset_gemms_match = match
        # Same values and the same memory layout of the output.
        assert new[0].strides == old[0].strides
        for result in (new, single):
            for name, a, b in zip(("out", "grad_x", "grad_w", "grad_b"), result, old):
                assert (a is None) == (b is None), name
                if a is not None:
                    assert a.dtype == b.dtype, name
                    assert np.array_equal(a, b), name

    @given(geometries())
    @settings(max_examples=60, deadline=None)
    def test_within_tolerance_of_float64_oracle(self, geo):
        rng, x, weight, bias = _inputs(geo)
        x64, w64 = x.astype(np.float64), weight.astype(np.float64)
        expected = naive_conv2d(x64, w64, geo["stride"], geo["padding"])
        if bias is not None:
            expected = expected + bias.astype(np.float64)[None, :, None, None]
        g = rng.standard_normal(expected.shape).astype(np.float32)
        out, grad_x, grad_w, _ = _run(F.conv2d, geo, x, weight, bias, g)
        oracle_x, oracle_w = oracle_conv2d_grads(
            x64, w64, g, geo["stride"], geo["padding"]
        )
        _assert_rel_close(out, expected)
        _assert_rel_close(grad_x, oracle_x)
        _assert_rel_close(grad_w, oracle_w)


@pytest.mark.parametrize("per_offset", [True, False])
def test_gradcheck_both_input_gradient_paths(rng, monkeypatch, per_offset):
    """Finite differences through per-offset and single-GEMM blocks."""
    monkeypatch.setattr(F, "_offset_gemms_match", lambda g, w: per_offset)
    x = Tensor(rng.standard_normal((2, 16, 4, 5)).astype(np.float32),
               requires_grad=True)
    w = Tensor((rng.standard_normal((3, 16, 2, 3)) * 0.2).astype(np.float32),
               requires_grad=True)
    check_gradients(
        lambda x, w: F.conv2d(x, w, stride=(2, 1), padding=(1, 2)), [x, w]
    )
