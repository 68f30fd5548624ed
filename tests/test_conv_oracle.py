"""The BLAS conv2d against the loop im2col/col2im/einsum conv2d it replaced.

oracle_conv2d below is the earlier conv2d, kept verbatim as the
reference. The im2col columns, and so the forward output, must stay
bit-identical; the gradients may differ only by the order of their
float64 sums. The tape of conv2d itself keeps no column matrix.
"""

import tracemalloc

import numpy as np
import pytest

from tiernav import autodiff as ad
from tiernav.autodiff import Tensor, _accum, _node
from tiernav.errors import ConfigError, ShapeError

RTOL = 1e-12


def oracle_im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    n, c, _, _ = xp.shape
    cols = np.empty((n, c, k, k, ho, wo), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * k * k, ho * wo)


def oracle_col2im(gcols: np.ndarray, xshape, k: int, stride: int, pad: int, ho: int, wo: int) -> np.ndarray:
    n, c, h, w = xshape
    gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    gc = gcols.reshape(n, c, k, k, ho, wo)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gc[:, :, i, j]
    if pad:
        return gxp[:, :, pad:-pad, pad:-pad]
    return gxp


def oracle_conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0, bias: Tensor | None = None) -> Tensor:
    """Cross-correlation with zero padding. Input [N,Cin,H,W] or [Cin,H,W]."""
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: input {x.data.shape}, kernel {kernel.data.shape}")
    n, cin, h, w = xd.shape
    cout, kcin, kh, kw = kernel.data.shape
    if kcin != cin:
        raise ShapeError(f"conv2d: input has {cin} channels, kernel expects {kcin}")
    if kh != kw or kh % 2 == 0:
        raise ConfigError(f"conv2d: kernel must be square with odd size, got {kh}x{kw}")
    if stride < 1:
        raise ConfigError(f"conv2d: stride must be >= 1, got {stride}")
    if (h + 2 * pad - kh) % stride or (w + 2 * pad - kw) % stride:
        raise ConfigError(
            f"conv2d: non-integral output size for input {h}x{w}, kernel {kh}, stride {stride}, pad {pad}"
        )
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    cols = oracle_im2col(xp, kh, stride, ho, wo)
    wmat = kernel.data.reshape(cout, cin * kh * kw)
    out = np.matmul(wmat[None], cols).reshape(n, cout, ho, wo)
    if bias is not None:
        out = out + bias.data[None, :, None, None]
    if squeeze:
        out = out[0]
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bw(g):
        gd = g[None] if squeeze else g
        gflat = gd.reshape(n, cout, ho * wo)
        if kernel.requires_grad:
            gw = np.einsum("nol,nkl->ok", gflat, cols)
            _accum(kernel, gw.reshape(kernel.data.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, gd.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gcols = np.matmul(wmat.T[None], gflat)
            gx = oracle_col2im(gcols, xd.shape, kh, stride, pad, ho, wo)
            _accum(x, gx[0] if squeeze else gx)

    return _node(out, parents, "conv2d", bw)


# Every conv the default NavPolicy runs on a 96x96 world, as
# (cin, side, cout, k, stride, pad): the map encoder's stem, residual
# convs, downsamplers and SCConv channel mix, then the two obs-patch convs.
ENCODER_SHAPES = [
    (4, 97, 8, 3, 2, 1),
    (8, 49, 8, 3, 1, 1),
    (8, 49, 16, 3, 2, 1),
    (16, 25, 16, 3, 1, 1),
    (16, 25, 16, 3, 2, 1),
    (16, 13, 16, 1, 1, 0),
    (3, 25, 8, 3, 2, 1),
    (8, 13, 16, 3, 2, 1),
]


@pytest.mark.parametrize("cin,side,cout,k,stride,pad", ENCODER_SHAPES)
def test_im2col_bit_identical_at_encoder_shapes(cin, side, cout, k, stride, pad):
    xp = np.pad(np.random.default_rng(side).normal(size=(3, cin, side, side)), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (side + 2 * pad - k) // stride + 1
    assert np.array_equal(ad._im2col(xp, k, stride, ho, ho), oracle_im2col(xp, k, stride, ho, ho))


def _run(conv, xd, kd, bd, stride, pad, rd):
    x = Tensor(xd, requires_grad=True)
    kernel = Tensor(kd, requires_grad=True)
    bias = None if bd is None else Tensor(bd, requires_grad=True)
    out = conv(x, kernel, stride=stride, pad=pad, bias=bias)
    ad.backward(ad.sum_all(ad.mul(out, Tensor(rd))))
    return out.data, x.grad, kernel.grad, None if bias is None else bias.grad


def _assert_matches_oracle(xshape, cout, k, stride, pad, with_bias, seed):
    rng = np.random.default_rng(seed)
    xd = rng.normal(size=xshape)
    kd = rng.normal(size=(cout, xshape[-3], k, k))
    bd = rng.normal(size=cout) if with_bias else None
    ref_out = oracle_conv2d(Tensor(xd), Tensor(kd), stride=stride, pad=pad, bias=None if bd is None else Tensor(bd))
    rd = rng.normal(size=ref_out.shape)
    got = _run(ad.conv2d, xd, kd, bd, stride, pad, rd)
    want = _run(oracle_conv2d, xd, kd, bd, stride, pad, rd)
    assert np.array_equal(got[0], want[0])
    for name, g, w in zip(("input", "kernel", "bias"), got[1:], want[1:]):
        if w is None:
            assert g is None
            continue
        assert g.shape == w.shape, name
        np.testing.assert_allclose(g, w, rtol=RTOL, atol=RTOL * np.abs(w).max(), err_msg=name)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_matches_oracle(k, stride, pad, batch):
    # 7x9 keeps every (k, stride, pad) integral and catches a swapped H/W
    _assert_matches_oracle((batch, 2, 7, 9), 3, k, stride, pad, with_bias=batch == 3, seed=k * 100 + stride * 10 + pad)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_oracle_on_3d_input(stride):
    _assert_matches_oracle((2, 7, 9), 4, 3, stride, 1, with_bias=True, seed=stride)


@pytest.mark.parametrize("cin,side,cout,k,stride,pad", ENCODER_SHAPES)
def test_conv2d_matches_oracle_at_encoder_shapes(cin, side, cout, k, stride, pad):
    _assert_matches_oracle((2, cin, side, side), cout, k, stride, pad, with_bias=False, seed=side)


@pytest.mark.parametrize("cin,side,cout,k,stride,pad", [s for s in ENCODER_SHAPES if s[3] > 1])
def test_conv2d_tape_holds_no_column_matrix(cin, side, cout, k, stride, pad):
    n = 3
    ho = (side + 2 * pad - k) // stride + 1
    rng = np.random.default_rng(side)
    x = Tensor(rng.normal(size=(n, cin, side, side)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(cout, cin, k, k)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, kernel, stride=stride, pad=pad)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held < n * cin * k * k * ho * ho * 8
