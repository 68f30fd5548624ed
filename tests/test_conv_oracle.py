"""conv2d against two earlier versions of itself, kept here as references.

oracle_conv2d is the loop im2col/col2im/einsum conv2d that the BLAS
conv2d replaced. Against it the im2col columns, and so the forward
output, must stay bit-identical; the gradients may differ only by the
order of their float64 sums.

batched_conv2d is the BLAS conv2d as it was before it built its columns
one block of samples at a time: one whole-batch column matrix and one
stacked GEMM per direction. Against it the output, the kernel gradient
and the input gradient must be bit-identical, at stride 1 and 2, with
one-sample blocks and with a ragged last block.

Neither the tape of conv2d nor a forward plus backward holds a
whole-batch column matrix. Its bits do not depend on how many threads
run its blocks, and a forked child runs them on a pool of its own.
"""

import os
import signal
import time
import tracemalloc
import warnings

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


def batched_conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0, bias: Tensor | None = None) -> Tensor:
    """conv2d with whole-batch columns: its body before sample blocking."""
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    n, cin, h, w = xd.shape
    cout, _, kh, kw = kernel.data.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    cols = ad._im2col(ad._pad2d(xd, pad) if pad else xd, kh, stride, ho, wo)
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
            cols = ad._im2col(ad._pad2d(xd, pad) if pad else xd, kh, stride, ho, wo)
            gw = np.matmul(gflat, cols.transpose(0, 2, 1)).sum(axis=0)
            _accum(kernel, gw.reshape(kernel.data.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, gd.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            if stride == 1:
                q = kh - 1 - pad
                gp = ad._pad2d(gd, q) if q > 0 else gd[:, :, -q:, -q:]
                wflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * kh * kw)
                gx = np.matmul(wflip[None], ad._im2col(gp, kh, 1, h, w)).reshape(n, cin, h, w)
            else:
                gcols = np.matmul(wmat.T[None], gflat)
                gx = ad._col2im(gcols, xd.shape, kh, stride, pad, ho, wo)
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


def _block(cin, side, k, stride, pad):
    """Samples per conv2d column block at this shape."""
    ho = (side + 2 * pad - k) // stride + 1
    return max(1, ad._BLOCK_BYTES // (cin * k * k * ho * ho * 8))


def _assert_bits(got, want):
    """Equal values and equal bytes: np.array_equal alone takes -0.0 for +0.0."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _assert_matches_batched(xshape, cout, k, stride, pad, seed, input_grad=True):
    rng = np.random.default_rng(seed)
    xd = rng.normal(size=xshape)
    kd = rng.normal(size=(cout, xshape[-3], k, k))
    bd = rng.normal(size=cout)
    rd = rng.normal(size=batched_conv2d(Tensor(xd), Tensor(kd), stride=stride, pad=pad).shape)
    results = []
    for conv in (ad.conv2d, batched_conv2d):
        x = Tensor(xd, requires_grad=input_grad)
        kernel = Tensor(kd, requires_grad=True)
        bias = Tensor(bd, requires_grad=True)
        out = conv(x, kernel, stride=stride, pad=pad, bias=bias)
        ad.backward(ad.sum_all(ad.mul(out, Tensor(rd))))
        results.append((out.data, kernel.grad, bias.grad, x.grad))
    got, want = results
    for g, w in zip(got[:3], want[:3]):
        _assert_bits(g, w)
    if input_grad:
        _assert_bits(got[3], want[3])
    else:
        assert got[3] is None and want[3] is None


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("cin,side,cout,k,stride,pad", ENCODER_SHAPES)
def test_blocked_conv2d_bit_identical_to_batched(cin, side, cout, k, stride, pad, blocks):
    # three blocks: two full, one ragged whenever a block holds more than one sample
    step = _block(cin, side, k, stride, pad)
    n = step if blocks == 1 else 2 * step + 1
    _assert_matches_batched((n, cin, side, side), cout, k, stride, pad, seed=side + blocks)


def test_encoder_shapes_cover_single_and_multi_sample_blocks():
    steps = [_block(cin, side, k, stride, pad) for cin, side, _, k, stride, pad in ENCODER_SHAPES]
    assert _block(8, 49, 3, 1, 1) == 1
    assert any(s > 1 for s, (_, _, _, _, stride, _) in zip(steps, ENCODER_SHAPES) if stride == 1)
    assert any(s > 1 for s, (_, _, _, _, stride, _) in zip(steps, ENCODER_SHAPES) if stride == 2)


@pytest.mark.parametrize("cin,side,cout,k,stride,pad", [(8, 49, 8, 3, 1, 1), (4, 97, 8, 3, 2, 1), (3, 25, 8, 3, 2, 1)])
def test_blocked_conv2d_bit_identical_on_constant_input(cin, side, cout, k, stride, pad):
    n = 2 * _block(cin, side, k, stride, pad) + 1
    _assert_matches_batched((n, cin, side, side), cout, k, stride, pad, seed=side, input_grad=False)


@pytest.mark.parametrize("stride", [1, 2])
def test_blocked_conv2d_bit_identical_on_3d_input(stride):
    _assert_matches_batched((8, 49, 49), 8, 3, stride, 1, seed=stride)


def test_conv2d_forward_backward_peak_below_one_column_matrix():
    n, cin, side, cout, k = 8, 8, 49, 8, 3
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(n, cin, side, side)), requires_grad=True)
    kernel = Tensor(rng.normal(size=(cout, cin, k, k)), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ad.backward(ad.sum_all(ad.conv2d(x, kernel, stride=1, pad=1)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert x.grad is not None and kernel.grad is not None
    assert peak < n * cin * k * k * side * side * 8


# conv2d's blocks run on _ways() threads in contiguous runs; three ways
# make uneven runs. The bits must not depend on the count.
WAY_COUNTS = (1, 2, 3)

WAY_CASES = (
    [((22, cin, side, side), cout, k, stride, pad) for cin, side, cout, k, stride, pad in ENCODER_SHAPES]
    + [
        ((1, 4, 97, 97), 8, 3, 2, 1),
        ((8, 49, 49), 8, 3, 1, 1),
        ((2 * _block(8, 49, 3, 2, 1) + 1, 8, 49, 49), 16, 3, 2, 1),
        ((2 * _block(16, 25, 3, 2, 1) + 1, 16, 25, 25), 16, 3, 2, 1),
        ((64, 3, 25, 25), 8, 3, 2, 1),
        ((64, 8, 13, 13), 16, 3, 2, 1),
    ]
)


@pytest.mark.parametrize("xshape,cout,k,stride,pad", WAY_CASES)
def test_conv2d_bits_do_not_depend_on_way_count(monkeypatch, xshape, cout, k, stride, pad):
    rng = np.random.default_rng(sum(xshape))
    xd = rng.normal(size=xshape)
    kd = rng.normal(size=(cout, xshape[-3], k, k))
    bd = rng.normal(size=cout)
    rd = rng.normal(size=batched_conv2d(Tensor(xd), Tensor(kd), stride=stride, pad=pad).shape)
    results = []
    for ways in WAY_COUNTS:
        monkeypatch.setattr(ad, "_ways", lambda ways=ways: ways)
        results.append(_run(ad.conv2d, xd, kd, bd, stride, pad, rd))
    for got in results[1:]:
        for g, w in zip(got, results[0]):
            _assert_bits(g, w)


def test_map_encoder_grads_do_not_depend_on_way_count(monkeypatch):
    from tiernav.mapper import MapEncoder

    xd = np.random.default_rng(5).normal(size=(3, 4, 96, 96))
    grads = []
    for ways in WAY_COUNTS:
        monkeypatch.setattr(ad, "_ways", lambda ways=ways: ways)
        enc = MapEncoder(np.random.default_rng(4), widths=(8, 16), d_out=32)
        ad.backward(ad.sum_all(ad.square(enc(Tensor(xd), True))))
        grads.append([(name, t.grad) for name, t, _ in enc.named_params()])
    for got in grads[1:]:
        for (name, g), (want_name, w) in zip(got, grads[0]):
            assert name == want_name
            _assert_bits(g, w)


def test_conv2d_block_error_reraises_after_every_run(monkeypatch):
    monkeypatch.setattr(ad, "_ways", lambda: 3)
    done = []

    def fn(b):
        if b == 3:  # the last block of the middle run: runs [0, 1], [2, 3], [4, 5]
            raise ValueError("block 3")
        done.append(b)

    with pytest.raises(ValueError, match="block 3"):
        ad._for_each_block(fn, list(range(6)))
    assert sorted(done) == [0, 1, 2, 4, 5]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_conv2d_on_its_own_pool(monkeypatch):
    monkeypatch.setattr(ad, "_ways", lambda: 2)
    n = 2 * _block(8, 49, 3, 1, 1) + 1
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(n, 8, 49, 49)))
    kernel = Tensor(rng.normal(size=(8, 8, 3, 3)))
    want = ad.conv2d(x, kernel, stride=1, pad=1).data
    assert ad._POOL is not None
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork in a threaded process; forking one is the point here
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fresh = ad._POOL is None
            got = ad.conv2d(x, kernel, stride=1, pad=1).data
            code = 0 if fresh and got.tobytes() == want.tobytes() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish its conv2d within 60 s")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
