"""Map construction, monotonicity, encoder blocks, dump round-trip."""

import numpy as np
import pytest

from tiernav import autodiff as ad
from tiernav.autodiff import Tensor
from tiernav.errors import ContractError
from tiernav.layers import BatchNorm2d
from tiernav.mapper import (
    CHANNELS,
    MapEncoder,
    NavMap,
    ResidualBlock,
    SCConv,
    encode_map,
    init_map,
    update_map,
)
from tiernav.util import substream
from tiernav.world import UavState, WorldConfig, generate_world, render_observation, sample_episode

from gradcheck import grad_check


def small_world(seed=2):
    return generate_world(seed, WorldConfig(width=48, height=48, n_landmarks=5))


def episode_for(wd, seed=5):
    return sample_episode(wd, "easy", substream(seed, "ep"))


def test_init_map_channels():
    wd = small_world()
    ep = episode_for(wd)
    nav = init_map(wd, ep)
    assert nav.grid.shape == (4, 48, 48)
    assert nav.channel("trajectory").sum() == 0
    assert nav.channel("explored").sum() == 0
    assert nav.channel("obstacle_memory").sum() == 0
    assert nav.channel("landmark_prior").sum() > 0


def test_init_map_sector_weights():
    wd = small_world()
    ep = episode_for(wd)
    lm = wd.landmark_by_id(ep.descriptor.landmark_id)
    # force sector 0 (east): east of center 1.0, west 0.3 inside the disk
    ep.descriptor = type(ep.descriptor)(landmark_id=lm.id, sector=0, band="near", tag=0)
    nav = init_map(wd, ep, r_prior=6.0)
    prior = nav.channel("landmark_prior")
    if lm.x + 3 < wd.width:
        assert prior[lm.y, lm.x + 3] == 1.0
    if lm.x - 3 >= 0:
        assert prior[lm.y, lm.x - 3] == 0.3
    far = prior[(lm.y + 20) % wd.height, (lm.x + 20) % wd.width]
    assert far == 0.0


def test_init_map_prior_mass_deterministic():
    wd = small_world()
    ep = episode_for(wd)
    m1 = init_map(wd, ep).channel("landmark_prior").sum()
    m2 = init_map(wd, ep).channel("landmark_prior").sum()
    assert m1 == m2


def test_init_map_unknown_landmark():
    wd = small_world()
    ep = episode_for(wd)
    ep.descriptor = type(ep.descriptor)(landmark_id=999, sector=0, band="near", tag=0)
    with pytest.raises(ContractError):
        init_map(wd, ep)


def test_update_map_explored_count():
    wd = small_world()
    ep = episode_for(wd)
    nav = init_map(wd, ep)
    s = UavState(24.0, 24.0, 2, 0)
    obs = render_observation(wd, s)
    update_map(nav, s, obs)
    r = wd.r_base + wd.r_gain * s.z
    expect = sum(1 for dx in range(-r, r + 1) for dy in range(-r, r + 1) if dx * dx + dy * dy <= r * r)
    assert nav.channel("explored").sum() == expect
    assert nav.channel("trajectory")[24, 24] == 1.0


def test_update_map_idempotent():
    wd = small_world()
    ep = episode_for(wd)
    nav = init_map(wd, ep)
    s = UavState(20.0, 20.0, 2, 0)
    obs = render_observation(wd, s)
    update_map(nav, s, obs)
    snap = nav.grid.copy()
    update_map(nav, s, obs)
    assert np.array_equal(nav.grid, snap)


def test_update_map_obstacle_memory_and_monotonicity():
    wd = small_world()
    ep = episode_for(wd)
    nav = init_map(wd, ep)
    rng = substream(9, "walk")
    free_y, free_x = np.nonzero(wd.height_field == 0)
    prev = nav.grid.copy()
    seen_any = False
    for _ in range(30):
        i = int(rng.integers(free_x.size))
        s = UavState(float(free_x[i]), float(free_y[i]), int(rng.integers(wd.z_min, wd.z_max + 1)), 0)
        if wd.height_field[s.cell()[1], s.cell()[0]] >= s.z:
            continue
        obs = render_observation(wd, s)
        update_map(nav, s, obs)
        for ci in (0, 1, 3):
            assert np.all(nav.grid[ci] >= prev[ci] - 1e-15)
        prev = nav.grid.copy()
        seen_any = True
    assert seen_any
    # memory values match true normalized heights where explored
    mem = nav.channel("obstacle_memory")
    seen = nav.channel("explored") > 0
    truth = wd.height_field / wd.z_max
    assert np.allclose(mem[seen], truth[seen])
    assert np.all(mem[~seen] == 0)


def test_obstacle_memory_survives_leaving_view():
    wd = small_world()
    wd.height_field[10, 30] = 3
    ep = episode_for(wd)
    nav = init_map(wd, ep)
    s1 = UavState(30.0, 12.0, 3, 0)
    update_map(nav, s1, render_observation(wd, s1))
    assert nav.channel("obstacle_memory")[10, 30] == 3 / wd.z_max
    s2 = UavState(5.0, 40.0, 2, 0)
    update_map(nav, s2, render_observation(wd, s2))
    assert nav.channel("obstacle_memory")[10, 30] == 3 / wd.z_max


# -------------------------------------------------------------------- encoder


def test_residual_block_identity_with_zero_conv():
    rng = substream(1, "rb")
    blk = ResidualBlock(rng, 4)
    blk.conv.kernel.data[...] = 0.0
    x = Tensor(np.abs(rng.normal(size=(2, 4, 8, 8))))
    out = blk(x, True)
    assert np.array_equal(out.data, x.data)


def test_residual_block_relu_clamps():
    rng = substream(2, "rb")
    blk = ResidualBlock(rng, 3)
    blk.conv.kernel.data[...] = 0.0
    blk.bn.beta.data[...] = -10.0
    x = Tensor(np.zeros((1, 3, 4, 4)))
    out = blk(x, True)
    assert np.all(out.data == 0.0)


def test_residual_block_grad_check():
    rng = substream(3, "rb")
    blk = ResidualBlock(rng, 4)
    x = Tensor(rng.normal(size=(1, 4, 8, 8)), requires_grad=True)
    proj = np.random.default_rng(0).normal(size=(1, 4))

    def loss():
        out = blk(x, True)
        return ad.sum_all(ad.mul(ad.global_avg_pool(out), Tensor(proj)))

    params = [x, blk.conv.kernel, blk.bn.gamma, blk.bn.beta]
    report = grad_check(loss, params, h=1e-5, tol=1e-6, max_coords=60, rng=np.random.default_rng(1))
    assert report.passed, report.max_rel_err


def test_scconv_identity_params():
    rng = substream(4, "sc")
    sc = SCConv(rng, 3)
    sc.spatial.kernel.data[...] = 0.0
    sc.spatial.kernel.data[:, 1, 1] = 1.0  # center-tap identity
    sc.channel.kernel.data[...] = np.eye(3)[:, :, None, None]
    x = Tensor(np.abs(substream(5, "x").normal(size=(2, 3, 6, 6))) + 0.1)
    out = sc(x, True)
    # with identity U and C the pre-BN product is x*x
    prod = x.data * x.data
    mean = prod.mean(axis=(0, 2, 3), keepdims=True)
    var = prod.var(axis=(0, 2, 3), keepdims=True)
    expect = np.maximum((prod - mean) / np.sqrt(var + ad.BN_EPS), 0.0)
    assert np.allclose(out.data, expect)


def test_scconv_spatial_is_depthwise_box_filter():
    rng = substream(6, "sc")
    sc = SCConv(rng, 2)
    sc.spatial.kernel.data[...] = 1.0 / 9.0
    x = Tensor(np.ones((1, 2, 5, 5)) * 2.0)
    u = sc.spatial(x).data
    # interior cells see the full 3x3 window; zero padding dents the border
    assert np.allclose(u[:, :, 1:-1, 1:-1], 2.0)
    assert np.allclose(u[0, :, 0, 0], 2.0 * 4 / 9)


def test_scconv_grad_check():
    rng = substream(7, "sc")
    sc = SCConv(rng, 3)
    x = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
    proj = np.random.default_rng(0).normal(size=(1, 3))

    def loss():
        return ad.sum_all(ad.mul(ad.global_avg_pool(sc(x, True)), Tensor(proj)))

    params = [x, sc.spatial.kernel, sc.channel.kernel, sc.bn.gamma, sc.bn.beta]
    report = grad_check(loss, params, h=1e-5, tol=1e-6, max_coords=60, rng=np.random.default_rng(1))
    assert report.passed, report.max_rel_err


def test_encoder_zero_map_finite_and_deterministic():
    rng = substream(8, "enc")
    enc = MapEncoder(rng, widths=(8, 16), d_out=32)
    nav = NavMap(grid=np.zeros((4, 48, 48)))
    f1 = encode_map(nav, enc)
    f2 = encode_map(nav, enc)
    assert np.all(np.isfinite(f1))
    assert np.array_equal(f1, f2)
    assert f1.shape == (32,)


def test_encoder_discriminates_prior():
    rng = substream(9, "enc")
    enc = MapEncoder(rng, widths=(8, 16), d_out=32)
    base = np.zeros((4, 48, 48))
    a = NavMap(grid=base.copy())
    b = NavMap(grid=base.copy())
    b.grid[2, 10:20, 10:20] = 1.0
    fa = encode_map(a, enc)
    fb = encode_map(b, enc)
    assert not np.allclose(fa, fb)


def test_encoder_pure_function_of_map():
    rng = substream(10, "enc")
    enc = MapEncoder(rng, widths=(8, 16), d_out=16)
    g = substream(11, "grid").uniform(0, 1, size=(4, 48, 48))
    f1 = encode_map(NavMap(grid=g.copy()), enc)
    f2 = encode_map(NavMap(grid=g.copy()), enc)
    assert np.array_equal(f1, f2)


def test_encoder_full_pipeline_grad_check_16x16():
    rng = substream(12, "enc")
    enc = MapEncoder(rng, widths=(4, 8), d_out=8)
    x = Tensor(substream(13, "x").uniform(0, 1, size=(1, 4, 16, 16)), requires_grad=False)
    proj = np.random.default_rng(0).normal(size=(1, 8))

    def loss():
        return ad.sum_all(ad.mul(enc(x, True), Tensor(proj)))

    params = [t for _, t, _ in enc.named_params()]
    report = grad_check(loss, params, h=1e-5, tol=1e-5, max_coords=8, rng=np.random.default_rng(2))
    assert report.passed, report.max_rel_err


def test_encoder_all_params_receive_gradient():
    rng = substream(14, "enc")
    enc = MapEncoder(rng, widths=(4, 8), d_out=8)
    x = Tensor(substream(15, "x").uniform(0.1, 1, size=(2, 4, 16, 16)))
    target = Tensor(substream(16, "t").normal(size=(2, 8)))
    ad.backward(ad.mse(enc(x, True), target))
    for name, t, _ in enc.named_params():
        assert t.grad is not None and np.any(t.grad != 0), f"dead branch at {name}"


def parent_conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0, bias: Tensor | None = None) -> Tensor:
    """conv2d as it was while its tape kept the im2col columns for backward."""
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    n, cin, h, w = xd.shape
    cout, _, kh, kw = kernel.data.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = ad._pad2d(xd, pad) if pad else xd
    cols = ad._im2col(xp, kh, stride, ho, wo)
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
            gw = np.matmul(gflat, cols.transpose(0, 2, 1)).sum(axis=0)
            ad._accum(kernel, gw.reshape(kernel.data.shape))
        if bias is not None and bias.requires_grad:
            ad._accum(bias, gd.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            if stride == 1:
                q = kh - 1 - pad
                gp = ad._pad2d(gd, q) if q > 0 else gd[:, :, -q:, -q:]
                wflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * kh * kw)
                gx = np.matmul(wflip[None], ad._im2col(gp, kh, 1, h, w)).reshape(n, cin, h, w)
            else:
                gcols = np.matmul(wmat.T[None], gflat)
                gx = ad._col2im(gcols, xd.shape, kh, stride, pad, ho, wo)
            ad._accum(x, gx[0] if squeeze else gx)

    return ad._node(out, parents, "conv2d", bw)


def parent_backward(loss: Tensor):
    """backward as it was while it left the tape intact."""
    order = []
    state: dict[int, int] = {}
    stack = [loss]
    while stack:
        node = stack[-1]
        st = state.get(id(node), 0)
        if st == 0:
            state[id(node)] = 1
            for p in node._parents:
                if state.get(id(p), 0) == 0:
                    stack.append(p)
        elif st == 1:
            state[id(node)] = 2
            order.append(node)
            stack.pop()
        else:
            stack.pop()
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _encoder_grads(conv, backward):
    enc = MapEncoder(substream(18, "enc"), widths=(8, 16), d_out=32)
    x = Tensor(substream(19, "x").uniform(0, 1, size=(3, 4, 96, 96)))
    target = Tensor(substream(20, "t").normal(size=(3, 32)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "conv2d", conv)
        loss = ad.mse(enc(x, True), target)
    backward(loss)
    return {name: t.grad for name, t, _ in enc.named_params()}


def test_encoder_grads_bit_identical_to_column_keeping_tape():
    got = _encoder_grads(ad.conv2d, ad.backward)
    want = _encoder_grads(parent_conv2d, parent_backward)
    assert sorted(got) == sorted(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_batchnorm_infer_applies_running_stats_in_encoder():
    rng = substream(17, "enc")
    bn = BatchNorm2d(3)
    x = Tensor(rng.normal(2.0, 1.5, size=(4, 3, 5, 5)))
    bn(x, True)
    out = bn(x, False)
    mean = bn.running_mean
    var = bn.running_var
    expect = (x.data - mean[None, :, None, None]) / np.sqrt(var[None, :, None, None] + ad.BN_EPS)
    assert np.allclose(out.data, expect)


def test_channel_names_fixed():
    assert CHANNELS == ("explored", "trajectory", "landmark_prior", "obstacle_memory")
