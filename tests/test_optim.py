"""Optimizer behavior, gradient-checker fault injection, checkpoint IO."""

import numpy as np
import pytest

from tiernav import autodiff as ad
from tiernav.autodiff import Tensor
from tiernav.checkpoint import load_checkpoint, save_checkpoint
from tiernav.errors import ContractError, NumericsError
from tiernav.layers import BatchNorm2d, Conv2d, Linear, Module
from tiernav.optim import AdamW, clip_grad_norm

from gradcheck import grad_check


def test_adam_first_step_moves_by_lr_sign():
    p = Tensor([2.0, -3.0], requires_grad=True)
    p.grad = np.array([0.4, -1.7])
    opt = AdamW([("p", p, False)], lr=0.01)
    before = p.data.copy()
    opt.step()
    delta = p.data - before
    assert np.max(np.abs(delta - (-0.01 * np.sign(p.grad)))) < 1e-6


def test_adam_zero_grad_leaves_param_unchanged():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.zeros(1)
    opt = AdamW([("p", p, True)], lr=0.1, weight_decay=0.0)
    opt.step()
    assert p.data[0] == 1.0


def test_adam_converges_on_quadratic():
    x = Tensor([1.0], requires_grad=True)
    opt = AdamW([("x", x, False)], lr=0.1)
    for _ in range(100):
        opt.zero_grad()
        ad.backward(ad.sum_all(ad.square(x)))
        opt.step()
    assert abs(x.data[0]) < 0.05


def test_adam_nan_grad_names_block():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.array([np.nan])
    opt = AdamW([("trunk.weight", p, True)], lr=0.1)
    with pytest.raises(NumericsError, match="trunk.weight"):
        opt.step()


def test_adam_decoupled_weight_decay():
    # zero grad + decay: pure multiplicative shrink on decay-flagged params
    p = Tensor([2.0], requires_grad=True)
    p.grad = np.zeros(1)
    opt = AdamW([("w", p, True)], lr=0.1, weight_decay=0.5)
    opt.step()
    assert np.isclose(p.data[0], 2.0 * (1.0 - 0.1 * 0.5))
    q = Tensor([2.0], requires_grad=True)
    q.grad = np.zeros(1)
    opt2 = AdamW([("b", q, False)], lr=0.1, weight_decay=0.5)
    opt2.step()
    assert q.data[0] == 2.0


def test_clip_grad_norm_scales_joint_norm():
    a = Tensor([3.0], requires_grad=True)
    b = Tensor([4.0], requires_grad=True)
    a.grad = np.array([3.0])
    b.grad = np.array([4.0])
    entries = [("a", a, False), ("b", b, False)]
    norm = clip_grad_norm(entries, max_norm=1.0)
    assert np.isclose(norm, 5.0)
    joint = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
    assert joint <= 1.0 + 1e-9


def test_grad_check_detects_corrupted_gradient():
    x = Tensor(np.array([0.7, -1.3, 2.1]), requires_grad=True)

    def corrupted_sum(t):
        # backward scaled by 1.1 on purpose
        def bw(g):
            ad._accum(t, np.full_like(t.data, float(g) * 1.1))

        return ad._node(t.data.sum(), (t,), "bad_sum", bw)

    report = grad_check(lambda: corrupted_sum(x), [x], h=1e-5, tol=1e-6)
    assert not report.passed
    assert abs(report.max_rel_err - 0.1) < 0.01


def test_grad_check_subsampling():
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(20, 20)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 20)))
    b = Tensor(np.zeros(20), requires_grad=True)
    report = grad_check(
        lambda: ad.mean_all(ad.square(ad.linear(x, w, b))),
        [w, b],
        h=1e-5,
        max_coords=25,
        rng=np.random.default_rng(1),
    )
    assert report.passed


# ----------------------------------------------------------------- modules


def test_module_collects_nested_params_and_state():
    rng = np.random.default_rng(0)

    class Net(Module):
        def __init__(self):
            self.conv = Conv2d(rng, 2, 4, 3, pad=1)
            self.bn = BatchNorm2d(4)
            self.heads = [Linear(rng, 4, 2), Linear(rng, 4, 1)]

    net = Net()
    names = [n for n, _, _ in net.named_params()]
    assert "conv.kernel" in names and "bn.gamma" in names and "heads.1.weight" in names
    decays = {n: d for n, _, d in net.named_params()}
    assert decays["conv.kernel"] and not decays["conv.bias"]
    assert not decays["bn.gamma"]
    state_names = [n for n, _ in net.named_state()]
    assert state_names == ["bn.running_mean", "bn.running_var"]


def test_batchnorm_layer_starts_at_unit_stats_and_only_train_moves_them():
    bn = BatchNorm2d(2)
    x = Tensor(np.random.default_rng(5).normal(3.0, 2.0, size=(2, 2, 3, 3)))
    fresh = bn(x, False)
    # mean 0 and variance 1: a fresh layer scales by 1/sqrt(1 + eps) alone
    assert np.allclose(fresh.data, x.data / np.sqrt(1.0 + ad.BN_EPS))
    assert np.array_equal(bn.running_mean, np.zeros(2)) and np.array_equal(bn.running_var, np.ones(2))
    bn(x, True)
    assert not np.array_equal(bn.running_mean, np.zeros(2)) and not np.array_equal(bn.running_var, np.ones(2))
    moved = (bn.running_mean.copy(), bn.running_var.copy())
    bn(x, False)
    assert np.array_equal(bn.running_mean, moved[0]) and np.array_equal(bn.running_var, moved[1])


# --------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    arrays = {
        "trunk.weight": rng.normal(size=(7, 5)),
        "trunk.bias": rng.normal(size=5),
        "bn.running_var": rng.uniform(0.1, 2.0, 3),
        "adam.t": np.array([17.0]),
        "scalar": np.array(3.25),
    }
    meta = {"version": "1", "stage": "il"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays, meta)
    loaded, meta2 = load_checkpoint(path)
    assert meta2 == meta
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].shape == np.asarray(arrays[k]).shape
        assert loaded[k].tobytes() == np.asarray(arrays[k], dtype=np.float64).tobytes()


def test_checkpoint_bytes_deterministic(tmp_path):
    arrays = {"b": np.arange(4.0), "a": np.ones((2, 2))}
    p1, p2 = tmp_path / "c1.ckpt", tmp_path / "c2.ckpt"
    save_checkpoint(p1, arrays, {"k": "v"})
    save_checkpoint(p2, dict(reversed(list(arrays.items()))), {"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(ContractError):
        load_checkpoint(p)
