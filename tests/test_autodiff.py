"""Forward hand cases plus finite-difference checks for every primitive."""

import numpy as np
import pytest

from tiernav import autodiff as ad
from tiernav.autodiff import Tensor
from tiernav.errors import ConfigError, ContractError, ShapeError, StateError

from gradcheck import grad_check


def _param(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _weighted_sum(out: Tensor, rng) -> Tensor:
    # fixed random projection so symmetric outputs still constrain grads
    w = Tensor(rng.normal(size=out.shape))
    return ad.sum_all(ad.mul(out, w))


# -------------------------------------------------------------- hand cases


def test_linear_identity():
    x = Tensor([[1.0, 2.0]])
    w = Tensor(np.eye(2), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    out = ad.linear(x, w, b)
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_linear_hand_sum():
    out = ad.linear(Tensor([[1.0, 1.0]]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 6.0


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        ad.linear(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 4))), Tensor(np.zeros(4)))
    assert "(1, 3)" in str(e.value) and "(2, 4)" in str(e.value)


def test_conv2d_one_by_one_identity():
    x = Tensor(np.arange(12.0).reshape(1, 3, 4))
    k = Tensor(np.ones((1, 1, 1, 1)))
    out = ad.conv2d(x, k, stride=1, pad=0)
    assert np.array_equal(out.data, x.data)


def test_conv2d_counting_case():
    x = Tensor(np.ones((1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, k, stride=1, pad=0)
    assert out.data.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 9.0


def test_conv2d_non_integral_output_is_config_error():
    x = Tensor(np.ones((1, 4, 4)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(ConfigError):
        ad.conv2d(x, k, stride=2, pad=0)


def test_batchnorm_constant_channel_is_zero():
    x = Tensor(np.full((2, 1, 3, 3), 7.0))
    g = Tensor(np.ones(1))
    b = Tensor(np.zeros(1))
    out = ad.batchnorm2d(x, g, b, np.zeros(1), np.ones(1), True)
    assert np.all(np.abs(out.data) < 1e-9)


def test_batchnorm_affine_collapse():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)))
    g = Tensor(np.zeros(3))
    b = Tensor(np.full(3, 5.0))
    out = ad.batchnorm2d(x, g, b, np.zeros(3), np.ones(3), True)
    assert np.all(out.data == 5.0)


def test_batchnorm_exact_unit_moments_passthrough():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(4, 2, 5, 5))
    # force exact per-channel zero mean / unit (biased) variance
    mean = raw.mean(axis=(0, 2, 3), keepdims=True)
    std = raw.std(axis=(0, 2, 3), keepdims=True)
    xd = (raw - mean) / std
    out = ad.batchnorm2d(Tensor(xd), Tensor(np.ones(2)), Tensor(np.zeros(2)), np.zeros(2), np.ones(2), True)
    assert np.max(np.abs(out.data - xd)) < 1e-3


def test_batchnorm_train_mode_normalizes():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(2.0, 3.0, size=(6, 4, 5, 5)))
    out = ad.batchnorm2d(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), np.zeros(4), np.ones(4), True)
    mu = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    assert np.max(np.abs(mu)) < 1e-6
    assert np.max(np.abs(var - 1.0)) < 1e-3


def test_batchnorm_running_stats_ema():
    rng = np.random.default_rng(3)
    xd = rng.normal(1.5, 2.0, size=(8, 1, 4, 4))
    rm, rv = np.zeros(1), np.ones(1)
    ad.batchnorm2d(Tensor(xd), Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv, True)
    assert np.allclose(rm, 0.1 * xd.mean())
    assert np.allclose(rv, 0.9 + 0.1 * xd.var())


# map-encoder activations at IL minibatch sizes, a batch of one, and a [C,H,W] input
BN_SHAPES = [(22, 8, 49, 49), (22, 16, 25, 25), (22, 16, 13, 13), (1, 16, 48, 48), (1, 32, 24, 24),
             (4, 64, 12, 12), (8, 7, 7)]


@pytest.mark.parametrize("shape", BN_SHAPES, ids=str)
def test_batchnorm_train_matches_two_pass_form(shape):
    # train mode centers the batch once; the oracle is the form that subtracted
    # the mean inside xd.var and again for xhat, and every bit must agree
    rng = np.random.default_rng(17)
    c = shape[-3]
    xd = rng.normal(0.7, 1.9, size=shape)
    g, b = rng.normal(size=c), rng.normal(size=c)
    rm, rv = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
    rm_got, rv_got = rm.copy(), rv.copy()
    out = ad.batchnorm2d(Tensor(xd), Tensor(g), Tensor(b), rm_got, rv_got, True)
    x4 = xd if len(shape) == 4 else xd[None]
    mean = x4.mean(axis=(0, 2, 3))
    var = x4.var(axis=(0, 2, 3))
    invstd = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x4 - mean[None, :, None, None]) * invstd[None, :, None, None]
    want = g[None, :, None, None] * xhat + b[None, :, None, None]
    assert out.data.tobytes() == (want if len(shape) == 4 else want[0]).tobytes()
    assert rm_got.tobytes() == (0.9 * rm + 0.1 * mean).tobytes()
    assert rv_got.tobytes() == (0.9 * rv + 0.1 * var).tobytes()


def test_batchnorm_infer_on_fresh_stats_reads_them_and_leaves_them():
    # the standard start, mean 0 and variance 1, normalizes like any other
    # running statistics, and an infer call never moves them
    xd = np.random.default_rng(4).normal(1.0, 2.0, size=(3, 2, 4, 4))
    rm, rv = np.zeros(2), np.ones(2)
    out = ad.batchnorm2d(Tensor(xd), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, False)
    assert out.data.tobytes() == (xd * (1.0 / np.sqrt(1.0 + ad.BN_EPS))).tobytes()
    assert rm.tobytes() == np.zeros(2).tobytes() and rv.tobytes() == np.ones(2).tobytes()


def test_relu_hand():
    out = ad.relu(Tensor([-2.0, 3.0]))
    assert np.array_equal(out.data, [0.0, 3.0])


def test_clip_bound_case():
    assert ad.clip_value(Tensor([7.0]), -5.0, 5.0).data[0] == 5.0
    with pytest.raises(ConfigError):
        ad.clip_value(Tensor([0.0]), 2.0, -2.0)


def test_softmax_uniform_logits():
    out = ad.softmax(Tensor(np.zeros((1, 6))))
    assert np.allclose(out.data, 1.0 / 6.0)


def test_softmax_is_probability_vector():
    rng = np.random.default_rng(4)
    out = ad.softmax(Tensor(rng.normal(0, 5, size=(10, 6))))
    assert np.all(out.data >= 0)
    assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-9


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    ad.backward(ad.sum_all(ad.square(x)))
    assert x.grad[0] == 6.0


def test_backward_matmul_closed_form():
    # d sum(A@B) / dA = ones @ B^T, checked on 2x2
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
    ad.backward(ad.sum_all(ad.matmul(a, b)))
    assert np.array_equal(a.grad, np.ones((2, 2)) @ b.data.T)
    assert np.array_equal(b.grad, a.data.T @ np.ones((2, 2)))


def test_backward_fanout_accumulates():
    x = Tensor([1.5], requires_grad=True)
    ad.backward(ad.sum_all(ad.add(x, x)))
    assert x.grad[0] == 2.0


def test_shared_subexpression_matches_closed_form():
    # s = x + x, loss = sum(s * s) = sum(4 x^2), grad = 8x
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    s = ad.add(x, x)
    ad.backward(ad.sum_all(ad.mul(s, s)))
    assert np.max(np.abs(x.grad - 8.0 * x.data)) < 1e-12


def test_backward_non_scalar_loss_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(ad.relu(x))


def test_backward_consumes_interior_nodes_and_keeps_leaf_grads():
    # loss = sum(relu(a @ b) * c); a, b, c > 0 so relu passes everything
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
    c = Tensor([[0.5, 1.0], [1.5, 2.0]], requires_grad=True)
    prod = ad.matmul(a, b)
    act = ad.relu(prod)
    loss = ad.sum_all(ad.mul(act, c))
    ad.backward(loss)
    for node in (prod, act, loss):
        assert node.grad is None and node._parents == ()
    assert np.array_equal(a.grad, c.data @ b.data.T)
    assert np.array_equal(b.grad, a.data.T @ c.data)
    assert np.array_equal(c.grad, a.data @ b.data)


def test_second_backward_on_same_loss_is_state_error():
    x = Tensor([3.0], requires_grad=True)
    loss = ad.sum_all(ad.square(x))
    ad.backward(loss)
    with pytest.raises(StateError):
        ad.backward(loss)
    assert x.grad[0] == 6.0


def test_backward_through_spent_subgraph_is_state_error():
    x = Tensor([3.0], requires_grad=True)
    shared = ad.square(x)
    ad.backward(ad.sum_all(shared))
    with pytest.raises(StateError):
        ad.backward(ad.sum_all(ad.scale(shared, 2.0)))


def test_no_grad_builds_no_tape():
    x = Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        y = ad.scale(x, 2.0)
    assert not y.requires_grad and y._backward is None


def test_pick_gathers_rows():
    x = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], requires_grad=True)
    out = ad.pick(x, [2, 0])
    assert np.array_equal(out.data, [3.0, 4.0])
    ad.backward(ad.sum_all(out))
    assert np.array_equal(x.grad, [[0, 0, 1], [1, 0, 0]])


def test_embedding_repeated_rows_accumulate():
    table = Tensor(np.ones((3, 2)), requires_grad=True)
    out = ad.embedding(table, [1, 1, 2])
    ad.backward(ad.sum_all(out))
    assert np.array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])
    with pytest.raises(ContractError):
        ad.embedding(table, [3])


# -------------------------------------------------- finite-difference sweep

# builders return (params_to_check, loss_fn); inputs are kept away from
# kinks (relu at 0, clip at its bounds) so central differences are valid


def _away_from_zero(rng, shape, lo=0.2, hi=1.5):
    return rng.uniform(lo, hi, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _build_add(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (3, 4))
    return [a, b], lambda: _weighted_sum(ad.add(a, b), np.random.default_rng(0))


def _build_sub(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (3, 4))
    return [a, b], lambda: _weighted_sum(ad.sub(a, b), np.random.default_rng(0))


def _build_mul(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (3, 4))
    return [a, b], lambda: _weighted_sum(ad.mul(a, b), np.random.default_rng(0))


def _build_minimum(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (3, 4))
    return [a, b], lambda: _weighted_sum(ad.minimum(a, b), np.random.default_rng(0))


def _build_neg(rng):
    a = _param(rng, (5,))
    return [a], lambda: _weighted_sum(ad.neg(a), np.random.default_rng(0))


def _build_scale(rng):
    a = _param(rng, (5,))
    return [a], lambda: _weighted_sum(ad.scale(a, -2.7), np.random.default_rng(0))


def _build_add_scalar(rng):
    a = _param(rng, (5,))
    return [a], lambda: _weighted_sum(ad.add_scalar(a, 0.31), np.random.default_rng(0))


def _build_relu(rng):
    a = Tensor(_away_from_zero(rng, (4, 4)), requires_grad=True)
    return [a], lambda: _weighted_sum(ad.relu(a), np.random.default_rng(0))


def _build_sigmoid(rng):
    a = _param(rng, (4, 4))
    return [a], lambda: _weighted_sum(ad.sigmoid(a), np.random.default_rng(0))


def _build_tanh(rng):
    a = _param(rng, (4, 4))
    return [a], lambda: _weighted_sum(ad.tanh(a), np.random.default_rng(0))


def _build_exp(rng):
    a = _param(rng, (4, 4))
    return [a], lambda: _weighted_sum(ad.exp(a), np.random.default_rng(0))


def _build_clip(rng):
    vals = np.concatenate([rng.uniform(-0.9, 0.9, 8), rng.uniform(1.2, 2.0, 4), rng.uniform(-2.0, -1.2, 4)])
    a = Tensor(vals, requires_grad=True)
    return [a], lambda: _weighted_sum(ad.clip_value(a, -1.0, 1.0), np.random.default_rng(0))


def _build_square(rng):
    a = _param(rng, (4, 4))
    return [a], lambda: _weighted_sum(ad.square(a), np.random.default_rng(0))


def _build_sum_all(rng):
    a = _param(rng, (3, 5))
    return [a], lambda: ad.sum_all(a)


def _build_mean_all(rng):
    a = _param(rng, (3, 5))
    return [a], lambda: ad.mean_all(ad.mul(a, a))


def _build_gap(rng):
    a = _param(rng, (2, 3, 4, 4))
    return [a], lambda: _weighted_sum(ad.global_avg_pool(a), np.random.default_rng(0))


def _build_reshape(rng):
    a = _param(rng, (2, 6))
    return [a], lambda: _weighted_sum(ad.reshape(a, (3, 4)), np.random.default_rng(0))


def _build_concat(rng):
    a, b = _param(rng, (2, 3)), _param(rng, (2, 5))
    return [a, b], lambda: _weighted_sum(ad.concat([a, b], axis=1), np.random.default_rng(0))


def _build_pick(rng):
    a = _param(rng, (5, 4))
    idx = rng.integers(0, 4, size=5)
    return [a], lambda: _weighted_sum(ad.pick(a, idx), np.random.default_rng(0))


def _build_embedding(rng):
    t = _param(rng, (6, 3))
    idx = rng.integers(0, 6, size=8)
    return [t], lambda: _weighted_sum(ad.embedding(t, idx), np.random.default_rng(0))


def _build_matmul(rng):
    a, b = _param(rng, (3, 4)), _param(rng, (4, 2))
    return [a, b], lambda: _weighted_sum(ad.matmul(a, b), np.random.default_rng(0))


def _build_linear(rng):
    x, w, b = _param(rng, (3, 4)), _param(rng, (4, 5)), _param(rng, (5,))
    return [x, w, b], lambda: _weighted_sum(ad.linear(x, w, b), np.random.default_rng(0))


def _build_conv2d(rng):
    x = _param(rng, (2, 5, 5))
    k = _param(rng, (3, 2, 3, 3))
    b = _param(rng, (3,))
    return [x, k, b], lambda: _weighted_sum(ad.conv2d(x, k, stride=1, pad=1, bias=b), np.random.default_rng(0))


def _build_conv2d_strided(rng):
    x = _param(rng, (2, 2, 7, 7))
    k = _param(rng, (4, 2, 3, 3))
    return [x, k], lambda: _weighted_sum(ad.conv2d(x, k, stride=2, pad=1), np.random.default_rng(0))


def _build_conv2d_unpadded(rng):
    # pad 0 pads the output gradient by k-1 for the stride-1 input gradient
    x = _param(rng, (2, 2, 6, 5))
    k = _param(rng, (3, 2, 3, 3))
    return [x, k], lambda: _weighted_sum(ad.conv2d(x, k, stride=1, pad=0), np.random.default_rng(0))


def _build_depthwise(rng):
    x = _param(rng, (2, 3, 5, 5))
    k = _param(rng, (3, 3, 3))
    return [x, k], lambda: _weighted_sum(ad.depthwise_conv2d(x, k), np.random.default_rng(0))


def _build_batchnorm_train(rng):
    x = _param(rng, (4, 3, 4, 4))
    g = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    b = _param(rng, (3,))
    rm, rv = np.zeros(3), np.ones(3)
    return [x, g, b], lambda: _weighted_sum(
        ad.batchnorm2d(x, g, b, rm.copy(), rv.copy(), True), np.random.default_rng(0)
    )


def _build_batchnorm_infer(rng):
    x = _param(rng, (2, 3, 4, 4))
    g = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    b = _param(rng, (3,))
    rm = rng.normal(size=3)
    rv = rng.uniform(0.5, 2.0, 3)
    return [x, g, b], lambda: _weighted_sum(ad.batchnorm2d(x, g, b, rm, rv, False), np.random.default_rng(0))


def _build_log_softmax(rng):
    a = _param(rng, (4, 6))
    return [a], lambda: _weighted_sum(ad.log_softmax(a), np.random.default_rng(0))


def _build_softmax(rng):
    a = _param(rng, (4, 6))
    return [a], lambda: _weighted_sum(ad.softmax(a), np.random.default_rng(0))


def _build_mse(rng):
    a = _param(rng, (4, 3))
    t = Tensor(rng.normal(size=(4, 3)))
    return [a], lambda: ad.mse(a, t)


BUILDERS = [
    _build_add, _build_sub, _build_mul, _build_minimum, _build_neg, _build_scale,
    _build_add_scalar, _build_relu, _build_sigmoid, _build_tanh, _build_exp,
    _build_clip, _build_square, _build_sum_all, _build_mean_all, _build_gap,
    _build_reshape, _build_concat, _build_pick, _build_embedding, _build_matmul,
    _build_linear, _build_conv2d, _build_conv2d_strided, _build_conv2d_unpadded, _build_depthwise,
    _build_batchnorm_train, _build_batchnorm_infer, _build_log_softmax,
    _build_softmax, _build_mse,
]


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__[7:])
@pytest.mark.parametrize("seed", [11, 22, 33])
def test_grad_matches_finite_differences(builder, seed):
    rng = np.random.default_rng(seed)
    params, loss_fn = builder(rng)
    report = grad_check(loss_fn, params, h=1e-5, tol=1e-6)
    assert report.passed, f"{builder.__name__} seed {seed}: max rel err {report.max_rel_err:.3e}"
