"""Reward shaping, returns, GAE, clipped surrogate, loss blending, the
stage-1 sampler."""

import math

import numpy as np
import pytest

from tiernav import autodiff as ad, training
from tiernav.autodiff import Tensor
from tiernav.errors import ConfigError, ContractError
from tiernav.agent import NavPolicy, NeuralPolicy
from tiernav.mapper import MapEncoder, init_map, update_map
from tiernav.teacher import build_dataset, load_corpus, save_corpus
from tiernav.training import (
    PPOConfig,
    Rollout,
    Stage1Config,
    _rollout_heads,
    _stage1_forward,
    collect_rollouts,
    compute_gae,
    il_loss,
    ppo_clip_objective,
    ppo_minibatch_loss,
    stage1_order,
    train_stage1,
    train_stage2,
    value_loss,
)
from tiernav.util import substream
from tiernav.world import (TIERS, RewardConfig, UavState, WorldConfig, _wrapped_angle, compute_reward, generate_world,
                           render_observation)


class MeterWorld:
    cell_size = 1.0


WD = MeterWorld()


def test_reward_delta_only():
    # stationary, heading opposite the target, far out: every term but delta dies
    cfg = RewardConfig()
    prev = UavState(0.0, 0.0, 2, 0)  # facing +x
    cur = UavState(0.0, 0.0, 2, 0)
    goal = (-20.0, 0.0)  # theta* = pi, |dtheta| = pi
    r = compute_reward(prev, cur, goal, WD, cfg)
    assert r == pytest.approx(-0.01, abs=1e-15)


def test_reward_approach_one_meter():
    cfg = RewardConfig()
    prev = UavState(20.0, 0.0, 2, 2)  # facing -x, toward goal at origin
    cur = UavState(19.0, 0.0, 2, 2)
    r = compute_reward(prev, cur, (0.0, 0.0), WD, cfg)
    assert r == pytest.approx(1.49, abs=1e-12)


def test_reward_goal_bonus_clips():
    cfg = RewardConfig()
    prev = UavState(10.0, 0.0, 2, 2)
    cur = UavState(9.0, 0.0, 2, 2)  # d=9 < d_goal=10: raw 11.49
    r = compute_reward(prev, cur, (0.0, 0.0), WD, cfg)
    assert r == 5.0


def test_reward_heading_wraps():
    a = math.radians(350.0)
    b = math.radians(10.0)
    assert _wrapped_angle(a, b) == pytest.approx(math.radians(20.0), abs=1e-12)
    # end to end: heading 0, target 20 degrees below the +x axis
    cfg = RewardConfig()
    d = 40.0
    gx = d * math.cos(math.radians(-20.0))
    gy = d * math.sin(math.radians(-20.0))
    prev = UavState(0.0, 0.0, 2, 0)
    cur = UavState(0.0, 0.0, 2, 0)
    r = compute_reward(prev, cur, (gx, gy), WD, cfg)
    expect = cfg.beta * (1.0 - math.radians(20.0) / math.pi) + cfg.delta
    assert r == pytest.approx(expect, abs=1e-12)


def test_reward_stop_gated_bonus():
    cfg = RewardConfig(goal_bonus_on_stop=True)
    prev = UavState(5.0, 0.0, 2, 2)
    cur = UavState(5.0, 0.0, 2, 2)  # inside d_goal
    r_move = compute_reward(prev, cur, (0.0, 0.0), WD, cfg, stopped=False)
    r_stop = compute_reward(prev, cur, (0.0, 0.0), WD, cfg, stopped=True)
    # moving in range earns only heading/penalty terms; stopping adds eta
    # and saturates the clip
    assert r_move == pytest.approx(cfg.beta + cfg.delta, abs=1e-12)
    assert r_stop == 5.0
    # plain config pays eta regardless of stopping
    r_plain = compute_reward(prev, cur, (0.0, 0.0), WD, RewardConfig(), stopped=False)
    assert r_plain == 5.0


def test_reward_bounds_fuzz():
    cfg = RewardConfig()
    rng = np.random.default_rng(0)
    n = 100_000
    xs = rng.uniform(-100, 100, size=(n, 6))
    hs = rng.integers(0, 4, size=n)
    for i in range(0, n, 9973):  # strided spot checks with exact arithmetic
        x = xs[i]
        prev = UavState(x[0], x[1], 2, int(hs[i]))
        cur = UavState(x[2], x[3], 2, int(hs[i]))
        r = compute_reward(prev, cur, (x[4], x[5]), WD, cfg)
        assert cfg.r_min <= r <= cfg.r_max
    # vectorized-scale loop, plain bound assertion
    ok = True
    for i in range(0, n, 37):
        x = xs[i]
        prev = UavState(x[0], x[1], 2, int(hs[i]))
        cur = UavState(x[2], x[3], 2, int(hs[i]))
        r = compute_reward(prev, cur, (x[4], x[5]), WD, cfg)
        ok = ok and cfg.r_min <= r <= cfg.r_max
    assert ok


def test_reward_heading_term_bounds_and_distance_sign():
    cfg = RewardConfig(alpha=1.0, beta=0.5, eta=0.0, delta=0.0, r_min=-1e9, r_max=1e9)
    rng = np.random.default_rng(1)
    for _ in range(500):
        p = rng.uniform(-50, 50, size=2)
        c = rng.uniform(-50, 50, size=2)
        g = rng.uniform(-50, 50, size=2)
        h = int(rng.integers(0, 4))
        prev = UavState(p[0], p[1], 2, h)
        cur = UavState(c[0], c[1], 2, h)
        r = compute_reward(prev, cur, (g[0], g[1]), WD, cfg)
        d_prev = math.hypot(p[0] - g[0], p[1] - g[1])
        d_cur = math.hypot(c[0] - g[0], c[1] - g[1])
        heading = r - (d_prev - d_cur)
        assert -1e-9 <= heading <= cfg.beta + 1e-9


def test_reward_config_validation():
    with pytest.raises(ConfigError):
        RewardConfig(r_min=5.0, r_max=-5.0).validate()
    RewardConfig().validate()


# -------------------------------------------------------------------- returns


def discounted_return(rewards, gamma: float) -> np.ndarray:
    """Oracle: suffix sums G_t = sum_k gamma^k r_{t+k}."""
    r = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(r)
    acc = 0.0
    for t in range(r.size - 1, -1, -1):
        acc = r[t] + gamma * acc
        out[t] = acc
    return out


def test_discounted_return_gamma_zero():
    assert np.array_equal(discounted_return([1.0, 1.0, 1.0], 0.0), [1.0, 1.0, 1.0])


def test_discounted_return_hand_case():
    np.testing.assert_allclose(discounted_return([0.0, 0.0, 1.0], 0.5), [0.25, 0.5, 1.0])


def test_discounted_return_geometric():
    g = discounted_return(np.ones(1000), 0.9)
    assert abs(g[0] - (1 - 0.9 ** 1000) / 0.1) < 1e-6


# ------------------------------------------------------------------------ GAE


def make_rollout(rewards, values, dones, bootstrap=0.0):
    n = len(rewards)
    return Rollout(
        actions=np.zeros(n, dtype=np.int64),
        log_probs_old=np.zeros(n),
        values_old=np.asarray(values, dtype=np.float64),
        rewards=np.asarray(rewards, dtype=np.float64),
        dones=np.asarray(dones, dtype=bool),
        bootstrap_value=bootstrap,
    )


def test_gae_single_terminal_step():
    ro = make_rollout([3.0], [0.0], [True])
    adv, targets = compute_gae(ro, 0.99, 0.95)
    assert adv[0] == 3.0
    assert targets[0] == 3.0


def test_gae_lambda_zero_is_td_error():
    rng = np.random.default_rng(2)
    r = rng.normal(size=20)
    v = rng.normal(size=20)
    dones = np.zeros(20, dtype=bool)
    dones[9] = dones[19] = True
    adv, _ = compute_gae(make_rollout(r, v, dones), 0.9, 0.0)
    for t in range(20):
        next_v = 0.0 if dones[t] else (v[t + 1] if t + 1 < 20 else 0.0)
        delta = r[t] + 0.9 * next_v - v[t]
        assert adv[t] == pytest.approx(delta, abs=1e-12)


def test_gae_lambda_one_is_monte_carlo():
    rng = np.random.default_rng(3)
    gamma = 0.97
    r = rng.normal(size=30)
    v = rng.normal(size=30)
    dones = np.zeros(30, dtype=bool)
    dones[11] = dones[29] = True
    adv, targets = compute_gae(make_rollout(r, v, dones), gamma, 1.0)
    # oracle: per-episode discounted suffix sums minus V
    start = 0
    for end in (11, 29):
        seg = r[start:end + 1]
        g = discounted_return(seg, gamma)
        np.testing.assert_allclose(adv[start:end + 1], g - v[start:end + 1], atol=1e-9)
        np.testing.assert_allclose(targets[start:end + 1], g, atol=1e-9)
        start = end + 1


def test_gae_truncation_bootstraps():
    gamma, boot = 0.9, 2.5
    r = np.array([1.0, 1.0, 1.0])
    v = np.array([0.3, 0.2, 0.1])
    dones = np.array([False, False, False])
    adv, _ = compute_gae(make_rollout(r, v, dones, bootstrap=boot), gamma, 1.0)
    for t in range(3):
        g = sum(gamma ** (j - t) * r[j] for j in range(t, 3)) + gamma ** (3 - t) * boot
        assert adv[t] == pytest.approx(g - v[t], abs=1e-9)


def test_gae_shape_mismatch():
    ro = make_rollout([1.0, 2.0], [0.0, 0.0], [False, True])
    ro.values_old = np.zeros(3)
    with pytest.raises(ContractError):
        compute_gae(ro, 0.99, 0.95)


# ------------------------------------------------------------------------ PPO


def test_ppo_objective_analytic_cases():
    # r=1, A=1 -> 1
    obj = ppo_clip_objective(Tensor([0.0]), np.array([0.0]), np.array([1.0]), 0.2)
    assert obj.data[0] == pytest.approx(1.0, abs=1e-12)
    # r=2, A=1 -> clipped 1.2
    obj = ppo_clip_objective(Tensor([math.log(2.0)]), np.array([0.0]), np.array([1.0]), 0.2)
    assert obj.data[0] == pytest.approx(1.2, abs=1e-12)
    # r=0.5, A=-1 -> pessimistic -0.8
    obj = ppo_clip_objective(Tensor([math.log(0.5)]), np.array([0.0]), np.array([-1.0]), 0.2)
    assert obj.data[0] == pytest.approx(-0.8, abs=1e-12)


def test_ppo_objective_pessimistic_bound():
    rng = np.random.default_rng(4)
    lpn = rng.normal(scale=0.5, size=300)
    lpo = rng.normal(scale=0.5, size=300)
    adv = rng.normal(size=300)
    obj = ppo_clip_objective(Tensor(lpn), lpo, adv, 0.2).data
    unclipped = np.exp(lpn - lpo) * adv
    assert np.all(obj <= unclipped + 1e-12)


def test_ppo_objective_zero_grad_when_clipped():
    for lpn_val, adv_val in ((math.log(2.0), 1.0), (math.log(0.5), -1.0)):
        lpn = Tensor(np.array([lpn_val]), requires_grad=True)
        obj = ppo_clip_objective(lpn, np.array([0.0]), np.array([adv_val]), 0.2)
        ad.backward(ad.sum_all(obj))
        assert lpn.grad[0] == 0.0


def test_ppo_objective_live_grad_at_old_policy():
    # r exactly 1 ties the two branches; the unclipped one must win so
    # the surrogate stays differentiable at initialization
    lpn = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    adv = np.array([0.7, -1.3])
    obj = ppo_clip_objective(lpn, np.array([0.0, 0.0]), adv, 0.2)
    ad.backward(ad.sum_all(obj))
    np.testing.assert_allclose(lpn.grad, adv, atol=1e-12)


# --------------------------------------------------------------------- losses


def test_il_loss_cases():
    z = np.zeros((1, 2))
    assert il_loss(Tensor(z), z, Tensor(np.zeros(1)), np.zeros(1)).data == 0.0
    pred = np.array([[0.6, 0.5]])
    true = np.array([[0.5, 0.5]])
    assert il_loss(Tensor(pred), true, Tensor(np.zeros(1)), np.zeros(1)).data == pytest.approx(0.005, abs=1e-15)
    pred2 = np.array([[0.6, 0.5], [0.5, 0.5]])
    true2 = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert il_loss(Tensor(pred2), true2, Tensor(np.zeros(2)), np.zeros(2)).data == pytest.approx(0.0025, abs=1e-15)


def test_value_loss_cases_and_grad():
    assert value_loss(Tensor([1.0, 2.0]), np.array([1.0, 2.0])).data == 0.0
    assert value_loss(Tensor([2.0]), np.array([0.0])).data == 4.0
    vp = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
    vt = np.array([0.0, 0.0, 0.0, 0.0])
    ad.backward(value_loss(vp, vt))
    np.testing.assert_allclose(vp.grad, 2.0 * vp.data / 4.0, atol=1e-12)


# What the RL loss trains: the micro controller and the critic. The map
# feature and the waypoint enter each rollout row as constants, so the map
# encoder and the macro heads learn only by imitation.
RL_TRAINED = {"action_head", "micro_fc", "obs_conv1", "obs_conv2", "obs_out", "state_fc1", "state_fc2",
              "trunk", "value_head", "desc_out", "emb_landmark", "emb_sector", "emb_band", "emb_tag"}


def test_ppo_loss_reaches_the_micro_controller_and_critic_only():
    world = generate_world(301, WorldConfig(width=32, height=32, n_landmarks=5, z_max=3, r_base=3, r_gain=2))
    model = NavPolicy(substream(0, "net"), world.width, world.height, world.z_max,
                      len(world.landmarks), world.patch_side)
    ro = collect_rollouts(NeuralPolicy(model), [world], {"easy": TIERS["easy"]}, RewardConfig(), 24,
                          lambda j: substream(5, "reach", j))
    cfg = PPOConfig()
    adv, targets = compute_gae(ro, cfg.gamma, cfg.lambda_gae)
    idx = np.arange(len(ro))
    lp_all, value = _rollout_heads(model, ro, idx)
    loss, _, _ = ppo_minibatch_loss(lp_all, value, ro.actions, ro.log_probs_old, adv, targets,
                                    cfg.eps_clip, cfg.value_weight, cfg.entropy_weight)
    ad.backward(loss)
    reached = {name.split(".")[0] for name, t, _ in model.named_params()
               if t.grad is not None and np.any(t.grad != 0.0)}
    assert reached == RL_TRAINED
    untouched = {name.split(".")[0] for name, _, _ in model.named_params()} - RL_TRAINED
    assert untouched == {"map_encoder", "waypoint_head", "goal_head", "progress_head"}


def test_expert_loss_reaches_every_module_but_the_map_encoder(tmp_path, monkeypatch):
    # stage 2's imitation term reads each corpus snapshot's stored encode,
    # as a rollout row reads its map feature, so it trains every module but
    # the encoder, and the encoder is not in the stage-2 optimizer
    world = generate_world(301, WorldConfig(width=32, height=32, n_landmarks=5, z_max=3, r_base=3, r_gain=2))
    model = NavPolicy(substream(0, "net"), world.width, world.height, world.z_max,
                      len(world.landmarks), world.patch_side)
    reward_cfg = RewardConfig()
    save_corpus(tmp_path, build_dataset([world], 4, {"easy": TIERS["easy"]}, 77, reward_cfg, 0.99))
    corpus = load_corpus(tmp_path, {world.world_id: world}, reward_cfg, 0.99)
    seen = {}

    def first_update(model, rollout, forward, cfg, opt, shuffles, expert=None):
        seen.setdefault("opt", opt)
        seen.setdefault("expert", expert)
        return None  # a blow-up: train_stage2 rolls back and stops

    monkeypatch.setattr(training, "ppo_update", first_update)
    cfg = PPOConfig(rollout_steps=8, max_updates=1, tiers={"easy": TIERS["easy"]})
    train_stage2(NeuralPolicy(model), [world], cfg, reward_cfg, corpus=corpus)
    modules = {name.split(".")[0] for name, _, _ in model.named_params()}
    assert {name.split(".")[0] for name, _, _ in seen["opt"].entries} == modules - {"map_encoder"}
    loss, _ = seen["expert"]()
    ad.backward(loss)
    reached = {name.split(".")[0] for name, t, _ in model.named_params()
               if t.grad is not None and np.any(t.grad != 0.0)}
    assert reached == modules - {"map_encoder"}


def test_demo_snapshots_align_with_k_changes():
    # stage-1 data preparation renders and maps each label-only step under
    # the policy's prior, and snapshots the map at t = 0 and wherever the
    # waypoint index k changes; the steps up to the next change share it
    world = generate_world(41, WorldConfig(width=48, height=48, n_landmarks=6))
    demos = build_dataset([world], 3, {t: TIERS[t] for t in ("easy", "medium")}, 41, RewardConfig(), 0.99)
    policy = NeuralPolicy(NavPolicy(substream(0, "net"), world.width, world.height, world.z_max,
                                    len(world.landmarks), world.patch_side), r_prior=6.0)
    data = training.prepare_stage1_data(demos, [world], policy)
    row = 0
    for demo in demos:
        nav = init_map(world, demo.episode, 6.0)
        for t, st in enumerate(demo.steps):
            obs = render_observation(world, st.state)
            update_map(nav, st.state, obs)
            assert data.patches[row].tobytes() == obs.patch.tobytes()
            new = t == 0 or st.k != demo.steps[t - 1].k
            assert data.snap_idx[row] == (data.snap_idx[row - 1] + new if row else 0)
            if new:
                assert data.snapshots[data.snap_idx[row]].tobytes() == nav.tobytes()
            row += 1
    assert row == data.n and len(data.snapshots) == data.snap_idx[-1] + 1



@pytest.fixture(scope="module")
def stage1_setup():
    world = generate_world(301, WorldConfig(width=32, height=32, n_landmarks=5, z_max=3, r_base=3, r_gain=2))
    demos = build_dataset([world], 6, {t: TIERS[t] for t in ("easy", "medium")}, 77, RewardConfig(), 0.99)

    def policy():
        return NeuralPolicy(NavPolicy(substream(0, "net"), world.width, world.height, world.z_max,
                                      len(world.landmarks), world.patch_side))

    return world, demos, policy, training.prepare_stage1_data(demos, [world], policy())


def snapshot_runs(data, order):
    """The snapshot of each run of equal snap_idx along order."""
    snaps = data.snap_idx[order]
    return snaps[np.r_[True, snaps[1:] != snaps[:-1]]]


def test_stage1_order_groups_rows_by_snapshot(stage1_setup):
    # each epoch is a permutation of every row in which each snapshot's
    # rows sit together, so a minibatch encodes few distinct maps
    data = stage1_setup[3]
    assert len(data.snapshots) > 10
    for epoch in range(3):
        order = stage1_order(data, 5, epoch)
        assert np.array_equal(np.sort(order), np.arange(data.n))
        runs = snapshot_runs(data, order)
        assert len(runs) == len(data.snapshots)
        assert np.array_equal(np.sort(runs), np.arange(len(data.snapshots)))


def test_stage1_order_is_a_function_of_seed_and_epoch(stage1_setup):
    data = stage1_setup[3]
    later = stage1_order(data, 5, 1)
    first = stage1_order(data, 5, 0)
    assert np.array_equal(first, stage1_order(data, 5, 0))
    assert np.array_equal(later, stage1_order(data, 5, 1))
    assert not np.array_equal(snapshot_runs(data, first), snapshot_runs(data, later))
    assert not np.array_equal(first, stage1_order(data, 6, 0))


def test_stage1_encodes_each_snapshot_about_once_per_epoch(stage1_setup, monkeypatch):
    # consecutive minibatches share at most the snapshot their cut splits,
    # so one epoch encodes at most n_snapshots + n_minibatches - 1 maps
    world, demos, policy, data = stage1_setup
    rows = []
    encode = MapEncoder.__call__

    def spy(self, x, train):
        rows.append(x.shape[0])
        return encode(self, x, train)

    monkeypatch.setattr(MapEncoder, "__call__", spy)
    cfg = Stage1Config(epochs=1, minibatch=16, seed=3)
    res = train_stage1(demos, [world], policy(), cfg)
    n_mb = data.n // cfg.minibatch
    assert res.epochs_run == 1 and n_mb > 1 and len(rows) == n_mb
    assert sum(rows) <= len(data.snapshots) + n_mb - 1


def test_stage1_bc_acc_is_the_share_of_teacher_argmax_rows(stage1_setup):
    # at lr 0 the parameters never move, so each minibatch's logits can be
    # recomputed after the run; bc_acc is the share over every minibatch row
    world, demos, policy, data = stage1_setup
    cfg = Stage1Config(epochs=2, lr=0.0, minibatch=16, seed=4)
    model = policy().model
    res = train_stage1(demos, [world], NeuralPolicy(model), cfg)
    for row in res.curve:
        order = stage1_order(data, cfg.seed, row["epoch"])
        hits = 0
        for lo in range(0, data.n - cfg.minibatch + 1, cfg.minibatch):
            idx = order[lo : lo + cfg.minibatch]
            with ad.no_grad():
                logits = _stage1_forward(model, data, idx).logits.data
            hits += int(np.sum(logits.argmax(axis=1) == data.actions[idx]))
        n_rows = data.n // cfg.minibatch * cfg.minibatch
        assert math.isclose(row["bc_acc"], hits / n_rows, rel_tol=1e-12)
        assert 0.0 <= row["bc_acc"] <= 1.0
