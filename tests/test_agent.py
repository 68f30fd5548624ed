"""Policy heads, controller state machine, episode runner, log IO."""

import dataclasses
import math

import numpy as np
import pytest

from tiernav import agent
from tiernav import autodiff as ad
from tiernav.autodiff import Tensor
from tiernav.agent import (
    NavPolicy,
    NeuralPolicy,
    RandomPolicy,
    Slot,
    TeacherPolicy,
    ControllerState,
    descriptor_ids,
    load_policy_into,
    macro_plan,
    pose_features,
    run_episode,
    save_policy,
    tiered_step,
    waypoint_context,
)
from tiernav.checkpoint import load_checkpoint, save_checkpoint
from tiernav.errors import ContractError
from tiernav.evaluation import BenchmarkRecord, write_step_log
from tiernav.teacher import STEP_LOG_COLUMNS, read_trajectory_log
from tiernav.util import substream
from tiernav.world import (
    Action,
    GoalDescriptor,
    Observation,
    RewardConfig,
    UavState,
    WorldConfig,
    generate_world,
    render_observation,
    sample_episode,
)


def world_and_episode(seed=3, tier="medium"):
    wd = generate_world(seed, WorldConfig(width=48, height=48, n_landmarks=6))
    ep = sample_episode(wd, tier, substream(seed, "ep"))
    return wd, ep


def run_one(policy, world, episode, rng=None, **kw):
    return run_episode(policy, [(world, episode, rng)], **kw)[0]


def make_model(seed=0, width=48, height=48, z_max=4, n_landmarks=6, patch_side=25, **kw):
    return NavPolicy(substream(seed, "model"), width, height, z_max, n_landmarks, patch_side, **kw)


def test_pose_features_center_cell():
    f = pose_features(UavState(24.0, 24.0, 4, 0), 48, 48, 4)
    np.testing.assert_allclose(f, [0.5, 0.5, 1.0, 1, 0, 0, 0])


def test_pose_features_heading_onehot():
    for h in range(4):
        f = pose_features(UavState(0.0, 0.0, 1, h), 48, 48, 4)
        onehot = f[3:]
        assert onehot[h] == 1.0 and onehot.sum() == 1.0


def test_state_features_deterministic():
    model = make_model()
    s = UavState(10.0, 20.0, 2, 3)
    f1 = model.state_features(pose_features(s, 48, 48, 4)[None]).data
    f2 = model.state_features(pose_features(s, 48, 48, 4)[None]).data
    assert np.array_equal(f1, f2)


def test_state_encoder_gets_value_gradient():
    model = make_model()
    pose = pose_features(UavState(10.0, 20.0, 2, 3), 48, 48, 4)[None]
    map_feat = np.zeros((1, 64))
    patch = np.zeros((1, 3, 25, 25))
    out = model.forward_heads(map_feat, pose, np.zeros((1, 4), dtype=np.int64), patch, np.zeros((1, 5)))
    ad.backward(ad.mean_all(ad.square(out.value)))
    assert model.state_fc1.weight.grad is not None
    assert np.any(model.state_fc1.weight.grad != 0)


def test_descriptor_embedding_basics():
    model = make_model()
    d1 = GoalDescriptor(landmark_id=2, sector=3, band="mid", tag=1)
    d2 = GoalDescriptor(landmark_id=2, sector=4, band="mid", tag=1)
    f1 = model.desc_features(descriptor_ids(d1)[None]).data
    f1b = model.desc_features(descriptor_ids(d1)[None]).data
    f2 = model.desc_features(descriptor_ids(d2)[None]).data
    assert np.array_equal(f1, f1b)
    assert not np.allclose(f1, f2)


def test_embedding_tables_get_goal_gradient():
    model = make_model()
    ids = descriptor_ids(GoalDescriptor(1, 5, "far", 2))[None]
    out = model.forward_heads(np.zeros((1, 64)), np.zeros((1, 7)), ids,
                              np.zeros((1, 3, 25, 25)), np.zeros((1, 5)))
    ad.backward(ad.mean_all(ad.square(out.goal)))
    for emb in (model.emb_landmark, model.emb_sector, model.emb_band, model.emb_tag):
        assert emb.table.grad is not None and np.any(emb.table.grad != 0)


def test_descriptor_out_of_range():
    model = make_model(n_landmarks=6)
    bad = np.array([[6, 0, 0, 0]], dtype=np.int64)
    with pytest.raises(ContractError):
        model.desc_features(bad)


def test_forward_heads_shapes_and_ranges():
    model = make_model()
    rng = substream(1, "x")
    b = 3
    out = model.forward_heads(
        rng.normal(size=(b, 64)),
        rng.normal(size=(b, 7)),
        np.zeros((b, 4), dtype=np.int64),
        rng.normal(size=(b, 3, 25, 25)),
        rng.normal(size=(b, 5)),
    )
    assert out.goal.data.shape == (b, 2)
    assert out.progress.data.shape == (b, 1)
    assert np.all((out.progress.data >= 0) & (out.progress.data <= 1))
    assert out.value.data.shape == (b, 1)
    assert out.waypoint.data.shape == (b, 2)
    assert out.logits.data.shape == (b, 6)
    assert np.all(np.isfinite(out.logits.data))


def test_all_heads_receive_composite_gradient():
    model = make_model()
    rng = substream(2, "x")
    b = 4
    map_feat = Tensor(rng.normal(size=(b, 64)))
    out = model.forward_heads(
        map_feat,
        rng.normal(size=(b, 7)),
        np.array([[1, 2, 0, 3]] * b, dtype=np.int64),
        rng.normal(size=(b, 3, 25, 25)),
        rng.normal(size=(b, 5)),
    )
    # composite: every head term contributes
    loss = ad.add(
        ad.add(ad.mean_all(ad.square(out.goal)), ad.mean_all(ad.square(out.progress))),
        ad.add(
            ad.add(ad.mean_all(ad.square(out.value)), ad.mean_all(ad.square(out.waypoint))),
            ad.mean_all(ad.square(out.logits)),
        ),
    )
    ad.backward(loss)
    for head in ("goal_head", "progress_head", "value_head", "waypoint_head", "action_head"):
        w = getattr(model, head).weight
        assert w.grad is not None and np.any(w.grad != 0), head


def test_waypoint_context_hand_cases():
    # facing +x, waypoint 3 ahead
    f = waypoint_context(UavState(5.0, 5.0, 2, 0), (8.0, 5.0), 48, 48)
    np.testing.assert_allclose(f, [3 / 48, 0.0, 3 / 48, 1.0, 0.0])
    # same offset seen from a +y heading: purely to the right (-left)
    f = waypoint_context(UavState(5.0, 5.0, 2, 1), (8.0, 5.0), 48, 48)
    np.testing.assert_allclose(f, [0.0, -3 / 48, 3 / 48, 0.0, -1.0])
    # standing on the waypoint: zero range, zero bearing
    f = waypoint_context(UavState(5.0, 5.0, 2, 0), (5.0, 5.0), 48, 48)
    np.testing.assert_allclose(f, np.zeros(5))


def dummy_obs(patch_side, z_max=4):
    return Observation(patch=np.zeros((3, patch_side, patch_side)), z_max=z_max)


def plan_inputs(state, descriptor, width=96):
    """One macro_plan row: map feature, pose, descriptor ids and patch."""
    return (np.zeros((1, 64)), pose_features(state, width, width, 4)[None],
            descriptor_ids(descriptor)[None], dummy_obs(25).patch[None])


def test_macro_plan_clamps_to_grid():
    model = make_model(width=96, height=96, patch_side=25)
    model.waypoint_head.weight.data[...] = 0.0
    model.waypoint_head.bias.data[...] = (-0.1, 0.5)
    wp = macro_plan(model, *plan_inputs(UavState(10.0, 10.0, 2, 0), GoalDescriptor(0, 0, "near", 0)))
    assert wp == [(0.0, 48.0)]


def test_macro_plan_flat_follows_goal_head():
    model = make_model(width=96, height=96, patch_side=25)
    model.goal_head.weight.data[...] = 0.0
    model.goal_head.bias.data[...] = (0.25, 0.75)
    model.waypoint_head.weight.data[...] = 0.0
    model.waypoint_head.bias.data[...] = (0.9, 0.9)
    inputs = plan_inputs(UavState(10.0, 10.0, 2, 0), GoalDescriptor(0, 0, "near", 0))
    assert macro_plan(model, *inputs, flat=True) == [(24.0, 72.0)]
    assert macro_plan(model, *inputs, flat=False) == [(86.4, 86.4)]


def start_slot(wd, ep, ctrl=None, rng=None):
    from tiernav.mapper import init_map

    return Slot(world=wd, episode=ep, state=ep.start, nav=init_map(wd, ep),
                obs=render_observation(wd, ep.start), ctx=ctrl or ControllerState(), rng=rng)


def test_tiered_step_replans_at_waypoint():
    wd, ep = world_and_episode()
    model = make_model()
    near = start_slot(wd, ep, ControllerState(k=3, waypoint=(ep.start.x, ep.start.y),
                                              map_feat=np.zeros(64)))
    # far waypoint: no replan
    far = start_slot(wd, ep, ControllerState(k=3, waypoint=(ep.start.x + 30, ep.start.y),
                                             map_feat=np.zeros(64)))
    tiered_step(model, [near, far], "greedy")
    assert near.ctx.k == 4
    assert far.ctx.k == 3
    assert far.ctx.waypoint == (ep.start.x + 30, ep.start.y)


def test_tiered_step_greedy_argmax():
    wd, ep = world_and_episode()
    model = make_model()
    model.action_head.weight.data[...] = 0.0
    model.action_head.bias.data[...] = [0, 0, 5, 0, 0, 0]
    [rec] = tiered_step(model, [start_slot(wd, ep)], "greedy")
    assert rec.action == 2
    # argmax invariant under constant logit shifts
    model.action_head.bias.data[...] = np.array([0, 0, 5, 0, 0, 0]) + 11.0
    [rec2] = tiered_step(model, [start_slot(wd, ep)], "greedy")
    assert rec2.action == 2


def test_tiered_step_sample_mode_valid_actions():
    wd, ep = world_and_episode()
    model = make_model()
    slot = start_slot(wd, ep, rng=substream(7, "samp"))
    seen = set()
    for _ in range(40):
        [rec] = tiered_step(model, [slot], "sample")
        action = rec.action
        assert 0 <= action < 6
        assert math.isfinite(rec.log_prob) and rec.log_prob <= 0.0
        seen.add(action)
    assert len(seen) > 1  # near-uniform logits at init


def test_tiered_step_rejects_unknown_mode():
    wd, ep = world_and_episode()
    model = make_model()
    with pytest.raises(ContractError):
        tiered_step(model, [start_slot(wd, ep)], "beam")


class AlwaysStop:
    r_prior = None

    def begin_episode(self, world, episode):
        return None

    def act(self, slots, mode, feats=False):
        from tiernav.teacher import TrajStep

        return [TrajStep(t=len(s.steps), state=s.state, action=int(Action.STOP), k=0, waypoint=(0.0, 0.0),
                         goal_hat=(0.0, 0.0), progress_hat=0.0, value_hat=0.0, log_prob=0.0)
                for s in slots]


def test_run_episode_always_stop():
    wd, ep = world_and_episode()
    traj = run_one(AlwaysStop(), wd, ep)
    assert len(traj) == 1
    assert traj.stopped
    assert traj.final_state == ep.start


def test_run_episode_builds_maps_with_the_policys_prior(monkeypatch):
    wd, ep = world_and_episode(seed=11)
    priors = []
    real = agent.init_map

    def record(world, episode, r_prior):
        priors.append(r_prior)
        return real(world, episode, r_prior)

    monkeypatch.setattr(agent, "init_map", record)
    short = dataclasses.replace(ep, max_steps=2)
    for policy in (NeuralPolicy(make_model(seed=5), r_prior=6.0), TeacherPolicy(), RandomPolicy()):
        run_one(policy, wd, short, substream(11, "prior"))
    assert priors == [6.0, None, None]


def test_run_episode_teacher_reaches_goal():
    wd, ep = world_and_episode(seed=11)
    traj = run_one(TeacherPolicy(), wd, ep, reward_cfg=RewardConfig())
    assert traj.stopped
    ne = math.hypot(traj.final_state.x - ep.goal[0], traj.final_state.y - ep.goal[1])
    assert ne * wd.cell_size <= 10.0
    assert len(traj) <= ep.max_steps


def test_run_episode_truncates_at_cap():
    wd, ep = world_and_episode()
    model = make_model(seed=5)
    traj = run_one(NeuralPolicy(model), wd, dataclasses.replace(ep, max_steps=7), mode="greedy")
    if not traj.stopped:
        assert len(traj) == 7


def test_run_episode_greedy_deterministic():
    wd, ep = world_and_episode(seed=13)
    model = make_model(seed=13)
    t1 = run_one(NeuralPolicy(model), wd, ep, mode="greedy")
    t2 = run_one(NeuralPolicy(model), wd, ep, mode="greedy")
    assert len(t1) == len(t2)
    for a, b in zip(t1.steps, t2.steps):
        assert a.state == b.state and a.action == b.action
        assert a.goal_hat == b.goal_hat and a.value_hat == b.value_hat


def test_replan_trigger_rule_holds_along_episode():
    wd, ep = world_and_episode(seed=17)
    model = make_model(seed=17)
    traj = run_one(NeuralPolicy(model), wd, ep, substream(17, "roll"), mode="sample")
    assert traj.steps[0].k == 1  # no waypoint yet at t=0 forces a replan
    for prev, cur in zip(traj.steps, traj.steps[1:]):
        d = math.hypot(cur.state.x - prev.waypoint[0], cur.state.y - prev.waypoint[1])
        if cur.k == prev.k + 1:
            assert d < 1.5
        else:
            assert cur.k == prev.k
            assert d >= 1.5


def test_trajectory_log_round_trip(tmp_path):
    wd, ep = world_and_episode(seed=19)
    traj = run_one(TeacherPolicy(), wd, ep, reward_cfg=RewardConfig())
    p = tmp_path / "steps.csv"
    write_step_log(p, [BenchmarkRecord(split="seen", tier="easy", seed=0, index=3, result=None, traj=traj)])
    header, episodes = read_trajectory_log(p)
    assert header == STEP_LOG_COLUMNS
    assert list(episodes) == ["seen/easy/s0/3"]
    rows = episodes["seen/easy/s0/3"]
    assert len(rows) == len(traj)
    for row, st in zip(rows, traj.steps):
        assert (row["split"], row["tier"], row["seed"], row["episode"]) == ("seen", "easy", 0.0, 3.0)
        assert row["t"] == st.t
        assert row["x"] == st.state.x and row["y"] == st.state.y
        assert row["action"] == st.action
        assert row["r"] == st.reward
    with pytest.raises(ContractError):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        read_trajectory_log(bad)


def test_policy_checkpoint_round_trip(tmp_path):
    wd, ep = world_and_episode(seed=23)
    model = make_model(seed=23)
    # running statistics away from their fresh 0 and 1, so the clone must load them too
    for _, arr in model.named_state():
        arr[...] = substream(23, "bn").uniform(0.5, 2.0, size=arr.shape)
    path = tmp_path / "p.ckpt"
    save_policy(path, model, meta={"stage": "test"})
    clone = make_model(seed=99)
    meta = load_policy_into(clone, path)
    assert meta["stage"] == "test"
    t1 = run_one(NeuralPolicy(model), wd, ep, mode="greedy")
    t2 = run_one(NeuralPolicy(clone), wd, ep, mode="greedy")
    for a, b in zip(t1.steps, t2.steps):
        assert a.action == b.action and a.value_hat == b.value_hat


def test_policy_checkpoint_mismatch(tmp_path):
    model = make_model(seed=23)
    path = tmp_path / "p.ckpt"
    save_policy(path, model)
    other = make_model(seed=1, trunk_hidden=96)
    with pytest.raises(ContractError, match="shape") as shape:
        load_policy_into(other, path)
    assert str(path) in str(shape.value)
    deeper = make_model(seed=1, enc_widths=(8, 16, 16))
    with pytest.raises(ContractError, match="missing") as keys:
        load_policy_into(deeper, path)
    assert str(path) in str(keys.value)
    # every checkpoint written while BatchNorm counted its batches holds *.bn.num_batches
    arrays, meta = load_checkpoint(path)
    arrays.update({name.replace("running_mean", "num_batches"): np.ones(1)
                   for name in arrays if name.endswith(".bn.running_mean")})
    legacy = tmp_path / "legacy.ckpt"
    save_checkpoint(legacy, arrays, meta)
    with pytest.raises(ContractError, match="unexpected") as old:
        load_policy_into(make_model(seed=23), legacy)
    assert str(legacy) in str(old.value) and ".bn.num_batches" in str(old.value)


def test_random_policy_runs():
    wd, ep = world_and_episode(seed=29)
    traj = run_one(RandomPolicy(), wd, ep, substream(29, "rand"))
    assert 1 <= len(traj) <= ep.max_steps
    assert all(0 <= s.action < 6 for s in traj.steps)
