"""Stage-1/stage-2 trainers, rollout collection, corridor sanity.

collect_rollouts plays its episodes in lockstep through
agent.run_episode; oracle_collect_rollouts below is a serial batch-1
collection loop under the same sampling contract (episode j on
streams(j), segments in episode order, an exact cut, the bootstrap from
the step at the cut state). Batched rows differ from batch-1 rows only
in the last bits, so the comparison is exact for everything the
episodes did and within 1e-12 for the floats that come from a head.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from tiernav import agent, autodiff as ad, training
from tiernav.agent import (ControllerState, NavPolicy, NeuralPolicy, Slot, TeacherPolicy, load_policy_into, policy_arrays,
                          save_policy, tiered_step)
from tiernav.errors import NumericsError
from tiernav.evaluation import run_benchmark
from tiernav.mapper import init_map, update_map
from tiernav.optim import AdamW
from tiernav.teacher import build_dataset, load_corpus, save_corpus
from tiernav.training import (
    IL_CURVE_COLUMNS,
    RL_CURVE_COLUMNS,
    PPOConfig,
    Rollout,
    Stage1Config,
    collect_rollouts,
    compute_gae,
    probe_success_rate,
    train_stage1,
    train_stage2,
    write_curve,
)
from tiernav.util import substream
from tiernav.world import (TIERS, Action, RewardConfig, WorldConfig, compute_reward, generate_world,
                           render_observation, sample_episode, step)

from corridor import corridor_sanity
from critic import critic_value_loss, reinit_value_head

GAMMA = 0.99
EASY = {"easy": TIERS["easy"]}
EASY_MEDIUM = {t: TIERS[t] for t in ("easy", "medium")}


@pytest.fixture(scope="module")
def world():
    return generate_world(301, WorldConfig(width=32, height=32, n_landmarks=5, z_max=3, r_base=3, r_gain=2))


@pytest.fixture(scope="module")
def reward_cfg():
    return RewardConfig()


@pytest.fixture(scope="module")
def corpus(world, reward_cfg, tmp_path_factory):
    # the CLI's route: demonstrations saved, then relabeled from disk
    root = tmp_path_factory.mktemp("corpus")
    save_corpus(root, build_dataset([world], 8, EASY_MEDIUM, 77, reward_cfg, GAMMA))
    return load_corpus(root, {world.world_id: world}, reward_cfg, GAMMA)


def fresh_model(world, seed=0):
    return NavPolicy(substream(seed, "net"), world.width, world.height, world.z_max,
                     len(world.landmarks), world.patch_side)


def params_of(model):
    return {name: t.data.copy() for name, t, _ in model.named_params()}


def assert_params_equal(a, b, invert=False):
    same = all(np.array_equal(a[k], b[k]) for k in a)
    assert same != invert


def assert_snapshots_equal(a, b):
    assert sorted(a) == sorted(b)
    for k in a:
        assert a[k].tobytes() == b[k].tobytes(), k


def test_stage1_zero_epochs_noop(world, corpus):
    model = fresh_model(world)
    before = params_of(model)
    res = train_stage1(corpus, [world], NeuralPolicy(model), Stage1Config(epochs=0))
    assert res.epochs_run == 0 and not res.aborted
    assert_params_equal(before, params_of(model))


def test_stage1_deterministic(world, corpus):
    m1 = fresh_model(world, seed=4)
    m2 = fresh_model(world, seed=4)
    cfg = Stage1Config(epochs=2, seed=9)
    train_stage1(corpus, [world], NeuralPolicy(m1), cfg)
    train_stage1(corpus, [world], NeuralPolicy(m2), cfg)
    assert_params_equal(params_of(m1), params_of(m2))


def test_stage1_losses_fall_and_curve_shape(world, corpus):
    model = fresh_model(world, seed=1)
    res = train_stage1(corpus, [world], NeuralPolicy(model), Stage1Config(epochs=15, seed=1))
    assert res.epochs_run == 15 and not res.aborted
    assert set(res.curve[0]) == set(IL_CURVE_COLUMNS)
    assert res.final_il < res.curve[0]["L_IL"]
    assert res.curve[-1]["L_BC"] < res.curve[0]["L_BC"]


def test_stage1_nonfinite_loss_rolls_back_to_last_epoch(world, corpus, monkeypatch):
    # count one epoch's minibatches on a reference run that stops after epoch 1
    calls = []
    il_loss = training.il_loss

    def counting(*args):
        calls.append(1)
        return il_loss(*args)

    monkeypatch.setattr(training, "il_loss", counting)
    ref = fresh_model(world, seed=13)
    ref_res = train_stage1(corpus, [world], NeuralPolicy(ref), Stage1Config(epochs=1, seed=13, minibatch=32))
    n_mb = len(calls)
    assert n_mb >= 2

    def poisoned(*args):
        calls.append(1)
        out = il_loss(*args)
        # the second minibatch of epoch 2, after one clean step in that epoch
        return ad.scale(out, math.nan) if len(calls) == 2 * n_mb + 2 else out

    monkeypatch.setattr(training, "il_loss", poisoned)
    model = fresh_model(world, seed=13)
    res = train_stage1(corpus, [world], NeuralPolicy(model), Stage1Config(epochs=3, seed=13, minibatch=32))
    assert res.aborted
    assert res.epochs_run == 1 and res.curve == ref_res.curve
    assert_snapshots_equal(training._snapshot(model), training._snapshot(ref))


def test_stage1_trains_alike_on_built_and_replayed_demonstrations(world, reward_cfg, corpus):
    # a demonstration is labels only, built or loaded: stage 1 renders and
    # maps it, so build_dataset's corpus and its save/load replay train to
    # the same bytes
    built = build_dataset([world], 8, EASY_MEDIUM, 77, reward_cfg, GAMMA)
    assert all(st.feats is None for demos in (built, corpus) for demo in demos for st in demo.steps)
    trained = []
    for demos in (built, corpus):
        model = fresh_model(world, seed=3)
        train_stage1(demos, [world], NeuralPolicy(model), Stage1Config(epochs=2, seed=3))
        trained.append(training._snapshot(model))
    assert_snapshots_equal(*trained)


def streams(*tags):
    """Episode j's sampling generator, substream(*tags, j)."""
    return functools.partial(substream, *tags)


def test_collect_rollout_contract(world, reward_cfg):
    policy = NeuralPolicy(fresh_model(world))
    ro = collect_rollouts(policy, [world], EASY, reward_cfg, 90, streams(3, "roll"))
    assert len(ro) == 90
    assert ro.actions.shape == ro.log_probs_old.shape == ro.rewards.shape == (90,)
    assert ro.obs.shape[0] == 90 and ro.map_feats.shape[0] == 90
    assert np.all(np.isfinite(ro.log_probs_old)) and np.all(ro.log_probs_old <= 0)
    assert np.all((ro.rewards >= reward_cfg.r_min) & (ro.rewards <= reward_cfg.r_max))
    assert ro.dones.sum() == len(ro.episode_returns)
    # every done step closes a contiguous segment; episode returns match
    seg_sums = []
    acc = 0.0
    for r, d in zip(ro.rewards, ro.dones):
        acc += r
        if d:
            seg_sums.append(acc)
            acc = 0.0
    np.testing.assert_allclose(seg_sums, ro.episode_returns)


@pytest.mark.parametrize("seed", [3, 4])
def test_rollout_log_probs_recompute_to_ratio_one(world, reward_cfg, seed):
    # before any update, PPO's recomputed log-prob of every collected row
    # matches the one the controller sampled with, so every ratio starts at 1
    model = fresh_model(world, seed)
    ro = collect_rollouts(NeuralPolicy(model), [world], EASY_MEDIUM, reward_cfg, 200, streams(seed, "recompute"))
    rows = np.arange(len(ro))
    lp_all, _ = training._rollout_heads(model, ro, rows)
    ratio = np.exp(lp_all.data[rows, ro.actions] - ro.log_probs_old)
    assert len(ratio) == 200
    assert np.max(np.abs(ratio - 1.0)) <= 1e-12


def test_collect_rollout_deterministic(world, reward_cfg):
    policy = NeuralPolicy(fresh_model(world))
    a = collect_rollouts(policy, [world], EASY, reward_cfg, 60, streams(11, "r"))
    b = collect_rollouts(policy, [world], EASY, reward_cfg, 60, streams(11, "r"))
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.map_feats, b.map_feats)
    assert a.bootstrap_value == b.bootstrap_value


def test_controller_runs_never_move_model_state(world, reward_cfg):
    model = fresh_model(world, 5)
    before = {name: arr.tobytes() for name, arr in policy_arrays(model).items()}
    policy = NeuralPolicy(model)
    collect_rollouts(policy, [world], EASY_MEDIUM, reward_cfg, 40, streams(5, "still"))
    probe = [(world, sample_episode(world, "easy", substream(5, "probe", i))) for i in range(2)]
    probe_success_rate(policy, probe)
    after = {name: arr.tobytes() for name, arr in policy_arrays(model).items()}
    assert after.keys() == before.keys()
    for name in before:
        assert after[name] == before[name], name


def oracle_collect_rollouts(policy, worlds, tiers, reward_cfg, n_steps, streams):
    """Serial batch-1 collection: one episode at a time, one slot per tick."""
    patches, poses, idss, mfs, wpfs, masks = [], [], [], [], [], []
    acts, lps, vals, rews, dones = [], [], [], [], []
    episode_returns = []
    bootstrap = 0.0
    n = 0
    for j in itertools.count():
        if n == n_steps:
            break
        rng = streams(j)
        world = worlds[int(rng.integers(len(worlds)))]
        tier = list(tiers)[int(rng.integers(len(tiers)))]
        ep = sample_episode(world, tier, rng, tiers=tiers)
        slot = Slot(world=world, episode=ep, state=ep.start, nav=init_map(world, ep, 12.0), obs=None,
                    ctx=ControllerState(), rng=rng)
        ep_ret = 0.0
        for t in range(ep.max_steps):
            slot.obs = render_observation(world, slot.state)
            update_map(slot.nav, slot.state, slot.obs)
            [rec] = tiered_step(policy, [slot], "sample", feats=True)
            action = rec.action
            if n == n_steps:  # the cut state: its value bootstraps the tail
                bootstrap = rec.value_hat
                break
            nxt, _, terminal = step(world, slot.state, Action(action))
            r = compute_reward(slot.state, nxt, ep.goal, world, reward_cfg, stopped=terminal)
            f = rec.feats
            patches.append(f["patch"])
            poses.append(f["pose"])
            idss.append(f["desc_ids"])
            mfs.append(f["map_feat"])
            wpfs.append(f["wp_feats"])
            masks.append(f["mask"])
            acts.append(action)
            lps.append(rec.log_prob)
            vals.append(rec.value_hat)
            rews.append(r)
            dones.append(False)
            ep_ret += r
            slot.state = nxt
            n += 1
            if terminal or t == ep.max_steps - 1:
                dones[-1] = True
                episode_returns.append(ep_ret)
                break
    return Rollout(
        actions=np.array(acts, dtype=np.int64),
        log_probs_old=np.array(lps),
        values_old=np.array(vals),
        rewards=np.array(rews),
        dones=np.array(dones, dtype=bool),
        bootstrap_value=bootstrap,
        obs=np.array(patches),
        state_feats=np.array(poses),
        desc_feats=np.array(idss, dtype=np.int64),
        map_feats=np.array(mfs),
        wp_feats=np.array(wpfs),
        masks=np.array(masks, dtype=bool),
        episode_returns=episode_returns,
    )


EXACT_ARRAYS = ("actions", "dones", "rewards", "masks", "obs", "state_feats", "desc_feats", "map_feats")
# wp_feats is measured from a waypoint that the waypoint head regressed in
# the tick's one batched macro pass, so it carries the last-bit difference too
CLOSE_ARRAYS = ("log_probs_old", "values_old", "wp_feats")


def test_collect_rollouts_matches_oracle(world, reward_cfg):
    # two same-seed fresh nets, one per side; the controller never moves model state
    cut = 0
    for seed in range(4):
        for n_steps in (8, 60, 257):
            args = ([world], EASY_MEDIUM, reward_cfg, n_steps, streams(seed, "oracle", n_steps))
            want = oracle_collect_rollouts(NeuralPolicy(fresh_model(world, seed)), *args)
            got = collect_rollouts(NeuralPolicy(fresh_model(world, seed)), *args)
            for name in EXACT_ARRAYS + CLOSE_ARRAYS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                if name in EXACT_ARRAYS:
                    assert np.array_equal(a, b), name
                else:
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)
            assert abs(got.bootstrap_value - want.bootstrap_value) <= 1e-12
            assert got.episode_returns == want.episode_returns
            cut += not want.dones[-1]
    assert cut > 0  # the mid-episode bootstrap path was taken


DEFAULT_WIDTH = agent.WIDTH


def at_widths(monkeypatch, run):
    """run() with one slot, then with the default slot count."""
    out = []
    for width in (1, DEFAULT_WIDTH):
        monkeypatch.setattr(agent, "WIDTH", width)
        out.append(run())
    return out


def assert_same_trajectories(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert [(s.t, s.state, s.action, s.k) for s in ta.steps] == [(s.t, s.state, s.action, s.k) for s in tb.steps]
        assert (ta.final_state, ta.stopped) == (tb.final_state, tb.stopped)
        for name in ("value_hat", "log_prob", "progress_hat", "goal_hat", "waypoint"):
            np.testing.assert_allclose([getattr(s, name) for s in ta.steps], [getattr(s, name) for s in tb.steps],
                                       rtol=0, atol=1e-12, err_msg=name)


def test_probe_does_not_depend_on_width(world, monkeypatch):
    # more probe episodes than slots, so freed slots take later episodes
    probe = [(world, sample_episode(world, ("easy", "medium")[i % 2], substream(31, "probe", i)))
             for i in range(DEFAULT_WIDTH + 3)]
    run_episode = training.run_episode

    def probe_run():
        played = []

        def recording(*args, **kwargs):
            played.extend(run_episode(*args, **kwargs))
            return played

        with monkeypatch.context() as m:
            m.setattr(training, "run_episode", recording)
            sr = probe_success_rate(NeuralPolicy(fresh_model(world, 31)), probe)
        return sr, played

    (sr_1, serial), (sr_k, lockstep) = at_widths(monkeypatch, probe_run)
    assert len(serial) == len(probe)
    assert sr_1 == sr_k
    assert_same_trajectories(serial, lockstep)


def test_neural_benchmark_does_not_depend_on_width(world, monkeypatch):
    def bench():
        return run_benchmark(NeuralPolicy(fresh_model(world, 32)), {"seen": [world]}, 5, [0, 1],
                             tiers=EASY_MEDIUM, mode="sample")

    (rep_1, rec_1), (rep_k, rec_k) = at_widths(monkeypatch, bench)
    assert len(rec_1) == 20 > DEFAULT_WIDTH
    assert [(r.split, r.tier, r.seed, r.index) for r in rec_1] == [(r.split, r.tier, r.seed, r.index) for r in rec_k]
    assert_same_trajectories([r.traj for r in rec_1], [r.traj for r in rec_k])
    assert rep_1.cells == rep_k.cells


@pytest.mark.parametrize("room", [1, agent.SLOT_ROOM])  # 1 starts every job that could reach the cut at once
def test_rollouts_do_not_depend_on_width(world, reward_cfg, monkeypatch, room):
    monkeypatch.setattr(agent, "SLOT_ROOM", room)

    def collect():
        return collect_rollouts(NeuralPolicy(fresh_model(world, 33)), [world], EASY_MEDIUM, reward_cfg, 200,
                                streams(33, "width"))

    serial, lockstep = at_widths(monkeypatch, collect)
    assert len(serial) == len(lockstep) == 200
    for name in EXACT_ARRAYS:
        assert np.array_equal(getattr(serial, name), getattr(lockstep, name)), name
    for name in CLOSE_ARRAYS:
        np.testing.assert_allclose(getattr(serial, name), getattr(lockstep, name), rtol=0, atol=1e-12, err_msg=name)
    assert abs(serial.bootstrap_value - lockstep.bootstrap_value) <= 1e-12
    assert serial.episode_returns == lockstep.episode_returns


def test_reinit_value_head_scoped(world):
    model = fresh_model(world, seed=6)
    before = params_of(model)
    reinit_value_head(model, substream(6, "re"))
    after = params_of(model)
    for name in before:
        if name.startswith("value_head."):
            continue
        assert np.array_equal(before[name], after[name]), name
    assert not np.array_equal(before["value_head.weight"], after["value_head.weight"])


def test_warm_critic_is_the_stage1_value_head(world, corpus, reward_cfg, tmp_path):
    # Stage 2 starts from the critic stage 1 trained, bit for bit, through
    # the checkpoint train-rl loads; a fresh head is another critic. Which
    # of the two fits a rollout better is not asserted: the warm head won
    # on 7 of 20 rollout seeds before stage 1 grouped its minibatches by
    # snapshot and on 5 of 20 after, so it depends on the draw.
    model = fresh_model(world, seed=7)
    train_stage1(corpus, [world], NeuralPolicy(model), Stage1Config(epochs=8, seed=7))
    save_policy(tmp_path / "policy_il.ckpt", model)
    warm_model = fresh_model(world, seed=70)
    load_policy_into(warm_model, tmp_path / "policy_il.ckpt")
    for name in ("value_head.weight", "value_head.bias"):
        assert params_of(warm_model)[name].tobytes() == params_of(model)[name].tobytes(), name
    rng = substream(7, "r")
    ro = collect_rollouts(NeuralPolicy(warm_model), [world], EASY, reward_cfg, 96, lambda j: rng)
    targets = compute_gae(ro, GAMMA, 1.0)[1]
    warm = critic_value_loss(warm_model, ro, targets)
    assert warm == critic_value_loss(model, ro, targets)
    reinit_value_head(warm_model, substream(7, "re"))
    assert not np.array_equal(params_of(warm_model)["value_head.weight"], params_of(model)["value_head.weight"])
    fresh = critic_value_loss(warm_model, ro, targets)
    for loss in (warm, fresh):
        assert math.isfinite(loss) and loss >= 0
    assert warm != fresh


def test_stage2_runs_and_reports(world, corpus, reward_cfg):
    model = fresh_model(world, seed=8)
    train_stage1(corpus, [world], NeuralPolicy(model), Stage1Config(epochs=2, seed=8))
    probe = [(world, sample_episode(world, "easy", substream(8, "probe", i))) for i in range(2)]
    cfg = PPOConfig(rollout_steps=96, max_updates=2, minibatch=32, epochs_per_update=2, tiers=EASY)
    res = train_stage2(NeuralPolicy(model), [world], cfg, reward_cfg, corpus=corpus,
                       seed=8, probe=probe)
    assert res.updates_run == 2 and not res.aborted
    assert res.env_steps == 192
    for row in res.curve:
        assert set(row) == set(RL_CURVE_COLUMNS)
        assert 0.0 <= row["clip_fraction"] <= 1.0
        assert 0.0 <= row["probe_SR"] <= 1.0


def test_stage2_mean_ratio_is_per_update(world, corpus, reward_cfg, monkeypatch):
    # each update's means average the ratio over that update's own minibatches
    reports = []
    ppo_update = training.ppo_update

    def record(*args, **kwargs):
        means = ppo_update(*args, **kwargs)
        reports.append(means)
        return means

    monkeypatch.setattr(training, "ppo_update", record)
    model = fresh_model(world, seed=12)
    cfg = PPOConfig(rollout_steps=64, max_updates=2, minibatch=32, epochs_per_update=2, tiers=EASY)
    res = train_stage2(NeuralPolicy(model), [world], cfg, reward_cfg, corpus=corpus,
                       seed=12)
    assert res.updates_run == 2 and len(reports) == 2
    ratios = [r["ratio"] for r in reports]
    assert all(math.isfinite(r) and r > 0.0 for r in ratios)
    assert ratios[0] != ratios[1]


def test_stage2_lambda_zero_keeps_rl_out_of_total(world, corpus, reward_cfg):
    # one minibatch, and the terms summed in imitation_loss's own grouping,
    # so the two sides are the same float operations and agree exactly
    model = fresh_model(world, seed=9)
    cfg = PPOConfig(rollout_steps=64, max_updates=1, minibatch=64,
                    epochs_per_update=1, lambda_rl=0.0, tiers=EASY)
    il = Stage1Config(lambda_v=0.25, lambda_bc=0.5, lambda_wp=2.0)
    res = train_stage2(NeuralPolicy(model), [world], cfg, reward_cfg, corpus=corpus, il_cfg=il,
                       seed=9)
    row = res.curve[0]
    assert row["L_total"] == ((row["L_IL"] + il.lambda_v * row["L_V"])
                              + (il.lambda_bc * row["L_BC"] + il.lambda_wp * row["L_WP"]))


def test_stage2_lambda_zero_trains_every_head(world, corpus, reward_cfg):
    # at lambda_rl = 0 stage 2 is continued imitation: the expert batch's
    # action and waypoint terms reach the heads that only they train
    model = fresh_model(world, seed=10)
    before = params_of(model)
    cfg = PPOConfig(rollout_steps=32, max_updates=1, minibatch=32,
                    epochs_per_update=1, lambda_rl=0.0, tiers=EASY)
    res = train_stage2(NeuralPolicy(model), [world], cfg, reward_cfg, corpus=corpus, seed=10)
    assert res.updates_run == 1
    after = params_of(model)
    for head in ("action_head.", "micro_fc.", "waypoint_head."):
        names = [k for k in before if k.startswith(head)]
        assert names, head
        for k in names:
            assert not np.array_equal(before[k], after[k]), k


def test_stage2_keeps_the_map_encoder(world, corpus, reward_cfg):
    # stage 2 trains the heads on stored map features: the encoder's
    # parameters and BatchNorm running statistics stay as stage 1 left them
    model = fresh_model(world, seed=12)
    before = {k: v.copy() for k, v in policy_arrays(model).items()}
    cfg = PPOConfig(rollout_steps=64, max_updates=2, minibatch=32, epochs_per_update=1, tiers=EASY)
    res = train_stage2(NeuralPolicy(model), [world], cfg, reward_cfg, corpus=corpus, seed=12)
    assert res.updates_run == 2
    after = policy_arrays(model)
    encoder = [k for k in before if k.startswith("map_encoder.")]
    assert any(k.endswith(".running_mean") for k in encoder) and any(k.endswith(".running_var") for k in encoder)
    for k in encoder:
        assert np.array_equal(before[k], after[k]), k
    for head in ("action_head.", "micro_fc.", "waypoint_head."):
        names = [k for k in before if k.startswith(head)]
        assert names, head
        for k in names:
            assert not np.array_equal(before[k], after[k]), k


def test_stage2_deterministic(world, corpus, reward_cfg):
    cfg = PPOConfig(rollout_steps=64, max_updates=1, minibatch=32, epochs_per_update=1, tiers=EASY)
    m1 = fresh_model(world, seed=11)
    m2 = fresh_model(world, seed=11)
    for m in (m1, m2):
        train_stage2(NeuralPolicy(m), [world], cfg, reward_cfg, corpus=corpus, seed=11)
    assert_params_equal(params_of(m1), params_of(m2))


def _blow_up_steps(monkeypatch, failing_calls):
    """Make AdamW.step raise on the given 1-based call numbers; returns the
    (optimizer, lr) of every call and the parameters at each rollout start."""
    steps = []
    starts = []
    step = AdamW.step
    collect = training.collect_rollouts

    def failing_step(self):
        steps.append((self, self.lr))
        if len(steps) in failing_calls:
            raise NumericsError("injected")
        return step(self)

    def recording_collect(policy, *args, **kwargs):
        starts.append(training._snapshot(policy.model))
        return collect(policy, *args, **kwargs)

    monkeypatch.setattr(AdamW, "step", failing_step)
    monkeypatch.setattr(training, "collect_rollouts", recording_collect)
    return steps, starts


def test_stage2_blow_up_rolls_back_and_halves_lr(world, corpus, reward_cfg, monkeypatch):
    # two minibatch steps per update; the second step of update 1 fails
    steps, starts = _blow_up_steps(monkeypatch, {4})
    model = fresh_model(world, seed=14)
    cfg = PPOConfig(rollout_steps=64, max_updates=3, minibatch=32, epochs_per_update=1, tiers=EASY)
    res = train_stage2(NeuralPolicy(model), [world], cfg, reward_cfg, corpus=corpus,
                       seed=14)
    assert not res.aborted
    assert [row["update"] for row in res.curve] == [0, 2]
    assert len(steps) == 6 and len(starts) == 3
    # update 2 starts from the parameters update 0 ended with
    assert_snapshots_equal(starts[2], starts[1])
    assert not all(np.array_equal(starts[1][k], starts[0][k]) for k in starts[0])
    first_opt = steps[0][0]
    assert all(opt is first_opt and lr == cfg.lr for opt, lr in steps[:4])
    next_opt = steps[4][0]
    assert next_opt is not first_opt
    assert all(opt is next_opt and lr == 0.5 * cfg.lr for opt, lr in steps[4:])


def test_stage2_second_blow_up_aborts(world, corpus, reward_cfg, monkeypatch):
    steps, starts = _blow_up_steps(monkeypatch, {4, 5})
    model = fresh_model(world, seed=14)
    cfg = PPOConfig(rollout_steps=64, max_updates=4, minibatch=32, epochs_per_update=1, tiers=EASY)
    res = train_stage2(NeuralPolicy(model), [world], cfg, reward_cfg, corpus=corpus,
                       seed=14)
    assert res.aborted
    assert [row["update"] for row in res.curve] == [0]
    assert len(starts) == 3 and len(steps) == 5  # no fourth rollout, no further step
    assert_snapshots_equal(training._snapshot(model), starts[1])


def test_probe_success_rate_teacherlike(world):
    # a model is not needed to pin the scoring rule: the teacher stops
    # on the goal, so its probe run is a success
    ep = sample_episode(world, "easy", substream(21, "p"))
    assert probe_success_rate(TeacherPolicy(), [(world, ep)], threshold_m=20.0) == 1.0


def test_write_curve_byte_identical(tmp_path):
    rows = [
        {"update": 0, "L_IL": 1.25, "L_V": 3.0, "L_BC": 1.5, "L_WP": 0.125, "L_RL": -0.5, "L_total": 4.15,
         "entropy": 1.7, "clip_fraction": 0.0, "mean_return": 12.5, "probe_SR": math.nan},
        {"update": 1, "L_IL": 1.0, "L_V": 2.0, "L_BC": 1.25, "L_WP": 0.0625, "L_RL": -0.25, "L_total": 2.95,
         "entropy": 1.6, "clip_fraction": 0.125, "mean_return": 14.0, "probe_SR": 0.5},
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_curve(p1, rows, RL_CURVE_COLUMNS)
    write_curve(p2, rows, RL_CURVE_COLUMNS)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(RL_CURVE_COLUMNS)


def test_corridor_sanity_single_seed():
    res = corridor_sanity(seed=2)
    assert res.reached
    assert res.env_steps <= 20000
    assert res.sr >= 0.95
