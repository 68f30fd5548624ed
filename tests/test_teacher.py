"""Planner optimality, waypoint extraction, demonstration labels, corpus IO."""

import math
from collections import Counter

import numpy as np
import pytest

from tiernav import mapper, teacher, world
from tiernav.agent import TeacherPolicy, run_episode
from tiernav.errors import ContractError, InfeasibleError
from tiernav.teacher import (
    EPS_WP,
    S_MAX,
    TRAJ_COLUMNS,
    advance_waypoint,
    build_dataset,
    build_demonstration,
    episode_plan,
    extract_waypoints,
    load_corpus,
    read_trajectory_log,
    save_corpus,
)
from tiernav.util import substream
from tiernav.world import (
    TIERS,
    Action,
    CityWorld,
    Landmark,
    RewardConfig,
    UavState,
    WorldConfig,
    compute_reward,
    episode_from_dict,
    episode_to_dict,
    generate_world,
    plan_path,
    sample_episode,
    step,
)


def flat_world(w=30, h=30):
    return CityWorld(
        width=w, height=h, cell_size=5.0,
        height_field=np.zeros((h, w), dtype=np.int64),
        landmarks=[Landmark(0, "arch", 5, 5, 2)],
        z_min=1, z_max=4, cruise_z=2, r_base=4, r_gain=2,
        world_id="flat-test",
    )


def test_plan_straight_east():
    wd = flat_world()
    start = UavState(2.0, 10.0, 2, 0)
    path = plan_path(wd, start, (7.0, 10.0))
    assert path.actions == [Action.FORWARD] * 5
    assert len(path.states) == 6
    assert path.states[-1][:2] == (7, 10)
    assert path.remaining[0] == 25.0
    assert path.remaining[-1] == 0.0


def test_plan_includes_turn_cost():
    # goal directly north of an east-facing start: one turn + forwards
    wd = flat_world()
    start = UavState(10.0, 10.0, 2, 0)
    path = plan_path(wd, start, (10.0, 14.0))
    assert path.actions[0] == Action.TURN_LEFT
    assert path.actions[1:] == [Action.FORWARD] * 4


def test_plan_climbs_over_wall():
    wd = flat_world()
    wd.height_field[:, 15] = 2  # wall across x=15, blocks z<=2
    start = UavState(12.0, 10.0, 2, 0)
    path = plan_path(wd, start, (18.0, 10.0))
    assert Action.GO_UP in path.actions
    # replay must be legal
    s = start
    for a in path.actions:
        s2, blocked, _ = step(wd, s, a)
        assert not blocked
        s = s2
    assert s.cell() == (18, 10)


def test_plan_optimal_cost_simple():
    # cost oracle on an empty grid: manhattan forwards + 0.1 per turn
    wd = flat_world()
    start = UavState(3.0, 3.0, 2, 0)
    path = plan_path(wd, start, (8.0, 6.0))
    n_turn = sum(1 for a in path.actions if a in (Action.TURN_LEFT, Action.TURN_RIGHT))
    n_move = sum(1 for a in path.actions if a == Action.FORWARD)
    assert n_move == 8
    assert n_turn == 1


def test_plan_cost_admissible():
    wd = generate_world(5, WorldConfig(width=48, height=48, n_landmarks=5))
    rng = substream(2, "adm")
    for _ in range(15):
        ep = sample_episode(wd, "medium", rng)
        path = plan_path(wd, ep.start, ep.goal)
        straight = math.hypot(ep.start.x - path.states[-1][0], ep.start.y - path.states[-1][1])
        n_move = sum(1 for a in path.actions if a == Action.FORWARD)
        assert n_move + 1e-9 >= straight


def test_plan_infeasible_raises():
    wd = flat_world(20, 20)
    wd.height_field[:, 10] = 4  # full-height wall, z_max blocked too
    start = UavState(2.0, 5.0, 2, 0)
    with pytest.raises(InfeasibleError):
        plan_path(wd, start, (18.0, 5.0))


def test_plan_zero_length():
    wd = flat_world()
    start = UavState(4.0, 4.0, 2, 1)
    path = plan_path(wd, start, (4.0, 4.0))
    assert path.actions == []
    assert len(path.states) == 1


def test_plan_never_enters_buildings():
    wd = generate_world(7, WorldConfig(width=48, height=48, n_landmarks=5))
    rng = substream(3, "plan")
    for _ in range(20):
        ep = sample_episode(wd, "medium", rng)
        path = plan_path(wd, ep.start, ep.goal)
        for x, y, z, _ in path.states:
            assert wd.height_field[y, x] < z


def test_remaining_monotone_and_window_progress():
    wd = generate_world(13, WorldConfig(width=48, height=48, n_landmarks=5))
    rng = substream(6, "rem")
    for _ in range(15):
        ep = sample_episode(wd, "medium", rng)
        rem = plan_path(wd, ep.start, ep.goal).remaining
        assert np.all(np.diff(rem) <= 0)
        for i in range(len(rem) - 6):
            assert rem[i + 6] < rem[i]


def test_sampled_episode_carries_its_plan():
    wd = generate_world(53, WorldConfig(width=48, height=48, n_landmarks=6))
    ep = sample_episode(wd, "medium", substream(53, "carry"))
    fresh = plan_path(wd, ep.start, ep.goal)
    assert ep.plan.states == fresh.states
    assert ep.plan.actions == fresh.actions
    np.testing.assert_array_equal(ep.plan.remaining, fresh.remaining)
    # the plan is neither compared nor serialized
    back = episode_from_dict(episode_to_dict(ep))
    assert back.plan is None
    assert back == ep
    assert episode_to_dict(back) == episode_to_dict(ep)
    assert "plan" not in repr(ep)
    # a replanned episode demonstrates and replays exactly like the carried one
    carried = build_demonstration(wd, ep, RewardConfig(), gamma=0.99)
    replanned = build_demonstration(wd, back, RewardConfig(), gamma=0.99)
    assert extract_waypoints(episode_plan(wd, ep), wd) == extract_waypoints(episode_plan(wd, back), wd)
    for a, b in zip(carried.steps, replanned.steps, strict=True):
        assert (a.state, a.action, a.k, a.waypoint, a.reward, a.value_hat) == \
            (b.state, b.action, b.k, b.waypoint, b.reward, b.value_hat)
    ta, tb = run_episode(TeacherPolicy(), [(wd, ep, None), (wd, back, None)], reward_cfg=RewardConfig())
    assert [(s.state, s.action, s.k, s.waypoint, s.reward) for s in ta.steps] == \
        [(s.state, s.action, s.k, s.waypoint, s.reward) for s in tb.steps]
    assert ta.steps[-1].action == Action.STOP


# ------------------------------------------------------------------ waypoints


def test_waypoints_straight_path_single_goal():
    wd = flat_world()
    start = UavState(2.0, 10.0, 2, 0)
    path = plan_path(wd, start, (10.0, 10.0))
    wps = extract_waypoints(path, wd)
    assert wps == [(10, 10)]


def test_waypoints_corner_marked():
    wd = flat_world()
    start = UavState(2.0, 2.0, 2, 0)
    path = plan_path(wd, start, (10.0, 8.0))
    wps = extract_waypoints(path, wd)
    assert len(wps) >= 2
    assert wps[-1] == (10, 8)
    assert (10, 2) in wps  # the east-then-north corner


def test_waypoints_landmark_anchor():
    wd = flat_world()
    start = UavState(2.0, 2.0, 2, 0)  # east leg passes (5,2), 3 cells from landmark (5,5)
    path = plan_path(wd, start, (10.0, 8.0))
    wps = extract_waypoints(path, wd)
    assert (5, 2) in wps


def test_waypoint_spacing_cap():
    wd = flat_world(60, 10)
    start = UavState(1.0, 5.0, 2, 0)
    path = plan_path(wd, start, (55.0, 5.0))
    wps = extract_waypoints(path, wd)
    cells = [(path.states[0][0], path.states[0][1])] + list(wps)
    for (x0, y0), (x1, y1) in zip(cells, cells[1:]):
        assert abs(x1 - x0) + abs(y1 - y0) <= S_MAX


def test_waypoint_spacing_cap_random_episodes():
    wd = generate_world(17, WorldConfig(width=64, height=64, n_landmarks=8))
    rng = substream(4, "wp")
    checked = 0
    for _ in range(200):
        ep = sample_episode(wd, "hard", rng)
        path = ep.plan  # equal to plan_path(wd, ep.start, ep.goal): see test_sampled_episode_carries_its_plan
        wps = extract_waypoints(path, wd)
        # spacing measured in forward moves between consecutive marks
        cells = [(path.states[0][0], path.states[0][1])] + list(wps)
        path_cells = [(s[0], s[1]) for s in path.states]
        idx = 0
        marks = []
        for c in cells[1:]:
            while path_cells[idx] != c:
                idx += 1
            marks.append(idx)
        prev = 0
        for m in marks:
            fwd = sum(1 for a in path.actions[prev:m] if a == Action.FORWARD)
            assert fwd <= S_MAX
            prev = m
        checked += 1
    assert checked == 200


def test_waypoints_lie_on_path():
    wd = generate_world(11, WorldConfig(width=48, height=48, n_landmarks=5))
    rng = substream(4, "wp2")
    for _ in range(10):
        ep = sample_episode(wd, "medium", rng)
        path = plan_path(wd, ep.start, ep.goal)
        wps = extract_waypoints(path, wd)
        path_cells = {(s[0], s[1]) for s in path.states}
        for wp in wps:
            assert wp in path_cells
        assert wps[-1] == (int(ep.goal[0]), int(ep.goal[1]))


def test_advance_waypoint_radius():
    wps = [(5, 5), (10, 5)]
    assert advance_waypoint(0, wps, UavState(5.2, 5.0, 2, 0)) == 1
    assert advance_waypoint(0, wps, UavState(7.0, 5.0, 2, 0)) == 0
    # last index never advances past the end
    assert advance_waypoint(1, wps, UavState(10.0, 5.0, 2, 0)) == 1


def test_advance_waypoint_chains_through_cluster():
    wps = [(5, 5), (6, 5), (10, 5)]
    # standing on wp0, wp1 one cell away: both inside eps, skip to 2
    assert advance_waypoint(0, wps, UavState(5.0, 5.0, 2, 0)) == 2


def test_eps_wp_value():
    assert EPS_WP == 1.5


# ------------------------------------------------------------- demonstrations


def build_one(seed=21, tier="easy"):
    wd = generate_world(seed, WorldConfig(width=48, height=48, n_landmarks=6))
    ep = sample_episode(wd, tier, substream(seed, "demo"))
    cfg = RewardConfig()
    return wd, ep, build_demonstration(wd, ep, cfg, gamma=0.99)


def test_demo_replays_to_stop():
    wd, ep, demo = build_one()
    assert demo.steps[-1].action == Action.STOP
    s = ep.start
    stopped = False
    for st in demo.steps:
        assert st.state == s
        s, blocked, stopped = step(wd, s, Action(st.action))
        assert not blocked
    assert stopped


def test_demo_progress_linear():
    _, _, demo = build_one()
    T = len(demo.steps)
    for i, st in enumerate(demo.steps):
        assert st.progress_hat == pytest.approx((i + 1) / T)
    assert demo.steps[-1].progress_hat == 1.0


def test_demo_values_satisfy_bellman():
    wd, ep, demo = build_one()
    gamma = 0.99
    for i in range(len(demo.steps) - 1):
        lhs = demo.steps[i].value_hat
        rhs = demo.steps[i].reward + gamma * demo.steps[i + 1].value_hat
        assert abs(lhs - rhs) < 1e-12
    last = demo.steps[-1]
    assert abs(last.value_hat - last.reward) < 1e-12


def test_demo_values_gamma_zero_collapse():
    wd = generate_world(23, WorldConfig(width=48, height=48, n_landmarks=6))
    ep = sample_episode(wd, "easy", substream(23, "demo"))
    demo = build_demonstration(wd, ep, RewardConfig(), gamma=0.0)
    for st in demo.steps:
        assert st.value_hat == pytest.approx(st.reward)


def test_demo_value_suffix_sum_oracle():
    wd = generate_world(29, WorldConfig(width=48, height=48, n_landmarks=6))
    ep = sample_episode(wd, "easy", substream(29, "demo"))
    gamma = 0.9
    demo = build_demonstration(wd, ep, RewardConfig(), gamma=gamma)
    rewards = [st.reward for st in demo.steps]
    T = len(rewards)
    for i in range(T):
        acc = sum(rewards[j] * gamma ** (j - i) for j in range(i, T))
        assert demo.steps[i].value_hat == pytest.approx(acc, abs=1e-9)


def test_demo_rewards_match_compute_reward():
    wd, ep, demo = build_one(seed=31)
    cfg = RewardConfig()
    s = ep.start
    for st in demo.steps:
        s2, blocked, stopped = step(wd, s, Action(st.action))
        r = compute_reward(s, s2, ep.goal, wd, cfg, waypoint=st.waypoint, stopped=stopped)
        assert st.reward == pytest.approx(r, abs=1e-12)
        s = s2


def test_demo_waypoint_index_monotone():
    wd, ep, demo = build_one(seed=37, tier="medium")
    ks = [st.k for st in demo.steps]
    assert all(b >= a for a, b in zip(ks, ks[1:]))
    assert ks[-1] == len(extract_waypoints(episode_plan(wd, ep), wd)) - 1


def test_label_only_demo_stays_label_only_on_load(tmp_path, monkeypatch):
    # building and loading a demonstration render nothing and build no map:
    # stage-1 data preparation does that under the learned policy's prior
    wd = generate_world(43, WorldConfig(width=48, height=48, n_landmarks=6))
    eps = [sample_episode(wd, tier, substream(43, "demo", tier)) for tier in ("easy", "medium")]

    def no_perception(*args, **kwargs):
        raise AssertionError("a label-only demonstration must not render or map")

    with monkeypatch.context() as m:
        for module, name in ((world, "render_observation"), (mapper, "init_map"), (mapper, "update_map")):
            m.setattr(module, name, no_perception)
            m.setattr(teacher, name, no_perception, raising=False)
        built = [build_demonstration(wd, ep, RewardConfig(), gamma=0.99) for ep in eps]
        save_corpus(tmp_path, built)
        back = load_corpus(tmp_path, {wd.world_id: wd}, RewardConfig(), 0.99)
    fields = ("state", "action", "waypoint", "k", "progress_hat", "value_hat", "reward", "dist")
    for demo, loaded in zip(built, back, strict=True):
        assert all(st.feats is None for st in demo.steps + loaded.steps)
        assert [[getattr(st, f) for f in fields] for st in demo.steps] == \
            [[getattr(st, f) for f in fields] for st in loaded.steps]


def test_demo_unreachable_goal_raises():
    wd = generate_world(47, WorldConfig(width=48, height=48, n_landmarks=6))
    ep = sample_episode(wd, "easy", substream(47, "demo"))
    wd.height_field[:, :] = wd.z_max  # everything blocked now
    with pytest.raises((ContractError, InfeasibleError)):
        build_demonstration(wd, ep, RewardConfig(), gamma=0.99)


# ------------------------------------------------------------------- datasets


def test_build_dataset_stratified_and_deterministic():
    worlds = [generate_world(s, WorldConfig(width=48, height=48, n_landmarks=5)) for s in (61, 62)]
    tiers = {t: TIERS[t] for t in ("easy", "medium")}
    demos1 = build_dataset(worlds, 12, tiers, master_seed=77, reward_cfg=RewardConfig(), gamma=0.99)
    demos2 = build_dataset(worlds, 12, tiers, master_seed=77, reward_cfg=RewardConfig(), gamma=0.99)
    assert len(demos1) == 12
    assert Counter(d.episode.difficulty for d in demos1) == {"easy": 6, "medium": 6}
    for d1, d2 in zip(demos1, demos2):
        assert d1.episode.start == d2.episode.start
        assert [s.action for s in d1.steps] == [s.action for s in d2.steps]


def test_build_dataset_different_seed_differs():
    worlds = [generate_world(61, WorldConfig(width=48, height=48, n_landmarks=5))]
    a = build_dataset(worlds, 6, {"easy": TIERS["easy"]}, master_seed=1, reward_cfg=RewardConfig(), gamma=0.99)
    b = build_dataset(worlds, 6, {"easy": TIERS["easy"]}, master_seed=2, reward_cfg=RewardConfig(), gamma=0.99)
    starts_a = [d.episode.start for d in a]
    starts_b = [d.episode.start for d in b]
    assert starts_a != starts_b


def test_corpus_round_trip(tmp_path):
    worlds = [generate_world(91, WorldConfig(width=48, height=48, n_landmarks=5))]
    demos = build_dataset(worlds, 4, {"easy": TIERS["easy"]}, master_seed=5, reward_cfg=RewardConfig(), gamma=0.99)
    root = tmp_path / "corpus"
    save_corpus(root, demos)
    by_id = {w.world_id: w for w in worlds}
    demos_back = load_corpus(root, by_id, RewardConfig(), 0.99)
    assert len(demos_back) == 4
    for orig, back in zip(demos, demos_back):
        assert [s.action for s in orig.steps] == [s.action for s in back.steps]
        assert [s.k for s in orig.steps] == [s.k for s in back.steps]
        assert [s.waypoint for s in orig.steps] == [s.waypoint for s in back.steps]
        assert [s.state for s in orig.steps] == [s.state for s in back.steps]
        np.testing.assert_array_equal(
            [s.value_hat for s in orig.steps], [s.value_hat for s in back.steps])
        np.testing.assert_array_equal(
            [s.reward for s in orig.steps], [s.reward for s in back.steps])
        assert all(s.feats is None for s in back.steps)


def test_corpus_episode_is_the_teacher_trajectory_log(tmp_path):
    # the same cells as a teacher eval's step log, except v_hat: the corpus
    # holds the value label there, the teacher eval 0
    worlds = [generate_world(s, WorldConfig(width=48, height=48, n_landmarks=5)) for s in (91, 92)]
    demos = build_dataset(worlds, 6, TIERS, master_seed=11, reward_cfg=RewardConfig(), gamma=0.99)
    save_corpus(tmp_path, demos)
    by_id = {w.world_id: w for w in worlds}
    trajs = run_episode(TeacherPolicy(), [(by_id[d.episode.world_id], d.episode, None) for d in demos],
                        reward_cfg=RewardConfig())
    for i, (demo, traj) in enumerate(zip(demos, trajs, strict=True)):
        header, episodes = read_trajectory_log(tmp_path / f"episode_{i:05d}.csv")
        assert header == TRAJ_COLUMNS
        (rows,) = episodes.values()
        assert len(rows) == len(traj.steps)
        for row, st in zip(rows, traj.steps):
            logged = dict(zip(TRAJ_COLUMNS, st.log_row()))
            assert {c: row[c] for c in TRAJ_COLUMNS if c != "v_hat"} == \
                {c: logged[c] for c in TRAJ_COLUMNS if c != "v_hat"}
        assert [row["v_hat"] for row in rows] == [st.value_hat for st in demo.steps]


def test_corpus_rewrite_is_byte_identical(tmp_path):
    worlds = [generate_world(91, WorldConfig(width=48, height=48, n_landmarks=5))]
    demos = build_dataset(worlds, 3, {"easy": TIERS["easy"]}, master_seed=5, reward_cfg=RewardConfig(), gamma=0.99)
    r1 = tmp_path / "c1"
    r2 = tmp_path / "c2"
    save_corpus(r1, demos)
    save_corpus(r2, demos)
    for p1 in sorted(r1.iterdir()):
        assert (r2 / p1.name).read_bytes() == p1.read_bytes()


def test_corpus_tamper_detected(tmp_path):
    wd = flat_world(40, 12)
    # hand-build an episode that ends at the east wall, so a forged last forward would leave the grid
    from tiernav.world import EpisodeSpec, GoalDescriptor

    ep = EpisodeSpec(
        world_id=wd.world_id,
        start=UavState(30.0, 6.0, 2, 0),
        goal=(39.0, 6.0),
        descriptor=GoalDescriptor(landmark_id=0, sector=0, band="far", tag=0),
        difficulty="easy",
        shortest_path_length=45.0,
        max_steps=36,
    )
    demo = build_demonstration(wd, ep, RewardConfig(), gamma=0.99)
    root = tmp_path / "c"
    save_corpus(root, [demo])
    csv = root / "episode_00000.csv"
    lines = csv.read_text().splitlines()
    # turn the final stop into a forward off the grid: the relabeled last step is the stop
    last = lines[-1].split(",")
    last[5] = str(int(Action.FORWARD))
    lines[-1] = ",".join(last)
    # position the forged row at the east edge
    csv.write_text("\n".join(lines) + "\n")
    tampered_lines = csv.read_text().splitlines()
    n_fwd = sum(1 for ln in tampered_lines[1:] if ln.split(",")[5] == str(int(Action.FORWARD)))
    assert n_fwd == 10  # 9 real moves + forged one
    with pytest.raises(ContractError, match=r"line 11 has action 2\.0, the replay gives 5"):
        load_corpus(root, {wd.world_id: wd}, RewardConfig(), 0.99)
    # two descents from cruise altitude z2: the second is blocked at z_min 1
    for n in (1, 2):
        cells = lines[n].split(",")
        cells[5] = str(int(Action.GO_DOWN))
        lines[n] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError, match=r"episode_00000\.csv: step 1: expert action GO_DOWN blocked"):
        load_corpus(root, {wd.world_id: wd}, RewardConfig(), 0.99)
