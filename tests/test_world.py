"""Simulator contracts: kinematics, rendering, generation, episode tiers."""

import math

import numpy as np
import pytest

from tiernav import world as W
from tiernav.errors import ConfigError, ContractError, GenerationError
from tiernav.util import substream
from tiernav.world import (
    Action,
    CityWorld,
    Landmark,
    UavState,
    WorldConfig,
    distance_to_goal,
    generate_world,
    load_episodes,
    load_world,
    render_observation,
    sample_episode,
    save_episodes,
    save_world,
    step,
    world_hash,
)

from corridor import corridor_world


def flat_world(w=32, h=32, **kw):
    args = dict(width=w, height=h, cell_size=5.0, height_field=np.zeros((h, w), dtype=np.int64),
                landmarks=[Landmark(0, "arch", 5, 5, 2), Landmark(1, "silo", 25, 25, 2)],
                z_min=1, z_max=4, cruise_z=2, r_base=4, r_gain=2)
    args.update(kw)
    wd = CityWorld(**args)
    wd.world_id = world_hash(wd)
    return wd


# ------------------------------------------------------------------- stepping


def test_forward_east():
    wd = flat_world()
    s = UavState(5.0, 5.0, 3, 0)
    nxt, blocked, term = step(wd, s, Action.FORWARD)
    assert (nxt.x, nxt.y, nxt.z) == (6.0, 5.0, 3) and not blocked and not term


def test_forward_into_tall_obstacle_blocked():
    wd = flat_world()
    wd.height_field[5, 6] = 4
    s = UavState(5.0, 5.0, 3, 0)
    nxt, blocked, term = step(wd, s, Action.FORWARD)
    assert blocked and (nxt.x, nxt.y, nxt.z, nxt.heading) == (5.0, 5.0, 3, 0)


def test_forward_over_low_obstacle():
    wd = flat_world()
    wd.height_field[5, 6] = 2
    nxt, blocked, _ = step(wd, UavState(5.0, 5.0, 3, 0), Action.FORWARD)
    assert not blocked and nxt.x == 6.0


def test_turn_left_four_times_closes():
    wd = flat_world()
    s = UavState(5.0, 5.0, 2, 1)
    for _ in range(4):
        s, _, _ = step(wd, s, Action.TURN_LEFT)
    assert s.heading == 1


def test_altitude_clamp_blocks():
    wd = flat_world()
    _, blocked, _ = step(wd, UavState(5.0, 5.0, 4, 0), Action.GO_UP)
    assert blocked
    _, blocked, _ = step(wd, UavState(5.0, 5.0, 1, 0), Action.GO_DOWN)
    assert blocked


def test_go_down_into_building_blocked():
    wd = flat_world()
    wd.height_field[5, 5] = 2
    nxt, blocked, _ = step(wd, UavState(5.0, 5.0, 3, 0), Action.GO_DOWN)
    assert blocked and nxt.z == 3


def test_stop_is_terminal_noop():
    wd = flat_world()
    s = UavState(5.0, 5.0, 2, 3)
    nxt, blocked, term = step(wd, s, Action.STOP)
    assert term and not blocked and (nxt.x, nxt.y, nxt.z, nxt.heading) == (5.0, 5.0, 2, 3)


def test_step_rejects_invalid_state():
    wd = flat_world()
    with pytest.raises(ContractError):
        step(wd, UavState(-3.0, 5.0, 2, 0), Action.FORWARD)
    wd.height_field[5, 5] = 3
    with pytest.raises(ContractError):
        step(wd, UavState(5.0, 5.0, 2, 0), Action.FORWARD)


def test_step_is_pure():
    wd = flat_world()
    s = UavState(5.0, 5.0, 2, 0)
    a1 = step(wd, s, Action.FORWARD)
    a2 = step(wd, s, Action.FORWARD)
    assert a1 == a2 and s.x == 5.0


def test_exactly_one_effect_per_step_fuzz():
    wd = generate_world(3, WorldConfig(width=32, height=32, n_landmarks=4))
    rng = substream(77, "fuzz")
    free_y, free_x = np.nonzero(wd.height_field == 0)
    i = int(rng.integers(free_x.size))
    s = UavState(float(free_x[i]), float(free_y[i]), 2, 0)
    for _ in range(10_000):
        a = Action(int(rng.integers(6)))
        nxt, blocked, term = step(wd, s, a)
        W.validate_state(wd, nxt)
        effects = [
            (nxt.x, nxt.y) != (s.x, s.y),
            nxt.heading != s.heading,
            nxt.z != s.z,
            term,
            blocked and (nxt.x, nxt.y, nxt.z, nxt.heading) == (s.x, s.y, s.z, s.heading),
        ]
        assert sum(effects) == 1, f"action {a.name}: effects {effects}"
        if not term:
            s = nxt


# ------------------------------------------------------------------- distance


def test_distance_three_four_five():
    assert distance_to_goal(UavState(0.0, 0.0, 2, 0), (3, 4), 5.0) == 25.0


def test_distance_zero_and_fractional():
    assert distance_to_goal(UavState(2.0, 7.0, 2, 0), (2, 7), 5.0) == 0.0
    assert distance_to_goal(UavState(1.5, 0.0, 3, 1), (0, 0), 2.0) == 3.0


def test_distance_ignores_altitude():
    assert distance_to_goal(UavState(0.0, 0.0, 4, 0), (3, 4), 5.0) == distance_to_goal(
        UavState(0.0, 0.0, 1, 0), (3, 4), 5.0
    )


# ---------------------------------------------------------------- observation


def test_observation_shape_and_center():
    wd = flat_world()
    obs = render_observation(wd, UavState(16.0, 16.0, 2, 0))
    p = wd.patch_side
    assert p % 2 == 1
    assert obs.patch.shape == (3, p, p)
    # flat ground at z=2, z_max=4: rel height = (0-2+4)/8 = 0.25 at center
    assert obs.patch[0, p // 2, p // 2] == 0.25


def test_observation_radius_grows_with_altitude():
    wd = flat_world()
    lo = render_observation(wd, UavState(16.0, 16.0, 1, 0))
    hi = render_observation(wd, UavState(16.0, 16.0, 4, 0))
    assert (lo.patch[2] == 0).sum() < (hi.patch[2] == 0).sum()


def test_observation_visible_count_matches_geometry():
    wd = flat_world()
    s = UavState(16.0, 16.0, 2, 0)
    obs = render_observation(wd, s)
    r = wd.r_base + wd.r_gain * s.z
    expect = sum(
        1
        for dx in range(-r, r + 1)
        for dy in range(-r, r + 1)
        if dx * dx + dy * dy <= r * r
    )
    assert (obs.patch[2] == 0).sum() == expect


def test_observation_corner_masks_out_of_bounds():
    wd = flat_world()
    obs = render_observation(wd, UavState(0.0, 0.0, 2, 0))
    p = wd.patch_side
    half = p // 2
    assert np.all(obs.patch[2, : half - 1, :] == 1.0)  # rows north of the grid edge
    assert obs.patch[2, half, half] == 0.0


def test_observation_landmarks_at_max_altitude():
    wd = flat_world()
    s = UavState(15.0, 15.0, 4, 0)
    obs = render_observation(wd, s)
    r = wd.r_base + wd.r_gain * s.z
    p = wd.patch_side
    half = p // 2
    for lm in wd.landmarks:
        if (lm.x - 15) ** 2 + (lm.y - 15) ** 2 <= r * r:
            assert obs.patch[1, lm.y - 15 + half, lm.x - 15 + half] == 1.0


def test_observation_deterministic():
    wd = flat_world()
    s = UavState(10.0, 12.0, 3, 2)
    a = render_observation(wd, s)
    b = render_observation(wd, s)
    assert np.array_equal(a.patch, b.patch)


# ----------------------------------------------------------------- generation


def test_generate_world_deterministic():
    cfg = WorldConfig(width=48, height=48, n_landmarks=6)
    w1 = generate_world(1, cfg)
    w2 = generate_world(1, cfg)
    assert world_hash(w1) == world_hash(w2)
    assert np.array_equal(w1.height_field, w2.height_field)


def test_generate_world_default_connected():
    wd = generate_world(1)
    centers = [(lm.x, lm.y) for lm in wd.landmarks]
    assert W._connected(wd.height_field, centers, wd.cruise_z)
    assert len(wd.landmarks) == 12
    assert wd.height_field.max() <= wd.z_max
    for lm in wd.landmarks:
        assert wd.height_field[lm.y, lm.x] == 0


def test_generate_world_zero_density_flat():
    wd = generate_world(5, WorldConfig(width=32, height=32, obstacle_density=0.0, n_landmarks=3))
    assert wd.height_field.max() == 0


def test_generate_world_rejects_small_dims():
    with pytest.raises(ConfigError):
        generate_world(1, WorldConfig(width=16, height=16))
    with pytest.raises(ConfigError):
        generate_world(1, WorldConfig(n_landmarks=1))


def test_generate_world_impossible_density_raises_with_seed():
    cfg = WorldConfig(width=32, height=32, obstacle_density=3.0, building_min=6, building_max=8,
                      n_landmarks=8, max_retries=3, z_max=4)
    with pytest.raises(GenerationError, match="seed=9"):
        generate_world(9, cfg)


# ------------------------------------------------------------------- episodes


def test_sample_episode_brackets_hold():
    wd = generate_world(2, WorldConfig(width=64, height=64, n_landmarks=8))
    for tier, (lo, hi) in (("easy", (8, 24)), ("medium", (24, 48))):
        for i in range(25):
            ep = sample_episode(wd, tier, substream(10, tier, i))
            sl = math.hypot(ep.start.x - ep.goal[0], ep.start.y - ep.goal[1])
            assert lo <= sl < hi, f"{tier} straight-line {sl}"
            assert ep.shortest_path_length >= sl * wd.cell_size - 1e-9
            assert ep.max_steps == math.ceil(4.0 * ep.shortest_path_length / wd.cell_size)


def test_sample_episode_descriptor_consistent():
    wd = generate_world(2, WorldConfig(width=64, height=64, n_landmarks=8))
    ep = sample_episode(wd, "easy", substream(11, "desc"))
    lm = wd.landmark_by_id(ep.descriptor.landmark_id)
    dx, dy = ep.goal[0] - lm.x, ep.goal[1] - lm.y
    assert W._sector_of(dx, dy) == ep.descriptor.sector
    assert W._band_of(math.hypot(dx, dy), (4.0, 8.0)) == ep.descriptor.band


def test_sample_episode_deterministic():
    wd = generate_world(2, WorldConfig(width=64, height=64, n_landmarks=8))
    e1 = sample_episode(wd, "medium", substream(42, "ep", 7))
    e2 = sample_episode(wd, "medium", substream(42, "ep", 7))
    assert e1 == e2


def test_sample_episode_unknown_tier():
    wd = generate_world(2, WorldConfig(width=48, height=48, n_landmarks=4))
    with pytest.raises(ConfigError):
        sample_episode(wd, "impossible", substream(1, "x"))


# -------------------------------------------------------------------- file IO


def test_world_file_round_trip(tmp_path):
    wd = generate_world(4, WorldConfig(width=48, height=48, n_landmarks=5))
    path = tmp_path / "w.world"
    save_world(wd, path)
    back = load_world(path)
    assert world_hash(back) == world_hash(wd)
    assert back.cell_size == wd.cell_size
    assert back.landmarks == wd.landmarks
    assert np.array_equal(back.height_field, wd.height_field)


def test_episode_file_round_trip(tmp_path):
    wd = generate_world(2, WorldConfig(width=64, height=64, n_landmarks=8))
    eps = [sample_episode(wd, t, substream(3, t, i)) for t in ("easy", "medium") for i in range(3)]
    path = tmp_path / "eps.jsonl"
    save_episodes(eps, path)
    back = load_episodes(path)
    assert back == eps


def test_corridor_world_shape():
    wd = corridor_world(length=30)
    assert wd.width == 30
    assert wd.height_field[0].max() == 4 and wd.height_field[-1].max() == 4
    assert wd.height_field[wd.height // 2].max() == 0
