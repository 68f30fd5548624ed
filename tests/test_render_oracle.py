"""The window-slice render_observation against the meshgrid render it replaced.

oracle_render_observation below is the earlier render_observation, kept
verbatim as the reference. The patch feeds the map, the policy and every
byte-stable artifact downstream, so it must stay byte-identical.
"""

import numpy as np
import pytest

from tiernav.util import substream
from tiernav.world import (
    CityWorld,
    Landmark,
    Observation,
    UavState,
    WorldConfig,
    generate_world,
    render_observation,
    validate_state,
)

from corridor import corridor_world


def oracle_render_observation(world: CityWorld, state: UavState) -> Observation:
    validate_state(world, state)
    p = world.patch_side
    half = p // 2
    cx, cy = state.cell()
    offs = np.arange(-half, half + 1)
    gy, gx = np.meshgrid(offs, offs, indexing="ij")
    ax = gx + cx
    ay = gy + cy
    in_bounds = (ax >= 0) & (ax < world.width) & (ay >= 0) & (ay < world.height)
    radius = world.r_base + world.r_gain * state.z
    visible = (gx * gx + gy * gy <= radius * radius) & in_bounds
    axc = np.clip(ax, 0, world.width - 1)
    ayc = np.clip(ay, 0, world.height - 1)
    hf = world.height_field[ayc, axc].astype(np.float64)
    rel = np.clip((hf - state.z + world.z_max) / (2.0 * world.z_max), 0.0, 1.0)
    height_ch = np.where(visible, rel, 0.0)
    lm_ch = np.zeros((p, p))
    for lm in world.landmarks:
        d2 = (ax - lm.x) ** 2 + (ay - lm.y) ** 2
        lm_ch = np.maximum(lm_ch, (d2 <= lm.radius * lm.radius).astype(np.float64))
    lm_ch = np.where(visible, lm_ch, 0.0)
    mask_ch = 1.0 - visible.astype(np.float64)
    return Observation(patch=np.stack([height_ch, lm_ch, mask_ch]), z_max=world.z_max)


def default_world():
    return generate_world(5)


def cli_world():
    # the geometry of the tests/test_cli.py smoke config
    return generate_world(7, WorldConfig(width=32, height=32, n_landmarks=4, z_max=3, r_base=3, r_gain=1))


def edge_landmark_world():
    """Landmark disks cut by the grid edge, one of them centred on a corner."""
    hf = np.zeros((24, 30), dtype=np.int64)
    hf[5:9, 10:14] = 3
    hf[15:18, 20:29] = 4
    hf[20:24, 0:3] = 1
    landmarks = [
        Landmark(0, "arch", 0, 0, 3),
        Landmark(1, "basin", 29, 12, 2),
        Landmark(2, "crane", 14, 23, 3),
        Landmark(3, "depot", 15, 11, 1),
    ]
    return CityWorld(width=30, height=24, cell_size=5.0, height_field=hf, landmarks=landmarks,
                     z_min=1, z_max=4, cruise_z=2, r_base=4, r_gain=2, world_id="edge")


WORLDS = {
    "default": default_world,
    "cli": cli_world,
    "corridor": corridor_world,
    "edge_landmarks": edge_landmark_world,
}


def assert_same_render(world, state):
    new = render_observation(world, state)
    old = oracle_render_observation(world, state)
    assert new.z_max == old.z_max
    assert new.patch.dtype == old.patch.dtype and new.patch.shape == old.patch.shape
    assert new.patch.tobytes() == old.patch.tobytes(), state


def states_at(world, x, y):
    """One state per legal altitude at cell (x, y), headings cycling."""
    return [UavState(float(x), float(y), z, z % 4)
            for z in range(world.z_min, world.z_max + 1) if z > world.height_field[y, x]]


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_random_states_every_altitude(name):
    world = WORLDS[name]()
    rng = substream(11, "render-oracle", name)
    altitudes = set()
    for _ in range(300):
        x = int(rng.integers(world.width))
        y = int(rng.integers(world.height))
        for s in states_at(world, x, y):
            assert_same_render(world, s)
            altitudes.add(s.z)
    assert altitudes == set(range(world.z_min, world.z_max + 1))


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_borders_and_corners(name):
    # every cell within a patch half-width (plus one) of an edge: all four
    # borders, the corners, and the cells where the interior slice starts
    world = WORLDS[name]()
    reach = world.patch_side // 2 + 1
    n = 0
    for y in range(world.height):
        for x in range(world.width):
            if min(x, y, world.width - 1 - x, world.height - 1 - y) <= reach:
                for s in states_at(world, x, y):
                    assert_same_render(world, s)
                    n += 1
    assert n > 0


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_landmarks_straddling_patch_edge(name):
    # slide the patch past each landmark so its disk enters, straddles and
    # leaves the patch edge along both axes and the diagonal
    world = WORLDS[name]()
    half = world.patch_side // 2
    for lm in world.landmarks:
        for d in range(half - lm.radius - 1, half + lm.radius + 2):
            for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
                x, y = lm.x + sx * d, lm.y + sy * d
                if world.in_bounds(x, y):
                    for s in states_at(world, x, y):
                        assert_same_render(world, s)


def test_height_field_edited_between_renders():
    world = cli_world()
    s = UavState(16.0, 16.0, world.z_max, 0)
    world.height_field[14:19, 10:14] = 0
    assert_same_render(world, s)
    world.height_field[14:19, 10:14] = world.z_max
    assert_same_render(world, s)
    world.height_field[0:3, :] = 1
    assert_same_render(world, UavState(1.0, 1.0, world.z_max, 0))


def test_patch_is_fresh_and_writable():
    world = default_world()
    free = np.argwhere(world.height_field == 0)
    corner = free[np.argmin(free.sum(axis=1))]
    center = free[np.argmin(np.abs(free - world.height // 2).sum(axis=1))]
    for y, x in (corner, center):  # one border-path and one interior-slice render
        s = UavState(float(x), float(y), world.cruise_z, 0)
        a = render_observation(world, s)
        b = render_observation(world, s)
        assert a.patch.flags.writeable and b.patch.flags.writeable
        assert not np.shares_memory(a.patch, b.patch)
        assert not np.shares_memory(a.patch, world.height_field)
        a.patch[...] = -1.0
        assert_same_render(world, s)
