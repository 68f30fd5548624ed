"""The world-file row encoder and the CSV cell formatter against their oracles.

oracle_heights_rows is the per-cell encoder serialize_world used before
it encoded whole rows from one tolist(), and oracle_fmt is util._fmt
before its float fast path. Both are kept here as the byte-exact
references: world ids and every CSV artifact depend on these bytes.
"""

import math

import numpy as np
import pytest

from tiernav.util import _fmt
from tiernav.world import WorldConfig, generate_world, load_world, save_world, serialize_world, world_hash


def oracle_heights_rows(height_field) -> list:
    return [" ".join(str(int(v)) for v in height_field[y]) for y in range(height_field.shape[0])]


def oracle_fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def heights_rows(world) -> list:
    lines = serialize_world(world).splitlines()
    start = lines.index("heights") + 1
    return lines[start : start + world.height]


@pytest.mark.parametrize("seed,cfg", [
    (3, WorldConfig(width=32, height=32, n_landmarks=4, z_max=3, r_base=3, r_gain=1)),
    (11, WorldConfig(width=48, height=40, n_landmarks=5)),
    (29, WorldConfig()),
])
def test_heights_rows_match_oracle(seed, cfg, tmp_path):
    world = generate_world(seed, cfg)
    assert heights_rows(world) == oracle_heights_rows(world.height_field)
    save_world(world, tmp_path / "w.txt")
    back = load_world(tmp_path / "w.txt")
    assert back.world_id == world.world_id
    assert serialize_world(back) == serialize_world(world)


def test_float_height_field_encodes_as_oracle():
    world = generate_world(5, WorldConfig(width=32, height=32, n_landmarks=4))
    ints = world.height_field.copy()
    world.height_field = ints.astype(np.float64) + np.where(ints % 2 == 0, 0.75, -0.25)
    world.height_field[0, :4] = [-1.5, -0.5, 2.999, 7.0]
    assert heights_rows(world) == oracle_heights_rows(world.height_field)
    world.height_field = np.trunc(world.height_field)
    trunc_id = world_hash(world)
    world.height_field = world.height_field.astype(np.int64)
    assert world_hash(world) == trunc_id


@pytest.mark.parametrize("value", [
    0.1, 1.0, -2.5, 1e-300, 123456789.123, -0.0, 0.0, math.nan, math.inf, -math.inf,
    np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float32(0.1),
    0, 7, -3, np.int64(5), np.int32(-9), True, False, np.bool_(True), "easy", "",
])
def test_fmt_matches_oracle(value):
    assert _fmt(value) == oracle_fmt(value)
