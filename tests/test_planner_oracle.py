"""The A* planner against the dict/tuple planner it replaced, and
against a brute-force Dijkstra.

plan_path keys each state by its flat integer index and holds its
g-scores and back-pointers in dicts sized by the search, with a flat
closed set. oracle_plan_path below is the earlier dict/tuple plan_path,
with its heuristic made an argument. Under the Manhattan heuristic that
plan_path uses, the two must give bit-identical plans, tie-breaks
included, because the corpus replay and the determinism contract rest
on them. Under the Euclidean heuristic that plan_path used before, the
oracle is the old planner: its plans may take another path between
equal-cost ties, but must keep the plan cost and the forward-move
count, so shortest_path_length, max_steps and the SPL denominators do
not move. dijkstra_cost checks optimality directly, with no heuristic
and in exact integer cost units. A short plan on a large grid must not
cost memory in proportion to the grid.
"""

import heapq
import math
import tracemalloc

import numpy as np
import pytest

from tiernav.errors import ContractError, InfeasibleError
from tiernav.util import substream
from tiernav.world import (
    DIRS,
    TURN_COST,
    Action,
    CityWorld,
    ExpertPath,
    Landmark,
    UavState,
    WorldConfig,
    generate_world,
    plan_path,
    step,
)


def manhattan(dx, dy):
    return abs(dx) + abs(dy)


def oracle_plan_path(world: CityWorld, start: UavState, goal, heuristic=manhattan) -> ExpertPath:
    """A* to the goal cell. Deterministic tie-break on (f, h, state index).

    heuristic(dx, dy) sees the offset of a cell from the goal cell;
    math.hypot gives the planner as it was before the Manhattan one.
    """
    gx, gy = int(goal[0]), int(goal[1])
    if not world.in_bounds(gx, gy):
        raise ContractError(f"goal ({gx},{gy}) outside grid")
    hf = world.height_field
    w, h = world.width, world.height
    zs = world.z_max + 1
    sx, sy = start.cell()
    s0 = (sx, sy, start.z, start.heading)

    def idx(s):
        return ((s[1] * w + s[0]) * zs + s[2]) * 4 + s[3]

    def heur(s):
        return heuristic(s[0] - gx, s[1] - gy)

    g_score = {s0: 0.0}
    came: dict = {}
    h0 = heur(s0)
    open_heap = [(h0, h0, idx(s0), s0)]
    closed = set()
    while open_heap:
        f, _, _, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        closed.add(cur)
        x, y, z, hd = cur
        if x == gx and y == gy:
            return oracle_reconstruct(came, cur)
        g_cur = g_score[cur]
        succs = []
        dx, dy = DIRS[hd]
        nx, ny = x + dx, y + dy
        if 0 <= nx < w and 0 <= ny < h and hf[ny, nx] < z:
            succs.append(((nx, ny, z, hd), 1.0, Action.FORWARD))
        succs.append(((x, y, z, (hd + 1) % 4), TURN_COST, Action.TURN_LEFT))
        succs.append(((x, y, z, (hd - 1) % 4), TURN_COST, Action.TURN_RIGHT))
        if z + 1 <= world.z_max:
            succs.append(((x, y, z + 1, hd), 1.0, Action.GO_UP))
        if z - 1 >= world.z_min and z - 1 > hf[y, x]:
            succs.append(((x, y, z - 1, hd), 1.0, Action.GO_DOWN))
        for nxt, cost, act in succs:
            ng = g_cur + cost
            if ng < g_score.get(nxt, math.inf):
                g_score[nxt] = ng
                came[nxt] = (cur, act)
                hn = heur(nxt)
                heapq.heappush(open_heap, (ng + hn, hn, idx(nxt), nxt))
    raise InfeasibleError(f"no path from ({sx},{sy},z{start.z}) to ({gx},{gy})")


def oracle_reconstruct(came, goal_state) -> ExpertPath:
    states = [goal_state]
    actions = []
    cur = goal_state
    while cur in came:
        cur, act = came[cur]
        states.append(cur)
        actions.append(act)
    states.reverse()
    actions.reverse()
    return ExpertPath(states=states, actions=actions)


SMALL_TIERS = {"easy": (4.0, 12.0), "medium": (12.0, 24.0), "hard": (24.0, float("inf"))}

ORACLE_WORLDS = (
    (3, WorldConfig(width=40, height=40, n_landmarks=5)),
    (8, WorldConfig(width=36, height=44, n_landmarks=4, z_max=3, obstacle_density=0.35)),
    (19, WorldConfig(width=44, height=36, n_landmarks=6, z_min=2, cruise_z=2, z_max=5)),
)


def assert_same_plan(new: ExpertPath, old: ExpertPath):
    assert new.states == old.states
    assert new.actions == old.actions
    assert all(type(a) is Action for a in new.actions)
    assert new.actions.count(Action.FORWARD) == old.actions.count(Action.FORWARD)


def draw_endpoints(wd, tier, rng):
    """Start and goal on free ground in a tier's distance bracket; any altitude and heading."""
    lo, hi = SMALL_TIERS[tier]
    free = np.argwhere(wd.height_field == 0)
    while True:
        (sy, sx), (gy, gx) = free[rng.integers(len(free), size=2)]
        if lo <= math.hypot(sx - gx, sy - gy) < hi:
            start = UavState(float(sx), float(sy), int(rng.integers(wd.z_min, wd.z_max + 1)),
                             int(rng.integers(4)))
            return start, (int(gx), int(gy))


def oracle_pairs(seed, cfg):
    """The world and its 100 (start, goal) pairs, easy, medium and hard in turn."""
    wd = generate_world(seed, cfg)
    rng = substream(seed, "oracle")
    return wd, [draw_endpoints(wd, ("easy", "medium", "hard")[i % 3], rng) for i in range(100)]


# costs in tenths of a move, so that sums are exact and equal costs compare equal
MOVE_UNITS = 10
TURN_UNITS = round(TURN_COST * MOVE_UNITS)
MOVES = (Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT, Action.GO_UP, Action.GO_DOWN)


def action_units(action) -> int:
    return TURN_UNITS if action in (Action.TURN_LEFT, Action.TURN_RIGHT) else MOVE_UNITS


def plan_units(path: ExpertPath) -> int:
    return sum(action_units(a) for a in path.actions)


def transition_graph(world: CityWorld):
    """Every valid state (x, y, z, heading) -> [(next state, cost units)], from the simulator's step."""
    graph = {}
    for y in range(world.height):
        for x in range(world.width):
            for z in range(max(world.z_min, int(world.height_field[y, x]) + 1), world.z_max + 1):
                for hd in range(4):
                    s = UavState(float(x), float(y), z, hd)
                    succ = []
                    for a in MOVES:
                        nxt, blocked, _ = step(world, s, a)
                        if not blocked:
                            succ.append(((int(nxt.x), int(nxt.y), nxt.z, nxt.heading), action_units(a)))
                    graph[(x, y, z, hd)] = succ
    return graph


def dijkstra_cost(world: CityWorld, start: UavState, goal, graph=None) -> int:
    """Least cost, in units, from start to any state on the goal cell.

    Plain Dijkstra over (x, y, z, heading), with no heuristic, and with
    the simulator's step as the transition model rather than the
    planner's own successor rules.
    """
    graph = graph or transition_graph(world)
    s0 = (int(start.x), int(start.y), start.z, start.heading)
    best = {s0: 0}
    heap = [(0, s0)]
    while heap:
        d, s = heapq.heappop(heap)
        if d > best[s]:
            continue
        if s[:2] == tuple(goal):
            return d
        for t, units in graph[s]:
            if d + units < best.get(t, math.inf):
                best[t] = d + units
                heapq.heappush(heap, (d + units, t))
    raise InfeasibleError(f"no path from {s0} to {tuple(goal)}")


@pytest.mark.parametrize("seed,cfg", ORACLE_WORLDS)
def test_plan_path_matches_oracle(seed, cfg):
    wd, pairs = oracle_pairs(seed, cfg)
    for start, goal in pairs:
        assert_same_plan(plan_path(wd, start, goal), oracle_plan_path(wd, start, goal, manhattan))


@pytest.mark.parametrize("seed,cfg", ORACLE_WORLDS)
def test_plan_path_keeps_cost_and_forward_count_of_hypot_planner(seed, cfg):
    wd, pairs = oracle_pairs(seed, cfg)
    for start, goal in pairs:
        new = plan_path(wd, start, goal)
        old = oracle_plan_path(wd, start, goal, math.hypot)
        assert plan_units(new) == plan_units(old), (start, goal)
        assert new.actions.count(Action.FORWARD) == old.actions.count(Action.FORWARD), (start, goal)


@pytest.mark.parametrize("seed,cfg", ORACLE_WORLDS)
def test_plan_path_cost_is_optimal(seed, cfg):
    assert TURN_UNITS == TURN_COST * MOVE_UNITS
    wd, pairs = oracle_pairs(seed, cfg)
    graph = transition_graph(wd)
    for start, goal in pairs:
        assert plan_units(plan_path(wd, start, goal)) == dijkstra_cost(wd, start, goal, graph), (start, goal)


def walled_world():
    hf = np.zeros((20, 20), dtype=np.int64)
    hf[8:13, 8:13] = 4
    hf[9:12, 9:12] = 0  # a 3x3 pit walled in at full height
    return CityWorld(width=20, height=20, cell_size=5.0, height_field=hf,
                     landmarks=[Landmark(0, "arch", 2, 2, 1)], z_min=1, z_max=4,
                     cruise_z=2, r_base=4, r_gain=2, world_id="walled")


@pytest.mark.parametrize("planner", [plan_path, oracle_plan_path, dijkstra_cost])
def test_walled_in_start_infeasible(planner):
    with pytest.raises(InfeasibleError):
        planner(walled_world(), UavState(10.0, 10.0, 2, 0), (2, 2))


@pytest.mark.parametrize("planner", [plan_path, oracle_plan_path])
@pytest.mark.parametrize("goal", [(20, 5), (5, -1), (-3, 30)])
def test_out_of_grid_goal_contract_error(planner, goal):
    with pytest.raises(ContractError):
        planner(walled_world(), UavState(2.0, 2.0, 2, 0), goal)


@pytest.mark.parametrize("start", [UavState(2.0, 2.0, 5, 0), UavState(2.0, 2.0, 2, 4),
                                   UavState(-1.0, 2.0, 2, 0), UavState(10.0, 8.0, 4, 0)])
def test_out_of_range_start_contract_error(start):
    # a flat state index would alias such a start onto another state
    with pytest.raises(ContractError):
        plan_path(walled_world(), start, (2, 2))


def test_short_plan_on_large_grid_peak_below_one_grid_sized_list():
    side, z_max = 256, 4
    world = CityWorld(width=side, height=side, cell_size=5.0,
                      height_field=np.zeros((side, side), dtype=np.int64),
                      landmarks=[Landmark(0, "arch", 2, 2, 1)], z_min=1, z_max=z_max,
                      cruise_z=2, r_base=4, r_gain=2, world_id="open")
    start = UavState(127.0, 128.0, 2, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        path = plan_path(world, start, (128, 128))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert path.actions == [Action.FORWARD]
    assert peak < side * side * (z_max + 1) * 4 * 8  # one list of 8-byte pointers, one per state
