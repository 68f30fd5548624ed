"""Synthetic-city grid simulator.

A world is a height field (cells of obstacle altitude, 0 = free
ground) plus named landmarks. The vehicle moves over a discrete
six-action space at integer altitudes; the top-down observation is a
square patch whose visible radius grows with altitude, which is what
makes the vertical actions worth taking.

The step reward is shaped: a distance-progress term, a heading-alignment
term toward the final goal, an in-range bonus, a constant step penalty,
then a hard clip.

plan_path runs A* over (x, y, z, heading) with unit move cost and a
small turn cost, so paths come out smooth and their corners are
informative waypoints. Its heuristic is the Manhattan distance to the
goal cell. Forward moves are 4-connected at unit cost, so that distance
never overestimates the cost left: the heuristic is admissible and
consistent, and every plan is optimal (Hart, Nilsson & Raphael 1968).
sample_episode verifies each episode's reachability with it.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from collections import deque
from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from .errors import ConfigError, ContractError, GenerationError, InfeasibleError
from .util import atomic_write, read_text, stable_hash_bytes, substream


class Action(IntEnum):
    GO_UP = 0
    GO_DOWN = 1
    FORWARD = 2
    TURN_LEFT = 3
    TURN_RIGHT = 4
    STOP = 5


# heading index -> unit step, heading 0 = +x, turns left = counterclockwise
DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))

LANDMARK_TOKENS = (
    "arch", "basin", "crane", "depot", "fountain", "gallery", "harbor", "kiln",
    "lookout", "market", "obelisk", "pylon", "quarry", "rotunda", "silo", "tower",
    "viaduct", "windmill", "yard", "ziggurat",
)

TARGET_TAGS = ("pad", "lot", "gate", "roof")

BANDS = ("near", "mid", "far")
BAND_EDGES = (4.0, 8.0)  # goal-to-landmark cells where near ends and far begins

# sample_episode: goals lie up to BAND_MAX cells from their landmark, an
# episode's step budget is BUDGET_FACTOR times its plan's forward moves,
# and MAX_TRIES failed draws raise GenerationError
BAND_MAX = 12.0
BUDGET_FACTOR = 4.0
MAX_TRIES = 400

# the difficulty tiers: name -> straight-line start-to-goal distance bracket
# in cells, [lo, hi). This table is the one list of tier names and the
# default of each world.tier_<name> config key; a tier list anywhere else
# is an ordered mapping of the same form.
TIERS = {"easy": (8.0, 24.0), "medium": (24.0, 48.0), "hard": (48.0, float("inf"))}


@dataclass(frozen=True)
class Landmark:
    id: int
    token: str
    x: int
    y: int
    radius: int


@dataclass
class WorldConfig:
    width: int = 96
    height: int = 96
    cell_size: float = 5.0
    z_min: int = 1
    z_max: int = 4
    cruise_z: int = 2
    r_base: int = 4
    r_gain: int = 2
    n_landmarks: int = 12
    obstacle_density: float = 0.25
    building_min: int = 2
    building_max: int = 6
    max_retries: int = 40


def patch_side(r_base: int, r_gain: int, z_max: int) -> int:
    """Side of the square observation patch: the visible disk's diameter at the ceiling."""
    return 2 * (r_base + r_gain * z_max) + 1


@dataclass
class CityWorld:
    width: int
    height: int
    cell_size: float
    height_field: np.ndarray  # [height, width] ints, indexed [y, x]
    landmarks: list
    z_min: int
    z_max: int
    cruise_z: int
    r_base: int
    r_gain: int
    world_id: str = ""

    @property
    def patch_side(self) -> int:
        return patch_side(self.r_base, self.r_gain, self.z_max)

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def landmark_by_id(self, lid: int) -> Landmark:
        for lm in self.landmarks:
            if lm.id == lid:
                return lm
        raise ContractError(f"unknown landmark id {lid}")


@dataclass
class UavState:
    x: float
    y: float
    z: int
    heading: int  # 0..3, theta = heading * pi/2

    @property
    def theta(self) -> float:
        return self.heading * (math.pi / 2.0)

    def cell(self):
        return int(round(self.x)), int(round(self.y))


@dataclass(frozen=True)
class GoalDescriptor:
    landmark_id: int
    sector: int  # 0..7 compass sector of goal relative to the landmark
    band: str  # near | mid | far
    tag: int  # small categorical token index into TARGET_TAGS


@dataclass
class EpisodeSpec:
    world_id: str
    start: UavState
    goal: tuple
    descriptor: GoalDescriptor
    difficulty: str
    shortest_path_length: float  # meters
    max_steps: int
    # the teacher plan sample_episode verified reachability with; not
    # serialized, so episodes read back from disk carry None
    plan: ExpertPath | None = field(default=None, compare=False, repr=False)


@dataclass
class Observation:
    patch: np.ndarray  # [3, P, P]: relative height, landmark presence, invalid mask
    z_max: int  # scale needed to invert the relative-height encoding


def validate_state(world: CityWorld, state: UavState):
    cx, cy = state.cell()
    if not world.in_bounds(cx, cy):
        raise ContractError(f"state cell ({cx},{cy}) outside {world.width}x{world.height} grid")
    if not (world.z_min <= state.z <= world.z_max):
        raise ContractError(f"altitude {state.z} outside [{world.z_min},{world.z_max}]")
    if state.z <= world.height_field[cy, cx]:
        raise ContractError(f"altitude {state.z} interpenetrates obstacle of height {world.height_field[cy, cx]}")
    if state.heading not in (0, 1, 2, 3):
        raise ContractError(f"heading index {state.heading} not in 0..3")


def step(world: CityWorld, state: UavState, action: Action):
    """Pure transition. Returns (next_state, blocked, terminal)."""
    validate_state(world, state)
    a = Action(action)
    if a == Action.STOP:
        return replace(state), False, True
    if a == Action.TURN_LEFT:
        return replace(state, heading=(state.heading + 1) % 4), False, False
    if a == Action.TURN_RIGHT:
        return replace(state, heading=(state.heading - 1) % 4), False, False
    cx, cy = state.cell()
    if a == Action.GO_UP:
        if state.z + 1 > world.z_max:
            return replace(state), True, False
        return replace(state, z=state.z + 1), False, False
    if a == Action.GO_DOWN:
        # descending into an obstacle is blocked the same way the ceiling is
        if state.z - 1 < world.z_min or state.z - 1 <= world.height_field[cy, cx]:
            return replace(state), True, False
        return replace(state, z=state.z - 1), False, False
    # forward
    dx, dy = DIRS[state.heading]
    nx, ny = cx + dx, cy + dy
    if not world.in_bounds(nx, ny) or world.height_field[ny, nx] >= state.z:
        return replace(state), True, False
    return replace(state, x=state.x + dx, y=state.y + dy), False, False


def distance_to_goal(state: UavState, goal, cell_size: float) -> float:
    """Horizontal Euclidean distance in meters (goals are ground cells)."""
    return math.hypot(state.x - goal[0], state.y - goal[1]) * cell_size


@dataclass
class RewardConfig:
    alpha: float = 1.0  # per meter of approach
    beta: float = 0.5
    eta: float = 10.0
    delta: float = -0.01
    d_goal: float = 10.0  # meters
    r_min: float = -5.0
    r_max: float = 5.0
    # Extension: gate the eta bonus on the stop action. The plain
    # in-range bonus saturates the clip on every in-range step, so a
    # policy trained on it farms the zone instead of stopping. Off by
    # default to keep the published form.
    goal_bonus_on_stop: bool = False

    def validate(self):
        if not self.r_min < self.r_max:
            raise ConfigError(f"reward clip bounds inverted: [{self.r_min}, {self.r_max}]")


def _wrapped_angle(a: float, b: float) -> float:
    """|a-b| wrapped into [0, pi]."""
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def compute_reward(
    prev_state: UavState,
    state: UavState,
    goal,
    world,
    cfg: RewardConfig,
    stopped: bool = False,
) -> float:
    """Shaped step reward, clipped to [r_min, r_max].

    raw = alpha*(d_prev - d) + beta*(1 - |theta - theta*|/pi)
          + eta*[d < d_goal] + delta
    theta* points from the current position toward the final goal.
    """
    d_prev = distance_to_goal(prev_state, goal, world.cell_size)
    d = distance_to_goal(state, goal, world.cell_size)
    theta_star = math.atan2(goal[1] - state.y, goal[0] - state.x)
    heading_term = cfg.beta * (1.0 - _wrapped_angle(state.theta, theta_star) / math.pi)
    in_range = d < cfg.d_goal
    bonus = cfg.eta if (in_range and (stopped or not cfg.goal_bonus_on_stop)) else 0.0
    raw = cfg.alpha * (d_prev - d) + heading_term + bonus + cfg.delta
    return float(min(max(raw, cfg.r_min), cfg.r_max))


@functools.lru_cache(maxsize=64)
def _visibility_disk(half: int, radius: int) -> np.ndarray:
    """Read-only [2*half+1]^2 mask of offsets within radius of the center.

    Keyed on geometry alone: the height field may change between
    renders, the disk never does.
    """
    offs = np.arange(-half, half + 1)
    disk = offs[:, None] ** 2 + offs[None, :] ** 2 <= radius * radius
    disk.setflags(write=False)
    return disk


def render_observation(world: CityWorld, state: UavState) -> Observation:
    """[3, P, P] patch centred on the state's cell: relative height,
    landmark presence, and the invalid mask (outside the visible disk
    or off the grid). Every call returns a fresh array."""
    validate_state(world, state)
    p = world.patch_side
    half = p // 2
    cx, cy = state.cell()
    offs = np.arange(-half, half + 1)
    xs = offs + cx  # world columns and rows the patch covers
    ys = offs + cy
    visible = _visibility_disk(half, world.r_base + world.r_gain * state.z)
    if cx - half >= 0 and cy - half >= 0 and cx + half < world.width and cy + half < world.height:
        hf = world.height_field[cy - half : cy + half + 1, cx - half : cx + half + 1]
    else:
        col_in = (xs >= 0) & (xs < world.width)
        row_in = (ys >= 0) & (ys < world.height)
        visible = visible & row_in[:, None] & col_in[None, :]
        rows = np.clip(ys, 0, world.height - 1)
        cols = np.clip(xs, 0, world.width - 1)
        hf = world.height_field[rows[:, None], cols[None, :]]
    rel = np.clip((hf.astype(np.float64) - state.z + world.z_max) / (2.0 * world.z_max), 0.0, 1.0)
    patch = np.zeros((3, p, p))
    np.copyto(patch[0], rel, where=visible)
    lm_hit = np.zeros((p, p), dtype=bool)
    for lm in world.landmarks:
        r = lm.radius
        if abs(lm.x - cx) > half + r or abs(lm.y - cy) > half + r:
            continue  # the landmark's bounding box misses the patch
        lm_hit |= (ys[:, None] - lm.y) ** 2 + (xs[None, :] - lm.x) ** 2 <= r * r
    patch[1] = lm_hit & visible
    patch[2] = ~visible
    return Observation(patch=patch, z_max=world.z_max)


# --------------------------------------------------------------- generation


def _passable(world_hf: np.ndarray, z: int) -> np.ndarray:
    return world_hf < z


def _connected(hf: np.ndarray, centers, z: int) -> bool:
    """Flood fill at altitude z; True iff all centers share a component."""
    h, w = hf.shape
    free = _passable(hf, z)
    if not all(free[y, x] for x, y in centers):
        return False
    seen = np.zeros_like(free, dtype=bool)
    sx, sy = centers[0]
    seen[sy, sx] = True
    q = deque([(sx, sy)])
    while q:
        x, y = q.popleft()
        for dx, dy in DIRS:
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h and free[ny, nx] and not seen[ny, nx]:
                seen[ny, nx] = True
                q.append((nx, ny))
    return all(seen[y, x] for x, y in centers)


def generate_world(seed: int, cfg: WorldConfig | None = None) -> CityWorld:
    """Deterministic city layout: rectangular buildings + cleared landmark disks."""
    cfg = cfg or WorldConfig()
    if cfg.width < 32 or cfg.height < 32:
        raise ConfigError(f"world dimensions {cfg.width}x{cfg.height} below the 32x32 minimum")
    if cfg.n_landmarks < 2:
        raise ConfigError(f"need at least 2 landmarks, got {cfg.n_landmarks}")
    if not (0 < cfg.z_min <= cfg.cruise_z <= cfg.z_max):
        raise ConfigError(f"altitude range [{cfg.z_min},{cfg.z_max}] with cruise {cfg.cruise_z} is inconsistent")
    if not cfg.building_min <= cfg.building_max <= min(cfg.width, cfg.height):
        raise ConfigError(f"world.building_min={cfg.building_min} and world.building_max={cfg.building_max} "
                          f"must satisfy building_min <= building_max <= {min(cfg.width, cfg.height)} (the world side)")
    rng = substream(seed, "world-gen")
    avg_area = ((cfg.building_min + cfg.building_max) / 2.0) ** 2
    n_buildings = int(cfg.obstacle_density * cfg.width * cfg.height / avg_area)
    for _ in range(cfg.max_retries):
        hf = np.zeros((cfg.height, cfg.width), dtype=np.int64)
        for _ in range(n_buildings):
            bw = int(rng.integers(cfg.building_min, cfg.building_max + 1))
            bh = int(rng.integers(cfg.building_min, cfg.building_max + 1))
            bx = int(rng.integers(0, cfg.width - bw + 1))
            by = int(rng.integers(0, cfg.height - bh + 1))
            hz = int(rng.integers(1, cfg.z_max + 1))
            hf[by : by + bh, bx : bx + bw] = np.maximum(hf[by : by + bh, bx : bx + bw], hz)
        # landmark centers: spread out, then carve their footprints clear
        min_sep = max(4, min(cfg.width, cfg.height) // 8)
        centers = []
        for _ in range(cfg.n_landmarks * 50):
            if len(centers) == cfg.n_landmarks:
                break
            x = int(rng.integers(2, cfg.width - 2))
            y = int(rng.integers(2, cfg.height - 2))
            if all((x - ox) ** 2 + (y - oy) ** 2 >= min_sep * min_sep for ox, oy in centers):
                centers.append((x, y))
        if len(centers) < cfg.n_landmarks:
            continue
        landmarks = []
        for i, (x, y) in enumerate(centers):
            radius = int(rng.integers(2, 4))
            yy, xx = np.ogrid[: cfg.height, : cfg.width]
            disk = (xx - x) ** 2 + (yy - y) ** 2 <= radius * radius
            hf[disk] = 0
            token = LANDMARK_TOKENS[i % len(LANDMARK_TOKENS)]
            if i >= len(LANDMARK_TOKENS):
                token = f"{token}{i // len(LANDMARK_TOKENS)}"
            landmarks.append(Landmark(id=i, token=token, x=x, y=y, radius=radius))
        if not _connected(hf, centers, cfg.cruise_z):
            continue
        world = CityWorld(
            width=cfg.width,
            height=cfg.height,
            cell_size=cfg.cell_size,
            height_field=hf,
            landmarks=landmarks,
            z_min=cfg.z_min,
            z_max=cfg.z_max,
            cruise_z=cfg.cruise_z,
            r_base=cfg.r_base,
            r_gain=cfg.r_gain,
        )
        world.world_id = world_hash(world)
        return world
    raise GenerationError(
        f"no connected layout within {cfg.max_retries} retries (seed={seed}, density={cfg.obstacle_density})"
    )


def _text_id(text: str) -> str:
    return stable_hash_bytes(text.encode("utf-8"))[:16]


def world_hash(world: CityWorld) -> str:
    return _text_id(serialize_world(world))


# ------------------------------------------------------------------- planner

TURN_COST = 0.1

# action codes as plain ints for the planner's back-pointers
_GO_UP, _GO_DOWN, _FORWARD = int(Action.GO_UP), int(Action.GO_DOWN), int(Action.FORWARD)
_TURN_LEFT, _TURN_RIGHT = int(Action.TURN_LEFT), int(Action.TURN_RIGHT)


@dataclass
class ExpertPath:
    """A teacher plan; its geodesic length is its forward-move count times the cell size."""

    states: list  # (x, y, z, heading) tuples, len = len(actions)+1
    actions: list  # Action values, no trailing stop


def plan_path(world: CityWorld, start: UavState, goal) -> ExpertPath:
    """A* to the goal cell. Deterministic tie-break on (f, h, state index).

    The heuristic is the Manhattan distance |x - gx| + |y - gy|. It is
    admissible: reaching the goal takes at least that many forward
    moves, each costing 1, and turns and altitude changes only add
    cost. It is also consistent, as a forward move changes it by
    exactly 1 and the other moves keep the cell. So the first goal
    state popped is optimal, and the plan cost is the same as under
    any other admissible heuristic; only equal-cost ties may resolve
    to another path.

    A state is its flat index ((y*w + x)*zs + z)*4 + heading. The closed
    set is a bytearray over all states, but the g-scores and back-pointers
    are dicts keyed by the index, so their time and memory follow the
    search, not the grid. A search that exhausts a 96x96 grid (z 1..4)
    peaks near 24 MiB, against 10 MiB for two grid-sized lists.
    """
    gx, gy = int(goal[0]), int(goal[1])
    if not world.in_bounds(gx, gy):
        raise ContractError(f"goal ({gx},{gy}) outside grid")
    validate_state(world, start)  # an out-of-range start would alias another state's index
    w, h = world.width, world.height
    zs = world.z_max + 1
    z_max, z_min = world.z_max, world.z_min
    hf = world.height_field.ravel().tolist()  # hf[y*w + x]
    goal_cell = gy * w + gx
    sx, sy = start.cell()
    s0 = ((sy * w + sx) * zs + start.z) * 4 + start.heading
    fwd_offset = [(dy * w + dx) * zs * 4 for dx, dy in DIRS]  # index step of a forward move
    g_score = {s0: 0.0}
    came = {}  # parent index * 8 + action, for every state reached from another
    closed = bytearray(w * h * zs * 4)
    gget, inf = g_score.get, math.inf
    hcell = (np.abs(np.arange(w) - gx)[None, :] + np.abs(np.arange(h) - gy)[:, None]).ravel().tolist()
    h0 = hcell[sy * w + sx]
    open_heap = [(h0, h0, s0)]
    heappush, heappop = heapq.heappush, heapq.heappop
    while open_heap:
        _, h_cur, cur = heappop(open_heap)
        if closed[cur]:
            continue
        closed[cur] = 1
        hd = cur & 3
        r = cur >> 2
        c = r // zs
        if c == goal_cell:
            return _reconstruct(world, came, cur, s0, zs)
        z = r % zs
        x, y = c % w, c // w
        g_cur = g_score[cur]
        dx, dy = DIRS[hd]
        nx, ny = x + dx, y + dy
        if 0 <= nx < w and 0 <= ny < h and hf[c + dy * w + dx] < z:
            nxt = cur + fwd_offset[hd]
            ng = g_cur + 1.0
            if ng < gget(nxt, inf):
                g_score[nxt] = ng
                came[nxt] = cur * 8 + _FORWARD
                hn = hcell[c + dy * w + dx]
                heappush(open_heap, (ng + hn, hn, nxt))
        # the other moves keep the cell, so their heuristic is h_cur
        ng = g_cur + TURN_COST
        nxt = cur - hd + ((hd + 1) & 3)
        if ng < gget(nxt, inf):
            g_score[nxt] = ng
            came[nxt] = cur * 8 + _TURN_LEFT
            heappush(open_heap, (ng + h_cur, h_cur, nxt))
        nxt = cur - hd + ((hd - 1) & 3)
        if ng < gget(nxt, inf):
            g_score[nxt] = ng
            came[nxt] = cur * 8 + _TURN_RIGHT
            heappush(open_heap, (ng + h_cur, h_cur, nxt))
        ng = g_cur + 1.0
        if z + 1 <= z_max and ng < gget(cur + 4, inf):
            g_score[cur + 4] = ng
            came[cur + 4] = cur * 8 + _GO_UP
            heappush(open_heap, (ng + h_cur, h_cur, cur + 4))
        if z - 1 >= z_min and z - 1 > hf[c] and ng < gget(cur - 4, inf):
            g_score[cur - 4] = ng
            came[cur - 4] = cur * 8 + _GO_DOWN
            heappush(open_heap, (ng + h_cur, h_cur, cur - 4))
    raise InfeasibleError(f"no path from ({sx},{sy},z{start.z}) to ({gx},{gy})")


def _reconstruct(world: CityWorld, came, goal_idx: int, start_idx: int, zs: int) -> ExpertPath:
    w = world.width
    states = []
    actions = []
    cur = goal_idx
    while True:
        r = cur >> 2
        c = r // zs
        states.append((c % w, c // w, r % zs, cur & 3))
        if cur == start_idx:
            break
        actions.append(Action(came[cur] & 7))
        cur = came[cur] >> 3
    states.reverse()
    actions.reverse()
    return ExpertPath(states=states, actions=actions)


# ------------------------------------------------------------------ episodes


def _sector_of(dx: float, dy: float) -> int:
    """8 compass sectors, 0 = +x, counterclockwise, each 45 deg wide."""
    ang = math.atan2(dy, dx) % (2.0 * math.pi)
    return int((ang + math.pi / 8.0) // (math.pi / 4.0)) % 8


def _band_of(dist: float, band_edges) -> str:
    if dist < band_edges[0]:
        return "near"
    if dist < band_edges[1]:
        return "mid"
    return "far"


def sample_episode(
    world: CityWorld,
    difficulty: str,
    rng: np.random.Generator,
    tiers: dict = TIERS,
) -> EpisodeSpec:
    """Goal near a landmark, start in the distance bracket tiers[difficulty].

    Reachability is teacher-verified, so a returned spec always carries
    the true shortest-path length, the plan's forward moves times the
    cell size, and its plan field holds that teacher plan for
    build_demonstration and TeacherPolicy to reuse. The plan is not
    serialized: episode_to_dict leaves it out. Failed draws are retried.
    A world with no free ground cell or no landmark raises
    GenerationError.
    """
    if difficulty not in tiers:
        raise ConfigError(f"unknown difficulty tier {difficulty!r}")
    lo, hi = tiers[difficulty]
    free_y, free_x = np.nonzero(world.height_field == 0)
    if free_x.size == 0:
        raise GenerationError(f"world {world.world_id} has no free ground cells")
    if not world.landmarks:
        raise GenerationError(f"world {world.world_id} has no landmarks")

    for _ in range(MAX_TRIES):
        lm = world.landmarks[int(rng.integers(len(world.landmarks)))]
        dist = float(rng.uniform(1.5, BAND_MAX))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        gx = int(round(lm.x + dist * math.cos(ang)))
        gy = int(round(lm.y + dist * math.sin(ang)))
        if not world.in_bounds(gx, gy) or world.height_field[gy, gx] != 0 or (gx, gy) == (lm.x, lm.y):
            continue
        start = None
        for _ in range(60):
            i = int(rng.integers(free_x.size))
            sx, sy = int(free_x[i]), int(free_y[i])
            sl = math.hypot(sx - gx, sy - gy)
            if lo <= sl < hi and (sx, sy) != (gx, gy):
                start = UavState(x=float(sx), y=float(sy), z=world.cruise_z, heading=int(rng.integers(4)))
                break
        if start is None:
            continue
        try:
            plan = plan_path(world, start, (gx, gy))
        except InfeasibleError:
            continue
        ell = float(plan.actions.count(Action.FORWARD) * world.cell_size)
        desc = GoalDescriptor(
            landmark_id=lm.id,
            sector=_sector_of(gx - lm.x, gy - lm.y),
            band=_band_of(math.hypot(gx - lm.x, gy - lm.y), BAND_EDGES),
            tag=int(rng.integers(len(TARGET_TAGS))),
        )
        return EpisodeSpec(
            world_id=world.world_id,
            start=start,
            goal=(gx, gy),
            descriptor=desc,
            difficulty=difficulty,
            shortest_path_length=ell,
            max_steps=int(math.ceil(BUDGET_FACTOR * ell / world.cell_size)),
            plan=plan,
        )
    raise GenerationError(f"no feasible ({difficulty}) episode after {MAX_TRIES} tries in world {world.world_id}")


# ------------------------------------------------------------------- file IO


def serialize_world(world: CityWorld) -> str:
    lines = [
        "tiernav-world 1",
        f"width {world.width}",
        f"height {world.height}",
        f"cell_size {world.cell_size!r}",
        f"z_min {world.z_min}",
        f"z_max {world.z_max}",
        f"cruise_z {world.cruise_z}",
        f"r_base {world.r_base}",
        f"r_gain {world.r_gain}",
        "heights",
    ]
    # astype truncates toward zero like int(), so a float field encodes as before
    lines.extend(" ".join(map(str, row)) for row in world.height_field.astype(np.int64).tolist())
    lines.append(f"landmarks {len(world.landmarks)}")
    for lm in world.landmarks:
        lines.append(f"{lm.id} {lm.token} {lm.x} {lm.y} {lm.radius}")
    return "\n".join(lines) + "\n"


def save_world(world: CityWorld, path):
    atomic_write(path, serialize_world(world))


def load_world(path) -> CityWorld:
    """Read a world file written by save_world.

    A missing header key or heights marker, a heights block of another
    shape than height x width, a non-integer cell, or a bad landmark
    count or landmark line raises ContractError naming the file.
    """
    text = read_text(path)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("tiernav-world"):
        raise ContractError(f"{path}: not a world file")
    try:
        i = lines.index("heights")
        head = dict(line.split(maxsplit=1) for line in lines[1:i])
        h, w = int(head["height"]), int(head["width"])
        rows = [line.split() for line in lines[i + 1 : i + 1 + h]]
        if len(rows) != h or any(len(row) != w for row in rows):
            raise ValueError(f"heights block is not {h} rows of {w} cells")
        hf = np.array(rows, dtype=np.int64)
        i += 1 + h
        parts = lines[i].split() if i < len(lines) else []
        if len(parts) != 2 or parts[0] != "landmarks" or int(parts[1]) != len(lines) - i - 1:
            raise ValueError(f"line {i + 1} is not 'landmarks N' followed by N landmark lines")
        landmarks = []
        for n, line in enumerate(lines[i + 1 :], start=i + 2):
            fields = line.split()
            if len(fields) != 5:
                raise ValueError(f"line {n} is not 'id token x y radius'")
            lid, token, x, y, r = fields
            landmarks.append(Landmark(id=int(lid), token=token, x=int(x), y=int(y), radius=int(r)))
        world = CityWorld(
            width=w,
            height=h,
            cell_size=float(head["cell_size"]),
            height_field=hf,
            landmarks=landmarks,
            z_min=int(head["z_min"]),
            z_max=int(head["z_max"]),
            cruise_z=int(head["cruise_z"]),
            r_base=int(head["r_base"]),
            r_gain=int(head["r_gain"]),
        )
    except KeyError as e:
        raise ContractError(f"{path}: header has no {e} line") from None
    except (ValueError, OverflowError) as e:
        raise ContractError(f"{path}: malformed world file: {e}") from None
    world.world_id = _text_id(text)  # save_world's text: the world_hash of the world it wrote
    return world


def episode_to_dict(ep: EpisodeSpec) -> dict:
    return {
        "world_id": ep.world_id,
        "start": {"x": ep.start.x, "y": ep.start.y, "z": ep.start.z, "heading": ep.start.heading},
        "goal": [ep.goal[0], ep.goal[1]],
        "descriptor": {
            "landmark_id": ep.descriptor.landmark_id,
            "sector": ep.descriptor.sector,
            "band": ep.descriptor.band,
            "tag": ep.descriptor.tag,
        },
        "difficulty": ep.difficulty,
        "shortest_path_length": ep.shortest_path_length,
        "max_steps": ep.max_steps,
    }


def episode_from_dict(d: dict) -> EpisodeSpec:
    return EpisodeSpec(
        world_id=d["world_id"],
        start=UavState(x=d["start"]["x"], y=d["start"]["y"], z=d["start"]["z"], heading=d["start"]["heading"]),
        goal=(d["goal"][0], d["goal"][1]),
        descriptor=GoalDescriptor(
            landmark_id=d["descriptor"]["landmark_id"],
            sector=d["descriptor"]["sector"],
            band=d["descriptor"]["band"],
            tag=d["descriptor"]["tag"],
        ),
        difficulty=d["difficulty"],
        shortest_path_length=d["shortest_path_length"],
        max_steps=d["max_steps"],
    )


def save_episodes(episodes, path):
    atomic_write(path, "".join(json.dumps(episode_to_dict(ep), sort_keys=True) + "\n" for ep in episodes))


def load_episodes(path):
    """Episodes of a JSON-lines file; a line that is no episode raises ContractError."""
    out = []
    for n, line in enumerate(read_text(path).splitlines(), start=1):
        if line.strip():
            try:
                out.append(episode_from_dict(json.loads(line)))
            except KeyError as e:
                raise ContractError(f"{path}: line {n} has no {e} key") from None
            except (ValueError, TypeError) as e:
                raise ContractError(f"{path}: line {n} is not an episode record: {e}") from None
    return out
