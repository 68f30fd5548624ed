"""Expert demonstrator, and the one trajectory-log format.

extract_waypoints turns a teacher plan (world.plan_path) into corner
and landmark-anchored waypoints, spacing-capped, goal last.
build_demonstration replays a plan through the simulator to label each
step: expert action, waypoint, progress, reward, and exact discounted
value. It renders nothing and builds no map. load_corpus replays a
saved corpus and is the one place that adds observations and map
snapshots to a demonstration.

Every trajectory file holds TRAJ_COLUMNS rows (traj_row). A corpus
episode is the teacher's trajectory log: its g_hat is the goal, p_hat
the progress label and v_hat the value label. An eval step log prefixes
each row with the episode's split, tier, seed and index
(STEP_LOG_COLUMNS). read_trajectory_log reads both.

An episode is planned once: sample_episode keeps the plan it verified
reachability with on EpisodeSpec.plan, and build_demonstration and
TeacherPolicy reuse it. The plan is not serialized, so an episode read
back from disk (or built by hand) has plan None and is planned afresh;
plan_path is deterministic, so both routes give the same plan.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ContractError
from .mapper import NavMap, init_map, update_map
from .util import atomic_write, read_text, substream, write_csv
from .world import (
    Action,
    CityWorld,
    EpisodeSpec,
    ExpertPath,
    Observation,
    UavState,
    compute_reward,
    distance_to_goal,
    load_episodes,
    plan_path,
    render_observation,
    sample_episode,
    save_episodes,
    step,
)

S_MAX = 12  # max waypoint spacing in forward moves
R_ANCHOR = 3.0  # landmark-to-path snap distance
EPS_WP = 1.5  # waypoint-reached radius in cells


def episode_plan(world: CityWorld, episode: EpisodeSpec) -> ExpertPath:
    """The plan the episode carries from sample_episode, else a fresh one."""
    if episode.plan is not None:
        return episode.plan
    return plan_path(world, episode.start, episode.goal)


def extract_waypoints(path: ExpertPath, world: CityWorld):
    """Corner + landmark-anchored waypoints, spacing-capped, goal last."""
    states = path.states
    n = len(states)
    marked = set()
    for i, act in enumerate(path.actions):
        if act in (Action.TURN_LEFT, Action.TURN_RIGHT):
            marked.add(i)  # cell where the heading change happens
    for lm in world.landmarks:
        best_i, best_d = None, math.inf
        for i, s in enumerate(states):
            d = math.hypot(s[0] - lm.x, s[1] - lm.y)
            if d < best_d:
                best_i, best_d = i, d
        if best_d <= R_ANCHOR:
            marked.add(best_i)
    marked.add(n - 1)
    order = sorted(marked)
    # cap spacing: at most S_MAX forward moves between consecutive marks
    capped = []
    prev = 0
    for m in order:
        cnt = 0
        for j in range(prev, m):
            if path.actions[j] == Action.FORWARD:
                cnt += 1
                if cnt == S_MAX:
                    capped.append(j + 1)
                    cnt = 0
        capped.append(m)
        prev = m
    waypoints = []
    for i in capped:
        cell = (states[i][0], states[i][1])
        if not waypoints or waypoints[-1] != cell:
            waypoints.append(cell)
    goal_cell = (states[-1][0], states[-1][1])
    if waypoints[-1] != goal_cell:
        waypoints.append(goal_cell)
    return waypoints


@dataclass
class DemoStep:
    state: UavState
    expert_action: int
    waypoint: tuple
    k: int
    progress: float
    value: float
    reward: float
    dist: float
    obs: Observation | None = None  # set by load_corpus
    snapshot_id: int | None = None  # index into Demonstration.maps, set by load_corpus


@dataclass
class Demonstration:
    episode: EpisodeSpec
    steps: list
    maps: list  # NavMap snapshots, indexed by DemoStep.snapshot_id; empty until load_corpus


def advance_waypoint(k: int, waypoints, state: UavState, eps: float = EPS_WP) -> int:
    """Index of the first unreached waypoint at or after k."""
    while k < len(waypoints) - 1 and math.hypot(state.x - waypoints[k][0], state.y - waypoints[k][1]) < eps:
        k += 1
    return k


def build_demonstration(world: CityWorld, episode: EpisodeSpec, reward_cfg, gamma: float) -> Demonstration:
    """Replay the expert plan, labeling every step.

    Steps cover the planned actions plus the final stop. Value labels
    are exact discounted suffix sums of the replayed rewards, so the
    one-step Bellman identity holds to float precision. No label reads
    an observation or a map, so the demonstration has neither:
    save_corpus writes its labels, and load_corpus replays them with
    observations and map snapshots.
    """
    path = episode_plan(world, episode)
    waypoints = extract_waypoints(path, world)
    state = episode.start
    actions = list(path.actions) + [Action.STOP]
    t_total = len(actions)
    steps = []
    k = 0
    for i, act in enumerate(actions):
        k = advance_waypoint(k, waypoints, state)
        nxt, blocked, terminal = step(world, state, act)
        if blocked:
            raise ContractError(f"expert action {act.name} blocked at ({state.x},{state.y},z{state.z}) during replay")
        steps.append(
            DemoStep(
                state=state,
                expert_action=int(act),
                waypoint=waypoints[k],
                k=k,
                progress=(i + 1) / t_total,
                value=0.0,
                reward=compute_reward(state, nxt, episode.goal, world, reward_cfg,
                                      waypoint=waypoints[k], stopped=terminal),
                dist=distance_to_goal(state, episode.goal, world.cell_size),
            )
        )
        state = nxt
    acc = 0.0
    for st in reversed(steps):
        acc = st.reward + gamma * acc
        st.value = acc
    return Demonstration(episode=episode, steps=steps, maps=[])


def build_dataset(worlds, n_episodes: int, tiers, master_seed: int, reward_cfg, gamma: float,
                  tier_brackets=None):
    """Tier-stratified, label-only demonstration corpus over one or more worlds.

    Episode i draws from substream (master_seed, "corpus", i), so the
    corpus is independent of construction order. Returns (demos,
    manifest dict).
    """
    tiers = list(tiers)
    stats: dict = {}
    demos = []
    tier_counts = {t: 0 for t in tiers}
    for i in range(n_episodes):
        tier = tiers[i % len(tiers)]
        world = worlds[i % len(worlds)]
        rng = substream(master_seed, "corpus", i)
        ep = sample_episode(world, tier, rng, tiers=tier_brackets, stats=stats)
        demos.append(build_demonstration(world, ep, reward_cfg, gamma))
        tier_counts[tier] += 1
    order = substream(master_seed, "corpus-shuffle").permutation(len(demos))
    demos = [demos[int(i)] for i in order]
    manifest = {
        "master_seed": master_seed,
        "episodes": n_episodes,
        "resampled": stats.get("resampled", 0),
        "tier_counts": tier_counts,
        "world_ids": [w.world_id for w in worlds],
        "gamma": gamma,
    }
    return demos, manifest


# ------------------------------------------------------------------ corpus IO

TRAJ_COLUMNS = ("t", "x", "y", "z", "theta", "action", "k", "w_x", "w_y",
                "g_hat_x", "g_hat_y", "p_hat", "v_hat", "r", "d")
STEP_LOG_COLUMNS = ("split", "tier", "seed", "episode") + TRAJ_COLUMNS


def traj_row(t, state: UavState, action, k, waypoint, g_hat, p_hat, v_hat, r, d) -> list:
    """The TRAJ_COLUMNS cells of one step."""
    return [t, state.x, state.y, state.z, state.theta, action, k, waypoint[0], waypoint[1],
            g_hat[0], g_hat[1], p_hat, v_hat, r, d]


def read_trajectory_log(path):
    """(header, episodes) of a trajectory log; episodes maps name -> rows, in file order.

    A corpus episode (header TRAJ_COLUMNS) is one episode named by its
    file name. An eval step log (header STEP_LOG_COLUMNS) holds many,
    each named split/tier/s<seed>/<episode>. Each row maps column ->
    float, except split and tier, which stay text. An empty file, a log
    without steps, any other header, a row of another width than the
    header, a non-numeric cell, an action that is no Action code or a
    waypoint index k that is not a non-negative integer raises
    ContractError.
    """
    lines = read_text(path).splitlines()
    if len(lines) < 2:
        raise ContractError(f"{path}: empty trajectory log (no header or no steps)")
    header = tuple(lines[0].split(","))
    if header not in (TRAJ_COLUMNS, STEP_LOG_COLUMNS):
        raise ContractError(f"{path}: not a trajectory log (header {header[:4]}...)")
    episodes = {}
    for n, line in enumerate(lines[1:], start=2):
        vals = line.split(",")
        if len(vals) != len(header):
            raise ContractError(f"{path}: line {n} has {len(vals)} cells but the header has {len(header)}")
        try:
            row = {name: v if name in ("split", "tier") else float(v) for name, v in zip(header, vals)}
        except ValueError:
            raise ContractError(f"{path}: line {n} has a non-numeric cell") from None
        if not (row["action"].is_integer() and 0 <= row["action"] < len(Action)):
            raise ContractError(f"{path}: line {n} has action {row['action']:g}, not an Action code")
        if not (row["k"].is_integer() and row["k"] >= 0):
            raise ContractError(f"{path}: line {n} has waypoint index k={row['k']:g}")
        name = os.path.basename(path) if header == TRAJ_COLUMNS else "{}/{}/s{}/{}".format(*vals[:4])
        episodes.setdefault(name, []).append(row)
    return header, episodes


def save_corpus(corpus_dir, demos, manifest: dict):
    """Write the corpus: its episodes, and manifest.txt with its counts and gamma."""
    os.makedirs(corpus_dir, exist_ok=True)
    save_episodes([demo.episode for demo in demos], os.path.join(corpus_dir, "episodes.jsonl"))
    for i, demo in enumerate(demos):
        write_csv(os.path.join(corpus_dir, f"episode_{i:05d}.csv"), TRAJ_COLUMNS,
                  (traj_row(t, s.state, s.expert_action, s.k, s.waypoint, demo.episode.goal,
                            s.progress, s.value, s.reward, s.dist) for t, s in enumerate(demo.steps)))
    lines = [
        "tiernav-corpus 1",
        f"master_seed {manifest['master_seed']}",
        f"episodes {manifest['episodes']}",
        f"resampled {manifest['resampled']}",
        f"gamma {manifest['gamma']!r}",
    ]
    lines += [f"tier {t} {c}" for t, c in sorted(manifest["tier_counts"].items())]
    lines += [f"world {wid}" for wid in manifest["world_ids"]]
    atomic_write(os.path.join(corpus_dir, "manifest.txt"), "\n".join(lines) + "\n")


def load_manifest(corpus_dir) -> dict:
    """Parse manifest.txt; a malformed line raises ContractError naming the file and line."""
    path = os.path.join(corpus_dir, "manifest.txt")
    manifest = {"tier_counts": {}, "world_ids": []}
    lines = read_text(path).splitlines()
    if not lines or not lines[0].startswith("tiernav-corpus"):
        raise ContractError(f"{corpus_dir}: not a corpus directory")
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split()
        try:
            if parts[0] == "tier":
                tier, count = parts[1:]
                manifest["tier_counts"][tier] = int(count)
            elif parts[0] == "world":
                (wid,) = parts[1:]
                manifest["world_ids"].append(wid)
            elif parts[0] == "gamma":
                (gamma,) = parts[1:]
                manifest["gamma"] = float(gamma)
            else:
                key, value = parts
                manifest[key] = int(value)
        except (IndexError, ValueError):
            raise ContractError(f"{path}: line {n} is malformed: {line!r}") from None
    return manifest


def load_corpus(corpus_dir, worlds_by_id, r_prior: float = 12.0, use_prior: bool = True):
    """Rebuild demonstrations by deterministic replay of stored actions.

    The replay renders each step's observation and keeps a snapshot of
    the belief map, built with this landmark prior, whenever the
    waypoint index changes. A row whose logged pose is not the replayed
    state, or whose progress label p_hat, distance d or value label
    v_hat is not the one the replay recomputes, raises ContractError
    naming the file and line. The cells are repr floats, so the
    recomputed labels match exactly.
    """
    manifest = load_manifest(corpus_dir)
    if "gamma" not in manifest:
        raise ContractError(f"{os.path.join(corpus_dir, 'manifest.txt')}: no gamma line")
    index = os.path.join(corpus_dir, "episodes.jsonl")
    episodes = load_episodes(index)
    if len(episodes) != manifest.get("episodes"):
        raise ContractError(f"{index}: {len(episodes)} episodes, manifest.txt says {manifest.get('episodes')}")
    demos = []
    for i, ep in enumerate(episodes):
        world = worlds_by_id.get(ep.world_id)
        if world is None:
            raise ContractError(f"corpus references unknown world {ep.world_id}")
        path = os.path.join(corpus_dir, f"episode_{i:05d}.csv")
        header, episodes = read_trajectory_log(path)
        if header != TRAJ_COLUMNS:
            raise ContractError(f"{path}: not a corpus episode (header {header[:4]}...)")
        (rows,) = episodes.values()
        demos.append(_replay_records(world, ep, rows, path, manifest["gamma"], r_prior, use_prior))
    return demos, manifest


def _check_label(path, n, name, logged, replayed):
    if logged != replayed:
        raise ContractError(f"{path}: line {n} has {name} {logged!r}, the replay gives {replayed!r}")


def _replay_records(world, ep, rows, path, gamma, r_prior, use_prior) -> Demonstration:
    nav = init_map(world, ep, r_prior=r_prior, use_prior=use_prior)
    state = ep.start
    steps = []
    maps = []
    for n, row in enumerate(rows, start=2):
        if (row["x"], row["y"], row["z"], row["theta"]) != (state.x, state.y, state.z, state.theta):
            raise ContractError(f"{path}: line {n} logs a pose other than the replayed state "
                                f"({state.x:g},{state.y:g},z{state.z},heading {state.heading})")
        _check_label(path, n, "p_hat", row["p_hat"], (n - 1) / len(rows))
        _check_label(path, n, "d", row["d"], distance_to_goal(state, ep.goal, world.cell_size))
        act = Action(int(row["action"]))
        k = int(row["k"])
        obs = render_observation(world, state)
        update_map(nav, state, obs)
        if not steps or k != steps[-1].k:
            maps.append(NavMap(grid=nav.grid.copy()))
        nxt, blocked, terminal = step(world, state, act)
        if blocked:
            raise ContractError(f"{path}: line {n} has expert action {act.name}, blocked during corpus replay")
        steps.append(
            DemoStep(
                state=state,
                expert_action=int(act),
                waypoint=(int(row["w_x"]), int(row["w_y"])),
                k=k,
                progress=row["p_hat"],
                value=row["v_hat"],
                reward=row["r"],
                dist=row["d"],
                obs=obs,
                snapshot_id=len(maps) - 1,
            )
        )
        state = nxt
    acc = 0.0
    for n, st in reversed(list(enumerate(steps, start=2))):
        acc = st.reward + gamma * acc
        _check_label(path, n, "v_hat", st.value, acc)
    return Demonstration(episode=ep, steps=steps, maps=maps)
