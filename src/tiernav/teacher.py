"""Expert demonstrator, the one trajectory-log format, and the one step
and episode record.

extract_waypoints turns a teacher plan (world.plan_path) into corner
and landmark-anchored waypoints, spacing-capped, goal last.
build_demonstration is the one labeling loop: it steps a list of moves
(the plan, or a corpus episode's logged actions) through the simulator
and returns a Trajectory of TrajSteps, each labeled with its expert
action, waypoint, progress, reward and exact discounted value. It
renders nothing and builds no map. load_corpus relabels each saved
episode through it and compares every logged cell with the relabeled
one, so a demonstration is labels only, built or loaded; stage-1 data
preparation (training.prepare_stage1_data) renders and maps it under
the learned policy's prior.

A policy's act also returns TrajSteps, and agent.run_episode returns
Trajectories, so a demonstration and an eval episode are one record.
Every trajectory file holds TRAJ_COLUMNS rows (TrajStep.log_row). A
corpus episode is the teacher's trajectory log: its g_hat is the goal,
p_hat the progress label and v_hat the value label. An eval step log
prefixes each row with the episode's split, tier, seed and index
(STEP_LOG_COLUMNS). read_trajectory_log reads both.

An episode is planned once: sample_episode keeps the plan it verified
reachability with on EpisodeSpec.plan, and build_demonstration and
TeacherPolicy reuse it. The plan is not serialized, so an episode read
back from disk (or built by hand) has plan None and is planned afresh;
plan_path is deterministic, so both routes give the same plan.
"""

from __future__ import annotations

import glob
import math
import os
from dataclasses import dataclass

from .errors import ContractError
from .util import read_text, substream, write_csv
from .world import (
    Action,
    CityWorld,
    EpisodeSpec,
    ExpertPath,
    UavState,
    compute_reward,
    distance_to_goal,
    load_episodes,
    plan_path,
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


def advance_waypoint(k: int, waypoints, state: UavState) -> int:
    """Index of the first unreached waypoint at or after k."""
    while k < len(waypoints) - 1 and math.hypot(state.x - waypoints[k][0], state.y - waypoints[k][1]) < EPS_WP:
        k += 1
    return k


def build_demonstration(world: CityWorld, episode: EpisodeSpec, reward_cfg, gamma: float,
                        moves=None) -> Trajectory:
    """Label moves (the episode's plan when None), then the final stop.

    The moves are stepped once; the stepped states and the moves, as an
    ExpertPath, give the waypoints, and each step is a TrajStep with the
    expert action, the waypoint, the goal as goal_hat, the progress and
    value labels as progress_hat and value_hat, the reward and the
    distance. Value labels are exact discounted suffix sums of the
    rewards, so the one-step Bellman identity holds to float precision.
    A blocked move or a stop before the last step raises ContractError
    naming the step. No label reads an observation or a map, so no step
    has feats: save_corpus writes the labels and load_corpus relabels
    them.
    """
    if moves is None:
        moves = episode_plan(world, episode).actions
    actions = list(moves) + [Action.STOP]
    states = [episode.start]
    for i, act in enumerate(actions):
        nxt, blocked, terminal = step(world, states[-1], act)
        if blocked or (terminal and i < len(moves)):
            why = "blocked" if blocked else "before the last step"
            raise ContractError(f"step {i}: expert action {act.name} {why} at {states[-1]}")
        states.append(nxt)
    # the stepped moves as the integer-cell path plan_path gives
    cells = [(int(s.x), int(s.y), s.z, s.heading) for s in states[:-1]]
    waypoints = extract_waypoints(ExpertPath(states=cells, actions=actions[:-1]), world)
    steps = []
    k = 0
    for i, (act, state, nxt) in enumerate(zip(actions, states, states[1:])):
        k = advance_waypoint(k, waypoints, state)
        steps.append(TrajStep(
            t=i, state=state, action=int(act), k=k, waypoint=waypoints[k], goal_hat=episode.goal,
            progress_hat=(i + 1) / len(actions), value_hat=0.0, log_prob=0.0,
            reward=compute_reward(state, nxt, episode.goal, world, reward_cfg, stopped=act == Action.STOP),
            dist=distance_to_goal(state, episode.goal, world.cell_size),
        ))
    acc = 0.0
    for st in reversed(steps):
        acc = st.reward + gamma * acc
        st.value_hat = acc
    return Trajectory(episode=episode, steps=steps, final_state=states[-1], stopped=True)


def build_dataset(worlds, n_episodes: int, tiers, master_seed: int, reward_cfg, gamma: float) -> list:
    """Tier-stratified, label-only demonstration corpus over one or more worlds.

    Episode i takes the (i mod n)-th of the n tiers in the {name: (lo, hi)}
    mapping tiers and draws from substream (master_seed, "corpus", i), so
    the corpus is independent of construction order. Returns the
    demonstrations, shuffled.
    """
    names = list(tiers)
    demos = []
    for i in range(n_episodes):
        world = worlds[i % len(worlds)]
        ep = sample_episode(world, names[i % len(names)], substream(master_seed, "corpus", i), tiers=tiers)
        demos.append(build_demonstration(world, ep, reward_cfg, gamma))
    order = substream(master_seed, "corpus-shuffle").permutation(len(demos))
    return [demos[int(i)] for i in order]


# ------------------------------------------------------------------ corpus IO

TRAJ_COLUMNS = ("t", "x", "y", "z", "theta", "action", "k", "w_x", "w_y",
                "g_hat_x", "g_hat_y", "p_hat", "v_hat", "r", "d")
STEP_LOG_COLUMNS = ("split", "tier", "seed", "episode") + TRAJ_COLUMNS


def traj_row(t, state: UavState, action, k, waypoint, g_hat, p_hat, v_hat, r, d) -> list:
    """The TRAJ_COLUMNS cells of one step."""
    return [t, state.x, state.y, state.z, state.theta, action, k, waypoint[0], waypoint[1],
            g_hat[0], g_hat[1], p_hat, v_hat, r, d]


@dataclass
class TrajStep:
    """One step of an episode: the one record of a policy's step and a
    demonstration's labeled step. A policy's act fills in everything but
    reward and dist, which the runner sets after the move. feats holds
    a rollout step's controller inputs when the rollout asks for them,
    and is None otherwise; a demonstration step never has them."""

    t: int
    state: UavState
    action: int
    k: int
    waypoint: tuple
    goal_hat: tuple
    progress_hat: float
    value_hat: float
    log_prob: float
    reward: float = 0.0
    dist: float = 0.0
    feats: dict | None = None

    def log_row(self) -> list:
        """The step's TRAJ_COLUMNS cells, the one row format of every trajectory log."""
        return traj_row(self.t, self.state, self.action, self.k, self.waypoint, self.goal_hat,
                        self.progress_hat, self.value_hat, self.reward, self.dist)


@dataclass
class Trajectory:
    episode: EpisodeSpec
    steps: list
    final_state: UavState
    stopped: bool  # stop chosen before truncation

    def __len__(self):
        return len(self.steps)


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


def save_corpus(corpus_dir, demos):
    """Write the corpus: episodes.jsonl, and one episode_<i>.csv trajectory log per demonstration."""
    os.makedirs(corpus_dir, exist_ok=True)
    save_episodes([demo.episode for demo in demos], os.path.join(corpus_dir, "episodes.jsonl"))
    for i, demo in enumerate(demos):
        write_csv(os.path.join(corpus_dir, f"episode_{i:05d}.csv"), TRAJ_COLUMNS, (st.log_row() for st in demo.steps))


def load_corpus(corpus_dir, worlds_by_id, reward_cfg, gamma: float) -> list:
    """Rebuild label-only demonstrations, as build_dataset returns them,
    by relabeling their stored actions.

    episodes.jsonl must hold at least one episode and one record per
    episode_*.csv log in the directory, else ContractError names it.
    Each episode goes through build_demonstration on its logged moves
    (every action but the final stop), under reward_cfg and gamma.
    Every cell of every logged row must equal the relabeled one: the
    cells are repr floats, so equal labels match exactly. The first
    difference raises ContractError naming the file, line and column; a
    blocked move or an early stop raises it naming the file and the
    step t (on line t + 2). So a corpus built under other reward.*
    settings or another gamma is refused.
    """
    index = os.path.join(corpus_dir, "episodes.jsonl")
    episodes = load_episodes(index)
    if not episodes:
        raise ContractError(f"{index}: no episodes; a built corpus holds at least one")
    n_logs = len(glob.glob("episode_*.csv", root_dir=corpus_dir))
    if len(episodes) != n_logs:
        raise ContractError(f"{index}: {len(episodes)} episodes, but the corpus holds {n_logs} episode logs")
    demos = []
    for i, ep in enumerate(episodes):
        world = worlds_by_id.get(ep.world_id)
        if world is None:
            raise ContractError(f"{index}: line {i + 1} references unknown world {ep.world_id}")
        path = os.path.join(corpus_dir, f"episode_{i:05d}.csv")
        header, logs = read_trajectory_log(path)
        if header != TRAJ_COLUMNS:
            raise ContractError(f"{path}: not a corpus episode (header {header[:4]}...)")
        (rows,) = logs.values()
        demos.append(_relabel(world, ep, rows, path, reward_cfg, gamma))
    return demos


def _relabel(world, ep, rows, path, reward_cfg, gamma) -> Trajectory:
    """build_demonstration on a logged episode's moves, every logged cell checked against it."""
    try:
        demo = build_demonstration(world, ep, reward_cfg, gamma, [Action(int(row["action"])) for row in rows[:-1]])
    except ContractError as e:
        raise ContractError(f"{path}: {e}") from None
    for n, (row, st) in enumerate(zip(rows, demo.steps), start=2):
        for column, cell in zip(TRAJ_COLUMNS, st.log_row()):
            if row[column] != cell:
                raise ContractError(f"{path}: line {n} has {column} {row[column]!r}, the replay gives {cell!r}")
    return demo
