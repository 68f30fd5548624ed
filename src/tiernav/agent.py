"""Policy network, tiered controller, and the episode runner.

The policy fuses four context streams (encoded belief map, observation
patch, normalized pose, goal descriptor embedding) through a small
trunk with five heads: goal, progress, value, waypoint, and action
logits. The action head deliberately sees only the observation, pose,
and active waypoint, so the global map can steer behaviour only
through the waypoints it produces. The controller replans whenever the
active waypoint is reached and caches the encoded map between replans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .layers import BatchNorm2d, Conv2d, Embedding, Linear, Module
from .mapper import MapEncoder, _pad_odd, encode_map, init_map, update_map
from .teacher import EPS_WP, TRAJ_COLUMNS, advance_waypoint, episode_plan, extract_waypoints
from .training import compute_reward
from .util import write_csv
from .world import BANDS, DIRS, TARGET_TAGS, Action, CityWorld, EpisodeSpec, UavState, render_observation, step


def pose_features(state: UavState, width: int, height: int, z_max: int) -> np.ndarray:
    """(x/W, y/H, z/z_max, one-hot heading), length 7."""
    f = np.zeros(7)
    f[0] = state.x / width
    f[1] = state.y / height
    f[2] = state.z / z_max
    f[3 + state.heading] = 1.0
    return f


def descriptor_ids(descriptor) -> np.ndarray:
    return np.array(
        [descriptor.landmark_id, descriptor.sector, BANDS.index(descriptor.band), descriptor.tag],
        dtype=np.int64,
    )


def waypoint_context(state: UavState, waypoint, width: int, height: int) -> np.ndarray:
    """Egocentric waypoint features: body-frame offset, range, unit bearing."""
    dx = waypoint[0] - state.x
    dy = waypoint[1] - state.y
    fx, fy = DIRS[state.heading]
    lx, ly = DIRS[(state.heading + 1) % 4]
    fwd = dx * fx + dy * fy
    left = dx * lx + dy * ly
    dist = math.hypot(dx, dy)
    scale = float(max(width, height))
    if dist > 1e-9:
        unit_f, unit_l = fwd / dist, left / dist
    else:
        unit_f = unit_l = 0.0
    return np.array([fwd / scale, left / scale, dist / scale, unit_f, unit_l])


MASK_OFF = -1e30  # additive logit for disallowed actions; exp underflows to exactly 0


def action_mask(world: CityWorld, state: UavState, obs) -> np.ndarray:
    """Per-action legality as visible from the rendered patch.

    Mirrors the transition rules using only the observation and the
    vehicle's altitude limits, never the hidden height field: the patch
    encodes relative height exactly for integer altitudes, so blocked
    forward cells, the ceiling, and the roof below are all decidable.
    Cells outside the patch or the visibility disc count as blocked.
    Turns and stop are always legal, so the mask never empties.
    """
    m = np.ones(6, dtype=bool)
    if state.z + 1 > world.z_max:
        m[Action.GO_UP] = False
    half = obs.patch.shape[1] // 2
    zm = world.z_max
    hf_here = round(obs.patch[0, half, half] * 2.0 * zm + state.z - zm)
    if state.z - 1 < world.z_min or state.z - 1 <= hf_here:
        m[Action.GO_DOWN] = False
    dx, dy = DIRS[state.heading]
    i, j = half + dy, half + dx
    if half < 1 or obs.patch[2, i, j] > 0.0 or obs.patch[0, i, j] >= 0.5 - 1e-9:
        m[Action.FORWARD] = False
    return m


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Log-softmax over the allowed subset; disallowed entries go to -inf-ish.

    Same operation order as the tape's log_softmax so a stored sample
    log-prob and an update-time recompute agree bit for bit.
    """
    shifted = np.where(mask, logits, MASK_OFF)
    z = shifted - shifted.max()
    return z - np.log(np.exp(z).sum())


@dataclass
class HeadOutputs:
    goal: Tensor  # [B,2] normalized coordinates
    progress: Tensor  # [B,1] sigmoid-bounded
    value: Tensor  # [B,1]
    waypoint: Tensor  # [B,2] normalized coordinates
    logits: Tensor  # [B,6]


class NavPolicy(Module):
    """Encoders, fusion trunk, and the five prediction heads."""

    def __init__(
        self,
        rng: np.random.Generator,
        width: int,
        height: int,
        z_max: int,
        n_landmarks: int,
        patch_side: int,
        enc_widths=(8, 16),
        d_map: int = 64,
        d_obs: int = 32,
        d_state: int = 32,
        d_desc: int = 32,
        trunk_hidden: int = 128,
        micro_hidden: int = 64,
        feed_goal_to_waypoint: bool = True,
    ):
        self.width = width
        self.height = height
        self.z_max = z_max
        self.patch_side = patch_side
        self.feed_goal_to_waypoint = feed_goal_to_waypoint
        self.map_encoder = MapEncoder(rng, c_in=4, widths=tuple(enc_widths), d_out=d_map)
        self.obs_conv1 = Conv2d(rng, 3, 8, 3, stride=2, pad=1)
        self.obs_conv2 = Conv2d(rng, 8, 16, 3, stride=2, pad=1)
        self.obs_out = Linear(rng, 16, d_obs)
        self.state_fc1 = Linear(rng, 7, d_state)
        self.state_fc2 = Linear(rng, d_state, d_state)
        self.emb_landmark = Embedding(rng, n_landmarks, 8)
        self.emb_sector = Embedding(rng, 8, 4)
        self.emb_band = Embedding(rng, len(BANDS), 4)
        self.emb_tag = Embedding(rng, len(TARGET_TAGS), 4)
        self.desc_out = Linear(rng, 8 + 3 * 4, d_desc)
        self.trunk = Linear(rng, d_map + d_obs + d_state + d_desc, trunk_hidden)
        self.goal_head = Linear(rng, trunk_hidden, 2)
        self.progress_head = Linear(rng, trunk_hidden, 1)
        self.value_head = Linear(rng, trunk_hidden, 1)
        wp_in = trunk_hidden + (2 if feed_goal_to_waypoint else 0)
        self.waypoint_head = Linear(rng, wp_in, 2)
        self.micro_fc = Linear(rng, d_obs + d_state + 5, micro_hidden)
        self.action_head = Linear(rng, micro_hidden, 6)

    def obs_features(self, patches) -> Tensor:
        x = patches if isinstance(patches, Tensor) else Tensor(np.asarray(patches, dtype=np.float64))
        x = ad.relu(self.obs_conv1(_pad_odd(x)))
        x = ad.relu(self.obs_conv2(_pad_odd(x)))
        return ad.relu(self.obs_out(ad.global_avg_pool(x)))

    def state_features(self, pose) -> Tensor:
        x = pose if isinstance(pose, Tensor) else Tensor(np.asarray(pose, dtype=np.float64))
        return self.state_fc2(ad.relu(self.state_fc1(x)))

    def desc_features(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        cat = ad.concat(
            [
                self.emb_landmark(ids[:, 0]),
                self.emb_sector(ids[:, 1]),
                self.emb_band(ids[:, 2]),
                self.emb_tag(ids[:, 3]),
            ],
            axis=1,
        )
        return self.desc_out(cat)

    def fuse(self, map_feat, obs_f: Tensor, state_f: Tensor, desc_f: Tensor) -> Tensor:
        m = map_feat if isinstance(map_feat, Tensor) else Tensor(np.asarray(map_feat, dtype=np.float64))
        return ad.relu(self.trunk(ad.concat([m, obs_f, state_f, desc_f], axis=1)))

    def forward_heads(self, map_feat, pose, desc_ids, patches, wp_feats) -> HeadOutputs:
        obs_f = self.obs_features(patches)
        state_f = self.state_features(pose)
        desc_f = self.desc_features(desc_ids)
        h = self.fuse(map_feat, obs_f, state_f, desc_f)
        goal = self.goal_head(h)
        progress = ad.sigmoid(self.progress_head(h))
        value = self.value_head(h)
        wp_in = ad.concat([h, goal], axis=1) if self.feed_goal_to_waypoint else h
        waypoint = self.waypoint_head(wp_in)
        wp = wp_feats if isinstance(wp_feats, Tensor) else Tensor(np.asarray(wp_feats, dtype=np.float64))
        micro = ad.relu(self.micro_fc(ad.concat([obs_f, state_f, wp], axis=1)))
        logits = self.action_head(micro)
        return HeadOutputs(goal=goal, progress=progress, value=value, waypoint=waypoint, logits=logits)

    def decode_cells(self, norm) -> np.ndarray:
        """Normalized [0,1]^2 regression -> clamped grid cells."""
        xy = np.asarray(norm, dtype=np.float64) * np.array([self.width, self.height], dtype=np.float64)
        return np.clip(xy, 0.0, [self.width - 1.0, self.height - 1.0])

    def bn_mode(self) -> str:
        for m in self.modules():
            if isinstance(m, BatchNorm2d) and m.num_batches[0] == 0:
                return "train"
        return "infer"


# ------------------------------------------------------------------ controller


@dataclass
class ControllerState:
    k: int = 0
    waypoint: tuple | None = None
    replan_count: int = 0
    done: bool = False
    map_feat: np.ndarray | None = None
    steps_since_replan: int = 0


@dataclass
class StepRecord:
    k: int
    waypoint: tuple
    goal_hat: tuple
    progress_hat: float
    value_hat: float
    log_prob: float
    feats: dict | None = None


def macro_plan(model: NavPolicy, map_feat, state, descriptor, obs, flat: bool = False):
    """One waypoint from the fused context, clamped into the grid.

    flat mode bypasses the waypoint head and follows the decoded goal
    regression directly (the tiered-vs-flat ablation axis).
    """
    pose = pose_features(state, model.width, model.height, model.z_max)[None]
    ids = descriptor_ids(descriptor)[None]
    with ad.no_grad():
        out = model.forward_heads(np.asarray(map_feat)[None], pose, ids, obs.patch[None], np.zeros((1, 5)))
    src = out.goal.data[0] if flat else out.waypoint.data[0]
    cell = model.decode_cells(src)
    return (float(cell[0]), float(cell[1]))


def tiered_step(
    ctrl: ControllerState,
    model: NavPolicy,
    world: CityWorld,
    state: UavState,
    nav,
    obs,
    descriptor,
    mode: str,
    rng=None,
    flat: bool = False,
    eps_wp: float = EPS_WP,
    keep_feats: bool = False,
    avoid_blocked: bool = True,
    replan_patience: int = 16,
):
    """One controller tick: replan if the waypoint is reached, then act.

    Two guards keep the state machine out of degenerate loops the
    demonstrations cannot teach recovery from: actions the observation
    shows to be blocked are masked out of the decode (avoid_blocked),
    and a waypoint that stays unreached for replan_patience steps is
    abandoned for a fresh plan on the updated map (0 disables).
    """
    if mode not in ("greedy", "sample"):
        raise ContractError(f"unknown decode mode {mode!r}")
    trigger = ctrl.waypoint is None or math.hypot(state.x - ctrl.waypoint[0], state.y - ctrl.waypoint[1]) < eps_wp
    if replan_patience and ctrl.steps_since_replan >= replan_patience:
        trigger = True
    if trigger or ctrl.map_feat is None:
        bn = model.bn_mode()
        ctrl.map_feat = encode_map(nav, model.map_encoder, mode=bn).feature
    if trigger:
        ctrl.waypoint = macro_plan(model, ctrl.map_feat, state, descriptor, obs, flat=flat)
        ctrl.k += 1
        ctrl.replan_count += 1
        ctrl.steps_since_replan = 0
    ctrl.steps_since_replan += 1
    pose = pose_features(state, model.width, model.height, model.z_max)
    ids = descriptor_ids(descriptor)
    wp_feats = waypoint_context(state, ctrl.waypoint, model.width, model.height)
    mask = action_mask(world, state, obs) if avoid_blocked else np.ones(6, dtype=bool)
    with ad.no_grad():
        out = model.forward_heads(ctrl.map_feat[None], pose[None], ids[None], obs.patch[None], wp_feats[None])
    log_probs = masked_log_softmax(out.logits.data[0], mask)
    if mode == "greedy":
        action = int(np.argmax(log_probs))
    else:
        probs = np.exp(log_probs)
        probs /= probs.sum()
        action = int(rng.choice(6, p=probs))
    if action == int(Action.STOP):
        ctrl.done = True
    goal_cells = model.decode_cells(out.goal.data[0])
    feats = None
    if keep_feats:
        feats = {
            "patch": obs.patch.copy(),
            "pose": pose,
            "desc_ids": ids,
            "map_feat": ctrl.map_feat.copy(),
            "wp_feats": wp_feats,
            "mask": mask,
        }
    rec = StepRecord(
        k=ctrl.k,
        waypoint=ctrl.waypoint,
        goal_hat=(float(goal_cells[0]), float(goal_cells[1])),
        progress_hat=float(out.progress.data[0, 0]),
        value_hat=float(out.value.data[0, 0]),
        log_prob=float(log_probs[action]),
        feats=feats,
    )
    return action, ctrl, rec


# -------------------------------------------------------------------- policies


class NeuralPolicy:
    """Tiered (or flat) controller around a NavPolicy."""

    def __init__(self, model: NavPolicy, flat: bool = False, eps_wp: float = EPS_WP,
                 keep_feats: bool = False, avoid_blocked: bool = True, replan_patience: int = 16):
        self.model = model
        self.flat = flat
        self.eps_wp = eps_wp
        self.keep_feats = keep_feats
        self.avoid_blocked = avoid_blocked
        self.replan_patience = replan_patience
        self.ctrl = None
        self._descriptor = None

    def begin_episode(self, world: CityWorld, episode: EpisodeSpec):
        self.ctrl = ControllerState()
        self._descriptor = episode.descriptor

    def act(self, world, state, nav, obs, mode, rng):
        action, self.ctrl, rec = tiered_step(
            self.ctrl, self.model, world, state, nav, obs, self._descriptor, mode, rng,
            flat=self.flat, eps_wp=self.eps_wp, keep_feats=self.keep_feats,
            avoid_blocked=self.avoid_blocked, replan_patience=self.replan_patience,
        )
        return action, rec


class TeacherPolicy:
    """Replays the planner's action sequence; the evaluation oracle."""

    def begin_episode(self, world: CityWorld, episode: EpisodeSpec):
        path = episode_plan(world, episode)
        self.actions = list(path.actions) + [Action.STOP]
        self.waypoints = extract_waypoints(path, world)
        self.goal = episode.goal
        self.i = 0
        self.k = 0

    def act(self, world, state, nav, obs, mode, rng):
        self.k = advance_waypoint(self.k, self.waypoints, state)
        action = self.actions[self.i] if self.i < len(self.actions) else Action.STOP
        self.i += 1
        rec = StepRecord(
            k=self.k,
            waypoint=self.waypoints[self.k],
            goal_hat=(float(self.goal[0]), float(self.goal[1])),
            progress_hat=min(self.i / len(self.actions), 1.0),
            value_hat=0.0,
            log_prob=0.0,
        )
        return int(action), rec


class RandomPolicy:
    """Uniform over the six actions; the no-skill baseline."""

    def begin_episode(self, world, episode):
        self.goal = episode.goal

    def act(self, world, state, nav, obs, mode, rng):
        action = int(rng.integers(0, 6))
        rec = StepRecord(
            k=0,
            waypoint=(float(self.goal[0]), float(self.goal[1])),
            goal_hat=(math.nan, math.nan),
            progress_hat=math.nan,
            value_hat=math.nan,
            log_prob=-math.log(6.0),
        )
        return action, rec


# --------------------------------------------------------------------- runner


@dataclass
class TrajStep:
    t: int
    state: UavState
    action: int
    k: int
    waypoint: tuple
    goal_hat: tuple
    progress_hat: float
    value_hat: float
    log_prob: float
    reward: float
    dist: float
    feats: dict | None = None

    def log_row(self) -> list:
        """The step's TRAJ_COLUMNS cells, the one row format of every trajectory log."""
        return [self.t, self.state.x, self.state.y, self.state.z, self.state.theta, self.action, self.k,
                self.waypoint[0], self.waypoint[1], self.goal_hat[0], self.goal_hat[1],
                self.progress_hat, self.value_hat, self.reward, self.dist]


@dataclass
class Trajectory:
    episode: EpisodeSpec
    steps: list
    final_state: UavState
    stopped: bool  # stop chosen before truncation
    truncated: bool

    def __len__(self):
        return len(self.steps)


def run_episode(
    policy,
    world: CityWorld,
    episode: EpisodeSpec,
    mode: str = "greedy",
    rng=None,
    reward_cfg=None,
    r_prior: float = 12.0,
    use_prior: bool = True,
    max_steps=None,
) -> Trajectory:
    """render -> update_map -> act -> step until stop or the step cap."""
    nav = init_map(world, episode, r_prior=r_prior, use_prior=use_prior)
    state = episode.start
    policy.begin_episode(world, episode)
    limit = int(max_steps if max_steps is not None else episode.max_steps)
    steps = []
    stopped = False
    for t in range(limit):
        obs = render_observation(world, state)
        update_map(nav, state, obs)
        action, rec = policy.act(world, state, nav, obs, mode, rng)
        nxt, _, terminal = step(world, state, Action(action))
        r = 0.0
        if reward_cfg is not None:
            r = compute_reward(state, nxt, episode.goal, world, reward_cfg,
                               waypoint=rec.waypoint, stopped=terminal)
        d = math.hypot(state.x - episode.goal[0], state.y - episode.goal[1]) * world.cell_size
        steps.append(
            TrajStep(
                t=t, state=state, action=int(action), k=rec.k, waypoint=rec.waypoint,
                goal_hat=rec.goal_hat, progress_hat=rec.progress_hat,
                value_hat=rec.value_hat, log_prob=rec.log_prob,
                reward=r, dist=d, feats=rec.feats,
            )
        )
        state = nxt
        if terminal:
            stopped = True
            break
    return Trajectory(episode=episode, steps=steps, final_state=state,
                      stopped=stopped, truncated=not stopped)


# --------------------------------------------------------------- trajectory IO


def write_trajectory_log(path, traj: Trajectory):
    write_csv(path, TRAJ_COLUMNS, (s.log_row() for s in traj.steps))


# ----------------------------------------------------------- policy checkpoint


def policy_arrays(model: NavPolicy) -> dict:
    arrays = {name: t.data for name, t, _ in model.named_params()}
    for name, arr in model.named_state():
        arrays[name] = arr
    return arrays


def save_policy(path, model: NavPolicy, meta=None):
    from .checkpoint import save_checkpoint

    base = {
        "kind": "policy",
        "width": str(model.width),
        "height": str(model.height),
        "z_max": str(model.z_max),
        "patch_side": str(model.patch_side),
    }
    if meta:
        base.update(meta)
    save_checkpoint(path, policy_arrays(model), base)


def load_policy_into(model: NavPolicy, path) -> dict:
    """Copy a saved parameter set into an already-built model, in place."""
    from .checkpoint import load_checkpoint

    arrays, meta = load_checkpoint(path)
    # the map encoder takes any map size, so the array shapes alone
    # would not catch a policy trained for another world geometry
    for key in ("width", "height", "z_max", "patch_side"):
        if meta.get(key) != str(getattr(model, key)):
            raise ContractError(
                f"checkpoint {path} was trained with {key}={meta.get(key)}, the model has {getattr(model, key)}"
            )
    own = policy_arrays(model)
    if set(arrays) != set(own):
        missing = sorted(set(own) - set(arrays))[:3]
        extra = sorted(set(arrays) - set(own))[:3]
        raise ContractError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
    for name, arr in own.items():
        saved = arrays[name]
        if saved.shape != arr.shape:
            raise ContractError(f"checkpoint array {name}: shape {saved.shape} vs model {arr.shape}")
        arr[...] = saved
    return meta
