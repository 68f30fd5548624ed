"""Policy network, tiered controller, and the lockstep episode runner.

The policy fuses four context streams (encoded belief map, observation
patch, normalized pose, goal descriptor embedding) through a small
trunk with five heads: goal, progress, value, waypoint, and action
logits. The action head deliberately sees only the observation, pose,
and active waypoint, so the global map can steer behaviour only
through the waypoints it produces. The controller replans whenever the
active waypoint is reached and caches the encoded map between replans.

run_episode is the one episode loop. It steps up to WIDTH episodes in
lockstep, and one controller tick (tiered_step) serves all live slots
with one batched pass per tier: the macro tier (NavPolicy.macro), whose
rows give the replanning slots their waypoints, then the micro tier
(NavPolicy.micro) on the new waypoint context. Each episode carries its
own sampling generator, so the slot count changes no result beyond the
last bits of a batched network row. A policy's act returns one
teacher.TrajStep per slot, the runner adds its reward and distance
after the move, and each episode ends as a teacher.Trajectory, the
record a corpus demonstration loads as.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ContractError
from .layers import Conv2d, Embedding, Linear, Module
from .mapper import MapEncoder, _pad_odd, encode_map, init_map, update_map
from .teacher import EPS_WP, TrajStep, Trajectory, advance_waypoint, episode_plan, extract_waypoints
from .world import (BANDS, DIRS, TARGET_TAGS, Action, CityWorld, EpisodeSpec, Observation, UavState,
                    compute_reward, distance_to_goal, render_observation, step)


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
    logits: Tensor | None = None  # [B,6], the micro tier's


class NavPolicy(Module):
    """Encoders, fusion trunk, and the five prediction heads, split into
    the macro tier (goal, progress, value, waypoint) and the micro tier
    (action logits); forward_heads runs both."""

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
        x = ad.relu(self.obs_conv1(_pad_odd(Tensor(patches))))
        x = ad.relu(self.obs_conv2(_pad_odd(x)))
        return ad.relu(self.obs_out(ad.global_avg_pool(x)))

    def state_features(self, pose) -> Tensor:
        return self.state_fc2(ad.relu(self.state_fc1(Tensor(pose))))

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

    def macro(self, map_feat, pose, desc_ids, patches):
        """The macro tier: goal, progress, value and waypoint heads on the
        fused context. Returns (heads, obs_f, state_f): heads.logits is None,
        and the patch and pose features are the micro tier's to reuse."""
        obs_f = self.obs_features(patches)
        state_f = self.state_features(pose)
        desc_f = self.desc_features(desc_ids)
        h = self.fuse(map_feat, obs_f, state_f, desc_f)
        goal = self.goal_head(h)
        progress = ad.sigmoid(self.progress_head(h))
        value = self.value_head(h)
        wp_in = ad.concat([h, goal], axis=1) if self.feed_goal_to_waypoint else h
        waypoint = self.waypoint_head(wp_in)
        return HeadOutputs(goal=goal, progress=progress, value=value, waypoint=waypoint), obs_f, state_f

    def micro(self, obs_f: Tensor, state_f: Tensor, wp_feats) -> Tensor:
        """The micro tier: [B,6] action logits from the patch and pose
        features and the egocentric waypoint context, never the map."""
        hidden = ad.relu(self.micro_fc(ad.concat([obs_f, state_f, Tensor(wp_feats)], axis=1)))
        return self.action_head(hidden)

    def forward_heads(self, map_feat, pose, desc_ids, patches, wp_feats) -> HeadOutputs:
        out, obs_f, state_f = self.macro(map_feat, pose, desc_ids, patches)
        out.logits = self.micro(obs_f, state_f, wp_feats)
        return out

    def decode_cells(self, norm) -> np.ndarray:
        """Normalized [0,1]^2 regression -> clamped grid cells."""
        xy = np.asarray(norm, dtype=np.float64) * np.array([self.width, self.height], dtype=np.float64)
        return np.clip(xy, 0.0, [self.width - 1.0, self.height - 1.0])


# ------------------------------------------------------------------ controller


@dataclass
class ControllerState:
    k: int = 0
    waypoint: tuple | None = None
    map_feat: np.ndarray | None = None
    steps_since_replan: int = 0


@dataclass
class Slot:
    """One live episode of the runner: what a policy reads to act on it.

    ctx is the policy's own per-episode state (whatever begin_episode
    returned); rng is the episode's sampling stream.
    """

    world: CityWorld
    episode: EpisodeSpec
    state: UavState
    nav: np.ndarray  # the [4, H, W] belief map
    obs: Observation | None
    ctx: object
    rng: object = None
    index: int = 0  # job order
    steps: list = field(default_factory=list)
    stopped: bool = False


def tiered_step(policy: NeuralPolicy, slots, mode: str, feats: bool = False) -> list:
    """One controller tick for every slot: replan where the waypoint is
    reached, then act. Returns one TrajStep per slot.

    Each slot's ctx is its ControllerState, updated in place. A slot's
    map is encoded exactly when it replans. The macro tier runs once over
    all slots, and each replanning slot takes its row's waypoint (its
    decoded goal when policy.flat); then the micro tier runs once over
    all slots on the new waypoint context.

    Two guards keep the state machine out of degenerate loops the
    demonstrations cannot teach recovery from: actions the observation
    shows to be blocked are masked out of the decode
    (policy.avoid_blocked), and a waypoint that stays unreached for
    policy.replan_patience steps is abandoned for a fresh plan on the
    updated map (0 disables).
    """
    if mode not in ("greedy", "sample"):
        raise ContractError(f"unknown decode mode {mode!r}")
    model = policy.model
    replan = []
    for i, s in enumerate(slots):
        ctrl, state = s.ctx, s.state
        trigger = ctrl.waypoint is None or math.hypot(state.x - ctrl.waypoint[0], state.y - ctrl.waypoint[1]) < EPS_WP
        if policy.replan_patience and ctrl.steps_since_replan >= policy.replan_patience:
            trigger = True
        if trigger:
            ctrl.map_feat = encode_map(s.nav, model.map_encoder)
            replan.append(i)
    maps = np.array([s.ctx.map_feat for s in slots])
    poses = np.array([pose_features(s.state, model.width, model.height, model.z_max) for s in slots])
    ids = np.array([descriptor_ids(s.episode.descriptor) for s in slots])
    patches = np.array([s.obs.patch for s in slots])
    with ad.no_grad():
        out, obs_f, state_f = model.macro(maps, poses, ids, patches)
        goal_cells = model.decode_cells(out.goal.data)
        wp_cells = goal_cells if policy.flat else model.decode_cells(out.waypoint.data)
        for i in replan:
            ctrl = slots[i].ctx
            ctrl.waypoint = (float(wp_cells[i, 0]), float(wp_cells[i, 1]))
            ctrl.k += 1
            ctrl.steps_since_replan = 0
        wps = np.array([waypoint_context(s.state, s.ctx.waypoint, model.width, model.height) for s in slots])
        logits = model.micro(obs_f, state_f, wps).data
    picks = []
    for i, s in enumerate(slots):
        ctrl = s.ctx
        ctrl.steps_since_replan += 1
        mask = action_mask(s.world, s.state, s.obs) if policy.avoid_blocked else np.ones(6, dtype=bool)
        log_probs = masked_log_softmax(logits[i], mask)
        if mode == "greedy":
            action = int(np.argmax(log_probs))
        else:
            probs = np.exp(log_probs)
            probs /= probs.sum()
            action = int(s.rng.choice(6, p=probs))
        rec = TrajStep(t=len(s.steps), state=s.state, action=action, k=ctrl.k, waypoint=ctrl.waypoint,
                       goal_hat=(float(goal_cells[i, 0]), float(goal_cells[i, 1])),
                       progress_hat=float(out.progress.data[i, 0]), value_hat=float(out.value.data[i, 0]),
                       log_prob=float(log_probs[action]))
        if feats:
            rec.feats = {"patch": s.obs.patch, "pose": poses[i], "desc_ids": ids[i],
                         "map_feat": ctrl.map_feat, "wp_feats": wps[i], "mask": mask}
        picks.append(rec)
    return picks


# -------------------------------------------------------------------- policies
#
# A policy's r_prior is the landmark-prior radius of the belief maps the
# runner builds for it, or None for no prior. Its begin_episode(world,
# episode) returns its per-episode state, which the runner keeps as
# Slot.ctx; act(slots, mode, feats) returns one TrajStep per live slot,
# with its t, state and action, in one call per tick; the runner sets its
# reward and dist after the move.


class NeuralPolicy:
    """Tiered (or flat) controller around a NavPolicy; the one policy that reads the belief map.

    flat, avoid_blocked and replan_patience are the settings tiered_step
    reads on every tick.
    """

    def __init__(self, model: NavPolicy, flat: bool = False, avoid_blocked: bool = True,
                 replan_patience: int = 16, r_prior: float | None = 12.0):
        self.model = model
        self.flat = flat
        self.r_prior = r_prior
        self.avoid_blocked = avoid_blocked
        self.replan_patience = replan_patience

    def begin_episode(self, world: CityWorld, episode: EpisodeSpec) -> ControllerState:
        return ControllerState()

    def act(self, slots, mode, feats=False):
        return tiered_step(self, slots, mode, feats)


@dataclass
class TeacherEpisode:
    actions: list
    waypoints: list
    i: int = 0
    k: int = 0


class TeacherPolicy:
    """Replays the planner's action sequence; the evaluation oracle."""

    r_prior = None

    def begin_episode(self, world: CityWorld, episode: EpisodeSpec) -> TeacherEpisode:
        path = episode_plan(world, episode)
        return TeacherEpisode(actions=list(path.actions) + [Action.STOP],
                              waypoints=extract_waypoints(path, world))

    def act(self, slots, mode, feats=False):
        picks = []
        for s in slots:
            ep = s.ctx
            ep.k = advance_waypoint(ep.k, ep.waypoints, s.state)
            action = ep.actions[ep.i] if ep.i < len(ep.actions) else Action.STOP
            ep.i += 1
            gx, gy = s.episode.goal
            picks.append(TrajStep(t=len(s.steps), state=s.state, action=int(action), k=ep.k,
                                  waypoint=ep.waypoints[ep.k], goal_hat=(float(gx), float(gy)),
                                  progress_hat=min(ep.i / len(ep.actions), 1.0), value_hat=0.0, log_prob=0.0))
        return picks


class RandomPolicy:
    """Uniform over the six actions; the no-skill baseline."""

    r_prior = None

    def begin_episode(self, world, episode):
        return None

    def act(self, slots, mode, feats=False):
        picks = []
        for s in slots:
            gx, gy = s.episode.goal
            picks.append(TrajStep(t=len(s.steps), state=s.state, action=int(s.rng.integers(0, 6)), k=0,
                                  waypoint=(float(gx), float(gy)), goal_hat=(math.nan, math.nan),
                                  progress_hat=math.nan, value_hat=math.nan, log_prob=-math.log(6.0)))
        return picks


# --------------------------------------------------------------------- runner

WIDTH = 8  # episodes stepped in lockstep; a module constant, not a config key
# Steps of room before a rollout cut that each live slot keeps from a new
# episode. A start costs an A* plan and a map encode and is wasted if the
# episode begins past the cut, while a held-back start costs only a few
# thinner ticks; holding a start back changes no result.
SLOT_ROOM = 12


def run_episode(
    policy,
    jobs,
    mode: str = "greedy",
    reward_cfg=None,
    feats: bool = False,
    n_steps=None,
) -> list:
    """Step episodes in lockstep, WIDTH at a time; one Trajectory per job,
    in job order.

    jobs yields (world, episode, rng) and is read lazily: a slot freed by
    a finished episode takes the next job, so the slots that share a tick
    depend only on the job order. A slot's map starts with the policy's
    r_prior. Each tick renders and maps every live slot, then asks the
    policy for all their actions at once, then steps each world. An
    episode ends on stop or at its step budget.

    With n_steps, the trajectories are read as one stream of steps cut at
    n_steps (rollout collection). A job starts only while the steps taken
    so far leave room before the cut, SLOT_ROOM steps for each live slot;
    once no slot is live, any room will do, so every job that reaches the
    cut is played. A slot stops one step past the furthest cut it can
    still reach (each earlier live job takes at least one more step), so
    the step at the cut state is recorded, and with it the value that
    bootstraps the cut tail.
    feats keeps each step's network inputs (TrajStep.feats).
    """
    jobs = iter(jobs)
    taken = []  # steps so far of every started job, in job order
    trajs = []
    live = []
    while True:
        while len(live) < WIDTH and (n_steps is None or sum(taken) + SLOT_ROOM * len(live) < n_steps):
            job = next(jobs, None)
            if job is None:
                break
            world, episode, rng = job
            nav = init_map(world, episode, policy.r_prior)
            live.append(Slot(world=world, episode=episode, state=episode.start, nav=nav, obs=None,
                             ctx=policy.begin_episode(world, episode), rng=rng, index=len(trajs)))
            taken.append(0)
            trajs.append(None)
        if not live:
            return trajs
        for s in live:
            s.obs = render_observation(s.world, s.state)
            update_map(s.nav, s.state, s.obs)
        for s, st in zip(live, policy.act(live, mode, feats)):
            nxt, _, s.stopped = step(s.world, s.state, Action(st.action))
            if reward_cfg is not None:
                st.reward = compute_reward(s.state, nxt, s.episode.goal, s.world, reward_cfg,
                                           waypoint=st.waypoint, stopped=s.stopped)
            st.dist = distance_to_goal(s.state, s.episode.goal, s.world.cell_size)
            s.steps.append(st)
            s.state = nxt
            taken[s.index] += 1
        running = []
        for s in live:
            cap = int(s.episode.max_steps)
            if n_steps is not None:  # running holds the earlier jobs that step again
                cap = min(cap, n_steps - sum(taken[: s.index]) - len(running) + 1)
            if s.stopped or len(s.steps) >= cap:
                trajs[s.index] = Trajectory(episode=s.episode, steps=s.steps, final_state=s.state,
                                            stopped=s.stopped)
            else:
                running.append(s)
        live = running


# ----------------------------------------------------------- policy checkpoint


def policy_arrays(model: NavPolicy) -> dict:
    arrays = {name: t.data for name, t, _ in model.named_params()}
    for name, arr in model.named_state():
        arrays[name] = arr
    return arrays


def save_policy(path, model: NavPolicy, meta=None):
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
        raise ContractError(f"checkpoint {path} mismatch: missing {missing}, unexpected {extra}")
    for name, arr in own.items():
        saved = arrays[name]
        if saved.shape != arr.shape:
            raise ContractError(f"checkpoint {path} array {name}: shape {saved.shape} vs model {arr.shape}")
        arr[...] = saved
    return meta
