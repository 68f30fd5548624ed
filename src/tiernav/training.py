"""Advantage estimation, the loss family, and the two-stage trainers
(imitation, then clipped policy-gradient blending).

One imitation loss serves both stages: imitation_loss regresses
goal/progress/value/waypoint/action labels from teacher demonstrations.
Stage 1 minimizes it alone; stage 2 runs PPO on collected rollouts and
minimizes imitation_loss on a fresh expert batch plus lambda_rl times
the PPO loss. PAPER.md does not define the stage-2 imitation term; this
reading follows demonstration-augmented policy gradient (Rajeswaran et
al., arXiv:1709.10087; Nair et al., arXiv:1709.10089).

Rollout episodes draw their tier from PPOConfig.tiers, a resolved
{name: (lo, hi)} tier mapping like every episode source's.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .agent import (MASK_OFF, descriptor_ids, policy_arrays, pose_features, run_episode, save_policy,
                    waypoint_context)
from .autodiff import Tensor
from .errors import ContractError, NumericsError
from .evaluation import episode_metrics
from .layers import Module
from .mapper import encode_map, init_map, update_map
from .optim import AdamW, clip_grad_norm
from .util import substream, write_csv
from .world import TIERS, RewardConfig, render_observation, sample_episode


@dataclass
class PPOConfig:
    gamma: float = 0.99
    lambda_gae: float = 0.95
    eps_clip: float = 0.2
    lambda_rl: float = 0.2
    rollout_steps: int = 1024
    epochs_per_update: int = 4
    minibatch: int = 64
    lr: float = 3e-5
    entropy_weight: float = 0.01
    value_weight: float = 0.5
    max_updates: int = 30
    max_grad_norm: float = 5.0
    # rollout episode tiers, {name: (lo, hi)} in draw order
    tiers: dict = field(default_factory=lambda: {t: TIERS[t] for t in ("easy", "medium")})
    expert_batch: int = 32
    checkpoint_every: int = 0  # 0 writes no per-update checkpoints


@dataclass
class Rollout:
    """Flat arrays over T collected steps; feature context is whatever
    the policy needs to recompute log-probs and values during updates."""

    actions: np.ndarray
    log_probs_old: np.ndarray
    values_old: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    bootstrap_value: float = 0.0
    obs: np.ndarray | None = None  # [T,3,P,P]
    state_feats: np.ndarray | None = None
    desc_feats: np.ndarray | None = None
    map_feats: np.ndarray | None = None
    wp_feats: np.ndarray | None = None
    masks: np.ndarray | None = None  # [T,6] action legality at collection time
    episode_returns: list = field(default_factory=list)

    def __len__(self):
        return len(self.rewards)


def compute_gae(rollout: Rollout, gamma: float, lam: float):
    """Raw GAE advantages and value targets (targets = adv + V_old).

    Episode boundaries come from done flags; the final segment, if
    truncated, bootstraps from rollout.bootstrap_value. Normalization
    happens per update batch in the trainer, not here.
    """
    r = np.asarray(rollout.rewards, dtype=np.float64)
    v = np.asarray(rollout.values_old, dtype=np.float64)
    done = np.asarray(rollout.dones, dtype=bool)
    if not (r.shape == v.shape == done.shape):
        raise ContractError(f"rollout arrays disagree: rewards {r.shape}, values {v.shape}, dones {done.shape}")
    t_max = r.size
    adv = np.zeros(t_max)
    last = 0.0
    for t in range(t_max - 1, -1, -1):
        if done[t]:
            next_v = 0.0
            last = 0.0
        else:
            next_v = v[t + 1] if t + 1 < t_max else float(rollout.bootstrap_value)
        delta = r[t] + gamma * next_v - v[t]
        last = delta + gamma * lam * last
        adv[t] = last
    return adv, adv + v


def ppo_clip_objective(log_prob_new: Tensor, log_prob_old, advantages, eps_clip: float):
    """Per-sample clipped surrogate min(r*A, clip(r,1-e,1+e)*A).

    The old log-probs and advantages are constant arrays. The training
    loss is the negated batch mean of this objective.
    """
    adv = Tensor(advantages)
    ratio = ad.exp(ad.sub(log_prob_new, Tensor(log_prob_old)))
    surr1 = ad.mul(ratio, adv)
    surr2 = ad.mul(ad.clip_value(ratio, 1.0 - eps_clip, 1.0 + eps_clip), adv)
    return ad.minimum(surr1, surr2)


def il_loss(goal_pred: Tensor, goal_true, progress_pred: Tensor, progress_true):
    """MSE(goal) + MSE(progress), each a mean over batch and dims."""
    return ad.add(ad.mse(goal_pred, Tensor(goal_true)), ad.mse(progress_pred, Tensor(progress_true)))


def value_loss(value_pred: Tensor, value_true):
    return ad.mse(value_pred, Tensor(value_true))


def ppo_minibatch_loss(lp_all, value, actions, lp_old, adv, targets, eps_clip: float,
                       value_weight: float, entropy_weight: float):
    """PPO loss of one minibatch: clipped surrogate, value MSE, entropy bonus.

    lp_all is the [B, A] action log-probability tensor and value the
    [B, 1] critic output; actions, old log-probs, advantages and value
    targets are the minibatch's [B] constants. Returns the loss, the mean
    policy entropy (a Tensor) and the probability ratios (an array). The
    tape nodes are built in one fixed order (objective, value loss,
    entropy, blend), so every caller sums gradients the same way.
    """
    lp_new = ad.pick(lp_all, actions)
    obj = ppo_clip_objective(lp_new, lp_old, adv, eps_clip)
    l_v = value_loss(value, targets[:, None])
    ent = ad.neg(ad.scale(ad.sum_all(ad.mul(ad.exp(lp_all), lp_all)), 1.0 / len(actions)))
    loss = ad.add(ad.neg(ad.mean_all(obj)),
                  ad.sub(ad.scale(l_v, value_weight), ad.scale(ent, entropy_weight)))
    return loss, ent, np.exp(lp_new.data - lp_old)


# ------------------------------------------------------------- curve files

IMITATION_TERMS = ("L_IL", "L_V", "L_BC", "L_WP")  # imitation_loss's unweighted terms
RL_CURVE_COLUMNS = ("update", *IMITATION_TERMS, "L_RL", "L_total", "entropy",
                    "clip_fraction", "mean_return", "probe_SR")
IL_CURVE_COLUMNS = ("epoch", *IMITATION_TERMS, "L_total", "bc_acc")


def write_curve(path, rows, columns):
    """Curve rows (dicts) -> CSV, atomically, with repr-exact floats."""
    write_csv(path, columns, ([row[c] for c in columns] for row in rows))


# --------------------------------------------------------- param bookkeeping


def _snapshot(model: Module) -> dict:
    return {name: arr.copy() for name, arr in policy_arrays(model).items()}


def _restore(model: Module, snap: dict):
    for name, arr in policy_arrays(model).items():
        arr[...] = snap[name]


def _descend(loss, opt: AdamW, max_grad_norm: float) -> bool:
    """One clipped AdamW step on loss; False when a gradient is non-finite."""
    opt.zero_grad()
    ad.backward(loss)
    clip_grad_norm(opt.entries, max_grad_norm)
    try:
        opt.step()
    except NumericsError:
        return False
    return True


# ------------------------------------------------------------ stage 1 (IL)


@dataclass
class Stage1Config:
    epochs: int = 200
    lr: float = 1.5e-3
    weight_decay: float = 1e-4
    minibatch: int = 64
    # value targets are discounted returns, O(100); unit weight lets the
    # value MSE monopolize the clipped gradient through the shared trunk
    lambda_v: float = 0.05
    lambda_bc: float = 1.0
    lambda_wp: float = 1.0
    max_grad_norm: float = 5.0
    seed: int = 0


@dataclass
class Stage1Data:
    """Flattened demonstration tensors, ready for minibatching.

    Map snapshots are deduplicated: each sample carries an index into
    the stacked snapshot array, so a minibatch encodes each distinct
    map once and gathers rows. train_stage1 groups each epoch's rows by
    snapshot, so a minibatch holds few distinct maps, and the tail rows
    an epoch leaves out are those of its last snapshot or snapshots.
    """

    patches: np.ndarray
    poses: np.ndarray
    ids: np.ndarray
    wps: np.ndarray
    snap_idx: np.ndarray
    snapshots: np.ndarray
    actions: np.ndarray
    wstar: np.ndarray
    progress: np.ndarray
    value: np.ndarray
    goal: np.ndarray

    @property
    def n(self) -> int:
        return len(self.actions)


def prepare_stage1_data(demos, worlds, policy) -> Stage1Data:
    """Stack label-only demonstrations into training arrays for policy, a
    NeuralPolicy, rendering and mapping each step as its controller would.

    A demonstration plays back in its world (from worlds, by world_id):
    each step renders its observation patch and folds it into a belief
    map that starts with the policy's landmark prior (policy.r_prior).
    The map is snapshotted at t = 0 and wherever the waypoint index k
    changes, and the steps up to the next change share that snapshot.
    """
    model = policy.model
    w, h, zm = model.width, model.height, model.z_max
    by_id = {world.world_id: world for world in worlds}
    patches, poses, ids, wps, snap_idx = [], [], [], [], []
    actions, wstar, progress, value, goal = [], [], [], [], []
    snapshots = []
    for demo in demos:
        world = by_id[demo.episode.world_id]
        nav = init_map(world, demo.episode, policy.r_prior)
        gx, gy = demo.episode.goal
        d_ids = descriptor_ids(demo.episode.descriptor)
        for t, st in enumerate(demo.steps):
            obs = render_observation(world, st.state)
            update_map(nav, st.state, obs)
            if t == 0 or st.k != demo.steps[t - 1].k:
                snapshots.append(nav.copy())
            patches.append(obs.patch)
            poses.append(pose_features(st.state, w, h, zm))
            ids.append(d_ids)
            wps.append(waypoint_context(st.state, st.waypoint, w, h))
            snap_idx.append(len(snapshots) - 1)
            actions.append(st.action)
            wstar.append((st.waypoint[0] / w, st.waypoint[1] / h))
            progress.append([st.progress_hat])
            value.append([st.value_hat])
            goal.append((gx / w, gy / h))
    return Stage1Data(
        patches=np.array(patches),
        poses=np.array(poses),
        ids=np.array(ids, dtype=np.int64),
        wps=np.array(wps),
        snap_idx=np.array(snap_idx, dtype=np.int64),
        snapshots=np.array(snapshots),
        actions=np.array(actions, dtype=np.int64),
        wstar=np.array(wstar),
        progress=np.array(progress),
        value=np.array(value),
        goal=np.array(goal),
    )


def _stage1_forward(model, data: Stage1Data, idx):
    # encode each distinct snapshot once, then gather per-sample rows
    uniq, inv = np.unique(data.snap_idx[idx], return_inverse=True)
    feats = model.map_encoder(Tensor(data.snapshots[uniq]), train=True)
    map_rows = ad.embedding(feats, inv)
    return model.forward_heads(map_rows, data.poses[idx], data.ids[idx], data.patches[idx], data.wps[idx])


def imitation_loss(out, data: Stage1Data, idx, cfg: Stage1Config):
    """Teacher-forced imitation loss of the head outputs out on
    demonstration rows idx, the one loss of stage 1 and the expert term
    of stage 2: L_IL + lambda_v*L_V + lambda_bc*L_BC + lambda_wp*L_WP,
    with goal and progress regression, value regression, action
    cross-entropy and waypoint regression.

    Returns the loss and its four unweighted terms, keyed by their curve
    column. The tape nodes are built in one fixed order (the four terms,
    blend), so both stages sum gradients the same way.
    """
    l_il = il_loss(out.goal, data.goal[idx], out.progress, data.progress[idx])
    l_v = value_loss(out.value, data.value[idx])
    l_bc = ad.neg(ad.mean_all(ad.pick(ad.log_softmax(out.logits), data.actions[idx])))
    l_wp = ad.mse(out.waypoint, Tensor(data.wstar[idx]))
    loss = ad.add(
        ad.add(l_il, ad.scale(l_v, cfg.lambda_v)),
        ad.add(ad.scale(l_bc, cfg.lambda_bc), ad.scale(l_wp, cfg.lambda_wp)),
    )
    return loss, dict(zip(IMITATION_TERMS, (l_il, l_v, l_bc, l_wp)))


def stage1_order(data: Stage1Data, seed: int, epoch: int) -> np.ndarray:
    """Epoch epoch's row order: the snapshots in a shuffled order, and
    each snapshot's rows together, shuffled among themselves."""
    rng = substream(seed, "stage1-shuffle", epoch)
    rank = rng.permutation(len(data.snapshots))
    return np.lexsort((rng.random(data.n), rank[data.snap_idx]))


@dataclass
class Stage1Result:
    curve: list
    aborted: bool
    epochs_run: int
    final_il: float


def train_stage1(demos, worlds, policy, cfg: Stage1Config) -> Stage1Result:
    """Supervised passes over the demonstrations minimizing imitation_loss.

    policy is a NeuralPolicy and its model is the one trained; the
    demonstrations are rendered and mapped in worlds under its prior
    (prepare_stage1_data). Each epoch orders the rows by snapshot
    (stage1_order) and cuts the order into minibatches of cfg.minibatch
    rows; the n % minibatch tail rows left over, those of the epoch's
    last snapshot or snapshots, sit that epoch out. bc_acc is the share
    of the epoch's minibatch rows whose argmax logit is the teacher's
    action. A non-finite loss or gradient rolls the model back to the end
    of the last clean epoch and aborts.
    """
    model = policy.model
    data = prepare_stage1_data(demos, worlds, policy)
    opt = AdamW(model.named_params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    mb = min(cfg.minibatch, data.n)
    curve = []
    aborted = False
    last_good = _snapshot(model)
    for epoch in range(cfg.epochs):
        perm = stage1_order(data, cfg.seed, epoch)
        acc = dict.fromkeys(IL_CURVE_COLUMNS[1:], 0.0)
        n_mb = 0
        failed = False
        for lo in range(0, data.n - mb + 1, mb):
            idx = perm[lo : lo + mb]
            out = _stage1_forward(model, data, idx)
            loss, terms = imitation_loss(out, data, idx, cfg)
            if not (np.isfinite(loss.item()) and _descend(loss, opt, cfg.max_grad_norm)):
                failed = True
                break
            for k, t in terms.items():
                acc[k] += t.item()
            acc["L_total"] += loss.item()
            acc["bc_acc"] += np.mean(out.logits.data.argmax(axis=1) == data.actions[idx])
            n_mb += 1
        if failed:
            _restore(model, last_good)
            aborted = True
            break
        row = {"epoch": epoch}
        row.update({k: v / max(n_mb, 1) for k, v in acc.items()})
        curve.append(row)
        last_good = _snapshot(model)
    final_il = curve[-1]["L_IL"] if curve else math.nan
    return Stage1Result(curve=curve, aborted=aborted, epochs_run=len(curve), final_il=final_il)


# --------------------------------------------------------- rollout collection


def collect_rollouts(
    policy,
    worlds,
    tiers,
    reward_cfg: RewardConfig,
    n_steps: int,
    streams,
) -> Rollout:
    """Exactly n_steps of sampled experience across fresh episodes.

    Episode j draws its world, its tier from the {name: (lo, hi)}
    mapping tiers, its episode and its actions from the generator
    streams(j), and the policy plays the episodes in lockstep
    (agent.run_episode). Their steps are concatenated in episode order
    and cut at exactly n_steps. An episode ending in stop, or hitting its
    step budget, closes with done=True (the budget is part of the task,
    so the horizon is genuinely finite there). Only a cut mid-episode
    leaves done=False; the critic value the policy computed at the cut
    state bootstraps the dangling tail.
    """

    names = list(tiers)

    def jobs():
        for j in itertools.count():
            rng = streams(j)
            world = worlds[int(rng.integers(len(worlds)))]
            tier = names[int(rng.integers(len(names)))]
            yield world, sample_episode(world, tier, rng, tiers=tiers), rng

    steps = []
    dones = []
    episode_returns = []
    bootstrap = 0.0
    for traj in run_episode(policy, jobs(), mode="sample", reward_cfg=reward_cfg, feats=True, n_steps=n_steps):
        room = n_steps - len(steps)
        if room <= 0:
            break
        if len(traj) <= room and (traj.stopped or len(traj) == traj.episode.max_steps):
            steps.extend(traj.steps)
            dones.extend([False] * (len(traj) - 1) + [True])
            episode_returns.append(sum(s.reward for s in traj.steps))
        else:
            steps.extend(traj.steps[:room])
            dones.extend([False] * room)
            bootstrap = traj.steps[room].value_hat

    def stack(key, dtype=None):
        return np.array([s.feats[key] for s in steps], dtype=dtype)

    return Rollout(
        actions=np.array([s.action for s in steps], dtype=np.int64),
        log_probs_old=np.array([s.log_prob for s in steps]),
        values_old=np.array([s.value_hat for s in steps]),
        rewards=np.array([s.reward for s in steps]),
        dones=np.array(dones, dtype=bool),
        bootstrap_value=bootstrap,
        obs=stack("patch"),
        state_feats=stack("pose"),
        desc_feats=stack("desc_ids", np.int64),
        map_feats=stack("map_feat"),
        wp_feats=stack("wp_feats"),
        masks=stack("mask", bool),
        episode_returns=episode_returns,
    )


def _rollout_heads(model, ro: Rollout, idx):
    """Action log-probs, restricted to the actions legal at collection
    time, and critic values of rollout rows idx, whose stored map
    features enter as constants.

    The additive offset reproduces the controller's masked decode, so
    on the collecting model every row's ratio is 1 up to the last bits
    of a batched pass; masked entries carry zero probability and zero
    gradient.
    """
    rows = (ro.map_feats, ro.state_feats, ro.desc_feats, ro.obs, ro.wp_feats)
    out = model.forward_heads(*(a[idx] for a in rows))
    off = np.where(ro.masks[idx], 0.0, MASK_OFF)
    return ad.log_softmax(ad.add(out.logits, Tensor(off))), out.value


# ------------------------------------------------------------ stage 2 (PPO)


def probe_success_rate(policy, probe, threshold_m: float = 20.0) -> float:
    """Greedy SR over a fixed (world, episode) probe list, played in lockstep."""
    trajs = run_episode(policy, [(world, ep, None) for world, ep in probe], mode="greedy")
    wins = sum(episode_metrics(traj, ep, threshold_m=threshold_m, cell_size=world.cell_size).success
               for traj, (world, ep) in zip(trajs, probe))
    return wins / len(probe)


def ppo_update(model, rollout: Rollout, forward, cfg: PPOConfig, opt: AdamW, shuffles, expert=None):
    """One PPO update of model on a collected rollout.

    Advantages are normalized batch-wide; then each generator in shuffles
    gives one epoch's permutation, walked in minibatches that minimize
    imitation_loss + lambda_rl * ppo_minibatch_loss. forward(model,
    rollout, idx) returns the [B, A] action log-probs and [B, 1] values of
    rows idx. expert, when given, is called after each minibatch's RL loss
    and returns imitation_loss on a fresh expert batch; without it the
    imitation loss and its terms are 0.

    A non-finite loss or ratio, a mean ratio of 100 or more, or a
    non-finite gradient stops the update. Returns the update's mean
    imitation terms, L_RL, minimized loss L_total, entropy, ratio and
    clip_fraction, or None when it blew up.
    """
    adv, targets = compute_gae(rollout, cfg.gamma, cfg.lambda_gae)
    adv_n = (adv - adv.mean()) / (adv.std() + 1e-8)
    t_max = len(rollout)
    mb = min(cfg.minibatch, t_max)
    sums = dict.fromkeys((*IMITATION_TERMS, "L_RL", "L_total", "entropy", "ratio"), 0.0)
    clip_hits = 0
    n_samples = 0
    n_mb = 0
    for rng in shuffles:
        perm = rng.permutation(t_max)
        for lo in range(0, t_max - mb + 1, mb):
            idx = perm[lo : lo + mb]
            lp_all, value = forward(model, rollout, idx)
            l_rl, ent, ratio = ppo_minibatch_loss(
                lp_all, value, rollout.actions[idx], rollout.log_probs_old[idx], adv_n[idx],
                targets[idx], cfg.eps_clip, cfg.value_weight, cfg.entropy_weight,
            )
            if expert is not None:
                l_im, terms = expert()
            else:
                l_im = Tensor(np.zeros(()))
                terms = dict.fromkeys(IMITATION_TERMS, l_im)
            l_total = ad.add(l_im, ad.scale(l_rl, cfg.lambda_rl))
            if not (np.isfinite(l_total.item()) and np.all(np.isfinite(ratio)) and ratio.mean() < 100.0
                    and _descend(l_total, opt, cfg.max_grad_norm)):
                return None
            for k, t in terms.items():
                sums[k] += t.item()
            sums["L_RL"] += l_rl.item()
            sums["L_total"] += l_total.item()
            sums["entropy"] += ent.item()
            sums["ratio"] += float(ratio.mean())
            clip_hits += int(np.sum(np.abs(ratio - 1.0) > cfg.eps_clip))
            n_samples += len(idx)
            n_mb += 1
    means = {k: v / max(n_mb, 1) for k, v in sums.items()}
    means["clip_fraction"] = clip_hits / max(n_samples, 1)
    return means


@dataclass
class Stage2Result:
    curve: list
    aborted: bool
    updates_run: int
    env_steps: int
    final_probe_sr: float


def train_stage2(
    policy,
    worlds,
    ppo_cfg: PPOConfig,
    reward_cfg: RewardConfig,
    corpus,
    il_cfg: Stage1Config | None = None,
    seed: int = 0,
    probe=None,
    probe_threshold_m: float = 20.0,
    checkpoint_dir=None,
) -> Stage2Result:
    """On-policy fine-tuning blended with imitation. The critic arrives
    warm: whatever the stage-1 value head learned is the starting critic.

    policy is a NeuralPolicy; it collects the rollouts and plays the
    probe, and its model is the one trained. corpus holds label-only
    demonstrations in worlds, rendered and mapped under the policy's
    prior as stage 1 does (prepare_stage1_data).

    Each update collects a fixed-size rollout on the ppo_cfg.tiers
    mapping and runs one ppo_update, minimizing imitation_loss +
    lambda_rl * (policy + c_v*value - c_ent*entropy). The imitation
    loss is stage 1's, weighted by il_cfg (Stage1Config defaults when
    None), on a fresh expert batch from corpus per minibatch. Expert
    rows, like rollout rows, carry stored map features and the map
    encoder is not optimized, so lambda_rl = 0 is continued imitation of
    every module but the map encoder. An update that blows up rolls back
    to the last clean update and halves the learning rate once; the
    second blow-up aborts. With a probe, the probe runs after every
    clean update, and with ppo_cfg.checkpoint_every > 0 every that many
    updates a checkpoint goes to checkpoint_dir. The result holds one
    curve row per clean update, the abort flag, the collected env steps
    and the last probe SR (nan without a probe).
    """
    reward_cfg.validate()
    il_cfg = il_cfg or Stage1Config()
    model = policy.model
    opt = AdamW([e for e in model.named_params() if not e[0].startswith("map_encoder.")], lr=ppo_cfg.lr)
    data = prepare_stage1_data(corpus, worlds, policy)
    # each corpus snapshot encoded once, as the controller encodes a map
    snap_feats = np.array([encode_map(grid, model.map_encoder) for grid in data.snapshots])
    expert_rows = (snap_feats[data.snap_idx], data.poses, data.ids, data.patches, data.wps)
    rng_exp = substream(seed, "stage2-expert")

    def expert():
        eidx = rng_exp.integers(0, data.n, size=min(ppo_cfg.expert_batch, data.n))
        return imitation_loss(model.forward_heads(*(a[eidx] for a in expert_rows)), data, eidx, il_cfg)

    curve = []
    aborted = False
    halved = False
    probe_sr = math.nan
    env_steps = 0
    last_good = _snapshot(model)
    for u in range(ppo_cfg.max_updates):
        rollout = collect_rollouts(
            policy, worlds, ppo_cfg.tiers, reward_cfg, ppo_cfg.rollout_steps,
            functools.partial(substream, seed, "stage2-collect", u),
        )
        env_steps += len(rollout)
        shuffles = (substream(seed, "stage2-shuffle", u, e) for e in range(ppo_cfg.epochs_per_update))
        means = ppo_update(model, rollout, _rollout_heads, ppo_cfg, opt, shuffles, expert)
        if means is None:
            _restore(model, last_good)
            if halved:
                aborted = True
                break
            halved = True
            opt = AdamW(opt.entries, lr=opt.lr * 0.5)
            continue
        if probe is not None:
            probe_sr = probe_success_rate(policy, probe, threshold_m=probe_threshold_m)
        curve.append({
            "update": u,
            **{k: means[k] for k in (*IMITATION_TERMS, "L_RL", "L_total", "entropy", "clip_fraction")},
            "mean_return": float(np.mean(rollout.episode_returns)) if rollout.episode_returns else math.nan,
            "probe_SR": probe_sr,
        })
        last_good = _snapshot(model)
        if checkpoint_dir and ppo_cfg.checkpoint_every and (u + 1) % ppo_cfg.checkpoint_every == 0:
            os.makedirs(checkpoint_dir, exist_ok=True)
            save_policy(os.path.join(checkpoint_dir, f"update_{u + 1:04d}.ckpt"), model,
                        meta={"stage": "rl", "update": str(u + 1)})
    return Stage2Result(curve=curve, aborted=aborted, updates_run=len(curve),
                        env_steps=env_steps, final_probe_sr=probe_sr)
