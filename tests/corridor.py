"""Corridor sanity task: PPO, through training.ppo_update, must learn to
drive a two-action policy down a walled strip and stop at the beacon."""

import math
from dataclasses import dataclass

import numpy as np

from tiernav import autodiff as ad
from tiernav.autodiff import Tensor
from tiernav.errors import NumericsError
from tiernav.layers import Linear, Module
from tiernav.optim import AdamW
from tiernav.training import PPOConfig, Rollout, ppo_update
from tiernav.util import substream
from tiernav.world import (Action, CityWorld, Landmark, RewardConfig, UavState, compute_reward, distance_to_goal,
                           step as env_step, world_hash)


def corridor_world(length: int = 40, half_width: int = 1, cell_size: float = 5.0) -> CityWorld:
    """Thin walled strip used by the policy-gradient sanity task."""
    h = 2 * half_width + 3
    hf = np.zeros((h, length), dtype=np.int64)
    hf[0, :] = 4
    hf[-1, :] = 4
    landmarks = [
        Landmark(id=0, token="gatehouse", x=1, y=h // 2, radius=1),
        Landmark(id=1, token="beacon", x=length - 2, y=h // 2, radius=1),
    ]
    world = CityWorld(
        width=length,
        height=h,
        cell_size=cell_size,
        height_field=hf,
        landmarks=landmarks,
        z_min=1,
        z_max=4,
        cruise_z=2,
        r_base=4,
        r_gain=2,
    )
    world.world_id = world_hash(world)
    return world


class CorridorNet(Module):
    """Two-logit actor plus critic on a four-number feature vector."""

    def __init__(self, rng, d_in: int = 4, hidden: int = 32):
        self.fc = Linear(rng, d_in, hidden)
        self.pi = Linear(rng, hidden, 2)
        self.v = Linear(rng, hidden, 1)

    def __call__(self, x):
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        h = ad.relu(self.fc(x))
        return self.pi(h), self.v(h)


def _corridor_features(state: UavState, goal, world, cfg: RewardConfig) -> np.ndarray:
    d = distance_to_goal(state, goal, world.cell_size)
    span = world.width * world.cell_size
    return np.array([d / span, 1.0 if d < cfg.d_goal else 0.0, state.x / world.width, 1.0])


def _corridor_heads(net, ro: Rollout, idx):
    logits, v = net(ro.state_feats[idx])
    return ad.log_softmax(logits), v


# corridor actions: logit 0 -> forward, logit 1 -> stop
_CORRIDOR_ACTIONS = (int(Action.FORWARD), int(Action.STOP))


@dataclass
class CorridorResult:
    reached: bool
    env_steps: int
    sr: float
    updates: int
    curve: list


def _corridor_probe_sr(net, world, goal, cfg, threshold_m: float, max_steps: int, starts) -> float:
    wins = 0
    mid = world.height // 2
    for x0 in starts:
        state = UavState(x=float(x0), y=float(mid), z=world.cruise_z, heading=0)
        stopped = False
        for _ in range(max_steps):
            with ad.no_grad():
                logits, _ = net(_corridor_features(state, goal, world, cfg)[None])
            a = int(np.argmax(logits.data[0]))
            state, _, terminal = env_step(world, state, Action(_CORRIDOR_ACTIONS[a]))
            if terminal:
                stopped = True
                break
        ne = math.hypot(state.x - goal[0], state.y - goal[1]) * world.cell_size
        if stopped and ne <= threshold_m:
            wins += 1
    return wins / len(starts)


def corridor_sanity(
    seed: int,
    max_env_steps: int = 20000,
    target_sr: float = 0.95,
    rollout_steps: int = 512,
    lr: float = 3e-3,
    hidden: int = 32,
    probe_n: int = 20,
    threshold_m: float = 20.0,
    gamma: float = 0.99,
    lam_gae: float = 0.95,
    eps_clip: float = 0.2,
    epochs: int = 4,
    minibatch: int = 64,
    value_weight: float = 0.5,
    entropy_weight: float = 0.03,  # 0.01 lets the stop logit die before it ever pays off
) -> CorridorResult:
    """Forward/stop policy gradient check on the walled strip.

    The net must learn to drive toward the beacon and stop inside the
    success radius. Returns as soon as the greedy probe clears the
    target rate, reporting how many environment steps that took.
    """
    world = corridor_world()
    goal = (world.width - 2, world.height // 2)
    cfg = RewardConfig(goal_bonus_on_stop=True)
    ppo_cfg = PPOConfig(gamma=gamma, lambda_gae=lam_gae, eps_clip=eps_clip, lambda_rl=1.0,
                        epochs_per_update=epochs, minibatch=minibatch, lr=lr,
                        entropy_weight=entropy_weight, value_weight=value_weight, max_grad_norm=5.0)
    net = CorridorNet(substream(seed, "corridor-net"), hidden=hidden)
    opt = AdamW(net.named_params(), lr=ppo_cfg.lr)
    rng = substream(seed, "corridor-env")
    mid = world.height // 2
    ep_cap = 60
    starts = np.unique(np.linspace(1, world.width - 6, probe_n).round().astype(int))
    env_steps = 0
    curve = []
    update = 0
    sr = _corridor_probe_sr(net, world, goal, cfg, threshold_m, ep_cap, starts)
    while env_steps < max_env_steps and sr < target_sr:
        feats, acts, lps, vals, rews, dones = [], [], [], [], [], []
        bootstrap = 0.0
        ep_returns = []
        n = 0
        while n < rollout_steps:
            state = UavState(x=float(rng.integers(1, world.width - 5)), y=float(mid),
                             z=world.cruise_z, heading=0)
            ep_ret = 0.0
            for t in range(ep_cap):
                phi = _corridor_features(state, goal, world, cfg)
                with ad.no_grad():
                    logits, v = net(phi[None])
                lp = ad.log_softmax(logits).data[0]
                a = int(rng.choice(2, p=np.exp(lp) / np.exp(lp).sum()))
                nxt, _, terminal = env_step(world, state, Action(_CORRIDOR_ACTIONS[a]))
                r = compute_reward(state, nxt, goal, world, cfg, stopped=terminal)
                feats.append(phi)
                acts.append(a)
                lps.append(float(lp[a]))
                vals.append(float(v.data[0, 0]))
                rews.append(r)
                dones.append(False)
                ep_ret += r
                state = nxt
                n += 1
                if terminal or t == ep_cap - 1:
                    dones[-1] = True
                    ep_returns.append(ep_ret)
                    break
                if n == rollout_steps:
                    with ad.no_grad():
                        _, vb = net(_corridor_features(state, goal, world, cfg)[None])
                    bootstrap = float(vb.data[0, 0])
                    break
        env_steps += n
        rollout = Rollout(
            actions=np.array(acts, dtype=np.int64),
            log_probs_old=np.array(lps),
            values_old=np.array(vals),
            rewards=np.array(rews),
            dones=np.array(dones, dtype=bool),
            bootstrap_value=bootstrap,
            state_feats=np.array(feats),
            episode_returns=ep_returns,
        )
        shuffles = (substream(seed, "corridor-shuffle", update, e) for e in range(epochs))
        if ppo_update(net, rollout, _corridor_heads, ppo_cfg, opt, shuffles)[0] is None:
            raise NumericsError(f"corridor update {update} blew up")
        update += 1
        sr = _corridor_probe_sr(net, world, goal, cfg, threshold_m, ep_cap, starts)
        curve.append({"update": update, "env_steps": env_steps, "sr": sr,
                      "mean_return": float(np.mean(ep_returns)) if ep_returns else math.nan})
    return CorridorResult(reached=sr >= target_sr, env_steps=env_steps, sr=sr,
                          updates=update, curve=curve)
