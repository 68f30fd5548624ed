"""Critic helpers for the warm-start tests: a fresh value head and its loss."""

import numpy as np

from tiernav import autodiff as ad
from tiernav.layers import fan_in_uniform
from tiernav.training import Rollout, _rollout_heads


def reinit_value_head(model, rng: np.random.Generator):
    """Fresh fan-in init for the critic, in place (warm-start ablation)."""
    w = model.value_head.weight
    w.data[...] = fan_in_uniform(rng, w.data.shape, w.data.shape[0])
    model.value_head.bias.data[...] = 0.0


def critic_value_loss(model, rollout: Rollout, targets) -> float:
    """Mean squared critic error over a rollout, no training."""
    targets = np.asarray(targets, dtype=np.float64)
    total = 0.0
    t_max = len(rollout)
    for lo in range(0, t_max, 256):
        idx = np.arange(lo, min(lo + 256, t_max))
        with ad.no_grad():
            _, value = _rollout_heads(model, rollout, idx)
        total += float(((value.data[:, 0] - targets[idx]) ** 2).sum())
    return total / t_max
