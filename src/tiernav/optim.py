"""AdamW and global gradient-norm clipping."""

from __future__ import annotations

import numpy as np

from .errors import NumericsError


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    Decay is applied multiplicatively to the raw weights before the
    moment update, and only to entries flagged decay=True (weight
    matrices / conv kernels; biases and BN affine params are exempt).
    """

    def __init__(self, named_params, lr: float, betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0):
        self.entries = list(named_params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t, _ in self.entries}
        self.v = {name: np.zeros_like(t.data) for name, t, _ in self.entries}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for name, p, decay in self.entries:
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericsError(f"non-finite gradient in parameter block {name!r}")
            if decay and self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for _, p, _ in self.entries:
            p.grad = None


def clip_grad_norm(named_params, max_norm: float) -> float:
    """Scales all grads so their joint l2 norm is at most max_norm."""
    total = 0.0
    for _, p, _ in named_params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        s = max_norm / (norm + 1e-12)
        for _, p, _ in named_params:
            if p.grad is not None:
                p.grad *= s
    return norm
