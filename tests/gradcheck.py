"""Finite-difference gradient checker shared by the autodiff, mapper and optimizer tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tiernav import autodiff as ad


@dataclass
class GradReport:
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def grad_check(
    loss_fn, params, h: float = 1e-5, tol: float = 1e-6, max_coords: int | None = None, rng=None
) -> GradReport:
    """Compare backprop against central differences (f(x+h)-f(x-h))/(2h).

    loss_fn rebuilds the (deterministic) scalar loss from scratch on
    each call so the numeric probes see the perturbed parameters.
    rel err uses max(|analytic|, |numeric|, 1e-8) in the denominator,
    so a dead-zero pair scores 0 and a corrupted gradient scores about
    its relative corruption. Always returns a report, never raises.
    """
    params = list(params)
    for p in params:
        p.grad = None
    loss = loss_fn()
    ad.backward(loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gaflat = ga.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            with ad.no_grad():
                fp = loss_fn().item()
            flat[i] = orig - h
            with ad.no_grad():
                fm = loss_fn().item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            rel = abs(gaflat[i] - numeric) / max(abs(gaflat[i]), abs(numeric), 1e-8)
            if rel > worst:
                worst = rel
    return GradReport(max_rel_err=worst, tol=tol)
