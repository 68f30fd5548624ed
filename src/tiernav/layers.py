"""Parameterized layers on top of the autodiff primitives.

Each layer owns its weight tensors (requires_grad=True) plus any
non-trained state (BatchNorm running statistics). Layers expose
named_params() for the optimizer / checkpoint and named_state() for
the rest. Names are dotted paths so a whole model flattens into one
string->array dict.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class Module:
    """Base: recursively collects params and state from attributes."""

    def _walk(self, prefix=""):
        """Pre-order (dotted name prefix, module) over this module and every
        Module held by an attribute or by a list or tuple attribute."""
        yield prefix, self
        for attr_name, attr in vars(self).items():
            if isinstance(attr, Module):
                yield from attr._walk(f"{prefix}{attr_name}.")
            elif isinstance(attr, (list, tuple)):
                for i, item in enumerate(attr):
                    if isinstance(item, Module):
                        yield from item._walk(f"{prefix}{attr_name}.{i}.")

    def _own_params(self):
        return []

    def _own_state(self):
        return []

    def named_params(self):
        """(name, tensor, decay) for every trainable array."""
        return [(prefix + name, t, decay) for prefix, m in self._walk() for name, t, decay in m._own_params()]

    def named_state(self):
        """(name, array) for non-trained state (BN stats etc)."""
        return [(prefix + name, arr) for prefix, m in self._walk() for name, arr in m._own_state()]

    def modules(self):
        return (m for _, m in self._walk())


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    def __init__(self, rng: np.random.Generator, din: int, dout: int):
        self.weight = Tensor(fan_in_uniform(rng, (din, dout), din), requires_grad=True)
        self.bias = Tensor(np.zeros(dout), requires_grad=True)

    def _own_params(self):
        return [("weight", self.weight, True), ("bias", self.bias, False)]

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class Conv2d(Module):
    def __init__(self, rng, cin: int, cout: int, k: int, stride: int = 1, pad: int = 0, bias: bool = True):
        fan_in = cin * k * k
        self.kernel = Tensor(fan_in_uniform(rng, (cout, cin, k, k), fan_in), requires_grad=True)
        self.bias = Tensor(np.zeros(cout), requires_grad=True) if bias else None
        self.stride = stride
        self.pad = pad

    def _own_params(self):
        out = [("kernel", self.kernel, True)]
        if self.bias is not None:
            out.append(("bias", self.bias, False))
        return out

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.kernel, stride=self.stride, pad=self.pad, bias=self.bias)


class Embedding(Module):
    def __init__(self, rng: np.random.Generator, n_rows: int, dim: int):
        self.table = Tensor(fan_in_uniform(rng, (n_rows, dim), dim), requires_grad=True)

    def _own_params(self):
        return [("table", self.table, True)]

    def __call__(self, idx) -> Tensor:
        return ad.embedding(self.table, idx)


class DepthwiseConv2d(Module):
    def __init__(self, rng, channels: int, k: int):
        self.kernel = Tensor(fan_in_uniform(rng, (channels, k, k), k * k), requires_grad=True)

    def _own_params(self):
        return [("kernel", self.kernel, True)]

    def __call__(self, x: Tensor) -> Tensor:
        return ad.depthwise_conv2d(x, self.kernel)


class BatchNorm2d(Module):
    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        # scalar array so checkpoints restore it like any other state
        self.num_batches = np.zeros(1)
        self.eps = eps
        self.momentum = momentum

    def _own_params(self):
        # BN affine params are exempt from weight decay
        return [("gamma", self.gamma, False), ("beta", self.beta, False)]

    def _own_state(self):
        return [
            ("running_mean", self.running_mean),
            ("running_var", self.running_var),
            ("num_batches", self.num_batches),
        ]

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        if mode == "train":
            self.num_batches[0] += 1
        return ad.batchnorm2d(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            mode,
            eps=self.eps,
            momentum=self.momentum,
            stats_ready=self.num_batches[0] > 0,
        )
