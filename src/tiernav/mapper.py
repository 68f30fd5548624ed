"""Incremental navigation map and its convolutional encoder.

The map is four world-sized channels: where the vehicle has looked,
where it has been, where the goal's landmark prior points, and every
obstacle height it has ever seen. The encoder is a small residual
stack (conv-BN-ReLU with skip addition) finished by a spatial-times-
channel gating block, global average pooling, and a linear projection.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .layers import BatchNorm2d, Conv2d, DepthwiseConv2d, Linear, Module
from .world import CityWorld, EpisodeSpec, Observation, UavState

CHANNELS = ("explored", "trajectory", "landmark_prior", "obstacle_memory")


def init_map(world: CityWorld, episode: EpisodeSpec, r_prior: float | None) -> np.ndarray:
    """Fresh [4, H, W] map in [0,1], channels in CHANNELS order: only the
    landmark prior is non-zero.

    The prior is a disk of radius r_prior around the described landmark,
    weighted 1.0 on the descriptor-sector side of the center and 0.3 on
    the far side. It narrows the search region without giving away the
    goal cell. With r_prior None the map starts all zero.
    """
    grid = np.zeros((4, world.height, world.width))
    if r_prior is not None:
        lm = world.landmark_by_id(episode.descriptor.landmark_id)  # raises on unknown id
        yy, xx = np.ogrid[: world.height, : world.width]
        d2 = (xx - lm.x) ** 2 + (yy - lm.y) ** 2
        disk = d2 <= r_prior * r_prior
        ang = episode.descriptor.sector * (math.pi / 4.0)
        ux, uy = math.cos(ang), math.sin(ang)
        side = (xx - lm.x) * ux + (yy - lm.y) * uy >= 0
        grid[2] = np.where(disk, np.where(side, 1.0, 0.3), 0.0)
    return grid


def update_map(nav: np.ndarray, state: UavState, obs: Observation) -> None:
    """Fold one observation into the map, in place.

    explored and trajectory are set-to-1 (hence monotone); obstacle
    memory takes an elementwise max so heights survive leaving view.
    """
    patch = obs.patch
    p = patch.shape[1]
    half = p // 2
    cx, cy = state.cell()
    h, w = nav.shape[1:]
    x0, x1 = max(0, cx - half), min(w, cx + half + 1)
    y0, y1 = max(0, cy - half), min(h, cy + half + 1)
    px0, py0 = x0 - (cx - half), y0 - (cy - half)
    sub = (slice(y0, y1), slice(x0, x1))
    psub = (slice(py0, py0 + (y1 - y0)), slice(px0, px0 + (x1 - x0)))
    visible = patch[2][psub] == 0.0
    np.copyto(nav[0][sub], 1.0, where=visible)
    nav[1][cy, cx] = 1.0
    # invert the render scaling: rel = (hf - z + z_max) / (2 z_max)
    zm = float(obs.z_max)
    hf = patch[0][psub] * 2.0 * zm + state.z - zm
    seen = np.clip(hf / zm, 0.0, 1.0)
    memory = nav[3][sub]
    np.maximum(memory, seen, out=memory, where=visible)


class ResidualBlock(Module):
    """ReLU(BN(Conv(x)) + x), conv 3x3 stride 1 size-preserving."""

    def __init__(self, rng, channels: int):
        self.conv = Conv2d(rng, channels, channels, 3, stride=1, pad=1, bias=False)
        self.bn = BatchNorm2d(channels)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        return ad.relu(ad.add(self.bn(self.conv(x), train), x))


class SCConv(Module):
    """ReLU(BN(U * C)): depthwise spatial term gated by 1x1 channel mix."""

    def __init__(self, rng, channels: int, k: int = 3):
        self.spatial = DepthwiseConv2d(rng, channels, k)
        self.channel = Conv2d(rng, channels, channels, 1, stride=1, pad=0, bias=False)
        self.bn = BatchNorm2d(channels)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        return ad.relu(self.bn(ad.mul(self.spatial(x), self.channel(x)), train))


class MapEncoder(Module):
    """stem s2 -> [res x2, down s2] per stage -> SCConv -> GAP -> linear."""

    def __init__(self, rng, c_in: int = 4, widths=(16, 32, 64), d_out: int = 128):
        self.stem = Conv2d(rng, c_in, widths[0], 3, stride=2, pad=1)
        blocks = []
        downs = []
        for i, wd in enumerate(widths):
            blocks.append(ResidualBlock(rng, wd))
            blocks.append(ResidualBlock(rng, wd))
            nxt = widths[i + 1] if i + 1 < len(widths) else widths[-1]
            downs.append(Conv2d(rng, wd, nxt, 3, stride=2, pad=1, bias=False))
        self.blocks = blocks
        self.downs = downs
        self.fuse = SCConv(rng, widths[-1])
        self.head = Linear(rng, widths[-1], d_out)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        out = ad.relu(self.stem(_pad_odd(x)))
        for i in range(len(self.downs)):
            out = self.blocks[2 * i](out, train)
            out = self.blocks[2 * i + 1](out, train)
            out = self.downs[i](_pad_odd(out))
        out = self.fuse(out, train)
        return self.head(ad.global_avg_pool(out))


def _pad_odd(x: Tensor) -> Tensor:
    # stride-2 3x3 convs need odd spatial dims for an integral output
    # size; pad even inputs with one zero row/col at the bottom/right
    n, c, h, w = x.data.shape
    if h % 2 == 0:
        x = ad.concat([x, Tensor(np.zeros((n, c, 1, w)))], axis=2)
        h += 1
    if w % 2 == 0:
        x = ad.concat([x, Tensor(np.zeros((n, c, h, 1)))], axis=3)
    return x


def encode_map(grid: np.ndarray, encoder: MapEncoder) -> np.ndarray:
    """The [D] feature of one [4, H, W] map grid, encoded without a tape
    from BatchNorm's running statistics, which it never moves."""
    with ad.no_grad():
        feat = encoder(Tensor(grid[None]), train=False)
    if not np.all(np.isfinite(feat.data)):
        raise ContractError("encoded map feature contains non-finite values")
    return feat.data[0].copy()

