"""Flat key = value experiment configuration.

One schema entry per tunable default. Files are line-oriented text:
blank lines and # comments are ignored, everything else must be
`key = value` with a schema-known key. Command-line overrides win over
file values, which win over the schema defaults. The fully resolved
config renders canonically (sorted keys, repr floats) so its hash
identifies an experiment.

The tiers are world.TIERS, one table of names and default distance
brackets; each world.tier_<name> key sets one bracket. A tier-list key
(corpus.tiers, ppo.tiers, eval.tiers) resolves through
ExperimentConfig.tiers to an ordered {name: (lo, hi)} mapping, the one
form every episode source takes.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields

from .errors import ConfigError
from .training import PPOConfig, Stage1Config
from .util import atomic_write
from .world import TIERS, RewardConfig, WorldConfig


@dataclass(frozen=True)
class Entry:
    kind: str  # int | float | bool | str | ints | floats | bracket
    default: object
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    choices: tuple | None = None
    label: str | None = None  # overrides the generated range text in errors
    distinct: bool = False  # a list whose items may not repeat

    def range_text(self) -> str:
        if self.label:
            return self.label
        if self.choices:
            return "one of " + ", ".join(self.choices)
        lo = "-inf" if self.lo is None else repr(float(self.lo))
        hi = "inf" if self.hi is None else repr(float(self.hi))
        return f"value in {'(' if self.lo_open else '['}{lo}, {hi}{')' if self.hi_open else ']'}"

    def check_range(self, v: float) -> bool:
        if math.isnan(v):
            return False
        if self.lo is not None and (v < self.lo or (self.lo_open and v == self.lo)):
            return False
        if self.hi is not None and (v > self.hi or (self.hi_open and v == self.hi)):
            return False
        return True


_W = WorldConfig()
_R = RewardConfig()
_P = PPOConfig()
_S1 = Stage1Config()

SCHEMA: dict = {
    # run bookkeeping
    "run.seed": Entry("int", 0, lo=0),
    "run.out": Entry("str", "runs/exp"),
    # world generation
    "world.width": Entry("int", _W.width, lo=32, hi=4096),
    "world.height": Entry("int", _W.height, lo=32, hi=4096),
    "world.cell_size": Entry("float", _W.cell_size, lo=0.0, lo_open=True),
    "world.z_min": Entry("int", _W.z_min, lo=0),
    "world.z_max": Entry("int", _W.z_max, lo=1, hi=64),
    "world.cruise_z": Entry("int", _W.cruise_z, lo=0, hi=64),
    "world.r_base": Entry("int", _W.r_base, lo=1, hi=64),
    "world.r_gain": Entry("int", _W.r_gain, lo=0, hi=64),
    "world.n_landmarks": Entry("int", _W.n_landmarks, lo=1, hi=256),
    "world.obstacle_density": Entry("float", _W.obstacle_density, lo=0.0, hi=1.0),
    "world.building_min": Entry("int", _W.building_min, lo=1),
    "world.building_max": Entry("int", _W.building_max, lo=1),
    "world.max_retries": Entry("int", _W.max_retries, lo=1),
    "world.n_seen": Entry("int", 2, lo=1, hi=256),
    "world.n_unseen": Entry("int", 1, lo=0, hi=256),
    # tier distance brackets in cells, [lo, hi); hi may be inf
    **{f"world.tier_{name}": Entry("bracket", bracket) for name, bracket in TIERS.items()},
    # demonstration corpus
    "corpus.episodes": Entry("int", 60, lo=1, hi=100000),
    "corpus.tiers": Entry("str", ",".join(TIERS)),
    # reward shaping
    "reward.alpha": Entry("float", _R.alpha, lo=0.0),
    "reward.beta": Entry("float", _R.beta, lo=0.0),
    "reward.eta": Entry("float", _R.eta, lo=0.0),
    "reward.delta": Entry("float", _R.delta, hi=0.0),
    "reward.d_goal": Entry("float", _R.d_goal, lo=0.0, lo_open=True),
    "reward.r_min": Entry("float", _R.r_min),
    "reward.r_max": Entry("float", _R.r_max),
    "reward.heading_reference": Entry("str", _R.heading_reference,
                                      choices=("final_goal", "current_waypoint")),
    "reward.goal_bonus_on_stop": Entry("bool", _R.goal_bonus_on_stop),
    # policy net
    "model.enc_widths": Entry("ints", (8, 16), lo=1, hi=512),
    "model.d_map": Entry("int", 64, lo=1, hi=2048),
    "model.d_obs": Entry("int", 32, lo=1, hi=2048),
    "model.d_state": Entry("int", 32, lo=1, hi=2048),
    "model.d_desc": Entry("int", 32, lo=1, hi=2048),
    "model.trunk_hidden": Entry("int", 128, lo=1, hi=4096),
    "model.micro_hidden": Entry("int", 64, lo=1, hi=4096),
    "model.feed_goal_to_waypoint": Entry("bool", True),
    # controller guards; patience 0 never forces a replan
    "model.avoid_blocked": Entry("bool", True),
    "model.replan_patience": Entry("int", 16, lo=0),
    # one controller and belief map for both training stages and eval
    "model.flat": Entry("bool", False),
    "model.use_prior": Entry("bool", True),
    "model.r_prior": Entry("float", 12.0, lo=0.0, lo_open=True),
    # stage-1 imitation
    "il.epochs": Entry("int", _S1.epochs, lo=1, hi=100000),
    "il.lr": Entry("float", _S1.lr, lo=0.0, lo_open=True),
    "il.weight_decay": Entry("float", _S1.weight_decay, lo=0.0),
    "il.minibatch": Entry("int", _S1.minibatch, lo=1),
    "il.lambda_v": Entry("float", _S1.lambda_v, lo=0.0),
    "il.lambda_bc": Entry("float", _S1.lambda_bc, lo=0.0),
    "il.lambda_wp": Entry("float", _S1.lambda_wp, lo=0.0),
    "il.max_grad_norm": Entry("float", _S1.max_grad_norm, lo=0.0, lo_open=True),
    # 0 disables early stopping
    "il.early_stop_ratio": Entry("float", _S1.early_stop_ratio, lo=0.0, hi=1.0),
    # stage-2 PPO
    "ppo.gamma": Entry("float", _P.gamma, lo=0.0, hi=1.0, lo_open=True, hi_open=True,
                       label="γ ∈ (0,1)"),
    "ppo.lambda_gae": Entry("float", _P.lambda_gae, lo=0.0, hi=1.0),
    "ppo.eps_clip": Entry("float", _P.eps_clip, lo=0.0, lo_open=True),
    "ppo.lambda_rl": Entry("float", _P.lambda_rl, lo=0.0, hi=1.0, label="λ_RL ∈ [0,1]"),
    "ppo.rollout_steps": Entry("int", _P.rollout_steps, lo=1),
    "ppo.epochs_per_update": Entry("int", _P.epochs_per_update, lo=1),
    "ppo.minibatch": Entry("int", _P.minibatch, lo=1),
    "ppo.lr": Entry("float", _P.lr, lo=0.0, lo_open=True),
    "ppo.entropy_weight": Entry("float", _P.entropy_weight, lo=0.0),
    "ppo.value_weight": Entry("float", _P.value_weight, lo=0.0),
    "ppo.max_updates": Entry("int", _P.max_updates, lo=0),
    "ppo.max_grad_norm": Entry("float", _P.max_grad_norm, lo=0.0, lo_open=True),
    "ppo.expert_batch": Entry("int", _P.expert_batch, lo=1),
    "ppo.tiers": Entry("str", ",".join(_P.tiers)),
    "ppo.probe_episodes": Entry("int", 12, lo=0, hi=10000),
    "ppo.probe_every": Entry("int", _P.probe_every, lo=1),
    "ppo.checkpoint_every": Entry("int", _P.checkpoint_every, lo=0),
    # evaluation
    "eval.threshold_m": Entry("float", 20.0, lo=0.0, lo_open=True),
    "eval.episodes_per_tier": Entry("int", 10, lo=1, hi=10000),
    "eval.seeds": Entry("ints", (0, 1, 2), lo=0, distinct=True),
    "eval.tiers": Entry("str", ",".join(TIERS)),
    "eval.mode": Entry("str", "greedy", choices=("greedy", "sample")),
    # ablation sweeps
    "sweep.lambdas": Entry("floats", (0.0, 0.1, 0.2, 0.3), lo=0.0, hi=1.0, distinct=True),
    "sweep.seeds": Entry("ints", (0, 1, 2), lo=0, distinct=True),
}


def _parse_value(entry: Entry, token: str, where: str, key: str, line: str):
    def fail(why):
        raise ConfigError(f"{where}: {line!r}: {why}")

    token = token.strip()
    if entry.kind == "int":
        try:
            v = int(token)
        except ValueError:
            fail(f"{key} expects an integer, got {token!r}")
        if not entry.check_range(v):
            fail(f"{key} out of range: {entry.range_text()}, got {token}")
        return v
    if entry.kind == "float":
        try:
            v = float(token)
        except ValueError:
            fail(f"{key} expects a number, got {token!r}")
        if not entry.check_range(v):
            fail(f"{key} out of range: {entry.range_text()}, got {token}")
        return v
    if entry.kind == "bool":
        low = token.lower()
        if low not in ("true", "false"):
            fail(f"{key} expects true or false, got {token!r}")
        return low == "true"
    if entry.kind == "str":
        if entry.choices and token not in entry.choices:
            fail(f"{key} must be {entry.range_text()}, got {token!r}")
        return token
    if entry.kind in ("ints", "floats"):
        cast = int if entry.kind == "ints" else float
        parts = [p.strip() for p in token.split(",") if p.strip()]
        if not parts:
            fail(f"{key} expects a comma-separated list")
        try:
            vals = tuple(cast(p) for p in parts)
        except ValueError:
            fail(f"{key} expects comma-separated {entry.kind}, got {token!r}")
        for i, v in enumerate(vals):
            if not entry.check_range(v):
                fail(f"{key} item out of range: {entry.range_text()}, got {v!r}")
            if entry.distinct and v in vals[:i]:
                fail(f"{key} names {v!r} twice")
        return vals
    if entry.kind == "bracket":
        parts = [p.strip() for p in token.split(",")]
        if len(parts) != 2:
            fail(f"{key} expects 'lo,hi', got {token!r}")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            fail(f"{key} expects two numbers, got {token!r}")
        if math.isnan(lo) or math.isnan(hi) or lo < 0 or not lo < hi:
            fail(f"{key} needs 0 <= lo < hi, got {token!r}")
        return (lo, hi)
    raise ConfigError(f"schema bug: unknown kind {entry.kind!r} for {key}")


def _render_value(entry: Entry, v) -> str:
    if entry.kind == "int":
        return str(int(v))
    if entry.kind == "float":
        return repr(float(v))
    if entry.kind == "bool":
        return "true" if v else "false"
    if entry.kind == "str":
        return str(v)
    if entry.kind == "ints":
        return ",".join(str(int(x)) for x in v)
    if entry.kind in ("floats", "bracket"):
        return ",".join(repr(float(x)) for x in v)
    raise ConfigError(f"schema bug: unknown kind {entry.kind!r}")


class ExperimentConfig:
    """Resolved, validated settings. Index with the flat key."""

    def __init__(self, values: dict):
        self._values = values

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self._values[key]

    def render(self) -> str:
        lines = [f"{k} = {_render_value(SCHEMA[k], self._values[k])}" for k in sorted(SCHEMA)]
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.render().encode()).hexdigest()

    def echo(self, out_dir):
        path = os.path.join(out_dir, "config.txt")
        atomic_write(path, self.render())
        return path

    # typed views: each field of a section's dataclass is the key <section>.<field name>

    def _view(self, cls, section: str, **by_hand):
        return cls(**{f.name: self[f"{section}.{f.name}"] for f in fields(cls) if f.name not in by_hand},
                   **by_hand)

    def world_config(self) -> WorldConfig:
        return self._view(WorldConfig, "world")

    def reward_config(self) -> RewardConfig:
        cfg = self._view(RewardConfig, "reward")
        cfg.validate()
        return cfg

    def ppo_config(self) -> PPOConfig:
        return self._view(PPOConfig, "ppo", tiers=self.tiers("ppo.tiers"))

    def stage1_config(self) -> Stage1Config:
        return self._view(Stage1Config, "il", seed=self["run.seed"])

    def tiers(self, key: str) -> dict:
        """The tier list under key, resolved: each named tier, in the listed
        order, mapped to its world.tier_<name> bracket."""
        names = [t.strip() for t in self[key].split(",") if t.strip()]
        if not names:
            raise ConfigError(f"{key} names no tiers")
        tiers = {}
        for t in names:
            if t not in TIERS:
                raise ConfigError(f"{key}: unknown tier {t!r}, expected subset of {tuple(TIERS)}")
            if t in tiers:
                raise ConfigError(f"{key}: tier {t!r} named twice")
            tiers[t] = self[f"world.tier_{t}"]
        return tiers


def _strip_comment(line: str) -> str:
    # a # starts a comment anywhere outside a value's leading text
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_config(path=None, overrides=()) -> ExperimentConfig:
    """Defaults, then file settings, then key=value overrides."""
    items = []  # (where, text as written, text without its comment)
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as f:
                raw = f.read().splitlines()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
        items += [(f"{path}:{n}", line.strip(), bare)
                  for n, line in enumerate(raw, start=1) if (bare := _strip_comment(line).strip())]
    items += [(f"override {i}", item, item) for i, item in enumerate(overrides, start=1)]
    values = {k: e.default for k, e in SCHEMA.items()}
    for where, text, line in items:
        if "=" not in line:
            raise ConfigError(f"{where}: {text!r}: expected key = value")
        key, token = line.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        values[key] = _parse_value(SCHEMA[key], token, where, key, text)
    cfg = ExperimentConfig(values)
    for key in ("corpus.tiers", "ppo.tiers", "eval.tiers"):
        cfg.tiers(key)
    return cfg
