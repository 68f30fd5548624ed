"""Every episode source draws inside the tier table it is given.

A tier list is one ordered {name: (lo, hi)} mapping. Each source is given a
narrow table whose brackets lie outside world.TIERS' easy and medium
brackets, so a source that fell back on the defaults, or on another tier's
bracket, puts a start-to-goal distance outside [lo, hi) of its tier.
"""

import math
from collections import Counter

from tiernav import cli, training
from tiernav.agent import NavPolicy, NeuralPolicy, TeacherPolicy
from tiernav.cli import main
from tiernav.evaluation import run_benchmark
from tiernav.teacher import build_dataset
from tiernav.training import collect_rollouts
from tiernav.util import substream
from tiernav.world import TIERS, RewardConfig, WorldConfig, generate_world

NARROW = {"easy": (5.0, 7.0), "medium": (12.0, 14.0)}


def assert_inside(table, episodes):
    assert episodes
    for ep in episodes:
        lo, hi = table[ep.difficulty]
        dist = math.hypot(ep.start.x - ep.goal[0], ep.start.y - ep.goal[1])
        assert lo <= dist < hi, (ep.difficulty, dist)
    assert {ep.difficulty for ep in episodes} == set(table)


def record_draws(monkeypatch, module):
    """The episodes module's sample_episode returns from now on."""
    drawn = []
    sample = module.sample_episode

    def recording(*args, **kwargs):
        drawn.append(sample(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(module, "sample_episode", recording)
    return drawn


def small_world():
    return generate_world(301, WorldConfig(width=32, height=32, n_landmarks=5, z_max=3, r_base=3, r_gain=2))


def test_narrow_table_misses_the_defaults():
    for name, (lo, hi) in NARROW.items():
        assert hi <= TIERS[name][0] or lo >= TIERS[name][1], name


def test_build_dataset_draws_inside_its_table():
    demos = build_dataset([small_world()], 4, NARROW, 5, RewardConfig(), 0.99)
    assert Counter(d.episode.difficulty for d in demos) == {"easy": 2, "medium": 2}
    assert_inside(NARROW, [d.episode for d in demos])


def test_collect_rollouts_draws_inside_its_table(monkeypatch):
    world = small_world()
    model = NavPolicy(substream(0, "net"), world.width, world.height, world.z_max,
                      len(world.landmarks), world.patch_side)
    drawn = record_draws(monkeypatch, training)
    collect_rollouts(NeuralPolicy(model), [world], NARROW, RewardConfig(), 40, lambda j: substream(3, "narrow", j))
    assert_inside(NARROW, drawn)


def test_run_benchmark_draws_inside_its_table():
    report, records = run_benchmark(TeacherPolicy(), {"seen": [small_world()]}, 2, [0], tiers=NARROW)
    assert list(report.cells) == [("seen", "easy"), ("seen", "medium")]
    assert_inside(NARROW, [r.traj.episode for r in records])


CONFIG_TEXT = """\
run.seed = 3
world.width = 32
world.height = 32
world.n_landmarks = 4
world.z_max = 3
world.r_base = 3
world.r_gain = 1
world.n_seen = 1
world.n_unseen = 1
world.tier_easy = 5,7
world.tier_medium = 12,14
corpus.episodes = 2
corpus.tiers = easy,medium
il.epochs = 1
model.enc_widths = 4,8
model.d_map = 16
model.d_obs = 8
model.d_state = 8
model.d_desc = 8
model.trunk_hidden = 32
model.micro_hidden = 16
ppo.rollout_steps = 24
ppo.max_updates = 1
ppo.epochs_per_update = 1
ppo.minibatch = 16
ppo.expert_batch = 8
ppo.probe_episodes = 4
ppo.tiers = easy,medium
"""


def test_train_rl_probe_and_rollouts_draw_inside_the_config_brackets(tmp_path, monkeypatch):
    cfg_path = tmp_path / "narrow.txt"
    cfg_path.write_text(CONFIG_TEXT)
    base = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
    for cmd in ("gen-worlds", "build-corpus", "train-il"):
        assert main([cmd, *base]) == 0, cmd
    probe = record_draws(monkeypatch, cli)
    rollouts = record_draws(monkeypatch, training)
    assert main(["train-rl", *base]) == 0
    assert len(probe) == 4
    assert_inside(NARROW, probe)
    assert_inside(NARROW, rollouts)
