import argparse
import dataclasses
import glob
import json
import os
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from tiernav import autodiff as ad
from tiernav import cli
from tiernav.agent import load_policy_into
from tiernav.checkpoint import load_checkpoint
from tiernav.cli import main, render_replay
from tiernav.config import SCHEMA, ExperimentConfig, parse_config
from tiernav.errors import NumericsError, ShapeError, StateError
from tiernav.evaluation import run_benchmark
from tiernav.training import train_stage1, train_stage2
from tiernav.teacher import TRAJ_COLUMNS, load_corpus
from tiernav.world import TIERS, Action, load_world

from serial import serial_eval

CONFIG_TEXT = """\
# desk-scale smoke experiment
run.seed = 7
world.width = 32
world.height = 32
world.n_landmarks = 4
world.z_max = 3
world.r_base = 3
world.r_gain = 1
world.n_seen = 1
world.n_unseen = 1
world.tier_easy = 4,8
world.tier_medium = 8,16
world.tier_hard = 16,28
corpus.episodes = 4
corpus.tiers = easy,medium
il.epochs = 2
il.minibatch = 32
model.enc_widths = 4,8
model.d_map = 16
model.d_obs = 8
model.d_state = 8
model.d_desc = 8
model.trunk_hidden = 32
model.micro_hidden = 16
ppo.rollout_steps = 48
ppo.max_updates = 1
ppo.epochs_per_update = 1
ppo.minibatch = 16
ppo.expert_batch = 8
ppo.probe_episodes = 2
ppo.tiers = easy,medium
eval.episodes_per_tier = 1
eval.seeds = 0
eval.tiers = easy,medium
sweep.lambdas = 0.0,0.2
sweep.seeds = 0
"""


REPO = Path(__file__).resolve().parent.parent
BENCHMARK_CONFIGS = sorted((REPO / "perfbench").glob("*.cfg"))
DESK_CONFIG = REPO / "experiments" / "desk.cfg"  # the quality gates' desk-scale config


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliruns")
    cfg_path = root / "exp.txt"
    cfg_path.write_text(CONFIG_TEXT)
    out = str(root / "out")
    base = ["--config", str(cfg_path), "--out", out]
    for cmd in ("gen-worlds", "build-corpus", "train-il", "train-rl"):
        assert main([cmd, *base]) == 0, cmd
    return str(cfg_path), out, base


def _manifest(out, name):
    with open(os.path.join(out, name, "manifest.json")) as f:
        return json.load(f)


def _stage_copy(out, dest, stages=("worlds", "corpus", "il")):
    """A fresh output root holding copies of the named runs; sweeps need no rl/."""
    for stage in stages:
        shutil.copytree(os.path.join(out, stage), dest / stage)
    return dest


def test_pipeline_artifacts_and_manifests(pipeline):
    cfg_path, out, base = pipeline
    cfg = parse_config(cfg_path, [])
    for name, command in (("worlds", "gen-worlds"), ("corpus", "build-corpus"),
                          ("il", "train-il"), ("rl", "train-rl")):
        m = _manifest(out, name)
        assert m["command"] == command
        assert m["config_hash"] == cfg.hash()
        assert m["started"] <= m["ended"]
        assert "config.txt" in m["files"]
        run_dir = os.path.join(out, name)
        on_disk = {os.path.relpath(p, run_dir)
                   for p in glob.glob(os.path.join(run_dir, "**", "*"), recursive=True)
                   if os.path.isfile(p)}
        assert set(m["files"]) == on_disk - {"manifest.json"}
    assert os.path.isfile(os.path.join(out, "il", "policy_il.ckpt"))
    assert os.path.isfile(os.path.join(out, "rl", "policy_rl.ckpt"))
    curve = Path(os.path.join(out, "rl", "curve_rl.csv")).read_text().splitlines()
    assert curve[0].startswith("update,")
    assert len(curve) == 2  # one update


def test_rl_policy_keeps_the_il_map_encoder(pipeline):
    _, out, _ = pipeline
    il, _ = load_checkpoint(os.path.join(out, "il", "policy_il.ckpt"))
    rl, _ = load_checkpoint(os.path.join(out, "rl", "policy_rl.ckpt"))
    encoder = sorted(k for k in il if k.startswith("map_encoder."))
    assert encoder and encoder == sorted(k for k in rl if k.startswith("map_encoder."))
    for k in encoder:
        assert np.array_equal(il[k], rl[k]), k
    assert not np.array_equal(il["action_head.weight"], rl["action_head.weight"])


def test_echoed_config_reparses_to_same_hash(pipeline):
    cfg_path, out, _ = pipeline
    cfg = parse_config(cfg_path, [])
    echoed = parse_config(os.path.join(out, "worlds", "config.txt"), [])
    assert echoed.hash() == cfg.hash()


def test_eval_neural_policy(pipeline):
    _, out, base = pipeline
    assert main(["eval", *base]) == 0
    report = Path(os.path.join(out, "eval", "report.csv")).read_text().splitlines()
    assert report[0] == "split,tier,NE,SR,OSR,SPL,n,seeds"
    assert len(report) == 1 + 4  # 2 splits x 2 tiers


def test_eval_teacher_needs_no_checkpoint(pipeline, tmp_path):
    cfg_path, out, _ = pipeline
    alt = str(tmp_path / "teacher_out")
    base = ["--config", cfg_path, "--out", alt]
    assert main(["gen-worlds", *base]) == 0
    assert main(["eval", "--policy", "teacher", *base]) == 0
    text = Path(os.path.join(alt, "eval", "report.txt")).read_text()
    for line in text.splitlines():
        if line.startswith(("seen", "unseen")):
            assert " 100.00" in line  # SR column


@pytest.mark.parametrize("episodes", [1, 5])  # 5 per cell runs 20 episodes, more than WIDTH slots
@pytest.mark.parametrize("kind", ["teacher", "random"])
def test_eval_matches_serial_reference(pipeline, tmp_path, kind, episodes):
    cfg_path, _, _ = pipeline
    sets = [f"eval.episodes_per_tier={episodes}"]
    alt = str(tmp_path / "out")
    base = ["--config", cfg_path, "--out", alt, *[a for kv in sets for a in ("--set", kv)]]
    assert main(["gen-worlds", *base]) == 0
    assert main(["eval", "--policy", kind, *base]) == 0
    cfg = parse_config(cfg_path, sets)
    ref = tmp_path / "serial"
    serial_eval(kind, cli._bench_worlds(cfg, argparse.Namespace(out=alt)), cfg, str(ref))
    for name in ("report.csv", "report.txt", "steps.csv"):
        assert Path(alt, "eval", name).read_bytes() == (ref / name).read_bytes(), name


def test_train_rl_writes_checkpoints(pipeline, tmp_path):
    cfg_path, out, _ = pipeline
    alt = tmp_path / "ckpt"
    for stage in ("worlds", "corpus", "il"):
        shutil.copytree(os.path.join(out, stage), alt / stage)
    sets = ["ppo.checkpoint_every=1", "ppo.max_updates=2"]
    base = ["--config", cfg_path, "--out", str(alt), *[a for kv in sets for a in ("--set", kv)]]
    assert main(["train-rl", *base]) == 0
    names = [os.path.join("checkpoints", f"update_{u:04d}.ckpt") for u in (1, 2)]
    assert [f for f in _manifest(str(alt), "rl")["files"] if f.startswith("checkpoints")] == names
    cfg = parse_config(cfg_path, sets)
    for name in names:
        assert load_policy_into(cli._build_model(cfg), str(alt / "rl" / name))["stage"] == "rl"


def test_train_rl_requires_il(pipeline, tmp_path, capsys):
    cfg_path, out, _ = pipeline
    alt = str(tmp_path / "no_il")
    base = ["--config", cfg_path, "--out", alt]
    assert main(["gen-worlds", *base]) == 0
    assert main(["build-corpus", *base]) == 0
    assert main(["train-rl", *base]) == 3
    assert "train-il" in capsys.readouterr().err


def test_build_corpus_requires_worlds(pipeline, tmp_path, capsys):
    cfg_path, _, _ = pipeline
    base = ["--config", cfg_path, "--out", str(tmp_path / "empty")]
    assert main(["build-corpus", *base]) == 3
    assert "gen-worlds" in capsys.readouterr().err
    assert main(["train-il", *base]) == 3
    assert main(["eval", *base]) == 3


def test_refuses_overwrite_without_force(pipeline, capsys):
    _, out, base = pipeline
    assert main(["gen-worlds", *base]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["gen-worlds", *base, "--force"]) == 0


def test_bad_config_exits_2(pipeline, capsys):
    cfg_path, out, base = pipeline
    assert main(["eval", *base, "--set", "ppo.lambda_rl=1.5"]) == 2
    assert "λ_RL" in capsys.readouterr().err
    assert main(["eval", "--config", cfg_path, "--out", out, "--set", "bogus=1"]) == 2


def test_numerics_failure_exits_4(pipeline, monkeypatch, capsys):
    _, _, base = pipeline

    def boom(cfg, args):
        raise NumericsError("synthetic blow-up")

    monkeypatch.setitem(cli.COMMANDS, "eval", boom)
    assert main(["eval", *base]) == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ShapeError, StateError])
def test_shape_and_state_errors_exit_7(pipeline, monkeypatch, capsys, error):
    _, _, base = pipeline

    def boom(cfg, args):
        raise error("synthetic contract violation")

    monkeypatch.setitem(cli.COMMANDS, "eval", boom)
    assert main(["eval", *base]) == 7
    assert "model shape or state error" in capsys.readouterr().err


def test_unsatisfiable_tier_exits_5(pipeline, tmp_path, capsys):
    cfg_path, _, _ = pipeline
    base = ["--config", cfg_path, "--out", str(tmp_path / "far")]
    assert main(["gen-worlds", *base]) == 0
    # no two cells of a 32x32 world are 200 cells apart
    assert main(["build-corpus", *base, "--set", "world.tier_easy=200,300"]) == 5
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", [("world.building_min=5", "world.building_max=2"),
                                   ("world.building_max=40", "world.obstacle_density=1.0")],
                         ids=["inverted", "wider_than_world"])
def test_bad_building_size_range_exits_2(tmp_path, capsys, sizes):
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(CONFIG_TEXT)  # a 32x32 world
    sets = [arg for kv in sizes for arg in ("--set", kv)]
    assert main(["gen-worlds", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *sets]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "world.building_min" in err and "world.building_max" in err


def _fail_write(monkeypatch, name):
    """Make every atomic write of a file named `name` fail as on a full disk."""
    from tiernav import util

    def failing_open(path, mode="r", *args, **kwargs):
        if "w" in mode and os.path.basename(path) == name + ".tmp":
            raise OSError(28, "No space left on device")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(util, "open", failing_open, raising=False)


def test_interrupted_corpus_is_not_taken_as_input(pipeline, tmp_path, monkeypatch, capsys):
    cfg_path, _, _ = pipeline
    base = ["--config", cfg_path, "--out", str(tmp_path / "cut")]
    assert main(["gen-worlds", *base]) == 0
    _fail_write(monkeypatch, "episode_00001.csv")
    assert main(["build-corpus", *base]) == 6
    assert "No space left on device" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(["train-il", *base]) == 3
    assert "build-corpus" in capsys.readouterr().err


def test_truncated_corpus_row_exits_6(pipeline, tmp_path, capsys):
    cfg_path, _, _ = pipeline
    base = ["--config", cfg_path, "--out", str(tmp_path / "cut_row")]
    assert main(["gen-worlds", *base]) == 0
    assert main(["build-corpus", *base]) == 0
    episode = tmp_path / "cut_row" / "corpus" / "episode_00000.csv"
    lines = episode.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:5])
    episode.write_text("\n".join(lines) + "\n")
    assert main(["train-il", *base]) == 6
    assert str(episode) in capsys.readouterr().err


def test_corpus_row_off_its_replayed_pose_exits_6(pipeline, tmp_path, capsys):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "moved_row", ("worlds", "corpus"))
    base = ["--config", cfg_path, "--out", str(alt)]
    episode = alt / "corpus" / "episode_00000.csv"
    lines = episode.read_text().splitlines()
    x = TRAJ_COLUMNS.index("x")
    cells = lines[2].split(",")
    cells[x] = repr(float(cells[x]) + 1.0)
    lines[2] = ",".join(cells)
    episode.write_text("\n".join(lines) + "\n")
    assert main(["train-il", *base]) == 6
    err = capsys.readouterr().err
    assert str(episode) in err and "line 3" in err


def test_world_without_landmarks_exits_5(pipeline, tmp_path, capsys):
    cfg_path, out, _ = pipeline
    alt = tmp_path / "bare_world"
    shutil.copytree(os.path.join(out, "worlds"), alt / "worlds")
    world = alt / "worlds" / "seen_00.txt"
    lines = world.read_text().splitlines()
    lm = next(i for i, line in enumerate(lines) if line.startswith("landmarks "))
    world.write_text("\n".join(lines[:lm] + ["landmarks 0"]) + "\n")
    assert main(["build-corpus", "--config", cfg_path, "--out", str(alt)]) == 5
    assert "has no landmarks" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-il", "train-rl"])
def test_empty_corpus_exits_6(pipeline, tmp_path, capsys, command):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "empty_corpus")
    index = alt / "corpus" / "episodes.jsonl"
    index.write_text("")
    for log in (alt / "corpus").glob("episode_*.csv"):
        log.unlink()
    assert main([command, "--config", cfg_path, "--out", str(alt)]) == 6
    assert f"{index}: no episodes" in capsys.readouterr().err


# Each entry maps (lines, first heights row, "landmarks N" line) to damaged lines.
WORLD_DAMAGE = {
    "cell_cut_from_row": lambda ls, r, lm: ls[:r] + [ls[r].rsplit(" ", 1)[0]] + ls[r + 1 :],
    "column_cut_from_every_row": lambda ls, r, lm: ls[:r] + [row.rsplit(" ", 1)[0] for row in ls[r:lm]] + ls[lm:],
    "truncated": lambda ls, r, lm: ls[: r + 5],
    "no_heights_marker": lambda ls, r, lm: ls[: r - 1] + ls[r:],
    "no_header_key": lambda ls, r, lm: [line for line in ls if not line.startswith("cruise_z ")],
    "extra_row": lambda ls, r, lm: ls[: r + 1] + ls[r:],
    "missing_row": lambda ls, r, lm: ls[:r] + ls[r + 1 :],
    "non_integer_cell": lambda ls, r, lm: ls[:r] + ["1.5" + ls[r][1:]] + ls[r + 1 :],
    "bad_landmark_count": lambda ls, r, lm: ls[:lm] + ["landmarks four"] + ls[lm + 1 :],
    "landmark_count_too_high": lambda ls, r, lm: ls[:lm] + [f"landmarks {len(ls) - lm}"] + ls[lm + 1 :],
    "bad_landmark_line": lambda ls, r, lm: ls[:-1] + [ls[-1].rsplit(" ", 1)[0]],
}


@pytest.mark.parametrize("damage", sorted(WORLD_DAMAGE))
def test_malformed_world_file_exits_6(pipeline, tmp_path, capsys, damage):
    cfg_path, out, _ = pipeline
    alt = tmp_path / "bad_world"
    shutil.copytree(os.path.join(out, "worlds"), alt / "worlds")
    world = alt / "worlds" / "seen_00.txt"
    lines = world.read_text().splitlines()
    landmarks_line = next(i for i, line in enumerate(lines) if line.startswith("landmarks "))
    lines = WORLD_DAMAGE[damage](lines, lines.index("heights") + 1, landmarks_line)
    world.write_text("\n".join(lines) + "\n")
    assert main(["build-corpus", "--config", cfg_path, "--out", str(alt)]) == 6
    assert str(world) in capsys.readouterr().err


# target -> (file under the output root, or the config file, and the command that reads it)
NON_UTF8_TARGETS = {
    "config": (None, "train-il"),
    "world": ("worlds/seen_00.txt", "train-il"),
    "episodes": ("corpus/episodes.jsonl", "train-il"),
    "episode": ("corpus/episode_00000.csv", "train-il"),
    "checkpoint": ("il/policy_il.ckpt", "train-rl"),
}


@pytest.mark.parametrize("target,code", [("config", 2), *((t, 6) for t in NON_UTF8_TARGETS if t != "config")])
def test_non_utf8_byte_exits(pipeline, tmp_path, capsys, target, code):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "bytes")
    config = tmp_path / "exp.txt"
    shutil.copy(cfg_path, config)
    name, command = NON_UTF8_TARGETS[target]
    bad = alt / name if name else config
    data = bad.read_bytes()
    at = 16 if target == "checkpoint" else len(data) // 2  # byte 16 starts the first metadata key
    bad.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
    assert main([command, "--config", str(config), "--out", str(alt)]) == code
    err = capsys.readouterr().err
    assert "0xff" in err
    assert str(bad) in err


@pytest.mark.parametrize("dims", [{7: 0x40}, {0: 0, 15: 0x40}], ids=["count_overflows", "empty_but_oversized"])
def test_corrupt_checkpoint_dimension_exits_6(pipeline, tmp_path, capsys, dims):
    # an element count past int64 reads as a truncated file; a zero
    # dimension beside an oversized one is refused by name
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "dims")
    ckpt = alt / "il" / "policy_il.ckpt"
    data = bytearray(ckpt.read_bytes())
    name = b"map_encoder.stem.kernel"  # shape (4, 4, 3, 3), little-endian u64 dimensions
    first_dim = data.index(struct.pack("<I", len(name)) + name) + 4 + len(name) + 4  # past the name and ndim
    for at, byte in dims.items():
        data[first_dim + at] = byte
    ckpt.write_bytes(bytes(data))
    assert main(["eval", "--policy", "il", "--config", cfg_path, "--out", str(alt)]) == 6
    assert str(ckpt) in capsys.readouterr().err


def test_corpus_world_missing_exits_6(pipeline, tmp_path, capsys):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "no_world", ("worlds", "corpus"))
    os.remove(alt / "worlds" / "seen_00.txt")
    assert main(["train-il", "--config", cfg_path, "--out", str(alt)]) == 6
    err = capsys.readouterr().err
    assert f"{alt / 'corpus' / 'episodes.jsonl'}: line 1 references unknown world" in err


def _cut_mid_line(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:1]) + lines[1][: len(lines[1]) // 2]


def _edit_index(edit):
    def damage(corpus):
        index = corpus / "episodes.jsonl"
        index.write_text(edit(index.read_text()))
    return damage


def _add_log(corpus):
    """Copy the first episode log to the next index."""
    n = len(list(corpus.glob("episode_*.csv")))
    shutil.copy(corpus / "episode_00000.csv", corpus / f"episode_{n:05d}.csv")


def _remove_log(corpus):
    os.remove(max(corpus.glob("episode_*.csv")))


# each damages a corpus so that episodes.jsonl is unreadable or holds
# other than one record per episode log
CORPUS_INDEX_DAMAGE = {
    "episodes_cut_mid_line": _edit_index(_cut_mid_line),
    "episodes_key_renamed": _edit_index(lambda text: text.replace('"max_steps"', '"max_step"', 1)),
    "episodes_line_dropped": _edit_index(lambda text: "".join(text.splitlines(keepends=True)[:-1])),
    "episode_log_added": _add_log,
    "episode_log_removed": _remove_log,
}


@pytest.mark.parametrize("damage", sorted(CORPUS_INDEX_DAMAGE))
def test_malformed_corpus_index_exits_6(pipeline, tmp_path, capsys, damage):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "bad_index", ("worlds", "corpus"))
    CORPUS_INDEX_DAMAGE[damage](alt / "corpus")
    assert main(["train-il", "--config", cfg_path, "--out", str(alt)]) == 6
    assert str(alt / "corpus" / "episodes.jsonl") in capsys.readouterr().err


@pytest.mark.parametrize("column,cell", [("action", "9"), ("k", "-1")])
def test_out_of_range_log_cell_exits_6(pipeline, tmp_path, capsys, column, cell):
    cfg_path, out, _ = pipeline
    alt = tmp_path / "bad_cell"
    for stage in ("worlds", "corpus", "il"):
        shutil.copytree(os.path.join(out, stage), alt / stage)
    episode = alt / "corpus" / "episode_00000.csv"
    lines = episode.read_text().splitlines()
    cells = lines[1].split(",")
    cells[TRAJ_COLUMNS.index(column)] = cell
    lines[1] = ",".join(cells)
    episode.write_text("\n".join(lines) + "\n")
    base = ["--config", cfg_path, "--out", str(alt)]
    assert main(["train-il", "--force", *base]) == 6
    assert str(episode) in capsys.readouterr().err
    assert main(["replay", "--log", str(episode), *base]) == 6
    assert str(episode) in capsys.readouterr().err


@pytest.mark.parametrize("column", TRAJ_COLUMNS)
def test_corpus_label_off_its_replay_exits_6(pipeline, tmp_path, capsys, column):
    # every cell is compared with the relabeled row; an edited action is
    # relabeled as logged, so it shows on a later line or as a blocked move
    cfg_path, out, _ = pipeline
    alt = tmp_path / "bad_label"
    for stage in ("worlds", "corpus"):
        shutil.copytree(os.path.join(out, stage), alt / stage)
    episode = alt / "corpus" / "episode_00000.csv"
    lines = episode.read_text().splitlines()
    at = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    if column == "action":
        cells[at] = str(int(Action.TURN_RIGHT if int(cells[at]) == Action.TURN_LEFT else Action.TURN_LEFT))
    else:
        cells[at] = repr(float(cells[at]) + 50.0)
    lines[1] = ",".join(cells)
    episode.write_text("\n".join(lines) + "\n")
    assert main(["train-il", "--config", cfg_path, "--out", str(alt)]) == 6
    err = capsys.readouterr().err
    assert str(episode) in err
    if column != "action":
        assert f"{episode}: line 2 has {column} " in err


@pytest.mark.parametrize("edit", ["last_row_turns", "middle_row_stops"])
def test_corpus_stop_off_the_last_row_exits_6(pipeline, tmp_path, capsys, edit):
    # an episode's one STOP is its last row
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "moved_stop", ("worlds", "corpus"))
    episode = alt / "corpus" / "episode_00000.csv"
    lines = episode.read_text().splitlines()
    at = len(lines) - 1 if edit == "last_row_turns" else len(lines) // 2
    cells = lines[at].split(",")
    cells[TRAJ_COLUMNS.index("action")] = str(int(Action.TURN_LEFT if edit == "last_row_turns" else Action.STOP))
    lines[at] = ",".join(cells)
    episode.write_text("\n".join(lines) + "\n")
    assert main(["train-il", "--config", cfg_path, "--out", str(alt)]) == 6
    assert str(episode) in capsys.readouterr().err


def test_corpus_for_other_reward_settings_exits_6(pipeline, tmp_path, capsys):
    # the corpus holds reward and value labels, so train-il relabels under its own reward.* keys
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "alpha", ("worlds", "corpus"))
    assert main(["train-il", "--config", cfg_path, "--out", str(alt), "--set", "reward.alpha=2.0"]) == 6
    assert str(alt / "corpus" / "episode_0") in capsys.readouterr().err


@pytest.mark.parametrize("path", [*BENCHMARK_CONFIGS, DESK_CONFIG], ids=lambda p: p.name)
def test_benchmark_corpus_replays(path, tmp_path):
    # corpus replay refuses a cell off its relabeling, so a benchmark or
    # desk corpus must replay under its own config's reward and gamma. The
    # benchmark's set-up stages on the default 96x96 worlds, then the
    # replay: 0.13 to 0.19 s per config on a 2-vCPU host, under 0.5 s for
    # all three; the desk config's 40 episodes on 32x32 worlds take about
    # as long.
    base = ["--config", str(path), "--out", str(tmp_path), "--set", "run.seed=1000"]
    assert main(["gen-worlds", *base]) == 0
    assert main(["build-corpus", *base]) == 0
    cfg = parse_config(str(path), ["run.seed=1000"])
    worlds = [load_world(p) for p in sorted((tmp_path / "worlds").glob("seen_*.txt"))]
    demos = load_corpus(tmp_path / "corpus", {w.world_id: w for w in worlds},
                        cfg.reward_config(), cfg["ppo.gamma"])
    assert len(demos) == cfg["corpus.episodes"]


def test_printed_reports_leave_no_file_open(pipeline, tmp_path, capsys):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "printed")
    base = ["--config", cfg_path, "--out", str(alt)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", "--policy", "teacher", *base]) == 0
        assert capsys.readouterr().out == (alt / "eval" / "report.txt").read_text()
        assert main(["sweep", "--axis", "controller", *base]) == 0
        assert capsys.readouterr().out == (alt / "sweep-controller" / "summary.txt").read_text()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_retry_after_failed_command_needs_no_force(pipeline, tmp_path):
    cfg_path, _, _ = pipeline
    base = ["--config", cfg_path, "--out", str(tmp_path / "retry")]
    assert main(["gen-worlds", *base]) == 0
    assert main(["build-corpus", *base, "--set", "world.tier_easy=200,300"]) == 5
    # the failed run left corpus.partial/ behind, and no corpus/
    assert os.path.isdir(tmp_path / "retry" / "corpus.partial")
    assert not os.path.exists(tmp_path / "retry" / "corpus")
    assert main(["build-corpus", *base]) == 0
    assert os.path.isfile(tmp_path / "retry" / "corpus" / "manifest.json")
    assert not os.path.exists(tmp_path / "retry" / "corpus.partial")


def test_failed_force_rebuild_keeps_previous_run(pipeline, tmp_path):
    cfg_path, out, _ = pipeline
    alt = tmp_path / "kept"
    for stage in ("worlds", "corpus"):
        shutil.copytree(os.path.join(out, stage), alt / stage)
    before = _tree_bytes(str(alt / "corpus"), keep_manifest=True)
    base = ["--config", cfg_path, "--out", str(alt)]
    assert main(["build-corpus", "--force", *base, "--set", "world.tier_easy=200,300"]) == 5
    assert _tree_bytes(str(alt / "corpus"), keep_manifest=True) == before
    assert main(["train-il", *base]) == 0


@pytest.mark.parametrize("stage,command,downstream", [
    ("corpus", "build-corpus", (["train-il"],)),
    ("il", "train-il", (["train-rl"], ["eval", "--policy", "il"])),
])
def test_run_without_manifest_is_not_taken_as_input(pipeline, tmp_path, monkeypatch, capsys,
                                                    stage, command, downstream):
    cfg_path, out, _ = pipeline
    alt = tmp_path / "unfinished"
    for upstream in ("worlds", "corpus"):
        if upstream != stage:
            shutil.copytree(os.path.join(out, upstream), alt / upstream)
    base = ["--config", cfg_path, "--out", str(alt)]
    with monkeypatch.context() as m:
        _fail_write(m, "manifest.json")
        assert main([command, *base]) == 6
    assert "No space left on device" in capsys.readouterr().err
    for argv in downstream:
        assert main([*argv, *base]) == 3, argv
        assert command in capsys.readouterr().err


def _aborting(train):
    """train, with its result reporting an abort."""
    return lambda *args, **kwargs: dataclasses.replace(train(*args, **kwargs), aborted=True)


@pytest.mark.parametrize("command,stage,trainer,downstream", [
    ("train-il", "il", "train_stage1", (["train-rl"], ["eval", "--policy", "il"])),
    ("train-rl", "rl", "train_stage2", (["eval", "--policy", "rl"],)),
])
def test_aborted_training_run_is_not_published(pipeline, tmp_path, monkeypatch, capsys,
                                               command, stage, trainer, downstream):
    # the run stays in <stage>.partial/ with its last clean checkpoint and
    # curve, and an earlier finished run is kept as it was
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "aborted", ("worlds", "corpus", "il")[: 2 + (stage == "rl")])
    base = ["--config", cfg_path, "--out", str(alt)]
    partial = alt / f"{stage}.partial"
    aborting = _aborting(getattr(cli, trainer))
    with monkeypatch.context() as m:
        m.setattr(cli, trainer, aborting)
        assert main([command, *base]) == 4
    assert f"kept in {partial}" in capsys.readouterr().err
    assert not (alt / stage).exists()
    assert sorted(os.listdir(partial)) == ["config.txt", f"curve_{stage}.csv", f"policy_{stage}.ckpt"]
    for argv in downstream:
        assert main([*argv, *base]) == 3, argv
        assert command in capsys.readouterr().err
    assert main([command, *base]) == 0
    before = _tree_bytes(str(alt / stage), keep_manifest=True)
    with monkeypatch.context() as m:
        m.setattr(cli, trainer, aborting)
        assert main([command, "--force", *base]) == 4
    assert _tree_bytes(str(alt / stage), keep_manifest=True) == before


def test_sweep_refuses_an_aborted_stage_2_run(pipeline, tmp_path, monkeypatch, capsys):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "sweep_abort")
    monkeypatch.setattr(cli, "train_stage2", _aborting(cli.train_stage2))
    assert main(["sweep", "--axis", "controller", "--config", cfg_path, "--out", str(alt)]) == 4
    assert "sweep arm 'tiered' on seed 0 aborted" in capsys.readouterr().err
    assert not (alt / "sweep-controller").exists()


def test_corpus_for_another_gamma_exits_6(pipeline, tmp_path, capsys):
    # the corpus's value labels are discounted by ppo.gamma, so replay relabels under the config's
    cfg_path, out, _ = pipeline
    alt = tmp_path / "gamma"
    for stage in ("worlds", "corpus"):
        shutil.copytree(os.path.join(out, stage), alt / stage)
    assert main(["train-il", "--config", cfg_path, "--out", str(alt), "--set", "ppo.gamma=0.9"]) == 6
    assert f"{alt / 'corpus' / 'episode_00000.csv'}: line 2 has v_hat" in capsys.readouterr().err


def test_controller_keys_reach_eval_policy(pipeline):
    cfg_path, out, _ = pipeline
    cfg = parse_config(cfg_path, ["model.flat=true", "model.r_prior=6"])
    policy = cli._make_policy(cfg, argparse.Namespace(out=out), "rl")
    assert (policy.flat, policy.r_prior) == (True, 6.0)


def test_checkpoint_for_another_world_size_exits_6(pipeline, capsys):
    _, _, base = pipeline
    # the pipeline trained at 32x32
    assert main(["eval", *base, "--set", "world.width=40", "--set", "world.height=40"]) == 6
    assert "width=32" in capsys.readouterr().err


def test_replay_corpus_episode(pipeline, tmp_path, capsys):
    cfg_path, out, _ = pipeline
    log = sorted(glob.glob(os.path.join(out, "corpus", "episode_*.csv")))[0]
    base = ["--config", cfg_path, "--out", str(tmp_path / "rp")]
    assert main(["gen-worlds", *base]) == 0  # create the out root lazily is fine too
    assert main(["replay", "--log", log, *base]) == 0
    text = capsys.readouterr().out
    assert "waypoint k=" in text
    assert "SUCCESS" in text
    assert "last waypoint" in text and "0.00 cells from g_hat" in text
    replay = Path(tmp_path, "rp", "replay", "replay.txt").read_text()
    assert replay.startswith("== episode episode_00000.csv\n") and text.endswith(replay)


def test_replay_eval_step_log(pipeline, tmp_path, capsys):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "rp_steps", ("worlds",))
    base = ["--config", cfg_path, "--out", str(alt), "--set", "eval.episodes_per_tier=2"]
    assert main(["eval", "--policy", "random", *base]) == 0
    capsys.readouterr()
    assert main(["replay", "--log", str(alt / "eval" / "steps.csv"), *base]) == 0
    text = capsys.readouterr().out
    names = [line.removeprefix("== episode ") for line in text.splitlines() if line.startswith("== episode ")]
    rows = (alt / "eval" / "report.csv").read_text().splitlines()[1:]
    assert len(names) == sum(int(row.split(",")[6]) for row in rows) == 8
    assert names[:2] == ["seen/easy/s0/0", "seen/easy/s0/1"]
    assert text.count("-- ") == 8  # one verdict each, and no g_hat line: a random policy has none
    assert "g_hat" not in text


def test_replay_missing_log_exits_3(pipeline, tmp_path, capsys):
    cfg_path, _, _ = pipeline
    base = ["--config", cfg_path, "--out", str(tmp_path / "rp2")]
    assert main(["replay", "--log", str(tmp_path / "nope.csv"), *base]) == 3
    assert "trajectory log" in capsys.readouterr().err


TRAJ_HEADER = ",".join(TRAJ_COLUMNS)


@pytest.mark.parametrize("body", [
    TRAJ_HEADER + "\n0,1,1,2,0.0,2,0,3,1,0,0,0,0,0.1,x\n",
    TRAJ_HEADER + "\n",
    TRAJ_HEADER + "\n0,1,1,2,0.0,2\n",
    "split,tier,NE,SR,OSR,SPL,n,seeds\nseen,easy,1.0,100.0,100.0,100.0,1,0\n",
    TRAJ_HEADER + ",expert_action,wstar_x,wstar_y,p,v,g_x,g_y\n0,1,1,2,0.0,2,0,3,1,0,0,0,0,0.1,5.0,2,3,1,0.5,0.1,3,1\n",
], ids=["non_numeric", "header_only", "short_row", "foreign_header", "label_columns"])
def test_replay_malformed_log_exits_6(pipeline, tmp_path, capsys, body):
    cfg_path, _, _ = pipeline
    log = tmp_path / "bad.csv"
    log.write_text(body)
    base = ["--config", cfg_path, "--out", str(tmp_path / "rp3")]
    assert main(["replay", "--log", str(log), *base]) == 6
    assert str(log) in capsys.readouterr().err


def test_replay_marks_waypoint_transitions():
    rows = [
        {"t": 0, "x": 0, "y": 0, "z": 2, "theta": 0.0, "action": 2, "k": 1,
         "w_x": 3.0, "w_y": 0.0, "d": 25.0, "g_hat_x": 5.0, "g_hat_y": 0.0},
        {"t": 1, "x": 1, "y": 0, "z": 2, "theta": 0.0, "action": 2, "k": 1,
         "w_x": 3.0, "w_y": 0.0, "d": 20.0, "g_hat_x": 5.0, "g_hat_y": 0.0},
        {"t": 2, "x": 2, "y": 0, "z": 2, "theta": 0.0, "action": 2, "k": 2,
         "w_x": 5.0, "w_y": 0.0, "d": 15.0, "g_hat_x": 5.0, "g_hat_y": 0.0},
        {"t": 3, "x": 5, "y": 0, "z": 2, "theta": 0.0, "action": 5, "k": 2,
         "w_x": 5.0, "w_y": 0.0, "d": 0.0, "g_hat_x": 5.0, "g_hat_y": 0.0},
    ]
    text = render_replay("hand-made", rows, threshold_m=20.0)
    assert text.count("== waypoint k=") == 2
    assert "2 waypoint events" in text
    assert "SUCCESS" in text
    assert "STOP" in text and "FORWARD" in text


def test_sweep_prior_and_controller(pipeline):
    cfg_path, out, base = pipeline
    for axis, arms in (("prior", ["full", "no_prior"]), ("controller", ["tiered", "flat"])):
        assert main(["sweep", "--axis", axis, *base]) == 0
        rows = Path(out, f"sweep-{axis}", "sweep.csv").read_text().splitlines()
        assert rows[0] == "variant,seed,NE,SR,OSR,SPL"
        assert [row.split(",")[:2] for row in rows[1:]] == [[arm, "0"] for arm in arms]
        summary = Path(out, f"sweep-{axis}", "summary.txt").read_text().splitlines()
        assert [line.split()[0] for line in summary[1:]] == arms
    # only the arm without the prior has its own stage-1 policy, trained under its config
    assert [f for f in _manifest(out, "sweep-prior")["files"] if f.endswith(".ckpt")] == ["policy_il_no_prior.ckpt"]
    assert not [f for f in _manifest(out, "sweep-controller")["files"] if f.endswith(".ckpt")]
    cfg = parse_config(cfg_path, ["model.use_prior=false"])
    meta = load_policy_into(cli._build_model(cfg), os.path.join(out, "sweep-prior", "policy_il_no_prior.ckpt"))
    assert (meta["stage"], meta["config_hash"]) == ("il", cfg.hash())


def _record_sweep(monkeypatch):
    """Record what each stage-1 run, stage-2 run and benchmark of a sweep was given."""
    calls = {"replay": [], "stage1": [], "stage2": [], "bench": []}

    def replay(corpus_dir, worlds_by_id, reward_cfg, gamma):
        calls["replay"].append(corpus_dir)
        return load_corpus(corpus_dir, worlds_by_id, reward_cfg, gamma)

    def stage1(demos, worlds, policy, cfg):
        calls["stage1"].append(policy.r_prior)
        return train_stage1(demos, worlds, policy, cfg)

    def stage2(policy, worlds, ppo, *args, **kwargs):
        calls["stage2"].append((policy.flat, policy.r_prior, ppo.lambda_rl, kwargs["seed"]))
        return train_stage2(policy, worlds, ppo, *args, **kwargs)

    def bench(policy, *args, **kwargs):
        calls["bench"].append((policy.flat, policy.r_prior, kwargs["mode"]))
        return run_benchmark(policy, *args, **kwargs)

    monkeypatch.setattr(cli, "load_corpus", replay)
    monkeypatch.setattr(cli, "train_stage1", stage1)
    monkeypatch.setattr(cli, "train_stage2", stage2)
    monkeypatch.setattr(cli, "run_benchmark", bench)
    return calls


# axis -> each arm's (flat, r_prior, lambda_rl) on the smoke config
SWEEP_ARMS = {
    "lambda_rl": [(False, 12.0, 0.0), (False, 12.0, 0.2)],
    "prior": [(False, 12.0, 0.2), (False, None, 0.2)],
    "controller": [(False, 12.0, 0.2), (True, 12.0, 0.2)],
}


@pytest.mark.parametrize("axis", sorted(SWEEP_ARMS))
def test_sweep_trains_each_arm_on_each_seed(pipeline, tmp_path, monkeypatch, axis):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "arms")
    calls = _record_sweep(monkeypatch)
    base = ["--config", cfg_path, "--out", str(alt), "--set", "sweep.seeds=3,5"]
    assert main(["sweep", "--axis", axis, *base]) == 0
    arms = SWEEP_ARMS[axis]
    assert calls["stage2"] == [(flat, prior, lam, seed) for flat, prior, lam in arms for seed in (3, 5)]
    assert calls["bench"] == [(flat, prior, "greedy") for flat, prior, _ in arms for _ in (3, 5)]
    # one corpus replay per sweep; stage 1 only for the arm whose prior differs, under its prior
    assert len(calls["replay"]) == 1
    assert calls["stage1"] == [prior for _, prior, _ in arms[1:] if axis == "prior"]


def test_sweep_requires_il(pipeline, tmp_path, capsys):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "no_il", ("worlds", "corpus"))
    assert main(["sweep", "--axis", "controller", "--config", cfg_path, "--out", str(alt)]) == 3
    assert "train-il" in capsys.readouterr().err
    assert not os.path.exists(alt / "sweep-controller.partial")


def test_sweeps_evaluate_with_eval_flat(pipeline, tmp_path, monkeypatch):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "flat_eval")
    calls = _record_sweep(monkeypatch)
    base = ["--config", cfg_path, "--out", str(alt), "--set", "model.flat=true"]
    assert main(["sweep", "--axis", "lambda_rl", *base]) == 0
    assert main(["sweep", "--axis", "prior", *base]) == 0
    # two lambdas x one seed, then the two prior arms
    assert [flat for flat, *_ in calls["stage2"]] == [flat for flat, *_ in calls["bench"]] == [True] * 4


def test_sweeps_evaluate_with_eval_keys(pipeline, tmp_path, monkeypatch):
    cfg_path, out, _ = pipeline
    alt = _stage_copy(out, tmp_path / "keyed_eval")
    calls = _record_sweep(monkeypatch)
    base = ["--config", cfg_path, "--out", str(alt), "--set", "eval.mode=sample", "--set", "model.r_prior=6",
            "--set", "model.use_prior=false"]
    for axis in ("prior", "controller"):
        assert main(["sweep", "--axis", axis, *base]) == 0, axis
    assert calls["bench"] == [(False, 6.0, "sample"), (False, None, "sample"),
                              (False, None, "sample"), (True, None, "sample")]
    assert [key[:2] for key in calls["stage2"]] == [key[:2] for key in calls["bench"]]
    # without the prior in the config, the arm that restores it trains its own stage 1
    assert calls["stage1"] == [6.0]
    assert "policy_il_full.ckpt" in _manifest(str(alt), "sweep-prior")["files"]


def test_sweeps_name_the_split_they_evaluate(pipeline, tmp_path):
    cfg_path, _, _ = pipeline
    root = tmp_path / "seen_only"
    base = ["--config", cfg_path, "--out", str(root), "--set", "world.n_unseen=0"]
    for argv in (["gen-worlds"], ["build-corpus"], ["train-il"],
                 ["sweep", "--axis", "lambda_rl"], ["sweep", "--axis", "prior"]):
        assert main([*argv, *base]) == 0, argv
    for axis in ("lambda_rl", "prior"):
        summary = (root / f"sweep-{axis}" / "summary.txt").read_text()
        assert summary.startswith(f"{axis} sweep, seen-world means")


def test_sweep_lambda_axis(pipeline):
    cfg_path, out, base = pipeline
    assert main(["sweep", "--axis", "lambda_rl", *base,
                 "--set", "ppo.max_updates=1", "--set", "eval.episodes_per_tier=1"]) == 0
    rows = Path(os.path.join(out, "sweep-lambda_rl", "sweep.csv")).read_text().splitlines()
    assert rows[0] == "variant,seed,NE,SR,OSR,SPL"
    assert [row.split(",")[:2] for row in rows[1:]] == [["lambda=0.0", "0"], ["lambda=0.2", "0"]]
    summary = Path(os.path.join(out, "sweep-lambda_rl", "summary.txt")).read_text()
    assert "lambda=0.0" in summary and "lambda=0.2" in summary


def test_gen_worlds_deterministic(pipeline, tmp_path):
    cfg_path, out, _ = pipeline
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for target in (a, b):
        assert main(["gen-worlds", "--config", cfg_path, "--out", target]) == 0
    wa = Path(os.path.join(a, "worlds", "seen_00.txt")).read_text()
    wb = Path(os.path.join(b, "worlds", "seen_00.txt")).read_text()
    assert wa == wb
    assert wa == Path(os.path.join(out, "worlds", "seen_00.txt")).read_text()


def test_il_checkpoint_deterministic(pipeline, tmp_path):
    cfg_path, out, _ = pipeline
    alt = str(tmp_path / "redo")
    base = ["--config", cfg_path, "--out", alt]
    for cmd in ("gen-worlds", "build-corpus", "train-il"):
        assert main([cmd, *base]) == 0
    a = Path(os.path.join(out, "il", "policy_il.ckpt")).read_bytes()
    b = Path(os.path.join(alt, "il", "policy_il.ckpt")).read_bytes()
    assert a == b


def _tree_bytes(root, keep_manifest=False):
    out = {}
    for p in glob.glob(os.path.join(root, "**", "*"), recursive=True):
        if os.path.isfile(p) and (keep_manifest or os.path.basename(p) != "manifest.json"):
            out[os.path.relpath(p, root)] = Path(p).read_bytes()
    return out


def test_two_runs_are_byte_identical(pipeline, tmp_path):
    cfg_path, _, _ = pipeline
    trees = []
    for name in ("a", "b"):
        base = ["--config", cfg_path, "--out", str(tmp_path / name)]
        for argv in (["gen-worlds"], ["build-corpus"], ["train-il"], ["train-rl"], ["eval"],
                     ["sweep", "--axis", "prior"]):
            assert main([*argv, *base]) == 0, argv
        trees.append(_tree_bytes(str(tmp_path / name)))
    a, b = trees
    assert os.path.join("sweep-prior", "policy_il_no_prior.ckpt") in a
    assert not [name for name in a if name.endswith(".tmp")]
    assert sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []


def test_training_bytes_do_not_depend_on_conv_way_count(pipeline, tmp_path, monkeypatch):
    cfg_path, out, _ = pipeline
    blocks = []
    for_each_block = ad._for_each_block

    def spy(fn, bs):
        blocks.append(len(bs))
        return for_each_block(fn, bs)

    monkeypatch.setattr(ad, "_for_each_block", spy)
    # the smoke shapes fit one block; one-sample blocks make every batched conv split
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 1)
    trees = []
    for ways in (1, 2):
        monkeypatch.setattr(ad, "_ways", lambda ways=ways: ways)
        root = _stage_copy(out, tmp_path / f"ways{ways}", stages=("worlds", "corpus"))
        for cmd in ("train-il", "train-rl"):
            assert main([cmd, "--config", cfg_path, "--out", str(root)]) == 0, (ways, cmd)
        trees.append({stage: _tree_bytes(str(root / stage)) for stage in ("il", "rl")})
    assert max(blocks) > 1
    one, two = trees
    for stage in ("il", "rl"):
        assert "config.txt" in one[stage]
        assert sorted(one[stage]) == sorted(two[stage])
        assert [name for name in one[stage] if one[stage][name] != two[stage][name]] == [], stage


@pytest.fixture(scope="module")
def every_command(pipeline, tmp_path_factory):
    """Every subcommand and sweep axis on a fresh root, with config key reads recorded."""
    cfg_path, _, _ = pipeline
    root = tmp_path_factory.mktemp("every_command")
    out = root / "out"
    base = ["--config", cfg_path, "--out", str(out)]
    read = set()
    getitem = ExperimentConfig.__getitem__

    def recording(self, key):
        read.add(key)
        return getitem(self, key)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ExperimentConfig, "__getitem__", recording)
        # eval names every tier, so each world.tier_<name> bracket is read
        for argv in (["gen-worlds"], ["build-corpus"], ["train-il"], ["train-rl"],
                     ["eval", "--set", f"eval.tiers={','.join(TIERS)}"],
                     ["sweep", "--axis", "lambda_rl"], ["sweep", "--axis", "prior"],
                     ["sweep", "--axis", "controller"],
                     ["replay", "--log", str(out / "corpus" / "episode_00000.csv")]):
            assert main([*argv, *base]) == 0, argv
        # without --out the output root is run.out, relative to the working directory
        m.chdir(root)
        assert main(["gen-worlds", "--config", cfg_path]) == 0
    return root, read


def test_every_schema_key_is_read(every_command):
    _, read = every_command
    assert sorted(set(SCHEMA) - read) == []


def test_finished_commands_leave_no_partial_run(every_command):
    root, _ = every_command
    assert glob.glob(os.path.join(root, "**", "*.partial*"), recursive=True) == []
    runs = glob.glob(os.path.join(root, "out", "*")) + glob.glob(os.path.join(root, "runs", "exp", "*"))
    assert len(runs) == 10
    for run in runs:
        assert os.path.isfile(os.path.join(run, "manifest.json")), run
        on_disk = sorted(os.path.relpath(p, run) for p in glob.glob(os.path.join(run, "**", "*"), recursive=True)
                         if os.path.isfile(p))
        with open(os.path.join(run, "manifest.json")) as f:
            assert json.load(f)["files"] == [name for name in on_disk if name != "manifest.json"], run
    # a corpus is its episode index and logs; every count and setting is in config.txt or the index
    episodes = parse_config(os.path.join(root, "out", "corpus", "config.txt"), [])["corpus.episodes"]
    assert sorted(os.listdir(os.path.join(root, "out", "corpus"))) == \
        ["config.txt", *(f"episode_{i:05d}.csv" for i in range(episodes)), "episodes.jsonl", "manifest.json"]
