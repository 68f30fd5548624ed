import argparse
import glob
import json
import os
import shutil
import warnings
from pathlib import Path

import pytest

from tiernav import cli
from tiernav.cli import main, render_replay
from tiernav.config import parse_config
from tiernav.errors import NumericsError, ShapeError, StateError
from tiernav.evaluation import ablation_suite, run_benchmark
from tiernav.teacher import TRAJ_COLUMNS

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
eval.write_trajectories = true
sweep.lambdas = 0.0,0.2
sweep.seeds = 0
"""


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
    assert glob.glob(os.path.join(out, "eval", "trajectories", "*.csv"))
    m = _manifest(out, "eval")
    assert any(f.startswith("trajectories") for f in m["files"])


def test_eval_teacher_needs_no_checkpoint(pipeline, tmp_path):
    cfg_path, out, _ = pipeline
    alt = str(tmp_path / "teacher_out")
    base = ["--config", cfg_path, "--out", alt]
    assert main(["gen-worlds", *base]) == 0
    assert main(["eval", "--policy", "teacher", *base,
                 "--set", "eval.write_trajectories=false"]) == 0
    text = Path(os.path.join(alt, "eval", "report.txt")).read_text()
    for line in text.splitlines():
        if line.startswith(("seen", "unseen")):
            assert " 100.00" in line  # SR column


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


def test_interrupted_corpus_is_not_taken_as_input(pipeline, tmp_path, monkeypatch, capsys):
    from tiernav import util

    cfg_path, _, _ = pipeline
    base = ["--config", cfg_path, "--out", str(tmp_path / "cut")]
    assert main(["gen-worlds", *base]) == 0

    def failing_open(path, mode="r", *args, **kwargs):
        if "w" in mode and os.path.basename(path) == "episode_00001.csv.tmp":
            raise OSError(28, "No space left on device")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(util, "open", failing_open, raising=False)
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


def test_printed_reports_leave_no_file_open(pipeline, tmp_path, capsys):
    cfg_path, out, _ = pipeline
    alt = tmp_path / "printed"
    for stage in ("worlds", "rl"):
        shutil.copytree(os.path.join(out, stage), alt / stage)
    base = ["--config", cfg_path, "--out", str(alt)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", "--policy", "teacher", *base, "--set", "eval.write_trajectories=false"]) == 0
        assert capsys.readouterr().out == (alt / "eval" / "report.txt").read_text()
        assert main(["sweep", "--axis", "controller", *base]) == 0
        assert capsys.readouterr().out == (alt / "sweep-controller" / "ablation.txt").read_text()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_retry_after_failed_command_needs_no_force(pipeline, tmp_path):
    cfg_path, _, _ = pipeline
    base = ["--config", cfg_path, "--out", str(tmp_path / "retry")]
    assert main(["gen-worlds", *base]) == 0
    assert main(["build-corpus", *base, "--set", "world.tier_easy=200,300"]) == 5
    # the failed run left corpus/ without a manifest.json behind
    assert main(["build-corpus", *base]) == 0
    assert os.path.isfile(os.path.join(str(tmp_path / "retry"), "corpus", "manifest.json"))


def test_controller_keys_reach_eval_policy(pipeline):
    cfg_path, out, _ = pipeline
    cfg = parse_config(cfg_path, ["model.avoid_blocked=false", "model.replan_patience=5"])
    policy = cli._make_policy(cfg, argparse.Namespace(out=out), "rl")
    assert policy.avoid_blocked is False
    assert policy.replan_patience == 5


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
    assert "last waypoint" in text and "0.00 cells from the goal" in text
    assert os.path.isfile(os.path.join(str(tmp_path / "rp"), "replay", "replay.txt"))


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
], ids=["non_numeric", "header_only", "short_row", "foreign_header"])
def test_replay_malformed_log_exits_6(pipeline, tmp_path, capsys, body):
    cfg_path, _, _ = pipeline
    log = tmp_path / "bad.csv"
    log.write_text(body)
    base = ["--config", cfg_path, "--out", str(tmp_path / "rp3")]
    assert main(["replay", "--log", str(log), *base]) == 6
    assert str(log) in capsys.readouterr().err


def test_replay_marks_waypoint_transitions():
    header = ("t", "x", "y", "z", "theta", "action", "k", "w_x", "w_y",
              "g_hat_x", "g_hat_y", "p_hat", "v_hat", "r", "d", "g_x", "g_y")
    rows = [
        {"t": 0, "x": 0, "y": 0, "z": 2, "theta": 0.0, "action": 2, "k": 1,
         "w_x": 3.0, "w_y": 0.0, "d": 25.0, "g_x": 5.0, "g_y": 0.0},
        {"t": 1, "x": 1, "y": 0, "z": 2, "theta": 0.0, "action": 2, "k": 1,
         "w_x": 3.0, "w_y": 0.0, "d": 20.0, "g_x": 5.0, "g_y": 0.0},
        {"t": 2, "x": 2, "y": 0, "z": 2, "theta": 0.0, "action": 2, "k": 2,
         "w_x": 5.0, "w_y": 0.0, "d": 15.0, "g_x": 5.0, "g_y": 0.0},
        {"t": 3, "x": 5, "y": 0, "z": 2, "theta": 0.0, "action": 5, "k": 2,
         "w_x": 5.0, "w_y": 0.0, "d": 0.0, "g_x": 5.0, "g_y": 0.0},
    ]
    text = render_replay(rows, header, threshold_m=20.0)
    assert text.count("== waypoint k=") == 2
    assert "2 waypoint events" in text
    assert "SUCCESS" in text
    assert "STOP" in text and "FORWARD" in text


def test_sweep_prior_and_controller(pipeline, monkeypatch):
    cfg_path, out, base = pipeline
    assert main(["sweep", "--axis", "prior", *base]) == 0
    text = Path(os.path.join(out, "sweep-prior", "ablation.txt")).read_text()
    assert "full" in text and "no_prior" in text
    assert main(["sweep", "--axis", "controller", *base]) == 0
    text = Path(os.path.join(out, "sweep-controller", "summary.txt")).read_text()
    assert "tiered" in text and "flat" in text


def test_sweeps_evaluate_with_eval_flat(pipeline, tmp_path, monkeypatch):
    cfg_path, out, _ = pipeline
    alt = tmp_path / "flat_eval"
    for stage in ("worlds", "corpus", "il", "rl"):
        shutil.copytree(os.path.join(out, stage), alt / stage)
    flats = []

    def recording_benchmark(policy, *args, **kwargs):
        flats.append(policy.flat)
        return run_benchmark(policy, *args, **kwargs)

    def recording_suite(variants, *args, **kwargs):
        flats.extend(policy.flat for policy in variants.values())
        return ablation_suite(variants, *args, **kwargs)

    monkeypatch.setattr(cli, "run_benchmark", recording_benchmark)
    monkeypatch.setattr(cli, "ablation_suite", recording_suite)
    base = ["--config", cfg_path, "--out", str(alt), "--set", "eval.flat=true"]
    assert main(["sweep", "--axis", "lambda_rl", *base]) == 0
    assert main(["sweep", "--axis", "prior", *base]) == 0
    assert flats == [True] * 4  # two lambdas x one seed, then the two prior variants


def test_sweeps_evaluate_with_eval_keys(pipeline, tmp_path, monkeypatch):
    cfg_path, out, _ = pipeline
    alt = tmp_path / "keyed_eval"
    for stage in ("worlds", "corpus", "il", "rl"):
        shutil.copytree(os.path.join(out, stage), alt / stage)
    bench_kwargs, suite_options = [], []

    def recording_benchmark(*args, **kwargs):
        bench_kwargs.append(kwargs)
        return run_benchmark(*args, **kwargs)

    def recording_suite(*args, **kwargs):
        suite_options.append(kwargs["options"])
        return ablation_suite(*args, **kwargs)

    monkeypatch.setattr(cli, "run_benchmark", recording_benchmark)
    monkeypatch.setattr(cli, "ablation_suite", recording_suite)
    base = ["--config", cfg_path, "--out", str(alt), "--set", "eval.mode=sample", "--set", "eval.r_prior=6"]
    for axis in ("lambda_rl", "prior", "controller"):
        assert main(["sweep", "--axis", axis, *base]) == 0, axis
    keyed = {"mode": "sample", "use_prior": True, "r_prior": 6.0}
    assert len(bench_kwargs) == 2  # two lambdas x one seed
    for kwargs in bench_kwargs:
        assert {k: kwargs[k] for k in keyed} == keyed
    assert suite_options == [
        {"full": keyed, "no_prior": {**keyed, "use_prior": False}},
        {"tiered": keyed, "flat": keyed},
    ]


def test_sweep_lambda_axis(pipeline):
    cfg_path, out, base = pipeline
    assert main(["sweep", "--axis", "lambda_rl", *base,
                 "--set", "ppo.max_updates=1", "--set", "eval.episodes_per_tier=1"]) == 0
    rows = Path(os.path.join(out, "sweep-lambda_rl", "sweep.csv")).read_text().splitlines()
    assert rows[0] == "lambda_rl,seed,SR"
    assert len(rows) == 1 + 2  # two lambdas x one seed
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


def _tree_bytes(root):
    out = {}
    for p in glob.glob(os.path.join(root, "**", "*"), recursive=True):
        if os.path.isfile(p) and os.path.basename(p) != "manifest.json":
            out[os.path.relpath(p, root)] = Path(p).read_bytes()
    return out


def test_two_runs_are_byte_identical(pipeline, tmp_path):
    cfg_path, _, _ = pipeline
    trees = []
    for name in ("a", "b"):
        base = ["--config", cfg_path, "--out", str(tmp_path / name)]
        for cmd in ("gen-worlds", "build-corpus", "train-il", "train-rl", "eval"):
            assert main([cmd, *base]) == 0, cmd
        trees.append(_tree_bytes(str(tmp_path / name)))
    a, b = trees
    assert any(name.startswith(os.path.join("eval", "trajectories")) for name in a)
    assert not [name for name in a if name.endswith(".tmp")]
    assert sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []
