import math
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from tiernav.cli import main
from tiernav.config import SCHEMA, _render_value, parse_config
from tiernav.errors import ConfigError
from tiernav.training import PPOConfig, Stage1Config
from tiernav.world import RewardConfig, WorldConfig


def _write(tmp_path, text, name="exp.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_no_file_gives_defaults():
    cfg = parse_config(None, [])
    assert cfg["ppo.lambda_rl"] == PPOConfig().lambda_rl
    assert cfg["reward.eta"] == RewardConfig().eta
    assert cfg["world.width"] == WorldConfig().width
    assert cfg["il.epochs"] == Stage1Config().epochs
    assert cfg["eval.threshold_m"] == 20.0


def test_empty_file_gives_defaults(tmp_path):
    path = _write(tmp_path, "# nothing but comments\n\n   \n")
    cfg = parse_config(path, [])
    for key, entry in SCHEMA.items():
        assert cfg[key] == entry.default, key


def test_override_beats_file_beats_default(tmp_path):
    path = _write(tmp_path, "ppo.lambda_rl = 0.2\n")
    assert parse_config(path, [])["ppo.lambda_rl"] == 0.2
    assert parse_config(path, ["ppo.lambda_rl=0.3"])["ppo.lambda_rl"] == 0.3
    assert parse_config(None, [])["ppo.lambda_rl"] == PPOConfig().lambda_rl


def test_lambda_rl_range_error_cites_constraint(tmp_path):
    path = _write(tmp_path, "# header\nppo.lambda_rl = 1.5\n")
    with pytest.raises(ConfigError) as e:
        parse_config(path, [])
    msg = str(e.value)
    assert "λ_RL ∈ [0,1]" in msg
    assert ":2" in msg  # names the offending line
    with pytest.raises(ConfigError, match="λ_RL"):
        parse_config(None, ["ppo.lambda_rl=-0.1"])


def test_unknown_key_named(tmp_path):
    path = _write(tmp_path, "ppo.lambda = 0.2\n")
    with pytest.raises(ConfigError) as e:
        parse_config(path, [])
    assert "unknown key" in str(e.value) and "ppo.lambda" in str(e.value)
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(None, ["nope=1"])


@pytest.mark.parametrize("via", ["file", "set"])
@pytest.mark.parametrize("key", ["ppo.flat", "ppo.use_prior", "ppo.r_prior",
                                 "eval.flat", "eval.use_prior", "eval.r_prior", "ppo.lambda_v",
                                 "eval.write_trajectories", "model.feed_goal_to_waypoint",
                                 "model.avoid_blocked", "model.replan_patience", "reward.heading_reference",
                                 "il.early_stop_ratio", "ppo.probe_every"])
def test_stage_copies_of_model_keys_exit_2(tmp_path, capsys, key, via):
    # a removed key is refused: one model.* key each replaced the stage
    # copies, stage 2 weighs its value term by il.lambda_v, eval writes
    # each trajectory once, in steps.csv, and the controller guards, the
    # waypoint head's goal input, the heading reference, IL early stopping
    # and the probe interval are fixed behaviour
    bools = ("flat", "use_prior", "write_trajectories", "feed_goal_to_waypoint", "avoid_blocked")
    value = {"model.replan_patience": "5", "ppo.probe_every": "2",
             "reward.heading_reference": "current_waypoint"}.get(key, "true" if key.endswith(bools) else "0.05")
    if via == "file":
        argv = ["--config", _write(tmp_path, f"{key} = {value}\n")]
    else:
        argv = ["--set", f"{key}={value}"]
    assert main(["gen-worlds", *argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


REPO = Path(__file__).resolve().parent.parent
COMMITTED_CONFIGS = sorted([*(REPO / "perfbench").glob("*.cfg"), *(REPO / "experiments").glob("*.cfg")])


@pytest.mark.parametrize("path", COMMITTED_CONFIGS, ids=lambda p: p.name)
def test_benchmark_configs_parse(path):
    # a key removed from SCHEMA that a benchmark or experiment config still
    # sets fails here, not only in a traced benchmark run or a desk gate
    parse_config(str(path), [])


def test_type_mismatch_names_line(tmp_path):
    path = _write(tmp_path, "world.width = twelve\n")
    with pytest.raises(ConfigError) as e:
        parse_config(path, [])
    assert "world.width" in str(e.value) and ":1" in str(e.value)
    with pytest.raises(ConfigError, match="integer"):
        parse_config(None, ["world.width=3.5"])


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "absent.txt"), [])


def test_malformed_line_rejected(tmp_path):
    path = _write(tmp_path, "just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path, [])
    with pytest.raises(ConfigError, match="override 2: 'just some words': expected key = value"):
        parse_config(None, ["run.seed=3", "just some words"])


def test_comments_and_inline_comments(tmp_path):
    path = _write(tmp_path, "# full line\nppo.lr = 0.001  # inline\n")
    assert parse_config(path, [])["ppo.lr"] == 0.001


def test_bool_and_list_parsing():
    cfg = parse_config(None, ["model.use_prior=false", "eval.seeds=4, 5,6",
                              "model.enc_widths=4,8", "sweep.lambdas=0.0,0.25"])
    assert cfg["model.use_prior"] is False
    assert cfg["eval.seeds"] == (4, 5, 6)
    assert cfg["model.enc_widths"] == (4, 8)
    assert cfg["sweep.lambdas"] == (0.0, 0.25)
    with pytest.raises(ConfigError, match="true or false"):
        parse_config(None, ["model.use_prior=maybe"])


def test_bracket_parsing():
    cfg = parse_config(None, ["world.tier_hard=14,22"])
    assert cfg["world.tier_hard"] == (14.0, 22.0)
    assert cfg.tiers("eval.tiers") == {"easy": (8.0, 24.0), "medium": (24.0, 48.0), "hard": (14.0, 22.0)}
    cfg = parse_config(None, ["world.tier_hard=48,inf"])
    assert cfg["world.tier_hard"] == (48.0, math.inf)
    with pytest.raises(ConfigError, match="lo < hi"):
        parse_config(None, ["world.tier_easy=9,9"])


def test_choice_keys():
    with pytest.raises(ConfigError, match="one of"):
        parse_config(None, ["eval.mode=nuts"])
    assert parse_config(None, ["eval.mode=sample"])["eval.mode"] == "sample"


def test_gamma_open_interval():
    with pytest.raises(ConfigError, match="γ"):
        parse_config(None, ["ppo.gamma=1.0"])
    with pytest.raises(ConfigError, match="γ"):
        parse_config(None, ["ppo.gamma=0.0"])


def test_delta_must_be_nonpositive():
    with pytest.raises(ConfigError, match="reward.delta"):
        parse_config(None, ["reward.delta=0.5"])


@pytest.mark.parametrize("key,value", [("ppo.lambda_gae", "1.2"), ("ppo.eps_clip", "0"), ("reward.d_goal", "0")])
def test_out_of_schema_value_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config(None, [f"{key}={value}"])


def test_tier_name_validation(tmp_path):
    with pytest.raises(ConfigError, match="unknown tier"):
        parse_config(None, ["corpus.tiers=easy,bogus"])
    with pytest.raises(ConfigError, match="names no tiers"):
        parse_config(None, ["eval.tiers=,"])
    # a tier list is a mapping, so a repeat has nowhere to go
    with pytest.raises(ConfigError, match="'easy' named twice"):
        parse_config(None, ["ppo.tiers=easy,medium,easy"])
    for argv in (["--set", "eval.tiers=easy,bogus"], ["--set", "corpus.tiers=hard,hard"]):
        assert main(["gen-worlds", *argv, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["file", "set"])
@pytest.mark.parametrize("key,value,twice", [("eval.seeds", "0,0", "0"), ("sweep.seeds", "3,5,3", "3"),
                                             ("sweep.lambdas", "0.2,0.0,0.20", "0.2")])
def test_repeated_list_value_exits_2(tmp_path, capsys, key, value, twice, via):
    # each value is one eval seed, stage-2 seed or sweep arm: a repeat would
    # play its episodes twice or overwrite its results under the same name
    if via == "file":
        argv, where = ["--config", _write(tmp_path, f"# header\n{key} = {value}\n")], ":2"
    else:
        argv, where = ["--set", f"{key}={value}"], "override 1"
    assert main(["gen-worlds", *argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{key} names {twice} twice" in err and where in err
    assert not (tmp_path / "out").exists()


def test_encoder_widths_may_repeat():
    assert parse_config(None, ["model.enc_widths=8,8"])["model.enc_widths"] == (8, 8)


def test_render_round_trip(tmp_path):
    cfg = parse_config(None, ["ppo.lr=1e-4", "eval.seeds=9", "world.tier_hard=48,inf",
                              "reward.goal_bonus_on_stop=true"])
    path = tmp_path / "echo.txt"
    path.write_text(cfg.render())
    again = parse_config(str(path), [])
    assert again.render() == cfg.render()
    assert again.hash() == cfg.hash()
    assert again["ppo.lr"] == 1e-4


def test_hash_tracks_values():
    a = parse_config(None, [])
    b = parse_config(None, ["ppo.lambda_rl=0.1"])
    assert a.hash() != b.hash()
    assert a.hash() == parse_config(None, []).hash()


def test_typed_views_match_dataclasses():
    cfg = parse_config(None, [])
    assert cfg.world_config() == WorldConfig()
    ppo = cfg.ppo_config()
    assert ppo == PPOConfig()
    s1 = cfg.stage1_config()
    assert s1 == Stage1Config()
    r = cfg.reward_config()
    assert r == RewardConfig()


SECTIONS = ((WorldConfig, "world"), (RewardConfig, "reward"), (PPOConfig, "ppo"), (Stage1Config, "il"))


@pytest.mark.parametrize("cls,section", SECTIONS, ids=[section for _, section in SECTIONS])
def test_each_field_is_the_key_of_its_name(cls, section):
    # run.seed is the one field not named after a key of its section
    for f in fields(cls):
        if f.name == "seed":
            continue
        key = f"{section}.{f.name}"
        assert key in SCHEMA, key
        entry = SCHEMA[key]
        default = f.default_factory() if f.default is MISSING else f.default
        if isinstance(default, dict):  # ppo.tiers: a tier list is rendered by its names
            default = ",".join(default)
        assert _render_value(entry, default) == _render_value(entry, entry.default), key


def test_views_carry_set_keys():
    cfg = parse_config(None, ["ppo.tiers=hard,easy", "ppo.lambda_gae=0.5", "ppo.minibatch=7",
                              "ppo.checkpoint_every=3", "il.minibatch=5", "il.lambda_wp=0.25",
                              "world.max_retries=9", "reward.r_max=4.5", "run.seed=11"])
    ppo = cfg.ppo_config()
    assert (list(ppo.tiers.items()), ppo.lambda_gae, ppo.minibatch, ppo.checkpoint_every) == \
        ([("hard", (48.0, math.inf)), ("easy", (8.0, 24.0))], 0.5, 7, 3)
    s1 = cfg.stage1_config()
    assert (s1.minibatch, s1.lambda_wp, s1.seed) == (5, 0.25, 11)
    assert cfg.world_config().max_retries == 9
    assert cfg.reward_config().r_max == 4.5


def test_echo_writes_config(tmp_path):
    cfg = parse_config(None, ["run.seed=9"])
    p = cfg.echo(str(tmp_path))
    assert p.endswith("config.txt")
    assert "run.seed = 9" in (tmp_path / "config.txt").read_text()
