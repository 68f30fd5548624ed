"""Command-line front end: world generation through evaluation.

Each subcommand owns one subdirectory of the output root, writes its
artifacts plus an echoed config there, and finishes with a manifest
naming every produced file. Re-running a command refuses to touch a
finished run directory (one with its manifest.json) unless --force is
passed, so finished runs stay immutable; a directory without one is
the leftover of a failed command and is replaced. Exit codes: 0 ok,
2 bad configuration, 3 missing prerequisite artifact, 4 numerical
failure during training, 5 no feasible world or episode (generation
retries exhausted, or no path), 6 unreadable, corrupt or inconsistent
files (an I/O error, or artifacts that contradict each other or the
config), 7 model shape or state error (tensor shapes that do not fit an
operation, or a layer used before its state was populated).
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import sys
import time

from . import __version__
from .agent import (
    NavPolicy,
    NeuralPolicy,
    RandomPolicy,
    TeacherPolicy,
    load_policy_into,
    save_policy,
)
from .config import parse_config
from .errors import (
    ConfigError,
    ContractError,
    GenerationError,
    InfeasibleError,
    MissingPrerequisiteError,
    NumericsError,
    ShapeError,
    StateError,
)
from .evaluation import (
    ablation_suite,
    aggregate,
    render_ablation_table,
    render_table,
    run_benchmark,
    write_ablation_table,
    write_benchmark_csv,
    write_benchmark_table,
    write_episode_trajectories,
    write_step_log,
)
from .teacher import build_dataset, load_corpus, read_trajectory_log, save_corpus
from .training import (
    IL_CURVE_COLUMNS,
    train_stage1,
    train_stage2,
    write_curve,
)
from .util import atomic_write, substream
from .world import Action, generate_world, load_world, sample_episode, save_world


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _run_root(cfg, args) -> str:
    return args.out if args.out else cfg["run.out"]


def _begin_run(cfg, args, name: str) -> str:
    d = os.path.join(_run_root(cfg, args), name)
    if os.path.exists(d):
        # without a manifest the directory is a failed command's leftover
        if os.path.exists(os.path.join(d, "manifest.json")) and not args.force:
            raise ConfigError(f"run directory {d} already exists; pass --force to replace it")
        shutil.rmtree(d)
    os.makedirs(d)
    cfg.echo(d)
    return d


def _finish_run(run_dir: str, command: str, cfg, started: str, files):
    manifest = {
        "command": command,
        "config_hash": cfg.hash(),
        "version": __version__,
        "started": started,
        "ended": _now(),
        "files": sorted(set(list(files) + ["config.txt"])),
    }
    path = os.path.join(run_dir, "manifest.json")
    atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _require(path: str, producer: str):
    if not os.path.exists(path):
        raise MissingPrerequisiteError(
            f"{path} not found: this command requires {producer} output; run 'tiernav {producer}' first"
        )


def _load_worlds(cfg, args, split: str):
    d = os.path.join(_run_root(cfg, args), "worlds")
    _require(os.path.join(d, "manifest.json"), "gen-worlds")
    paths = sorted(glob.glob(os.path.join(d, f"{split}_*.txt")))
    return [load_world(p) for p in paths]


def _patch_side(cfg) -> int:
    return 2 * (cfg["world.r_base"] + cfg["world.r_gain"] * cfg["world.z_max"]) + 1


def _build_model(cfg) -> NavPolicy:
    return NavPolicy(
        substream(cfg["run.seed"], "model"),
        cfg["world.width"], cfg["world.height"], cfg["world.z_max"],
        cfg["world.n_landmarks"], _patch_side(cfg),
        enc_widths=cfg["model.enc_widths"],
        d_map=cfg["model.d_map"], d_obs=cfg["model.d_obs"],
        d_state=cfg["model.d_state"], d_desc=cfg["model.d_desc"],
        trunk_hidden=cfg["model.trunk_hidden"],
        micro_hidden=cfg["model.micro_hidden"],
        feed_goal_to_waypoint=cfg["model.feed_goal_to_waypoint"],
    )


def _controller(cfg) -> dict:
    """Controller settings shared by every NeuralPolicy."""
    return {"avoid_blocked": cfg["model.avoid_blocked"], "replan_patience": cfg["model.replan_patience"]}


def _eval_policy(cfg, model) -> NeuralPolicy:
    return NeuralPolicy(model, flat=cfg["eval.flat"], **_controller(cfg))


def _load_checkpoint_model(cfg, args, stage: str) -> NavPolicy:
    path = os.path.join(_run_root(cfg, args), stage, f"policy_{stage}.ckpt")
    _require(path, f"train-{stage}")
    model = _build_model(cfg)
    load_policy_into(model, path)
    return model


# ----------------------------------------------------------------- commands


def cmd_gen_worlds(cfg, args) -> int:
    started = _now()
    run_dir = _begin_run(cfg, args, "worlds")
    wc = cfg.world_config()
    files = []
    for split, count in (("seen", cfg["world.n_seen"]), ("unseen", cfg["world.n_unseen"])):
        for i in range(count):
            seed = int(substream(cfg["run.seed"], "worldgen", split, i).integers(2**31))
            world = generate_world(seed, wc)
            name = f"{split}_{i:02d}.txt"
            save_world(world, os.path.join(run_dir, name))
            files.append(name)
    _finish_run(run_dir, "gen-worlds", cfg, started, files)
    print(f"gen-worlds: {len(files)} worlds -> {run_dir}")
    return 0


def cmd_build_corpus(cfg, args) -> int:
    started = _now()
    worlds = _load_worlds(cfg, args, "seen")
    run_dir = _begin_run(cfg, args, "corpus")
    demos, manifest = build_dataset(
        worlds, cfg["corpus.episodes"], cfg.tier_list("corpus.tiers"),
        cfg["run.seed"], cfg.reward_config(), cfg["ppo.gamma"],
        tier_brackets=cfg.tier_brackets(),
        keep_maps=False, keep_obs=False,
    )
    save_corpus(run_dir, demos, manifest)
    files = sorted(os.path.basename(p) for p in glob.glob(os.path.join(run_dir, "*"))
                   if not p.endswith("config.txt"))
    _finish_run(run_dir, "build-corpus", cfg, started, files)
    print(f"build-corpus: {len(demos)} demonstrations -> {run_dir}")
    return 0


def _load_demos(cfg, args):
    corpus_dir = os.path.join(_run_root(cfg, args), "corpus")
    _require(os.path.join(corpus_dir, "manifest.txt"), "build-corpus")
    worlds = _load_worlds(cfg, args, "seen")
    by_id = {w.world_id: w for w in worlds}
    demos, _ = load_corpus(corpus_dir, by_id, r_prior=cfg["ppo.r_prior"],
                           use_prior=cfg["ppo.use_prior"])
    return demos, worlds


def cmd_train_il(cfg, args) -> int:
    started = _now()
    demos, _ = _load_demos(cfg, args)
    run_dir = _begin_run(cfg, args, "il")
    model = _build_model(cfg)
    result = train_stage1(demos, model, cfg.stage1_config())
    write_curve(os.path.join(run_dir, "curve_il.csv"), result.curve, IL_CURVE_COLUMNS)
    save_policy(os.path.join(run_dir, "policy_il.ckpt"), model,
                meta={"stage": "il", "config_hash": cfg.hash(),
                      "epochs_run": str(result.epochs_run)})
    _finish_run(run_dir, "train-il", cfg, started, ["curve_il.csv", "policy_il.ckpt"])
    if result.aborted:
        raise NumericsError("stage-1 training aborted on a non-finite loss; "
                            "last clean parameters were kept")
    print(f"train-il: {result.epochs_run} epochs, L_IL {result.final_il:.4f} -> {run_dir}")
    return 0


def _build_probe(cfg, worlds, n: int):
    if n <= 0 or not worlds:
        return None
    tiers = cfg.tier_list("ppo.tiers")
    brackets = cfg.tier_brackets()
    probe = []
    for i in range(n):
        world = worlds[i % len(worlds)]
        tier = tiers[i % len(tiers)]
        ep = sample_episode(world, tier, substream(cfg["run.seed"], "probe", i), tiers=brackets)
        probe.append((world, ep))
    return probe


def cmd_train_rl(cfg, args) -> int:
    started = _now()
    root = _run_root(cfg, args)
    _require(os.path.join(root, "il", "policy_il.ckpt"), "train-il")
    demos, seen = _load_demos(cfg, args)
    unseen = _load_worlds(cfg, args, "unseen")
    model = _load_checkpoint_model(cfg, args, "il")
    run_dir = _begin_run(cfg, args, "rl")
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    policy = NeuralPolicy(model, flat=cfg["ppo.flat"], keep_feats=True, **_controller(cfg))
    result = train_stage2(
        policy, seen, cfg.ppo_config(), cfg.reward_config(),
        corpus=demos, seed=cfg["run.seed"], tiers=cfg.tier_list("ppo.tiers"),
        probe=_build_probe(cfg, unseen or seen, cfg["ppo.probe_episodes"]),
        probe_every=cfg["ppo.probe_every"], probe_threshold_m=cfg["eval.threshold_m"],
        expert_batch=cfg["ppo.expert_batch"], lambda_v=cfg["ppo.lambda_v"],
        use_prior=cfg["ppo.use_prior"], r_prior=cfg["ppo.r_prior"],
        curve_path=os.path.join(run_dir, "curve_rl.csv"),
        checkpoint_dir=ckpt_dir, checkpoint_every=cfg["ppo.checkpoint_every"],
        tier_brackets=cfg.tier_brackets(),
    )
    save_policy(os.path.join(run_dir, "policy_rl.ckpt"), model,
                meta={"stage": "rl", "config_hash": cfg.hash(),
                      "updates_run": str(result.updates_run)})
    files = ["curve_rl.csv", "policy_rl.ckpt"]
    files += [os.path.join("checkpoints", os.path.basename(p))
              for p in glob.glob(os.path.join(ckpt_dir, "*"))]
    _finish_run(run_dir, "train-rl", cfg, started, files)
    if result.aborted:
        raise NumericsError("stage-2 training aborted after repeated ratio blow-ups; "
                            "last clean parameters were kept")
    sr = result.final_probe_sr
    sr_text = f"{sr:.2f}" if not math.isnan(sr) else "n/a"
    print(f"train-rl: {result.updates_run} updates, {result.env_steps} env steps, "
          f"probe SR {sr_text} -> {run_dir}")
    return 0


def _make_policy(cfg, args, kind: str):
    if kind == "teacher":
        return TeacherPolicy()
    if kind == "random":
        return RandomPolicy()
    return _eval_policy(cfg, _load_checkpoint_model(cfg, args, kind))


def _bench_worlds(cfg, args) -> dict:
    out = {"seen": _load_worlds(cfg, args, "seen")}
    unseen = _load_worlds(cfg, args, "unseen")
    if unseen:
        out["unseen"] = unseen
    return out


def cmd_eval(cfg, args) -> int:
    started = _now()
    policy = _make_policy(cfg, args, args.policy)
    worlds_by_split = _bench_worlds(cfg, args)
    run_dir = _begin_run(cfg, args, "eval")
    report, records = run_benchmark(
        policy, worlds_by_split, cfg["eval.episodes_per_tier"], cfg["eval.seeds"],
        tiers=cfg.tier_list("eval.tiers"), tier_brackets=cfg.tier_brackets(),
        threshold_m=cfg["eval.threshold_m"], mode=cfg["eval.mode"],
        use_prior=cfg["eval.use_prior"], r_prior=cfg["eval.r_prior"],
        config_echo={"config_hash": cfg.hash(), "policy": args.policy},
    )
    write_benchmark_csv(os.path.join(run_dir, "report.csv"), report)
    write_benchmark_table(os.path.join(run_dir, "report.txt"), report)
    write_step_log(os.path.join(run_dir, "steps.csv"), records)
    files = ["report.csv", "report.txt", "steps.csv"]
    if cfg["eval.write_trajectories"]:
        traj_dir = os.path.join(run_dir, "trajectories")
        write_episode_trajectories(traj_dir, records)
        files += [os.path.join("trajectories", os.path.basename(p))
                  for p in glob.glob(os.path.join(traj_dir, "*.csv"))]
    _finish_run(run_dir, "eval", cfg, started, files)
    sys.stdout.write(render_table(report))
    return 0


# -------------------------------------------------------------------- sweep


def _pooled_sr(records) -> float:
    return aggregate([r.result for r in records]).sr


def _sweep_lambda(cfg, args, run_dir: str):
    """Stage-2 runs across the mixing coefficient grid, paired by seed."""
    root = _run_root(cfg, args)
    _require(os.path.join(root, "il", "policy_il.ckpt"), "train-il")
    demos, seen = _load_demos(cfg, args)
    unseen = _load_worlds(cfg, args, "unseen") or seen
    lambdas = list(cfg["sweep.lambdas"])
    seeds = list(cfg["sweep.seeds"])
    sr = {}
    rows = []
    for lam in lambdas:
        for seed in seeds:
            model = _load_checkpoint_model(cfg, args, "il")
            ppo = cfg.ppo_config()
            ppo.lambda_rl = lam
            policy = NeuralPolicy(model, flat=cfg["ppo.flat"], keep_feats=True, **_controller(cfg))
            train_stage2(
                policy, seen, ppo, cfg.reward_config(), corpus=demos, seed=seed,
                tiers=cfg.tier_list("ppo.tiers"), expert_batch=cfg["ppo.expert_batch"],
                lambda_v=cfg["ppo.lambda_v"], use_prior=cfg["ppo.use_prior"],
                r_prior=cfg["ppo.r_prior"], tier_brackets=cfg.tier_brackets(),
            )
            _, records = run_benchmark(
                _eval_policy(cfg, model), {"unseen": unseen}, cfg["eval.episodes_per_tier"],
                seeds=[0], tiers=cfg.tier_list("eval.tiers"),
                tier_brackets=cfg.tier_brackets(), threshold_m=cfg["eval.threshold_m"],
                mode=cfg["eval.mode"], use_prior=cfg["eval.use_prior"], r_prior=cfg["eval.r_prior"],
            )
            sr[(lam, seed)] = _pooled_sr(records)
            rows.append({"lambda_rl": lam, "seed": seed, "SR": sr[(lam, seed)]})
    write_curve(os.path.join(run_dir, "sweep.csv"), rows, ("lambda_rl", "seed", "SR"))
    lines = ["lambda_rl sweep, unseen-world SR (paired stage-2 seeds)"]
    base = lambdas[0]
    for lam in lambdas:
        vals = [sr[(lam, s)] for s in seeds]
        mean = sum(vals) / len(vals)
        delta = mean - sum(sr[(base, s)] for s in seeds) / len(seeds)
        per_seed = ", ".join(f"s{s}:{sr[(lam, s)]:.1f}" for s in seeds)
        lines.append(f"lambda={lam:<5} mean SR {mean:6.2f}  d(vs {base}) {delta:+6.2f}  [{per_seed}]")
    return ["sweep.csv"], lines


def _sweep_policy_axis(cfg, args, run_dir: str, variants, options):
    """Evaluate each variant with the eval.* keys; an axis option overrides them."""
    model = _load_checkpoint_model(cfg, args, "rl")
    built = {name: ctor(model) for name, ctor in variants.items()}
    worlds = {"unseen": _load_worlds(cfg, args, "unseen") or _load_worlds(cfg, args, "seen")}
    eval_kw = {"mode": cfg["eval.mode"], "use_prior": cfg["eval.use_prior"], "r_prior": cfg["eval.r_prior"]}
    report = ablation_suite(
        built, worlds, cfg["eval.episodes_per_tier"], cfg["sweep.seeds"],
        base=next(iter(variants)), tiers=cfg.tier_list("eval.tiers"),
        tier_brackets=cfg.tier_brackets(), threshold_m=cfg["eval.threshold_m"],
        options={name: {**eval_kw, **options.get(name, {})} for name in variants},
    )
    write_ablation_table(os.path.join(run_dir, "ablation.txt"), report)
    return ["ablation.txt"], [render_ablation_table(report).rstrip()]


def cmd_sweep(cfg, args) -> int:
    started = _now()
    axis = args.axis
    run_dir = _begin_run(cfg, args, f"sweep-{axis}")
    ctl = _controller(cfg)
    if axis == "lambda_rl":
        files, lines = _sweep_lambda(cfg, args, run_dir)
    elif axis == "prior":
        files, lines = _sweep_policy_axis(
            cfg, args, run_dir,
            {"full": lambda m: _eval_policy(cfg, m), "no_prior": lambda m: _eval_policy(cfg, m)},
            {"no_prior": {"use_prior": False}},
        )
    else:  # controller
        files, lines = _sweep_policy_axis(
            cfg, args, run_dir,
            {"tiered": lambda m: NeuralPolicy(m, **ctl), "flat": lambda m: NeuralPolicy(m, flat=True, **ctl)},
            {},
        )
    text = "\n".join(lines) + "\n"
    atomic_write(os.path.join(run_dir, "summary.txt"), text)
    _finish_run(run_dir, f"sweep-{axis}", cfg, started, files + ["summary.txt"])
    sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------- replay


def render_replay(rows, header, threshold_m: float) -> str:
    """Step-by-step account of a trajectory log, waypoint events marked."""
    has_goal = "g_x" in header and "g_y" in header
    out = []
    events = []
    prev_k = None
    for row in rows:
        k = int(row["k"])
        if prev_k is None or k != prev_k:
            wp = (row["w_x"], row["w_y"])
            if has_goal:
                d_wp = math.hypot(wp[0] - row["g_x"], wp[1] - row["g_y"])
                tail = f" waypoint->goal {d_wp:.2f} cells"
            else:
                tail = ""
            events.append((k, wp, row.get("g_x"), row.get("g_y")))
            out.append(f"== waypoint k={k} -> ({wp[0]:.2f}, {wp[1]:.2f}){tail}")
            prev_k = k
        name = Action(int(row["action"])).name
        out.append(
            f"t={int(row['t']):4d} {name:<10} pos=({row['x']:.2f}, {row['y']:.2f}, z={int(row['z'])})"
            f" dist={row['d']:.2f} m"
        )
    last = rows[-1]
    stopped = int(last["action"]) == int(Action.STOP)
    verdict = "SUCCESS" if stopped and last["d"] <= threshold_m else "FAILURE"
    out.append(f"-- {len(events)} waypoint events, final distance {last['d']:.2f} m, "
               f"threshold {threshold_m} m: {verdict}")
    if has_goal and events:
        k, wp, gx, gy = events[-1]
        d_wp = math.hypot(wp[0] - gx, wp[1] - gy)
        out.append(f"-- last waypoint k={k} is {d_wp:.2f} cells from the goal")
    return "\n".join(out) + "\n"


def cmd_replay(cfg, args) -> int:
    started = _now()
    if not os.path.isfile(args.log):
        raise MissingPrerequisiteError(
            f"{args.log} not found: replay requires a trajectory log; produce one with "
            "'tiernav eval' (eval.write_trajectories=true) or point --log at a corpus episode file"
        )
    rows, header = read_trajectory_log(args.log)
    text = render_replay(rows, header, cfg["eval.threshold_m"])
    run_dir = _begin_run(cfg, args, "replay")
    atomic_write(os.path.join(run_dir, "replay.txt"), text)
    _finish_run(run_dir, "replay", cfg, started, ["replay.txt"])
    sys.stdout.write(text)
    return 0


# --------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tiernav",
                                description="hybrid IL/RL aerial navigation experiments")
    p.add_argument("--version", action="version", version=f"tiernav {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="key = value settings file")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one setting (repeatable)")
        sp.add_argument("--out", default=None, help="output root (overrides run.out)")
        sp.add_argument("--force", action="store_true",
                        help="replace an existing run directory")

    common(sub.add_parser("gen-worlds", help="generate seen/unseen city worlds"))
    common(sub.add_parser("build-corpus", help="teacher demonstrations on the seen worlds"))
    common(sub.add_parser("train-il", help="stage-1 imitation training"))
    common(sub.add_parser("train-rl", help="stage-2 PPO fine-tuning (needs train-il)"))
    sp = sub.add_parser("eval", help="benchmark a policy over splits and tiers")
    common(sp)
    sp.add_argument("--policy", default="rl", choices=("rl", "il", "teacher", "random"))
    sp = sub.add_parser("sweep", help="ablation sweeps")
    common(sp)
    sp.add_argument("--axis", default="lambda_rl", choices=("lambda_rl", "prior", "controller"))
    sp = sub.add_parser("replay", help="render a trajectory log step by step")
    common(sp)
    sp.add_argument("--log", required=True, help="trajectory CSV to replay")
    return p


COMMANDS = {
    "gen-worlds": cmd_gen_worlds,
    "build-corpus": cmd_build_corpus,
    "train-il": cmd_train_il,
    "train-rl": cmd_train_rl,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "replay": cmd_replay,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.set)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except MissingPrerequisiteError as e:
        print(f"missing prerequisite: {e}", file=sys.stderr)
        return 3
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except (GenerationError, InfeasibleError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 5
    except (OSError, ContractError) as e:
        print(f"unreadable, corrupt or inconsistent files: {e}", file=sys.stderr)
        return 6
    except (ShapeError, StateError) as e:
        print(f"model shape or state error: {e}", file=sys.stderr)
        return 7


if __name__ == "__main__":
    sys.exit(main())
