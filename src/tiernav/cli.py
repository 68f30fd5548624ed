"""Command-line front end: world generation through evaluation.

Each subcommand owns one subdirectory of the output root. Its run is
built in `<name>.partial/` (artifacts, echoed config, and last a
manifest.json naming every produced file), then renamed into place, so
a directory under its final name is complete. A command that fails,
an aborted training run included, leaves its run in `<name>.partial/`
and an earlier finished run as it was. Re-running a command refuses to
replace a finished run unless --force is passed. Exit codes:
0 ok, 2 bad configuration, 3 missing or incomplete prerequisite run
directory, 4 numerical failure during training, 5 no feasible world or episode (generation
retries exhausted, or no path), 6 unreadable, corrupt or inconsistent
files (an I/O error, bytes that are not UTF-8 text, or artifacts that
contradict each other or the config), 7 model shape or state error
(tensor shapes that do not fit an operation, or a backward through a
spent tape).
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
    aggregate,
    render_table,
    run_benchmark,
    write_benchmark_csv,
    write_step_log,
)
from .teacher import build_dataset, load_corpus, read_trajectory_log, save_corpus
from .training import (
    IL_CURVE_COLUMNS,
    RL_CURVE_COLUMNS,
    train_stage1,
    train_stage2,
    write_curve,
)
from .util import atomic_write, substream, write_csv
from .world import Action, generate_world, load_world, sample_episode, save_world


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _run_root(cfg, args) -> str:
    return args.out if args.out else cfg["run.out"]


def _finished(run_dir: str) -> bool:
    """A run directory is complete once it holds manifest.json, which is written last."""
    return os.path.isfile(os.path.join(run_dir, "manifest.json"))


def _begin_run(cfg, args, name: str) -> str:
    final = os.path.join(_run_root(cfg, args), name)
    if _finished(final) and not args.force:
        raise ConfigError(f"run directory {final} already exists; pass --force to replace it")
    d = final + ".partial"
    if os.path.exists(d):
        shutil.rmtree(d)
    os.makedirs(d)
    cfg.echo(d)
    return d


def _finish_run(run_dir: str, command: str, cfg, started: str) -> str:
    """Write manifest.json last, naming every other file of the run, then rename
    the partial run over the old one."""
    files = (os.path.relpath(os.path.join(d, name), run_dir) for d, _, names in os.walk(run_dir) for name in names)
    manifest = {
        "command": command,
        "config_hash": cfg.hash(),
        "version": __version__,
        "started": started,
        "ended": _now(),
        "files": sorted(f for f in files if f != "manifest.json"),
    }
    atomic_write(os.path.join(run_dir, "manifest.json"),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    final = run_dir.removesuffix(".partial")
    if os.path.exists(final):
        shutil.rmtree(final)
    os.rename(run_dir, final)
    return final


def _stage_dir(cfg, args, stage: str, producer: str) -> str:
    """The finished run directory of a prerequisite stage: one with its manifest.json."""
    d = os.path.join(_run_root(cfg, args), stage)
    if not _finished(d):
        raise MissingPrerequisiteError(
            f"{d} is missing or incomplete (no manifest.json): this command requires "
            f"{producer} output; run 'tiernav {producer}' first"
        )
    return d


def _load_worlds(cfg, args, split: str):
    d = _stage_dir(cfg, args, "worlds", "gen-worlds")
    return [load_world(p) for p in sorted(glob.glob(os.path.join(d, f"{split}_*.txt")))]


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


def _neural_policy(cfg, model) -> NeuralPolicy:
    """Every NeuralPolicy, from the model.* controller and belief-map keys."""
    return NeuralPolicy(model, flat=cfg["model.flat"], avoid_blocked=cfg["model.avoid_blocked"],
                        replan_patience=cfg["model.replan_patience"], r_prior=_prior(cfg))


def _prior(cfg):
    """The landmark-prior radius of the learned policy's belief maps; None for none."""
    return cfg["model.r_prior"] if cfg["model.use_prior"] else None


def _load_checkpoint_model(cfg, args, stage: str) -> NavPolicy:
    model = _build_model(cfg)
    load_policy_into(model, os.path.join(_stage_dir(cfg, args, stage, f"train-{stage}"), f"policy_{stage}.ckpt"))
    return model


# ----------------------------------------------------------------- commands


def cmd_gen_worlds(cfg, args) -> int:
    started = _now()
    run_dir = _begin_run(cfg, args, "worlds")
    wc = cfg.world_config()
    counts = {"seen": cfg["world.n_seen"], "unseen": cfg["world.n_unseen"]}
    for split, count in counts.items():
        for i in range(count):
            seed = int(substream(cfg["run.seed"], "worldgen", split, i).integers(2**31))
            save_world(generate_world(seed, wc), os.path.join(run_dir, f"{split}_{i:02d}.txt"))
    run_dir = _finish_run(run_dir, "gen-worlds", cfg, started)
    print(f"gen-worlds: {sum(counts.values())} worlds -> {run_dir}")
    return 0


def cmd_build_corpus(cfg, args) -> int:
    started = _now()
    worlds = _load_worlds(cfg, args, "seen")
    run_dir = _begin_run(cfg, args, "corpus")
    demos = build_dataset(
        worlds, cfg["corpus.episodes"], cfg.tiers("corpus.tiers"),
        cfg["run.seed"], cfg.reward_config(), cfg["ppo.gamma"],
    )
    save_corpus(run_dir, demos)
    run_dir = _finish_run(run_dir, "build-corpus", cfg, started)
    print(f"build-corpus: {len(demos)} demonstrations -> {run_dir}")
    return 0


def _load_demos(cfg, args):
    corpus_dir = _stage_dir(cfg, args, "corpus", "build-corpus")
    worlds = _load_worlds(cfg, args, "seen")
    by_id = {w.world_id: w for w in worlds}
    # the corpus's value labels and PPO's GAE share gamma, so replay relabels under ppo.gamma
    return load_corpus(corpus_dir, by_id, cfg.reward_config(), cfg["ppo.gamma"]), worlds


def _train_il(cfg, demos, worlds, path: str):
    """Stage 1 on a fresh model, saved to path even when it aborts; returns its result."""
    model = _build_model(cfg)
    result = train_stage1(demos, worlds, _neural_policy(cfg, model), cfg.stage1_config())
    save_policy(path, model, meta={"stage": "il", "config_hash": cfg.hash(), "epochs_run": str(result.epochs_run)})
    return result


def cmd_train_il(cfg, args) -> int:
    started = _now()
    demos, seen = _load_demos(cfg, args)
    run_dir = _begin_run(cfg, args, "il")
    result = _train_il(cfg, demos, seen, os.path.join(run_dir, "policy_il.ckpt"))
    write_curve(os.path.join(run_dir, "curve_il.csv"), result.curve, IL_CURVE_COLUMNS)
    if result.aborted:
        raise NumericsError(f"stage-1 training aborted on a non-finite loss; the last clean "
                            f"parameters and the curve were kept in {run_dir}")
    run_dir = _finish_run(run_dir, "train-il", cfg, started)
    print(f"train-il: {result.epochs_run} epochs, L_IL {result.final_il:.4f} -> {run_dir}")
    return 0


def _build_probe(cfg, worlds, n: int):
    if n <= 0 or not worlds:
        return None
    tiers = cfg.tiers("ppo.tiers")
    names = list(tiers)
    probe = []
    for i in range(n):
        world = worlds[i % len(worlds)]
        tier = names[i % len(names)]
        ep = sample_episode(world, tier, substream(cfg["run.seed"], "probe", i), tiers=tiers)
        probe.append((world, ep))
    return probe


def cmd_train_rl(cfg, args) -> int:
    started = _now()
    model = _load_checkpoint_model(cfg, args, "il")
    demos, seen = _load_demos(cfg, args)
    unseen = _load_worlds(cfg, args, "unseen")
    run_dir = _begin_run(cfg, args, "rl")
    policy = _neural_policy(cfg, model)
    result = train_stage2(
        policy, seen, cfg.ppo_config(), cfg.reward_config(),
        corpus=demos, il_cfg=cfg.stage1_config(), seed=cfg["run.seed"],
        probe=_build_probe(cfg, unseen or seen, cfg["ppo.probe_episodes"]),
        probe_threshold_m=cfg["eval.threshold_m"],
        checkpoint_dir=os.path.join(run_dir, "checkpoints"),
    )
    write_curve(os.path.join(run_dir, "curve_rl.csv"), result.curve, RL_CURVE_COLUMNS)
    save_policy(os.path.join(run_dir, "policy_rl.ckpt"), model,
                meta={"stage": "rl", "config_hash": cfg.hash(),
                      "updates_run": str(result.updates_run)})
    if result.aborted:
        raise NumericsError(f"stage-2 training aborted after repeated ratio blow-ups; the last clean "
                            f"parameters and the curve were kept in {run_dir}")
    run_dir = _finish_run(run_dir, "train-rl", cfg, started)
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
    return _neural_policy(cfg, _load_checkpoint_model(cfg, args, kind))


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
        tiers=cfg.tiers("eval.tiers"),
        threshold_m=cfg["eval.threshold_m"], mode=cfg["eval.mode"],
    )
    text = render_table(report)
    write_benchmark_csv(os.path.join(run_dir, "report.csv"), report)
    atomic_write(os.path.join(run_dir, "report.txt"), text)
    write_step_log(os.path.join(run_dir, "steps.csv"), records)
    _finish_run(run_dir, "eval", cfg, started)
    sys.stdout.write(text)
    return 0


# -------------------------------------------------------------------- sweep


def _sweep_arms(cfg, axis: str) -> list:
    """(name, --set overrides) of each arm of an axis; the first arm is the base."""
    if axis == "lambda_rl":
        return [(f"lambda={lam}", [f"ppo.lambda_rl={lam}"]) for lam in cfg["sweep.lambdas"]]
    if axis == "prior":
        return [("full", ["model.use_prior=true"]), ("no_prior", ["model.use_prior=false"])]
    return [("tiered", ["model.flat=false"]), ("flat", ["model.flat=true"])]


def cmd_sweep(cfg, args) -> int:
    """Train and evaluate every arm of an axis on each sweep seed, paired by seed.

    Each arm is the config with its overrides on top. An arm whose
    belief-map prior is the config's starts stage 2 from il/policy_il.ckpt;
    any other arm first trains stage 1 into policy_il_<arm>.ckpt. The
    corpus is replayed once; each arm's policy brings its own prior to
    both stages. Arms are evaluated on the unseen worlds, else the seen
    ones.
    """
    started = _now()
    axis = args.axis
    shared_il = os.path.join(_stage_dir(cfg, args, "il", "train-il"), "policy_il.ckpt")
    unseen = _load_worlds(cfg, args, "unseen")
    worlds = {"unseen": unseen} if unseen else {"seen": _load_worlds(cfg, args, "seen")}
    seeds = list(cfg["sweep.seeds"])
    arms = _sweep_arms(cfg, axis)
    demos, seen = _load_demos(cfg, args)
    run_dir = _begin_run(cfg, args, f"sweep-{axis}")
    results = {}  # (arm, seed) -> that run's episode results
    for name, overrides in arms:
        arm = parse_config(args.config, [*args.set, *overrides])
        il_path = shared_il
        if _prior(arm) != _prior(cfg):
            il_path = os.path.join(run_dir, f"policy_il_{name}.ckpt")
            if _train_il(arm, demos, seen, il_path).aborted:
                raise NumericsError(f"stage-1 training of sweep arm {name!r} aborted on a non-finite loss")
        for seed in seeds:
            model = _build_model(arm)
            load_policy_into(model, il_path)
            if train_stage2(_neural_policy(arm, model), seen, arm.ppo_config(), arm.reward_config(),
                            corpus=demos, il_cfg=arm.stage1_config(), seed=seed).aborted:
                raise NumericsError(f"stage-2 training of sweep arm {name!r} on seed {seed} aborted "
                                    "after repeated ratio blow-ups")
            _, records = run_benchmark(
                _neural_policy(arm, model), worlds, arm["eval.episodes_per_tier"], seeds=[0],
                tiers=arm.tiers("eval.tiers"),
                threshold_m=arm["eval.threshold_m"], mode=arm["eval.mode"],
            )
            results[(name, seed)] = [r.result for r in records]
    cells = {key: aggregate(group) for key, group in results.items()}
    write_csv(os.path.join(run_dir, "sweep.csv"), ("variant", "seed", "NE", "SR", "OSR", "SPL"),
              ([name, seed, c.ne, c.sr, c.osr, c.spl] for (name, seed), c in cells.items()))
    base = arms[0][0]
    lines = [f"{axis} sweep, {next(iter(worlds))}-world means over stage-2 seeds "
             f"{', '.join(map(str, seeds))}; dSR paired by seed vs {base}"]
    for name, _ in arms:
        c = aggregate(r for s in seeds for r in results[(name, s)])
        deltas = [cells[(name, s)].sr - cells[(base, s)].sr for s in seeds]
        per_seed = ", ".join(f"s{s}:{d:+.2f}" for s, d in zip(seeds, deltas))
        lines.append(f"{name:<12} NE {c.ne:7.2f} m  SR {c.sr:6.2f}  OSR {c.osr:6.2f}  SPL {c.spl:6.2f}  "
                     f"dSR {math.fsum(deltas) / len(deltas):+6.2f} [{per_seed}]")
    text = "\n".join(lines) + "\n"
    atomic_write(os.path.join(run_dir, "summary.txt"), text)
    _finish_run(run_dir, f"sweep-{axis}", cfg, started)
    sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------- replay


def render_replay(name: str, rows, threshold_m: float) -> str:
    """Step-by-step account of one logged episode, waypoint events marked.

    The lines that relate a waypoint to the goal read the logged goal
    estimate g_hat (the goal itself in a corpus episode), and appear
    only where it is finite.
    """
    out = [f"== episode {name}"]
    events = []  # (k, waypoint-to-g_hat distance in cells, nan without a finite g_hat)
    for row in rows:
        k = int(row["k"])
        if not events or k != events[-1][0]:
            d_goal = math.hypot(row["w_x"] - row["g_hat_x"], row["w_y"] - row["g_hat_y"])
            tail = f" waypoint->g_hat {d_goal:.2f} cells" if math.isfinite(d_goal) else ""
            events.append((k, d_goal))
            out.append(f"== waypoint k={k} -> ({row['w_x']:.2f}, {row['w_y']:.2f}){tail}")
        action = Action(int(row["action"])).name
        out.append(
            f"t={int(row['t']):4d} {action:<10} pos=({row['x']:.2f}, {row['y']:.2f}, z={int(row['z'])})"
            f" dist={row['d']:.2f} m"
        )
    last = rows[-1]
    stopped = int(last["action"]) == int(Action.STOP)
    verdict = "SUCCESS" if stopped and last["d"] <= threshold_m else "FAILURE"
    out.append(f"-- {len(events)} waypoint events, final distance {last['d']:.2f} m, "
               f"threshold {threshold_m} m: {verdict}")
    k, d_goal = events[-1]
    if math.isfinite(d_goal):
        out.append(f"-- last waypoint k={k} is {d_goal:.2f} cells from g_hat")
    return "\n".join(out) + "\n"


def cmd_replay(cfg, args) -> int:
    started = _now()
    if not os.path.isfile(args.log):
        raise MissingPrerequisiteError(
            f"{args.log} not found: replay requires a trajectory log, an eval steps.csv "
            "or a corpus episode file"
        )
    _, episodes = read_trajectory_log(args.log)
    text = "".join(render_replay(name, rows, cfg["eval.threshold_m"]) for name, rows in episodes.items())
    run_dir = _begin_run(cfg, args, "replay")
    atomic_write(os.path.join(run_dir, "replay.txt"), text)
    _finish_run(run_dir, "replay", cfg, started)
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
    sp = sub.add_parser("sweep", help="train and evaluate each arm of an ablation axis (needs train-il)")
    common(sp)
    sp.add_argument("--axis", default="lambda_rl", choices=("lambda_rl", "prior", "controller"))
    sp = sub.add_parser("replay", help="render a trajectory log step by step")
    common(sp)
    sp.add_argument("--log", required=True, help="eval steps.csv or corpus episode file to replay")
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
