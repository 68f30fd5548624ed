"""Desk quality gate: train and score the IL policy once per seed.

For each seed, runs gen-worlds, build-corpus, train-il (timed) and
eval --policy il into <out>/s<seed> through tiernav.cli.main, then
prints one row per seed: train-il seconds, epochs, the last epoch's
L_IL, L_BC, L_WP and bc_acc, and the unseen NE, SR, OSR and SPL (means
over the unseen tiers). Overrides given with --set reach every command.

    python experiments/gate.py --config experiments/desk.cfg --out OUT \\
        --seeds 1 2 3 [--set il.epochs=20 ...]
"""

import argparse
import contextlib
import csv
import io
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from tiernav.cli import main  # noqa: E402

COLUMNS = ("seed", "il_s", "epochs", "L_IL", "L_BC", "L_WP", "bc_acc", "NE", "SR", "OSR", "SPL")


def run(command, root, seed, args, extra=()):
    argv = [command, "--config", args.config, "--out", root, "--set", f"run.seed={seed}",
            *(a for kv in args.set for a in ("--set", kv)), *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        sys.exit(f"seed {seed}: {command} exited {code}")


def rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def gate_row(seed, args) -> list:
    root = os.path.join(args.out, f"s{seed}")
    run("gen-worlds", root, seed, args)
    run("build-corpus", root, seed, args)
    started = time.perf_counter()
    run("train-il", root, seed, args)
    il_s = time.perf_counter() - started
    run("eval", root, seed, args, ("--policy", "il"))
    curve = rows(os.path.join(root, "il", "curve_il.csv"))
    last = curve[-1]
    unseen = [r for r in rows(os.path.join(root, "eval", "report.csv")) if r["split"] == "unseen"]
    n = sum(int(r["n"]) for r in unseen)
    means = [sum(float(r[k]) * int(r["n"]) for r in unseen) / n for k in ("NE", "SR", "OSR", "SPL")]
    losses = [float(last.get(k, "nan")) for k in ("L_IL", "L_BC", "L_WP", "bc_acc")]
    return [seed, f"{il_s:.1f}", len(curve), *(f"{v:.4g}" for v in losses), *(f"{v:.2f}" for v in means)]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "desk.cfg"))
    p.add_argument("--out", required=True, help="output root; each seed writes <out>/s<seed>")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    return p.parse_args(argv)


if __name__ == "__main__":
    opts = parse_args()
    print("\t".join(COLUMNS), flush=True)
    for seed in opts.seeds:
        print("\t".join(str(v) for v in gate_row(seed, opts)), flush=True)
