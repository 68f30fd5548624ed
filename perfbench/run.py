"""tiernav pipeline benchmark.

    python3 perfbench/run.py --workload teacher_corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Each workload drives the real
user path, ``tiernav.cli.main([...])``. From ``--seed`` the benchmark
derives a few input seeds, its draws (counted in ``WORKLOADS``); each
reaches the program only as ``--set run.seed=<n>``, and every other
setting comes from ``perfbench/<workload>.cfg``. Just before a draw first
runs, a separate interpreter runs its set-up stages into its own run root
(timed as ``setup_s``). This process runs the stage under test on the
draws in turn, each run in a child process forked from this one, until
each draw ran, the first ran again and ``--seconds`` of stage time have
passed, checking every run's outputs. Spreading a run over several draws keeps the figures
close from one ``--seed`` to the next; a single world and corpus is too
lumpy. Times are reported at a nominal host speed (see ``hostspeed.py``).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the draws in turn run once untraced and once traced, at least two of them
and until ``--seconds`` have passed, and the per-layer metrics are printed
(see ``spans.py``). The last line of standard output is one
JSON object: correct, attempted, failed, metrics. The exit code is 0 only
when every check passed; without ``src/tiernav`` it is 2 and no result
is printed.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: with two OpenBLAS threads on a 2-core host, identical IL
# epochs varied by 40% in wall time and in the last bits of the loss.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class Workload(NamedTuple):
    draws: int  # input draws per run
    setups: int  # set-ups per draw, all sampled for the set-up time median
    reference: str  # host-speed reference kernel, see hostspeed.py
    setup: list  # set-up commands, CLI argv each
    stage: list  # timed commands


# One pass over the draws takes about 25 s of stage time on a 2-vCPU host.
WORKLOADS = {
    "teacher_corpus": Workload(15, 2, "python", [["gen-worlds"]],
                               [["build-corpus"], ["eval", "--policy", "teacher"]]),
    "il_epochs": Workload(20, 1, "numpy", [["gen-worlds"], ["build-corpus"]], [["train-il"]]),
    "ppo_updates": Workload(9, 1, "numpy", [["gen-worlds"], ["build-corpus"], ["train-il"]],
                            [["train-rl"]]),
}

# The stage's own unit of work, reported as items_per_s, and its name in
# the workload's own terms.
ITEM_NAMES = {
    "teacher_corpus": ("episodes_per_s", 1.0),
    "il_epochs": ("il_samples_per_s", 1.0),
    "ppo_updates": ("ppo_updates_per_min", 60.0),
}


def draw_seeds(workload: str, seed: int):
    k = WORKLOADS[workload].draws
    return [seed * 1000 + j for j in range(k)]


class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, why: str, count: int = 1):
        self.failed += count
        self.problems.append(why)

    def check(self, ok: bool, why: str):
        if not ok:
            self.fail(why)


class Draw:
    """One input seed of a workload: its run root, the CLI, and the output checks."""

    def __init__(self, workload: str, seed: int, root: str, tally: Tally):
        from tiernav.cli import main
        from tiernav.config import parse_config

        self.workload = workload
        self.seed = seed
        self.root = root
        self.tally = tally
        self.cfg_path = os.path.join(HERE, f"{workload}.cfg")
        self.cfg = parse_config(self.cfg_path, [f"run.seed={seed}"])
        self.main = main
        self.reference = None

    def cli(self, argv):
        """Run one stage; a nonzero exit or an exception counts as a failed operation."""
        full = [*argv, "--config", self.cfg_path, "--out", self.root, "--force",
                "--set", f"run.seed={self.seed}"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = self.main(full)
            except Exception:
                traceback.print_exc()
                rc = -1
        self.tally.attempted += 1
        if rc != 0:
            self.tally.fail(f"seed {self.seed}: 'tiernav {' '.join(argv)}' exited with {rc}")
        return rc, out.getvalue()

    def check(self, ok: bool, why: str):
        self.tally.check(ok, f"seed {self.seed}: {why}")

    def verify(self, outputs):
        """Check one timed run's outputs; returns (items, env steps)."""
        if any(rc != 0 for rc, _ in outputs):
            return 0, 0
        try:
            items, steps, fingerprint = getattr(self, f"_verify_{self.workload}")(outputs)
        except (OSError, ValueError, IndexError) as e:  # missing or malformed outputs
            self.check(False, f"unreadable outputs: {e!r}")
            return 0, 0
        self._same_as_first(fingerprint)
        return items, steps

    def _corpus_steps(self) -> int:
        return sum(_data_rows(p) for p in glob.glob(os.path.join(self.root, "corpus", "episode_*.csv")))

    def _verify_teacher_corpus(self, outputs):
        corpus = os.path.join(self.root, "corpus")
        demos = len(glob.glob(os.path.join(corpus, "episode_*.csv")))
        self.check(demos == self.cfg["corpus.episodes"],
                   f"corpus holds {demos} demonstrations, expected {self.cfg['corpus.episodes']}")
        episodes = 0
        with open(os.path.join(self.root, "eval", "report.csv")) as f:
            rows = f.read().splitlines()[1:]
        for row in rows:
            split, tier, ne, sr, _osr, spl, n, _ = row.split(",")
            n = int(n)
            episodes += n
            self.tally.attempted += n
            if float(sr) != 100.0 or float(ne) != 0.0 or float(spl) != 100.0:
                lost = max(round(n * (1.0 - float(sr) / 100.0)), 1)
                self.tally.fail(f"seed {self.seed}: teacher eval {split}/{tier}: NE {ne} SR {sr} "
                                f"SPL {spl}, expected NE 0, SR 100, SPL 100", lost)
        steps = _data_rows(os.path.join(self.root, "eval", "steps.csv"))
        files = [p for p in sorted(glob.glob(os.path.join(corpus, "*")))
                 if not p.endswith("manifest.json")]  # the run manifest holds timestamps
        files += [os.path.join(self.root, "eval", n) for n in ("report.csv", "report.txt", "steps.csv")]
        digest = hashlib.sha256()
        for p in files:
            digest.update(os.path.basename(p).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
        return demos + episodes, self._corpus_steps() + steps, digest.hexdigest()

    def _verify_il_epochs(self, outputs):
        losses = _curve_losses(os.path.join(self.root, "il", "curve_il.csv"))
        epochs = len(losses)
        self.check(epochs == self.cfg["il.epochs"],
                   f"train-il ran {epochs} epochs, expected {self.cfg['il.epochs']}")
        self.check(all(math.isfinite(v) for row in losses for v in row), "non-finite IL loss")
        steps = self._corpus_steps()
        return epochs * steps, steps, losses

    def _verify_ppo_updates(self, outputs):
        line = next((ln for ln in outputs[0][1].splitlines() if ln.startswith("train-rl:")), "")
        parts = line.split()
        updates, env_steps = (int(parts[1]), int(parts[3])) if len(parts) > 4 else (0, 0)
        self.check(updates == self.cfg["ppo.max_updates"],
                   f"train-rl ran {updates} updates, expected {self.cfg['ppo.max_updates']}")
        self.check(env_steps == updates * self.cfg["ppo.rollout_steps"],
                   f"train-rl took {env_steps} env steps for {updates} updates of "
                   f"{self.cfg['ppo.rollout_steps']}")
        losses = _curve_losses(os.path.join(self.root, "rl", "curve_rl.csv"))
        self.check(len(losses) == updates, f"curve_rl.csv has {len(losses)} rows for {updates} updates")
        self.check(all(math.isfinite(v) for row in losses for v in row), "non-finite PPO loss")
        return updates, env_steps, losses

    def _same_as_first(self, fingerprint):
        """Same seed, same outputs: bytes for the teacher stage, losses to rounding.

        Losses are not compared to the bit, because a change may legitimately
        reorder a floating-point reduction.
        """
        if self.reference is None:
            self.reference = fingerprint
            return
        if isinstance(fingerprint, str):
            same = fingerprint == self.reference
        else:
            flat_a = [v for row in self.reference for v in row]
            flat_b = [v for row in fingerprint for v in row]
            same = len(flat_a) == len(flat_b) and all(
                math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) for a, b in zip(flat_a, flat_b))
        self.check(same, "a second run on the same seed gave different outputs")


def _data_rows(path) -> int:
    with open(path) as f:
        return max(sum(1 for _ in f) - 1, 0)


def _curve_losses(path):
    """Loss columns (L_*) of a training curve, one list per row."""
    with open(path) as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    cols = [i for i, name in enumerate(header) if name.startswith("L_")]
    return [[float(row.split(",")[i]) for i in cols] for row in lines[1:]]


def _import_tiernav() -> bool:
    """Put this checkout's sources first on the path; False if they are missing."""
    if not os.path.isfile(os.path.join(SRC, "tiernav", "__init__.py")):
        print(f"error: no tiernav sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import tiernav

    if os.path.dirname(os.path.abspath(tiernav.__file__)) != os.path.join(SRC, "tiernav"):
        print(f"error: imported tiernav from {tiernav.__file__}, not from {SRC}", file=sys.stderr)
        return False
    return True


def timed(reference: str, fn):
    """Run fn; return (result, seconds measured, seconds at nominal host speed).

    The host speed is the mean of the reference kernel's speed just before
    and just after fn (see hostspeed.py).
    """
    import hostspeed

    before = hostspeed.speed(reference)
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    after = hostspeed.speed(reference)
    return result, dt, dt * (before + after) / 2.0


def forked(fn, tally: Tally):
    """Run fn in a forked child; return (fn's result, the child's peak RSS in MB).

    A child's peak RSS starts from this process's current RSS, not from
    its high-water mark, so each run gets a peak of its own. The child's
    tally is copied back.
    """
    import pickle

    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 1
        try:
            result = fn()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            with os.fdopen(w, "wb") as f:
                pickle.dump((result, peak, tally), f)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"timed child process exited with status {status}")
    result, peak, child_tally = pickle.loads(data)
    vars(tally).update(vars(child_tally))
    return result, peak


def build_upstream(workload: str, seed: int, root: str):
    """Run the set-up stages of one draw into root.

    Returns (seconds measured, seconds at nominal host speed, operations
    attempted, failed, problems).
    """
    tally = Tally()
    draw = Draw(workload, seed, root, tally)
    spec = WORKLOADS[workload]
    _, dt, scaled = timed(spec.reference, lambda: [draw.cli(cmd) for cmd in spec.setup])
    return dt, scaled, tally.attempted, tally.failed, tally.problems


def setup_worker():
    """Serve set-up requests, one JSON line [workload, seed, root] per request.

    Runs in its own interpreter, so the set-up's memory does not count in
    the timed stage's peak RSS.
    """
    if not _import_tiernav():
        sys.exit(2)
    for line in sys.stdin:
        print(json.dumps(build_upstream(*json.loads(line))), file=sys.__stdout__, flush=True)


class SetupWorker:
    """The set-up interpreter, started on entry and waited for on exit."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", "import run; run.setup_worker()"],
                                     cwd=HERE, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        return self

    def build(self, workload: str, seed: int, root: str):
        self.proc.stdin.write(json.dumps([workload, seed, root]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"set-up worker exited with {self.proc.wait()}")
        return json.loads(reply)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False


def environment() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy too old for mode="dicts", or no BLAS entry
        blas = "unknown"
    return (f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} blas={blas} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def _schedule(k: int, trace: bool):
    """(draw index, traced?) for each timed run, in order, without end.

    Untraced: passes over the draws. Traced: the draws in turn, each run
    once untraced and then once traced.
    """
    i = 0
    while True:
        if trace:
            yield i % k, False
            yield i % k, True
        else:
            yield i % k, False
        i += 1


def _done(runs, k: int, trace: bool, seconds: float) -> bool:
    """Whether the timed runs so far are enough.

    Untraced: every draw once and the first one again (the determinism
    check), and --seconds of stage time. Traced: two run pairs and
    --seconds, ending on a whole pair.
    """
    measured = sum(r[2] for r in runs)
    if trace:
        return len(runs) >= 4 and len(runs) % 2 == 0 and measured >= seconds
    return len(runs) >= k + 1 and measured >= seconds


def run(args) -> int:
    import spans

    spec = WORKLOADS[args.workload]
    seeds = draw_seeds(args.workload, args.seed)
    k = len(seeds)
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    roots = [os.path.join(work_dir, f"seed{s}") for s in seeds]
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    tally = Tally()
    try:
        print(environment())
        draws = [Draw(args.workload, s, r, tally) for s, r in zip(seeds, roots)]
        rec = spans.Recorder()
        tracer = spans.Tracer(rec)
        setup_times = []  # (seconds measured, seconds at nominal host speed)
        set_up = set()
        # per timed run: (draw index, traced?, seconds measured, seconds at
        # nominal host speed, peak RSS in MB, items, env steps)
        runs = []
        with SetupWorker() as worker:
            for j, tracing in _schedule(k, args.trace):
                if _done(runs, k, args.trace, args.seconds):
                    break
                if j not in set_up:
                    # set up each draw just before its first run, so set-up times
                    # are sampled across the whole run rather than in one burst
                    set_up.add(j)
                    for _ in range(spec.setups):
                        dt, scaled, attempted, failed, problems = worker.build(
                            args.workload, seeds[j], roots[j])
                        setup_times.append((dt, scaled))
                        tally.attempted += attempted
                        tally.failed += failed
                        tally.problems += problems
                gc.collect()  # start each timed run with the same empty garbage
                def stage():
                    return timed(spec.reference, lambda: [draws[j].cli(cmd) for cmd in spec.stage])

                if tracing:
                    tracer.install()
                try:
                    if args.trace:
                        (outputs, dt, scaled), peak = stage(), math.nan
                    else:
                        # a fresh child of this process, which has run no stage
                        (outputs, dt, scaled), peak = forked(stage, tally)
                finally:
                    if tracing:
                        tracer.remove()
                runs.append((j, tracing, dt, scaled, peak, *draws[j].verify(outputs)))

        plain = [r for r in runs if not r[1]]
        print(f"{args.workload} seed={args.seed} draws={seeds}")
        print(f"  set-up runs, measured {_fmt_list(t[0] for t in setup_times)} s")
        print(f"  set-up runs, at nominal speed {_fmt_list(t[1] for t in setup_times)} s")
        print(f"  stage runs, measured {_fmt_list(r[2] for r in plain)} s")
        print(f"  stage runs, at nominal speed {_fmt_list(r[3] for r in plain)} s")
        print(f"  items {[r[5] for r in plain]}")
        if args.trace:
            traced = [r for r in runs if r[1]]
            # each traced run follows an untraced run of the same draw
            overhead = statistics.median(t[2] - u[2] for u, t in zip(plain, traced))
            metrics, detail = spans.layer_metrics(rec, len(traced), sum(r[2] for r in traced),
                                                  overhead)
            print(f"  traced runs, measured {_fmt_list(r[2] for r in traced)} s")
            print(f"  {'span (per stage run)':<40} {'calls':>12} {'seconds':>12}")
            for name, calls, secs in detail:
                print(f"  {name:<40} {calls:>12.1f} {secs:>12.6f}")
            print(f"  binding sites replaced: {sum(tracer.sites.values())}")
            for miss in spans.coverage_failures(rec, args.workload, tracer.sites):
                tally.fail(f"trace coverage: {miss}")
        else:
            # Times are at nominal host speed (hostspeed.py). A draw's time is
            # the median of its runs. The draws are different inputs, so they
            # are summed, not medianed: a median over draws of unequal size
            # jumps between draws as timing noise reorders them. Each run had
            # a process of its own, and the runs' peak RSS is medianed: the
            # peak over a whole run would be set by its one largest A* search.
            times, work = {}, {}
            for j, _, _, scaled, _, n_items, n_steps in plain:
                times.setdefault(j, []).append(scaled)
                work[j] = (n_items, n_steps)
            total = sum(statistics.median(v) for v in times.values())
            print(f"  peak RSS per run {_fmt_list(r[4] for r in plain)} MB")
            metrics = {
                "setup_s": (statistics.median(t[1] for t in setup_times), "s"),
                "wall_s": (total / len(times), "s"),
                "peak_rss_mb": (statistics.median(r[4] for r in plain), "MB"),
                "env_steps_per_s": (sum(w[1] for w in work.values()) / total, "1/s"),
                "items_per_s": (sum(w[0] for w in work.values()) / total, "1/s"),
            }
            alias, scale = ITEM_NAMES[args.workload]
            for name, (value, unit) in metrics.items():
                print(f"  {name:<20} {value:.6g} {unit}")
            print(f"  {alias:<20} {scale * metrics['items_per_s'][0]:.6g} (items_per_s)")
            print(f"  {'error_rate':<20} {tally.failed / max(tally.attempted, 1):.6g}")
            measured = sum(r[2] for r in plain) / sum(r[3] for r in plain)
            print(f"  {'measured/nominal':<20} {measured:.6g} (stage runs; above 1 on a slow host)")
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            os.rmdir(os.path.dirname(work_dir))
    for why in tally.problems:
        print(f"FAILED: {why}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def _fmt_list(xs) -> str:
    return "[" + ", ".join(f"{x:.3f}" for x in xs) + "]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not _import_tiernav():
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
