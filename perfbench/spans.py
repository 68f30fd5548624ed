"""Span recorder that times tiernav's layers from outside the package.

Each traced function is replaced by a timing wrapper at every place it is
bound: the defining module, every module that imported it by name (for
example ``agent`` does ``from .world import render_observation, step``),
and the class attribute for methods. Function-local imports such as the
``from .teacher import plan_path`` inside ``world.sample_episode`` read
the defining module at call time, so they see the wrapper too.

Backward time per autodiff op is taken without editing ``autodiff.py``:
the ``backward`` wrapper walks the tape from the loss first and wraps each
node's ``_backward`` slot with a timer keyed by ``node.op``.

Spans are aggregated in memory (calls, inclusive and self seconds, rows,
and caller -> callee counts) and turned into metrics when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter

# Autodiff ops reported on their own; every other op is pooled as "other".
OPS = ("conv2d", "depthwise_conv2d", "batchnorm2d", "linear", "matmul", "embedding", "log_softmax")

# Public autodiff functions that build tape nodes (mse is a composite of them).
AUTODIFF_FUNCS = (
    "add", "sub", "mul", "minimum", "neg", "scale", "add_scalar", "relu", "sigmoid", "tanh",
    "exp", "clip_value", "square", "sum_all", "mean_all", "global_avg_pool", "reshape",
    "concat", "pick", "embedding", "matmul", "linear", "conv2d", "depthwise_conv2d",
    "batchnorm2d", "log_softmax", "softmax", "mse",
)

ALL = ("teacher_corpus", "il_epochs", "ppo_updates")
TEACHER, IL, PPO = ALL

# (metric name, module, attribute path, workloads whose timed stage must call it,
#  function giving the rows of one call or None). The binding-coverage check
# fails a traced run if an expected span records zero calls.
SPANS = (
    ("world.sample_episode", "world", "sample_episode", (TEACHER, PPO), None),
    ("world.render_observation", "world", "render_observation", ALL, None),
    ("world.step", "world", "step", ALL, None),
    ("world.load_world", "world", "load_world", ALL, None),
    ("world.save_world", "world", "save_world", (), None),
    ("teacher.plan_path", "teacher", "plan_path", (TEACHER, PPO), None),
    ("teacher.build_demonstration", "teacher", "build_demonstration", (TEACHER,), None),
    ("teacher.save_corpus", "teacher", "save_corpus", (TEACHER,), None),
    ("teacher.load_corpus", "teacher", "load_corpus", (IL, PPO), None),
    ("mapper.init_map", "mapper", "init_map", ALL, None),
    ("mapper.update_map", "mapper", "update_map", ALL, None),
    ("mapper.encode_map", "mapper", "encode_map", (PPO,), None),
    ("mapper.MapEncoder", "mapper", "MapEncoder.__call__", (IL, PPO),
     lambda a, k: a[1].data.shape[0]),
    ("agent.tiered_step", "agent", "tiered_step", (PPO,), None),
    ("agent.NavPolicy.forward_heads", "agent", "NavPolicy.forward_heads", (IL, PPO),
     lambda a, k: len(a[2])),
    ("agent.run_episode", "agent", "run_episode", (TEACHER, PPO), None),
    ("autodiff.backward", "autodiff", "backward", (IL, PPO), None),
    ("optim.AdamW.step", "optim", "AdamW.step", (IL, PPO), None),
    ("optim.clip_grad_norm", "optim", "clip_grad_norm", (IL, PPO), None),
    ("training.prepare_stage1_data", "training", "prepare_stage1_data", (IL, PPO), None),
    ("training.collect_rollouts", "training", "collect_rollouts", (PPO,), None),
    ("training.compute_gae", "training", "compute_gae", (PPO,), None),
    ("training.probe_success_rate", "training", "probe_success_rate", (PPO,), None),
    ("training.train_stage2", "training", "train_stage2", (PPO,), None),
    ("evaluation.run_benchmark", "evaluation", "run_benchmark", (TEACHER,), None),
    ("evaluation.episode_metrics", "evaluation", "episode_metrics", (TEACHER,), None),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint", (IL, PPO), None),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint", (PPO,), None),
    ("config.parse_config", "config", "parse_config", ALL, None),
)

# Per-call samples are kept only where percentiles are reported.
SAMPLED = ("teacher.plan_path",)


def _op_bucket(op: str) -> str:
    return op if op in OPS else "other"


class Recorder:
    """Aggregated spans: calls, inclusive and self seconds, rows, caller edges."""

    def __init__(self):
        self.calls = Counter()
        self.incl = Counter()
        self.self_s = Counter()
        self.rows = Counter()
        self.edges = Counter()  # (caller span, callee span) -> calls
        self.samples = {name: [] for name in SAMPLED}
        self.counts = Counter()  # free counters, e.g. tape nodes
        self._stack = []  # [name, seconds spent in child spans]

    def wrap(self, name, fn, rows=None):
        stack = self._stack
        calls, incl, self_s, edges = self.calls, self.incl, self.self_s, self.edges
        samples = self.samples.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if rows is not None:
                self.rows[name] += rows(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                incl[name] += dt
                self_s[name] += dt - frame[1]
                if samples is not None:
                    samples.append(dt)
                if stack:
                    stack[-1][1] += dt
                    edges[(stack[-1][0], name)] += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


class Tracer:
    """Installs the recorder's wrappers into the tiernav package and removes them."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo = []  # (namespace object, attribute, original value)
        self.sites = Counter()  # span name -> binding sites replaced

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "tiernav" or n.startswith("tiernav."))]

    def _replace_everywhere(self, name, orig, wrapped):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
                    self.sites[name] += 1

    def install(self):
        import tiernav.autodiff as ad

        self.sites = Counter()
        for name, modname, path, _, rows in SPANS:
            mod = importlib.import_module(f"tiernav.{modname}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.rec.wrap(name, orig, rows))
                self.sites[name] += 1
            elif name == "autodiff.backward":
                self._replace_everywhere(name, ad.backward, self._traced_backward(ad.backward))
            else:
                orig = getattr(mod, path)
                self._replace_everywhere(name, orig, self.rec.wrap(name, orig, rows))
        for fname in AUTODIFF_FUNCS:
            orig = getattr(ad, fname)
            span = f"autodiff.fw.{_op_bucket(fname)}"
            self._replace_everywhere(span, orig, self.rec.wrap(span, orig))

    def _traced_backward(self, orig_backward):
        rec = self.rec
        timed = rec.wrap("autodiff.backward", orig_backward)

        def backward(loss):
            # Walk the tape first, outside the backward span, so the walk
            # counts as tracing overhead rather than as backward time.
            seen = set()
            todo = [loss]
            nodes = 0
            while todo:
                node = todo.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                fn = node._backward
                if fn is not None and not hasattr(fn, "__wrapped__"):
                    span = f"autodiff.bw.{_op_bucket(node.op)}"
                    node._backward = rec.wrap(span, fn)
                    nodes += 1
                todo.extend(node._parents)
            rec.counts["autodiff.backward.nodes"] += nodes
            return timed(loss)

        backward.__wrapped__ = orig_backward
        return backward

    def remove(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, iterations: int, stage_wall_s: float, overhead_s: float):
    """Per-layer metrics of the traced timed stage.

    Counts are per timed-stage invocation; busy time is the share of the
    traced stage's wall time (inclusive for functions, self time for
    autodiff ops so nested ops are not counted twice).
    Returns (metrics dict, detail rows for the text report).
    """
    per = float(iterations)
    m = {}
    detail = []

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name, *_ in SPANS:
        if name == "training.train_stage2":
            continue
        put(f"{name}.calls", rec.calls[name] / per, "count")
        put(f"{name}.pct", _pct(rec.incl[name], stage_wall_s), "%")
        detail.append((name, rec.calls[name] / per, rec.incl[name] / per))
    for kind in ("fw", "bw"):
        for op in OPS + ("other",):
            span = f"autodiff.{kind}.{op}"
            put(f"{span}.pct", _pct(rec.self_s[span], stage_wall_s), "%")
            detail.append((span, rec.calls[span] / per, rec.self_s[span] / per))
    put("autodiff.backward.nodes", rec.counts["autodiff.backward.nodes"] / per, "count")

    episodes = rec.calls["world.sample_episode"]
    put("teacher.plans_per_episode", _ratio(rec.calls["teacher.plan_path"], episodes), "ratio")
    put("world.sample_episode.plans_per_episode",
        _ratio(rec.edges[("world.sample_episode", "teacher.plan_path")], episodes), "ratio")
    put("agent.encodes_per_step",
        _ratio(rec.calls["mapper.encode_map"], rec.calls["agent.tiered_step"]), "ratio")
    for name in ("mapper.MapEncoder", "agent.NavPolicy.forward_heads"):
        put(f"{name}.rows_per_call", _ratio(rec.rows[name], rec.calls[name]), "ratio")

    update_self = 0.0
    if rec.calls["training.train_stage2"]:
        update_self = (rec.incl["training.train_stage2"] - rec.incl["training.collect_rollouts"]
                       - rec.incl["training.probe_success_rate"]
                       - rec.incl["training.prepare_stage1_data"])
    put("training.ppo_update.self_pct", _pct(update_self, stage_wall_s), "%")
    detail.append(("training.ppo_update(self)", rec.calls["training.train_stage2"] / per,
                   update_self / per))
    put("trace.overhead_s", overhead_s, "s")

    plans = sorted(rec.samples["teacher.plan_path"])
    if len(plans) >= 2:
        q = statistics.quantiles(plans, n=10)
        detail.append(("teacher.plan_path ms_p50/ms_p90", 1e3 * statistics.median(plans), 1e3 * q[8]))
    return m, detail


def coverage_failures(rec: Recorder, workload: str, sites: Counter):
    """Expected spans that recorded no call, and spans bound nowhere."""
    missing = [name for name, _, _, expect, _ in SPANS
               if workload in expect and rec.calls[name] == 0]
    unbound = [name for name, *_ in SPANS if sites[name] == 0]
    return missing + [f"{name} (no binding site)" for name in unbound]
