"""Source hygiene: every name a tiernav module imports is read in that module,
every import sits at module level and names only modules earlier in ORDER,
every text-mode open() names its encoding, only util.py opens a file to
write, only agent.py and training.py render or map, and every public
top-level function and class is named by the program."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tiernav"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Names bound by import statements anywhere in the module, with line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def read_names(tree):
    """Names loaded anywhere, including inside string annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= read_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str):
    tree = ast.parse(source)
    read = read_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .world import CityWorld\n"
        "def f(w: 'CityWorld'):\n"
        "    from .agent import run_episode, save_policy\n"
        "    return np.zeros(1), run_episode\n"
    )
    assert unused_imports(source) == [(2, "os"), (8, "save_policy")]


def nested_imports(source: str):
    """Line numbers of import statements that are not direct children of the module body."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_scan_flags_nested_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .world import CityWorld\n"
        "def f():\n"
        "    import json\n"
        "    from .agent import run_episode\n"
        "class C:\n"
        "    from .util import substream\n"
    )
    assert nested_imports(source) == [5, 7, 8, 10]


# each module imports only from modules before it
ORDER = ("errors", "util", "autodiff", "layers", "optim", "checkpoint", "world", "mapper",
         "teacher", "agent", "evaluation", "training", "config", "cli")


def backward_imports(module: str, source: str):
    """(line, target) of each relative import in `module` that names a module at or
    after its own place in ORDER; names of the package itself (__version__) are allowed."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        targets = [node.module.split(".")[0]] if node.module else [a.name for a in node.names if a.name in ORDER]
        out += [(node.lineno, t) for t in targets if ORDER.index(t) >= ORDER.index(module)]
    return out


def test_order_names_every_module():
    assert sorted(ORDER) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_follow_module_order(path):
    assert backward_imports(path.stem, path.read_text()) == []


def test_scan_flags_imports_against_the_order():
    source = (
        "from . import __version__\n"
        "from . import autodiff as ad, training\n"
        "from .world import step\n"
        "from .agent import run_episode\n"
        "from .teacher.sub import x\n"
        "import numpy as np\n"
    )
    assert backward_imports("teacher", source) == [(2, "training"), (4, "agent"), (5, "teacher")]


def open_calls(source: str):
    """(line, mode node or None, keywords, positional argument count) of each open() call."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            keywords = {k.arg: k.value for k in node.keywords}
            yield node.lineno, node.args[1] if len(node.args) > 1 else keywords.get("mode"), keywords, len(node.args)


def unencoded_opens(source: str):
    """Line numbers of open() calls in text mode that name no encoding."""
    out = []
    for line, mode, keywords, n_args in open_calls(source):
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if not binary and "encoding" not in keywords and n_args < 4:
            out.append(line)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_text_opens_name_an_encoding(path):
    assert unencoded_opens(path.read_text()) == []


def test_scan_flags_text_opens_without_encoding():
    source = (
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, encoding='utf-8')\n"
        "open(p, 'w')\n"
        "open(p, mode='wb')\n"
        "open(p, mode=m)\n"
        "open(p, 'r', -1, 'utf-8')\n"
    )
    assert unencoded_opens(source) == [1, 4, 6]


def write_opens(source: str):
    """Line numbers of open() calls that may write: a mode with w, a, x or +, or one that is no constant."""
    return [line for line, mode, _, _ in open_calls(source)
            if mode is not None and not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+"))]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "util.py"], ids=lambda p: p.name)
def test_only_util_opens_a_file_to_write(path):
    # util.atomic_write is the one file writer: a reader never sees a half-written file
    assert write_opens(path.read_text()) == []


def test_scan_flags_write_opens():
    source = (
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, encoding='utf-8')\n"
        "open(p, 'w')\n"
        "open(p, mode='ab')\n"
        "open(p, 'x', encoding='utf-8')\n"
        "open(p, 'r+b')\n"
        "open(p, mode=m)\n"
    )
    assert write_opens(source) == [4, 5, 6, 7, 8]
    world = (SRC / "world.py").read_text()
    planted = world + "\n\ndef dump(path, text):\n    with open(path, 'w', encoding='utf-8') as f:\n        f.write(text)\n"
    assert write_opens(planted) == [len(world.splitlines()) + 4]


PERCEPTION = ("render_observation", "init_map", "update_map")


def perception_calls(source: str):
    """Line numbers of calls to a PERCEPTION function, by bare name or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in PERCEPTION]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("agent.py", "training.py")],
                         ids=lambda p: p.name)
def test_only_the_runner_and_stage1_data_render_or_map(path):
    # a demonstration is labels only: the episode runner (agent.run_episode)
    # and stage-1 data preparation (training.prepare_stage1_data) build each
    # step's observation and belief map, under the policy's prior
    assert perception_calls(path.read_text()) == []


def test_scan_flags_perception_calls():
    source = (
        "obs = render_observation(w, s)\n"
        "nav = mapper.init_map(w, e, None)\n"
        "f(update_map)\n"
        "update_map(nav, s, obs)\n"
        "render(w, s)\n"
    )
    assert perception_calls(source) == [1, 2, 4]
    teacher = (SRC / "teacher.py").read_text()
    planted = teacher + "\n\ndef perceive(world, state):\n    return render_observation(world, state)\n"
    assert perception_calls(planted) == [len(teacher.splitlines()) + 4]


def load_spans():
    """perfbench/spans.py, imported by path without importing tiernav through it."""
    import importlib.util

    path = SRC.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_span_names_resolve():
    # a rename in tiernav that the traced benchmark runs would trip over fails here first
    import importlib

    from tiernav import autodiff

    spans = load_spans()
    missing = []
    for name, modname, path, _, _ in spans.SPANS:
        obj = importlib.import_module(f"tiernav.{modname}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    missing += [f"autodiff.{f}" for f in spans.AUTODIFF_FUNCS if not callable(getattr(autodiff, f, None))]
    assert missing == []


def test_tracer_counts_rows_and_restores_bindings():
    # a traced span's rows function must read the signature it wraps
    import importlib

    import numpy as np

    from tiernav import autodiff as ad
    from tiernav.agent import NavPolicy
    from tiernav.mapper import MapEncoder
    from tiernav.optim import AdamW
    from tiernav.util import substream

    spans = load_spans()
    modules = [importlib.import_module(f"tiernav.{modname}") for _, modname, *_ in spans.SPANS]

    def bindings():
        """Every name bound in a traced module or class, by (namespace, name)."""
        return {(space.__name__, k): v for space in modules + [NavPolicy, MapEncoder, AdamW]
                for k, v in vars(space).items()}

    model = NavPolicy(substream(0, "trace"), 32, 32, 3, 4, 9, enc_widths=(4, 8), d_map=16)
    before = bindings()
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        with ad.no_grad():
            model.forward_heads(np.zeros((3, 16)), np.zeros((3, 7)), np.zeros((3, 4), dtype=np.int64),
                                np.zeros((3, 3, 9, 9)), np.zeros((3, 5)))
            model.map_encoder(ad.Tensor(np.zeros((2, 4, 32, 32))), train=False)
    finally:
        tracer.remove()
    assert rec.calls["agent.NavPolicy.forward_heads"] == 1 and rec.rows["agent.NavPolicy.forward_heads"] == 3
    assert rec.calls["mapper.MapEncoder"] == 1 and rec.rows["mapper.MapEncoder"] == 2
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


def named(tree):
    """Counts of the identifiers a tree reads or looks up: names, attributes, dotted-name strings."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            out.update(node.value.split("."))  # perfbench/spans.py looks spans up by name
    return out


def unnamed_public(sources):
    """(file, name) of each public top-level def or class in a tiernav module that no
    source in `sources` (path -> text) names outside that definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    total = sum((named(tree) for tree in trees.values()), Counter())
    return [(path.name, node.name) for path, tree in trees.items() if path.parent.name == "tiernav"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and total[node.name] == named(node)[node.name]]


def program_sources():
    return {p: p.read_text() for p in [*MODULES, *sorted((SRC.parent.parent / "perfbench").glob("*.py"))]}


def test_every_public_definition_is_named_by_the_program():
    # tests/ do not count: a public function that only tests call is dead code
    assert unnamed_public(program_sources()) == []


def test_scan_flags_definitions_only_tests_call():
    sources = program_sources()
    world = SRC / "world.py"
    sources[world] += "\n\ndef orphan(x):\n    return orphan(x - 1) if x else 0\n"
    assert unnamed_public(sources) == [("world.py", "orphan")]
