"""Source hygiene: every name a tiernav module imports is read in that module."""

import ast
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
