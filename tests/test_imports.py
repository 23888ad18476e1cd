"""Every module-level import in the package and in its tests is used.

An import kept for a reason the code does not show, such as a name that
other code looks up on the module, says so on its own line: "# noqa: F401"
followed by the reason. The names the benchmark's tracer wraps are checked
here too, so that deleting or moving one fails without a traced run.
"""

import ast
import importlib
import re
from pathlib import Path

import faircert.experiments

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "faircert").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
EXCUSED = re.compile(r"#\s*noqa:\s*F401\s+\S")  # the reason must follow


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including those in string annotations and
    those it re-exports through __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= used_names(ast.parse(annotation.value))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, imported name) of each unused, unexcused module-level import."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = used_names(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and not EXCUSED.search(lines[alias.lineno - 1]):
                unused.append((alias.lineno, alias.name))
    return unused


def test_no_unused_module_level_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in FILES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_check_finds_each_unused_import_without_a_reason():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "import sys  # noqa: F401  (looked up by name elsewhere)\n"
        "import xml.dom\n"
        "from typing import (\n"
        "    Callable,\n"
        "    Sequence,\n"
        ")\n"
        "x: 'Sequence[int]' = [xml.dom]\n"
        "__all__ = ['y']\n"
        "from m import y\n"
    )
    assert unused_imports(source) == [(2, "math"), (3, "os"), (7, "Callable")]


def test_every_name_the_bench_tracer_wraps_exists(monkeypatch):
    # The tracer looks each one up with vars(owner)[attr] when it installs.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    missing = []
    for owner, attr, *_ in tracing._wrap_table(faircert):
        try:
            vars(owner)[attr]
        except KeyError:
            missing.append(f"{owner.__name__}.{attr}")
    assert missing == []
