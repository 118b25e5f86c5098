"""``src/`` holds only the program.

Every module-level function and class under ``src/repro`` must be used
somewhere a program path can reach it: ``src/``, the repo benchmark
(``bench/``), the paper-figure harnesses (``benchmarks/``) or the
examples.  A definition counts as used when its name appears there as a
name or an attribute (its own ``def``/``class`` line and bare imports do
not count), when it is the target of a bench probe string such as
``"repro.engines.worker:_schedule_window"``, or when a package lists it
in ``__all__``.  Test-only code belongs in ``tests/oracles/`` (a
reference a test holds program code to) or nowhere at all.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "bench", "benchmarks", "examples")
#: ``"repro.module:Qualified.name"`` — the bench tracer's probe targets.
PROBE_TARGET = re.compile(r"^repro(?:\.\w+)*:([\w.]+)$")


def _trees(top: Path):
    for path in sorted(top.rglob("*.py")):
        if "tests" in path.relative_to(ROOT).parts:
            continue
        yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    for path, tree in _trees(SRC):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.relative_to(ROOT), node.name


def _all_names(tree: ast.Module):
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    yield elt.value


def _used_names() -> set:
    used: set = set()
    for top in PROGRAM_DIRS:
        for _, tree in _trees(ROOT / top):
            used.update(_all_names(tree))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    match = PROBE_TARGET.match(node.value)
                    if match:
                        used.update(match.group(1).split("."))
    return used


def test_every_src_definition_is_reached_from_the_program():
    used = _used_names()
    unreached = [f"{path}::{name}" for path, name in _definitions() if name not in used]
    assert not unreached, (
        "definitions in src/ that no program path reaches (move a test "
        "oracle to tests/oracles/, delete an unused capability): "
        + ", ".join(unreached)
    )
