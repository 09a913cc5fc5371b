"""Every name a ``squig`` module imports is used in that module, and every
name a ``squig`` function assigns is read.

``__init__.py`` is exempt from the first: its imports are the package's
re-exports.  A name listed in a module's ``__all__`` counts as used.
"""

import ast
from pathlib import Path

import pytest

import squig

PACKAGE = Path(squig.__file__).resolve().parent
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from typing import Callable, Mapping\n__all__ = ['Mapping']\n"
              "def f(x: Callable) -> None:\n    sys.exit(x)\n")
    assert unused_imports(source) == ["os (line 2)"]


def unused_locals(source: str) -> list[str]:
    """``function.name (line N)`` of each name that a top-level function or
    method assigns and never reads, ``_`` excepted.  A nested function is
    read with the one that holds it, so a closure's read counts; an
    augmented assignment and a ``global``/``nonlocal`` declaration count as
    reads."""
    functions = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            functions += [f for f in stmt.body
                          if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(stmt)
    found = []
    for function in functions:
        stored, read = {}, set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found += [f"{function.name}.{name} (line {line})" for name, line in stored.items()
                  if name != "_" and name not in read]
    return sorted(found)


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_functions_read_every_name_they_assign(path):
    assert unused_locals(path.read_text()) == []


def test_the_check_sees_an_unused_local():
    source = ("def f(xs):\n    n = len(xs)\n    total = 0\n    for _, x in xs:\n"
              "        total += x\n    def g():\n        return total\n"
              "    return g\n"
              "class C:\n    def m(self):\n        lost = self.x\n        return 1\n"
              "def h():\n    global seen\n    seen = 1\n    a, b = 1, 2\n    return a\n")
    assert unused_locals(source) == ["f.n (line 2)", "h.b (line 16)", "m.lost (line 11)"]
