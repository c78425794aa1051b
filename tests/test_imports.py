"""No module of src/conmot imports a name it never reads.

A small stand-in for a linter's unused-import check: a module-level import
(also one under a module-level try or if) whose name is never read in its
module and is not listed in __all__ fails. __init__.py only re-exports, and
from __future__ imports are directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

import conmot

MODULES = sorted(p for p in Path(conmot.__file__).parent.glob("*.py") if p.name != "__init__.py")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_imports(body):
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, SCOPES):
            for field in ("body", "orelse", "handlers", "finalbody"):
                yield from _module_imports(getattr(node, field, []))


def _all(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read and name not in _all(tree)]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(module):
    assert unused_imports(module.read_text()) == []


def test_the_check_finds_an_unused_import_and_spares_a_read_or_exported_one():
    source = ("from __future__ import annotations\n"
              "import os\nimport math as m\nfrom json import dumps, loads\n"
              "try:\n    from gmpy2 import mpz\nexcept ImportError:\n    mpz = int\n"
              "__all__ = ['loads']\n"
              "def f():\n    import sys\n    return m.pi\n")
    assert unused_imports(source) == ["line 2: os", "line 4: dumps", "line 6: mpz"]
