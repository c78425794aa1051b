"""What the modules of src/conmot import, and what a process loads.

A small stand-in for a linter's unused-import check: a module-level import
(also one under a module-level try or if) whose name is never read in its
module and is not listed in __all__ fails. __init__.py only re-exports, and
from __future__ imports are directives, so both are exempt.

The exact engine runs without numpy: errors, rationals, exact and config
import it at module level nowhere. One table of fresh interpreters checks
what each process leaves out of sys.modules: ``import conmot`` loads no
submodule (each exported name is imported on first access); figures, a
conservation audit, an alt_play load_config, alt_play simulate and a
closed-form invariant, with or without a defect horizon, load no numpy and
no float module; figures and alt_play simulate, which fork row readers,
load no process pool and no pickle; a gd load or simulate loads no module
it does not run.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("name", ["errors.py", "rationals.py", "exact.py", "config.py"])
def test_the_exact_engine_modules_import_numpy_only_inside_functions(name):
    tree = ast.parse((Path(conmot.__file__).parent / name).read_text())
    imported = {(node.module or "") if isinstance(node, ast.ImportFrom) else alias.name
                for node in _module_imports(tree.body) for alias in node.names}
    assert not {m for m in imported if m.split(".")[0] == "numpy"}


def test_every_exported_name_resolves_to_its_module_object():
    for name in conmot.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"conmot.{conmot._MODULE_OF[name]}")
        assert getattr(conmot, name) is getattr(module, name), name
    assert set(conmot.__all__) <= set(dir(conmot))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(conmot, "no_such_name")


def _loaded(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running code with argv."""
    src = str(Path(conmot.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


CLI = "import sys; from conmot.cli import main; assert main(sys.argv[1:]) == 0"
LOAD = "import sys, conmot; conmot.load_config(sys.argv[1])"
AUDIT = ("import conmot.cli\n"
         "from conmot import PayoffData, conservation_audit\n"
         "audit = conservation_audit(PayoffData.from_matrix([[1]]), '0.1', '0.2', [60, -25], 400)\n"
         "assert audit.conserved and audit.identity_verified")
RUN = ["--config", "{config}", "--out", "{out}"]

GD = {"map": {"kind": "gd", "objective": {"name": "double_well", "dimension": 1},
              "step_size": 0.1},
      "initial_states": [[0.5]], "steps": {"forward": 20, "backward": 2}}
SQUARE = {"map": {"kind": "alt_play", "payoff": {"matrix": [[1]]}, "step_sizes": ["1/10", "1/5"]},
          "initial_states": [[60, -25]], "steps": {"forward": 40, "backward": 5},
          "invariant": {"kind": "closed-form"}}
RECT = {"map": {"kind": "alt_play", "payoff": {"matrix": [["1/4", -1, 2], [3, "-1/2", 1]]},
                "step_sizes": ["1/10", "1/5"]},
        "initial_states": [[1, -2, 3, -4, 5]], "steps": {"forward": 40, "backward": 5}}
# What the exact alt_play commands never load.
FLOAT_STACK = {"numpy", "conmot.maps", "conmot.objectives", "conmot.state", "conmot.dynamics",
               "conmot.invariants", "conmot.chaos"}
# What the commands that fork row readers never load: the workers are plain
# os.fork children that send marshal bytes through a pipe.
POOLS = {"multiprocessing", "concurrent.futures", "pickle"}

# name: (code, config, argv, modules that must stay out of sys.modules)
GUARDS = {
    "import-conmot": ("import conmot", None, [], {f"conmot.{p.stem}" for p in MODULES}),
    "figures-fig1": (CLI, None, [*RUN[2:], "figures", "fig1"], {"numpy"} | POOLS),
    "figures-fig2": (CLI, None, [*RUN[2:], "figures", "fig2"], {"numpy"} | POOLS),
    "cli-module-and-audit": (AUDIT, None, [], {"numpy"}),
    "gd-load": (LOAD, GD, ["{config}"], {"conmot.chaos", "conmot.dynamics", "conmot.invariants"}),
    "gd-simulate": (CLI, GD, [*RUN, "simulate"], {"conmot.chaos"}),
    "alt_play-load": (LOAD, SQUARE, ["{config}"], FLOAT_STACK),
    "alt_play-simulate-1x1": (CLI, SQUARE, [*RUN, "simulate"], FLOAT_STACK | POOLS),
    "alt_play-simulate-2x3": (CLI, RECT, [*RUN, "simulate"], FLOAT_STACK | POOLS),
    "alt_play-closed-form-invariant": (CLI, SQUARE, [*RUN, "invariant"], FLOAT_STACK),
    "alt_play-closed-form-invariant-with-horizon": (
        CLI, dict(SQUARE, invariant={"kind": "closed-form", "defect_horizon": 5}),
        [*RUN, "invariant"], FLOAT_STACK),
}


@pytest.mark.parametrize("name", GUARDS)
def test_a_process_loads_only_what_it_runs(tmp_path, name):
    code, doc, argv, absent = GUARDS[name]
    config, out = tmp_path / "config.json", tmp_path / "out"
    if doc is not None:
        config.write_text(json.dumps(doc))
    loaded = _loaded(code, *(a.format(config=config, out=out) for a in argv))
    assert not absent & loaded
    if code == CLI:
        assert any(out.iterdir())


def test_the_guards_see_a_float_command_load_numpy(tmp_path):
    """gd simulate reads the float map, states and series rows, so the same
    check sees numpy and the float modules load."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GD))
    argv = [a.format(config=config, out=tmp_path / "out") for a in RUN]
    assert FLOAT_STACK - {"conmot.chaos"} <= _loaded(CLI, *argv, "simulate")
