"""What the modules of src/conmot import, and what a process loads.

A small stand-in for a linter's unused-import check: a module-level import
(also one under a module-level try or if) whose name is never read in its
module and is not listed in __all__ fails. __init__.py only re-exports, and
from __future__ imports are directives, so both are exempt. The packages
that src/conmot and tests import, at any depth, must be the ones that
pyproject.toml declares: project.dependencies for src, plus the test extra
for tests.

The exact engine runs without numpy: errors, rationals, exact and config
import it at module level nowhere. One table of fresh interpreters checks
what each process leaves out of sys.modules: ``import conmot`` loads no
submodule (each exported name is imported on first access); figures, a
conservation audit, an alt_play load_config, alt_play simulate and a
closed-form invariant, with or without a defect horizon, load no numpy and
no float module; figures and alt_play simulate, which fork row readers,
load no process pool and no pickle; a gd load (also one whose series
invariant has a weight, whose keys it checks) or simulate loads no module
it does not run; the float commands and a float load_config load no exact
engine, and a float scan no dynamics or invariants either; nor does an
alt_play scan, which reads its pairs through difference_log_stats. A
static check keeps the float modules' imports of exact, and chaos's of
dynamics, inside functions. Two more fresh interpreters count the LAPACK
drivers that an mwu_exp and an rgd_sphere invariant call: their Newton
inverses run square solves only, with no SVD and no least squares.
"""

import ast
import importlib
import json
import os
import re
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


def imported_packages(paths) -> set[str]:
    """The top-level name of every absolute import in the files, at module
    level or inside functions, less the standard library and conmot."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.partition(".")[0])
    return found - set(sys.stdlib_module_names) - {"conmot"}


def test_declared_dependencies_are_what_the_code_imports():
    """src imports exactly project.dependencies, and the tests exactly those
    plus the test extra; a module that is a file in tests/ is no package."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    root = Path(conmot.__file__).parents[2]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in requirements}

    runtime = names(project["dependencies"])
    assert imported_packages(MODULES + [Path(conmot.__file__)]) == runtime
    tests = sorted((root / "tests").glob("*.py"))
    assert imported_packages(tests) - {p.stem for p in tests} == (
        runtime | names(project["optional-dependencies"]["test"]))


def calls_by_function(source: str, callee: str) -> list[str]:
    """The innermost enclosing function of each call of callee, by plain
    name or as an attribute; "<module>" outside any function. A method is
    named with its class, "Class.method", since methods of two classes can
    share a name."""
    found = []

    def visit(node, scope, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == callee:
                    found.append(scope)
            if isinstance(child, ast.ClassDef):
                visit(child, scope, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{cls}.{child.name}" if cls else child.name)
            else:
                visit(child, scope, cls)

    visit(ast.parse(source), "<module>")
    return found


def test_the_step_is_certified_only_where_the_closed_form_is_built():
    """BipartiteInvariant builds, certifies and evaluates the one integer step
    of its game: an exact orbit, an alt_play map and every library entry read
    a closed form's M, M_inv or H and certify none of their own. Its public
    methods stay the evaluation alone, the set perfbench/tracer.py wraps."""
    from conmot.exact import BipartiteInvariant

    callers = sorted(f"{path.name}:{scope}" for path in MODULES
                     for scope in calls_by_function(path.read_text(), "_certified"))
    assert callers == ["exact.py:BipartiteInvariant.__init__"]
    public = {name for name, member in vars(BipartiteInvariant).items()
              if callable(member) and (not name.startswith("_") or name == "__call__")}
    assert public == {"exact", "relative_gap", "__call__"}


def test_the_call_check_finds_every_caller():
    source = ("x = _certified(1)\n"
              "class C:\n    def m(self):\n        return self._certified(2)\n"
              "    y = _certified(5)\n"
              "def f():\n    def g():\n        return _certified(3)\n    return other(4)\n")
    assert calls_by_function(source, "_certified") == ["<module>", "C.m", "<module>", "g"]


def _runtime_imports(source: str) -> set[str]:
    """The conmot modules a module imports at module level when it runs:
    imports under a top-level ``if TYPE_CHECKING:`` never run."""
    body = [node for node in ast.parse(source).body if not (
        isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING")]
    found = set()
    for node in _module_imports(body):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        else:
            base = "conmot" if node.level else ""
            base = ".".join(p for p in (base, node.module) if p)
            found.update([base, *(f"{base}.{alias.name}" for alias in node.names)])
    return found


def test_the_runtime_import_scan_sees_each_form_and_skips_type_checking():
    source = ("from typing import TYPE_CHECKING\nfrom .maps import step_points\n"
              "from . import dynamics\nimport conmot.chaos\n"
              "if TYPE_CHECKING:\n    from .exact import PayoffData\n"
              "def f():\n    from .invariants import series_invariant\n")
    found = _runtime_imports(source)
    assert {"conmot.maps", "conmot.dynamics", "conmot.chaos"} <= found
    assert not {"conmot.exact", "conmot.invariants"} & found


@pytest.mark.parametrize("name, lazy", [
    *((name, "conmot.exact") for name in
      ("state", "objectives", "maps", "dynamics", "invariants", "chaos")),
    ("chaos", "conmot.dynamics"),
])
def test_the_float_stack_imports_what_only_some_calls_run_inside_functions(name, lazy):
    """The float modules reach the exact engine, and chaos reaches dynamics,
    only from the functions that run them, so a float command loads neither."""
    assert lazy not in _runtime_imports((Path(conmot.__file__).parent / f"{name}.py").read_text())


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


def _last_json(code: str, *argv: str):
    """The JSON value a fresh interpreter prints last, running code with argv."""
    src = str(Path(conmot.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _loaded(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running code with argv."""
    return set(_last_json(code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))",
                          *argv))


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
SERIES = {"kind": "series", "truncation": 8, "defect_horizon": 2}
BUMP = {"kind": "gaussian-bump", "center": [0.0], "width": 1.0}
MWU = {"map": {"kind": "mwu_exp", "objective": {"name": "quadratic", "dimension": 3},
               "blocks": [3], "step_size": "0.1"},
       "initial_states": [["0.5", "0.3", "0.2"]], "scan": {"pairs": 2, "horizon": 20}, "seed": 1}
SPHERE = {"map": {"kind": "rgd_sphere", "step_size": "0.1",
                  "objective": {"name": "linear", "coefficients": [1, -2, 0.5]}},
          "initial_states": [["0.6", "0.8", "0"]], "invariant": SERIES}
GD_SCAN = dict(GD, scan={"pairs": 2, "horizon": 20}, seed=1)
GD_SERIES = dict(GD, invariant=SERIES, classify={"x": [0.5], "y": [0.45]})
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
# What a float load_config never loads, weight keys and all.
LOAD_SKIPS = {"conmot.chaos", "conmot.dynamics", "conmot.invariants", "conmot.exact"}
# What a float scan never loads: it steps pairs forward and sums no series.
SCAN_SKIPS = {"conmot.exact", "conmot.dynamics", "conmot.invariants"}

# name: (code, config, argv, modules that must stay out of sys.modules)
GUARDS = {
    "import-conmot": ("import conmot", None, [], {f"conmot.{p.stem}" for p in MODULES}),
    "figures-fig1": (CLI, None, [*RUN[2:], "figures", "fig1"], {"numpy"} | POOLS),
    "figures-fig2": (CLI, None, [*RUN[2:], "figures", "fig2"], {"numpy"} | POOLS),
    "cli-module-and-audit": (AUDIT, None, [], {"numpy"}),
    "gd-load": (LOAD, GD, ["{config}"], LOAD_SKIPS),
    "gd-load-series-bump": (LOAD, dict(GD, invariant=dict(SERIES, weight=BUMP)), ["{config}"],
                            LOAD_SKIPS),
    "gd-simulate": (CLI, GD, [*RUN, "simulate"], {"conmot.chaos"}),
    "gd-simulate-series": (CLI, GD_SERIES, [*RUN, "simulate"], {"conmot.exact", "conmot.chaos"}),
    "gd-classify-series": (CLI, GD_SERIES, [*RUN, "classify"], {"conmot.exact"}),
    "gd-scan": (CLI, GD_SCAN, [*RUN, "scan"], SCAN_SKIPS),
    "mwu_exp-scan": (CLI, MWU, [*RUN, "scan"], SCAN_SKIPS),
    "mwu_exp-invariant": (CLI, dict(MWU, invariant=SERIES), [*RUN, "invariant"],
                          {"conmot.exact", "conmot.chaos"}),
    "rgd_sphere-invariant": (CLI, SPHERE, [*RUN, "invariant"], {"conmot.exact", "conmot.chaos"}),
    "alt_play-load": (LOAD, SQUARE, ["{config}"], FLOAT_STACK),
    "alt_play-scan": (CLI, dict(SQUARE, scan={"pairs": 2, "horizon": 20}, seed=1),
                      [*RUN, "scan"], {"conmot.dynamics", "conmot.invariants"}),
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


# Counts the calls of three LAPACK drivers, and the LinAlgErrors they raise,
# while the CLI runs.
LAPACK_COUNTS = """
import json, sys
import numpy as np
calls = {"svd": 0, "lstsq": 0, "solve": 0, "LinAlgError": 0}

def counted(name, real):
    def call(*args, **kwargs):
        calls[name] += 1
        try:
            return real(*args, **kwargs)
        except np.linalg.LinAlgError:
            calls["LinAlgError"] += 1
            raise
    return call

for name in ("svd", "lstsq", "solve"):
    setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
from conmot.cli import main
assert main(sys.argv[1:]) == 0
print(json.dumps(calls))
"""


@pytest.mark.parametrize("name", ["mwu_exp-invariant", "rgd_sphere-invariant"])
def test_the_inverse_runs_one_square_solve_per_newton_step(tmp_path, name):
    """The backward orbit of a series builds its tangent frames in closed
    form: no SVD, no least squares, and no solve that fails over to it."""
    _, doc, argv, _ = GUARDS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    calls = _last_json(LAPACK_COUNTS, *(a.format(config=config, out=tmp_path / "out")
                                        for a in argv))
    assert calls["solve"] > 0
    assert calls == {"svd": 0, "lstsq": 0, "solve": calls["solve"], "LinAlgError": 0}
