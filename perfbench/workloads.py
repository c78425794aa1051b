"""The three workloads: inputs made from a seed, and the output checks.

A workload pass is a fixed list of operations. Each runs in a fresh
interpreter: a ``conmot`` command line invocation, or (``lib``) a batch of
exact-engine library calls. ``generate`` writes every config and library
input the pass needs into a directory; the program sees only those files.

Inputs whose expected output cannot be derived independently are drawn
from fixed candidate pools, one candidate per stratum, and checked against
``golden.json``: the outputs of the seed code for every candidate, written
once by ``make_golden.py``. Drawing per stratum also keeps the work of a
pass nearly the same from seed to seed. The exact workload needs no pool:
its checks (zero defects, exact levels, verified audits) hold for any
input.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact_alt_play", "series_invariants", "pair_scan")

# Values and defects of series reports may move at rounding level when the
# orbit evaluation is restructured; anything beyond this absolute tolerance
# is a changed result. Flags, depths and NaN positions must match exactly.
SERIES_TOL = 1e-9
# Relative tolerance for a float phi read from an exact orbit: ratio_to_float
# is within one ulp of the exact rational.
EXACT_PHI_RTOL = 1e-12

FIGURE_LEVELS = {"fig1": ["31375", "3940", "-12000"], "fig2": ["2740", "-4550", "-10825"]}

# --- exact_alt_play sizes
SQUARE_STEPS = (1500, 300)       # forward, backward rows on the 1x1 game
RECT_STEPS = (800, 150)          # forward, backward rows on the 2x3 game
RECT_DENOMINATOR = 4             # every 2x3 payoff entry is n/4, one n odd
AUDIT_SQUARE = (5000, 1000)      # steps, check_every on the 1x1 game
AUDIT_RECT = (2500, 500)         # steps, check_every on the 2x3 game

# --- series_invariants pools (decimal strings, read exactly by the config)
# Narrow strata: the inverse-solve count falls with |x|, so each stratum
# spans only 0.07 to keep a pass's work within about 1% across seeds. The
# first NaN defect falls near step 25, 14 and 11 in the three strata.
GD_STRATA = (
    tuple(f"{0.22 + 0.01 * j:.2f}" for j in range(8)),
    tuple(f"{0.56 + 0.01 * j:.2f}" for j in range(8)),
    tuple(f"{-0.66 - 0.01 * j:.2f}" for j in range(8)),
)
GD_MAP = {"kind": "gd", "objective": {"name": "double_well", "dimension": 1}, "step_size": "0.1"}
GD_TRUNCATION, GD_HORIZON = 64, 50
MWU_POOL = (
    ("0.5", "0.3", "0.2", "0.6", "0.4"),
    ("0.1", "0.1", "0.8", "0.3", "0.7"),
    ("0.25", "0.5", "0.25", "0.85", "0.15"),
    ("0.6", "0.35", "0.05", "0.5", "0.5"),
    ("0.2", "0.7", "0.1", "0.1", "0.9"),
    ("0.4", "0.4", "0.2", "0.75", "0.25"),
    ("0.15", "0.35", "0.5", "0.45", "0.55"),
    ("0.3", "0.1", "0.6", "0.2", "0.8"),
)
MWU_TRUNCATION, MWU_HORIZON = 32, 10
# Unit vectors with rational entries (a, b, c) / d, a^2 + b^2 + c^2 = d^2.
SPHERE_POOL = tuple(
    tuple(f"{v}/{d}" for v in (a, b, c))
    for a, b, c, d in (
        (1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9),
        (2, 6, 9, 11), (-1, 2, -2, 3), (2, -3, 6, 7), (7, -4, 4, 9),
    )
)
SPHERE_COEFFICIENTS = ["1", "-2", "0.5"]  # bump and quadratic are flat on the sphere
RGD_TRUNCATION, RGD_HORIZON = 32, 20
SIMULATE_POOL = tuple(f"{0.26 + 0.07 * j:.2f}" for j in range(8))
SIMULATE_STEPS, SIMULATE_TRUNCATION = (12, 6), 32   # backward stays inside the box
CLASSIFY_POOL = tuple(f"{0.22 + 0.04 * j:.2f}" for j in range(8))
CLASSIFY_SHIFTS = tuple(range(2, 8))
CLASSIFY_TOLERANCE = 1e-6

# --- pair_scan: each scan's sampling seed comes from a pool of 16
SCAN_SEEDS = tuple(range(101, 117))
SCANS = {
    "gd": ({"kind": "gd", "objective": {"name": "double_well", "dimension": 2},
            "step_size": "0.1"}, {"pairs": 20, "horizon": 500}),
    "mwu_exp": ({"kind": "mwu_exp", "objective": {"name": "quadratic", "dimension": 5},
                 "blocks": [3, 2], "step_size": "0.1"}, {"pairs": 10, "horizon": 500}),
    "rgd_sphere": ({"kind": "rgd_sphere",
                    "objective": {"name": "linear", "coefficients": SPHERE_COEFFICIENTS},
                    "step_size": "0.1"}, {"pairs": 20, "horizon": 500}),
    "alt_play": ({"kind": "alt_play", "payoff": {"matrix": [[1]]},
                  "step_sizes": ["1/10", "1/5"]},
                 {"pairs": 1000, "horizon": 5000, "box_halfwidth": 20.0}),
}


@dataclass
class Operation:
    """One process of a pass. ``args`` holds "{out}" for the output directory."""

    name: str
    mode: str  # "cli" or "lib"
    args: list[str]
    check: Callable[[Path], list[str]]  # output directory -> problems found


@dataclass
class Workload:
    name: str
    operations: list[Operation]
    setup_config: Path  # the first config, loaded by the setup measurement


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return path


def _cli(name: str, config: Path | None, command: list[str], check) -> Operation:
    args = (["--config", str(config)] if config else []) + ["--out", "{out}", *command]
    return Operation(name, "cli", args, check)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v != 0])


def _same(a, b, tol: float) -> bool:
    """Equal within tol; NaN only equals NaN. Accepts "nan" and "inf" strings."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# exact_alt_play


def exact_level(matrix, eta1: Fraction, eta2: Fraction, xy) -> Fraction:
    """Phi = |X|^2/eta1 - |Y|^2/eta2 + X.T A Y, in exact arithmetic."""
    a = [[Fraction(v) for v in row] for row in matrix]
    dx = len(a)
    x = [Fraction(v) for v in xy[:dx]]
    y = [Fraction(v) for v in xy[dx:]]
    cross = sum(x[i] * a[i][j] * y[j] for i in range(dx) for j in range(len(y)))
    return sum(v * v for v in x) / eta1 - sum(v * v for v in y) / eta2 + cross


def _check_exact_rows(path: Path, level: Fraction, steps: tuple[int, int]) -> list[str]:
    rows = _read_csv(path)
    forward, backward = steps
    problems = []
    if [int(r["t"]) for r in rows] != list(range(-backward, forward + 1)):
        problems.append(f"{path.name}: rows are not t = -{backward}..{forward}")
    bad_defect = [r["t"] for r in rows if r["defect"] != "0.0"]
    if bad_defect:
        problems.append(f"{path.name}: defect is not exactly 0.0 at t = {bad_defect[:3]}")
    tol = EXACT_PHI_RTOL * max(1.0, abs(float(level)))
    bad_phi = [r["t"] for r in rows if not abs(float(r["phi"]) - float(level)) <= tol]
    if bad_phi:
        problems.append(f"{path.name}: phi differs from the exact level {level} "
                        f"at t = {bad_phi[:3]}")
    return problems


def _simulate_exact_check(prefix: str, matrix, etas, states, steps):
    eta1, eta2 = (Fraction(e) for e in etas)

    def check(out: Path) -> list[str]:
        problems = []
        for i, xy in enumerate(states):
            level = exact_level(matrix, eta1, eta2, xy)
            problems += _check_exact_rows(out / f"{prefix}_trajectory_{i}.csv", level, steps)
        summary = json.loads((out / f"{prefix}_summary.json").read_text())
        if any(t["max_defect"] != 0.0 for t in summary["trajectories"]):
            problems.append(f"{prefix}_summary.json: a max_defect is not 0.0")
        return problems

    return check


def _figures_check(which: str):
    def check(out: Path) -> list[str]:
        summary = json.loads((out / f"{which}_summary.json").read_text())
        levels = [o["level_exact"] for o in summary["orbits"]]
        problems = []
        if levels != FIGURE_LEVELS[which]:
            problems.append(f"{which}: levels {levels} != {FIGURE_LEVELS[which]}")
        for i, level in enumerate(FIGURE_LEVELS[which]):
            rows = _read_csv(out / f"{which}_orbit_{i}.csv")
            if any(r["defect"] != "0.0" for r in rows):
                problems.append(f"{which}_orbit_{i}.csv: a defect is not exactly 0.0")
            tol = EXACT_PHI_RTOL * abs(float(level))
            if any(not abs(float(r["phi"]) - float(level)) <= tol for r in rows):
                problems.append(f"{which}_orbit_{i}.csv: phi differs from the level {level}")
        return problems

    return check


def _audits_check(jobs):
    def check(out: Path) -> list[str]:
        reports = json.loads((out / "audits.json").read_text())
        if len(reports) != len(jobs):
            return [f"audits.json has {len(reports)} reports for {len(jobs)} orbits"]
        problems = []
        for i, (job, rep) in enumerate(zip(jobs, reports)):
            ok = (rep["identity_verified"] is True and rep["conserved"] is True
                  and rep["max_defect"] == 0.0 and rep["steps"] == job["steps"])
            if not ok:
                problems.append(f"audit {i}: {rep}")
        return problems

    return check


def _exact_alt_play(rng: random.Random, d: Path) -> Workload:
    square = [["1"]]
    square_etas = ["1/10", "1/5"]
    numerators = [[_nonzero(rng, 7) for _ in range(3)] for _ in range(2)]
    numerators[0][0] = rng.choice([-7, -5, -3, -1, 1, 3, 5, 7])  # keeps D = 4 exactly
    rect = [[f"{n}/{RECT_DENOMINATOR}" for n in row] for row in numerators]
    rect_etas = ["1/10", "1/5"]
    square_states = [[_nonzero(rng, 60), _nonzero(rng, 60)] for _ in range(3)]
    rect_states = [[_nonzero(rng, 9) for _ in range(5)] for _ in range(2)]

    def sim_config(name, matrix, etas, states, steps):
        return _write(d / f"{name}.json", {
            "map": {"kind": "alt_play", "payoff": {"matrix": matrix}, "step_sizes": etas},
            "initial_states": states,
            "steps": {"forward": steps[0], "backward": steps[1]},
            "output": {"prefix": name},
        })

    square_cfg = sim_config("square", square, square_etas, square_states, SQUARE_STEPS)
    rect_cfg = sim_config("rect", rect, rect_etas, rect_states, RECT_STEPS)
    jobs = [
        {"payoff": square, "eta1": "1/20", "eta2": "1/50",
         "xy": [_nonzero(rng, 30), _nonzero(rng, 30)],
         "steps": AUDIT_SQUARE[0], "check_every": AUDIT_SQUARE[1]}
        for _ in range(3)
    ] + [
        {"payoff": rect, "eta1": rect_etas[0], "eta2": rect_etas[1],
         "xy": [_nonzero(rng, 9) for _ in range(5)],
         "steps": AUDIT_RECT[0], "check_every": AUDIT_RECT[1]}
        for _ in range(3)
    ]
    lib_input = _write(d / "audits_input.json", {"audits": jobs})
    ops = [
        _cli("simulate-square", square_cfg, ["simulate"], _simulate_exact_check(
            "square", square, square_etas, square_states, SQUARE_STEPS)),
        _cli("simulate-rect", rect_cfg, ["simulate"], _simulate_exact_check(
            "rect", rect, rect_etas, rect_states, RECT_STEPS)),
        _cli("figures-fig1", None, ["figures", "fig1"], _figures_check("fig1")),
        _cli("figures-fig2", None, ["figures", "fig2"], _figures_check("fig2")),
        Operation("audits", "lib", [str(lib_input), "{out}"], _audits_check(jobs)),
    ]
    return Workload("exact_alt_play", ops, square_cfg)


# ---------------------------------------------------------------------------
# series_invariants


def gd_invariant_doc(states) -> dict:
    return {
        "map": GD_MAP,
        "initial_states": [[x] for x in states],
        "invariant": {"kind": "series", "truncation": GD_TRUNCATION,
                      "defect_horizon": GD_HORIZON},
        "output": {"prefix": "gd"},
    }


def mwu_invariant_doc(state) -> dict:
    return {
        "map": {"kind": "mwu_exp", "objective": {"name": "quadratic", "dimension": 5},
                "blocks": [3, 2], "step_size": "0.1"},
        "initial_states": [list(state)],
        "invariant": {"kind": "series", "truncation": MWU_TRUNCATION,
                      "defect_horizon": MWU_HORIZON},
        "output": {"prefix": "mwu"},
    }


def rgd_invariant_doc(state) -> dict:
    return {
        "map": {"kind": "rgd_sphere",
                "objective": {"name": "linear", "coefficients": SPHERE_COEFFICIENTS},
                "step_size": "0.1"},
        "initial_states": [list(state)],
        "invariant": {"kind": "series", "truncation": RGD_TRUNCATION,
                      "defect_horizon": RGD_HORIZON},
        "output": {"prefix": "rgd"},
    }


def simulate_series_doc(x: str) -> dict:
    return {
        "map": GD_MAP,
        "initial_states": [[x]],
        "steps": {"forward": SIMULATE_STEPS[0], "backward": SIMULATE_STEPS[1]},
        "invariant": {"kind": "series", "truncation": SIMULATE_TRUNCATION},
        "output": {"prefix": "series_rows"},
    }


def classify_target(x: str, shift: int) -> float:
    """T^shift(x) for gradient descent on the double well, step 0.1."""
    y = float(Fraction(x))
    for _ in range(shift):
        y = y - 0.1 * (y**3 - y)
    return y


def classify_doc(x: str, shift: int) -> dict:
    return {
        "map": GD_MAP,
        "invariant": {"kind": "series", "truncation": GD_TRUNCATION},
        "classify": {"x": [x], "y": [classify_target(x, shift)],
                     "tolerance": CLASSIFY_TOLERANCE},
        "output": {"prefix": "classify"},
    }


def state_key(state) -> str:
    return ",".join(state) if isinstance(state, (list, tuple)) else state


def series_report_fields(result: dict) -> dict:
    """The parts of one invariant result that the benchmark pins."""
    return {k: result[k] for k in ("value", "truncation_n", "per_step_defect", "divergent",
                                   "one_sided", "fixed_point", "converged_early")}


def compare_series(got: dict, want: dict, where: str) -> list[str]:
    problems = []
    for key in ("truncation_n", "divergent", "one_sided", "fixed_point", "converged_early"):
        if got[key] != want[key]:
            problems.append(f"{where}: {key} {got[key]!r} != {want[key]!r}")
    if not _same(got["value"], want["value"], SERIES_TOL):
        problems.append(f"{where}: value {got['value']} != {want['value']}")
    gd, wd = got["per_step_defect"], want["per_step_defect"]
    if len(gd) != len(wd):
        problems.append(f"{where}: {len(gd)} defects != {len(wd)}")
    else:
        bad = [i for i, (a, b) in enumerate(zip(gd, wd)) if not _same(a, b, SERIES_TOL)]
        if bad:
            problems.append(f"{where}: defects differ (or NaN moved) at steps {bad[:5]}")
    return problems


def _invariant_check(prefix: str, golden: dict, keys: list[str]):
    def check(out: Path) -> list[str]:
        results = json.loads((out / f"{prefix}_invariant.json").read_text())["results"]
        if len(results) != len(keys):
            return [f"{prefix}: {len(results)} results for {len(keys)} states"]
        problems = []
        for key, result in zip(keys, results):
            problems += compare_series(series_report_fields(result), golden[key],
                                       f"{prefix} state {key}")
        return problems

    return check


def simulate_rows(out: Path) -> list[list[str]]:
    return [list(r.values()) for r in _read_csv(out / "series_rows_trajectory_0.csv")]


def _simulate_series_check(want: dict):
    def check(out: Path) -> list[str]:
        rows = simulate_rows(out)
        if len(rows) != len(want["rows"]):
            return [f"series simulate: {len(rows)} rows != {len(want['rows'])}"]
        bad = [r[0] for r, w in zip(rows, want["rows"])
               if r[0] != w[0] or not all(_same(a, b, SERIES_TOL) for a, b in zip(r[1:], w[1:]))]
        return [f"series simulate: rows differ at t = {bad[:5]}"] if bad else []

    return check


def classify_fields(out: Path) -> dict:
    return json.loads((out / "classify_classify.json").read_text())


def _classify_check(want: dict):
    def check(out: Path) -> list[str]:
        got = classify_fields(out)
        problems = [f"classify: {k} {got[k]!r} != {want[k]!r}"
                    for k in ("answer", "index", "search_mode") if got[k] != want[k]]
        problems += [f"classify: {k} {got[k]} != {want[k]}"
                     for k in ("closest_approach", "invariant_gap")
                     if not _same(got[k], want[k], SERIES_TOL)]
        return problems

    return check


def _series_invariants(rng: random.Random, d: Path, golden: dict) -> Workload:
    g = golden["series_invariants"]
    gd_states = [rng.choice(stratum) for stratum in GD_STRATA]
    mwu_state = rng.choice(MWU_POOL)
    rgd_state = rng.choice(SPHERE_POOL)
    sim_x = rng.choice(SIMULATE_POOL)
    cls_x, cls_shift = rng.choice(CLASSIFY_POOL), rng.choice(CLASSIFY_SHIFTS)

    gd_cfg = _write(d / "gd_invariant.json", gd_invariant_doc(gd_states))
    mwu_cfg = _write(d / "mwu_invariant.json", mwu_invariant_doc(mwu_state))
    rgd_cfg = _write(d / "rgd_invariant.json", rgd_invariant_doc(rgd_state))
    sim_cfg = _write(d / "series_simulate.json", simulate_series_doc(sim_x))
    cls_cfg = _write(d / "classify.json", classify_doc(cls_x, cls_shift))
    ops = [
        _cli("invariant-gd", gd_cfg, ["invariant"],
             _invariant_check("gd", g["gd"], gd_states)),
        _cli("invariant-mwu_exp", mwu_cfg, ["invariant"],
             _invariant_check("mwu", g["mwu_exp"], [state_key(mwu_state)])),
        _cli("invariant-rgd_sphere", rgd_cfg, ["invariant"],
             _invariant_check("rgd", g["rgd_sphere"], [state_key(rgd_state)])),
        _cli("simulate-series", sim_cfg, ["simulate"],
             _simulate_series_check(g["simulate"][sim_x])),
        _cli("classify", cls_cfg, ["classify"],
             _classify_check(g["classify"][f"{cls_x}|{cls_shift}"])),
    ]
    return Workload("series_invariants", ops, gd_cfg)


# ---------------------------------------------------------------------------
# pair_scan


def scan_doc(kind: str, seed: int) -> dict:
    map_section, scan = SCANS[kind]
    return {"map": map_section, "scan": scan, "seed": seed, "output": {"prefix": kind}}


def scan_fields(out: Path, kind: str) -> dict:
    payload = json.loads((out / f"{kind}_scan.json").read_text())
    fields = {"pairs": payload["pairs"], "verdict_counts": payload["verdict_counts"]}
    if "confinement" in payload:
        c = payload["confinement"]
        fields["confinement"] = {"status": c["status"], "refutations": len(c["refutations"])}
    return fields


def _scan_check(kind: str, want: dict):
    def check(out: Path) -> list[str]:
        got = scan_fields(out, kind)
        problems = [f"scan {kind}: {got} != {want}"] if got != want else []
        confined = {"status": "completed", "refutations": 0}
        if kind == "alt_play" and got.get("confinement") != confined:
            problems.append(f"scan alt_play: confinement {got.get('confinement')}")
        return problems

    return check


def _pair_scan(rng: random.Random, d: Path, golden: dict) -> Workload:
    g = golden["pair_scan"]
    ops, first = [], None
    for kind in SCANS:
        seed = rng.choice(SCAN_SEEDS)
        cfg = _write(d / f"scan_{kind}.json", scan_doc(kind, seed))
        first = first or cfg
        ops.append(_cli(f"scan-{kind}", cfg, ["scan"], _scan_check(kind, g[kind][str(seed)])))
    return Workload("pair_scan", ops, first)


def generate(name: str, seed: int, inputs: Path) -> Workload:
    """Write the inputs of one workload for this seed; return its pass plan."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "exact_alt_play":
        return _exact_alt_play(rng, inputs)
    golden = load_golden()
    if name == "series_invariants":
        return _series_invariants(rng, inputs, golden)
    return _pair_scan(rng, inputs, golden)
