"""Whole-package guarantees, one test per guarantee.

Each test states what it holds the code to and at which tolerance, and runs
end to end on the public API (the last one drives the CLI). Run with -v to
get one pass or fail line per guarantee.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

from conmot.chaos import confinement_tally, pair_statistics
from conmot.cli import main
from conmot.dynamics import inverse_step
from conmot.exact import (
    BipartiteInvariant,
    ExactAltOrbit,
    PayoffData,
    certified_quadratic,
    conservation_audit,
)
from conmot.invariants import (
    constant_weight,
    dphi_rank,
    invariance_defect,
    make_series_invariant,
    series_invariant,
)
from conmot.maps import (
    _raw_step,
    alternating_play,
    descent_check,
    gradient_descent,
    mwu_exponential,
    mwu_linear,
    sphere_rgd,
    step_points,
)
from conmot.objectives import (
    bilinear,
    bump,
    double_well,
    linear,
    quadratic,
    validate_step_size_gd,
)
from conmot.state import State, _chart_residual, sample_chart, simplex_product
from region_sampling import sample_region


def _random_dyadic_instance(rng: random.Random):
    """A random bipartite game whose data are all dyadic rationals.

    Entries lie in [-1, 1] on the grid k/2**10, step sizes in roughly
    [0.01, 0.5] on the grid k/2**8, and the start point on the grid k/2**6.
    """
    dx = rng.randint(1, 3)
    dy = rng.randint(1, 3)
    matrix = [
        [Fraction(rng.randint(-1024, 1024), 1024) for _ in range(dy)]
        for _ in range(dx)
    ]
    eta1 = Fraction(rng.randint(3, 128), 256)
    eta2 = Fraction(rng.randint(3, 128), 256)
    xy0 = [Fraction(rng.randint(-640, 640), 64) for _ in range(dx + dy)]
    return PayoffData.from_matrix(matrix), eta1, eta2, xy0


def test_named_levels_are_exact_and_hold_for_ten_thousand_steps():
    """Six reference orbits sit on their stated integer levels, and the
    level is still exactly the same integer after 10000 exact steps (defect
    tolerance 1e-6, met with defect exactly 0.0). All six runs together must
    finish in under one second of wall time."""
    payoff = PayoffData.from_matrix([[Fraction(1)]])
    cases = [
        (
            Fraction(1, 10),
            Fraction(1, 5),
            [((60, -25), 31375), ((-20, 2), 3940), ((10, -50), -12000)],
        ),
        (
            Fraction(1, 20),
            Fraction(1, 50),
            [((-14, -5), 2740), ((5, -10), -4550), ((5, -15), -10825)],
        ),
    ]
    start = time.perf_counter()
    for eta1, eta2, orbits in cases:
        for init, level in orbits:
            phi = BipartiteInvariant(payoff, eta1, eta2)
            orb = ExactAltOrbit(phi, [Fraction(v) for v in init])
            assert orb.phi_fraction() == Fraction(level)
            for _ in range(10_000):
                orb.advance()
            assert orb.phi_matches_start()
            defect = orb.phi_and_defect_float()[1]
            assert defect == 0.0
            assert defect <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"six 10000-step exact orbits took {elapsed:.2f}s"


def test_random_dyadic_games_conserve_the_quadratic_exactly():
    """100 random bipartite games with dyadic data: the one-time matrix
    identity certifies conservation, and 1000-step exact orbits audited
    every 200 steps show max defect within 1e-9 (met with exactly 0.0).
    The whole batch must finish in under ten seconds."""
    rng = random.Random(1729)
    start = time.perf_counter()
    for _ in range(100):
        payoff, eta1, eta2, xy0 = _random_dyadic_instance(rng)
        audit = conservation_audit(payoff, eta1, eta2, xy0, steps=1000, check_every=200)
        assert audit.identity_verified
        assert audit.conserved
        assert audit.checkpoints == 5
        assert audit.max_defect == 0.0
        assert audit.max_defect <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"100 audited games took {elapsed:.2f}s"


def test_validated_step_sizes_never_break_monotone_descent():
    """For each catalog objective with a validated step size, 1000 random
    points with gradient norm above 1e-6 all satisfy f(x) - f(T x) > 0,
    with zero violations allowed."""
    catalog = [
        (quadratic(2), Fraction(9, 10)),
        (double_well(1), Fraction(1, 10)),
        (bump(2), Fraction(2, 5)),
        (linear(np.array([1.0, -2.0])), Fraction(1)),
        (bilinear(PayoffData.from_matrix([[Fraction(1)]])), Fraction(1, 2)),
    ]
    rng = np.random.default_rng(404)
    for objective, eta in catalog:
        verdict = validate_step_size_gd(objective, float(eta))
        assert verdict.accepted is True, objective.name
        map_instance = gradient_descent(objective, eta)
        violations = 0
        collected = 0
        while collected < 1000:
            x = sample_region(objective.region, rng, objective.dimension)
            if np.linalg.norm(objective.gradient(x)) <= 1e-6:
                continue
            collected += 1
            state = State(np.asarray(x, dtype=float), map_instance.chart)
            if descent_check(map_instance, state) <= 0.0:
                violations += 1
        assert violations == 0, f"{objective.name}: {violations} non-descent steps"


def test_series_invariant_converges_and_its_defect_shrinks_with_depth():
    """On the one-dimensional double well the truncated series reaches
    0.25 within 1e-6 by depth 200, and the 3-step invariance defect
    strictly decreases along depths 4, 8, 16, 32, 64, ending below 1e-6."""
    map_instance = gradient_descent(double_well(1), Fraction(1, 10))
    state = State(np.array([0.5]), map_instance.chart)
    weight = constant_weight(1.0)

    report = series_invariant(map_instance, weight, state, 200)
    assert not report.divergent
    assert report.truncation_n <= 200
    assert abs(report.value - 0.25) <= 1e-6

    defects = []
    for depth in (4, 8, 16, 32, 64):
        phi = make_series_invariant(map_instance, weight, depth)
        defects.append(invariance_defect(phi, map_instance, state, 3))
    assert all(a > b for a, b in zip(defects, defects[1:])), defects
    assert defects[-1] < 1e-6


def test_every_map_family_inverts_to_one_in_ten_billion():
    """Forward step then inverse step returns to the start within 1e-10
    for 100 random points in each of the five map families."""
    rng = np.random.default_rng(505)
    gd_map = gradient_descent(double_well(2), Fraction(1, 10))
    alt_map = alternating_play(
        PayoffData.from_matrix([[Fraction(1, 2), Fraction(-1, 4)]]),
        Fraction(1, 10),
        Fraction(1, 5),
    )
    families = [
        (gd_map, lambda: State(rng.uniform(-1.5, 1.5, 2), gd_map.chart)),
        (
            mwu_exponential(quadratic(5), Fraction(1, 20), (3, 2)),
            None,
        ),
        (
            mwu_linear(quadratic(5), Fraction(1, 20), (3, 2)),
            None,
        ),
        (alt_map, lambda: State(rng.uniform(-5.0, 5.0, 3), alt_map.chart)),
        (sphere_rgd(bump(3), Fraction(1, 10)), None),
    ]
    for map_instance, sampler in families:
        worst = 0.0
        for _ in range(100):
            if sampler is None:
                state = sample_chart(map_instance.chart, rng)
            else:
                state = sampler()
            back = inverse_step(map_instance, step_points(map_instance, state.coordinates))
            worst = max(worst, float(np.linalg.norm(state.coordinates - back)))
        assert worst <= 1e-10, f"{map_instance.kind}: worst roundtrip {worst:.3e}"


def test_bipartite_invariant_gradient_has_full_rank():
    """The quadratic's gradient matrix is the expected 2x2 on the worked
    instance and has full rank (at least 2) on 100 random dyadic games."""
    h, rank = dphi_rank(BipartiteInvariant(
        PayoffData.from_matrix([[Fraction(1)]]), Fraction(1, 10), Fraction(1, 5)
    ))
    assert np.allclose(h, [[20.0, 1.0], [1.0, -10.0]])
    assert rank == 2

    rng = random.Random(1729)
    for _ in range(100):
        payoff, eta1, eta2, _ = _random_dyadic_instance(rng)
        _, rank = dphi_rank(BipartiteInvariant(payoff, eta1, eta2))
        assert rank == payoff.dimension_x + payoff.dimension_y
        assert rank >= 2


def test_cross_level_pairs_never_look_scrambled():
    """1000 seeded pairs on distinct invariant levels (relative gap above
    1e-3), tracked for 10000 steps, produce zero scramble candidates, and
    the confinement check completes with zero refutations."""
    payoff = PayoffData.from_matrix([[Fraction(1)]])
    eta1, eta2 = Fraction(1, 10), Fraction(1, 5)
    map_instance = alternating_play(payoff, eta1, eta2)
    phi = BipartiteInvariant(payoff, eta1, eta2)

    rng = np.random.default_rng(2026)
    pairs, gaps = [], []
    while len(pairs) < 1000:
        x = State(rng.uniform(-20.0, 20.0, 2), map_instance.chart)
        y = State(rng.uniform(-20.0, 20.0, 2), map_instance.chart)
        px, py = phi(x), phi(y)
        gap = abs(px - py) / (1.0 + max(abs(px), abs(py)))
        if gap <= 1e-3:
            continue
        pairs.append((x, y))
        gaps.append(gap)

    z = np.array([[x.coordinates for x, _ in pairs], [y.coordinates for _, y in pairs]])
    liminf, _, verdicts = pair_statistics(map_instance, z, 10_000, eps_low=1e-6, eps_high=1e-3)
    assert len(verdicts) == 1000
    assert "scramble-candidate" not in set(verdicts)
    assert all(estimate > 1e-6 for estimate in liminf)

    assert certified_quadratic(phi, map_instance)
    confinement = confinement_tally(map_instance, verdicts, gaps, 1e-9)
    assert confinement.status == "completed"
    assert confinement.checked_pairs == 1000
    assert confinement.refutations == ()


def test_normalization_defects_stay_at_machine_precision_over_long_runs():
    """10000 steps of exponential weights keep the chart residual of every
    raw update (before renormalization) within 1e-12 and both block sums
    within 1e-12 of one; 10000 steps of the sphere retraction keep the raw
    residual and the norm error within 1e-12."""
    mwu_map = mwu_exponential(quadratic(4), Fraction(1, 1000), (2, 2))
    coords = State(np.array([0.4, 0.6, 0.3, 0.7]), mwu_map.chart).coordinates
    for _ in range(10_000):
        assert _chart_residual(_raw_step(mwu_map, coords), mwu_map.chart) <= 1e-12
        coords = step_points(mwu_map, coords)
        assert abs(coords[0] + coords[1] - 1.0) <= 1e-12
        assert abs(coords[2] + coords[3] - 1.0) <= 1e-12

    rgd_map = sphere_rgd(bump(3), Fraction(1, 10))
    coords = State(np.array([0.6, 0.8, 0.0]), rgd_map.chart).coordinates
    for _ in range(10_000):
        assert _chart_residual(_raw_step(rgd_map, coords), rgd_map.chart) <= 1e-12
        coords = step_points(rgd_map, coords)
        assert abs(np.linalg.norm(coords) - 1.0) <= 1e-12


def test_linearized_update_matches_exponential_update_to_second_order():
    """Over 1000 seeded interior points the worst coordinate gap between
    the exponential and linearized updates is at most 0.5 * eps**2, and
    the measured constant moves by less than a factor of 2 when eps drops
    from 1e-2 to 1e-3, confirming second-order agreement."""
    chart = simplex_product(2, 2)
    rng = np.random.default_rng(7)
    points = [sample_chart(chart, rng) for _ in range(1000)]

    constants = []
    for eps in (Fraction(1, 100), Fraction(1, 1000)):
        exp_map = mwu_exponential(quadratic(4), eps, (2, 2))
        lin_map = mwu_linear(quadratic(4), eps, (2, 2))
        worst = 0.0
        for state in points:
            a = step_points(exp_map, state.coordinates)
            b = step_points(lin_map, state.coordinates)
            worst = max(worst, float(np.max(np.abs(a - b))))
        constants.append(worst / float(eps) ** 2)

    assert all(c <= 0.5 for c in constants), constants
    ratio = constants[0] / constants[1]
    assert 0.5 <= ratio <= 2.0, constants


def test_cli_runs_are_byte_reproducible(tmp_path):
    """The same configuration and seed produce byte-identical CSV and JSON
    files across two separate CLI invocations of simulate, invariant, and
    scan."""
    doc = {
        "map": {
            "kind": "alt_play",
            "payoff": {"matrix": [[1]]},
            "step_sizes": ["1/10", "1/5"],
        },
        "initial_states": [[60, -25], [-20, 2]],
        "steps": {"forward": 200, "backward": 20},
        "invariant": {"kind": "closed-form", "defect_horizon": 100},
        "scan": {"pairs": 50, "horizon": 500, "box_halfwidth": 20.0},
        "seed": 2026,
        "output": {"prefix": "accept"},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))

    dirs = (tmp_path / "first", tmp_path / "second")
    for out in dirs:
        for command in ("simulate", "invariant", "scan"):
            rc = main(["--config", str(config), "--out", str(out), command])
            assert rc == 0

    first, second = dirs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert any(name.endswith(".csv") for name in names)
    assert any(name.endswith(".json") for name in names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
