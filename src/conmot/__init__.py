"""Invertible optimization dynamics, constants of motion, chaos diagnostics.

The package treats standard first-order update rules as dynamical systems:
each map is a bijection on its chart, orbits extend backward as well as
forward, and conserved quantities are constructed and then audited rather
than assumed. Alternating bipartite play gets an exact integer engine because
no floating-point evaluation can follow its conserved quadratic along an
exponentially growing orbit.

``import conmot`` loads no submodule: each name below is imported from its
module on first access (PEP 562), so a process loads only what it uses.
``exact``, ``rationals`` and ``errors`` do not import numpy at module level,
so the exact engine runs without it.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, grouped under the module that defines it.
_EXPORTS = {
    "state": ("Chart", "State", "euclidean", "simplex_product", "sphere", "renormalize",
              "sample_chart"),
    "objectives": ("ObjectiveSpec", "Box", "Ball", "StepSizeVerdict", "quadratic",
                   "double_well", "bump", "linear", "bilinear", "validate_step_size_gd",
                   "validate_step_size_manifold"),
    "maps": ("MAP_KINDS", "MapInstance", "gradient_descent", "mwu_exponential", "mwu_linear",
             "alternating_play", "sphere_rgd", "step_points", "descent_check"),
    "dynamics": ("Orbit", "inverse_step", "detect_fixed_point"),
    "exact": ("PayoffData", "ExactAltOrbit", "BipartiteInvariant", "ConservationAudit",
              "conservation_audit", "difference_log_stats"),
    "invariants": ("WeightFunction", "constant_weight", "coordinate_weight",
                   "gaussian_bump_weight", "InvariantReport", "series_invariant",
                   "series_along_orbit", "make_series_invariant", "invariance_defect",
                   "dphi_rank"),
    "chaos": ("pair_statistics", "ConfinementReport", "confinement_tally", "SameOrbitVerdict",
              "same_orbit"),
    "config": ("RunConfig", "load_config"),
    "errors": ("ConmotError", "ChartViolation", "StepSizeError", "RegionError",
               "InversionError", "NumericsError", "ConfigError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
