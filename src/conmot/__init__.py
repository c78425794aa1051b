"""Invertible optimization dynamics, constants of motion, chaos diagnostics.

The package treats standard first-order update rules as dynamical systems:
each map is a bijection on its chart, orbits extend backward as well as
forward, and conserved quantities are constructed and then audited rather
than assumed. Alternating bipartite play gets an exact integer engine because
no floating-point evaluation can follow its conserved quadratic along an
exponentially growing orbit.
"""

from .chaos import (
    ChaosReport,
    ConfinementReport,
    OrbitSignature,
    SameOrbitVerdict,
    level_set_confinement,
    orbit_signature,
    same_orbit,
    scrambled_pair_estimate,
)
from .config import RunConfig, load_config
from .dynamics import (
    FixedPointSet,
    InverseConfig,
    Orbit,
    OrbitSegment,
    detect_fixed_point,
    inverse_step,
    orbit,
)
from .errors import (
    ChartViolation,
    ConfigError,
    ConmotError,
    InversionError,
    NumericsError,
    RegionError,
    StepSizeError,
)
from .exact import (
    ConservationAudit,
    ExactAltOrbit,
    assemble_transition_matrix,
    conservation_audit,
    difference_log_stats,
    verify_conservation_identity,
)
from .invariants import (
    BipartiteInvariant,
    InvariantReport,
    WeightFunction,
    bipartite_invariant,
    constant_weight,
    coordinate_weight,
    dphi_rank,
    gaussian_bump_weight,
    invariance_defect,
    make_series_invariant,
    series_along_orbit,
    series_invariant,
)
from .maps import (
    MAP_KINDS,
    MapInstance,
    alternating_play,
    descent_check,
    gradient_descent,
    mwu_exponential,
    mwu_linear,
    sphere_rgd,
    step,
    step_with_defect,
)
from .objectives import (
    Ball,
    Box,
    ObjectiveSpec,
    PayoffData,
    StepSizeVerdict,
    bilinear,
    bump,
    double_well,
    estimate_hessian_entry_bound,
    estimate_pullback_lipschitz,
    linear,
    quadratic,
    validate_step_size_gd,
    validate_step_size_manifold,
)
from .state import (
    Chart,
    State,
    bipartite_pair,
    euclidean,
    renormalize,
    sample_chart,
    simplex_product,
    sphere,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # state
    "Chart",
    "State",
    "euclidean",
    "simplex_product",
    "sphere",
    "bipartite_pair",
    "renormalize",
    "sample_chart",
    # objectives
    "ObjectiveSpec",
    "PayoffData",
    "Box",
    "Ball",
    "StepSizeVerdict",
    "quadratic",
    "double_well",
    "bump",
    "linear",
    "bilinear",
    "estimate_hessian_entry_bound",
    "estimate_pullback_lipschitz",
    "validate_step_size_gd",
    "validate_step_size_manifold",
    # maps
    "MAP_KINDS",
    "MapInstance",
    "gradient_descent",
    "mwu_exponential",
    "mwu_linear",
    "alternating_play",
    "sphere_rgd",
    "step",
    "step_with_defect",
    "descent_check",
    # dynamics
    "InverseConfig",
    "Orbit",
    "OrbitSegment",
    "FixedPointSet",
    "inverse_step",
    "orbit",
    "detect_fixed_point",
    # exact engine
    "ExactAltOrbit",
    "ConservationAudit",
    "conservation_audit",
    "verify_conservation_identity",
    "assemble_transition_matrix",
    "difference_log_stats",
    # invariants
    "WeightFunction",
    "constant_weight",
    "coordinate_weight",
    "gaussian_bump_weight",
    "BipartiteInvariant",
    "bipartite_invariant",
    "InvariantReport",
    "series_invariant",
    "series_along_orbit",
    "make_series_invariant",
    "invariance_defect",
    "dphi_rank",
    # chaos
    "ChaosReport",
    "scrambled_pair_estimate",
    "ConfinementReport",
    "level_set_confinement",
    "OrbitSignature",
    "orbit_signature",
    "SameOrbitVerdict",
    "same_orbit",
    # config
    "RunConfig",
    "load_config",
    # errors
    "ConmotError",
    "ChartViolation",
    "StepSizeError",
    "RegionError",
    "InversionError",
    "NumericsError",
    "ConfigError",
]
