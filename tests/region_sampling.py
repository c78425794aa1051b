"""Uniform draws from an objective's working region, for tests that probe an
objective at many points of it."""

import numpy as np

from conmot.objectives import Ball, Box


def sample_region(region: Box | Ball | None, rng: np.random.Generator, dimension: int) -> np.ndarray:
    """Uniform draw from a box, a ball, or (absent region) a scaled normal."""
    if isinstance(region, Box):
        lo = np.asarray(region.lower)
        hi = np.asarray(region.upper)
        return rng.uniform(lo, hi)
    if isinstance(region, Ball):
        d = len(region.center)
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        r = region.radius * rng.uniform() ** (1.0 / d)
        return np.asarray(region.center) + r * v
    return 2.0 * rng.normal(size=dimension)
