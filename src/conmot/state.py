"""States and the charts they live on.

A chart names the set a state belongs to and fixes the validity checks:

- ``euclidean``: any finite vector of the declared dimension.
- ``simplex-product``: concatenated probability blocks, one per agent; every
  block sums to 1 within SUM_TOL and coordinates are >= -CLAMP_TOL (tiny
  negatives are clamped to exactly 0 on construction).
- ``sphere``: unit vector, | ||x|| - 1 | <= SUM_TOL.

A chart holds no other structure: alternating play runs on
``euclidean(dx + dy)``, X then Y, and only its payoff splits the two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartViolation

__all__ = [
    "CHART_KINDS",
    "SUM_TOL",
    "Chart",
    "State",
    "euclidean",
    "simplex_product",
    "sphere",
    "renormalize",
    "validate_points",
    "tangent_frame",
    "sample_chart",
]

CHART_KINDS = ("euclidean", "simplex-product", "sphere")

# Chart residual tolerance (block sums, sphere norm) and the negativity clamp.
SUM_TOL = 1e-12
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class Chart:
    """Chart descriptor: a kind plus the block structure it needs.

    ``blocks`` means strategies-per-agent for simplex products and
    (dimension,) otherwise.
    """

    kind: str
    blocks: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in CHART_KINDS:
            raise ChartViolation(f"unknown chart kind {self.kind!r}; expected one of {CHART_KINDS}")
        blocks = tuple(int(b) for b in self.blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise ChartViolation(f"chart blocks must be positive, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dimension(self) -> int:
        return sum(self.blocks)

    def block_slices(self) -> tuple[slice, ...]:
        """Slices of the coordinate vector covering each block in order."""
        out = []
        start = 0
        for size in self.blocks:
            out.append(slice(start, start + size))
            start += size
        return tuple(out)


def euclidean(dimension: int) -> Chart:
    return Chart("euclidean", (dimension,))


def simplex_product(*sizes: int) -> Chart:
    """Product of simplices; each entry is one agent's strategy count."""
    return Chart("simplex-product", tuple(sizes))


def sphere(dimension: int) -> Chart:
    """Unit sphere embedded in R^dimension."""
    return Chart("sphere", (dimension,))


def _chart_residual(coords: np.ndarray, chart: Chart):
    """Worst violation of the chart's equations per point (0 on a euclidean chart)."""
    if chart.kind == "simplex-product":
        deviations = [abs(coords[..., sl].sum(-1) - 1.0) for sl in chart.block_slices()]
        return np.maximum.reduce([*deviations, -coords.min(-1)])
    if chart.kind == "sphere":
        return abs(np.sqrt(np.vecdot(coords, coords)) - 1.0)
    return 0.0


def validate_points(coords: np.ndarray, chart: Chart) -> np.ndarray:
    """The State checks, in place on every point of a (..., d) float array:
    finite entries, tiny simplex negatives clamped to 0, residual <= SUM_TOL."""
    if not np.isfinite(coords).all():
        raise ChartViolation("state coordinates must be finite")
    if chart.kind == "simplex-product":
        # Tiny negatives from float updates are clamped to exactly 0.
        tiny = (coords < 0) & (coords >= -CLAMP_TOL)
        coords[tiny] = 0.0
    elif chart.kind != "sphere":
        return coords
    residual = _chart_residual(coords, chart).max()
    if residual > SUM_TOL:
        raise ChartViolation(
            f"chart residual {residual:.3e} exceeds {SUM_TOL:.0e} on {chart.kind}"
        )
    return coords


@dataclass(frozen=True)
class State:
    """An immutable point on a chart.

    Coordinates are copied to a read-only float64 array. Construction fails on
    wrong dimension, non-finite entries, or chart residual above SUM_TOL.
    """

    coordinates: np.ndarray
    chart: Chart

    def __post_init__(self) -> None:
        coords = np.array(self.coordinates, dtype=float).reshape(-1)
        if coords.shape[0] != self.chart.dimension:
            raise ChartViolation(
                f"state has dimension {coords.shape[0]} but chart "
                f"{self.chart.kind} expects {self.chart.dimension}"
            )
        validate_points(coords, self.chart)
        coords.setflags(write=False)
        object.__setattr__(self, "coordinates", coords)

    @property
    def dimension(self) -> int:
        return self.chart.dimension

    def distance_to(self, other: "State") -> float:
        return float(np.linalg.norm(self.coordinates - other.coordinates))


def on_chart(x: State, chart: Chart) -> np.ndarray:
    """The coordinates of x, once x is checked to lie on chart: the one chart
    check of every function that takes a State for a map."""
    if x.chart != chart:
        raise ChartViolation("state chart does not match map chart")
    return x.coordinates


def renormalize(coords: np.ndarray, chart: Chart) -> tuple[np.ndarray, float]:
    """Project coordinates back onto the chart exactly.

    Returns the renormalized copy and the pre-renormalization defect (the chart
    residual that was removed). A euclidean chart passes through with defect 0.
    Raises ChartViolation when renormalization is impossible (a zero block, a
    zero vector on the sphere, or a negative beyond the clamp tolerance).
    A (..., d) array is renormalized point by point, one defect per point.
    """
    out = np.array(coords, dtype=float)
    defect = _chart_residual(out, chart)
    if chart.kind == "simplex-product":
        neg = out.min()
        if neg < -CLAMP_TOL:
            raise ChartViolation(f"coordinate {neg:.3e} is below the clamp tolerance")
        out[out < 0] = 0.0
        for sl in chart.block_slices():
            s = out[..., sl].sum(-1, keepdims=True)
            if s.min() <= 0.0:
                raise ChartViolation("cannot renormalize a block with zero total mass")
            np.divide(out[..., sl], s, out=out[..., sl])
    elif chart.kind == "sphere":
        n = np.sqrt(np.vecdot(out, out))[..., None]
        if n.min() <= 0.0:
            raise ChartViolation("cannot renormalize the zero vector onto the sphere")
        out = out / n
    return out, defect


def tangent_frame(chart: Chart, y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the chart's tangent space at y, as columns, in
    closed form: no factorization runs.

    On the sphere the columns are 1..d-1 of the Householder reflection
    I - 2 w w^T / (w^T w) with w = y + sign(y_0) ||y|| e_0, which maps y onto
    the e_0 axis, so its other columns span the hyperplane orthogonal to y.
    The other charts have one read-only frame each, built once: the identity
    for a euclidean chart, and for a simplex product the Helmert contrasts of
    each block, whose column k is (1, ..., 1, -k, 0, ...) / sqrt(k (k + 1)).
    """
    if chart.kind == "sphere":
        w = np.array(y, dtype=float)
        w[0] += math.copysign(math.sqrt(w @ w), w[0])
        return np.eye(len(w))[:, 1:] - np.outer(w, w[1:] * (2.0 / (w @ w)))
    return _constant_frame(chart)


@functools.cache
def _constant_frame(chart: Chart) -> np.ndarray:
    if chart.kind != "simplex-product":
        frame = np.eye(chart.dimension)
    else:
        frame = np.zeros((chart.dimension, chart.dimension - len(chart.blocks)))
        col = 0
        for sl in chart.block_slices():
            for k in range(1, sl.stop - sl.start):
                a = 1.0 / math.sqrt(k * (k + 1))
                frame[sl.start : sl.start + k, col] = a
                frame[sl.start + k, col] = -k * a
                col += 1
    frame.setflags(write=False)
    return frame


def sample_chart(chart: Chart, rng: np.random.Generator) -> State:
    """Draw a random state on the chart.

    A euclidean chart uses standard normals; simplex blocks are Dirichlet(1)
    draws; sphere points are normalized normals.
    """
    if chart.kind == "simplex-product":
        parts = [rng.dirichlet(np.ones(size)) for size in chart.blocks]
        coords, _ = renormalize(np.concatenate(parts), chart)
        return State(coords, chart)
    if chart.kind == "sphere":
        v = rng.normal(size=chart.dimension)
        coords, _ = renormalize(v, chart)
        return State(coords, chart)
    return State(rng.normal(size=chart.dimension), chart)
