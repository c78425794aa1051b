"""Exception hierarchy shared across the package."""

from __future__ import annotations

import numpy as np

__all__ = [
    "ConmotError",
    "ChartViolation",
    "StepSizeError",
    "RegionError",
    "InversionError",
    "NumericsError",
    "ConfigError",
]


class ConmotError(Exception):
    """Base class for all errors raised by conmot. step_index is the signed
    index of the orbit step that failed, set by dynamics.Orbit; else None."""

    step_index: int | None = None


class ChartViolation(ConmotError):
    """State coordinates are incompatible with the declared chart."""


class StepSizeError(ConmotError):
    """A step size violates the precondition of the requested update."""


class RegionError(ConmotError):
    """A point left the declared working region of an objective."""


class InversionError(ConmotError):
    """Newton inversion failed.

    Carries the last iterate and residual norm so callers can report where the
    solve gave up.
    """

    def __init__(
        self,
        message: str,
        *,
        last_iterate: np.ndarray | None = None,
        residual: float | None = None,
    ) -> None:
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class NumericsError(ConmotError):
    """A computation produced non-finite values or otherwise broke down."""

    def __init__(self, message: str, *, step_index: int | None = None) -> None:
        super().__init__(message)
        self.step_index = step_index


class ConfigError(ConmotError):
    """A run configuration failed validation. Holds the offending JSON path."""

    def __init__(self, message: str, *, json_path: str | None = None) -> None:
        super().__init__(message)
        self.json_path = json_path
