"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`ModelError` so callers can
catch one base type. The split between validation and domain errors mirrors
the CLI exit codes (1 for bad input files, 2 for bad numbers).
"""

from __future__ import annotations

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class ModelError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ModelError):
    """A numeric argument violates a model precondition."""


def _require(condition: bool, message: str, *args: object) -> None:
    """Raise ``DomainError(message.format(*args))`` unless ``condition`` holds."""
    if not condition:
        raise DomainError(message.format(*args))


class ValidationError(ModelError):
    """Structured input (config file, dataset) failed validation."""


class ConfigError(ValidationError):
    """Config file could not be parsed or validated.

    Carries the dotted path of the offending field when known.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class CalibrationError(ModelError):
    """A calibration solve failed."""


class NoSignChangeError(CalibrationError):
    """Solver bracket does not straddle the target."""


class MaxIterationsError(CalibrationError):
    """Solver hit its iteration cap before meeting tolerance.

    Attributes
    ----------
    best_x : float
        Iterate with the smallest residual seen.
    best_residual : float
        Residual at ``best_x``.
    iterations : int
        Number of iterations performed.
    """

    def __init__(self, message: str, best_x: float, best_residual: float, iterations: int):
        super().__init__(message)
        self.best_x = best_x
        self.best_residual = best_residual
        self.iterations = iterations


class UnattainableTargetError(CalibrationError):
    """Target lies outside the range the free parameter can reach."""
