"""Typed error taxonomy for the band-structure engine.

The command-line layer maps these onto process exit codes:
exit 1 for configuration/input problems (``ConfigError`` and subclasses),
exit 2 for validation failures (``ValidationError``), exit 3 for OS-level
I/O errors.  Everything inherits from ``EngineError`` so library callers can
catch the whole family at once.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EngineError):
    """Malformed or inconsistent configuration (bad values, unknown keys)."""


class GridError(ConfigError):
    """Invalid sampling grid (too few points, non-positive size)."""


class VariantError(ConfigError):
    """Operation applied to a stack variant it does not support."""


class InputError(ConfigError):
    """Invalid physical input (bad coupling range, uneven potential, bad flux)."""


class NoClosedFormError(EngineError):
    """No closed-form expression exists for the requested parameters.

    When a batch of quasimomenta was requested, ``servable`` is a boolean
    mask of the points that do have closed forms, so that a caller can split
    the batch between the two routes; it is None when the parameters have
    no closed form at any point, in this batch or another.
    """

    def __init__(self, message: str, servable=None) -> None:
        super().__init__(message)
        self.servable = servable


class ResolutionError(EngineError):
    """Sampling resolution too coarse for the requested analysis."""


class BandEdgeError(EngineError):
    """Derivative of the discriminant vanishes (band edge); slope undefined."""


class ValidationError(EngineError):
    """A validation run exceeded its tolerance."""
