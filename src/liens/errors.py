"""Exception types shared across the package."""

from __future__ import annotations


class LiensError(Exception):
    """Base class for all package-specific errors."""


class FieldError(LiensError, ValueError):
    """A field violates a structural invariant (shape, finiteness, symmetry)."""


class SolenoidalError(LiensError, ValueError):
    """A field required to be divergence-free is not, beyond tolerance."""

    def __init__(self, message: str, divergence: float):
        super().__init__(f"{message} (measured relative divergence {divergence:.3e})")
        self.divergence = divergence


class StabilityError(LiensError, ValueError):
    """An explicit time step violates its stability bound."""

    def __init__(self, message: str, suggested_dt: float):
        super().__init__(f"{message} (suggested dt <= {suggested_dt:.6e})")
        self.suggested_dt = suggested_dt


class RadiusCollapseError(LiensError, RuntimeError):
    """No series order up to the cap admits a step of at least 2^-20 of the
    one requested (``dt_last``, the shortest step that would count); the
    analyticity margin has collapsed."""

    def __init__(self, message: str, radius_estimate: float, dt_last: float):
        super().__init__(
            f"{message} (last radius estimate {radius_estimate:.6e}, step floor {dt_last:.6e})"
        )
        self.radius_estimate = radius_estimate
        self.dt_last = dt_last


class SnapshotFormatError(LiensError, ValueError):
    """A binary field snapshot is malformed or inconsistent with its header."""


class ConfigError(LiensError, ValueError):
    """A run configuration file is invalid; the message names the offending key."""
