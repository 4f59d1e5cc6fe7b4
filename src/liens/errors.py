"""Exception types shared across the package, and the rules on its
parameters: a rule ``(name, value) -> value`` raises
``ValueError(f"{name} <requirement>, got {value!r}")`` outside its domain."""

from __future__ import annotations

import math


def rule(requirement: str, holds):
    """The rule that passes a value for which ``holds(value)`` is true."""

    def check(name: str, value):
        if not holds(value):
            raise ValueError(f"{name} {requirement}, got {value!r}")
        return value

    return check


positive_finite = rule("must be positive and finite", lambda v: math.isfinite(v) and v > 0.0)
finite_nonnegative = rule(
    "must be finite and nonnegative", lambda v: math.isfinite(v) and v >= 0.0
)
finite = rule("must be finite", math.isfinite)
nonnegative_count = rule("must be nonnegative", lambda v: v >= 0)


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
    analyticity margin has collapsed. ``reach`` holds the failed step's h_N
    for every order N it read."""

    def __init__(self, message: str, radius_estimate: float, dt_last: float,
                 reach: tuple[float, ...]):
        super().__init__(
            f"{message} (last radius estimate {radius_estimate:.6e}, step floor {dt_last:.6e})"
        )
        self.radius_estimate = radius_estimate
        self.dt_last = dt_last
        self.reach = reach


class SnapshotFormatError(LiensError, ValueError):
    """A binary field snapshot is malformed or inconsistent with its header."""


class ConfigError(LiensError, ValueError):
    """A run configuration file is invalid; the message names the offending key."""
