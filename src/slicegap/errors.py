"""Exception types shared across the package, and the one check on caller-given numbers."""

import numbers
import operator


class SliceGapError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SliceGapError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoRootError(SliceGapError, RuntimeError):
    """Bracket expansion failed to enclose a root.

    Raised when a target falls outside the supported class (e.g. the
    radial profile has no interior mode although one is required).
    """


class NoConvergenceError(SliceGapError, RuntimeError):
    """An iterative solver reached its step cap before its stopping rule held."""


class EmptyLevelError(SliceGapError, ValueError):
    """The requested level lies at or above the supremum of the profile,
    so the super level set is empty."""


class InvalidLevelSetError(SliceGapError, ValueError):
    """A level-set function violated monotonicity where it was required."""


class DegenerateSupportError(SliceGapError, ValueError):
    """All stationary mass vanished on the requested grid."""


class ZeroVarianceError(SliceGapError, ValueError):
    """A trace is constant, so autocorrelations are undefined."""


class InsufficientDataError(SliceGapError, ValueError):
    """A trace is too short for the requested estimator."""


def check_number(name: str, value, what: str, ok=lambda v: True, integer: bool = False):
    """``value`` if a real non-bool with ``ok(value)``, and with ``integer`` an int (not 3.0);
    else ``DomainError("<name> must be <what>, got <value!r>")``."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (not integer or isinstance(value, numbers.Integral)) and ok(value)):
        return operator.index(value) if integer else value
    raise DomainError(f"{name} must be {what}, got {value!r}")
