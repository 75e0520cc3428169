"""Exception types shared across the package."""


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
