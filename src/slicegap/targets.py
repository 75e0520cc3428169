"""Rotationally invariant target densities and their slice factorizations.

A target is described entirely by its radial potential ``phi``: the
unnormalized density is ``exp(-phi(||x||))`` on the ball ``||x|| < kappa``.
``phi`` and its derivative ``dphi`` take float arrays of radii: the level
solvers evaluate them on many radii at once.
The factorization splits the density into a radial power weight
``||x||^{-alpha}`` and the remaining profile ``||x||^{alpha} exp(-phi)``;
``alpha = 0`` gives uniform slice sampling (USS) and ``alpha = d - 1``
polar slice sampling (PSS).  All profile evaluations stay in log domain so
that nothing overflows even for dimensions in the thousands.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "RadialTarget",
    "RadialFactorization",
    "log_h",
    "surface_area",
    "log_surface_area",
    "exponential",
    "volcano",
    "gaussian",
    "radial_weighted_exponential",
    "make_builtin",
    "BUILTIN_TAGS",
]


def _finite_difference(phi: Callable[[np.ndarray], np.ndarray],
                       kappa: float = math.inf) -> Callable[[np.ndarray], np.ndarray]:
    """Central difference of ``phi`` whose points stay inside ``(0, kappa)``."""
    def dphi(r):
        h = np.minimum(np.maximum(1e-6, 1e-6 * np.abs(r)),
                       0.5 * np.minimum(r, kappa - r))
        return (phi(r + h) - phi(r - h)) / (2.0 * h)

    return dphi


def _check_positive_integer(name: str, value) -> None:
    if isinstance(value, bool) or not (value >= 1 and float(value).is_integer()):  # no inf, NaN
        raise DomainError(f"{name} must be a positive integer, got {value}")


@dataclass(frozen=True)
class RadialTarget:
    """Radial potential ``phi``, its derivative, support cutoff and dimension.

    The unnormalized density on R^dim is ``exp(-phi(||x||))`` for
    ``||x|| < kappa`` and zero outside.  ``phi`` and ``dphi`` map a float
    array of radii to an array of its shape; ``dphi`` may return a constant,
    or be omitted, in which case a central finite difference of ``phi`` is
    used.  Both are called once on two radii when the target is built, and
    one that fails on an array raises a ``DomainError`` naming it.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Optional[Callable[[np.ndarray], np.ndarray]] = None
    kappa: float = math.inf
    dim: int = 1
    tag: str = "custom"

    def __post_init__(self):
        _check_positive_integer("dim", self.dim)
        if not self.kappa > 0:
            raise DomainError(f"kappa must be positive, got {self.kappa}")
        if self.dphi is None:
            object.__setattr__(self, "dphi", _finite_difference(self.phi, self.kappa))
        probe = np.full(2, min(1.0, 0.5 * self.kappa))
        for name in ("phi", "dphi"):
            try:
                with np.errstate(all="ignore"):
                    np.broadcast_to(np.asarray(getattr(self, name)(probe), dtype=float), (2,))
            except (TypeError, ValueError) as exc:
                raise DomainError(f"{name} must map a float array of radii to an array "
                                  f"of its shape or to a constant: {exc}") from None


@dataclass(frozen=True)
class RadialFactorization:
    """Radial power weight exponent ``alpha`` in [0, d-1]."""

    alpha: float

    def __post_init__(self):
        if isinstance(self.alpha, bool) or not 0 <= self.alpha < math.inf:  # no NaN
            raise DomainError(f"alpha must be a finite nonnegative number, got {self.alpha}")

    @staticmethod
    def uss() -> "RadialFactorization":
        return RadialFactorization(0.0)

    @staticmethod
    def pss(dim: int) -> "RadialFactorization":
        # PSS coincides with USS in one dimension.
        return RadialFactorization(float(max(dim - 1, 0)))

    def validate_for(self, target: RadialTarget) -> None:
        if self.alpha > target.dim - 1 + 1e-12:
            raise DomainError(
                f"alpha={self.alpha} exceeds d-1={target.dim - 1} for this target"
            )


def log_h(target: RadialTarget, fac: RadialFactorization, r):
    """Log of the slice profile ``h_alpha(r) = r^alpha exp(-phi(r))``.

    Works on scalars and arrays; requires ``0 < r < kappa``.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0) or np.any(r_arr >= target.kappa):
        raise DomainError("r must lie strictly inside (0, kappa)")
    out = fac.alpha * np.log(r_arr) - target.phi(r_arr)
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(out)
    return out


def surface_area(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} in R^d."""
    return math.exp(log_surface_area(d))


def log_surface_area(d: int) -> float:
    """Log of the surface measure of S^{d-1}; safe for large d.

    Uses the standard library's ``math.lgamma``, which stays within 2.9e-14
    absolute of ``scipy.special.gammaln`` in this formula for d <= 100 and
    within 1.8e-12 for d <= 2000 (scipy 1.17.1).
    """
    _check_positive_integer("d", d)
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)


# ---------------------------------------------------------------------------
# Builtin targets
# ---------------------------------------------------------------------------

def exponential(dim: int) -> RadialTarget:
    """phi(r) = r: the density exp(-||x||)."""
    return RadialTarget(
        phi=lambda r: r, dphi=lambda r: 1.0,
        kappa=math.inf, dim=dim, tag="exponential",
    )


def volcano(dim: int, c: float = 2.0) -> RadialTarget:
    """phi(r) = (r - c)^2: a ridge of mass at radius c."""
    if c <= 0:
        raise DomainError(f"volcano offset must be positive, got {c}")
    return RadialTarget(
        phi=lambda r: (r - c) ** 2, dphi=lambda r: 2.0 * (r - c),
        kappa=math.inf, dim=dim, tag="volcano",
    )


def gaussian(dim: int) -> RadialTarget:
    """phi(r) = r^2 / 2: the standard Gaussian shape."""
    return RadialTarget(
        phi=lambda r: 0.5 * r * r, dphi=lambda r: r,
        kappa=math.inf, dim=dim, tag="gaussian",
    )


def radial_weighted_exponential(dim: int) -> RadialTarget:
    """phi(r) = r + (d-1) log r, i.e. the density ||x||^{1-d} exp(-||x||).

    The potential is not convex, so this target lies outside the class
    certified by the convexity checker; it exists because its PSS profile
    is exactly exp(-r), which makes the level-set function linear in
    log(1/t).
    """
    dm1 = dim - 1
    return RadialTarget(
        phi=lambda r: r + dm1 * np.log(r),
        dphi=lambda r: 1.0 + dm1 / r,
        kappa=math.inf, dim=dim, tag="radial_weighted_exponential",
    )


BUILTIN_TAGS = {
    "exponential": exponential,
    "volcano": volcano,
    "gaussian": gaussian,
    "radial_weighted_exponential": radial_weighted_exponential,
}


def make_builtin(tag: str, dim: int, **params) -> RadialTarget:
    """Resolve a builtin target by tag name."""
    key = tag.lower()
    if key not in BUILTIN_TAGS:
        raise DomainError(f"unknown builtin target {tag!r}; known: {sorted(BUILTIN_TAGS)}")
    make = BUILTIN_TAGS[key]
    try:
        inspect.signature(make).bind(dim, **params)
    except TypeError as exc:
        raise DomainError(f"builtin target {tag!r}: {exc}") from None
    return make(dim, **params)
