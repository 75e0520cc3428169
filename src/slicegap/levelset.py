"""Slice profiles, level intervals, the level-set function and class membership.

The slice profile ``h_alpha(r) = r^alpha exp(-phi(r))`` of an in-class
target is unimodal, so every super level set ``{r : h_alpha(r) > t}`` is an
interval.  A :class:`SliceProfile` holds the profile's mode and supremum,
solved once; from it this module locates the interval endpoints on the two
monotone branches, evaluates the generalized level-set function

    ell(t) = sigma_{d-1} / (d - alpha) * (r_hi^{d-alpha} - r_lo^{d-alpha}),

and checks the decreasing-function class whose k-th member certifies a
spectral gap of at least 1/(k+1) for the associated sampler.

Every root is bracketed by the same searches (toward 0 by halving, or
below the mode by doubling the depth in ``log r``; outward toward a finite
cutoff or by doubling), for one level or an array of levels.  The profile
mode and the canonical comparator's potential are solved by one bisection,
``_bisect``; level endpoints by a safeguarded Newton iteration in ``log r``
that takes the same steps for one level (``level_interval``) and for an
array (``level_bounds``).

A chain visits many nearby levels of one profile, so ``_ladder`` keeps the
intervals of a fixed ladder of levels below the supremum, each solved by
``level_interval`` the first time it is needed.  The two rungs around a
level bracket both of its endpoints, and Newton starts between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, EmptyLevelError, NoRootError
from .targets import RadialFactorization, RadialTarget, log_h, log_surface_area

__all__ = [
    "LevelSetFunction",
    "MembershipReport",
    "SliceProfile",
    "slice_profile",
    "mode_radius",
    "level_interval",
    "level_bounds",
    "level_set_function",
    "lambda_k_check",
    "default_probe",
    "canonical_inverse_phi",
    "canonical_potential",
]

# Cap on every bracket search and root iteration.
_MAX_EXPANSIONS = 200
# Levels per level_bounds chunk; keeps the solver's working arrays small.
_CHUNK = 1 << 13
# Chain ladders: rungs per unit of log level, and rungs in all; the ladder
# spans the 64 units of log level below the profile supremum.
_RUNGS_PER_UNIT = 16
_RUNGS = 1024
# Newton stopping tolerance in u = log r, relative to max(|u|, 1): 4 ulp.
_U_TOL = 4.0 * np.finfo(float).eps
# Scalar bisection stop: bracket width relative to max(|root|, 1).
_REL_TOL = 1e-13
# canonical_potential: deepest s below the support supremum that it searches.
_MAX_DEPTH = 700.0
# default_probe: points, and the depth in s = -log t that they span.
_PROBE_POINTS = 200
_PROBE_DEPTH = 40.0


# ---------------------------------------------------------------------------
# Scalar root finding: bracket searches and one bisection
# ---------------------------------------------------------------------------

def _halvings(x: float):
    """``x, x/2, x/4, ...``: at most ``_MAX_EXPANSIONS`` points."""
    for _ in range(_MAX_EXPANSIONS):
        yield x
        x *= 0.5


def _deepening(x: float):
    """``x * 2**-(2**k)`` (``x/2, x/4, x/16, ...``) until it underflows to 0."""
    for k in range(_MAX_EXPANSIONS):
        a = math.ldexp(x, -(1 << k))
        if a == 0.0:
            return
        yield a


def _outward(x, kappa: float):
    """Points beyond ``x`` (a float or an array of them): halving the
    distance to a finite cutoff ``kappa``, else doubling from ``max(2x, 1)``.
    Toward ``kappa`` the points stop at the largest float below it, so
    ``kappa`` itself is never among them."""
    if math.isfinite(kappa):
        last = math.nextafter(kappa, 0.0)
        clip = np.minimum if isinstance(x, np.ndarray) else min
        gap = kappa - x
        for j in range(1, _MAX_EXPANSIONS):
            p = clip(kappa - gap * 0.5**j, last)
            yield p
            if np.all(p == last):
                return
    else:
        x = np.maximum(2.0 * x, 1.0) if isinstance(x, np.ndarray) else max(2.0 * x, 1.0)
        for _ in range(_MAX_EXPANSIONS):
            yield x
            x = 2.0 * x


def _bisect(f: Callable[[float], float], level: float, inside: float,
            outside: float, tol: float = _REL_TOL) -> float:
    """Bisect ``f(inside) > level >= f(outside)`` with ``inside < outside``.
    Stops at a width of ``tol`` times ``outside`` if above 1, else minus
    ``inside`` if below -1, else 1 (``max`` and ``abs`` calls would cost
    about as much as the rest of the step); returns the midpoint."""
    for _ in range(_MAX_EXPANSIONS):
        if not outside - inside > tol * (
                outside if outside > 1.0 else -inside if inside < -1.0 else 1.0):
            return 0.5 * (inside + outside)
        mid = 0.5 * (inside + outside)
        if f(mid) > level:
            inside = mid
        else:
            outside = mid
    raise NoRootError("bisection did not converge")


# ---------------------------------------------------------------------------
# The slice profile: mode and supremum
# ---------------------------------------------------------------------------

def mode_radius(target: RadialTarget, fac: RadialFactorization) -> float:
    """Radius maximizing ``h_alpha``; 0 if the profile is non-increasing.

    Bisects the sign change of ``alpha - r * phi'(r)``; for ``alpha = 0``
    that of ``-phi'(r)``, which gives the minimizer of phi.  The bracket
    is found by halving from 1 (``kappa / 2`` for a finite cutoff), then
    searching outward.
    """
    fac.validate_for(target)
    kappa = target.kappa
    alpha = fac.alpha
    if alpha == 0.0:
        rise = lambda r: -target.dphi(r)
    else:
        rise = lambda r: alpha - r * target.dphi(r)
    for a in _halvings(1.0 if not math.isfinite(kappa) else 0.5 * kappa):
        if rise(a) > 0.0:
            break
    else:
        # h_alpha is non-increasing on all of (0, kappa).
        return 0.0
    for b in _outward(a, kappa):
        if rise(b) <= 0.0:
            return _bisect(rise, 0.0, a, b)
    raise NoRootError(
        "could not bracket the profile mode; target outside the supported class"
    )


@dataclass(frozen=True)
class SliceProfile:
    """The slice profile ``h_alpha`` of a target, built by :func:`slice_profile`:
    its weight exponent ``alpha``, its mode ``r_mode`` (0 if non-increasing)
    and ``log_sup``, the log of its supremum (+inf when it diverges at 0)."""

    target: RadialTarget
    alpha: float
    r_mode: float
    log_sup: float


def slice_profile(target: RadialTarget, fac: RadialFactorization) -> SliceProfile:
    """Validate ``fac`` for ``target`` and solve the profile's mode and supremum."""
    r_mode = mode_radius(target, fac)
    if r_mode > 0.0:
        log_sup = log_h(target, fac, r_mode)
    else:
        eps = min(1e-100, target.kappa * 0.5)
        log_sup = log_h(target, fac, eps)
        if log_h(target, fac, eps * 1e-50) > log_sup + 1e-6 * (1.0 + abs(log_sup)):
            log_sup = math.inf
    return SliceProfile(target, fac.alpha, r_mode, log_sup)


# ---------------------------------------------------------------------------
# Level intervals: safeguarded Newton in log r, scalar and vectorized
# ---------------------------------------------------------------------------

def level_interval(prof: SliceProfile, log_t: float) -> tuple[float, float]:
    """``(r_lo, r_hi)`` solving ``log_h(r) = log_t`` on both branches of the
    profile: :func:`level_bounds` on one level."""
    if not log_t < prof.log_sup:
        raise EmptyLevelError(
            f"log_t={log_t} is not below the profile supremum {prof.log_sup}"
        )
    target, alpha, r_mode = prof.target, prof.alpha, prof.r_mode
    phi, dphi = target.phi, target.dphi

    def lh(r: float) -> float:
        return alpha * math.log(r) - phi(r)

    # --- lower endpoint --------------------------------------------------
    r_lo = 0.0
    if r_mode == 0.0:
        for anchor in _halvings(min(1.0, 0.5 * target.kappa)):
            if lh(anchor) >= log_t:
                break
        else:
            raise NoRootError("lower anchor search failed; profile never reaches the level")
    else:
        anchor = r_mode
        # Without a point at or below the level above the float floor, the
        # profile exceeds the level all the way down and r_lo stays 0.
        for a in _deepening(r_mode):
            if lh(a) <= log_t:
                u = math.log(a)
                r_lo = _newton_scalar(phi, dphi, alpha, log_t, u, math.log(r_mode), u)
                break

    # --- upper endpoint --------------------------------------------------
    for hi in _outward(anchor, target.kappa):
        if lh(hi) <= log_t:
            u = math.log(hi)
            return r_lo, _newton_scalar(phi, dphi, alpha, log_t, u, math.log(anchor), u)
    if math.isfinite(target.kappa):
        # the profile is above the level up to the last float below kappa
        return r_lo, target.kappa
    raise NoRootError("upper bracket expansion failed; profile does not decay")


def level_bounds(prof: SliceProfile, log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`level_interval` over an array of log levels.

    Brackets each endpoint with the searches of :func:`level_interval`,
    then solves in ``u = log r`` with the same safeguarded Newton
    iteration, which stops on a tolerance.  Levels are processed in chunks
    of ``_CHUNK`` so that the working arrays stay small.
    """
    log_t = np.asarray(log_t, dtype=float).ravel()
    if np.any(log_t >= prof.log_sup):
        raise EmptyLevelError("some levels are not below the profile supremum")
    r_lo = np.empty(log_t.size)
    r_hi = np.empty(log_t.size)
    for start in range(0, log_t.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        r_lo[part], r_hi[part] = _level_bounds_chunk(prof, log_t[part])
    return r_lo, r_hi


def _first_crossing(points, crossed, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Run a bracket search for ``n`` levels at once: per level, the first
    of ``points`` (floats, or arrays over the levels) at which
    ``crossed(r, idx)`` holds for the levels ``idx`` still searching.
    Returns those points and the indices of the levels that never crossed."""
    at = np.empty(n)
    idx = np.arange(n)
    for p in points:
        at[idx] = p[idx] if isinstance(p, np.ndarray) else p
        idx = idx[~crossed(at[idx], idx)]
        if idx.size == 0:
            break
    return at, idx


def _level_bounds_chunk(prof: SliceProfile,
                        log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    target, alpha, r_mode = prof.target, prof.alpha, prof.r_mode
    n = log_t.size
    lh = lambda r: alpha * np.log(r) - target.phi_vec(r)
    below = lambda r, idx: lh(r) <= log_t[idx]

    # --- lower endpoint and anchor for the upper branch ------------------
    r_lo = np.zeros(n)
    if r_mode == 0.0:
        anchor, left = _first_crossing(_halvings(min(1.0, 0.5 * target.kappa)),
                                       lambda r, idx: lh(r) >= log_t[idx], n)
        if left.size:
            raise NoRootError("lower anchor search failed; profile never reaches the level")
    else:
        anchor = np.full(n, r_mode)
        a, left = _first_crossing(_deepening(r_mode), below, n)
        # Levels left lie above the level down to the float floor: r_lo = 0.
        solve = np.ones(n, dtype=bool)
        solve[left] = False
        if np.any(solve):
            u_mode = np.full(int(solve.sum()), math.log(r_mode))
            r_lo[solve] = _newton_log_radius(target, alpha, log_t[solve],
                                             u_below=np.log(a[solve]), u_above=u_mode)

    # --- upper endpoint ---------------------------------------------------
    hi, left = _first_crossing(_outward(anchor, target.kappa), below, n)
    if left.size and not math.isfinite(target.kappa):
        raise NoRootError("upper bracket expansion failed; profile does not decay")
    # Levels left lie below the profile up to the last float below kappa:
    # r_hi = kappa.
    r_hi = np.full(n, target.kappa)
    solve = np.ones(n, dtype=bool)
    solve[left] = False
    if np.any(solve):
        r_hi[solve] = _newton_log_radius(target, alpha, log_t[solve],
                                         u_below=np.log(hi[solve]),
                                         u_above=np.log(anchor[solve]))
    return r_lo, r_hi


def _newton_log_radius(target: RadialTarget, alpha: float, log_t: np.ndarray,
                       u_below: np.ndarray, u_above: np.ndarray) -> np.ndarray:
    """Root of ``g(u) = alpha u - phi(e^u) - log_t`` inside each bracket.

    ``g(u_below) <= 0 < g(u_above)``; the ends may be in either order.  A
    Newton step with ``g'(u) = alpha - r phi'(r)`` is taken when it stays
    inside the bracket and is shorter than half the step before last,
    otherwise a bisection step (Press et al., Numerical Recipes, rtsafe).
    The halving rule keeps near-double roots next to the profile mode from
    oscillating.  The iteration starts at ``u_below``: for a log-concave
    profile g is concave in u, so Newton steps from there approach the
    root from one side without overshooting.  An element stops once its
    step, which after a bisection is half its bracket, is within
    ``_U_TOL * max(|u|, 1)``.  Returns the radii ``e^u``.
    """
    out = np.empty(log_t.size)
    idx = np.arange(log_t.size)
    lt, xb, xa = log_t, u_below, u_above
    u = xb
    dx = dxold = np.abs(xa - xb)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_EXPANSIONS):
            r = np.exp(u)
            g = alpha * u - target.phi_vec(r) - lt
            dg = alpha - r * target.dphi_vec(r)
            up = g > 0.0
            xa = np.where(up, u, xa)
            xb = np.where(up, xb, u)
            step = g / dg
            new = u - step
            astep = np.abs(step)
            newton = (astep < 0.5 * dxold) & ((new - xa) * (new - xb) <= 0.0)
            dxold = dx
            dx = np.where(newton, astep, 0.5 * np.abs(xa - xb))
            u = np.where(newton, new, 0.5 * (xa + xb))
            done = dx <= _U_TOL * np.maximum(np.abs(u), 1.0)
            if done.any():
                out[idx[done]] = u[done]
                keep = np.flatnonzero(~done)
                if keep.size == 0:
                    break
                idx, u, lt, xa, xb, dx, dxold = (
                    v.take(keep) for v in (idx, u, lt, xa, xb, dx, dxold))
        else:
            raise NoRootError("safeguarded Newton did not converge on the level interval")
    return np.exp(out)


def _newton_scalar(phi, dphi, alpha: float, log_t: float,
                   u_below: float, u_above: float, u: float) -> float:
    """:func:`_newton_log_radius` on one level, started at ``u`` inside the
    bracket ``[u_below, u_above]``; a zero ``g'`` takes the bisection step,
    as a NaN one does."""
    xb, xa = u_below, u_above
    dx = dxold = abs(xa - xb)
    for _ in range(_MAX_EXPANSIONS):
        r = math.exp(u)
        g = alpha * u - phi(r) - log_t
        dg = alpha - r * dphi(r)
        xa, xb = (u, xb) if g > 0.0 else (xa, u)
        step = g / dg if dg else math.inf
        new = u - step
        if abs(step) < 0.5 * dxold and (new - xa) * (new - xb) <= 0.0:
            dxold, dx, u = dx, abs(step), new
        else:
            dxold, dx, u = dx, 0.5 * abs(xa - xb), 0.5 * (xa + xb)
        if dx <= _U_TOL * (u if u > 1.0 else -u if u < -1.0 else 1.0):
            return math.exp(u)
    raise NoRootError("safeguarded Newton did not converge on the level interval")


def _ladder(prof: SliceProfile) -> Callable[[float], tuple[float, float]]:
    """:func:`level_interval` for the many levels of one chain, bracketed by
    a ladder of solved rungs.

    Rung ``k < _RUNGS`` sits at the level ``log_sup - 64 + k/16`` and holds
    ``(log r_lo, log r_hi)`` there, solved by :func:`level_interval` the
    first time a level next to it comes up.  ``r_lo`` rises with the level
    and ``r_hi`` falls, so the rungs on either side of a level bracket both
    of its roots in ``u = log r``; Newton starts at the linear interpolation
    between them.  Levels outside the ladder or in its top cell, those
    whose lower rung has ``r_hi = kappa``, and those whose lower rung has
    ``r_lo = 0`` while the upper one does not, take :func:`level_interval`;
    when both rungs have ``r_lo = 0``, so does the level.
    """
    base = prof.log_sup - _RUNGS / _RUNGS_PER_UNIT
    phi, dphi, alpha = prof.target.phi, prof.target.dphi, prof.alpha
    log_kappa = math.log(prof.target.kappa)
    rungs: list = [None] * _RUNGS

    def rung(k: int) -> tuple[float, float]:
        r_lo, r_hi = level_interval(prof, base + k / _RUNGS_PER_UNIT)
        rungs[k] = (math.log(r_lo) if r_lo > 0.0 else -math.inf, math.log(r_hi))
        return rungs[k]

    def interval(log_t: float) -> tuple[float, float]:
        x = (log_t - base) * _RUNGS_PER_UNIT
        if not 0.0 <= x < _RUNGS - 1:
            return level_interval(prof, log_t)
        k = int(x)
        w = x - k
        lo0, hi0 = rungs[k] or rung(k)
        lo1, hi1 = rungs[k + 1] or rung(k + 1)
        if hi0 == log_kappa:
            return level_interval(prof, log_t)
        if lo1 == -math.inf:
            r_lo = 0.0
        elif lo0 == -math.inf:
            return level_interval(prof, log_t)
        else:
            r_lo = _newton_scalar(phi, dphi, alpha, log_t, lo0, lo1, lo0 + w * (lo1 - lo0))
        return r_lo, _newton_scalar(phi, dphi, alpha, log_t, hi0, hi1, hi0 + w * (hi1 - hi0))

    return interval


# ---------------------------------------------------------------------------
# Generalized level-set function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelSetFunction:
    """A decreasing level-set function, evaluated in log domain.

    ``log_eval`` maps an array of natural-log levels to log values
    (``-inf`` where the level set is empty), ``log_support_sup`` is the log
    of ``sup{t : ell(t) > 0}`` and ``limit_L`` is ``lim_{t -> 0} ell(t)``.
    """

    log_eval: Callable[[np.ndarray], np.ndarray]
    log_support_sup: float
    limit_L: float = math.inf
    label: str = ""

    def log(self, log_t):
        lt = np.atleast_1d(np.asarray(log_t, dtype=float))
        out = np.asarray(self.log_eval(lt), dtype=float)
        if np.ndim(log_t) == 0:
            return float(out[0])
        return out

    def eval(self, log_t):
        return np.exp(self.log(log_t))


def level_set_function(target: RadialTarget, fac: RadialFactorization) -> LevelSetFunction:
    """Build the level-set function of a target/factorization pair."""
    prof = slice_profile(target, fac)
    log_sup = prof.log_sup
    beta = target.dim - fac.alpha
    log_sigma = log_surface_area(target.dim)
    if math.isfinite(target.kappa):
        limit = math.exp(log_sigma - math.log(beta) + beta * math.log(target.kappa))
    else:
        limit = math.inf

    def log_eval(lt: np.ndarray) -> np.ndarray:
        """Log of ell at the log levels ``lt``; -inf at and above the supremum."""
        out = np.full(lt.shape, -math.inf)
        inside = lt < log_sup
        if np.any(inside):
            r_lo, r_hi = level_bounds(prof, lt[inside])
            vals = log_sigma - math.log(beta) + beta * np.log(r_hi)
            pos = r_lo > 0.0
            if np.any(pos):
                expo = beta * (np.log(r_lo[pos]) - np.log(r_hi[pos]))
                with np.errstate(divide="ignore"):
                    vals[pos] += np.log1p(-np.exp(expo))
            out[inside] = vals
        return out

    label = f"{target.tag}/alpha={fac.alpha}/d={target.dim}"
    return LevelSetFunction(log_eval=log_eval, log_support_sup=log_sup,
                           limit_L=limit, label=label)


# ---------------------------------------------------------------------------
# Class membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the decreasing-class check at index k."""

    k: int
    passed: bool
    violations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "passed": self.passed,
            "violations": [
                {"location": loc, "check": name, "magnitude": mag}
                for loc, name, mag in self.violations
            ],
        }


def default_probe(ell: LevelSetFunction) -> np.ndarray:
    """Uniform probe grid in ``s = -log t`` inside the open support."""
    s0 = -ell.log_support_sup
    if not math.isfinite(s0):
        raise DomainError("default probe needs a finite support supremum")
    return s0 + np.linspace(_PROBE_DEPTH / _PROBE_POINTS, _PROBE_DEPTH, _PROBE_POINTS)


def lambda_k_check(ell: LevelSetFunction, k: int,
                   probe: Optional[Sequence[float]] = None) -> MembershipReport:
    """Check boundary limits, strict decrease and k-th-root concavity.

    The third condition tests nonpositive second differences of
    ``s -> ell(exp(-s))^{1/k}``, the transformed statement of log-concavity
    of the inverse.
    """
    if k < 1 or k != int(k):
        raise DomainError(f"k must be a positive integer, got {k}")
    k = int(k)
    if probe is None:
        probe = default_probe(ell)
    s = np.asarray(probe, dtype=float)
    if s.size < 100:
        raise DomainError("probe grid must contain at least 100 points")
    s0 = -ell.log_support_sup
    if np.any(s <= s0):
        raise DomainError("probe grid extends outside the open support")

    logf = ell.log(-s)
    if np.any(~np.isfinite(logf)):
        raise DomainError("level-set function vanished inside its claimed support")
    scale = np.max(logf)
    f = np.exp(logf - scale)  # common factor drops out of all relative checks

    violations: list = []

    # (i) boundary: ell must vanish continuously at the support supremum
    # and stay positive deep inside.
    span = s[-1] - s0
    edge = float(np.exp(ell.log(-(s0 + 1e-8 * span)) - scale))
    if edge > 1e-3 * np.max(f):
        violations.append((s0, "boundary_limit", edge))
    if f[-1] <= 0.0:
        violations.append((float(s[-1]), "positive_limit", 0.0))

    # (ii) strict decrease in t, i.e. strict increase in s.
    slack = 1e-10 * np.maximum(f[:-1], f[1:])
    diffs = f[1:] - f[:-1]
    bad = diffs <= slack
    for i in np.nonzero(bad)[0]:
        violations.append((float(s[i]), "strict_decrease", float(diffs[i])))

    # (iii) concavity of the k-th root along s.
    q = np.exp((logf - scale) / k)
    d2 = q[2:] - 2.0 * q[1:-1] + q[:-2]
    qslack = 1e-8 * np.max(q)
    bad = d2 > qslack
    for i in np.nonzero(bad)[0]:
        violations.append((float(s[i + 1]), "root_concavity", float(d2[i])))

    return MembershipReport(k=k, passed=not violations, violations=violations)


# ---------------------------------------------------------------------------
# Canonical comparator density
# ---------------------------------------------------------------------------

def canonical_inverse_phi(ell: LevelSetFunction, k: int, s: float) -> float:
    """Radius of the canonical k-dimensional comparator at potential level s.

    Computes ``(k * ell(exp(-s)) / sigma_{k-1})^{1/k}``; returns 0 where the
    level set is empty.
    """
    if k < 1 or k != int(k):
        raise DomainError(f"k must be a positive integer, got {k}")
    s0 = -ell.log_support_sup
    if not s > s0:
        raise DomainError(f"s={s} is outside the domain (s must exceed {s0})")
    lv = ell.log(-s)
    if not math.isfinite(lv):
        return 0.0
    return math.exp((math.log(k) + lv - log_surface_area(int(k))) / k)


def canonical_potential(ell: LevelSetFunction, k: int, r: float) -> float:
    """Numeric inverse of :func:`canonical_inverse_phi` in its s argument."""
    if r <= 0.0:
        raise DomainError("r must be positive")
    s0 = -ell.log_support_sup
    # Negated radius: like a profile, it falls through the level -r as s grows.
    fall = lambda s: -canonical_inverse_phi(ell, k, s)
    for depth in _outward(0.0, math.inf):
        if depth > _MAX_DEPTH:
            raise NoRootError(f"radius {r} is beyond the comparator's support")
        if fall(s0 + depth) <= -r:
            break
    return _bisect(fall, -r, s0 + 1e-12 * max(1.0, abs(s0)), s0 + depth, tol=1e-14)
