"""Slice profiles, level intervals, the level-set function and class membership.

The slice profile ``h_alpha(r) = r^alpha exp(-phi(r))`` of an in-class
target is unimodal, so every super level set ``{r : h_alpha(r) > t}`` is an
interval.  A :class:`SliceProfile` holds the profile's mode and supremum,
solved once; from it this module locates the interval endpoints on the two
monotone branches, evaluates the generalized level-set function

    ell(t) = sigma_{d-1} / (d - alpha) * (r_hi^{d-alpha} - r_lo^{d-alpha}),

and checks the decreasing-function class whose k-th member certifies a
spectral gap of at least 1/(k+1) for the associated sampler.

Every root is bracketed by one of two bracket searches: ``_deepening``
toward 0, which doubles the depth in ``log r`` down to the float floor,
and ``_outward``, toward a finite cutoff or by doubling.  They run on one
point at a time, in ``mode_radius``, ``level_interval`` and
``canonical_potential``.  The profile mode and the canonical comparator's
potential are solved by one bisection, ``_bisect``; level endpoints by a
safeguarded Newton iteration in ``log r``, which on an array of levels
runs its safeguards only on the steps it refuses.

Many levels of one profile are bracketed by rungs: levels solved by
``level_interval``.  ``r_lo`` rises with the level and ``r_hi`` falls, so
the two rungs around a level bracket both of its endpoints, and Newton
starts between them.  ``level_bounds`` picks the rungs of an array of
levels among the levels themselves (without a sort when they increase),
finds each level's rung by one search among them, gathers the brackets
from one flat array of rung roots and solves both endpoints of the other
levels in one Newton call; a chain's ``_ladder`` keeps a ladder of levels
1/16 apart below the supremum, each solved the first time the chain comes
next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable

import numpy as np

from .errors import DomainError, EmptyLevelError, NoRootError, check_number
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
    "canonical_inverse_phi",
    "canonical_potential",
]

# Cap on every bracket search and root iteration.
_MAX_EXPANSIONS = 200
# Levels per level_bounds chunk; keeps the solver's working arrays small.
_CHUNK = 1 << 13
# Rungs per level_bounds chunk: its levels solved by level_interval, whose
# roots bracket the chunk's other levels.
_CHUNK_RUNGS = 16
# Chain ladders: rungs per unit of log level, and the top rung's index; the
# top rung sits 1/16 below the profile supremum, and rung 0 64 below it.
_RUNGS_PER_UNIT = 16
_TOP_RUNG = 1023
# Newton stopping tolerance in u = log r, relative to max(|u|, 1): 4 ulp.
_U_TOL = 4.0 * np.finfo(float).eps
# Scalar bisection stop: bracket width relative to max(|root|, 1).
_REL_TOL = 1e-13
# canonical_potential: deepest s below the support supremum that it searches.
_MAX_DEPTH = 700.0
# lambda_k_check's probe grid: points, and the depth in s = -log t that they span.
_PROBE_POINTS = 200
_PROBE_DEPTH = 40.0


# ---------------------------------------------------------------------------
# Scalar root finding: bracket searches and one bisection
# ---------------------------------------------------------------------------

def _deepening(x: float):
    """``x``, then ``x * 2**-(2**k)`` (``x/2, x/4, x/16, ...``) until it
    underflows to 0: a positive ``x`` reaches the float floor in about 12
    points."""
    yield x
    for k in range(_MAX_EXPANSIONS):
        a = math.ldexp(x, -(1 << k))
        if a == 0.0:
            return
        yield a


def _outward(x: float, kappa: float):
    """Points beyond ``x``: halving the distance to a finite cutoff
    ``kappa``, else doubling from ``max(2x, 1)``.  Toward ``kappa`` the
    points stop at the largest float below it, so ``kappa`` itself is never
    among them."""
    if math.isfinite(kappa):
        last = math.nextafter(kappa, 0.0)
        gap = kappa - x
        for j in range(1, _MAX_EXPANSIONS):
            p = min(kappa - gap * 0.5**j, last)
            yield p
            if p == last:
                return
    else:
        x = max(2.0 * x, 1.0)
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

    Bisects the sign change of ``alpha - r * phi'(r)``, which for
    ``alpha = 0`` gives the minimizer of phi.  The bracket is found by
    deepening toward 0 from 1 (``kappa / 2`` for a finite cutoff), then
    searching outward, up to about 1.6e60 without a cutoff.
    """
    fac.validate_for(target)
    kappa = target.kappa
    alpha = fac.alpha
    rise = lambda r: alpha - r * target.dphi(r)
    for a in _deepening(1.0 if not math.isfinite(kappa) else 0.5 * kappa):
        if rise(a) > 0.0:
            break
    else:
        # h_alpha is non-increasing on all of (0, kappa).
        return 0.0
    for b in _outward(a, kappa):
        if rise(b) <= 0.0:
            return _bisect(rise, 0.0, a, b)
    raise NoRootError(f"could not bracket the profile mode up to r = {b:.3g}; "
                      f"target outside the supported class")


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
        # The supremum is the limit at 0: the profile at the smallest
        # positive float, or +inf if that is well above it at 1e-100.
        log_sup = log_h(target, fac, min(math.ulp(0.0), target.kappa * 0.5))
        ref = log_h(target, fac, min(1e-100, target.kappa * 0.5))
        if log_sup > ref + 1e-6 * (1.0 + abs(ref)):
            log_sup = math.inf
    return SliceProfile(target, fac.alpha, r_mode, log_sup)


# ---------------------------------------------------------------------------
# Level intervals: safeguarded Newton in log r, scalar and vectorized
# ---------------------------------------------------------------------------

def level_interval(prof: SliceProfile, log_t: float) -> tuple[float, float]:
    """``(r_lo, r_hi)`` solving ``log_h(r) = log_t`` on both branches of the
    profile.  Each root is bracketed by a search from the mode (or, for a
    non-increasing profile, from an anchor above the level found by
    deepening toward 0, then at the smallest positive float), then solved by
    the safeguarded Newton iteration in ``log r`` (``_newton_scalar``),
    started at the search's last point.  ``log_t`` is a number above -inf;
    a NaN one, like one at or above the supremum, has an empty level set."""
    check_number("log_t", log_t, "a number above -inf", lambda v: v != -math.inf)
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
        # Deepening stops at 2**-1024; the smallest positive float comes
        # last, for levels above the profile there, next to its supremum.
        for anchor in chain(_deepening(min(1.0, 0.5 * target.kappa)), (math.ulp(0.0),)):
            if lh(anchor) >= log_t:
                break
        else:
            raise NoRootError("lower anchor search failed; profile never reaches the level")
    else:
        anchor = r_mode
        # Below the mode, which is above every level.  Without a point at or
        # below the level above the float floor, the profile exceeds the
        # level all the way down and r_lo stays 0.
        for a in islice(_deepening(r_mode), 1, None):
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

    Levels are processed in chunks of ``_CHUNK`` so that the working arrays
    stay small.  In each chunk up to ``_CHUNK_RUNGS`` distinct levels at
    evenly spaced quantiles, its lowest and highest level among them, are
    rungs solved by :func:`level_interval`, so a level of -inf, always the
    lowest of its chunk, raises its ``DomainError``; only a chunk that does
    not strictly increase is sorted to find them.  Both endpoints of every
    other level are solved between the roots of the two rungs around it, in
    one call of the safeguarded Newton iteration in ``u = log r`` that stops
    on a tolerance, with the rung-pair rules of :func:`_ladder`.
    """
    log_t = np.asarray(log_t, dtype=float).ravel()
    if not np.all(log_t < prof.log_sup):
        raise EmptyLevelError("some levels are not below the profile supremum")
    r_lo = np.empty(log_t.size)
    r_hi = np.empty(log_t.size)
    for start in range(0, log_t.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        r_lo[part], r_hi[part] = _level_bounds_chunk(prof, log_t[part])
    return r_lo, r_hi


def _level_bounds_chunk(prof: SliceProfile,
                        log_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = log_t.size
    # a strictly increasing chunk is its own sorted set of distinct levels
    levels = log_t if np.all(log_t[1:] > log_t[:-1]) else np.unique(log_t)
    rung_t = levels[np.linspace(0, levels.size - 1,
                                min(levels.size, _CHUNK_RUNGS)).round().astype(int)]
    m = rung_t.size
    # Flat rung roots: every r_lo, then every r_hi, so each bracket is a 1-D gather.
    rungs = np.array([level_interval(prof, t) for t in rung_t.tolist()]).T.ravel()
    # Each level takes the interval of the rung at or above it: its own, or
    # the r_lo = 0 and r_hi = kappa that hold below a rung with them.
    j = np.searchsorted(rung_t, log_t)
    r = rungs[np.concatenate((j, j + m))]
    mid = np.flatnonzero(rung_t[j] != log_t)
    j, lt = j[mid], log_t[mid]
    with np.errstate(divide="ignore"):
        u = np.log(rungs)
    # Both endpoints as one problem list: the lower ones, then the upper ones.
    jj = np.concatenate((j, j + m))
    a, b = u[jj - 1], u[jj]
    w = (lt - rung_t[j - 1]) / (rung_t[j] - rung_t[j - 1])
    log_kappa = math.log(prof.target.kappa)
    k = mid.size
    # Rungs that straddle r_lo = 0 or r_hi = kappa bracket nothing there.
    straddle = ((a[:k] == -math.inf) & (b[:k] > -math.inf)
                | (a[k:] == log_kappa) & (b[k:] < log_kappa))
    for i in mid[straddle].tolist():
        r[i], r[i + n] = level_interval(prof, float(log_t[i]))
    # Newton between the rungs' roots, started at their interpolation, on
    # each endpoint that the rung above has not answered.
    dest, lt, w = np.concatenate((mid, mid + n)), np.concatenate((lt, lt)), np.concatenate((w, w))
    s = np.concatenate((~straddle, ~straddle)) & (-math.inf < b) & (b < log_kappa)
    if not s.all():
        dest, lt, w, a, b = dest[s], lt[s], w[s], a[s], b[s]
    r[dest] = _newton_log_radius(prof.target, prof.alpha, lt, a, b, a + w * (b - a))
    return r[:n], r[n:]


def _newton_log_radius(target: RadialTarget, alpha: float, log_t: np.ndarray,
                       u_below: np.ndarray, u_above: np.ndarray,
                       u: np.ndarray) -> np.ndarray:
    """Root of ``g(u) = alpha u - phi(e^u) - log_t`` inside each bracket,
    started at ``u`` inside it.

    ``g(u_below) <= 0 < g(u_above)``; the ends may be in either order, so
    one call takes both endpoints of many levels.  Every element takes the
    Newton step with ``g'(u) = alpha - r phi'(r)``; rtsafe's bookkeeping
    (Press et al., Numerical Recipes, rtsafe) runs only where that step
    leaves the bracket, comes back NaN or is not shorter than half the step
    before last.  There the bracket narrows to the last two points evaluated
    and the element bisects it.  The halving rule keeps near-double roots
    next to the profile mode from oscillating, and the two points end an
    oscillation at the root's float spacing in one bisection.  An element
    stops once its step, which after a bisection is half its bracket, is
    within ``_U_TOL * max(|u|, 1)``; it then sits on a zero-width bracket,
    where every step leaves it in place, until a quarter of the elements
    have stopped and the arrays shrink to the rest.  Returns the radii
    ``e^u``; an empty selection returns at once.
    """
    out = np.empty(log_t.size)
    if not log_t.size:
        return out
    idx = np.arange(log_t.size)
    lt, lo, hi = log_t, np.minimum(u_below, u_above), np.maximum(u_below, u_above)
    # g rises with u where u_below < u_above: the lower endpoint of a level
    rise = u_below < u_above
    dx = dxold = hi - lo
    # the point evaluated before u and its g; at first the end with g <= 0
    u, v, gv = u.copy(), u_below, np.zeros(lt.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_EXPANSIONS):
            # in place where it can be, so that a step makes few new arrays
            r = np.exp(u)
            g = alpha * u
            g -= target.phi(r)
            g -= lt
            step = np.multiply(r, target.dphi(r), out=r)
            np.subtract(alpha, step, out=step)
            np.divide(g, step, out=step)
            new = u - step
            astep = np.abs(step, out=step)
            ok = astep < 0.5 * dxold
            ok &= lo <= new
            ok &= new <= hi
            bis = np.flatnonzero(~ok)
            if bis.size:
                a, b = _narrow(lo[bis], hi[bis], rise[idx[bis]],
                               v[bis], gv[bis], u[bis], g[bis])
                lo[bis], hi[bis] = a, b
                new[bis] = 0.5 * (a + b)
                astep[bis] = 0.5 * (b - a)
            v, gv, u, dx, dxold = u, g, new, astep, dx
            stop = dx <= _U_TOL * np.maximum(np.abs(u), 1.0)
            done = np.flatnonzero(stop)
            # A finished element stays at its u on a zero-width bracket, its
            # last point moved there too, so the arrays shrink only once a
            # quarter of them has finished.
            if 4 * done.size < u.size:
                lo[done] = hi[done] = v[done] = u[done]
                continue
            out[idx[done]] = u[done]
            if done.size == u.size:
                break
            keep = np.flatnonzero(~stop)
            idx, u, lt, lo, hi, dx, dxold, v, gv = (
                w.take(keep) for w in (idx, u, lt, lo, hi, dx, dxold, v, gv))
        else:
            raise NoRootError("safeguarded Newton did not converge on the level interval")
    return np.exp(out)


def _narrow(lo: np.ndarray, hi: np.ndarray, rise: np.ndarray, v: np.ndarray,
            gv: np.ndarray, u: np.ndarray, g: np.ndarray):
    """rtsafe's bracket update on the refused steps of :func:`_newton_log_radius`:
    ``[lo, hi]`` narrows to ``v`` and then to ``u``, points inside it with
    ``g`` values ``gv`` and ``g``; a point is above the root where ``g > 0``
    matches ``rise``, the direction of ``g``.  Returns the new ends."""
    for p, gp in ((v, gv), (u, g)):
        above = (gp > 0.0) == rise
        lo, hi = np.where(above, lo, p), np.where(above, p, hi)
    return lo, hi


def _newton_scalar(phi, dphi, alpha: float, log_t: float,
                   u_below: float, u_above: float, u: float) -> float:
    """:func:`_newton_log_radius` on one level, started at ``u`` inside the
    bracket ``[u_below, u_above]``, with rtsafe's bracket narrowed at every
    step; a zero ``g'`` takes the bisection step, as a NaN one does."""
    xb, xa = u_below, u_above
    dx = dxold = abs(xa - xb)
    tol = _U_TOL
    for _ in range(_MAX_EXPANSIONS):
        r = math.exp(u)
        g = alpha * u - phi(r) - log_t
        if g > 0.0:
            xa = u
        else:
            xb = u
        dg = alpha - r * dphi(r)
        step = g / dg if dg else math.inf
        new = u - step
        a = abs(step)
        if a < 0.5 * dxold and (new - xa) * (new - xb) <= 0.0:
            u = new
        else:
            u, a = 0.5 * (xa + xb), 0.5 * abs(xa - xb)
        dxold, dx = dx, a
        if dx <= tol * (u if u > 1.0 else -u if u < -1.0 else 1.0):
            return math.exp(u)
    raise NoRootError("safeguarded Newton did not converge on the level interval")


def _ladder(prof: SliceProfile) -> Callable[[float], tuple[float, float]]:
    """:func:`level_interval` for the many levels of one chain, bracketed by
    a ladder of solved rungs.

    Rung ``k`` sits at the level ``log_sup - 64 + k/16``, for every integer
    ``k`` up to ``_TOP_RUNG`` (1/16 below the supremum) and down without a
    floor, and holds ``(log r_lo, log r_hi)`` there, solved the first time a
    level next to it comes up; after that it is one dict subscript.  ``r_lo``
    rises with the level and ``r_hi`` falls, so the rungs on either side of a
    level bracket both of its roots in ``u = log r``; Newton starts at the
    linear interpolation between them.  The rung-pair rules, which
    :func:`level_bounds` follows too: where the upper rung has ``r_lo = 0`` so
    does the level, and where it has ``r_hi = kappa`` so does the level; a
    level whose rungs straddle ``r_lo = 0`` or ``r_hi = kappa`` takes
    :func:`level_interval`, as do non-finite levels and the top cell.
    """
    base = prof.log_sup - (_TOP_RUNG + 1) / _RUNGS_PER_UNIT
    phi, dphi, alpha = prof.target.phi, prof.target.dphi, prof.alpha
    kappa = prof.target.kappa
    log_kappa = math.log(kappa)
    floor, inf = math.floor, math.inf

    class Rungs(dict):
        def __missing__(self, k: int) -> tuple[float, float]:
            r_lo, r_hi = level_interval(prof, base + k / _RUNGS_PER_UNIT)
            rung = self[k] = (math.log(r_lo) if r_lo > 0.0 else -inf, math.log(r_hi))
            return rung

    rungs = Rungs()

    def interval(log_t: float) -> tuple[float, float]:
        x = (log_t - base) * _RUNGS_PER_UNIT
        if not -inf < x < _TOP_RUNG:
            return level_interval(prof, log_t)
        k = floor(x)
        w = x - k
        lo0, hi0 = rungs[k]
        lo1, hi1 = rungs[k + 1]
        if lo0 == -inf < lo1 or hi0 == log_kappa > hi1:
            return level_interval(prof, log_t)
        if lo1 == -inf:
            r_lo = 0.0
        else:
            r_lo = _newton_scalar(phi, dphi, alpha, log_t, lo0, lo1, lo0 + w * (lo1 - lo0))
        if hi1 == log_kappa:
            return r_lo, kappa
        return r_lo, _newton_scalar(phi, dphi, alpha, log_t, hi0, hi1, hi0 + w * (hi1 - hi0))

    return interval


# ---------------------------------------------------------------------------
# Generalized level-set function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelSetFunction:
    """A decreasing level-set function, evaluated in log domain.

    ``log_eval`` maps an array of natural-log levels to log values
    (``-inf`` where the level set is empty) and ``log_support_sup`` is the
    log of ``sup{t : ell(t) > 0}``.
    """

    log_eval: Callable[[np.ndarray], np.ndarray]
    log_support_sup: float

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

    def log_eval(lt: np.ndarray) -> np.ndarray:
        """Log of ell at the log levels ``lt``: -inf at and above the supremum;
        a NaN level is an EmptyLevelError, level -inf a DomainError."""
        if np.any(np.isnan(lt)):
            raise EmptyLevelError("a NaN level has no level set")
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

    return LevelSetFunction(log_eval=log_eval, log_support_sup=log_sup)


# ---------------------------------------------------------------------------
# Class membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the decreasing-class check at index k.  Each violation is
    a dict ``{"location": s, "check": name, "magnitude": value}``."""

    k: int
    passed: bool
    violations: list = field(default_factory=list)


def lambda_k_check(ell: LevelSetFunction, k: int) -> MembershipReport:
    """Check boundary limits, strict decrease and k-th-root concavity.

    The checks run on 200 evenly spaced points ``s = -log t`` over the 40
    units of ``s`` above ``s0 = -log_support_sup``, inside the open support;
    ``s0`` must be finite.  The third condition tests nonpositive second
    differences of ``s -> ell(exp(-s))^{1/k}``, the transformed statement
    of log-concavity of the inverse.  ``k`` is a positive integer.
    """
    k = check_number("k", k, "a positive integer", lambda v: v >= 1, integer=True)
    s0 = -ell.log_support_sup
    if not math.isfinite(s0):
        raise DomainError("the class check needs a finite support supremum")
    s = s0 + np.linspace(_PROBE_DEPTH / _PROBE_POINTS, _PROBE_DEPTH, _PROBE_POINTS)

    logf = ell.log(-s)
    if np.any(~np.isfinite(logf)):
        raise DomainError("level-set function vanished inside its claimed support")
    scale = np.max(logf)
    f = np.exp(logf - scale)  # common factor drops out of all relative checks

    violations: list = []

    def violate(location: float, check: str, magnitude: float) -> None:
        violations.append({"location": location, "check": check, "magnitude": magnitude})

    # (i) boundary: ell must vanish continuously at the support supremum
    # and stay positive deep inside.
    span = s[-1] - s0
    edge = float(np.exp(ell.log(-(s0 + 1e-8 * span)) - scale))
    if edge > 1e-3 * np.max(f):
        violate(s0, "boundary_limit", edge)
    if f[-1] <= 0.0:
        violate(float(s[-1]), "positive_limit", 0.0)

    # (ii) strict decrease in t, i.e. strict increase in s.
    slack = 1e-10 * np.maximum(f[:-1], f[1:])
    diffs = f[1:] - f[:-1]
    for i in np.flatnonzero(diffs <= slack):
        violate(float(s[i]), "strict_decrease", float(diffs[i]))

    # (iii) concavity of the k-th root along s.
    q = np.exp((logf - scale) / k)
    d2 = q[2:] - 2.0 * q[1:-1] + q[:-2]
    qslack = 1e-8 * np.max(q)
    for i in np.flatnonzero(d2 > qslack):
        violate(float(s[i + 1]), "root_concavity", float(d2[i]))

    return MembershipReport(k=k, passed=not violations, violations=violations)


# ---------------------------------------------------------------------------
# Canonical comparator density
# ---------------------------------------------------------------------------

def canonical_inverse_phi(ell: LevelSetFunction, k: int, s: float) -> float:
    """Radius of the canonical k-dimensional comparator at potential level s.

    Computes ``(k * ell(exp(-s)) / sigma_{k-1})^{1/k}``; returns 0 where the
    level set is empty.  ``k`` is a positive integer, ``s`` finite.
    """
    k = check_number("k", k, "a positive integer", lambda v: v >= 1, integer=True)
    s0 = -ell.log_support_sup
    check_number("s", s, f"a finite number above {s0}", lambda v: s0 < v < math.inf)
    lv = ell.log(-s)
    if not math.isfinite(lv):
        return 0.0
    return math.exp((math.log(k) + lv - log_surface_area(k)) / k)


def canonical_potential(ell: LevelSetFunction, k: int, r: float) -> float:
    """Numeric inverse of :func:`canonical_inverse_phi` in its s argument,
    for a finite positive radius ``r``."""
    check_number("r", r, "a finite positive radius", lambda v: 0 < v < math.inf)
    s0 = -ell.log_support_sup
    # Negated radius: like a profile, it falls through the level -r as s grows.
    fall = lambda s: -canonical_inverse_phi(ell, k, s)
    for depth in _outward(0.0, math.inf):
        if depth > _MAX_DEPTH:
            raise NoRootError(f"radius {r} is beyond the comparator's support")
        if fall(s0 + depth) <= -r:
            break
    return _bisect(fall, -r, s0 + 1e-12 * max(1.0, abs(s0)), s0 + depth, tol=1e-14)
