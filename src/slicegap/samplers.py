"""Slice-sampling chains for radial targets, simulated in (log t, r).

For rotationally invariant targets and radial summary functions the radius
process is itself a Markov chain with the same law as the radius of the
full-space chain, so the default simulation never materializes direction
vectors.  A full-vector mode exists to validate that reduction at small
dimension.  The level draw ``t ~ Unif(0, h(x))`` is performed as
``log t = log h(x) + log u`` and the set draw is an exact inverse-CDF
sample of the radial density ``r^{d-1-alpha}`` on the level interval.
Every entry point solves the slice profile once
(:func:`~slicegap.levelset.slice_profile`) and takes all of its level
intervals from it.  Both chains are built from one pair of these
half-steps; they and the one-step maps draw every uniform from the open
interval (0, 1).  The two stationary oracles share one grid inverse CDF,
and every redraw loop is capped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .levelset import (
    LevelSetFunction,
    SliceProfile,
    level_bounds,
    level_interval,
    slice_profile,
)
from .targets import RadialFactorization, RadialTarget, log_h

__all__ = [
    "Trace",
    "make_rng",
    "t_update",
    "x_update_radius",
    "sample_direction",
    "run_x_chain",
    "run_t_chain",
    "x_step_radii",
    "t_step_levels",
    "RadialStationarySampler",
    "PiTildeSampler",
]

# Draws a redraw loop makes before it gives up on its random stream.
_MAX_REDRAWS = 64
# Oracle grids: cells, the radial grid's level below its profile's log sup,
# and the drop in log density at which the level grid ends.
_ORACLE_CELLS = 2**14
_RADIAL_TAIL_DEPTH = 80.0
_LEVEL_TAIL_DEPTH = 34.0


@dataclass
class Trace:
    """Chain output: summary values, the seed and run metadata."""

    values: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self, path: str) -> None:
        """Write (step, value) rows plus a JSON metadata sidecar."""
        with open(path, "w") as fh:
            fh.write("step,value\n")
            for i, v in enumerate(self.values):
                fh.write(f"{i},{v!r}\n")
        sidecar = dict(self.meta)
        sidecar["seed"] = int(self.seed)
        sidecar["n"] = len(self.values) - 1
        with open(str(path) + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)


def make_rng(base_seed: int, chain_index: int = 0) -> np.random.Generator:
    """Independent stream for chain ``chain_index`` of a seeded experiment."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(base_seed) & (2**64 - 1),
                               spawn_key=(int(chain_index),))
    )


def _open_uniform(rng: np.random.Generator) -> float:
    for _ in range(_MAX_REDRAWS):
        u = rng.random()
        if u != 0.0:
            return u
    raise DomainError(f"random stream returned 0.0 {_MAX_REDRAWS} times in a row")


def _open_uniforms(rng: np.random.Generator, size) -> np.ndarray:
    u = rng.random(size)
    for _ in range(_MAX_REDRAWS):
        zero = u == 0.0
        if not np.any(zero):
            return u
        u[zero] = rng.random(int(zero.sum()))
    raise DomainError(f"random stream returned 0.0 {_MAX_REDRAWS} times in a row")


def t_update(log_h_x, u):
    """Log level of a uniform draw on (0, h(x)): ``log h(x) + log u``."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DomainError("u must lie strictly inside (0, 1)")
    out = np.asarray(log_h_x, dtype=float) + np.log(u_arr)
    if np.ndim(u) == 0 and np.ndim(log_h_x) == 0:
        return float(out)
    return out


def x_update_radius(prof: SliceProfile, log_t, u):
    """Inverse-CDF draw of the radial density ``r^{d-1-alpha}`` on the level.

    For PSS (``alpha = d-1``) this is uniform on the interval; otherwise the
    power-law inverse CDF is evaluated in log domain so that large
    dimensions never overflow.  Scalar inputs give a float.
    """
    r_lo, r_hi = level_bounds(prof, log_t)
    u_arr = np.broadcast_to(np.asarray(u, dtype=float), np.shape(log_t)).ravel()
    out = _inverse_cdf_radius_vec(r_lo, r_hi, u_arr, prof.target.dim - prof.alpha)
    if np.ndim(log_t) == 0 and np.ndim(u) == 0:
        return float(out[0])
    return out


def _inverse_cdf_radius(r_lo: float, r_hi: float, u: float, beta: float) -> float:
    if beta == 1.0:
        return r_lo + u * (r_hi - r_lo)
    if r_lo <= 0.0:
        q = 0.0
    else:
        q = math.exp(beta * (math.log(r_lo) - math.log(r_hi)))
    inner = q + u * (1.0 - q)
    if inner <= 0.0:
        return r_lo
    return r_hi * math.exp(math.log(inner) / beta)


def _inverse_cdf_radius_vec(r_lo, r_hi, u, beta: float) -> np.ndarray:
    if beta == 1.0:
        return r_lo + u * (r_hi - r_lo)
    q = np.zeros_like(r_hi)
    pos = r_lo > 0.0
    q[pos] = np.exp(beta * (np.log(r_lo[pos]) - np.log(r_hi[pos])))
    inner = q + u * (1.0 - q)
    return np.where(inner > 0.0,
                    r_hi * np.exp(np.log(np.where(inner > 0.0, inner, 1.0)) / beta),
                    r_lo)


def sample_direction(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector in R^d (normalized standard Gaussian)."""
    if d < 1:
        raise DomainError(f"d must be positive, got {d}")
    for _ in range(_MAX_REDRAWS):
        v = rng.standard_normal(d)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm
    raise DomainError(f"random stream gave {_MAX_REDRAWS} Gaussian vectors of "
                      "norm <= 1e-12 in a row")


def _half_steps(target: RadialTarget, fac: RadialFactorization, n: int,
                rng: np.random.Generator):
    """``(level, radius, log_sup)`` of a scalar chain drawing from ``rng``:
    ``level(r)`` draws ``log t`` below ``log h(r)``, ``radius(log_t)`` a
    radius from the level set."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    prof = slice_profile(target, fac)
    phi = target.phi
    alpha = fac.alpha
    beta = target.dim - alpha

    def level(r: float) -> float:
        return alpha * math.log(r) - phi(r) + math.log(_open_uniform(rng))

    def radius(log_t: float) -> float:
        r_lo, r_hi = level_interval(prof, log_t)
        return _inverse_cdf_radius(r_lo, r_hi, _open_uniform(rng), beta)

    return level, radius, prof.log_sup


def _chain_meta(chain: str, target: RadialTarget, fac: RadialFactorization,
                n: int, **extra) -> dict:
    return {"chain": chain, "target": target.tag, "alpha": fac.alpha,
            "d": target.dim, "n": n, **extra}


def run_x_chain(target: RadialTarget, fac: RadialFactorization,
                n: int, init_radius: float, seed: int,
                full_vector: bool = False) -> Trace:
    """Alternate level and set updates for ``n`` steps; length-(n+1) trace.

    Records the radius ``||x||``.  In full-vector mode each state is
    ``x = r * direction`` with the direction drawn from a separate seeded
    stream, and the trace holds the computed ``||x||``; the radius sequence
    is identical in both modes under the same seed.
    """
    level, radius, _ = _half_steps(target, fac, n, make_rng(seed, 0))
    if not (0.0 < init_radius < target.kappa):
        raise DomainError(f"init_radius={init_radius} outside (0, kappa)")

    values = np.empty(n + 1)
    r = values[0] = float(init_radius)
    for i in range(1, n + 1):
        r = values[i] = radius(level(r))
    if full_vector:
        rng_dir = make_rng(seed, 1)
        values = np.array([np.linalg.norm(r * sample_direction(target.dim, rng_dir))
                           for r in values])
    meta = _chain_meta("x", target, fac, n, init_radius=init_radius,
                       full_vector=full_vector)
    return Trace(values=values, seed=seed, meta=meta)


def run_t_chain(target: RadialTarget, fac: RadialFactorization,
                n: int, init_log_t: float, seed: int) -> Trace:
    """Auxiliary level chain: set update then level update; records log t."""
    level, radius, log_sup = _half_steps(target, fac, n, make_rng(seed, 0))
    if not init_log_t < log_sup:
        raise DomainError("init_log_t is not inside the support of the level chain")

    values = np.empty(n + 1)
    log_t = float(init_log_t)
    values[0] = log_t
    for i in range(1, n + 1):
        log_t = level(radius(log_t))
        values[i] = log_t
    meta = _chain_meta("t", target, fac, n, init_log_t=init_log_t)
    return Trace(values=values, seed=seed, meta=meta)


# ---------------------------------------------------------------------------
# Vectorized one-step transitions (used by stationarity checks)
# ---------------------------------------------------------------------------

def x_step_radii(target: RadialTarget, fac: RadialFactorization,
                 radii: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One full slice step applied independently to an array of radii."""
    prof = slice_profile(target, fac)
    radii = np.asarray(radii, dtype=float)
    log_t = log_h(target, fac, radii) + np.log(_open_uniforms(rng, radii.shape))
    return x_update_radius(prof, log_t, _open_uniforms(rng, radii.shape))


def t_step_levels(target: RadialTarget, fac: RadialFactorization,
                  log_t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One auxiliary-chain step applied independently to an array of levels."""
    prof = slice_profile(target, fac)
    log_t = np.asarray(log_t, dtype=float)
    r = x_update_radius(prof, log_t, _open_uniforms(rng, log_t.shape))
    return log_h(target, fac, r) + np.log(_open_uniforms(rng, log_t.shape))


# ---------------------------------------------------------------------------
# Independent oracles: stationary radial law and the level-chain law
# ---------------------------------------------------------------------------

class _GridInverseCdf:
    """I.i.d. draws by inverse CDF from a trapezoid cumulative on a grid."""

    def __init__(self, grid: np.ndarray, log_density: np.ndarray):
        finite = np.isfinite(log_density)
        dens = np.zeros(grid.shape)
        dens[finite] = np.exp(log_density[finite] - np.max(log_density[finite]))
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[:-1] + dens[1:]) * np.diff(grid))])
        self.grid = grid
        self.cdf = cdf / cdf[-1]

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return np.interp(rng.random(size), self.cdf, self.grid)


class RadialStationarySampler(_GridInverseCdf):
    """I.i.d. radii with density proportional to ``r^{d-1} exp(-phi(r))``.

    Grid inverse CDF with 2^14 cells over the effective support and a
    trapezoidal cumulative; used as a test oracle for chain stationarity.
    """

    def __init__(self, target: RadialTarget):
        prof = slice_profile(target, RadialFactorization(float(target.dim - 1)))
        r_lo, r_hi = level_interval(prof, prof.log_sup - _RADIAL_TAIL_DEPTH)
        grid = np.linspace(r_lo, r_hi, _ORACLE_CELLS + 1)
        logpdf = np.full(grid.shape, -math.inf)
        pos = grid > 0.0
        logpdf[pos] = (target.dim - 1) * np.log(grid[pos]) - target.phi_vec(grid[pos])
        super().__init__(grid, logpdf)


class PiTildeSampler(_GridInverseCdf):
    """I.i.d. log levels from the stationary law of the auxiliary chain.

    The stationary density in ``s = log t`` is proportional to
    ``ell(e^s) e^s``; sampling is grid inverse CDF on an adaptively
    bracketed s-range.
    """

    def __init__(self, ell: LevelSetFunction):
        s_sup = ell.log_support_sup
        s_ref = (s_sup - 1.0) if math.isfinite(s_sup) else 0.0

        def log_m(s):
            return ell.log(s) + s

        m_ref = log_m(s_ref)
        if not math.isfinite(m_ref):
            raise DomainError("reference level has no stationary mass")

        def tail_end(sign: float, side: str) -> float:
            step = 1.0
            while log_m(s_ref + sign * step) > m_ref - _LEVEL_TAIL_DEPTH:
                step *= 2.0
                if step > 1e6:
                    raise DomainError(f"could not bracket the {side} stationary tail")
            return s_ref + sign * step

        # Expand downward (and upward when the support is unbounded).
        s_lo = tail_end(-1.0, "lower")
        s_hi = s_sup if math.isfinite(s_sup) else tail_end(1.0, "upper")
        grid = np.linspace(s_lo, s_hi, _ORACLE_CELLS + 1)
        super().__init__(grid, log_m(grid))
