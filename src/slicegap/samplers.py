"""Slice-sampling chains for radial targets, simulated in (log t, r).

For rotationally invariant targets and radial summary functions the radius
process is itself a Markov chain with the same law as the radius of the
full-space chain, so the simulation never materializes direction vectors.
The level draw ``t ~ Unif(0, h(x))`` is performed as
``log t = log h(x) + log u`` and the set draw is an exact inverse-CDF
sample of the radial density ``r^{d-1-alpha}`` on the level interval.
Every entry point solves the slice profile once
(:func:`~slicegap.levelset.slice_profile`) and takes all of its level
intervals from it.

Every sampler draws its uniforms first, in one block from the open
interval (0, 1), and then steps.  The half-steps are pure functions of a
state and a uniform: ``t_update`` and ``x_update_radius`` on arrays, and
one scalar pair that both chains run through one loop; each chain takes
its level intervals from its own ladder of solved levels
(``levelset._ladder``), whose rungs bracket the levels it visits.  The
one-step maps are the two vector half-steps composed.  The set draw
broadcasts its levels against its uniforms and ``t_step_levels`` takes
numpy's ``size``; both solve level intervals only on the levels given, so
many draws from one level cost one root solve.  The two stationary
oracles share one grid inverse CDF, and every redraw loop is capped.
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
    _ladder,
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


def _open_uniforms(rng: np.random.Generator, size) -> np.ndarray:
    """Every uniform the samplers use: ``rng.random(size)`` with exact zeros
    redrawn, so each lies in the open interval (0, 1)."""
    u = np.asarray(rng.random(size))
    for _ in range(_MAX_REDRAWS):
        zero = u == 0.0
        if not np.any(zero):
            return u
        u[zero] = rng.random(int(zero.sum()))
    raise DomainError(f"random stream returned 0.0 {_MAX_REDRAWS} times in a row")


def _open_unit(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise DomainError("u must lie strictly inside (0, 1)")
    return u


def _broadcast_shape(*shapes) -> tuple:
    """Numpy's broadcast of ``shapes``; a DomainError if there is none."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise DomainError(f"shapes {shapes} do not broadcast") from None


def t_update(log_h_x, u):
    """Log level of a uniform draw on (0, h(x)): ``log h(x) + log u``."""
    out = np.asarray(log_h_x, dtype=float) + np.log(_open_unit(u))
    if np.ndim(u) == 0 and np.ndim(log_h_x) == 0:
        return float(out)
    return out


def x_update_radius(prof: SliceProfile, log_t, u):
    """Inverse-CDF draw of the radial density ``r^{d-1-alpha}`` on the level.

    For PSS (``alpha = d-1``) this is uniform on the interval; otherwise the
    power-law inverse CDF is evaluated in log domain so that large
    dimensions never overflow.  ``log_t`` and ``u`` broadcast against each
    other by numpy rules, and the level intervals are solved only on the
    elements of ``log_t``: a scalar level with an array of ``N`` uniforms
    costs one root solve.  The result has the broadcast shape; two scalars
    give a float.  ``u`` must lie strictly inside (0, 1).  A draw that
    rounds up to a finite cutoff ``kappa`` (``r_hi = kappa``, ``u`` next
    to 1) is the largest float below it, inside the support.
    """
    u = _open_unit(u)
    log_t = np.asarray(log_t, dtype=float)
    _broadcast_shape(log_t.shape, u.shape)  # fail before the solve, not after
    r_lo, r_hi = (r.reshape(log_t.shape) for r in level_bounds(prof, log_t))
    out = np.minimum(_inverse_cdf_radius_vec(r_lo, r_hi, u, prof.target.dim - prof.alpha),
                     math.nextafter(prof.target.kappa, 0.0))
    if out.ndim == 0:
        return float(out)
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


def _half_steps(target: RadialTarget, fac: RadialFactorization):
    """``(level, radius, log_sup)``: the scalar half-steps ``level(r, u)``,
    the log level ``log h(r) + log u``, and ``radius(log_t, u)``, the
    inverse-CDF radius at ``u`` on the level set, as in ``t_update`` and
    ``x_update_radius``."""
    prof = slice_profile(target, fac)
    phi = target.phi
    alpha = fac.alpha
    beta = target.dim - alpha
    kappa = target.kappa
    r_max = math.nextafter(kappa, 0.0)  # as in x_update_radius

    def level(r: float, u: float) -> float:
        return alpha * math.log(r) - phi(r) + math.log(u)

    interval = _ladder(prof)

    def radius(log_t: float, u: float) -> float:
        r_lo, r_hi = interval(log_t)
        r = _inverse_cdf_radius(r_lo, r_hi, u, beta)
        return r if r < kappa else r_max

    return level, radius, prof.log_sup


def _alternate(first, second, x0: float, n: int,
               rng: np.random.Generator) -> np.ndarray:
    """The ``n + 1`` states of ``x -> second(first(x, u), v)`` from ``x0``;
    the ``2n`` uniforms are drawn in one block, in the order used."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    uniforms = iter(_open_uniforms(rng, 2 * n).tolist())
    values = np.empty(n + 1)
    x = values[0] = x0
    for i, u, v in zip(range(1, n + 1), uniforms, uniforms):
        x = values[i] = second(first(x, u), v)
    return values


def _chain_meta(chain: str, target: RadialTarget, fac: RadialFactorization,
                n: int, **extra) -> dict:
    return {"chain": chain, "target": target.tag, "alpha": fac.alpha,
            "d": target.dim, "n": n, **extra}


def run_x_chain(target: RadialTarget, fac: RadialFactorization,
                n: int, init_radius: float, seed: int) -> Trace:
    """Alternate level and set updates for ``n`` steps; length-(n+1) trace.

    Records the radius ``||x||``.
    """
    level, radius, _ = _half_steps(target, fac)
    if not (0.0 < init_radius < target.kappa):
        raise DomainError(f"init_radius={init_radius} outside (0, kappa)")
    values = _alternate(level, radius, float(init_radius), n, make_rng(seed, 0))
    meta = _chain_meta("x", target, fac, n, init_radius=init_radius)
    return Trace(values=values, seed=seed, meta=meta)


def run_t_chain(target: RadialTarget, fac: RadialFactorization,
                n: int, init_log_t: float, seed: int) -> Trace:
    """Auxiliary level chain: set update then level update; records log t."""
    level, radius, log_sup = _half_steps(target, fac)
    if not init_log_t < log_sup:
        raise DomainError("init_log_t is not inside the support of the level chain")
    values = _alternate(radius, level, float(init_log_t), n, make_rng(seed, 0))
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
    log_t = t_update(log_h(target, fac, radii), _open_uniforms(rng, radii.shape))
    return x_update_radius(prof, log_t, _open_uniforms(rng, radii.shape))


def t_step_levels(target: RadialTarget, fac: RadialFactorization,
                  log_t: np.ndarray, rng: np.random.Generator,
                  size=None) -> np.ndarray:
    """Independent auxiliary-chain steps from the levels ``log_t``.

    ``size`` is the output shape, as in numpy's samplers, and ``log_t``
    must broadcast to it; by default there is one step per element of
    ``log_t``.  ``N`` steps from one level ``s0`` are
    ``t_step_levels(target, fac, s0, rng, size=N)``, which solves that
    level's interval once.
    """
    return _t_step_levels(slice_profile(target, fac), log_t, rng, size)


def _t_step_levels(prof: SliceProfile, log_t, rng: np.random.Generator,
                   size=None) -> np.ndarray:
    """:func:`t_step_levels` on a solved slice profile."""
    log_t = np.asarray(log_t, dtype=float)
    shape = log_t.shape if size is None else _broadcast_shape(size)
    if _broadcast_shape(log_t.shape, shape) != shape:
        raise DomainError(f"log_t of shape {log_t.shape} does not broadcast "
                          f"to size {shape}")
    r = x_update_radius(prof, log_t, _open_uniforms(rng, shape))
    fac = RadialFactorization(prof.alpha)
    return t_update(log_h(prof.target, fac, r), _open_uniforms(rng, shape))


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
        return np.interp(_open_uniforms(rng, size), self.cdf, self.grid)


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
