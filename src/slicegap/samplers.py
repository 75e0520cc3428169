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
one-step maps are the two vector half-steps composed, one step per
element of their radii or levels.  The set draw broadcasts its levels
against its uniforms and solves level intervals only on the levels given,
so many draws from one level cost one root solve.  The fraction of steps
from one level that land below it is counted in blocks of steps from the
same uniforms, so beyond the uniforms its memory does not grow with the
number of steps.  The two stationary oracles share one grid inverse CDF,
the level oracle finds its mass by the certificate grid's window search,
and every redraw loop is capped.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, check_number
from .kernel import _mass_windows
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
# and the level law's mass left beyond each open end of the level grid.
_ORACLE_CELLS = 2**14
_RADIAL_TAIL_DEPTH = 80.0
_LEVEL_TAIL_MASS = 1e-15
# Steps taken at once when one-step transitions are counted, not kept.
_STEP_BLOCK = 1 << 16


def make_rng(base_seed: int, chain_index: int = 0) -> np.random.Generator:
    """Independent stream for chain ``chain_index`` (an integer >= 0) of an
    experiment seeded by the integer ``base_seed``."""
    base_seed = check_number("base_seed", base_seed, "an integer", integer=True)
    chain_index = check_number("chain_index", chain_index, "a nonnegative integer",
                               lambda v: v >= 0, integer=True)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed & (2**64 - 1), spawn_key=(chain_index,))
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
    if not np.all((0.0 < u) & (u < 1.0)):
        raise DomainError("u must lie strictly inside (0, 1)")
    return u


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
    try:  # fail before the solve, not after
        np.broadcast_shapes(log_t.shape, u.shape)
    except ValueError:
        raise DomainError(f"shapes {log_t.shape} and {u.shape} do not broadcast") from None
    r_lo, r_hi = (r.reshape(log_t.shape) for r in level_bounds(prof, log_t))
    out = _radius_in(prof, r_lo, r_hi, u)
    if out.ndim == 0:
        return float(out)
    return out


def _radius_in(prof: SliceProfile, r_lo, r_hi, u) -> np.ndarray:
    """:func:`x_update_radius` on solved level intervals ``(r_lo, r_hi)``:
    the inverse-CDF radius at ``u``, kept below a finite cutoff."""
    return np.minimum(_inverse_cdf_radius_vec(r_lo, r_hi, u, prof.target.dim - prof.alpha),
                      math.nextafter(prof.target.kappa, 0.0))


def _inverse_cdf_radius(r_lo: float, r_hi: float, u: float, beta: float) -> float:
    if beta == 1.0:
        return r_lo + u * (r_hi - r_lo)
    if r_lo <= 0.0:
        q = 0.0
    else:
        q = math.exp(beta * (math.log(r_lo) - math.log(r_hi)))
    return r_hi * math.exp(math.log(q + u * (1.0 - q)) / beta)


def _inverse_cdf_radius_vec(r_lo, r_hi, u, beta: float) -> np.ndarray:
    if beta == 1.0:
        return r_lo + u * (r_hi - r_lo)
    q = np.zeros_like(r_hi)
    pos = r_lo > 0.0
    q[pos] = np.exp(beta * (np.log(r_lo[pos]) - np.log(r_hi[pos])))
    return r_hi * np.exp(np.log(q + u * (1.0 - q)) / beta)


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
    uniforms = iter(_open_uniforms(rng, 2 * n).tolist())
    values = np.empty(n + 1)
    x = values[0] = x0
    for i, u, v in zip(range(1, n + 1), uniforms, uniforms):
        x = values[i] = second(first(x, u), v)
    return values


def run_x_chain(target: RadialTarget, fac: RadialFactorization,
                n: int, init_radius: float, seed: int) -> np.ndarray:
    """Alternate level and set updates for ``n`` steps from ``init_radius``.

    Returns the ``(n + 1,)`` array of radii ``||x||``, the first being
    ``init_radius``.  ``n`` and ``seed`` are integers, ``n >= 0``.
    """
    check_number("init_radius", init_radius, f"a radius in (0, {target.kappa})",
                 lambda r: 0 < r < target.kappa)
    check_number("n", n, "a nonnegative integer", lambda v: v >= 0, integer=True)
    check_number("seed", seed, "an integer", integer=True)
    level, radius, _ = _half_steps(target, fac)
    return _alternate(level, radius, float(init_radius), n, make_rng(seed, 0))


def run_t_chain(target: RadialTarget, fac: RadialFactorization,
                n: int, init_log_t: float, seed: int) -> np.ndarray:
    """Auxiliary level chain: set update then level update, for ``n`` steps.

    Returns the ``(n + 1,)`` array of log levels ``log t``, the first being
    ``init_log_t``, a finite level below the profile supremum; ``n`` and
    ``seed`` are integers, ``n >= 0``.
    """
    check_number("init_log_t", init_log_t, "a finite level", math.isfinite)
    check_number("n", n, "a nonnegative integer", lambda v: v >= 0, integer=True)
    check_number("seed", seed, "an integer", integer=True)
    level, radius, log_sup = _half_steps(target, fac)
    check_number("init_log_t", init_log_t, f"below the profile supremum {log_sup}",
                 lambda v: v < log_sup)
    return _alternate(radius, level, float(init_log_t), n, make_rng(seed, 0))


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
                  log_t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One independent auxiliary-chain step from each of the levels ``log_t``.

    ``N`` steps from one level ``s0`` are
    ``t_step_levels(target, fac, np.full(N, s0), rng)``; ``level_bounds``
    solves that level's interval once per chunk of 8192 levels.
    """
    prof = slice_profile(target, fac)
    log_t = np.asarray(log_t, dtype=float)
    r = x_update_radius(prof, log_t, _open_uniforms(rng, log_t.shape))
    return t_update(log_h(target, fac, r), _open_uniforms(rng, log_t.shape))


def _fraction_stepped_below(prof: SliceProfile, s0: float, rng: np.random.Generator,
                            n: int) -> float:
    """``np.mean(t_step_levels(target, fac, np.full(n, s0), rng) < s0)`` on
    the profile's target and factorization, bit for bit and from the same
    uniforms, in bounded memory: the level's interval is solved once and the
    ``n`` steps are taken and counted in blocks of ``_STEP_BLOCK``, so no
    temporary but the uniforms holds ``n`` values."""
    u_set = _open_uniforms(rng, n)
    u_level = _open_uniforms(rng, n)
    r_lo, r_hi = level_bounds(prof, s0)
    fac = RadialFactorization(prof.alpha)
    below = 0
    for start in range(0, n, _STEP_BLOCK):
        part = slice(start, start + _STEP_BLOCK)
        r = _radius_in(prof, r_lo, r_hi, u_set[part])
        below += np.count_nonzero(t_update(log_h(prof.target, fac, r), u_level[part]) < s0)
    return below / n


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
        logpdf[pos] = (target.dim - 1) * np.log(grid[pos]) - target.phi(grid[pos])
        super().__init__(grid, logpdf)


class PiTildeSampler(_GridInverseCdf):
    """I.i.d. log levels from the stationary law of the auxiliary chain.

    The stationary density in ``s = log t`` is proportional to
    ``ell(e^s) e^s``.  Its mass lies in the first window of
    ``kernel._mass_windows``, the search that ``build_tgrid`` truncates in.
    The window is cut where ``_LEVEL_TAIL_MASS`` of its mass lies below,
    and above too when the support supremum is infinite; a finite
    supremum is the upper end.  Sampling is grid inverse CDF with 2^14
    cells over that span.  Raises :class:`DomainError` where no window
    holds the mass.
    """

    def __init__(self, ell: LevelSetFunction):
        s_sup = ell.log_support_sup
        grid, cum = next(_mass_windows(ell))
        tail = _LEVEL_TAIL_MASS * cum[-1]
        s_lo = grid[np.searchsorted(cum, tail, side="right")]
        s_hi = s_sup if math.isfinite(s_sup) else grid[np.searchsorted(cum, cum[-1] - tail) + 1]
        grid = np.linspace(s_lo, s_hi, _ORACLE_CELLS + 1)
        super().__init__(grid, ell.log(grid) + grid)
