"""Discretization of the auxiliary level-chain kernel and gap certification.

The level chain depends on the target only through the generalized
level-set function ``ell``, and this module sees nothing else: it imports
no target code and takes a :class:`LevelSetFunction`.  The kernel is

    P(t, B) = (1/ell(t)) * int_t^inf  lambda(B cap (0,s)) / s  d(-ell)(s),

a Lebesgue-Stieltjes integral against the decreasing ``ell``.  Writing
``G(a) = int_a^inf s^{-1} d(-ell)(s)``, the stationary flux density of the
chain is ``G(max(t, u))`` -- symmetric in (t, u) -- so the discrete kernel
is a symmetric flux matrix over grid cells, row normalized.  This keeps
detailed balance and stationarity of the cell weights exact up to
rounding, while each entry still approximates ``P(node_i, cell_j)`` of the
formula above.  ``d(-ell)`` is realized as first differences of ``ell`` on
a refinement grid, so only evaluations of ``ell`` are ever needed.

The flux matrix is semiseparable: for cells ``i < j`` its entry is
``len_i * A_j`` (the length of cell i times the integral of G over cell
j), so every off-diagonal block has rank one.  A :class:`DiscreteKernel`
stores only the generators ``(len_cell, A, diag)`` and applies the flux to
a vector in O(n) with two cumulative sums; the dense matrices are built
only when asked for.  The spectral gap comes from Lanczos iteration with
full reorthogonalization, in numpy, on the symmetrized kernel with its
known top eigenpair ``(1, sqrt(weights))`` projected out, so a certificate
at n cells costs O(n) work per operator application and O(n k) memory
and work per Lanczos step k.

Every value of ``ell`` costs two root solves, so a certificate evaluates
each level once.  One search, ``_mass_windows``, locates the mass of the
level law ``ell(e^s) e^s`` in one 4096-point window per doubling of its
depth: ``build_tgrid`` truncates its grid there, and
``samplers.PiTildeSampler`` lays its oracle grid over the first window.
``certify_gap`` builds the 2n grid, takes every other boundary of it as
the n grid, and assembles both kernels from one evaluation of ``ell`` on
the 2n grid's refinement, whose every other point refines the n grid.
A kernel's cell sums are the row sums of one ``(n, refine)`` array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (DegenerateSupportError, DomainError, InvalidLevelSetError,
                     NoConvergenceError, check_number)
from .levelset import LevelSetFunction

__all__ = [
    "TGrid",
    "DiscreteKernel",
    "GapEstimate",
    "build_tgrid",
    "discretize_pt",
    "spectral_gap",
    "certify_gap",
    "duality_gap_compare",
    "DualityReport",
    "transition_cdf",
]

# certify_gap: largest n-vs-2n gap difference of a converged certificate.
_REFINEMENT_TOL = 0.005
# Log-uniform subintervals per grid cell on which ell is evaluated.
_REFINE = 16
# spectral_gap: most Lanczos steps before NoConvergenceError.
_LANCZOS_MAX_STEPS = 500
# Lanczos steps between convergence checks; a check is a dense eigh of the
# tridiagonal matrix, which costs more than a step once it is large.
_LANCZOS_CHECK_EVERY = 8
# ARPACK's tol=0 stopping rule: unit roundoff, and its floor eps^(2/3).
_EPS = np.finfo(float).eps / 2
_EPS23 = _EPS ** (2.0 / 3.0)


@dataclass(frozen=True)
class TGrid:
    """Log-level grid: n+1 increasing boundaries."""

    boundaries: np.ndarray  # log-t values, strictly increasing
    truncation_mass: float = 0.0

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 1 or b.size < 2 or np.any(np.diff(b) <= 0):
            raise DomainError("grid boundaries must be strictly increasing, size >= 2")
        if not np.all(np.isfinite(b)):
            raise DomainError("grid boundaries must be finite")
        object.__setattr__(self, "boundaries", b)

    @property
    def n(self) -> int:
        return self.boundaries.size - 1


def _mass_windows(ell: LevelSetFunction):
    """The 4096-point windows of s that hold the mass of the level law
    ``ell(e^s) e^s``, as the grid and the cumulative trapezoid sums ``cum``
    of the law over its maximum (``cum[j]`` is proportional to the mass
    below ``grid[j + 1]``).

    For depths 128, ..., 131072 a window is ``[s_sup - depth, s_sup]`` below
    a finite support supremum ``s_sup``, else ``[-depth, depth]``.  It is
    yielded once its lower half, or each outer quarter of ``[-depth,
    depth]``, holds less than 1e-12 of its mass.  The log of the law rises
    by at most 1 per unit of s, as ``ell`` does not increase, so a step of
    depth/4095 resolves its tails.  Raises :class:`DomainError` after the
    deepest window.
    """
    s_sup = ell.log_support_sup
    bounded = math.isfinite(s_sup)
    for depth in (2.0**j for j in range(7, 18)):
        lo, hi = (s_sup - depth, s_sup) if bounded else (-depth, depth)
        grid = np.linspace(lo, hi, 1 << 12)
        lm = ell.log(grid) + grid
        finite = np.isfinite(lm)
        vals = np.zeros(grid.shape)
        if np.any(finite):
            vals[finite] = np.exp(lm[finite] - np.max(lm[finite]))
        cum = np.cumsum(vals[1:] + vals[:-1])
        q = grid.size // 2 if bounded else grid.size // 4  # a side's outer half
        outer = cum[q - 1] if bounded else max(cum[q - 1], cum[-1] - cum[-q - 1])
        if outer < 1e-12 * cum[-1]:
            yield grid, cum
    raise DomainError("stationary mass does not concentrate within a depth "
                      "of 131072 in log level")


def build_tgrid(ell: LevelSetFunction, n: int = 2048,
                mass_tol: float = 1e-8) -> TGrid:
    """Log-spaced grid from a mass-truncated lower level up to the support sup.

    The lower boundary is the highest point of the first window of
    ``_mass_windows`` with at most ``mass_tol`` (in (0, 1)) of its mass
    below, or of the next window where one step holds more, so the
    reported truncation mass never exceeds ``mass_tol``.  The supremum must
    be finite; ``n`` must be a positive integer.
    """
    check_number("grid size", n, "a positive integer", lambda v: v >= 1, integer=True)
    check_number("mass_tol", mass_tol, "a number in (0, 1)", lambda v: 0 < v < 1)
    s_sup = ell.log_support_sup
    if not math.isfinite(s_sup):
        raise DomainError("grid construction requires a finite support supremum")
    for grid, cum in _mass_windows(ell):
        k = int(np.searchsorted(cum, mass_tol * cum[-1], side="right"))
        if k > 0:
            return TGrid(boundaries=np.linspace(grid[k], s_sup, n + 1),
                         truncation_mass=float(cum[k - 1] / cum[-1]))
        # one window step holds more than mass_tol: read the next, deeper window


def _flux_matvec(len_cell: np.ndarray, A: np.ndarray, diag: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """``F @ x`` for ``F_ij = len_i A_j`` (i < j), symmetric, diagonal ``diag``."""
    above = np.zeros(x.shape)     # sum over j > i of A_j x_j
    above[:-1] = np.cumsum((A * x)[:0:-1])[::-1]
    below = np.zeros(x.shape)     # sum over j < i of len_j x_j
    below[1:] = np.cumsum((len_cell * x)[:-1])
    return len_cell * above + A * below + diag * x


@dataclass(frozen=True)
class DiscreteKernel:
    """Row-stochastic discretization of the level-chain kernel.

    Held as the generators of its symmetric flux matrix ``F``: for
    ``i < j``, ``F_ij = F_ji = len_cell[i] * A[j]``, and ``F_ii = diag[i]``.
    ``F`` is scaled to unit total mass, so ``F @ 1 = weights`` and the
    kernel is ``F_ij / weights[i]``.
    """

    len_cell: np.ndarray         # cell lengths in scaled level (top level = 1)
    A: np.ndarray                # integral of G over each cell, scaled
    diag: np.ndarray             # diagonal of the flux matrix, scaled
    weights: np.ndarray          # stationary cell probabilities
    grid: TGrid

    @property
    def n(self) -> int:
        return self.weights.size

    def flux_matvec(self, x: np.ndarray) -> np.ndarray:
        """``flux @ x`` in O(n), from two cumulative sums."""
        return _flux_matvec(self.len_cell, self.A, self.diag, np.asarray(x, dtype=float))

    @property
    def flux(self) -> np.ndarray:
        """Dense symmetric flux matrix, n x n, built on every access."""
        F = np.triu(np.outer(self.len_cell, self.A), k=1)
        F = F + F.T
        np.fill_diagonal(F, self.diag)
        return F

    @property
    def matrix(self) -> np.ndarray:
        """Dense row-stochastic kernel, n x n, built on every access."""
        return self.flux / self.weights[:, None]


def _refinement(b: np.ndarray, refine: int) -> np.ndarray:
    """Each cell of the boundaries ``b`` split into ``refine`` equal steps
    (cell by cell, the same values np.linspace gives)."""
    step = np.diff(b) / refine
    return np.append((b[:-1, None] + np.arange(refine) * step[:, None]).ravel(), b[-1])


def _assemble(grid: TGrid, fine: np.ndarray, lv_log: np.ndarray) -> DiscreteKernel:
    """The kernel on ``grid`` from ``log ell`` at the refinement points
    ``fine``, an equal number per cell, which include the boundaries.

    A cell's sums run over its ``refine`` subintervals, one row of an
    ``(n, refine)`` array.  Cell 0 reaches down to level 0: the interval
    ``(0, tau_0)`` below the grid carries no Stieltjes mass, so G is its
    total there and its terms are added to cell 0 in closed form.
    """
    b = grid.boundaries
    n = grid.n
    refine = (fine.size - 1) // n
    top = np.max(lv_log[np.isfinite(lv_log)])
    lv = np.where(np.isfinite(lv_log), np.exp(lv_log - top), 0.0)
    drop = lv[:-1] - lv[1:]             # d(-ell) per subinterval
    # the largest value of lv is exp(top - top) = 1
    if np.any(drop < -1e-12):
        raise InvalidLevelSetError("level-set function increases on the refinement grid")

    tau = np.exp(fine - b[-1])          # scaled levels, top boundary = 1
    mu = np.sqrt(tau[:-1] * tau[1:])    # geometric midpoints
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.maximum(drop, 0.0) / mu
    rate[mu == 0.0] = 0.0
    above = np.cumsum(rate[::-1])[::-1]  # G at each subinterval's lower end
    g_mid = 0.5 * rate                   # G at subinterval midpoints
    g_mid[:-1] += above[1:]

    lengths = np.diff(tau)
    mids = 0.5 * (tau[:-1] + tau[1:])
    a_cell = np.exp(b[:-1] - b[-1])      # lower scaled level of each cell,
    a_cell[0] = 0.0                      # and cell 0 reaches level 0

    gl = (g_mid * lengths).reshape(n, refine)
    A = gl.sum(1)
    B = (gl * (mids.reshape(n, refine) - a_cell[:, None])).sum(1)
    len_cell = lengths.reshape(n, refine).sum(1)
    A[0] += above[0] * tau[0]
    B[0] += above[0] * (0.5 * tau[0]) * tau[0]
    len_cell[0] += tau[0]

    w = _flux_matvec(len_cell, A, 2.0 * B, np.ones(n))
    if np.any(w <= 0.0):
        raise DegenerateSupportError("a grid cell carries no flux")
    total = w.sum()
    return DiscreteKernel(len_cell=len_cell, A=A / total, diag=2.0 * B / total,
                          weights=w / total, grid=grid)


def discretize_pt(ell: LevelSetFunction, grid: TGrid) -> DiscreteKernel:
    """Assemble the discrete level-chain kernel from ``ell`` alone.

    Each grid cell is refined into 16 log-uniform subintervals; the
    Stieltjes measure is realized as differences of ``ell`` across the
    refinement and placed at geometric midpoints.  The lowest cell is
    extended to level 0 so that the kernel's image measure is not
    truncated.
    """
    fine = _refinement(grid.boundaries, _REFINE)
    return _assemble(grid, fine, ell.log(fine))


@dataclass(frozen=True)
class GapEstimate:
    """Spectral gap of a discretized kernel plus self-description.

    ``eig_residual`` is ``||S v - lambda2 v||_2`` of the returned Ritz pair
    and ``top_residual`` is ``||S sqrt(w) - sqrt(w)||_inf``, where ``S`` is
    the symmetrized kernel and ``w`` its weights.  ``eig_iterations`` is
    the number of Lanczos steps, one operator application each.  Only
    :func:`certify_gap` sets ``refinement_delta`` and ``converged``.
    """

    gap: float
    lambda2: float
    grid_size: int
    truncation_mass: float
    eig_residual: float
    top_residual: float
    eig_iterations: int
    refinement_delta: Optional[float] = None
    converged: Optional[bool] = None


def _lanczos_top(op, v0: np.ndarray, dim: int):
    """Largest eigenpair of the symmetric operator ``op`` on an invariant
    subspace of dimension ``dim`` that holds ``v0``, by Lanczos from ``v0``
    with full reorthogonalization.

    Every ``_LANCZOS_CHECK_EVERY`` steps, and at a breakdown, the top Ritz
    pair ``(theta, s)`` of the k-step tridiagonal matrix is tested against
    ARPACK's ``tol=0`` rule ``beta_k |s_k| <= eps max(eps^(2/3), |theta|)``.
    After ``dim`` steps the basis spans the subspace and the pair is exact.
    Returns ``(theta, ritz_vector, k)``.
    """
    m = min(_LANCZOS_MAX_STEPS, dim)
    # grown by doubling: a basis sized for the cap is 16 MiB at n = 4096,
    # numpy asks for huge pages on arrays of 4 MiB and more, and the rows
    # touched then raised a certifying process's peak RSS in 2 MiB steps
    basis = np.empty((min(m, 32), v0.size))
    alpha = np.empty(m)
    beta = np.empty(m)
    basis[0] = v0 / np.linalg.norm(v0)
    for j in range(m):
        w = op(basis[j])
        alpha[j] = basis[j] @ w
        w -= alpha[j] * basis[j]
        if j:
            w -= beta[j - 1] * basis[j - 1]
        q = basis[:j + 1]
        w -= (q @ w) @ q
        beta[j] = np.linalg.norm(w)
        k = j + 1
        # beta_k below eps^(5/3) passes the rule whatever s_k is
        if k % _LANCZOS_CHECK_EVERY == 0 or k == m or beta[j] <= _EPS * _EPS23:
            t = np.diag(alpha[:k]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, s = np.linalg.eigh(t)
            if k == dim or beta[j] * abs(s[-1, -1]) <= _EPS * max(_EPS23, abs(theta[-1])):
                return float(theta[-1]), s[:, -1] @ q, k
        if k < m:
            if k == len(basis):
                basis = np.concatenate([basis, np.empty((min(k, m - k), v0.size))])
            basis[k] = w / beta[j]
    raise NoConvergenceError(f"Lanczos did not converge in {m} steps")


def spectral_gap(kernel: DiscreteKernel) -> GapEstimate:
    """1 minus the second-largest eigenvalue of the symmetrized kernel.

    ``S = W^{-1/2} F W^{-1/2}`` has the top eigenpair ``(1, sqrt(w))`` if
    the weights ``w`` are the kernel's stationary law, and a residual of it
    above 1e-8 raises :class:`DomainError`.  Lanczos runs on ``S`` with that
    pair projected out, from a fixed start vector, so the result is a
    deterministic function of the kernel.  It raises
    :class:`NoConvergenceError` after ``_LANCZOS_MAX_STEPS`` steps.
    """
    sq = np.sqrt(kernel.weights)
    n = sq.size
    if n < 2:
        raise DomainError(f"a spectral gap needs at least 2 grid cells, got {n}")

    def sym(x):
        return kernel.flux_matvec(x / sq) / sq

    def deflated(x):
        x = x - sq * (sq @ x)
        y = sym(x)
        return y - sq * (sq @ y)

    top_residual = float(np.max(np.abs(sym(sq) - sq)))
    if not top_residual <= 1e-8:
        raise DomainError(f"the weights are not the kernel's stationary law: "
                          f"(1, sqrt(weights)) has residual {top_residual}")
    v0 = sq * np.linspace(-1.0, 1.0, n)
    lam2, v, steps = _lanczos_top(deflated, v0 - sq * (sq @ v0), n - 1)
    return GapEstimate(gap=1.0 - lam2, lambda2=lam2, grid_size=kernel.n,
                       truncation_mass=kernel.grid.truncation_mass,
                       eig_residual=float(np.linalg.norm(sym(v) - lam2 * v)),
                       top_residual=top_residual, eig_iterations=steps)


def certify_gap(ell: LevelSetFunction, n: int = 2048,
                mass_tol: float = 1e-8) -> GapEstimate:
    """Gap at grid size n with a grid-doubling convergence diagnostic.

    The truncation search runs once, for the 2n grid; the n grid is every
    other boundary of it.  ``ell`` is evaluated once, on the 2n grid's
    16-fold refinement, and the n kernel is assembled from every other
    one of those values, which refine the n grid 16-fold.  ``n`` is an integer >= 2.
    """
    check_number("grid size", n, "an integer >= 2", lambda v: v >= 2, integer=True)
    grid2 = build_tgrid(ell, 2 * n, mass_tol)
    grid = TGrid(grid2.boundaries[::2], grid2.truncation_mass)
    fine = _refinement(grid2.boundaries, _REFINE)
    lv_log = ell.log(fine)
    est = spectral_gap(_assemble(grid, fine[::2], lv_log[::2]))
    est2 = spectral_gap(_assemble(grid2, fine, lv_log))
    delta = abs(est.gap - est2.gap)
    return replace(est, refinement_delta=delta, converged=delta <= _REFINEMENT_TOL)


@dataclass(frozen=True)
class DualityReport:
    """Pointwise level-set agreement and gap agreement of two samplers."""

    max_ell_abs_diff: float
    gap_a: float
    gap_b: float

    @property
    def gap_diff(self) -> float:
        return abs(self.gap_a - self.gap_b)


def duality_gap_compare(ell_a: LevelSetFunction, ell_b: LevelSetFunction,
                        n: int = 1024) -> DualityReport:
    """Compare two level-set functions and the gaps of their level chains.

    ``max_ell_abs_diff`` is taken over 50 evenly spaced interior points of
    ``ell_a``'s grid of ``n >= 2`` cells (``build_tgrid``'s default
    truncation), on which both gaps are computed.
    """
    check_number("grid size", n, "an integer >= 2", lambda v: v >= 2, integer=True)
    grid = build_tgrid(ell_a, n)
    probes = np.linspace(grid.boundaries[0], grid.boundaries[-1], 52)[1:-1]
    va = ell_a.eval(probes)
    vb = ell_b.eval(probes)
    abs_diff = float(np.max(np.abs(va - vb)))
    gap_a = spectral_gap(discretize_pt(ell_a, grid)).gap
    gap_b = spectral_gap(discretize_pt(ell_b, grid)).gap
    return DualityReport(max_ell_abs_diff=abs_diff, gap_a=gap_a, gap_b=gap_b)


def transition_cdf(ell: LevelSetFunction, log_t: float, log_b: float) -> float:
    """P(next level < b | current level t), by quadrature of the kernel.

    Evaluates ``(1/ell(t)) int_t^sup min(b, s)/s d(-ell)(s)`` with the
    Stieltjes measure realized as differences of ``ell`` on a log-uniform
    refinement of (t, sup) into 2^16 subintervals.  ``log_t`` is finite and
    below sup; ``log_b`` may be infinite, not NaN.
    """
    s_sup = ell.log_support_sup
    check_number("log_t", log_t, f"a finite level below the support supremum {s_sup}",
                 lambda v: -math.inf < v < s_sup)
    check_number("log_b", log_b, "a number that is not NaN", lambda v: not math.isnan(v))
    s = np.linspace(log_t, s_sup, (1 << 16) + 1)
    lv_log = ell.log(s)
    top = lv_log[0]
    lv = np.where(np.isfinite(lv_log), np.exp(lv_log - top), 0.0)
    delta = np.clip(lv[:-1] - lv[1:], 0.0, None)
    # work relative to the current level to avoid overflow
    mu = np.exp(0.5 * (s[:-1] + s[1:]) - log_t)
    bb = math.exp(log_b - log_t) if log_b - log_t < 700 else math.inf
    frac = np.minimum(bb, mu) / mu
    return float(np.sum(frac * delta) / lv[0])
