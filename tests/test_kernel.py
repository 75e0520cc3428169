"""Tests for the discretized level-chain kernel and gap certification."""

import ast
import math
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import slicegap.kernel as kernelmod
from slicegap.errors import (DegenerateSupportError, DomainError, InvalidLevelSetError,
                             NoConvergenceError)
from slicegap.kernel import (
    DiscreteKernel,
    GapEstimate,
    TGrid,
    build_tgrid,
    certify_gap,
    discretize_pt,
    duality_gap_compare,
    spectral_gap,
    transition_cdf,
)
from slicegap.levelset import LevelSetFunction, level_set_function
from slicegap.samplers import make_rng, t_step_levels
from slicegap.targets import (
    RadialFactorization,
    RadialTarget,
    exponential,
    gaussian,
    radial_weighted_exponential,
    surface_area,
    volcano,
)

PSS = RadialFactorization.pss
USS = RadialFactorization.uss


def linear_ell():
    """ell(t) = 1 - t on (0, 1): the hand-computable reference."""
    def log_eval(s):
        s = np.asarray(s, dtype=float)
        t = np.exp(np.minimum(s, 0.0))
        with np.errstate(divide="ignore"):
            out = np.where(s < 0.0, np.log1p(-t), -np.inf)
        return out
    return LevelSetFunction(log_eval=log_eval, log_support_sup=0.0)


def logarithmic_ell():
    """ell(t) = sigma_2 log(1/t) on (0, 1), from the §3.1-style example."""
    sigma = surface_area(3)
    def log_eval(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(s < 0.0, math.log(sigma) + np.log(-s), -np.inf)
        return out
    return LevelSetFunction(log_eval=log_eval, log_support_sup=0.0)


def stationary_weights(ell: LevelSetFunction, grid: TGrid) -> np.ndarray:
    """Cell masses of the stationary level density, normalized to sum 1.

    The independent reference for the weights of :func:`discretize_pt`:
    composite Simpson with 8 subintervals per cell applied to
    ``ell(e^s) e^s`` in the log-level variable.
    """
    b = grid.boundaries
    n = grid.n
    sub = 8
    s = np.linspace(0.0, 1.0, sub + 1)
    pts = b[:-1, None] + np.diff(b)[:, None] * s[None, :]  # (n, sub+1)
    lm = ell.log(pts.ravel()).reshape(n, sub + 1) + pts
    finite = np.isfinite(lm)
    if not np.any(finite):
        raise DegenerateSupportError("level-set function vanishes on the whole grid")
    top = np.max(lm[finite])
    vals = np.zeros(lm.shape)
    vals[finite] = np.exp(lm[finite] - top)
    w_simpson = np.array([1, 4, 2, 4, 2, 4, 2, 4, 1], dtype=float)
    h = np.diff(b) / sub
    masses = (vals @ w_simpson) * h / 3.0
    total = masses.sum()
    if total <= 0.0:
        raise DegenerateSupportError("all stationary cell masses are zero")
    return masses / total


def counting(ell: LevelSetFunction):
    """``ell`` recording the number of levels of each evaluation, and the
    list it records into."""
    sizes = []

    def log_eval(lt):
        sizes.append(lt.size)
        return ell.log_eval(lt)
    return replace(ell, log_eval=log_eval), sizes


class TestTGrid:
    def test_boundaries_validation(self):
        with pytest.raises(DomainError):
            TGrid(boundaries=np.array([0.0]))
        with pytest.raises(DomainError):
            TGrid(boundaries=np.array([0.0, -1.0]))
        for b in ([0.0, math.nan, 1.0], [-math.inf, 0.0], [0.0, math.inf]):
            with pytest.raises(DomainError, match="finite"):
                TGrid(boundaries=np.array(b))

    def test_build_truncation_mass(self):
        ell = level_set_function(exponential(5), PSS(5))
        grid = build_tgrid(ell, 256, mass_tol=1e-8)
        assert grid.n == 256
        assert grid.boundaries[-1] == pytest.approx(ell.log_support_sup)
        assert grid.truncation_mass <= 1.5e-8

    @pytest.mark.parametrize("mass_tol", [1e-8, 1e-10])
    def test_truncation_mass_within_tolerance(self, mass_tol):
        for target, fac in [(exponential(5), PSS(5)), (exponential(30), USS()),
                            (volcano(10, 2.0), PSS(10))]:
            ell = level_set_function(target, fac)
            grid = build_tgrid(ell, 64, mass_tol=mass_tol)
            assert 0.0 <= grid.truncation_mass <= mass_tol
            assert grid.boundaries[-1] == ell.log_support_sup

    def test_tiny_mass_tol_widens_window(self):
        # one step of the first, 128-deep window holds more than 1e-60 of
        # the mass, so the search has to widen the window
        ell = level_set_function(exponential(5), PSS(5))
        grid = build_tgrid(ell, 64, mass_tol=1e-60)
        assert 0.0 <= grid.truncation_mass <= 1e-60
        assert grid.boundaries[0] < ell.log_support_sup - 128.0

    @pytest.mark.parametrize("mass_tol, windows", [(1e-8, 1), (1e-60, 2)])
    def test_one_ell_call_per_window(self, mass_tol, windows):
        # exponential PSS d=5: the 128-deep window holds the mass; one step
        # of it holds more than 1e-60, so that search widens once
        ell = level_set_function(exponential(5), PSS(5))
        counted, sizes = counting(ell)
        build_tgrid(counted, 64, mass_tol=mass_tol)
        assert sizes == [1 << 12] * windows

    @pytest.mark.parametrize("mass_tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("target, fac", [
        (exponential(5), PSS(5)), (gaussian(3), PSS(3)), (volcano(10, 2.0), PSS(10)),
        (exponential(5), USS()), (gaussian(4), USS()), (volcano(3, 2.0), USS()),
        (exponential(30), USS()), (exponential(80), USS()),
    ], ids=["exp5-pss", "gauss3-pss", "volcano10-pss", "exp5-uss", "gauss4-uss",
            "volcano3-uss", "exp30-uss", "exp80-uss"])
    def test_truncation_against_fine_quadrature(self, target, fac, mass_tol):
        # mass below the lower boundary by a 2^17-point trapezoid rule over
        # twice the last window: at most mass_tol, and not needlessly deep
        ell = level_set_function(target, fac)
        counted, sizes = counting(ell)
        grid = build_tgrid(counted, 64, mass_tol=mass_tol)
        depth = 128.0 * 2 ** (len(sizes) - 1)
        s_sup, s_lo = ell.log_support_sup, grid.boundaries[0]
        s = np.linspace(s_sup - 2.0 * depth, s_sup, 1 << 17)
        lm = ell.log(s) + s
        vals = np.exp(lm - np.max(lm))
        cum = np.concatenate(([0.0], np.cumsum(vals[1:] + vals[:-1])))
        below = np.interp(s_lo, s, cum) / cum[-1]
        assert 0.5 * mass_tol <= below <= mass_tol

    @pytest.mark.parametrize("mass_tol", [0.0, -1.0, 1.0, 1.5, math.nan, True])
    def test_mass_tol_outside_unit_interval_rejected(self, mass_tol):
        # rejected before any level is evaluated
        ell = level_set_function(exponential(3), PSS(3))
        counted, sizes = counting(ell)
        with pytest.raises(DomainError, match="mass_tol"):
            build_tgrid(counted, 64, mass_tol=mass_tol)
        assert sizes == []

    def test_zero_mass_tol_certificate_rejected(self):
        ell = level_set_function(exponential(10), PSS(10))
        with pytest.raises(DomainError, match="mass_tol"):
            certify_gap(ell, n=64, mass_tol=0.0)

    def test_infinite_support_rejected(self):
        # USS on the radial-weighted profile has unbounded h, so no top level
        ell = level_set_function(radial_weighted_exponential(4), USS())
        with pytest.raises(DomainError):
            build_tgrid(ell, 64)

    def test_mass_that_never_concentrates_rejected(self):
        # ell(t) = 1/t: the level density ell(e^s) e^s is flat in s, so no
        # window up to depth 131072 holds its mass
        ell = LevelSetFunction(log_eval=lambda lt: -lt, log_support_sup=0.0)
        with pytest.raises(DomainError, match="does not concentrate"):
            build_tgrid(ell, 64)


class TestStationaryWeights:
    def test_weights_normalized(self):
        ell = level_set_function(exponential(3), PSS(3))
        grid = build_tgrid(ell, 128)
        w = stationary_weights(ell, grid)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_logarithmic_closed_form(self):
        # antiderivative of sigma_2 log(1/t) is sigma_2 t (1 + log(1/t))
        ell = logarithmic_ell()
        grid = build_tgrid(ell, 256)
        w = stationary_weights(ell, grid)
        t = np.exp(grid.boundaries)
        anti = t * (1.0 + np.log(1.0 / t))
        ref = np.diff(anti)
        ref = ref / ref.sum()
        mask = ref > 1e-13
        assert np.max(np.abs(w[mask] / ref[mask] - 1.0)) < 1e-8

    def test_cell_above_support_zero(self):
        ell = linear_ell()
        grid = TGrid(boundaries=np.log(np.array([0.2, 0.9, 1.8, 2.5])))
        w = stationary_weights(ell, grid)
        # the middle cell straddles the support edge and keeps some mass;
        # the top cell lies entirely above it
        assert w[1] > 0.0
        assert w[2] == 0.0


def _assemble_by_bincount(grid, fine, lv_log):
    """Reference for ``kernel._assemble``: the interval (0, tau_0) is
    prepended to cell 0 as one more subinterval, with no Stieltjes mass,
    and every cell sum is an ``np.bincount`` over a cell index.  Returns
    ``(len_cell, A, diag, weights)``."""
    b, n = grid.boundaries, grid.n
    refine = (fine.size - 1) // n
    top = np.max(lv_log[np.isfinite(lv_log)])
    lv = np.where(np.isfinite(lv_log), np.exp(lv_log - top), 0.0)
    tau = np.concatenate([[0.0], np.exp(fine - b[-1])])
    lv = np.concatenate([lv[:1], lv])
    delta = np.clip(lv[:-1] - lv[1:], 0.0, None)
    mu = np.sqrt(tau[:-1] * tau[1:])
    mu[0] = tau[1]
    rate = np.where(mu > 0.0, delta / np.where(mu > 0.0, mu, 1.0), 0.0)
    g_mid = np.concatenate([np.cumsum(rate[::-1])[::-1][1:], [0.0]]) + 0.5 * rate
    lengths = np.diff(tau)
    mids = 0.5 * (tau[:-1] + tau[1:])
    cell_of = np.concatenate([[0], np.repeat(np.arange(n), refine)])
    a_cell = np.concatenate([[0.0], np.exp(b[1:-1] - b[-1])])
    A = np.bincount(cell_of, weights=g_mid * lengths, minlength=n)
    B = np.bincount(cell_of, weights=g_mid * (mids - a_cell[cell_of]) * lengths, minlength=n)
    len_cell = np.bincount(cell_of, weights=lengths, minlength=n)
    w = kernelmod._flux_matvec(len_cell, A, 2.0 * B, np.ones(n))
    total = w.sum()
    return len_cell, A / total, 2.0 * B / total, w / total


class TestDiscretizePt:
    @pytest.mark.parametrize("refine", [16, 3])
    @pytest.mark.parametrize("target, fac, n", [
        (exponential(5), PSS(5), 300),
        (volcano(4, 2.0), USS(), 128),
    ], ids=["exponential-pss", "volcano-uss"])
    def test_assemble_matches_bincount(self, target, fac, n, refine):
        # cell sums by reshape, with (0, tau_0) added to cell 0 in closed
        # form; the prepended interval is longer than cell 0 itself, so a
        # cell 0 that stops at tau_0 is off by far more than rounding
        ell = level_set_function(target, fac)
        grid = build_tgrid(ell, n)
        fine = kernelmod._refinement(grid.boundaries, refine)
        lv_log = ell.log(fine)
        dk = kernelmod._assemble(grid, fine, lv_log)
        got = (dk.len_cell, dk.A, dk.diag, dk.weights)
        for g, w in zip(got, _assemble_by_bincount(grid, fine, lv_log)):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=0)

    def test_two_cell_hand_quadrature(self):
        # ell = 1 - t over cells (0, 1/2), (1/2, 1); closed forms from
        # F_ij = integral over the cells of log(1/max(t, u))
        grid = TGrid(boundaries=np.log(np.array([1e-9, 0.5, 1.0])))
        fine = kernelmod._refinement(grid.boundaries, 2048)
        dk = kernelmod._assemble(grid, fine, linear_ell().log(fine))
        m_aa = (0.25 * math.log(2.0) + 0.125) / 0.375
        m_ba = 0.5 * (0.5 - 0.5 * math.log(2.0)) / 0.125
        expected = np.array([[m_aa, 1.0 - m_aa], [m_ba, 1.0 - m_ba]])
        assert np.max(np.abs(dk.matrix - expected)) < 1e-5
        assert dk.weights[0] == pytest.approx(0.75, abs=1e-5)

    def test_rows_sum_to_one(self):
        ell = level_set_function(exponential(5), PSS(5))
        dk = discretize_pt(ell, build_tgrid(ell, 256))
        assert np.max(np.abs(dk.matrix.sum(axis=1) - 1.0)) < 1e-12

    def test_detailed_balance(self):
        ell = level_set_function(volcano(10, 2.0), PSS(10))
        dk = discretize_pt(ell, build_tgrid(ell, 256))
        w = dk.weights
        lhs = w[:, None] * dk.matrix
        rhs = w[None, :] * dk.matrix.T
        scale = np.maximum(lhs, rhs)
        assert np.max(np.abs(lhs - rhs) - 1e-6 * scale - 1e-12) <= 0.0

    def test_weight_stationarity(self):
        ell = level_set_function(exponential(10), PSS(10))
        dk = discretize_pt(ell, build_tgrid(ell, 256))
        resid = dk.weights @ dk.matrix - dk.weights
        assert np.max(np.abs(resid)) < 1e-8

    def test_quadrature_defect_small(self):
        ell = level_set_function(exponential(5), PSS(5))
        grid = build_tgrid(ell, 2048)
        dk = discretize_pt(ell, grid)
        # the lowest cell also absorbs the truncated (0, t_min) tail, which
        # the Simpson reference cannot see
        assert 0.5 * np.abs(dk.weights - stationary_weights(ell, grid)).sum() <= 1e-6

    def test_refinement_grid_matches_cellwise_linspace(self):
        ell = level_set_function(exponential(5), PSS(5))
        grid = build_tgrid(ell, 300)
        seen = []

        def recording(lt):
            seen.append(lt.copy())
            return ell.log_eval(lt)
        discretize_pt(replace(ell, log_eval=recording), grid)
        b = grid.boundaries
        cellwise = np.concatenate([np.linspace(b[i], b[i + 1], 17)[:-1]
                                   for i in range(300)] + [b[-1:]])
        assert len(seen) == 1  # one ell call per kernel
        assert np.array_equal(seen[0], cellwise)

    def test_matvec_matches_dense_flux(self):
        ell = level_set_function(exponential(5), PSS(5))
        dk = discretize_pt(ell, build_tgrid(ell, 512))
        x = np.random.default_rng(7).standard_normal(512)
        dense = dk.flux @ x
        err = np.linalg.norm(dk.flux_matvec(x) - dense) / np.linalg.norm(dense)
        assert err <= 1e-13
        assert np.max(np.abs(dk.flux_matvec(np.ones(512)) / dk.weights - 1.0)) < 1e-12

    def test_non_monotone_ell_rejected(self):
        def bumpy(s):
            s = np.asarray(s, dtype=float)
            return np.where(s < 0.0, -s + 0.5 * np.sin(8.0 * s), -np.inf)
        ell = LevelSetFunction(log_eval=bumpy, log_support_sup=0.0)
        grid = TGrid(boundaries=np.linspace(-5.0, -1e-6, 65))
        with pytest.raises(InvalidLevelSetError):
            discretize_pt(ell, grid)

    def test_cells_without_flux_rejected(self):
        # the top cell (1.8, 2.5) lies above the support (0, 1) of
        # ell = 1 - t, so no level chain moves through it
        grid = TGrid(boundaries=np.log(np.array([0.2, 0.9, 1.8, 2.5])))
        with pytest.raises(DegenerateSupportError, match="no flux"):
            discretize_pt(linear_ell(), grid)


class TestSpectralGap:
    def _kernel_from_generators(self, len_cell, A, diag):
        grid = TGrid(boundaries=np.linspace(-1, 0, diag.size + 1))
        dk = DiscreteKernel(len_cell=len_cell, A=A, diag=diag, weights=np.ones(diag.size),
                            grid=grid)
        return replace(dk, weights=dk.flux_matvec(np.ones(diag.size)))

    def test_identity_kernel_gap_zero(self):
        w = np.array([0.4, 0.35, 0.25])
        dk = self._kernel_from_generators(np.zeros(3), np.zeros(3), w)
        est = spectral_gap(dk)
        assert est.gap == pytest.approx(0.0, abs=1e-12)
        assert est.lambda2 == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_kernel_gap_one(self):
        w = np.array([0.5, 0.3, 0.2])
        dk = self._kernel_from_generators(w, w, w * w)
        est = spectral_gap(dk)
        assert est.gap == pytest.approx(1.0, abs=1e-12)

    def test_one_cell_kernel_rejected(self):
        # a one-cell kernel is the identity: it has no second eigenvalue
        ell = level_set_function(exponential(3), PSS(3))
        dk = discretize_pt(ell, build_tgrid(ell, 1))
        assert dk.n == 1 and dk.weights[0] == pytest.approx(1.0)
        with pytest.raises(DomainError, match="at least 2 grid cells, got 1"):
            spectral_gap(dk)

    @pytest.mark.parametrize("target,fac", [(exponential(5), PSS(5)),
                                            (volcano(10, 2.0), PSS(10)),
                                            (exponential(30), USS()),
                                            (exponential(80), USS())])
    def test_lanczos_matches_dense_eigh(self, target, fac):
        # USS at d = 80 has gap 1/81 and takes the most Lanczos steps
        ell = level_set_function(target, fac)
        dk = discretize_pt(ell, build_tgrid(ell, 256))
        sq = np.sqrt(dk.weights)
        lam = scipy.linalg.eigh(dk.flux / np.outer(sq, sq), eigvals_only=True,
                                subset_by_index=[254, 255])
        est = spectral_gap(dk)
        assert abs(est.lambda2 - lam[0]) <= 1e-12
        assert abs(est.gap - (1.0 - lam[0])) <= 1e-12
        assert est.eig_residual <= 1e-12 and est.top_residual <= 1e-12
        assert 0 < est.eig_iterations < kernelmod._LANCZOS_MAX_STEPS

    def test_two_cells_exhaust_the_space(self):
        # on 2 cells the deflated space is a line: one Lanczos step spans it,
        # and the negative second eigenvalue of P = [[1/4, 3/4], [1/2, 1/2]]
        # comes back, not the 0 of the projected-out direction
        dk = self._kernel_from_generators(np.ones(2), np.array([1.0, 0.3]),
                                          np.array([0.1, 0.3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # lambda2 is reported, not warned about
            est = spectral_gap(dk)
        assert est.lambda2 == pytest.approx(-0.25, abs=1e-12)
        assert est.eig_iterations == 1

    def test_non_stationary_weights_rejected(self):
        # (0.5, 0.5) is not the stationary law of this kernel: the deflation
        # would remove the wrong vector, and once a gap of 1.2 came back
        dk = DiscreteKernel(len_cell=np.ones(2), A=np.array([1.0, 0.3]),
                            diag=np.array([0.1, 0.3]), weights=np.array([0.5, 0.5]),
                            grid=TGrid(boundaries=np.linspace(-1, 0, 3)))
        with pytest.raises(DomainError, match="not the kernel's stationary law"):
            spectral_gap(dk)

    @pytest.mark.parametrize("health", ["eig_residual", "top_residual", "eig_iterations"])
    def test_health_fields_required(self, health):
        fields = dict(gap=0.5, lambda2=0.5, grid_size=2, truncation_mass=0.0,
                      eig_residual=0.0, top_residual=0.0, eig_iterations=1)
        del fields[health]
        with pytest.raises(TypeError, match=health):
            GapEstimate(**fields)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(kernelmod, "_LANCZOS_MAX_STEPS", 5)
        ell = level_set_function(exponential(30), USS())
        dk = discretize_pt(ell, build_tgrid(ell, 256))
        with pytest.raises(NoConvergenceError, match="5 steps"):
            spectral_gap(dk)

    def test_deterministic(self):
        ell = level_set_function(volcano(5, 2.0), PSS(5))
        dk = discretize_pt(ell, build_tgrid(ell, 1024))
        first, second = spectral_gap(dk), spectral_gap(dk)
        assert first == second

    def test_pss_exponential_d10(self):
        ell = level_set_function(exponential(10), PSS(10))
        est = spectral_gap(discretize_pt(ell, build_tgrid(ell, 2048)))
        assert est.gap >= 0.48
        assert est.gap == pytest.approx(0.658464, abs=2e-4)
        assert est.grid_size == 2048

    def test_psd_structure_witness(self):
        # A - sqrt(w) sqrt(w)^T should be positive semidefinite up to noise
        ell = level_set_function(exponential(5), PSS(5))
        dk = discretize_pt(ell, build_tgrid(ell, 256))
        sq = np.sqrt(dk.weights)
        A = dk.flux / np.outer(sq, sq)
        lam_min = np.linalg.eigvalsh(A - np.outer(sq, sq))[0]
        assert lam_min >= -1e-6

    def test_certify_refinement(self):
        ell = level_set_function(exponential(5), PSS(5))
        est = certify_gap(ell, n=512)
        assert est.converged and est.refinement_delta <= 0.005
        payload = asdict(est)
        for key in ("gap", "lambda2", "grid_size", "truncation_mass",
                    "refinement_delta", "eig_residual", "top_residual",
                    "eig_iterations"):
            assert key in payload

    def test_certify_searches_truncation_once(self, monkeypatch):
        ell = level_set_function(exponential(5), PSS(5))
        counted, sizes = counting(ell)
        grids = []
        solve = kernelmod.spectral_gap

        def recording(kernel):
            grids.append(kernel.grid)
            return solve(kernel)
        monkeypatch.setattr(kernelmod, "spectral_gap", recording)

        est = certify_gap(counted, n=256)
        certify_sizes = list(sizes)
        sizes.clear()
        build_tgrid(counted, 512)
        # one truncation search, for the 2n grid, then one evaluation on
        # the 8193 levels of that grid's 16-fold refinement
        assert certify_sizes == sizes + [8193]
        grid, grid2 = grids
        assert np.array_equal(grid2.boundaries, build_tgrid(ell, 512).boundaries)
        assert np.array_equal(grid.boundaries, grid2.boundaries[::2])
        ref = solve(discretize_pt(ell, build_tgrid(ell, 256)))
        assert abs(est.gap - ref.gap) <= 1e-12

    def test_truncation_stability(self):
        ell = level_set_function(exponential(5), PSS(5))
        g8 = spectral_gap(discretize_pt(ell, build_tgrid(ell, 512, 1e-8))).gap
        g10 = spectral_gap(discretize_pt(ell, build_tgrid(ell, 512, 1e-10))).gap
        assert abs(g8 - g10) <= 0.005


class TestExactAnchors:
    @pytest.mark.parametrize("target,fac,exact", [
        (exponential(30), USS(), 1.0 / 31.0),
        (radial_weighted_exponential(5), PSS(5), 0.5),
    ])
    def test_error_shrinks_with_grid(self, target, fac, exact):
        # the error falls about 4x per doubling; past n = 2^14 it floors
        # near 1e-8 because of the mass truncation
        ell = level_set_function(target, fac)
        errs = [abs(spectral_gap(discretize_pt(ell, build_tgrid(ell, n))).gap - exact)
                for n in (2048, 4096, 8192)]
        assert errs[0] >= 3.0 * errs[1] and errs[1] >= 3.0 * errs[2]
        assert errs[2] <= 3e-7


class TestDuality:
    def test_identical_inputs(self):
        ell = level_set_function(exponential(4), PSS(4))
        rep = duality_gap_compare(ell, ell, n=256)
        assert rep.max_ell_abs_diff == 0.0
        assert rep.gap_diff == 0.0

    def test_equivalence_d7(self):
        # PSS on ||x||^{-6} e^{-||x||} matches USS on the 1-D double
        # exponential with rate 2/sigma_6
        d = 7
        ell_a = level_set_function(radial_weighted_exponential(d), PSS(d))
        c = 2.0 / surface_area(d)
        oned = RadialTarget(phi=lambda r: c * r, dphi=lambda r: c, dim=1,
                            tag="exp1d")
        ell_b = level_set_function(oned, USS())
        rep = duality_gap_compare(ell_a, ell_b, n=512)
        assert rep.max_ell_abs_diff <= 1e-10
        assert rep.gap_diff <= 1e-9
        assert rep.gap_a == pytest.approx(0.5, abs=1e-4)

    def test_dimension_comparison_derived_values(self):
        # measured separation of the d=3 and d=30 PSS Exponential gaps;
        # three independent constructions agree on these values
        ell3 = level_set_function(exponential(3), PSS(3))
        ell30 = level_set_function(exponential(30), PSS(30))
        g3 = spectral_gap(discretize_pt(ell3, build_tgrid(ell3, 1024))).gap
        g30 = spectral_gap(discretize_pt(ell30, build_tgrid(ell30, 1024))).gap
        assert g3 == pytest.approx(0.63177, abs=1e-3)
        assert g30 == pytest.approx(0.66412, abs=1e-3)
        assert g3 >= 0.48 and g30 >= 0.48


class TestTransitionCdf:
    def test_matches_matrix_cumulative(self):
        ell = level_set_function(exponential(5), PSS(5))
        grid = build_tgrid(ell, 512)
        dk = discretize_pt(ell, grid)
        b = grid.boundaries
        for i in (120, 300, 480):
            node = 0.5 * float(b[i] + b[i + 1])  # the cell's log-midpoint
            direct = transition_cdf(ell, node, float(b[i]))
            via_matrix = float(dk.matrix[i, :i].sum())
            assert abs(direct - via_matrix) < 5e-3

    def test_monte_carlo_small(self):
        # reduced version of the simulation cross-check
        target = exponential(5)
        fac = PSS(5)
        ell = level_set_function(target, fac)
        s0 = ell.log_support_sup - 2.0
        p = transition_cdf(ell, s0, s0)
        rng = make_rng(2024)
        n = 200_000
        s1 = t_step_levels(target, fac, np.full(n, s0), rng)
        p_mc = float(np.mean(s1 < s0))
        assert abs(p - p_mc) <= 3.0 * math.sqrt(p * (1 - p) / n) + 1e-4

    def test_outside_support(self):
        ell = level_set_function(exponential(5), PSS(5))
        with pytest.raises(DomainError):
            transition_cdf(ell, ell.log_support_sup + 0.1, -1.0)


def test_kernel_sees_only_the_level_set_function():
    """kernel.py imports from the package only errors and LevelSetFunction."""
    tree = ast.parse(Path(kernelmod.__file__).read_text())
    package_imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            package_imports.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("slicegap") for a in node.names)
    assert set(package_imports) == {"errors", "levelset"}
    assert package_imports["levelset"] == {"LevelSetFunction"}
