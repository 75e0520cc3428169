"""Tests for radial targets, factorizations and the log profile."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slicegap import targets
from slicegap.errors import DomainError
from slicegap.levelset import level_bounds, slice_profile
from slicegap.targets import (
    RadialFactorization,
    RadialTarget,
    exponential,
    gaussian,
    log_h,
    log_surface_area,
    make_builtin,
    radial_weighted_exponential,
    surface_area,
    volcano,
)

ALL_BUILTINS = [exponential(3), volcano(3, 2.0), gaussian(3),
                radial_weighted_exponential(3)]


def validate_target(target: RadialTarget) -> None:
    """Numerical consistency checks on a target.

    Verifies that phi is finite on a probe grid inside the support, that
    phi blows up at a finite cutoff, and that dphi matches a central
    finite difference of phi to 1e-6 relative error.
    """
    hi = target.kappa if math.isfinite(target.kappa) else 50.0
    probe = np.linspace(hi * 1e-3, hi * 0.99, 64)
    vals = target.phi(probe)
    if not np.all(np.isfinite(vals)):
        raise DomainError("phi is not finite on the interior probe grid")
    if math.isfinite(target.kappa):
        # phi must diverge toward the cutoff.
        deltas = target.kappa * np.array([1e-2, 1e-4, 1e-6, 1e-8])
        edge = target.phi(target.kappa - deltas)
        if not (np.all(np.diff(edge) > 0) and edge[-1] > vals.mean() + 10.0):
            raise DomainError("phi does not diverge at the finite cutoff kappa")
    fd = targets._finite_difference(target.phi, target.kappa)
    for r in probe:
        a = target.dphi(float(r))
        b = fd(float(r))
        if abs(a - b) > 1e-6 * (1.0 + abs(b)):
            raise DomainError(
                f"dphi inconsistent with finite difference at r={r}: {a} vs {b}"
            )


class TestLogH:
    def test_exponential_pss_value(self):
        # alpha log r - phi(r) at alpha=2, r=2: 2 ln 2 - 2
        val = log_h(exponential(3), RadialFactorization(2.0), 2.0)
        assert val == pytest.approx(2.0 * math.log(2.0) - 2.0, abs=1e-12)
        assert val == pytest.approx(-0.613706, abs=1e-6)

    def test_uss_profile_is_density(self):
        r = np.linspace(0.1, 8.0, 40)
        for target in ALL_BUILTINS:
            vals = log_h(target, RadialFactorization.uss(), r)
            expected = -target.phi(r)
            assert np.allclose(np.exp(vals), np.exp(expected), rtol=1e-12)

    def test_volcano_at_its_offset(self):
        val = log_h(volcano(2, 2.0), RadialFactorization(1.0), 2.0)
        assert val == pytest.approx(math.log(2.0), abs=1e-12)

    def test_domain_errors(self):
        target = exponential(3)
        fac = RadialFactorization.uss()
        with pytest.raises(DomainError):
            log_h(target, fac, 0.0)
        with pytest.raises(DomainError):
            log_h(target, fac, -1.0)
        bounded = RadialTarget(phi=lambda r: -np.log(1.0 - r), kappa=1.0, dim=2)
        with pytest.raises(DomainError):
            log_h(bounded, fac, 1.0)

    def test_pss_uss_difference_identity(self):
        # log_h(alpha=d-1) - log_h(alpha=0) = (d-1) log r, algebraically
        d = 7
        target = gaussian(d)
        r = np.linspace(0.2, 5.0, 25)
        diff = log_h(target, RadialFactorization.pss(d), r) \
            - log_h(target, RadialFactorization.uss(), r)
        assert np.allclose(diff, (d - 1) * np.log(r), rtol=0, atol=1e-12)

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.integers(min_value=1, max_value=200))
    def test_identity_property(self, r, d):
        target = exponential(d)
        diff = log_h(target, RadialFactorization.pss(d), r) \
            - log_h(target, RadialFactorization.uss(), r)
        assert diff == pytest.approx((d - 1) * math.log(r), rel=1e-12, abs=1e-9)

    def test_no_overflow_large_dimension(self):
        val = log_h(exponential(10_000), RadialFactorization.pss(10_000), 9000.0)
        assert math.isfinite(val)


class TestSurfaceArea:
    def test_small_dimensions(self):
        assert surface_area(1) == pytest.approx(2.0, rel=1e-14)
        assert surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            surface_area(0)
        with pytest.raises(DomainError):
            log_surface_area(0)

    @pytest.mark.parametrize("d", [math.inf, math.nan, True], ids=["inf", "nan", "bool"])
    def test_non_integer_dimension_rejected(self, d):
        with pytest.raises(DomainError, match="^d must be a positive integer"):
            log_surface_area(d)

    def test_recurrence(self):
        # sigma_d = 2 pi sigma_{d-2} / (d-1), with sigma_d = surface_area(d+1)
        for d in range(3, 40):
            lhs = surface_area(d + 1)
            rhs = 2.0 * math.pi * surface_area(d - 1) / (d - 1)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_log_variant_large_d(self):
        assert math.isfinite(log_surface_area(100_000))
        assert surface_area(20) == pytest.approx(
            math.exp(log_surface_area(20)), rel=1e-12)

    def test_log_variant_small_dimensions(self):
        for d, sigma in ((1, 2.0), (2, 2.0 * math.pi), (3, 4.0 * math.pi)):
            assert math.exp(log_surface_area(d)) == pytest.approx(sigma, rel=1e-15)

    def test_lgamma_matches_gammaln(self):
        # the standard-library lgamma against scipy's gammaln in the same formula
        from scipy.special import gammaln
        for d in range(1, 2001):
            ref = math.log(2.0) + 0.5 * d * math.log(math.pi) - gammaln(0.5 * d)
            assert abs(log_surface_area(d) - ref) <= 2e-12


class TestFactorization:
    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            RadialFactorization(-0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, True],
                             ids=["nan", "inf", "bool"])
    def test_non_finite_or_bool_alpha_rejected(self, alpha):
        # a NaN alpha once built an ell whose support supremum was NaN
        with pytest.raises(DomainError, match="^alpha must be a finite nonnegative number"):
            RadialFactorization(alpha)

    def test_alpha_exceeding_dimension_rejected(self):
        fac = RadialFactorization(5.0)
        with pytest.raises(DomainError):
            fac.validate_for(exponential(3))
        fac.validate_for(exponential(6))

    def test_pss_one_dimension_is_uss(self):
        assert RadialFactorization.pss(1).alpha == 0.0
        assert RadialFactorization.uss().alpha == 0.0


class TestBuiltins:
    def test_tags_resolve(self):
        assert make_builtin("exponential", 4).tag == "exponential"
        volcano3 = make_builtin("Volcano", 4, c=3.0)
        assert volcano3.tag == "volcano" and volcano3.phi(3.0) == 0.0  # ridge at c
        with pytest.raises(DomainError):
            make_builtin("mystery", 3)

    def test_potential_values(self):
        assert exponential(2).phi(1.5) == pytest.approx(1.5)
        assert volcano(2, 2.0).phi(3.0) == pytest.approx(1.0)
        assert gaussian(2).phi(2.0) == pytest.approx(2.0)
        rwe = radial_weighted_exponential(3)
        assert rwe.phi(1.0) == pytest.approx(1.0)
        assert rwe.phi(2.0) == pytest.approx(2.0 + 2.0 * math.log(2.0))

    def test_volcano_requires_positive_offset(self):
        with pytest.raises(DomainError):
            volcano(2, 0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, True, "2"],
                             ids=["nan", "inf", "bool", "str"])
    def test_non_finite_bool_or_non_real_offset_rejected(self, c):
        # a NaN offset once built an ell whose support supremum was NaN,
        # and an infinite one ended in a NoRootError blaming the target class
        with pytest.raises(DomainError, match="^volcano offset c must be a finite"):
            volcano(3, c)

    def test_validate_passes_builtins(self):
        for target in ALL_BUILTINS:
            validate_target(target)

    def test_validate_rejects_bad_derivative(self):
        bad = RadialTarget(phi=lambda r: r, dphi=lambda r: 2.0, dim=2)
        with pytest.raises(DomainError):
            validate_target(bad)

    def test_validate_finite_cutoff(self):
        good = RadialTarget(phi=lambda r: -np.log(1.0 - r), kappa=1.0, dim=2)
        validate_target(good)
        bad = RadialTarget(phi=lambda r: r, kappa=1.0, dim=2)
        with pytest.raises(DomainError):
            validate_target(bad)

    def test_finite_difference_fallback(self):
        target = RadialTarget(phi=lambda r: r ** 3, dim=2)
        assert target.dphi(2.0) == pytest.approx(12.0, rel=1e-5)

    def test_finite_difference_on_arrays(self):
        target = RadialTarget(phi=lambda r: r ** 3, dim=2)
        r = np.array([0.5, 2.0, 1e4])
        np.testing.assert_allclose(target.dphi(r), 3.0 * r ** 2, rtol=1e-5)


class TestConstruction:
    def test_invalid_dim(self):
        with pytest.raises(DomainError):
            RadialTarget(phi=lambda r: r, dim=0)

    @pytest.mark.parametrize("dim", [math.inf, math.nan, True], ids=["inf", "nan", "bool"])
    def test_non_integer_dim(self, dim):
        with pytest.raises(DomainError, match="^dim must be a positive integer"):
            RadialTarget(phi=lambda r: r, dim=dim)

    def test_invalid_kappa(self):
        with pytest.raises(DomainError):
            RadialTarget(phi=lambda r: r, kappa=-1.0, dim=2)

    def test_bool_kappa_rejected(self):
        # True once passed as a cutoff of 1
        with pytest.raises(DomainError, match="^kappa must be a positive number"):
            RadialTarget(phi=lambda r: -np.log(1.0 - r), kappa=True, dim=2)

    def test_scalar_only_phi_rejected(self):
        with pytest.raises(DomainError, match="^phi must map a float array"):
            RadialTarget(phi=lambda r: math.log1p(r), dim=2)

    def test_scalar_only_dphi_rejected(self):
        with pytest.raises(DomainError, match="^dphi must map a float array"):
            RadialTarget(phi=np.log1p, dphi=lambda r: 1.0 / (1.0 + float(r)), dim=2)

    def test_result_of_another_shape_rejected(self):
        with pytest.raises(DomainError, match="^phi"):
            RadialTarget(phi=lambda r: np.append(r, 0.0), dim=2)

    def test_dphi_vec_broadcasts_a_constant(self):
        # a constant dphi solves every level as its array form does
        const = RadialTarget(phi=lambda r: 2.0 * r, dphi=lambda r: 2.0, dim=3)
        full = RadialTarget(phi=lambda r: 2.0 * r, dphi=lambda r: np.full_like(r, 2.0),
                            dim=3)
        for fac in (RadialFactorization.uss(), RadialFactorization(2.0)):
            prof = slice_profile(const, fac)
            levels = prof.log_sup - np.linspace(1e-3, 30.0, 200)
            np.testing.assert_array_equal(level_bounds(prof, levels),
                                          level_bounds(slice_profile(full, fac), levels))
