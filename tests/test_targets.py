"""Tests for radial targets, factorizations and the log profile."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slicegap.errors import DomainError
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
    validate_target,
    volcano,
)

ALL_BUILTINS = [exponential(3), volcano(3, 2.0), gaussian(3),
                radial_weighted_exponential(3)]


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
            expected = -target.phi_vec(r)
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
        bounded = RadialTarget(phi=lambda r: -math.log(1.0 - r), kappa=1.0, dim=2)
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


class TestFactorization:
    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            RadialFactorization(-0.5)

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
        assert make_builtin("Volcano", 4, c=3.0).params == {"c": 3.0}
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

    def test_validate_passes_builtins(self):
        for target in ALL_BUILTINS:
            validate_target(target)

    def test_validate_rejects_bad_derivative(self):
        bad = RadialTarget(phi=lambda r: r, dphi=lambda r: 2.0, dim=2)
        with pytest.raises(DomainError):
            validate_target(bad)

    def test_validate_finite_cutoff(self):
        good = RadialTarget(phi=lambda r: -math.log(1.0 - r), kappa=1.0, dim=2)
        with pytest.warns(RuntimeWarning, match="element by element"):
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

    def test_invalid_kappa(self):
        with pytest.raises(DomainError):
            RadialTarget(phi=lambda r: r, kappa=-1.0, dim=2)

    def test_phi_vec_scalar_only_callable(self):
        target = RadialTarget(phi=lambda r: float(r) + 1.0, dim=2)
        with pytest.warns(RuntimeWarning, match="element by element"):
            out = target.phi_vec(np.array([1.0, 2.0]))
        assert np.allclose(out, [2.0, 3.0])

    def test_dphi_vec_scalar_fallback_warns(self):
        target = RadialTarget(phi=lambda r: float(r) ** 2, dphi=lambda r: 2.0 * float(r),
                              dim=2)
        with pytest.warns(RuntimeWarning, match="dphi does not accept arrays"):
            out = target.dphi_vec(np.array([1.0, 3.0]))
        np.testing.assert_array_equal(out, [2.0, 6.0])

    def test_dphi_vec_broadcasts_a_constant(self):
        target = RadialTarget(phi=lambda r: 2.0 * r, dphi=lambda r: 2.0, dim=1)
        np.testing.assert_array_equal(target.dphi_vec(np.array([0.5, 1.0, 4.0])),
                                      [2.0, 2.0, 2.0])
