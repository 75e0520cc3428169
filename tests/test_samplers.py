"""Tests for chain updates, chain runners and the stationary oracles."""

import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from slicegap import samplers
from slicegap.errors import DomainError
from slicegap.levelset import level_interval, level_set_function, log_h_sup, mode_radius
from slicegap.samplers import (
    PiTildeSampler,
    RadialStationarySampler,
    make_rng,
    run_t_chain,
    run_x_chain,
    sample_direction,
    t_step_levels,
    t_update,
    x_step_radii,
    x_update_radius,
)
from slicegap.targets import (
    RadialFactorization,
    exponential,
    gaussian,
    log_h,
    radial_weighted_exponential,
    volcano,
)

PSS = RadialFactorization.pss
USS = RadialFactorization.uss


class TestTUpdate:
    def test_log_of_half(self):
        assert t_update(0.0, 0.5) == pytest.approx(math.log(0.5), abs=1e-14)

    def test_log_additivity(self):
        assert t_update(-2.0, math.exp(-1.0)) == pytest.approx(-3.0, abs=1e-12)

    def test_boundary_approach(self):
        assert t_update(-1.0, 1.0 - 1e-12) < -1.0

    def test_rejects_bad_uniforms(self):
        for u in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(DomainError):
                t_update(0.0, u)

    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=1e-12, max_value=1.0 - 1e-9))
    def test_always_below_profile(self, lh, u):
        # strictness holds whenever log(u) is resolvable at lh's magnitude
        assert t_update(lh, u) < lh


class TestXUpdateRadius:
    def test_pss_uniform_midpoint(self):
        # interval [1, 3] of the volcano USS level at log_t = -1; with
        # beta = 1 the draw is the uniform midpoint
        target = volcano(1, 2.0)
        r = x_update_radius(target, USS(), -1.0, 0.5)
        assert r == pytest.approx(2.0, rel=1e-10)

    def test_uss_disc_inverse_cdf(self):
        # d=2 USS on Exponential at log_t=-2: interval [0,2], F(r) = r^2/4
        r = x_update_radius(exponential(2), USS(), -2.0, 0.25)
        assert r == pytest.approx(1.0, rel=1e-10)

    def test_log_domain_matches_direct_power_formula(self):
        # at d=3 the naive power-formula inverse CDF is exact; shared inputs
        target = exponential(3)
        fac = USS()
        sup = log_h_sup(target, fac)
        for log_t, u in [(sup - 0.5, 0.1), (sup - 4.0, 0.5), (sup - 9.0, 0.93)]:
            iv = level_interval(target, fac, log_t)
            direct = (iv.r_lo ** 3 + u * (iv.r_hi ** 3 - iv.r_lo ** 3)) ** (1 / 3)
            assert x_update_radius(target, fac, log_t, u) == pytest.approx(
                direct, rel=1e-12)

    def test_large_dimension_finite(self):
        d = 1000
        target = exponential(d)
        fac = USS()
        sup = log_h_sup(target, fac)
        r = x_update_radius(target, fac, sup - 5.0, 0.5)
        assert 0.0 < r < 5.0 and math.isfinite(r)

    def test_vectorized_agrees_with_scalar(self):
        # the chains draw with level_interval and the scalar inverse CDF,
        # x_update_radius with level_bounds and the vectorized one
        target = gaussian(5)
        us = np.array([0.2, 0.5, 0.9])
        for fac in (PSS(5), USS()):
            sup = log_h_sup(target, fac)
            log_ts = sup - np.array([0.4, 2.0, 7.5])
            vec = x_update_radius(target, fac, log_ts, us)
            for i in range(3):
                iv = level_interval(target, fac, float(log_ts[i]))
                assert vec[i] == pytest.approx(samplers._inverse_cdf_radius(
                    iv.r_lo, iv.r_hi, float(us[i]), 5.0 - fac.alpha), rel=1e-12)

    @pytest.mark.parametrize("r_lo, r_hi, u, beta, want", [
        (1.0, 3.0, 0.5, 1.0, 2.0),                   # uniform midpoint
        (0.0, 2.0, 0.25, 2.0, 1.0),                  # disc: F(r) = r^2 / 4
        (1.0, 2.0, 0.5, 3.0, 4.5 ** (1.0 / 3.0)),    # (1 + u (8 - 1))^(1/3)
        (0.0, 5.0, 0.5, 1000.0, 5.0 * 0.5 ** 1e-3),  # d = 1000 USS
        (4.0, 5.0, 0.5, 1000.0, 5.0 * 0.5 ** 1e-3),  # 4^1000 overflows
    ], ids=["midpoint", "disc", "shell", "d1000", "d1000-shell"])
    def test_scalar_inverse_cdf(self, r_lo, r_hi, u, beta, want):
        r = samplers._inverse_cdf_radius(r_lo, r_hi, u, beta)
        assert r == pytest.approx(want, rel=1e-12)
        vec = samplers._inverse_cdf_radius_vec(
            np.array([r_lo]), np.array([r_hi]), np.array([u]), beta)
        assert vec[0] == pytest.approx(r, rel=1e-15)


class TestSampleDirection:
    def test_one_dimension_signs(self):
        rng = make_rng(5)
        draws = [float(sample_direction(1, rng)[0]) for _ in range(200)]
        assert set(np.round(draws).astype(int)) == {-1, 1}

    def test_unit_norm(self):
        rng = make_rng(6)
        for d in (2, 3, 17):
            v = sample_direction(d, rng)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_mean_is_centered(self):
        rng = make_rng(7)
        d = 4
        n = 100_000
        total = np.zeros(d)
        for _ in range(200):
            total += sample_direction(d, rng)
        # cheap CLT check on a smaller batch: per-coordinate mean ~ N(0, 1/(n d))
        draws = np.array([sample_direction(d, rng) for _ in range(5000)])
        assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / math.sqrt(5000 * d) + 0.02)


class TestXChain:
    def test_zero_steps(self):
        tr = run_x_chain(exponential(3), PSS(3), 0, 1.5, seed=1)
        assert len(tr) == 1 and tr.values[0] == 1.5

    def test_determinism(self):
        a = run_x_chain(gaussian(4), PSS(4), 50, 1.0, seed=42)
        b = run_x_chain(gaussian(4), PSS(4), 50, 1.0, seed=42)
        assert np.array_equal(a.values, b.values)
        c = run_x_chain(gaussian(4), PSS(4), 50, 1.0, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_invalid_init(self):
        with pytest.raises(DomainError):
            run_x_chain(exponential(3), PSS(3), 5, 0.0, seed=1)

    def test_full_vector_matches_radius_marginal(self):
        a = run_x_chain(exponential(3), PSS(3), 100, 2.0, seed=11)
        b = run_x_chain(exponential(3), PSS(3), 100, 2.0, seed=11,
                        full_vector=True)
        assert np.allclose(a.values, b.values, rtol=1e-12, atol=0)

    def test_one_step_stationarity_ks(self):
        target = exponential(3)
        fac = PSS(3)
        rng = make_rng(12345)
        radial = RadialStationarySampler(target)
        r0 = radial.sample(rng, 10_000)
        r1 = x_step_radii(target, fac, r0, rng)
        r_ref = radial.sample(rng, 10_000)
        stat = scipy.stats.ks_2samp(r1, r_ref).statistic
        assert stat <= 0.02

    def test_slice_membership(self):
        # after each full step the new radius lies inside the drawn level set
        target = volcano(5, 2.0)
        fac = PSS(5)
        rng = make_rng(3)
        r = 2.0
        for _ in range(300):
            lh = log_h(target, fac, r)
            log_t = t_update(lh, float(rng.uniform(1e-12, 1 - 1e-12)))
            r = x_update_radius(target, fac, log_t, float(rng.random()))
            assert log_h(target, fac, r) > log_t - 1e-9


class TestTChain:
    def test_zero_steps(self):
        target = exponential(3)
        sup = log_h_sup(target, PSS(3))
        tr = run_t_chain(target, PSS(3), 0, sup - 1.0, seed=1)
        assert len(tr) == 1

    def test_determinism(self):
        target = gaussian(3)
        sup = log_h_sup(target, PSS(3))
        a = run_t_chain(target, PSS(3), 40, sup - 2.0, seed=9)
        b = run_t_chain(target, PSS(3), 40, sup - 2.0, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_init_outside_support(self):
        target = exponential(3)
        sup = log_h_sup(target, PSS(3))
        with pytest.raises(DomainError):
            run_t_chain(target, PSS(3), 5, sup + 1.0, seed=1)

    def test_one_step_stationarity_ks(self):
        target = exponential(3)
        fac = PSS(3)
        ell = level_set_function(target, fac)
        pit = PiTildeSampler(ell)
        rng = make_rng(777)
        s0 = pit.sample(rng, 10_000)
        s1 = t_step_levels(target, fac, s0, rng)
        s_ref = pit.sample(rng, 10_000)
        assert scipy.stats.ks_2samp(s1, s_ref).statistic <= 0.02

    def test_levels_stay_below_sup(self):
        target = exponential(4)
        fac = PSS(4)
        sup = log_h_sup(target, fac)
        tr = run_t_chain(target, fac, 500, sup - 1.0, seed=4)
        assert np.all(tr.values < sup)


class TestStationaryOracles:
    def test_exponential_radial_means(self):
        rng = make_rng(100)
        draws = RadialStationarySampler(exponential(1)).sample(rng, 100_000)
        assert abs(draws.mean() - 1.0) < 0.02
        draws3 = RadialStationarySampler(exponential(3)).sample(rng, 100_000)
        assert abs(draws3.mean() - 3.0) < 0.04

    def test_pi_tilde_handles_unbounded_support(self):
        # USS on the radial-weighted profile has sup h = +inf
        ell = level_set_function(radial_weighted_exponential(5), USS())
        pit = PiTildeSampler(ell)
        rng = make_rng(8)
        s = pit.sample(rng, 1000)
        assert np.all(np.isfinite(s))

    def test_monotone_cdf(self):
        sampler = RadialStationarySampler(exponential(3))
        assert np.all(np.diff(sampler.cdf) >= 0)


class TestTraceSerialization:
    def test_csv_and_sidecar(self, tmp_path):
        tr = run_x_chain(exponential(2), USS(), 10, 1.0, seed=5)
        path = str(tmp_path / "trace.csv")
        tr.to_csv(path)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "step,value"
        assert len(lines) == 12
        meta = json.load(open(path + ".json"))
        assert meta["seed"] == 5 and meta["d"] == 2


class ZeroStream:
    """A broken random stream: every uniform and every normal is 0."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def standard_normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)


class TestBoundedRedraws:
    def test_open_uniform_gives_up(self):
        with pytest.raises(DomainError, match="0.0"):
            samplers._open_uniform(ZeroStream())

    def test_open_uniforms_gives_up(self):
        with pytest.raises(DomainError, match="0.0"):
            samplers._open_uniforms(ZeroStream(), (5,))

    def test_sample_direction_gives_up(self):
        with pytest.raises(DomainError, match="norm"):
            sample_direction(3, ZeroStream())
