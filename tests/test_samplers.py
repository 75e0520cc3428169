"""Tests for chain updates, chain runners and the stationary oracles."""

import ast
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from slicegap import harness, samplers
from slicegap.errors import DomainError
from slicegap import levelset
from slicegap.kernel import build_tgrid
from slicegap.levelset import level_interval, level_set_function, slice_profile
from slicegap.samplers import (
    PiTildeSampler,
    RadialStationarySampler,
    make_rng,
    run_t_chain,
    run_x_chain,
    t_step_levels,
    t_update,
    x_step_radii,
    x_update_radius,
)
from slicegap.targets import (
    RadialFactorization,
    RadialTarget,
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
        for u in (0.0, 1.0, -0.3, 2.0, math.nan):
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
        r = x_update_radius(slice_profile(volcano(1, 2.0), USS()), -1.0, 0.5)
        assert r == pytest.approx(2.0, rel=1e-10)

    def test_uss_disc_inverse_cdf(self):
        # d=2 USS on Exponential at log_t=-2: interval [0,2], F(r) = r^2/4
        r = x_update_radius(slice_profile(exponential(2), USS()), -2.0, 0.25)
        assert r == pytest.approx(1.0, rel=1e-10)

    def test_log_domain_matches_direct_power_formula(self):
        # at d=3 the naive power-formula inverse CDF is exact; shared inputs
        prof = slice_profile(exponential(3), USS())
        sup = prof.log_sup
        for log_t, u in [(sup - 0.5, 0.1), (sup - 4.0, 0.5), (sup - 9.0, 0.93)]:
            r_lo, r_hi = level_interval(prof, log_t)
            direct = (r_lo ** 3 + u * (r_hi ** 3 - r_lo ** 3)) ** (1 / 3)
            assert x_update_radius(prof, log_t, u) == pytest.approx(direct, rel=1e-12)

    def test_large_dimension_finite(self):
        prof = slice_profile(exponential(1000), USS())
        r = x_update_radius(prof, prof.log_sup - 5.0, 0.5)
        assert 0.0 < r < 5.0 and math.isfinite(r)

    def test_vectorized_agrees_with_scalar(self):
        # the chains draw with level_interval and the scalar inverse CDF,
        # x_update_radius with level_bounds and the vectorized one
        target = gaussian(5)
        us = np.array([0.2, 0.5, 0.9])
        for fac in (PSS(5), USS()):
            prof = slice_profile(target, fac)
            log_ts = prof.log_sup - np.array([0.4, 2.0, 7.5])
            vec = x_update_radius(prof, log_ts, us)
            for i in range(3):
                r_lo, r_hi = level_interval(prof, float(log_ts[i]))
                assert vec[i] == pytest.approx(samplers._inverse_cdf_radius(
                    r_lo, r_hi, float(us[i]), 5.0 - fac.alpha), rel=1e-12)

    def test_draw_next_to_one_stays_below_finite_cutoff(self):
        # 40 below the supremum of phi = -log(1 - r) the level set reaches
        # r_hi = kappa = 1, and u = 1 - 2^-53 rounds the inverse CDF up to it
        target = RadialTarget(phi=lambda r: -np.log(1.0 - r),
                              dphi=lambda r: 1.0 / (1.0 - r), kappa=1.0, dim=3)
        u = 1.0 - 2.0 ** -53
        for fac in (PSS(3), USS()):
            prof = slice_profile(target, fac)
            log_t = prof.log_sup - 40.0
            level, radius, _ = samplers._half_steps(target, fac)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = radius(log_t, u)
                vec = x_update_radius(prof, np.array([log_t]), np.array([u]))
                assert r == vec[0] == math.nextafter(1.0, 0.0)
                assert math.isfinite(level(r, 0.5))
                assert np.all(np.isfinite(log_h(target, fac, vec)))

    def test_rejects_uniforms_outside_open_interval(self):
        # level interval [0, 2]: u = 0 gave r = 0, outside the support, and
        # u = 1.5 gave 2.289, beyond r_hi
        prof = slice_profile(exponential(3), USS())
        for u in (0.0, 1.5, np.array([0.5, 1.0]), math.nan, np.array([0.5, math.nan])):
            with pytest.raises(DomainError, match="strictly inside"):
                x_update_radius(prof, -2.0, u)

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


class TestXChain:
    def test_zero_steps(self):
        tr = run_x_chain(exponential(3), PSS(3), 0, 1.5, seed=1)
        assert isinstance(tr, np.ndarray) and tr.shape == (1,) and tr[0] == 1.5

    def test_determinism(self):
        a = run_x_chain(gaussian(4), PSS(4), 50, 1.0, seed=42)
        b = run_x_chain(gaussian(4), PSS(4), 50, 1.0, seed=42)
        assert np.array_equal(a, b)
        c = run_x_chain(gaussian(4), PSS(4), 50, 1.0, seed=43)
        assert not np.array_equal(a, c)

    def test_invalid_init(self):
        with pytest.raises(DomainError):
            run_x_chain(exponential(3), PSS(3), 5, 0.0, seed=1)

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
        prof = slice_profile(target, fac)
        rng = make_rng(3)
        r = 2.0
        for _ in range(300):
            lh = log_h(target, fac, r)
            log_t = t_update(lh, float(rng.uniform(1e-12, 1 - 1e-12)))
            r = x_update_radius(prof, log_t, float(rng.random()))
            assert log_h(target, fac, r) > log_t - 1e-9


class TestTChain:
    def test_zero_steps(self):
        target = exponential(3)
        sup = slice_profile(target, PSS(3)).log_sup
        tr = run_t_chain(target, PSS(3), 0, sup - 1.0, seed=1)
        assert isinstance(tr, np.ndarray) and tr.shape == (1,) and tr[0] == sup - 1.0

    def test_determinism(self):
        target = gaussian(3)
        sup = slice_profile(target, PSS(3)).log_sup
        a = run_t_chain(target, PSS(3), 40, sup - 2.0, seed=9)
        b = run_t_chain(target, PSS(3), 40, sup - 2.0, seed=9)
        assert np.array_equal(a, b)

    def test_init_outside_support(self):
        target = exponential(3)
        sup = slice_profile(target, PSS(3)).log_sup
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
        sup = slice_profile(target, fac).log_sup
        tr = run_t_chain(target, fac, 500, sup - 1.0, seed=4)
        assert np.all(tr < sup)


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

    def test_pi_tilde_reads_one_mass_window(self):
        # exponential PSS d=3: the first window of the grid's mass search,
        # 128 deep, holds the mass; the oracle evaluates it and its own grid
        ell = level_set_function(exponential(3), PSS(3))
        sizes = []

        def log_eval(lt):
            sizes.append(lt.size)
            return ell.log_eval(lt)

        pit = PiTildeSampler(replace(ell, log_eval=log_eval))
        assert sizes == [1 << 12, samplers._ORACLE_CELLS + 1]
        assert pit.grid[-1] == ell.log_support_sup
        assert ell.log_support_sup - 128.0 < pit.grid[0] < ell.log_support_sup - 30.0

    def test_pi_tilde_and_grid_share_their_error(self):
        # USS exponential d = 1e5: the level law's mass lies about 1e5 below
        # the supremum, in the lower half of the deepest window, so neither
        # the certificate's grid nor the oracle finds it
        ell = level_set_function(exponential(100_000), USS())
        with pytest.raises(DomainError, match="does not concentrate") as grid_error:
            build_tgrid(ell, 64)
        with pytest.raises(DomainError) as oracle_error:
            PiTildeSampler(ell)
        assert str(oracle_error.value) == str(grid_error.value)

    def test_monotone_cdf(self):
        sampler = RadialStationarySampler(exponential(3))
        assert np.all(np.diff(sampler.cdf) >= 0)


class ZeroStream:
    """A broken random stream: every uniform is 0."""

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


class TestBoundedRedraws:
    def test_open_uniforms_gives_up(self):
        with pytest.raises(DomainError, match="0.0"):
            samplers._open_uniforms(ZeroStream(), (5,))


class OneZeroStream:
    """A random stream whose uniform draw number ``at`` holds one exact 0."""

    def __init__(self, at: int, seed: int = 0):
        self.rng = make_rng(seed)
        self.at = at
        self.calls = 0

    def random(self, size=None):
        u = self.rng.random(size)
        self.calls += 1
        if self.calls - 1 != self.at:
            return u
        if size is None:
            return 0.0
        u.flat[0] = 0.0
        return u


class TestSetDrawNeverZero:
    # a set uniform of exactly 0 gives r = r_lo, which is 0 (outside the
    # support) whenever the level reaches down to the origin
    def test_one_step_maps(self):
        target, fac = exponential(3), USS()
        r = x_step_radii(target, fac, np.array([1.0, 2.0]), OneZeroStream(at=1))
        assert np.all(r > 0.0)
        prof = slice_profile(target, fac)
        levels = prof.log_sup - np.array([1.0, 2.0])
        assert np.all(np.isfinite(t_step_levels(target, fac, levels, OneZeroStream(at=0))))

    def test_scalar_half_step(self, monkeypatch):
        monkeypatch.setattr(samplers, "make_rng", lambda *args: OneZeroStream(at=0))
        r = run_x_chain(exponential(3), USS(), 50, 1.0, seed=1)
        assert np.all(np.isfinite(r)) and np.all(r > 0.0)

    def test_oracle_draw(self):
        # the radial oracle's grid starts at r = 0 for exponential(1)
        target, fac = exponential(1), PSS(1)
        sampler = RadialStationarySampler(target)
        r = sampler.sample(OneZeroStream(at=0))
        assert isinstance(r, float) and r > 0.0
        assert math.isfinite(x_step_radii(target, fac, np.array([r]), make_rng(2))[0])
        assert np.all(sampler.sample(OneZeroStream(at=0), 5) > 0.0)


class TestChainsComposeHalfSteps:
    """Each step of a scalar chain equals the composed vector half-steps
    applied to the previous state with the same two uniforms, taken from
    the chain's block of ``2n`` in the order the half-steps use them."""

    n = 300
    cases = [(exponential(10), PSS(10)), (exponential(30), USS()),
             (gaussian(20), PSS(20))]

    def uniforms(self, seed):
        u = samplers._open_uniforms(make_rng(seed, 0), 2 * self.n)
        return u[0::2], u[1::2]

    @pytest.mark.parametrize("target, fac", cases)
    def test_x_chain(self, target, fac):
        prof = slice_profile(target, fac)
        r = run_x_chain(target, fac, self.n, 1.0, seed=3)
        u, v = self.uniforms(3)
        step = x_update_radius(prof, t_update(log_h(target, fac, r[:-1]), u), v)
        np.testing.assert_allclose(step, r[1:], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("target, fac", cases)
    def test_t_chain(self, target, fac):
        prof = slice_profile(target, fac)
        s = run_t_chain(target, fac, self.n, prof.log_sup - 2.0, seed=4)
        u, v = self.uniforms(4)
        step = t_update(log_h(target, fac, x_update_radius(prof, s[:-1], u)), v)
        # an absolute error in log t is a relative error in t
        np.testing.assert_allclose(step, s[1:], rtol=0, atol=1e-13)


def test_scalar_only_phi_chains_raise_no_warning():
    # both chains solve one level at a time, so phi never sees an array of
    # radii, as it would under a ladder built with level_bounds
    array_calls = [0]

    def phi(r):
        array_calls[0] += np.ndim(r) > 0
        return 0.5 * np.exp(2.0 * np.log(r))

    target = RadialTarget(phi=phi, dim=3)
    fac = PSS(3)
    sup = slice_profile(target, fac).log_sup
    array_calls[0] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = run_x_chain(target, fac, 300, 1.0, seed=5)
        s = run_t_chain(target, fac, 300, sup - 1.0, seed=5)
    assert array_calls[0] == 0
    np.testing.assert_allclose(r, run_x_chain(gaussian(3), fac, 300, 1.0, seed=5),
                               rtol=1e-9)
    np.testing.assert_allclose(s, run_t_chain(gaussian(3), fac, 300, sup - 1.0,
                                              seed=5), rtol=0, atol=1e-9)


def test_uniforms_are_drawn_only_by_open_uniforms():
    """Every call of a Generator draw method in samplers.py (``.random(``,
    ``.standard_normal(``, ...) sits inside ``_open_uniforms``."""
    tree = ast.parse(Path(samplers.__file__).read_text())
    draws = {m for m in dir(np.random.Generator)
             if not m.startswith("_")} - {"bit_generator", "spawn"}

    def draw_calls(node):
        return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr in draws for n in ast.walk(node))

    owner, = (n for n in ast.walk(tree)
              if isinstance(n, ast.FunctionDef) and n.name == "_open_uniforms")
    assert draw_calls(owner) > 0
    assert draw_calls(tree) == draw_calls(owner)


class TestProfileSolvedOnce:
    def test_one_mode_solve_per_entry_point(self, monkeypatch):
        calls = [0]
        solve = levelset.mode_radius

        def counted(target, fac):
            calls[0] += 1
            return solve(target, fac)

        monkeypatch.setattr(levelset, "mode_radius", counted)
        target, fac = exponential(3), PSS(3)
        prof = slice_profile(target, fac)
        levels = prof.log_sup - np.array([0.5, 2.0, 9.0])
        rng = make_rng(1)
        for run in (lambda: run_x_chain(target, fac, 20, 1.0, seed=1),
                    lambda: run_t_chain(target, fac, 20, float(levels[0]), seed=1),
                    lambda: level_set_function(target, fac).log(levels),
                    lambda: x_step_radii(target, fac, np.array([0.5, 2.0, 4.0]), rng),
                    lambda: t_step_levels(target, fac, levels, rng)):
            calls[0] = 0
            run()
            assert calls[0] == 1
        calls[0] = 0
        level_interval(prof, float(levels[1]))
        levelset.level_bounds(prof, levels)
        assert calls[0] == 0


class TestBroadcasting:
    """``x_update_radius`` broadcasts ``log_t`` against ``u`` and matches
    the call on explicitly repeated levels bitwise; ``t_step_levels`` on
    repeated levels matches the steps from the one level."""

    @pytest.mark.parametrize("fac", [PSS(5), USS()], ids=["pss", "uss"])
    def test_scalar_level_matches_full_levels(self, fac):
        prof = slice_profile(gaussian(5), fac)
        s0 = prof.log_sup - 3.0
        u = np.linspace(0.01, 0.99, 12).reshape(3, 4)
        got = x_update_radius(prof, s0, u)
        assert got.shape == (3, 4)
        np.testing.assert_array_equal(got, x_update_radius(prof, np.full(u.shape, s0), u))

    def test_broadcast_shape(self):
        prof = slice_profile(exponential(3), USS())
        log_t = prof.log_sup - np.array([[0.5], [2.0], [9.0]])
        u = np.array([0.1, 0.4, 0.6, 0.9])
        got = x_update_radius(prof, log_t, u)
        assert got.shape == (3, 4)
        full = x_update_radius(prof, np.repeat(log_t, 4, axis=1), np.tile(u, (3, 1)))
        np.testing.assert_array_equal(got, full)

    def test_two_scalars_give_a_float(self):
        prof = slice_profile(exponential(3), PSS(3))
        assert type(x_update_radius(prof, prof.log_sup - 1.0, 0.5)) is float

    def test_level_reaching_the_origin(self):
        # exponential USS d=2 at log_t = -2: interval [0, 2], r_lo = 0
        target, fac = exponential(2), USS()
        r = x_update_radius(slice_profile(target, fac), -2.0, np.linspace(1e-9, 1 - 1e-9, 50))
        assert np.all(np.isfinite(r)) and np.all((r > 0.0) & (r <= 2.0))
        s1 = t_step_levels(target, fac, np.full(1000, -2.0), make_rng(3))
        assert s1.shape == (1000,) and np.all(np.isfinite(s1))

    def test_mismatched_shapes_rejected(self):
        prof = slice_profile(exponential(3), PSS(3))
        with pytest.raises(DomainError, match="broadcast"):
            x_update_radius(prof, prof.log_sup - np.ones(3), np.full(4, 0.5))

    @pytest.mark.parametrize("fac", [PSS(5), USS()], ids=["pss", "uss"])
    def test_steps_from_one_level_match_full_levels(self, fac):
        target = exponential(5)
        prof = slice_profile(target, fac)
        s0 = prof.log_sup - 2.0
        got = t_step_levels(target, fac, np.full(500, s0), make_rng(8))
        assert got.shape == (500,)
        rng = make_rng(8)
        u = samplers._open_uniforms(rng, 500)
        r = x_update_radius(prof, s0, u)
        np.testing.assert_array_equal(
            got, t_update(log_h(target, fac, r), samplers._open_uniforms(rng, 500)))


class TestLevelSolvedOnce:
    """Steps from one level solve that level's interval once per chunk of
    levels, however many steps are drawn."""

    @pytest.fixture
    def solved(self, monkeypatch):
        levels = [0]
        solve = samplers.level_bounds

        def counted(prof, log_t):
            levels[0] += np.size(log_t)
            return solve(prof, log_t)

        monkeypatch.setattr(samplers, "level_bounds", counted)
        return levels

    def test_t_step_levels_from_one_level(self, monkeypatch):
        target, fac = exponential(5), PSS(5)
        s0 = slice_profile(target, fac).log_sup - 3.0
        solves = [0]
        solve = levelset.level_interval

        def counted(prof, log_t):
            solves[0] += 1
            return solve(prof, log_t)

        monkeypatch.setattr(levelset, "level_interval", counted)
        for n, chunks in ((levelset._CHUNK, 1), (10_000, 2)):
            solves[0] = 0
            t_step_levels(target, fac, np.full(n, s0), make_rng(1))
            assert solves[0] == chunks

    def test_kernel_mc_check_in_blocks(self, monkeypatch):
        # three full blocks and a partial one: each probe is still solved
        # once, and each fraction is the one-array mean from the same stream
        n = 3 * samplers._STEP_BLOCK + 5
        monkeypatch.setattr(harness, "_KERNEL_MC_DRAWS", n)
        calls = []
        solve = samplers.level_bounds
        monkeypatch.setattr(samplers, "level_bounds",
                            lambda prof, log_t: calls.append(np.size(log_t)) or solve(prof, log_t))
        checks = harness._kernel_mc_check(7)
        assert calls == [1] * 10
        prof = slice_profile(exponential(5), PSS(5))
        rng = make_rng(7, 0)
        for check in checks:
            s0 = check["log_t"]
            want = np.mean(t_step_levels(prof.target, PSS(5), np.full(n, s0), rng) < s0)
            assert check["monte_carlo"] == want

    def test_fraction_below_matches_one_array(self):
        n = 2 * samplers._STEP_BLOCK + 1
        for target, fac in [(gaussian(3), USS()), (volcano(4, 2.0), PSS(4))]:
            prof = slice_profile(target, fac)
            for depth in (0.3, 4.0):
                s0 = prof.log_sup - depth
                got = samplers._fraction_stepped_below(prof, s0, make_rng(11), n)
                steps = t_step_levels(target, fac, np.full(n, s0), make_rng(11))
                want = np.mean(steps < s0)
                assert got == want

    def test_kernel_mc_check_memory(self):
        # the two arrays of N uniforms and block-sized temporaries, not
        # N-sized steps
        tracemalloc.start()
        try:
            harness._kernel_mc_check(7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert harness._KERNEL_MC_DRAWS == 1_000_000
        assert peak < 2 * 8 * harness._KERNEL_MC_DRAWS + 8 * 2**20

    def test_kernel_mc_check(self, solved, monkeypatch):
        # fewer draws per probe keep the test short; one solve per probe
        # does not depend on the number of draws
        monkeypatch.setattr(harness, "_KERNEL_MC_DRAWS", 1000)
        checks = harness._kernel_mc_check(7)
        assert len(checks) == 10
        assert solved[0] <= 10
