"""Tests for level intervals, the level-set function and class membership."""

import ast
import math
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from slicegap import levelset
from slicegap.errors import DomainError, EmptyLevelError, NoRootError
from slicegap.harness import DESK_DIMS, ExperimentConfig, row_seed
from slicegap.levelset import (
    LevelSetFunction,
    canonical_inverse_phi,
    canonical_potential,
    lambda_k_check,
    SliceProfile,
    level_bounds,
    level_interval,
    level_set_function,
    mode_radius,
    slice_profile,
)
from slicegap.samplers import run_t_chain, run_x_chain, x_update_radius
from slicegap.targets import (
    BUILTIN_TAGS,
    RadialFactorization,
    RadialTarget,
    exponential,
    gaussian,
    log_h,
    make_builtin,
    radial_weighted_exponential,
    surface_area,
    volcano,
)

PSS = RadialFactorization.pss
USS = RadialFactorization.uss


class TestModeRadius:
    def test_exponential_pss(self):
        # r phi'(r) = r, so the mode sits exactly at alpha
        assert mode_radius(exponential(3), PSS(3)) == pytest.approx(2.0, rel=1e-12)

    def test_volcano_pss(self):
        # positive root of 2r^2 - 4r - 1 = 0
        r = mode_radius(volcano(2, 2.0), PSS(2))
        assert r == pytest.approx(2.224744871391589, rel=1e-10)

    def test_volcano_uss_is_offset(self):
        assert mode_radius(volcano(5, 2.0), USS()) == pytest.approx(2.0, abs=1e-9)

    def test_monotone_profiles_have_zero_mode(self):
        assert mode_radius(exponential(2), USS()) == 0.0
        assert mode_radius(radial_weighted_exponential(4), PSS(4)) == 0.0

    def test_mode_beyond_the_search_names_where_it_stopped(self):
        # a ridge at 1e70 lies past the outward search's last point, 2^200
        far = RadialTarget(phi=lambda r: (r - 1e70) ** 2, dphi=lambda r: 2.0 * (r - 1e70),
                           dim=3)
        with pytest.raises(NoRootError, match=r"profile mode up to r = 1\.61e\+60; target"):
            mode_radius(far, PSS(3))


class TestLevelInterval:
    def test_uss_exponential(self):
        r_lo, r_hi = level_interval(slice_profile(exponential(2), USS()), -2.0)
        assert r_lo == 0.0
        assert r_hi == pytest.approx(2.0, rel=1e-10)

    def test_uss_volcano(self):
        r_lo, r_hi = level_interval(slice_profile(volcano(2, 2.0), USS()), -1.0)
        assert r_lo == pytest.approx(1.0, rel=1e-10)
        assert r_hi == pytest.approx(3.0, rel=1e-10)

    def test_pss_exponential_two_branches(self):
        # r^2 e^{-r} = 4 e^{-3}: roots frozen from an independent solver
        r_lo, r_hi = level_interval(slice_profile(exponential(3), PSS(3)),
                                    math.log(4.0) - 3.0)
        assert r_lo == pytest.approx(0.603419125368672, rel=1e-10)
        assert r_hi == pytest.approx(4.715353347891798, rel=1e-10)

    def test_empty_level(self):
        prof = slice_profile(exponential(3), PSS(3))
        with pytest.raises(EmptyLevelError):
            level_interval(prof, prof.log_sup)
        with pytest.raises(EmptyLevelError):
            level_interval(prof, prof.log_sup + 1.0)

    def test_nan_level_is_empty(self):
        # NaN is not below the supremum: on the barrier level_bounds used to
        # return (0, kappa) for it, on an infinite cutoff raise NoRootError
        for prof in (slice_profile(_unit_ball_barrier(), PSS(3)),
                     slice_profile(exponential(3), PSS(3))):
            with pytest.raises(EmptyLevelError):
                level_interval(prof, math.nan)
            with pytest.raises(EmptyLevelError):
                level_bounds(prof, np.array([prof.log_sup - 1.0, math.nan]))
            with pytest.raises(EmptyLevelError):
                x_update_radius(prof, math.nan, 0.5)

    def test_round_trip(self):
        # both endpoints must return to the queried level
        for target, fac in [(exponential(5), PSS(5)),
                            (volcano(4, 2.0), PSS(4)),
                            (gaussian(10), PSS(10)),
                            (volcano(3, 2.0), USS())]:
            prof = slice_profile(target, fac)
            for depth in (0.5, 3.0, 12.0):
                log_t = prof.log_sup - depth
                r_lo, r_hi = level_interval(prof, log_t)
                assert log_h(target, fac, r_hi) == pytest.approx(log_t, abs=1e-10)
                if r_lo > 0.0:
                    assert log_h(target, fac, r_lo) == pytest.approx(log_t, abs=1e-10)

    def test_unreachable_level_raises(self):
        # a flat profile never climbs to the level, so the anchor search
        # toward r = 0 must stop with a named error instead of searching on
        flat = RadialTarget(phi=lambda r: 0.0 * r, dphi=lambda r: 0.0 * r, tag="flat")
        prof = SliceProfile(flat, alpha=0.0, r_mode=0.0, log_sup=math.inf)
        with pytest.raises(NoRootError):
            level_interval(prof, 1.0)
        with pytest.raises(NoRootError):
            level_bounds(prof, np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("log_t", [-1e-61, -1e-70, -1e-99])
    def test_uss_exponential_next_to_the_supremum(self, log_t):
        # e^{-r} > e^{log_t} on [0, -log_t); the anchor search toward 0 used
        # to stop at 2**-199 and raise NoRootError on levels this close to 0
        r_lo, r_hi = level_interval(slice_profile(exponential(3), USS()), log_t)
        assert r_lo == 0.0
        assert r_hi == pytest.approx(-log_t, rel=1e-12)
        assert math.isfinite(level_set_function(exponential(3), USS()).log(log_t))

    @pytest.mark.parametrize("log_t", [-1e-101, -1e-200, -1e-300])
    @pytest.mark.parametrize("target, root", [
        (exponential(3), lambda log_t: -log_t),
        (gaussian(3), lambda log_t: math.sqrt(-2.0 * log_t)),
    ], ids=["exponential", "gaussian"])
    def test_uss_levels_up_to_the_supremum(self, target, root, log_t):
        # a non-increasing profile's supremum is its limit at r = 0; read at
        # r = 1e-100 it was -1e-100 for exponential and -5e-201 for gaussian,
        # and the levels above it raised EmptyLevelError
        prof = slice_profile(target, USS())
        assert -1e-320 < prof.log_sup <= 0.0
        r_lo, r_hi = level_interval(prof, log_t)
        assert r_lo == 0.0
        assert r_hi == pytest.approx(root(log_t), rel=1e-12)
        assert math.isfinite(level_set_function(target, USS()).log(log_t))

    @pytest.mark.parametrize("log_t", [-1e-310, -1e-320, -1e-323])
    def test_uss_exponential_subnormal_levels(self, log_t):
        # the search toward 0 ends at 2**-1024, where e^{-r} is below these
        # levels; the anchor is then the smallest positive float
        prof = slice_profile(exponential(3), USS())
        assert prof.log_sup > log_t
        r_lo, r_hi = level_interval(prof, log_t)
        assert r_lo == 0.0 and r_hi == -log_t
        assert math.isfinite(level_set_function(exponential(3), USS()).log(log_t))

    def test_uss_gaussian_subnormal_level(self):
        # phi(r) = r^2/2 is itself subnormal next to the root, so only the
        # bracket is checked
        r_lo, r_hi = level_interval(slice_profile(gaussian(3), USS()), -1e-320)
        assert r_lo == 0.0 and 0.0 < r_hi

    def test_vectorized_matches_scalar(self):
        prof = slice_profile(gaussian(6), PSS(6))
        lts = prof.log_sup - np.array([0.3, 1.0, 5.0, 20.0])
        lo, hi = level_bounds(prof, lts)
        for i, lt in enumerate(lts):
            r_lo, r_hi = level_interval(prof, float(lt))
            assert lo[i] == pytest.approx(r_lo, rel=1e-10, abs=1e-12)
            assert hi[i] == pytest.approx(r_hi, rel=1e-10)


# Depths below the supremum: more levels than a level_bounds chunk has
# rungs, so that most are solved between two rungs.
_MANY_DEPTHS = np.concatenate([[1e-3, 0.5, 3.0, 5.0, 12.0, 40.0],
                               np.geomspace(1e-3, 40.0, 3 * levelset._CHUNK_RUNGS)])


def _stub_profile(target, base, fac):
    """The profile of ``target`` with the mode and supremum solved on ``base``."""
    prof = slice_profile(base, fac)
    return SliceProfile(target, fac.alpha, prof.r_mode, prof.log_sup)


class TestVectorizedSolver:
    @settings(max_examples=80, deadline=None)
    @given(tag=st.sampled_from(sorted(BUILTIN_TAGS)),
           sampler=st.sampled_from(["pss", "uss"]),
           d=st.integers(min_value=1, max_value=100),
           depth=st.floats(min_value=1e-3, max_value=60.0))
    def test_vectorized_matches_scalar_property(self, tag, sampler, d, depth):
        target = make_builtin(tag, d)
        fac = PSS(d) if sampler == "pss" else USS()
        prof = slice_profile(target, fac)
        log_t = (prof.log_sup if math.isfinite(prof.log_sup) else 0.0) - depth
        r_lo, r_hi = level_interval(prof, log_t)
        lo, hi = level_bounds(prof, np.array([log_t]))
        # a single level is its own rung, solved by level_interval itself
        assert lo[0] == pytest.approx(r_lo, rel=1e-12, abs=0)
        assert hi[0] == pytest.approx(r_hi, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_exponential_pss_matches_lambert_w(self, d):
        # (d-1) log r - r = log t has the roots -(d-1) W_k(-t^{1/(d-1)}/(d-1)),
        # branch k = 0 below the mode and k = -1 above it.  At d = 2 the lower
        # root 40 below the supremum is 1.5628821893349888e-18 (a stop width
        # of 1e-13 absolute gave 2.8e-14), and those at 150 and 300 below it,
        # 2.6e-66 and 1.9e-131, lie beyond 200 halvings of r_mode / 2
        prof = slice_profile(exponential(d), PSS(d))
        lts = prof.log_sup - np.concatenate([np.linspace(0.5, 450.0, 400), [40.0, 150.0, 300.0]])
        a = d - 1.0
        z = -np.exp(lts / a) / a
        lo_ref, hi_ref = -a * lambertw(z, 0).real, -a * lambertw(z, -1).real
        lo, hi = level_bounds(prof, lts)
        ivs = [level_interval(prof, float(lt)) for lt in lts]
        for got_lo, got_hi in ((lo, hi), tuple(zip(*ivs))):
            np.testing.assert_allclose(got_lo, lo_ref, rtol=1e-13, atol=0)
            np.testing.assert_allclose(got_hi, hi_ref, rtol=1e-13, atol=0)

    def test_evaluation_budget(self):
        # a fixed 110-step bisection per branch costs 228 phi evaluations
        # per level; the Newton solve needs about 27 phi + dphi evaluations
        base, fac = exponential(5), PSS(5)
        count = [0]

        def counted(fn):
            def wrapped(r):
                count[0] += np.size(r)
                return fn(r)
            return wrapped

        target = RadialTarget(phi=counted(base.phi), dphi=counted(base.dphi), dim=5)
        prof = _stub_profile(target, base, fac)
        lts = prof.log_sup - np.linspace(0.5, 8.0, 10_000)
        level_bounds(prof, lts)
        assert count[0] / lts.size <= 40

    def test_nan_derivative_converges_by_bisection(self):
        base, fac = gaussian(4), PSS(4)
        stub = RadialTarget(phi=base.phi, dphi=lambda r: np.full(np.shape(r), np.nan),
                            dim=4)
        prof = _stub_profile(stub, base, fac)
        lts = prof.log_sup - _MANY_DEPTHS
        lo, hi = level_bounds(prof, lts)
        lo_ref, hi_ref = level_bounds(slice_profile(base, fac), lts)
        np.testing.assert_allclose(lo, lo_ref, rtol=1e-12)
        np.testing.assert_allclose(hi, hi_ref, rtol=1e-12)

    def _check_against_scalar(self, target, fac, depths):
        prof = slice_profile(target, fac)
        lts = prof.log_sup - np.asarray(depths)
        lo, hi = level_bounds(prof, lts)
        for i, lt in enumerate(lts):
            r_lo, r_hi = level_interval(prof, float(lt))
            assert lo[i] == pytest.approx(r_lo, rel=1e-12, abs=1e-13)
            assert hi[i] == pytest.approx(r_hi, rel=1e-12, abs=1e-13)

    def test_finite_difference_derivative(self):
        # without dphi the central difference must run on arrays, silently
        target = RadialTarget(phi=lambda r: 0.5 * r * r, dim=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self._check_against_scalar(target, PSS(3), _MANY_DEPTHS)


def _unit_ball_barrier():
    """phi = -log(1 - r) in d=3: a finite cutoff at kappa = 1."""
    return RadialTarget(phi=lambda r: -np.log(1.0 - r), dphi=lambda r: 1.0 / (1.0 - r),
                        kappa=1.0, dim=3, tag="barrier")


class TestScalarSolver:
    def test_finite_cutoff_mode(self):
        # h(r) = r^2 (1 - r) peaks where 2r = 3r^2
        assert mode_radius(_unit_ball_barrier(), PSS(3)) == pytest.approx(
            2.0 / 3.0, rel=0, abs=1e-12)

    def test_finite_cutoff_scalar_matches_vectorized(self):
        # from about 37 below the supremum the upper root 1 - e^{-depth}
        # lies within one float spacing of kappa = 1, where phi and dphi
        # are infinite: neither solver may evaluate them there
        depths = np.concatenate([np.geomspace(1e-4, 25.0, 50), np.linspace(30.0, 60.0, 61)])
        for fac in (PSS(3), USS()):
            prof = slice_profile(_unit_ball_barrier(), fac)
            lts = prof.log_sup - depths
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lo, hi = level_bounds(prof, lts)
                for i, lt in enumerate(lts):
                    r_lo, r_hi = level_interval(prof, float(lt))
                    assert r_lo == pytest.approx(lo[i], rel=0, abs=1e-12)
                    assert r_hi == pytest.approx(hi[i], rel=0, abs=1e-12)
            assert np.all(hi <= 1.0)
            assert np.all(hi[depths >= 40.0] == 1.0)

    def test_evaluation_budget_on_sweep_levels(self):
        # 301 levels of a T chain in each desk sweep cell: the bisection to
        # a 1e-13 bracket took 66 phi evaluations per level, the Newton
        # iteration about 12 phi + 8.5 dphi
        count = [0]

        def counted(fn):
            def wrapped(r):
                count[0] += 1
                return fn(r)
            return wrapped

        levels = 0
        for d in DESK_DIMS:
            for fac in (PSS(d), USS()):
                base = exponential(d)
                target = RadialTarget(phi=counted(base.phi), dphi=counted(base.dphi),
                                      dim=d)
                prof = _stub_profile(target, base, fac)
                lts = run_t_chain(base, fac, 300, prof.log_sup - 1.0, seed=d)
                for lt in lts:
                    level_interval(prof, float(lt))
                levels += lts.size
        assert count[0] / levels <= 24

    def test_evaluation_budget_on_chain_steps(self):
        # the X chains of the desk sweep, 1000 burn-in steps included: solved
        # from nothing, each level took 21.65 phi + dphi evaluations a step;
        # bracketed by the chain's ladder, rung solves included, 10.46
        count = [0]

        def counted(fn):
            def wrapped(r):
                count[0] += 1
                return fn(r)
            return wrapped

        n, steps = 11_000, 0
        seed = ExperimentConfig().base_seed
        for d in DESK_DIMS:
            for sampler, fac in (("pss", PSS(d)), ("uss", USS())):
                base = exponential(d)
                target = RadialTarget(phi=counted(base.phi), dphi=counted(base.dphi),
                                      dim=d)
                run_x_chain(target, fac, n, float(max(d - 1, 1)),
                            row_seed(seed, d, sampler, 0))
                steps += n
        assert count[0] / steps <= 12

    @pytest.mark.parametrize("base, fac, dphi", [
        (gaussian(4), PSS(4), lambda r: math.nan),
        (volcano(4, 2.0), USS(), lambda r: 0.0 * r),
    ], ids=["nan", "zero"])
    def test_degenerate_derivative_converges_by_bisection(self, base, fac, dphi):
        # a NaN g', or g' = 0 exactly (alpha = 0 and dphi = 0), has no
        # Newton step: every step must bisect, on both branches (the volcano
        # profile at r = 0 lies 4 below its supremum)
        stub = RadialTarget(phi=base.phi, dphi=dphi, dim=base.dim)
        prof = _stub_profile(stub, base, fac)
        for depth in (1e-3, 0.5, 2.0, 3.5):
            lo, hi = level_interval(prof, prof.log_sup - depth)
            want_lo, want_hi = level_interval(slice_profile(base, fac), prof.log_sup - depth)
            assert lo > 0.0
            assert lo == pytest.approx(want_lo, rel=1e-12, abs=0)
            assert hi == pytest.approx(want_hi, rel=1e-12, abs=0)

    def test_finite_difference_stays_inside_support(self):
        # without dphi, a fixed 1e-6 central-difference step would evaluate
        # phi outside (0, kappa) near either end of a level
        def phi(r):
            if np.any((r <= 0.0) | (r >= 1.0)):
                raise AssertionError("phi evaluated outside (0, 1)")
            return -np.log(1.0 - r)

        barrier = slice_profile(RadialTarget(phi=phi, kappa=1.0, dim=2), USS())
        _, r_hi = level_interval(barrier, -20.0)
        assert r_hi == pytest.approx(-math.expm1(-20.0), rel=1e-12, abs=0)
        # one level is one scalar solve: levels between rungs are what run
        # the vector Newton iteration and its finite-difference dphi
        lts = np.append(np.linspace(-21.0, -19.0, 3 * levelset._CHUNK_RUNGS), -20.0)
        _, hi = level_bounds(barrier, lts)
        np.testing.assert_allclose(hi, -np.expm1(lts), rtol=1e-12, atol=0)
        # 2 log r - r^2/2 at 40 below its supremum: root from mpmath
        quadratic = slice_profile(
            RadialTarget(phi=lambda r: 0.5 * np.exp(2.0 * np.log(r)), dim=3), PSS(3))
        r_lo, _ = level_interval(quadratic, quadratic.log_sup - 40.0)
        assert r_lo == pytest.approx(1.767983138683731e-09, rel=1e-12, abs=0)

    def test_bisection_is_capped(self):
        # f never reaches the level: shrinking [1e-300, 1e300] to a 1e-13
        # bracket takes about 1040 halvings, far beyond the cap
        with pytest.raises(NoRootError):
            levelset._bisect(lambda x: -1.0, 0.0, 1e-300, 1e300)


class TestLadder:
    """A chain's ladder gives the level intervals of :func:`level_interval`."""

    @settings(max_examples=80, deadline=None)
    @given(tag=st.sampled_from(sorted(BUILTIN_TAGS)),
           sampler=st.sampled_from(["pss", "uss"]),
           d=st.integers(min_value=1, max_value=100),
           depth=st.floats(min_value=1e-3, max_value=300.0))
    def test_matches_level_interval_property(self, tag, sampler, d, depth):
        # the ladder has no floor; within 1/16 of the supremum is its top cell
        target = make_builtin(tag, d)
        fac = PSS(d) if sampler == "pss" else USS()
        prof = slice_profile(target, fac)
        log_t = (prof.log_sup if math.isfinite(prof.log_sup) else 0.0) - depth
        r_lo, r_hi = levelset._ladder(prof)(log_t)
        want_lo, want_hi = level_interval(prof, log_t)
        assert r_lo == pytest.approx(want_lo, rel=1e-12, abs=0)
        assert r_hi == pytest.approx(want_hi, rel=1e-12, abs=0)

    @pytest.mark.parametrize("depth, rel",
                             [(1e-3, 0.0), (0.03, 0.0), (0.0624, 0.0),
                              (64.01, 1e-12), (70.0, 1e-12), (300.0, 1e-12)],
                             ids=["top-cell-1", "top-cell-2", "top-cell-3",
                                  "below-1", "below-2", "below-3"])
    def test_off_the_ladder_is_level_interval(self, depth, rel):
        # the top cell is level_interval itself; below rung 0 the rungs reach
        # down without a floor and agree with it as everywhere on the ladder
        prof = slice_profile(exponential(5), PSS(5))
        interval = levelset._ladder(prof)
        log_t = prof.log_sup - depth
        r_lo, r_hi = interval(log_t)
        want_lo, want_hi = level_interval(prof, log_t)
        assert r_lo == pytest.approx(want_lo, rel=rel, abs=0)
        assert r_hi == pytest.approx(want_hi, rel=rel, abs=0)

    def test_no_floor_below_the_ladder(self, monkeypatch):
        # USS levels sit about d below the supremum: at d = 100 a chain runs
        # under rung 0, where each step used to solve its own level
        calls = []
        solve = levelset.level_interval
        monkeypatch.setattr(levelset, "level_interval",
                            lambda prof, lt: calls.append(lt) or solve(prof, lt))
        radii = run_x_chain(exponential(100), USS(), 20_000, 99.0, 1)
        assert np.all(np.isfinite(radii)) and len(calls) <= 1_500

    def test_finite_cutoff(self):
        # beyond about 37 below the supremum the rungs' upper roots are
        # kappa = 1 itself
        for fac in (PSS(3), USS()):
            prof = slice_profile(_unit_ball_barrier(), fac)
            interval = levelset._ladder(prof)
            depths = np.geomspace(1e-3, 60.0, 120)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for depth in depths:
                    lt = float(prof.log_sup - depth)
                    r_lo, r_hi = interval(lt)
                    want_lo, want_hi = level_interval(prof, lt)
                    assert r_lo == pytest.approx(want_lo, rel=1e-12, abs=0)
                    assert r_hi == pytest.approx(want_hi, rel=1e-12, abs=0)
                    assert r_hi < 1.0 if depth <= 30.0 else r_hi <= 1.0
                    if depth >= 40.0:
                        assert r_hi == 1.0

    def test_nan_derivative_bisects_inside_the_rungs(self):
        base, fac = gaussian(4), PSS(4)
        seen = []

        def phi(r):
            seen.append(r)
            return base.phi(r)

        prof = _stub_profile(RadialTarget(phi=phi, dphi=lambda r: math.nan, dim=4),
                             base, fac)
        ref = slice_profile(base, fac)
        interval = levelset._ladder(prof)
        for depth in (0.1, 0.7, 5.03, 40.01):
            log_t = prof.log_sup - depth
            interval(log_t)  # solves the rungs on either side
            seen.clear()
            r_lo, r_hi = interval(log_t)
            want_lo, want_hi = level_interval(ref, log_t)
            assert r_lo == pytest.approx(want_lo, rel=1e-12, abs=0)
            assert r_hi == pytest.approx(want_hi, rel=1e-12, abs=0)
            # every evaluation lies between the two rungs' roots
            k = int((log_t - (prof.log_sup - 64.0)) * 16)
            (lo0, hi0), (lo1, hi1) = (level_interval(ref, prof.log_sup - 64.0 + j / 16)
                                      for j in (k, k + 1))
            assert seen and all(lo0 <= r <= lo1 or hi1 <= r <= hi0 for r in seen)

    def test_lower_root_underflowing_between_rungs(self):
        # h = r^0.01 e^{-r}: r_lo = 0 (no float below the level) from about
        # 7.1 below the supremum, so one pair of rungs straddles r_lo = 0
        prof = slice_profile(exponential(3), RadialFactorization(0.01))
        interval = levelset._ladder(prof)
        lows = []
        for lt in prof.log_sup - np.linspace(6.0, 9.0, 241):
            r_lo, r_hi = interval(float(lt))
            want_lo, want_hi = level_interval(prof, float(lt))
            assert r_lo == pytest.approx(want_lo, rel=1e-12, abs=0)
            assert r_hi == pytest.approx(want_hi, rel=1e-12, abs=0)
            lows.append(r_lo)
        assert lows[0] > 0.0 and lows[-1] == 0.0


def _across(target, fac, top, bottom):
    """More levels than a level_bounds chunk holds, shuffled, at depths from
    ``top`` to ``bottom`` below the profile supremum (below 0 if infinite)."""
    prof = slice_profile(target, fac)
    depths = np.random.default_rng(0).permutation(
        np.geomspace(top, bottom, levelset._CHUNK + 3 * levelset._CHUNK_RUNGS))
    return prof, (prof.log_sup if math.isfinite(prof.log_sup) else 0.0) - depths


class TestRungs:
    """``level_bounds`` solves a chunk's levels between rungs solved by
    :func:`level_interval`, and gives its intervals to rel 1e-12, on
    shuffled levels and on sorted ones, which skip the sort."""

    def _check(self, prof, lts):
        want_lo, want_hi = np.array([level_interval(prof, lt) for lt in lts.tolist()]).T
        for order in (np.argsort(lts), np.arange(lts.size)):
            lo, hi = level_bounds(prof, lts[order])
            np.testing.assert_allclose(lo, want_lo[order], rtol=1e-12, atol=0)
            np.testing.assert_allclose(hi, want_hi[order], rtol=1e-12, atol=0)
        return lo, hi

    @pytest.mark.parametrize("sampler", ["pss", "uss"])
    @pytest.mark.parametrize("tag", sorted(BUILTIN_TAGS))
    def test_builtin_targets(self, tag, sampler):
        # from 0.05 below the supremum: nearer, see the next test
        fac = PSS(5) if sampler == "pss" else USS()
        self._check(*_across(make_builtin(tag, 5), fac, 0.05, 60.0))

    def test_radial_weighted_pss_near_the_supremum(self):
        # h = e^{-r}, evaluated as 4 log r - (r + 4 log r): within 0.05 of
        # the supremum its rounding, of the order of 4 |log r| ulp, moves
        # the root r_hi = -log t by up to 1.7e-12 relative for either
        # solver, so both are held to the exact root, not to each other
        prof, lts = _across(radial_weighted_exponential(5), PSS(5), 1e-3, 0.05)
        lo, hi = level_bounds(prof, lts)
        want_lo, want_hi = np.array([level_interval(prof, lt) for lt in lts.tolist()]).T
        for got_lo, got_hi in ((lo, hi), (want_lo, want_hi)):
            assert np.all(got_lo == 0.0)
            np.testing.assert_allclose(got_hi, -lts, rtol=3e-12, atol=0)

    def test_volcano_uss_across_the_origin(self):
        # h(0) = e^{-4} lies 4 below the supremum: r_lo = 0 below it
        lo, _ = self._check(*_across(volcano(4, 2.0), USS(), 3.0, 5.0))
        assert np.any(lo == 0.0) and np.any(lo > 0.0)

    def test_barrier_across_the_cutoff(self):
        # from about 37 below the supremum r_hi = kappa = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, hi = self._check(*_across(_unit_ball_barrier(), PSS(3), 30.0, 45.0))
        assert np.any(hi == 1.0) and np.any(hi < 1.0)

    def test_lower_root_underflow(self):
        # h = r^0.01 e^{-r}: r_lo = 0 from about 7.1 below the supremum
        lo, _ = self._check(*_across(exponential(3), RadialFactorization(0.01), 6.0, 9.0))
        assert np.any(lo == 0.0) and np.any(lo > 0.0)

    @pytest.mark.parametrize("target, fac, top, bottom", [
        (volcano(4, 2.0), USS(), 3.0, 5.0),
        (_unit_ball_barrier(), PSS(3), 30.0, 45.0),
        (exponential(3), RadialFactorization(0.01), 6.0, 9.0),
        (gaussian(5), PSS(5), 0.05, 60.0),
    ], ids=["volcano-uss", "barrier", "lower-underflow", "gaussian-pss"])
    def test_order_of_a_chunk_moves_no_bit(self, target, fac, top, bottom):
        # one chunk, some levels repeated: sorted, descending and shuffled
        # copies and the np.unique copy, which skips the sort, pick the same
        # rungs, so every radius is the same float
        prof, lts = _across(target, fac, top, bottom)
        lts = np.concatenate((lts[:levelset._CHUNK - 100], lts[:100]))
        increasing = np.sort(lts)
        want = level_bounds(prof, increasing)
        for order in (increasing[::-1], lts, np.unique(lts)):
            got = level_bounds(prof, order)
            back = np.searchsorted(increasing, order)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w[back])

    @pytest.mark.parametrize("target, fac, top, bottom", [
        (volcano(4, 2.0), USS(), 3.0, 5.0),
        (gaussian(5), PSS(5), 0.05, 60.0),
    ], ids=["volcano-uss", "gaussian-pss"])
    def test_newton_batch_moves_no_bit(self, monkeypatch, target, fac, top, bottom):
        # elements that stop early wait on a zero-width bracket until the
        # arrays shrink: each must end where it ends when solved alone
        problems = []
        newton = levelset._newton_log_radius

        def record(*args):
            problems.append([a.copy() if isinstance(a, np.ndarray) else a for a in args])
            return newton(*args)

        monkeypatch.setattr(levelset, "_newton_log_radius", record)
        level_bounds(*_across(target, fac, top, bottom))
        target, alpha, lt, a, b, u = problems[0]
        batch = newton(target, alpha, lt, a, b, u)
        some = np.arange(0, lt.size, 7)
        alone = [newton(target, alpha, lt[i:i + 1], a[i:i + 1], b[i:i + 1], u[i:i + 1])[0]
                 for i in some.tolist()]
        np.testing.assert_array_equal(batch[some], alone)

    @pytest.mark.parametrize("top, bottom", [(3.0, 5.0), (1e-6, 1e-2), (1e-12, 1e-6)],
                             ids=["across-the-origin", "near-the-mode", "next-to-the-mode"])
    def test_refused_steps_bisect_and_converge(self, monkeypatch, top, bottom):
        # volcano USS: g' vanishes at the mode r = 2 and flattens toward
        # r = 0, whose level e^-4 the first levels straddle, so some Newton
        # steps leave their bracket or do not halve; those elements narrow
        # the bracket and bisect it, and still end at level_interval's roots
        refused = []
        narrow = levelset._narrow

        def counted(lo, *rest):
            refused.append(lo.size)
            return narrow(lo, *rest)

        monkeypatch.setattr(levelset, "_narrow", counted)
        self._check(*_across(volcano(4, 2.0), USS(), top, bottom))
        # two level_bounds calls, each with 208 refused elements or more
        assert sum(refused) >= 400

    def test_one_level_is_one_scalar_solve(self, monkeypatch):
        base = exponential(5)
        calls = {"level_interval": 0, "array_phi": 0}
        solve = levelset.level_interval

        def counted_solve(prof, log_t):
            calls["level_interval"] += 1
            return solve(prof, log_t)

        def phi(r):
            calls["array_phi"] += isinstance(r, np.ndarray)
            return base.phi(r)

        prof = slice_profile(RadialTarget(phi=phi, dphi=base.dphi, dim=5), PSS(5))
        want = level_interval(prof, prof.log_sup - 2.0)
        monkeypatch.setattr(levelset, "level_interval", counted_solve)
        for size in (1, 100):
            calls.update(level_interval=0, array_phi=0)
            lo, hi = level_bounds(prof, np.full(size, prof.log_sup - 2.0))
            assert calls == {"level_interval": 1, "array_phi": 0}
            assert np.all(lo == want[0]) and np.all(hi == want[1])


def test_bracket_searches_run_on_one_point():
    """levelset.py has two bracket searches, the generators ``_deepening``
    toward 0 and ``_outward`` away from it, and every use of them sits in
    ``mode_radius``, ``level_interval`` or ``canonical_potential``: arrays
    of levels are bracketed by rungs."""
    tree = ast.parse(Path(levelset.__file__).read_text())
    searches = {"_deepening", "_outward"}
    generators = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)
                  and any(isinstance(y, ast.Yield) for y in ast.walk(n))}
    assert generators == searches

    def uses(node):
        return sum(isinstance(n, ast.Name) and n.id in searches for n in ast.walk(node))

    owners = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
              and n.name in {"mode_radius", "level_interval", "canonical_potential"}]
    assert len(owners) == 3 and all(uses(n) > 0 for n in owners)
    assert uses(tree) == sum(uses(n) for n in owners)


class TestEllEval:
    def test_radial_weighted_exponential_is_logarithmic(self):
        # PSS profile is e^{-r}, so ell(t) = sigma_2 * log(1/t)
        val = level_set_function(radial_weighted_exponential(3), PSS(3)).log(-1.0)
        assert math.exp(val) == pytest.approx(4.0 * math.pi, rel=1e-10)

    def test_uss_exponential_disc_area(self):
        # level set of e^{-r} > e^{-2} in d=2 is the radius-2 disc
        val = level_set_function(exponential(2), USS()).log(-2.0)
        assert math.exp(val) == pytest.approx(math.pi * 4.0, rel=1e-10)

    def test_empty_level_gives_zero(self):
        target = exponential(3)
        ell = level_set_function(target, PSS(3))
        assert ell.eval(ell.log_support_sup + 0.5) == 0.0

    def test_nan_level_is_empty(self):
        # NaN is not below the supremum: ell used to read 0 there, no error
        ell = level_set_function(exponential(3), PSS(3))
        with pytest.raises(EmptyLevelError):
            ell.eval(np.array([math.nan, -1.0]))
        with pytest.raises(EmptyLevelError):
            ell.log(math.nan)

    def test_monotone_and_vanishing(self):
        for target, fac in [(exponential(5), PSS(5)), (gaussian(3), USS())]:
            ell = level_set_function(target, fac)
            s = np.linspace(ell.log_support_sup - 30.0,
                            ell.log_support_sup - 1e-6, 200)
            vals = ell.log(s)
            assert np.all(np.diff(vals) < 0)
            assert ell.eval(ell.log_support_sup - 1e-12) < 1e-5 * ell.eval(s[0])

    def test_limit_for_finite_cutoff(self):
        from slicegap.targets import RadialTarget
        target = RadialTarget(phi=lambda r: -np.log(1.0 - r), kappa=1.0, dim=2)
        ell = level_set_function(target, USS())
        # the level set fills the unit disc as t -> 0: ell -> pi
        assert ell.eval(-700.0) == pytest.approx(math.pi, rel=1e-12)

    def test_infinite_limit(self):
        # ell(t) = sigma_2 log(1/t) grows without bound as t -> 0
        ell = level_set_function(radial_weighted_exponential(3), PSS(3))
        assert ell.eval(-1e5) == pytest.approx(100.0 * ell.eval(-1e3), rel=1e-12)


class TestLambdaK:
    def test_pss_convex_class_is_lambda1(self):
        for target in [exponential(5), volcano(5, 2.0), gaussian(5)]:
            ell = level_set_function(target, PSS(5))
            report = lambda_k_check(ell, 1)
            assert report.passed, report.violations

    def test_uss_exponential_lambda_d(self):
        ell = level_set_function(exponential(3), USS())
        assert lambda_k_check(ell, 3).passed

    def test_uss_exponential_fails_lambda1(self):
        # ell(e^{-s})^{1} = (sigma_2/3) s^3 is convex, not concave
        ell = level_set_function(exponential(3), USS())
        report = lambda_k_check(ell, 1)
        assert not report.passed
        assert any(v["check"] == "root_concavity" for v in report.violations)

    def test_probe_validation(self):
        ell = level_set_function(exponential(3), PSS(3))
        with pytest.raises(DomainError):
            lambda_k_check(ell, 0)

    @pytest.mark.parametrize("k", [math.inf, math.nan, True], ids=["inf", "nan", "bool"])
    def test_non_integer_k_rejected(self, k):
        ell = level_set_function(exponential(3), PSS(3))
        with pytest.raises(DomainError, match="^k must be a positive integer"):
            lambda_k_check(ell, k)
        with pytest.raises(DomainError, match="^k must be a positive integer"):
            canonical_inverse_phi(ell, k, 1.0)

    @staticmethod
    def _checks(log_eval):
        """The violated checks of ``lambda_k_check`` at k = 1 for an ell
        with support supremum 1 (log 0)."""
        ell = LevelSetFunction(log_eval=log_eval, log_support_sup=0.0)
        return {v["check"] for v in lambda_k_check(ell, 1).violations}

    def test_constant_ell_violates_boundary_and_decrease(self):
        # ell = 1 below the supremum: no vanishing at the edge, no decrease
        flat = lambda lt: np.where(lt < 0.0, 0.0, -np.inf)
        assert self._checks(flat) == {"boundary_limit", "strict_decrease"}

    def test_increasing_ell_violates_positive_limit(self):
        # ell = t^30 underflows to 0 at the deep end of the probe grid
        assert "positive_limit" in self._checks(lambda lt: 30.0 * lt)

    def test_infinite_support_rejected(self):
        ell = LevelSetFunction(log_eval=lambda lt: -lt, log_support_sup=math.inf)
        with pytest.raises(DomainError, match="finite support"):
            lambda_k_check(ell, 1)

    def test_report_serializes(self):
        ell = level_set_function(exponential(3), PSS(3))
        d = asdict(lambda_k_check(ell, 1))
        assert d["k"] == 1 and d["passed"] is True and d["violations"] == []


class TestCanonicalConstruction:
    def test_logarithmic_ell_k1(self):
        # ell(t) = sigma_2 log(1/t): phi^{-1}(1) = sigma_2/sigma_0 = 2 pi
        ell = level_set_function(radial_weighted_exponential(3), PSS(3))
        assert canonical_inverse_phi(ell, 1, 1.0) == pytest.approx(
            2.0 * math.pi, rel=1e-10)

    def test_radius_vanishes_at_empty_level(self):
        # approaching the level where ell hits zero, the radius collapses
        ell = level_set_function(exponential(3), PSS(3))
        s_edge = -ell.log_support_sup
        assert canonical_inverse_phi(ell, 1, s_edge + 1e-13) < 1e-4

    def test_uss_exponential_recovers_identity(self):
        # USS on Exponential in dimension d with k=d gives phi^{-1}(s) = s
        for d in (2, 4, 7):
            ell = level_set_function(exponential(d), USS())
            for s in (0.5, 1.0, 3.0, 10.0):
                assert canonical_inverse_phi(ell, d, s) == pytest.approx(
                    s, rel=1e-9)

    def test_round_trip(self):
        # numeric inversion undoes phi^{-1} to 1e-8; the last three have
        # s0 < -64 (exponential PSS d=30: 29 log 29 - 29), where one ulp of s
        # exceeds 1e-14, so the stop width must scale with |s|
        cases = [(level_set_function(exponential(5), PSS(5)), 1),
                 (level_set_function(gaussian(4), PSS(4)), 1),
                 (level_set_function(exponential(3), USS()), 3),
                 (level_set_function(exponential(30), PSS(30)), 1),
                 (level_set_function(exponential(50), PSS(50)), 1),
                 (level_set_function(gaussian(100), PSS(100)), 1)]
        for ell, k in cases:
            s0 = -ell.log_support_sup
            for s in (s0 + 0.25, s0 + 2.0, s0 + 9.0):
                r = canonical_inverse_phi(ell, k, s)
                assert canonical_potential(ell, k, r) == pytest.approx(
                    s, abs=1e-8)

    def test_domain_errors(self):
        ell = level_set_function(exponential(3), PSS(3))
        with pytest.raises(DomainError):
            canonical_inverse_phi(ell, 1, -ell.log_support_sup - 1.0)
        with pytest.raises(DomainError):
            canonical_inverse_phi(ell, 0, 1.0)
        with pytest.raises(DomainError):
            canonical_potential(ell, 1, 0.0)


class TestDefaultProbe:
    def test_inside_open_support(self):
        # lambda_k_check probes 200 levels, all inside the open support
        ell = level_set_function(exponential(4), PSS(4))
        calls = []

        def recording(lt):
            calls.append(np.array(lt))
            return ell.log_eval(lt)

        lambda_k_check(replace(ell, log_eval=recording), 1)
        probe = calls[0]
        assert probe.size == 200
        assert np.all(probe < ell.log_support_sup)
