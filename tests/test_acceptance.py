"""Acceptance suite: one test per acceptance criterion, one verdict line each.

Each test prints "[criterion N] PASS/FAIL — summary" before asserting, so a
plain ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
Criterion 2 is expected-fail: the demanded gap spread over d ∈ {2,…,100} is
contradicted by three independent computations (see the dimension-
independence test body for the measured values).
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from slicegap.diagnostics import iat
from slicegap.harness import (
    ExperimentConfig,
    _adjointness_checks,
    _equivalence_checks,
    _kernel_mc_check,
    _ks_checks,
    iat_sweep,
)
from slicegap.kernel import (
    build_tgrid,
    certify_gap,
    discretize_pt,
    spectral_gap,
)
from slicegap.levelset import (
    canonical_inverse_phi,
    canonical_potential,
    lambda_k_check,
    level_set_function,
)
from slicegap.targets import (
    RadialFactorization,
    exponential,
    gaussian,
    make_builtin,
    volcano,
)

PSS = RadialFactorization.pss
USS = RadialFactorization.uss

BASE_SEED = 20_240_901


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_gap_certification():
    """Convex-potential targets under PSS: gap >= 0.48 with stable refinement."""
    cases = [("exponential", {}), ("volcano", {"c": 2.0}), ("gaussian", {})]
    dims = (2, 5, 10, 50, 100)
    worst_gap, worst_delta = math.inf, 0.0
    for tag, params in cases:
        for d in dims:
            ell = level_set_function(make_builtin(tag, d, **params), PSS(d))
            est = certify_gap(ell, n=2048)
            worst_gap = min(worst_gap, est.gap)
            worst_delta = max(worst_delta, est.refinement_delta)
    ok = worst_gap >= 0.48 and worst_delta <= 0.005
    _verdict(1, ok, f"min gap {worst_gap:.4f} (>= 0.48), "
                    f"max refinement delta {worst_delta:.2e} (<= 5e-3)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="The true gap spread of PSS on the Exponential target over "
    "d in {2,...,100} is 0.060 (gap rises from 0.6055 at d=2 toward the 2/3 "
    "large-d limit), exceeding the demanded 0.03. Confirmed by three "
    "independent oracles: the converged flux-symmetric kernel, a node-based "
    "quadrature eigensolve with an exact Lambert-W level-set function at "
    "d=2, and T-chain simulation of the second eigenfunction's lag-1 "
    "autocorrelation. The theorem's uniform 1/2 lower bound does hold "
    "everywhere with margin >= 0.10.")
def test_criterion_2_dimension_independence():
    """Gap spread of PSS/Exponential across dimensions 2..100."""
    gaps = {}
    for d in (2, 3, 5, 10, 20, 50, 100):
        ell = level_set_function(exponential(d), PSS(d))
        gaps[d] = spectral_gap(discretize_pt(ell, build_tgrid(ell, 2048))).gap
    spread = max(gaps.values()) - min(gaps.values())
    ok = spread <= 0.03
    _verdict(2, ok, f"gap spread {spread:.4f} over d in {sorted(gaps)} "
                    f"(demanded <= 0.03); gaps {dict((k, round(v, 4)) for k, v in gaps.items())}")
    assert ok


def test_criterion_3_ell_equivalence_and_duality():
    """PSS on the radial-weighted exponential vs USS on its 1-D counterpart,
    as verify checks them, d = 2, ..., 10."""
    rows = _equivalence_checks()
    worst_ell = max(r["max_ell_abs_diff"] for r in rows)
    worst_gap_diff = max(r["gap_diff"] for r in rows)
    min_gap = min(min(r["gap_pss"], r["gap_uss_1d"]) for r in rows)
    ok = (len(rows) == 9 and worst_ell <= 1e-10 and worst_gap_diff <= 1e-9
          and min_gap >= 0.48)
    _verdict(3, ok, f"max |ell difference| {worst_ell:.2e} (<= 1e-10), "
                    f"max gap difference {worst_gap_diff:.2e} (<= 1e-9), "
                    f"min gap {min_gap:.4f} (>= 0.48)")
    assert ok


def test_criterion_4_lambda_suite():
    """Class membership: Lambda_1 for the convex class, Lambda_d for USS."""
    convex_ok = all(
        lambda_k_check(level_set_function(t, PSS(t.dim)), 1).passed
        for t in (exponential(5), volcano(5, 2.0), gaussian(5),
                  exponential(50), gaussian(100)))
    ell_uss = level_set_function(exponential(3), USS())
    uss_ok = lambda_k_check(ell_uss, 3).passed \
        and not lambda_k_check(ell_uss, 1).passed
    round_trip_err = 0.0
    for ell, k in [(level_set_function(exponential(5), PSS(5)), 1),
                   (ell_uss, 3)]:
        s0 = -ell.log_support_sup
        for s in (s0 + 0.5, s0 + 4.0):
            r = canonical_inverse_phi(ell, k, s)
            round_trip_err = max(round_trip_err,
                                 abs(canonical_potential(ell, k, r) - s))
    ok = convex_ok and uss_ok and round_trip_err <= 1e-8
    _verdict(4, ok, f"Lambda_1 convex class {convex_ok}, USS Lambda_3 pass / "
                    f"Lambda_1 fail {uss_ok}, canonical round-trip error "
                    f"{round_trip_err:.2e} (<= 1e-8)")
    assert ok


def test_criterion_5_figure1_desk_scale():
    """Dimension sweep of radius IATs: flat for PSS, growing for USS."""
    t0 = time.time()
    cfg = ExperimentConfig(base_seed=BASE_SEED)
    result = iat_sweep(cfg, max_workers=4)
    runtime = time.time() - t0
    pss = [r["iat"] for r in result["rows"] if r["sampler"] == "pss"]
    uss2 = np.mean([r["iat"] for r in result["rows"]
                    if r["sampler"] == "uss" and r["d"] == 2])
    uss30 = np.mean([r["iat"] for r in result["rows"]
                     if r["sampler"] == "uss" and r["d"] == 30])
    ok = (max(pss) <= 4.0 and np.mean(pss) <= 2.0
          and uss30 >= 3.0 * uss2 and runtime < 300.0)
    _verdict(5, ok, f"max PSS IAT {max(pss):.2f} (<= 4), mean PSS IAT "
                    f"{np.mean(pss):.2f} (<= 2), USS d=30/d=2 ratio "
                    f"{uss30 / uss2:.1f} (>= 3), runtime {runtime:.0f}s (< 300)")
    assert ok


def test_criterion_6_stationarity_ks():
    """One-step invariance of both chains for every builtin target."""
    worst = 0.0
    n_checks = 0
    for tag, params in [("exponential", {}), ("volcano", {"c": 2.0}),
                        ("gaussian", {}), ("radial_weighted_exponential", {})]:
        cfg = ExperimentConfig(target=tag, target_params=params)
        for check in _ks_checks(cfg, dims=(2, 5, 10), seed=BASE_SEED):
            worst = max(worst, check["statistic"])
            n_checks += 1
    ok = n_checks == 48 and worst <= 0.02
    _verdict(6, ok, f"worst of {n_checks} KS statistics {worst:.4f} (<= 0.02)")
    assert ok


def test_criterion_7_kernel_identity():
    """Quadrature of P_T vs one-step Monte Carlo frequencies."""
    checks = _kernel_mc_check(BASE_SEED + 1)
    worst = max(abs(c["quadrature"] - c["monte_carlo"]) / c["tolerance"]
                for c in checks)
    ok = all(c["status"] == "pass" for c in checks) and len(checks) == 10
    _verdict(7, ok, f"10 probes, worst |quad - MC| at {worst:.2f} of its "
                    f"binomial tolerance")
    assert ok


def test_criterion_8_adjointness():
    """Update operators are adjoint between the two stationary geometries."""
    checks = _adjointness_checks()
    worst = max(c["residual"] for c in checks)
    ok = all(c["status"] == "pass" for c in checks)
    _verdict(8, ok, f"max normalized residual {worst:.2e} (<= 1e-6)")
    assert ok


def test_criterion_9_ar1_iat_calibration():
    """IAT estimator against the analytic AR(1) value of 3."""
    hits = 0
    values = []
    for rep in range(20):
        rng = np.random.default_rng(1000 + rep)
        e = rng.normal(size=10_000)
        y = np.empty(10_000)
        y[0] = e[0]
        for i in range(1, 10_000):
            y[i] = 0.5 * y[i - 1] + e[i]
        est = iat(y)
        values.append(est.iat)
        hits += 2.7 <= est.iat <= 3.3
    ok = hits >= 18
    _verdict(9, ok, f"{hits}/20 replications inside [2.7, 3.3] (need >= 18), "
                    f"mean estimate {np.mean(values):.2f}")
    assert ok
