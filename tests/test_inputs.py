"""One table of outside input: every scalar number a public function takes
is checked once, before any work, and a bad one raises a ``DomainError``
whose message starts with the parameter's name.

Each parameter gets a bad value of each kind that applies to it: a bool, a
NaN, a string, a non-integral float where an integer is due, and a value
out of its range.  Functions that take a target or a level-set function get
ones that record every ``phi``/``dphi`` evaluation, so the test also sees
that the check came first.
"""

import math

import numpy as np
import pytest

from slicegap.diagnostics import autocorr, iat, iat_bound_from_gap
from slicegap.errors import DomainError
from slicegap.harness import ExperimentConfig, iat_sweep, row_seed
from slicegap.kernel import build_tgrid, certify_gap, duality_gap_compare, transition_cdf
from slicegap.levelset import (canonical_inverse_phi, canonical_potential, lambda_k_check,
                               level_bounds, level_interval, level_set_function,
                               slice_profile)
from slicegap.samplers import make_rng, run_t_chain, run_x_chain
from slicegap.targets import (RadialFactorization, RadialTarget, log_surface_area, make_builtin,
                              radial_weighted_exponential, volcano)

# Evaluations of the recording target's phi and dphi since the last clear.
CALLS = []


def _phi(r):
    CALLS.append("phi")
    return r


def _dphi(r):
    CALLS.append("dphi")
    return 1.0


# exp(-||x||) in three dimensions under PSS, with its log support supremum
TARGET = RadialTarget(phi=_phi, dphi=_dphi, dim=3)
PSS = RadialFactorization(2.0)
ELL = level_set_function(TARGET, PSS)
PROF = slice_profile(TARGET, PSS)
# exp(-3||x||) cut off at the unit ball, where level -inf has the whole ball
CUTOFF = slice_profile(RadialTarget(phi=lambda r: 3.0 * _phi(r), dphi=lambda r: 3.0 * _dphi(r),
                                    kappa=1.0, dim=3), PSS)
S_SUP = ELL.log_support_sup
TRACE = np.random.default_rng(0).normal(size=20)
CONFIG = ExperimentConfig(dims=(2,), samplers=("pss",), n_it=10, n_rep=1)

NUMBER = [True, math.nan, "1"]              # bad for every parameter
INTEGER = NUMBER + [2.5, 3.0, math.inf]     # also bad where an integer is due

# (parameter, message prefix, call with the bad value, bad values, checked
# before any phi or dphi evaluation)
ROWS = [
    ("RadialTarget.kappa", "kappa", lambda v: RadialTarget(phi=_phi, kappa=v, dim=3),
     NUMBER + ["x", 1 + 0j, 0.0, -1.0], True),
    ("RadialTarget.dim", "dim", lambda v: RadialTarget(phi=_phi, dim=v),
     INTEGER + [0], True),
    ("RadialFactorization.alpha", "alpha", RadialFactorization,
     NUMBER + ["x", 1 + 0j, math.inf, -0.5], True),
    ("RadialFactorization.pss.dim", "dim", RadialFactorization.pss, INTEGER + [0], True),
    ("log_surface_area.d", "d", log_surface_area, INTEGER + [0], True),
    ("volcano.c", "volcano offset c", lambda v: volcano(3, v),
     NUMBER + [math.inf, 0.0, 1e14, 1e300], True),
    ("radial_weighted_exponential.dim", "dim", radial_weighted_exponential,
     INTEGER + [0], True),
    ("make_builtin.tag", "tag", lambda v: make_builtin(v, 3), [5, None, True, "cauchy"], True),
    ("build_tgrid.n", "grid size", lambda v: build_tgrid(ELL, v),
     INTEGER + [64.0, 0], True),
    ("certify_gap.n", "grid size", lambda v: certify_gap(ELL, v),
     INTEGER + [64.0, 1], True),
    ("duality_gap_compare.n", "grid size", lambda v: duality_gap_compare(ELL, ELL, v),
     INTEGER + [64.0, 1], True),
    ("run_x_chain.n", "n", lambda v: run_x_chain(TARGET, PSS, v, 1.0, 1),
     INTEGER + [-1], True),
    ("run_t_chain.n", "n", lambda v: run_t_chain(TARGET, PSS, v, -3.0, 1),
     INTEGER + [-1], True),
    ("run_x_chain.init_radius", "init_radius",
     lambda v: run_x_chain(TARGET, PSS, 5, v, 1), NUMBER + [math.inf, 0.0, -1.0], True),
    ("run_t_chain.init_log_t", "init_log_t",
     lambda v: run_t_chain(TARGET, PSS, 5, v, 1), NUMBER + [math.inf, -math.inf], True),
    # a level at or above the supremum is known only once the profile is solved
    ("run_t_chain.init_log_t above the supremum", "init_log_t",
     lambda v: run_t_chain(TARGET, PSS, 5, v, 1), [S_SUP, S_SUP + 1.0], False),
    ("run_x_chain.seed", "seed", lambda v: run_x_chain(TARGET, PSS, 5, 1.0, v),
     INTEGER, True),
    ("run_t_chain.seed", "seed", lambda v: run_t_chain(TARGET, PSS, 5, -3.0, v),
     INTEGER, True),
    ("make_rng.base_seed", "base_seed", make_rng, INTEGER, True),
    ("row_seed.base_seed", "base_seed", lambda v: row_seed(v, 2, "pss", 0), INTEGER, True),
    ("make_rng.chain_index", "chain_index", lambda v: make_rng(1, v), INTEGER + [-1], True),
    ("iat.max_lag", "max_lag", lambda v: iat(TRACE, v), INTEGER + [-1], True),
    ("autocorr.max_lag", "max_lag", lambda v: autocorr(TRACE, v),
     INTEGER + [-1, TRACE.size], True),
    # a NaN level, like one at or above the supremum, is an EmptyLevelError
    ("level_interval.log_t", "log_t", lambda v: level_interval(PROF, v),
     [True, "1", 1 + 0j, -math.inf], True),
    ("level_bounds.log_t", "log_t",
     lambda v: level_bounds(CUTOFF, np.array([CUTOFF.log_sup - 1.0, v])), [-math.inf], True),
    ("transition_cdf.log_t", "log_t", lambda v: transition_cdf(ELL, v, S_SUP - 1.0),
     NUMBER + [-math.inf, math.inf, S_SUP, S_SUP + 1.0], True),
    ("transition_cdf.log_b", "log_b", lambda v: transition_cdf(ELL, S_SUP - 1.0, v),
     NUMBER, True),
    ("canonical_potential.r", "r", lambda v: canonical_potential(ELL, 3, v),
     NUMBER + [math.inf, 0.0, -1.0], True),
    ("canonical_inverse_phi.s", "s", lambda v: canonical_inverse_phi(ELL, 3, v),
     NUMBER + [math.inf, -S_SUP, -S_SUP - 1.0], True),
    ("canonical_inverse_phi.k", "k", lambda v: canonical_inverse_phi(ELL, v, 1.0 - S_SUP),
     INTEGER + [0], True),
    ("lambda_k_check.k", "k", lambda v: lambda_k_check(ELL, v), INTEGER + [0], True),
    ("iat_bound_from_gap.gap", "gap", iat_bound_from_gap,
     NUMBER + [math.inf, 0.0, -0.5], True),
    ("iat_sweep.max_workers", "max_workers", lambda v: iat_sweep(CONFIG, max_workers=v),
     INTEGER + [0], True),
]

CASES = [pytest.param(call, prefix, value, before_work, id=f"{param}-{value!r}")
         for param, prefix, call, values, before_work in ROWS for value in values]


@pytest.mark.parametrize("call, prefix, value, before_work", CASES)
def test_outside_input_rejected(call, prefix, value, before_work):
    CALLS.clear()
    with pytest.raises(DomainError) as exc:
        call(value)
    assert str(exc.value).startswith(f"{prefix} must be ")
    if before_work:
        assert CALLS == []


def test_valid_input_still_runs():
    # the values next to the rejected ones above pass
    assert build_tgrid(ELL, 1).n == 1
    assert run_x_chain(TARGET, PSS, 0, 1.0, -1).tolist() == [1.0]
    assert transition_cdf(ELL, S_SUP - 1.0, -math.inf) == 0.0
    assert transition_cdf(ELL, S_SUP - 1.0, math.inf) == pytest.approx(1.0, abs=1e-12)
    assert iat_bound_from_gap(np.float64(0.5)) == 4.0
    assert make_rng(np.int64(3), np.uint8(1)).random() == make_rng(3, 1).random()
    assert make_rng(10**400).random() == make_rng(10**400 % 2**64).random()  # not a float
    assert volcano(3, 1e8).tag == "volcano"
    assert make_builtin("Gaussian", 3).tag == "gaussian"
    assert row_seed(np.int64(5), 2, "pss", 0) == row_seed(5, 2, "pss", 0)
