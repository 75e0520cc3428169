"""Chain and root-solver outputs checked against saved reference values.

``tests/data/reference_traces.json`` holds, for each case below, the values
the case produced when the file was written, as ``repr`` floats.  A
refactor that keeps the draws and their order leaves every value equal to
rounding; a slip in the order of the random draws moves values by O(1).
The ``level_interval`` cases hold the scalar root solver's outputs: the
profile mode, the log supremum and both endpoints on 16 levels.

Regenerate the file (only when a change of the traces is intended) with

    PYTHONPATH=src python tests/test_reference_traces.py [PREFIX ...]

Given name prefixes, only the cases whose names start with one of them are
rewritten; the others keep their saved values.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from slicegap.levelset import level_interval, level_set_function, slice_profile
from slicegap.samplers import (
    PiTildeSampler,
    RadialStationarySampler,
    make_rng,
    run_t_chain,
    run_x_chain,
    t_step_levels,
    x_step_radii,
)
from slicegap.targets import RadialFactorization, exponential, gaussian, volcano

DATA = Path(__file__).with_name("data") / "reference_traces.json"
PSS = RadialFactorization.pss
USS = RadialFactorization.uss
STEPS = 200
DRAWS = 64
REPEATS = 256
DEPTHS = np.geomspace(1e-6, 100.0, 16)


def _t_chain_gaussian_pss_3():
    target = gaussian(3)
    sup = slice_profile(target, PSS(3)).log_sup
    return run_t_chain(target, PSS(3), STEPS, sup - 1.0, seed=404)


def _x_step_radii_exponential_uss_5():
    radii = np.linspace(0.25, 12.0, DRAWS)
    return x_step_radii(exponential(5), USS(), radii, make_rng(505))


def _t_step_levels_gaussian_pss_5():
    target = gaussian(5)
    levels = slice_profile(target, PSS(5)).log_sup - np.linspace(0.05, 25.0, DRAWS)
    return t_step_levels(target, PSS(5), levels, make_rng(606))


def _t_step_levels_one_level(target, fac, seed):
    """``REPEATS`` steps from the one level three below the log supremum.

    Saved from ``REPEATS`` copies of the level, one step per copy."""
    s0 = slice_profile(target, fac).log_sup - 3.0
    return t_step_levels(target, fac, np.full(REPEATS, s0), make_rng(seed))


def _scalar_solver(target, fac):
    """Mode, log supremum, then ``r_lo`` and ``r_hi`` at each depth below it."""
    prof = slice_profile(target, fac)
    r_lo, r_hi = zip(*(level_interval(prof, prof.log_sup - depth) for depth in DEPTHS))
    return [prof.r_mode, prof.log_sup, *r_lo, *r_hi]


CASES = {
    "run_x_chain/exponential/pss/d=10":
        lambda: run_x_chain(exponential(10), PSS(10), STEPS, 9.0, seed=101),
    "run_x_chain/exponential/uss/d=30":
        lambda: run_x_chain(exponential(30), USS(), STEPS, 29.0, seed=202),
    "run_t_chain/gaussian/pss/d=3": _t_chain_gaussian_pss_3,
    "x_step_radii/exponential/uss/d=5": _x_step_radii_exponential_uss_5,
    "t_step_levels/gaussian/pss/d=5": _t_step_levels_gaussian_pss_5,
    "t_step_levels/exponential/pss/d=5/one_level":
        lambda: _t_step_levels_one_level(exponential(5), PSS(5), 909),
    "t_step_levels/gaussian/uss/d=5/one_level":
        lambda: _t_step_levels_one_level(gaussian(5), USS(), 1010),
    "RadialStationarySampler/exponential/d=3":
        lambda: RadialStationarySampler(exponential(3)).sample(make_rng(707), DRAWS),
    "PiTildeSampler/exponential/pss/d=3":
        lambda: PiTildeSampler(level_set_function(exponential(3), PSS(3))).sample(
            make_rng(808), DRAWS),
}
CASES.update({
    f"level_interval/{tag}/{name}/d={d}":
        lambda make=make, d=d, fac=fac: _scalar_solver(make(d), fac(d))
    for tag, make in (("exponential", exponential), ("volcano", volcano),
                      ("gaussian", gaussian))
    for name, fac in (("pss", PSS), ("uss", lambda d: USS()))
    for d in (2, 10, 30)
})


@pytest.fixture(scope="module")
def reference():
    with open(DATA) as fh:
        return json.load(fh)


def test_reference_file_covers_every_case(reference):
    assert sorted(reference) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference_trace(name, reference):
    got = np.asarray(CASES[name](), dtype=float)
    want = np.asarray(reference[name], dtype=float)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


if __name__ == "__main__":
    import sys

    prefixes = tuple(sys.argv[1:])
    DATA.parent.mkdir(exist_ok=True)
    traces = {}
    if prefixes:
        with open(DATA) as fh:
            traces = json.load(fh)
    traces.update({name: [float(v) for v in np.asarray(make())]
                   for name, make in CASES.items() if name.startswith(prefixes or "")})
    with open(DATA, "w") as fh:
        json.dump(traces, fh, indent=1, sort_keys=True)
        fh.write("\n")
