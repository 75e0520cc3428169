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

from slicegap.levelset import level_interval, level_set_function, log_h_sup, slice_profile
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
DEPTHS = np.geomspace(1e-6, 100.0, 16)


def _t_chain_gaussian_pss_3():
    target = gaussian(3)
    sup = log_h_sup(target, PSS(3))
    return run_t_chain(target, PSS(3), STEPS, sup - 1.0, seed=404).values


def _x_step_radii_exponential_uss_5():
    radii = np.linspace(0.25, 12.0, DRAWS)
    return x_step_radii(exponential(5), USS(), radii, make_rng(505))


def _t_step_levels_gaussian_pss_5():
    target = gaussian(5)
    levels = log_h_sup(target, PSS(5)) - np.linspace(0.05, 25.0, DRAWS)
    return t_step_levels(target, PSS(5), levels, make_rng(606))


def _scalar_solver(target, fac):
    """Mode, log supremum, then ``r_lo`` and ``r_hi`` at each depth below it."""
    prof = slice_profile(target, fac)
    r_lo, r_hi = zip(*(level_interval(prof, prof.log_sup - depth) for depth in DEPTHS))
    return [prof.r_mode, prof.log_sup, *r_lo, *r_hi]


CASES = {
    "run_x_chain/exponential/pss/d=10":
        lambda: run_x_chain(exponential(10), PSS(10), STEPS, 9.0, seed=101).values,
    "run_x_chain/exponential/uss/d=30":
        lambda: run_x_chain(exponential(30), USS(), STEPS, 29.0, seed=202).values,
    "run_x_chain/volcano/pss/d=5/full_vector":
        lambda: run_x_chain(volcano(5, 2.0), PSS(5), STEPS, 4.0, seed=303,
                            full_vector=True).values,
    "run_t_chain/gaussian/pss/d=3": _t_chain_gaussian_pss_3,
    "x_step_radii/exponential/uss/d=5": _x_step_radii_exponential_uss_5,
    "t_step_levels/gaussian/pss/d=5": _t_step_levels_gaussian_pss_5,
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
