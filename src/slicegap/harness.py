"""Experiment drivers: IAT sweeps, gap tables, class reports, verification.

Everything here is deterministic given the configuration: per-row seeds are
derived from the base seed and the row coordinates by a stable hash, rows
are computed in a process pool and then sorted, and all configuration
defaults are echoed into the output metadata.  Output files are CSV/JSON
only; byte-identical across runs except for wall-time fields.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .errors import DomainError, check_number
from . import kernel as kernelmod
from .diagnostics import iat
from .levelset import (
    lambda_k_check,
    level_bounds,
    level_interval,
    level_set_function,
    slice_profile,
)
from .samplers import (
    _fraction_stepped_below,
    PiTildeSampler,
    RadialStationarySampler,
    run_x_chain,
    t_step_levels,
    x_step_radii,
    make_rng,
)
from .targets import (
    BUILTIN_TAGS,
    RadialFactorization,
    RadialTarget,
    make_builtin,
    radial_weighted_exponential,
    surface_area,
)

__all__ = [
    "ExperimentConfig",
    "row_seed",
    "iat_sweep",
    "gap_table",
    "check_lambda",
    "verify",
    "adjointness_check",
    "write_iat_csv",
    "IAT_CSV_HEADER",
]

DESK_DIMS = [1, 2, 3, 5, 10, 20, 30]
PAPER_DIMS = [1, 2, 3, 5, 10, 20, 30, 50, 75, 100]
# The published sweep's full size, which the CLI's --paper-scale merges in.
PAPER_SCALE = dict(dims=tuple(PAPER_DIMS), n_it=100_000, n_rep=10)

# One-step transitions drawn per probe level by the kernel-identity check.
_KERNEL_MC_DRAWS = 1_000_000

IAT_CSV_HEADER = ["d", "sampler", "rep", "seed", "iat", "truncation_lag",
                  "wall_time_ms", "iat_mean", "iat_sd"]


def _sequence(name: str, values):
    """``values`` if it is a list or a tuple (not a string or a scalar)."""
    if not isinstance(values, (list, tuple)):
        raise DomainError(f"{name} must be a list, got {values!r}")
    return values


@dataclass
class ExperimentConfig:
    """Declarative description of a run, validated by ``__post_init__`` (which
    ``dataclasses.replace`` runs too) and echoed by ``dataclasses.asdict``."""

    target: str = "exponential"
    target_params: dict = field(default_factory=dict)
    samplers: tuple = ("pss", "uss")
    dims: tuple = tuple(DESK_DIMS)
    n_it: int = 10_000
    n_rep: int = 5
    base_seed: int = 20_240_901
    grid_size: int = 2048
    mass_tol: float = 1e-8
    lambda_ks: tuple = (1,)
    ks_sample: int = 10_000
    out: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.target_params, dict):
            raise DomainError(f"target_params must be a mapping, got {self.target_params!r}")
        self.samplers = tuple(str(s).lower() for s in _sequence("samplers", self.samplers))
        for name in ("dims", "lambda_ks"):
            setattr(self, name, tuple(
                check_number(f"each {name} entry", x, "a positive integer", lambda v: v >= 1,
                             integer=True) for x in _sequence(name, getattr(self, name))))
        self.n_it = check_number("n_it", self.n_it, ">= 10, an integer",
                                 lambda v: v >= 10, integer=True)
        self.n_rep = check_number("n_rep", self.n_rep, ">= 1, an integer",
                                  lambda v: v >= 1, integer=True)
        for name in ("base_seed", "grid_size", "ks_sample"):
            setattr(self, name, check_number(name, getattr(self, name), "an integer",
                                             integer=True))
        check_number("mass_tol", self.mass_tol, "a number in (0, 1)", lambda v: 0 < v < 1)
        if not isinstance(self.out, (str, type(None))):
            raise DomainError(f"out must be a path, got {self.out!r}")
        for name in ("samplers", "dims", "lambda_ks"):
            if not getattr(self, name):
                raise DomainError(f"{name} must be nonempty")
        if not isinstance(self.target, str) or self.target.lower() not in BUILTIN_TAGS:
            raise DomainError(f"unknown target tag {self.target!r}")
        for s in self.samplers:
            if s not in ("pss", "uss"):
                raise DomainError(f"unknown sampler {s!r} (expected 'pss' or 'uss')")

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise DomainError("config file must contain a JSON object")
        known = set(ExperimentConfig().__dict__)
        unknown = set(raw) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**raw)



def row_seed(base_seed: int, d: int, sampler: str, rep: int) -> int:
    """Stable per-row seed: base_seed XOR a digest of the row coordinates."""
    base_seed = check_number("base_seed", base_seed, "an integer", integer=True)
    digest = hashlib.sha256(f"{d}:{sampler}:{rep}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & (2**64 - 1)


def _factorization(sampler: str, d: int) -> RadialFactorization:
    return RadialFactorization.pss(d) if sampler == "pss" else RadialFactorization.uss()


def _cases(config: ExperimentConfig, dims):
    """``(d, sampler, target, factorization)`` for each dimension in ``dims``
    and each sampler of the config, building one target per dimension."""
    for d in dims:
        target = make_builtin(config.target, d, **config.target_params)
        for s in config.samplers:
            yield d, s, target, _factorization(s, d)


def _iat_cell(args: tuple) -> dict:
    """One (d, sampler, rep) cell; top-level so process pools can run it."""
    tag, params, d, sampler, rep, seed, n_it = args
    target = make_builtin(tag, d, **params)
    fac = _factorization(sampler, d)
    init_radius = float(max(d - 1, 1))
    burn = n_it // 10
    t0 = time.perf_counter()
    est = iat(run_x_chain(target, fac, n_it + burn, init_radius, seed)[burn:])
    wall_ms = (time.perf_counter() - t0) * 1e3
    return {
        "d": d, "sampler": sampler, "rep": rep, "seed": seed,
        "iat": est.iat, "truncation_lag": est.truncation_lag,
        "wall_time_ms": wall_ms,
        "init_radius": init_radius, "burn_in": burn,
    }


def iat_sweep(config: ExperimentConfig, max_workers: Optional[int] = None) -> dict:
    """Run the dimension sweep of radius-trace IATs for each sampler.

    Returns per-rep rows plus rep=-1 summary rows carrying mean and
    standard deviation; deterministic given the config.  ``max_workers``,
    None or a positive integer, sizes a process pool when above 1.
    """
    if max_workers is not None:
        check_number("max_workers", max_workers, "a positive integer", lambda v: v >= 1,
                     integer=True)
    jobs = [
        (config.target, config.target_params, d, s, rep,
         row_seed(config.base_seed, d, s, rep), config.n_it)
        for d in config.dims for s in config.samplers
        for rep in range(config.n_rep)
    ]
    if max_workers is not None and max_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            rows = list(pool.map(_iat_cell, jobs))
    else:
        rows = [_iat_cell(j) for j in jobs]
    order = {s: i for i, s in enumerate(config.samplers)}
    rows.sort(key=lambda r: (r["d"], order[r["sampler"]], r["rep"]))

    summaries = []
    for d in config.dims:
        for s in config.samplers:
            cell = [r["iat"] for r in rows if r["d"] == d and r["sampler"] == s]
            summaries.append({
                "d": d, "sampler": s, "rep": -1, "seed": config.base_seed,
                "iat": "", "truncation_lag": "", "wall_time_ms": "",
                "iat_mean": float(np.mean(cell)),
                "iat_sd": float(np.std(cell, ddof=1)) if len(cell) > 1 else 0.0,
            })
    return {"config": asdict(config), "rows": rows, "summaries": summaries}


def write_iat_csv(result: dict, path: str) -> None:
    """Serialize an iat_sweep result; metadata goes to a JSON sidecar."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=IAT_CSV_HEADER, extrasaction="ignore")
        writer.writeheader()
        for row in result["rows"]:
            writer.writerow({**row, "iat_mean": "", "iat_sd": ""})
        for row in result["summaries"]:
            writer.writerow(row)
    meta = {"config": result["config"],
            "per_row_extras": [{k: r[k] for k in ("d", "sampler", "rep",
                                                  "init_radius", "burn_in")}
                               for r in result["rows"]]}
    with open(path + ".json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)


def gap_table(config: ExperimentConfig) -> list:
    """Gap certificate per (target, sampler, d) in the config grid."""
    out = []
    for d, _, target, fac in _cases(config, config.dims):
        ell = level_set_function(target, fac)
        est = kernelmod.certify_gap(ell, n=config.grid_size,
                                    mass_tol=config.mass_tol)
        out.append({"target": config.target, "alpha": fac.alpha, "d": d,
                    **asdict(est)})
    return out


def check_lambda(config: ExperimentConfig) -> list:
    """Membership reports per (target, sampler, d, k) in the config grid."""
    out = []
    for d, _, target, fac in _cases(config, config.dims):
        ell = level_set_function(target, fac)
        for k in config.lambda_ks:
            report = lambda_k_check(ell, k)
            out.append({"target": config.target, "alpha": fac.alpha,
                        "d": d, **asdict(report)})
    return out


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic ``max |F_a - F_b|``, computed
    from integer ECDF counts so that it is exactly ``h / lcm(n_a, n_b)``."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    g = math.gcd(a.size, b.size)
    diff = (np.searchsorted(a, pooled, side="right") * (b.size // g)
            - np.searchsorted(b, pooled, side="right") * (a.size // g))
    return int(np.max(np.abs(diff))) / (a.size // g * b.size)


def _ks_checks(config: ExperimentConfig, dims, seed: int) -> list:
    """One-step stationarity KS tests for the X- and T-chains.

    A check passes when the statistic is at most ``2 / sqrt(n)`` for ``n``
    draws per sample (0.02 at the default 10,000).  That is ``sqrt(2)`` on
    the two-sample scale ``sqrt(n / 2) * statistic``, whose Kolmogorov tail
    is about 3.7%: the false-fail rate of each check, at every ``n``.
    """
    results = []
    n = config.ks_sample
    if n < 1000:
        return [{"check": "ks_stationarity", "status": "skipped",
                 "detail": f"sample size {n} is underpowered (need >= 1000)"}]
    bound = 2.0 / math.sqrt(n)
    oracles = {}
    for d, s, target, fac in _cases(config, dims):
        if d not in oracles:
            oracles[d] = RadialStationarySampler(target)
        radial = oracles[d]
        rng = make_rng(seed, 0)
        r0 = radial.sample(rng, n)
        r1 = x_step_radii(target, fac, r0, rng)
        r_ref = radial.sample(rng, n)
        ks_x = _ks_statistic(r1, r_ref)
        ell = level_set_function(target, fac)
        pit = PiTildeSampler(ell)
        s0 = pit.sample(rng, n)
        s1 = t_step_levels(target, fac, s0, rng)
        s_ref = pit.sample(rng, n)
        ks_t = _ks_statistic(s1, s_ref)
        for label, stat in (("x_chain", ks_x), ("t_chain", ks_t)):
            results.append({
                "check": "ks_stationarity", "chain": label,
                "target": config.target, "sampler": s, "d": d,
                "statistic": float(stat),
                "status": "pass" if stat <= bound else "fail",
            })
    return results


def _kernel_mc_check(seed: int) -> list:
    """Transition-probability quadrature vs one-step Monte Carlo frequency.

    At each of ten probe levels ``s0`` the quadrature of ``P_T(s0, (-inf,
    s0))`` is compared with the fraction of ``_KERNEL_MC_DRAWS`` one-step
    transitions from ``s0`` that land below it.  The transitions are
    counted in blocks (``_fraction_stepped_below``), so the check holds the
    draws' uniforms and block-sized temporaries, not ``N``-sized steps.
    """
    d = 5
    target = make_builtin("exponential", d)
    fac = RadialFactorization.pss(d)
    ell = level_set_function(target, fac)
    prof = slice_profile(target, fac)
    s_sup = ell.log_support_sup
    probes = np.linspace(s_sup - 8.0, s_sup - 0.5, 10)
    rng = make_rng(seed, 0)
    out = []
    for s0 in probes:
        p_quad = kernelmod.transition_cdf(ell, float(s0), float(s0))
        p_mc = _fraction_stepped_below(prof, float(s0), rng, _KERNEL_MC_DRAWS)
        tol = 3.0 * math.sqrt(max(p_quad * (1 - p_quad), 1e-12) / _KERNEL_MC_DRAWS) + 1e-4
        out.append({
            "check": "kernel_identity", "log_t": float(s0),
            "quadrature": p_quad, "monte_carlo": p_mc, "tolerance": tol,
            "status": "pass" if abs(p_quad - p_mc) <= tol else "fail",
        })
    return out


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule on an odd number of samples ``y`` at the
    evenly spaced points ``x``."""
    if y.size % 2 == 0:
        raise DomainError(f"Simpson's rule takes an odd number of samples, got {y.size}")
    h = (x[-1] - x[0]) / (y.size - 1)
    return float(h / 3.0 * (y[0] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]) + y[-1]))


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of ``y`` from ``x[0]`` to each point of ``x``
    (0 at the first), as ``scipy.integrate.cumulative_trapezoid`` with
    ``initial=0`` computes them."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


# Level test functions g paired with ``int_0^b g(t) dt``, and radial test
# functions h, for the adjointness identity.
_LEVEL_TESTS = (
    (np.ones_like, lambda b: b),
    (lambda t: t, lambda b: 0.5 * b * b),
    (lambda t: t * t, lambda b: b**3 / 3.0),
    (np.sin, lambda b: 1.0 - np.cos(b)),
)
_RADIAL_TESTS = (np.ones_like, lambda r: r, lambda r: r * r, lambda r: np.exp(-r))


def adjointness_check(target, fac) -> float:
    """Max normalized residual of the update-kernel adjointness identity.

    Both sides of ``<U_T g, h>_pi = <g, U_X h>_pi-tilde`` are evaluated by
    independent quadratures over the radial and level variables for every
    (g, h) pair of the fixed test functions; the residual is normalized by
    the product of the function norms.  The quadratures are composite
    Simpson and cumulative trapezoid rules on odd-sized grids, in numpy.
    """
    d = target.dim
    alpha = fac.alpha
    beta = d - alpha
    prof_rad = slice_profile(target, RadialFactorization(float(d - 1)))
    r_lo_rad, r_hi_rad = level_interval(prof_rad, prof_rad.log_sup - 60.0)
    r_a = max(r_lo_rad, 1e-12)

    # dense radial grid for all quadratures
    r = np.linspace(r_a, r_hi_rad, (1 << 17) + 1)
    log_rho = (d - 1) * np.log(r) - target.phi(r)
    rho = np.exp(log_rho - np.max(log_rho))           # scaled radial density
    c_norm = _simpson(rho, r)                         # scaled normalization
    p1 = np.exp(alpha * np.log(r) - target.phi(r))  # slice profile

    prof = slice_profile(target, fac)
    s_sup = prof.log_sup
    # substitute s = s_sup - v^2: the level-set function vanishes like
    # sqrt(s_sup - s) at the top level, and the substitution removes the
    # square-root endpoint singularity from the quadrature
    v_grid = np.linspace(math.sqrt(1e-12), math.sqrt(40.0), 4096 + 1)
    s_grid = s_sup - v_grid[::-1] ** 2
    t_grid = np.exp(s_grid)
    r_lo_t, r_hi_t = level_bounds(prof, s_grid)
    den = (r_hi_t**beta - r_lo_t**beta) / beta        # ell(t) up to a constant
    ell_scaled = den / np.max(den)
    x_var = -v_grid[::-1]
    jac = 2.0 * v_grid[::-1]                          # |ds/dv| on the s grid
    pi_t_weight = ell_scaled * t_grid * jac           # log-level law times ds/dv
    pi_t_norm = _simpson(pi_t_weight, x_var)

    # cumulative integrals of r^{beta-1} h(r) for the set-update averages
    base = r ** (beta - 1.0)

    worst = 0.0
    for h_fn in _RADIAL_TESTS:
        h_vals = h_fn(r)
        cum = _cumulative_trapezoid(base * h_vals, r)
        num = np.interp(r_hi_t, r, cum) - np.interp(np.maximum(r_lo_t, r_a), r, cum)
        ux_h = num / den                               # (U_X h)(t) on the level grid

        norm_h = math.sqrt(max(_simpson(rho * h_vals**2, r) / c_norm, 0.0))
        for g_fn, g_moment in _LEVEL_TESTS:
            # LHS: pi-average of h(r) times the mean of g under Unif(0, p1(r))
            mean_g = g_moment(p1) / p1
            lhs = _simpson(rho * h_vals * mean_g, r) / c_norm
            # RHS: level-law average of g(t) (U_X h)(t)
            g_vals = g_fn(t_grid)
            rhs = _simpson(pi_t_weight * g_vals * ux_h, x_var) / pi_t_norm
            norm_g = math.sqrt(max(_simpson(pi_t_weight * g_vals**2, x_var)
                                   / pi_t_norm, 0.0))
            denom = norm_g * norm_h
            if denom == 0.0:
                continue
            worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def _adjointness_checks() -> list:
    out = []
    cases = [("exponential", {}, 3, "pss"), ("volcano", {"c": 2.0}, 2, "uss")]
    for tag, params, d, s in cases:
        target = make_builtin(tag, d, **params)
        fac = _factorization(s, d)
        res = adjointness_check(target, fac)
        out.append({"check": "adjointness", "target": tag, "sampler": s,
                    "d": d, "residual": float(res),
                    "status": "pass" if res <= 1e-6 else "fail"})
    return out


def _equivalence_checks() -> list:
    out = []
    for d in range(2, 11):
        ell_pss = level_set_function(radial_weighted_exponential(d),
                                     RadialFactorization.pss(d))
        c_d = 2.0 / surface_area(d)
        oned = RadialTarget(phi=lambda r, c=c_d: c * r,
                            dphi=lambda r, c=c_d: c, dim=1, tag="exp1d")
        ell_uss = level_set_function(oned, RadialFactorization.uss())
        rep = kernelmod.duality_gap_compare(ell_pss, ell_uss)
        ok = rep.max_ell_abs_diff <= 1e-10 and rep.gap_diff <= 1e-9
        out.append({"check": "ell_equivalence", "d": d,
                    "max_ell_abs_diff": rep.max_ell_abs_diff,
                    "gap_pss": rep.gap_a, "gap_uss_1d": rep.gap_b,
                    "gap_diff": rep.gap_diff,
                    "status": "pass" if ok else "fail"})
    return out


def verify(config: ExperimentConfig) -> dict:
    """Run the stationarity, kernel-identity, adjointness and equivalence
    checks; overall status is pass iff no individual check failed."""
    checks = []
    checks += _ks_checks(config, (2, 5, 10), config.base_seed)
    checks += _kernel_mc_check(config.base_seed + 1)
    checks += _adjointness_checks()
    checks += _equivalence_checks()
    failed = [c for c in checks if c.get("status") == "fail"]
    return {"config": asdict(config), "checks": checks,
            "n_checks": len(checks), "n_failed": len(failed),
            "status": "pass" if not failed else "fail"}
