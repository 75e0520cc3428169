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
import scipy.stats
from scipy.integrate import cumulative_trapezoid, simpson

from .errors import DomainError
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
    _t_step_levels,
    PiTildeSampler,
    RadialStationarySampler,
    run_x_chain,
    t_step_levels,
    x_step_radii,
    make_rng,
)
from .targets import BUILTIN_TAGS, RadialFactorization, make_builtin

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

# One-step transitions drawn per probe level by the kernel-identity check.
_KERNEL_MC_DRAWS = 1_000_000

IAT_CSV_HEADER = ["d", "sampler", "rep", "seed", "iat", "truncation_lag",
                  "wall_time_ms", "iat_mean", "iat_sd"]


@dataclass
class ExperimentConfig:
    """Declarative description of a sweep/table/report run."""

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
        self.samplers = tuple(str(s).lower() for s in self.samplers)
        self.dims = tuple(int(d) for d in self.dims)
        if not self.dims:
            raise DomainError("dims must be nonempty")
        if any(d < 1 for d in self.dims):
            raise DomainError("dims must be positive integers")
        if self.n_it < 10:
            raise DomainError(f"n_it must be >= 10, got {self.n_it}")
        if self.n_rep < 1:
            raise DomainError("n_rep must be >= 1")
        if self.target.lower() not in BUILTIN_TAGS:
            raise DomainError(f"unknown target tag {self.target!r}")
        for s in self.samplers:
            if s not in ("pss", "uss"):
                raise DomainError(f"unknown sampler {s!r} (expected 'pss' or 'uss')")
        if any(int(k) < 1 for k in self.lambda_ks):
            raise DomainError("lambda_ks entries must be positive integers")

    @staticmethod
    def paper_scale(**overrides) -> "ExperimentConfig":
        """Full-size setting of the published sweep."""
        base = dict(dims=tuple(PAPER_DIMS), n_it=100_000, n_rep=10)
        base.update(overrides)
        return ExperimentConfig(**base)

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

    def to_dict(self) -> dict:
        out = asdict(self)
        out["samplers"] = list(self.samplers)
        out["dims"] = list(self.dims)
        out["lambda_ks"] = list(self.lambda_ks)
        return out


def row_seed(base_seed: int, d: int, sampler: str, rep: int) -> int:
    """Stable per-row seed: base_seed XOR a digest of the row coordinates."""
    digest = hashlib.sha256(f"{d}:{sampler}:{rep}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & (2**64 - 1)


def _factorization(sampler: str, d: int) -> RadialFactorization:
    return RadialFactorization.pss(d) if sampler == "pss" else RadialFactorization.uss()


def _iat_cell(args: tuple) -> dict:
    """One (d, sampler, rep) cell; top-level so process pools can run it."""
    tag, params, d, sampler, rep, seed, n_it = args
    target = make_builtin(tag, d, **params)
    fac = _factorization(sampler, d)
    init_radius = float(max(d - 1, 1))
    burn = n_it // 10
    t0 = time.perf_counter()
    trace = run_x_chain(target, fac, n_it + burn, init_radius, seed)
    est = iat(trace.values[burn:])
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
    standard deviation; deterministic given the config.
    """
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
    return {"config": config.to_dict(), "rows": rows, "summaries": summaries}


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
    for d in config.dims:
        for s in config.samplers:
            target = make_builtin(config.target, d, **config.target_params)
            fac = _factorization(s, d)
            ell = level_set_function(target, fac)
            est = kernelmod.certify_gap(ell, n=config.grid_size,
                                        mass_tol=config.mass_tol)
            out.append({"target": config.target, "alpha": fac.alpha, "d": d,
                        **est.to_dict()})
    return out


def check_lambda(config: ExperimentConfig) -> list:
    """Membership reports per (target, sampler, d, k) in the config grid."""
    out = []
    for d in config.dims:
        for s in config.samplers:
            target = make_builtin(config.target, d, **config.target_params)
            fac = _factorization(s, d)
            ell = level_set_function(target, fac)
            for k in config.lambda_ks:
                report = lambda_k_check(ell, int(k))
                out.append({"target": config.target, "alpha": fac.alpha,
                            "d": d, **report.to_dict()})
    return out


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def _ks_checks(config: ExperimentConfig, dims, seed: int) -> list:
    """One-step stationarity KS tests for the X- and T-chains."""
    results = []
    n = config.ks_sample
    if n < 1000:
        return [{"check": "ks_stationarity", "status": "skipped",
                 "detail": f"sample size {n} is underpowered (need >= 1000)"}]
    for d in dims:
        for s in config.samplers:
            target = make_builtin(config.target, d, **config.target_params)
            fac = _factorization(s, d)
            rng = make_rng(seed, 0)
            radial = RadialStationarySampler(target)
            r0 = radial.sample(rng, n)
            r1 = x_step_radii(target, fac, r0, rng)
            r_ref = radial.sample(rng, n)
            ks_x = scipy.stats.ks_2samp(r1, r_ref).statistic
            ell = level_set_function(target, fac)
            pit = PiTildeSampler(ell)
            s0 = pit.sample(rng, n)
            s1 = t_step_levels(target, fac, s0, rng)
            s_ref = pit.sample(rng, n)
            ks_t = scipy.stats.ks_2samp(s1, s_ref).statistic
            for label, stat in (("x_chain", ks_x), ("t_chain", ks_t)):
                results.append({
                    "check": "ks_stationarity", "chain": label,
                    "target": config.target, "sampler": s, "d": d,
                    "statistic": float(stat),
                    "status": "pass" if stat <= 0.02 else "fail",
                })
    return results


def _kernel_mc_check(seed: int) -> list:
    """Transition-probability quadrature vs one-step Monte Carlo frequency."""
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
        s1 = _t_step_levels(prof, float(s0), rng, size=_KERNEL_MC_DRAWS)
        p_mc = float(np.mean(s1 < s0))
        tol = 3.0 * math.sqrt(max(p_quad * (1 - p_quad), 1e-12) / _KERNEL_MC_DRAWS) + 1e-4
        out.append({
            "check": "kernel_identity", "log_t": float(s0),
            "quadrature": p_quad, "monte_carlo": p_mc, "tolerance": tol,
            "status": "pass" if abs(p_quad - p_mc) <= tol else "fail",
        })
    return out


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
    the product of the function norms.
    """
    d = target.dim
    alpha = fac.alpha
    beta = d - alpha
    prof_rad = slice_profile(target, RadialFactorization(float(d - 1)))
    r_lo_rad, r_hi_rad = level_interval(prof_rad, prof_rad.log_sup - 60.0)
    r_a = max(r_lo_rad, 1e-12)

    # dense radial grid for all quadratures
    r = np.linspace(r_a, r_hi_rad, (1 << 17) + 1)
    log_rho = (d - 1) * np.log(r) - target.phi_vec(r)
    rho = np.exp(log_rho - np.max(log_rho))           # scaled radial density
    c_norm = simpson(rho, x=r)                        # scaled normalization
    p1 = np.exp(alpha * np.log(r) - target.phi_vec(r))  # slice profile

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
    pi_t_norm = simpson(pi_t_weight, x=x_var)

    # cumulative integrals of r^{beta-1} h(r) for the set-update averages
    base = r ** (beta - 1.0)

    worst = 0.0
    for h_fn in _RADIAL_TESTS:
        h_vals = h_fn(r)
        cum = np.concatenate([[0.0], cumulative_trapezoid(base * h_vals, r)])
        num = np.interp(r_hi_t, r, cum) - np.interp(np.maximum(r_lo_t, r_a), r, cum)
        ux_h = num / den                               # (U_X h)(t) on the level grid

        norm_h = math.sqrt(max(simpson(rho * h_vals**2, x=r) / c_norm, 0.0))
        for g_fn, g_moment in _LEVEL_TESTS:
            # LHS: pi-average of h(r) times the mean of g under Unif(0, p1(r))
            mean_g = g_moment(p1) / p1
            lhs = simpson(rho * h_vals * mean_g, x=r) / c_norm
            # RHS: level-law average of g(t) (U_X h)(t)
            g_vals = g_fn(t_grid)
            rhs = simpson(pi_t_weight * g_vals * ux_h, x=x_var) / pi_t_norm
            norm_g = math.sqrt(max(simpson(pi_t_weight * g_vals**2, x=x_var)
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
    from .targets import radial_weighted_exponential, surface_area, RadialTarget
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
    return {"config": config.to_dict(), "checks": checks,
            "n_checks": len(checks), "n_failed": len(failed),
            "status": "pass" if not failed else "fail"}
