"""The three workloads: certify, sweep and verify.

Every workload is a closed loop with a single caller: the next call into
slicegap starts only after the previous one returned.  A workload object
turns the seed into inputs (``__init__``), builds what the timed part needs
(``setup``), runs one repetition (``run``) and judges one repetition's
outputs against the stored reference (``check``).  Only slicegap's public
API is called, always through module attributes looked up at call time, so
that a traced pass sees every call.

Outputs hold no timings, so the outputs of a traced and an untraced
repetition can be compared for equality.

``toy=True`` selects small inputs for the benchmark's own self-test; they
have their own reference outputs and the same checks.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random

# (tag, target parameters, sampler, d) -- fixed by the benchmark definition
CERTIFY_CASES = (
    ("exponential", {}, "pss", 10),
    ("volcano", {"c": 2.0}, "pss", 5),
    ("gaussian", {}, "pss", 100),
    ("exponential", {}, "uss", 30),
    ("radial_weighted_exponential", {}, "pss", 5),
)
# Exact gaps from the source paper: USS on the exponential target has gap
# 1/(d+1); PSS on the radial-weighted exponential has gap 1/2.
EXACT_GAPS = {"exponential/uss/d=30": 1.0 / 31.0,
              "radial_weighted_exponential/pss/d=5": 0.5}
GAP_REF_TOL = 1e-6
GAP_EXACT_TOL = 1e-4

DESK_DIMS = (1, 2, 3, 5, 10, 20, 30)
IAT_REL_TOL = 1e-9

VERIFY_KEY_FIELDS = ("check", "chain", "target", "sampler", "d", "log_t")


def _op(key: str, reason: str | None) -> dict:
    return {"op": key, "ok": reason is None, "reason": reason}


def _case_key(case) -> str:
    tag, _params, sampler, d = case
    return f"{tag}/{sampler}/d={d}"


class Certify:
    """``certify_gap(ell, n=2048)`` (which also solves at 2n) on five cases.

    The seed permutes the order of the cases; the cases themselves are
    fixed, so every seed is checked against the same reference gaps.
    """

    name = "certify"

    def __init__(self, seed: int, toy: bool = False):
        self.size = "toy" if toy else "full"
        self.n = 512 if toy else 2048
        self.cases = list(CERTIFY_CASES)
        random.Random(seed).shuffle(self.cases)

    def params(self) -> dict:
        return {"size": self.size, "n": self.n,
                "cases": [_case_key(c) for c in self.cases]}

    def setup(self, sg):
        state = []
        for case in self.cases:
            tag, params, sampler, d = case
            fac = (sg.RadialFactorization.pss(d) if sampler == "pss"
                   else sg.RadialFactorization.uss())
            ell = sg.level_set_function(sg.make_builtin(tag, d, **params), fac)
            state.append((_case_key(case), ell))
        return state

    def run(self, sg, state) -> list:
        out = []
        for key, ell in state:
            try:
                est = sg.certify_gap(ell, n=self.n)
            except Exception as exc:  # one failed operation; keep measuring
                out.append({"key": key, "error": repr(exc)})
                continue
            out.append({"key": key, "gap": est.gap, "lambda2": est.lambda2,
                        "refinement_delta": est.refinement_delta,
                        "converged": bool(est.converged)})
        return out

    def check(self, out: list, ref: dict) -> list:
        gaps = ref["gaps"]
        ops = []
        for row in out:
            key = row["key"]
            if "error" in row:
                ops.append(_op(key, f"raised {row['error']}"))
            elif not row["converged"]:
                ops.append(_op(key, "not converged"))
            elif key not in gaps:
                ops.append(_op(key, "no reference gap"))
            elif abs(row["gap"] - gaps[key]) > GAP_REF_TOL:
                ops.append(_op(key, f"gap {row['gap']!r} is off the reference "
                                    f"{gaps[key]!r} by more than {GAP_REF_TOL}"))
            elif key in EXACT_GAPS and abs(row["gap"] - EXACT_GAPS[key]) > GAP_EXACT_TOL:
                ops.append(_op(key, f"anchor gap {row['gap']!r} is off the exact "
                                    f"{EXACT_GAPS[key]!r} by more than {GAP_EXACT_TOL}"))
            else:
                ops.append(_op(key, None))
        return ops

    def reference(self, out: list) -> dict:
        return {"n": self.n, "gaps": {r["key"]: r["gap"] for r in out}}

    def extras(self, out: list, rep_s: float) -> dict:
        errs = [abs(r["gap"] - EXACT_GAPS[r["key"]]) for r in out
                if r["key"] in EXACT_GAPS and "gap" in r]
        return {
            "certs_per_min": {"value": 60.0 * len(out) / rep_s, "unit": "1/min"},
            "anchor_gap_err": {"value": max(errs) if errs else math.inf,
                               "unit": "gap"},
        }


class Sweep:
    """``iat_sweep`` on the desk-scale config with one rep per cell, serially.

    One call takes about a fifth of the default five-rep sweep, so several
    fit in a run and their median resists a slow spell of a shared host.
    The seed permutes the order in which the dimensions are run.  Chain
    seeds are derived from (base seed, d, sampler, rep) and not from the
    order, so every seed is checked against the same reference IATs.
    """

    name = "sweep"

    def __init__(self, seed: int, toy: bool = False):
        self.size = "toy" if toy else "full"
        self.dims = [2, 30] if toy else list(DESK_DIMS)
        self.n_it = 4_000 if toy else 10_000
        random.Random(seed).shuffle(self.dims)

    def params(self) -> dict:
        return {"size": self.size, "target": "exponential",
                "samplers": ["pss", "uss"], "dims": self.dims,
                "n_it": self.n_it, "n_rep": 1, "max_workers": None}

    def setup(self, sg):
        return sg.ExperimentConfig(dims=tuple(self.dims), n_it=self.n_it, n_rep=1)

    def run(self, sg, cfg) -> dict:
        try:
            result = sg.iat_sweep(cfg, max_workers=None)
        except Exception as exc:  # every cell of the repetition fails
            return {"error": repr(exc)}
        keep = ("d", "sampler", "rep", "seed", "iat", "truncation_lag")
        return {"rows": [{k: r[k] for k in keep} for r in result["rows"]]}

    def steps(self) -> int:
        """X-chain steps in one repetition, burn-in included."""
        return 2 * len(self.dims) * (self.n_it + self.n_it // 10)

    def check(self, out: dict, ref: dict) -> list:
        iats = ref["iats"]
        if "error" in out:
            return [_op(key, f"iat_sweep raised {out['error']}") for key in iats]
        got = {_cell_key(r): r["iat"] for r in out["rows"]}
        sweep_fail = _criterion_5(out["rows"])
        ops = []
        for key in sorted(set(iats) | set(got)):
            want, have = iats.get(key), got.get(key)
            if want is None or have is None:
                reason = "cell missing from " + ("reference" if want is None else "output")
            elif not (math.isfinite(have)
                      and abs(have - want) <= IAT_REL_TOL * max(1.0, abs(want))):
                reason = f"IAT {have!r} differs from the reference {want!r}"
            else:
                reason = sweep_fail
            ops.append(_op(key, reason))
        return ops

    def reference(self, out: dict) -> dict:
        return {"n_it": self.n_it,
                "iats": {_cell_key(r): r["iat"] for r in out["rows"]}}

    def extras(self, out: dict, rep_s: float) -> dict:
        return {"chain_steps_per_s": {"value": self.steps() / rep_s, "unit": "1/s"}}


def _cell_key(row: dict) -> str:
    return f"{row['sampler']}/d={row['d']}/rep={row['rep']}"


def _criterion_5(rows: list) -> str | None:
    """Bounds of acceptance criterion 5 on one sweep, or None if they hold."""
    pss = [r["iat"] for r in rows if r["sampler"] == "pss"]
    uss = {r["d"]: r["iat"] for r in rows if r["sampler"] == "uss"}
    if not pss or 2 not in uss or 30 not in uss:
        return "criterion 5 needs PSS cells and USS cells at d=2 and d=30"
    ratio = uss[30] / uss[2]
    if max(pss) <= 4.0 and sum(pss) / len(pss) <= 2.0 and ratio >= 3.0:
        return None
    return (f"criterion 5 broken: PSS max {max(pss):.3f} (<= 4), PSS mean "
            f"{sum(pss) / len(pss):.3f} (<= 2), USS d=30/d=2 {ratio:.2f} (>= 3)")


def _verify_key(check: dict) -> str:
    return "/".join(f"{k}={check[k]}" for k in VERIFY_KEY_FIELDS if k in check)


class Verify:
    """``slicegap verify`` through ``cli.main`` with the default config.

    Its checks are hypothesis tests at the config's fixed base seed, so the
    benchmark seed does not change them; it is recorded only.
    """

    name = "verify"
    argv = ("verify",)

    def __init__(self, seed: int, toy: bool = False):
        self.size = "toy" if toy else "full"

    def params(self) -> dict:
        return {"size": self.size, "argv": list(self.argv),
                "config": "ExperimentConfig() defaults"}

    def setup(self, sg):
        importlib.import_module("slicegap.cli")

    def run(self, sg, _state) -> dict:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = sg.cli.main(list(self.argv))
            report = json.loads(buf.getvalue())
        except Exception as exc:  # every check of the repetition fails
            return {"error": repr(exc)}
        return {"rc": rc, "report": report}

    def check(self, out: dict, ref: dict) -> list:
        want = ref["statuses"]
        if "error" in out:
            return [_op(key, f"verify raised {out['error']}") for key in want]
        got = {_verify_key(c): c.get("status") for c in out["report"]["checks"]}
        ops = []
        for key in sorted(set(want) | set(got)):
            status = got.get(key)
            if status == "fail":
                ops.append(_op(key, "status fail"))
            elif status != want.get(key):
                ops.append(_op(key, f"status {status!r}, reference {want.get(key)!r}"))
            else:
                ops.append(_op(key, None))
        return ops

    def reference(self, out: dict) -> dict:
        return {"statuses": {_verify_key(c): c["status"]
                             for c in out["report"]["checks"]}}

    def extras(self, out: dict, rep_s: float) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Certify, Sweep, Verify)}
