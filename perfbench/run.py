#!/usr/bin/env python3
"""slicegap benchmark: one workload per process, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median of several fresh set-ups), seconds per repetition of the workload
(median over the repetitions that fit in ``--seconds``, at least one) and
the peak resident memory of this process.  ``--trace 1`` runs one untraced
repetition, then set-up and one repetition again under the span tracer,
checks that both gave identical outputs, and reports per-layer metrics.

Every repetition's outputs are checked against the reference outputs in
``perfbench/reference``.  Human-readable lines go first; the last line of
standard output is the JSON result.  A results file with provenance (and,
when traced, the spans) is written to ``perfbench/out``.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

# Fresh child processes that repeat the set-up; with the in-process set-up
# they give SETUP_PROBES + 1 samples, of which setup_s is the median.
SETUP_PROBES = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Predicted largest self time of a traced repetition, per workload.
PREDICTED_TOP = {"certify": "kernel.spectral_gap",
                 "sweep": "levelset.level_interval",
                 "verify": "levelset.level_bounds"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else cap
        os.environ[var] = str(min(n, cap))


def timed_setup(workload):
    """Import slicegap and build the workload's inputs; return the time."""
    t0 = time.perf_counter()
    sg = importlib.import_module("slicegap")
    state = workload.setup(sg)
    return time.perf_counter() - t0, sg, state


def probe_setup_s(args) -> list:
    """Set-up times of fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        cmd.append("--toy")
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def blas_threads_in_effect() -> dict:
    """Thread count reported by the OpenBLAS builds bundled with numpy/scipy."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    out[mod.__name__] = fn()
                    break
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: the checkout is not a git repository"
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30,
                              check=True)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unavailable: {exc}"
    return proc.stdout.strip()


def src_lines() -> int:
    total = 0
    for path in sorted((SRC / "slicegap").glob("*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def provenance(sg, args, workload) -> dict:
    import numpy
    import scipy

    return {
        "slicegap": sg.__version__, "numpy": numpy.__version__,
        "scipy": scipy.__version__, "python": platform.python_version(),
        "git_commit": git_commit(), "nproc": nproc(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_VARS},
        "blas_threads_in_effect": blas_threads_in_effect(),
        "machine": platform.machine(), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "workload": workload.name, "params": workload.params(),
    }


def load_reference(workload) -> dict:
    with open(REFERENCE / f"{workload.name}.json") as fh:
        return json.load(fh)[workload.size]


def run_reps(workload, sg, state, seconds: float):
    """Repeat the workload until the next repetition would overrun."""
    times, outs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs.append(workload.run(sg, state))
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times, outs


def check_all(workload, outs, ref) -> list:
    ops = []
    for rep, out in enumerate(outs):
        ops += [{**op, "rep": rep} for op in workload.check(out, ref)]
    return ops


def traced_pass(workload, sg, state):
    """One untraced and one traced repetition; per-layer metrics from spans."""
    import spans

    t0 = time.perf_counter()
    plain = workload.run(sg, state)
    plain_s = time.perf_counter() - t0

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_id = "setup"
        t0 = time.perf_counter()
        state = workload.setup(sg)
        setup_traced_s = time.perf_counter() - t0
        tracer.run_id = "rep0"
        t0 = time.perf_counter()
        traced = workload.run(sg, state)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    totals = spans.layer_totals(tracer.spans)
    metrics = spans.per_layer_metrics(totals, traced_s - plain_s, src_lines())
    shares = spans.self_time_shares(totals, setup_traced_s + traced_s)
    top = shares[0]["layer"] if shares else None
    detail = {
        "untraced_rep_s": plain_s, "traced_rep_s": traced_s,
        "traced_setup_s": setup_traced_s, "n_spans": len(tracer.spans),
        "outputs_identical": plain == traced,
        "largest_self_time": {"predicted": PREDICTED_TOP[workload.name],
                              "observed": top,
                              "confirmed": top == PREDICTED_TOP[workload.name]},
        "self_time_shares": shares,
        "roadmap_baseline_rows": baseline_rows(tracer.spans),
        "layer_totals": totals,
    }
    return tracer, [plain, traced], metrics, detail


def baseline_rows(span_list) -> dict:
    """Traced equivalents of the ROADMAP Baseline rows that this pass ran."""
    def median_s(name, **match):
        durs = [e - s for _i, _p, n, s, e, _r, a in span_list
                if n == name and all((a or {}).get(k) == v for k, v in match.items())]
        return {"median_s": statistics.median(durs), "calls": len(durs)} if durs else None

    def rate(name, key, **match):
        rows = [(a[key], e - s) for _i, _p, n, s, e, _r, a in span_list
                if n == name and all(a.get(k) == v for k, v in match.items())]
        if not rows:
            return None
        return {"per_s": sum(c for c, _ in rows) / sum(t for _, t in rows),
                "calls": len(rows), key: sum(c for c, _ in rows)}

    rows = {
        "spectral_gap_eigh_n2048": median_s("kernel.spectral_gap", n=2048),
        "spectral_gap_eigh_n4096": median_s("kernel.spectral_gap", n=4096),
        "discretize_pt_n2048": median_s("kernel.discretize_pt", n=2048),
        "discretize_pt_n4096": median_s("kernel.discretize_pt", n=4096),
        "build_tgrid": median_s("kernel.build_tgrid"),
        "run_x_chain_pss_d10_steps": rate("samplers.run_x_chain", "steps", d=10, alpha=9.0),
        "run_x_chain_uss_d30_steps": rate("samplers.run_x_chain", "steps", d=30, alpha=0.0),
        "x_step_radii_batched_points": rate("samplers.x_step_radii", "points"),
        "t_step_levels_batched_points": rate("samplers.t_step_levels", "points"),
    }
    return {k: v for k, v in rows.items() if v is not None}


def print_summary(workload, metrics, extras, n_reps, attempted, failed, correct):
    print(f"workload {workload.name} ({workload.size}): {n_reps} repetition(s), "
          f"correct={correct}")
    for name, m in {**metrics, **extras}.items():
        print(f"  {name:<44} {m['value']!r:>24} {m['unit']}")
    ratio = failed / attempted if attempted else float("nan")
    print(f"  {'fail_ratio':<44} {ratio!r:>24} ratio ({failed} of {attempted} operations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    parser.add_argument("--probe-setup", action="store_true",
                        help="time one set-up in this process and exit")
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(workloads.WORKLOADS)}")
    if not (SRC / "slicegap" / "__init__.py").is_file():
        print(f"error: no slicegap sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](args.seed, toy=args.toy)

    setup_s, sg, state = timed_setup(workload)
    if Path(sg.__file__).resolve().parent != (SRC / "slicegap").resolve():
        print(f"error: imported slicegap from {sg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    ref = load_reference(workload)

    result = {"provenance": provenance(sg, args, workload)}
    if args.trace:
        tracer, outs, metrics, detail = traced_pass(workload, sg, state)
        rep_times = [detail["untraced_rep_s"]]
        extras = {}
        result["trace"] = detail
    else:
        setup_samples = [setup_s] + probe_setup_s(args)
        rep_times, outs = run_reps(workload, sg, state, args.seconds)
        wall_s = statistics.median(rep_times)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MiB"},
        }
        extras = workload.extras(outs[-1], wall_s)
        result["setup_samples_s"] = setup_samples

    ops = check_all(workload, outs, ref)
    failed = sum(not op["ok"] for op in ops)
    correct = failed == 0 and (not args.trace or result["trace"]["outputs_identical"])
    result.update({
        "rep_times_s": rep_times, "metrics": metrics, "extras": extras,
        "attempted": len(ops), "failed": failed, "correct": correct,
        "failures": [op for op in ops if not op["ok"]],
        "outputs": outs[-1],
    })

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    with open(OUT / f"results-{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.jsonl.gz")

    print_summary(workload, metrics, extras, len(rep_times), len(ops), failed, correct)
    for op in result["failures"][:10]:
        print(f"  FAILED {op['op']} (rep {op['rep']}): {op['reason']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
