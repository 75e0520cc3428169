"""In-memory span tracer for one traced pass of a benchmark workload.

The tracer rebinds the public functions of slicegap's modules to thin
wrappers for the duration of the pass and puts the originals back
afterwards; the package itself is never edited.  Each call records one
span ``(id, parent, name, start, end, run_id, attrs)``.  Counts that belong
to a boundary (points, chain steps, grid size) are taken from the call's
arguments when it starts, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

# The seven layers, in the order the package layers them.
MODULES = ("targets", "levelset", "kernel", "samplers", "diagnostics",
           "harness", "cli")

# Spans that are not a module-level public function, or that are renamed.
_CLASS_METHODS = (
    ("levelset", "LevelSetFunction", "log", "levelset.ell"),
    ("samplers", "PiTildeSampler", "__init__", "samplers.oracles"),
)
_RENAMES = {"samplers.sample_radial_stationary": "samplers.oracles"}


def _size(x) -> int:
    import numpy as np
    return int(np.size(x))


# span name -> function of the bound call arguments giving span attributes
_ARG_ATTRS = {
    "levelset.level_bounds": lambda a: {"points": _size(a["log_t"])},
    "levelset.ell": lambda a: {"points": _size(a["log_t"])},
    "kernel.discretize_pt": lambda a: {"n": a["grid"].n},
    "kernel.spectral_gap": lambda a: {"n": a["kernel"].n},
    "samplers.run_x_chain": lambda a: {"steps": int(a["n"]),
                                       "d": a["target"].dim,
                                       "alpha": a["fac"].alpha},
    "samplers.t_step_levels": lambda a: {"points": _size(a["log_t"])},
    "samplers.x_step_radii": lambda a: {"points": _size(a["radii"])},
}


def _kernel_bytes(kernel) -> int:
    """Computed size of the arrays a DiscreteKernel holds."""
    return int(kernel.matrix.nbytes + kernel.flux.nbytes
               + kernel.weights.nbytes + kernel.grid.boundaries.nbytes)


# span name -> function of the return value giving span attributes
_RESULT_ATTRS = {
    "kernel.discretize_pt": lambda k: {"dense_bytes": _kernel_bytes(k)},
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores the package."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        arg_attrs = _ARG_ATTRS.get(name)
        result_attrs = _RESULT_ATTRS.get(name)
        sig = inspect.signature(fn) if arg_attrs else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if arg_attrs is not None:
                attrs = arg_attrs(sig.bind(*args, **kwargs).arguments)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end,
                                   self.run_id, attrs))
            if result_attrs is not None:
                attrs = {**(attrs or {}), **result_attrs(result)}
                self.spans[-1] = self.spans[-1][:6] + (attrs,)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the seven layer modules."""
        mods = {short: importlib.import_module(f"slicegap.{short}")
                for short in MODULES}
        loaded = [m for n, m in sys.modules.items()
                  if n == "slicegap" or n.startswith("slicegap.")]
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ("main",)):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(_RENAMES.get(name, name), fn)
                # rebind every name bound to this function, so calls made
                # through `from .x import f` aliases are traced as well
                for m in loaded:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._undo.append((m, key, fn))
                            setattr(m, key, wrapper)
        for short, cls_name, attr, name in _CLASS_METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "parent", "name", "start_s", "end_s",
                                 "run_id", "attrs"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans) -> dict:
    """Per span name: calls, total time, self time and summed attributes.

    Total time counts only the outermost span of a name, so a function
    that calls itself through another layer is not counted twice.  Self
    time is a span's duration minus the durations of its direct children
    (the pass is single-threaded, so children never overlap).
    """
    by_id = {s[0]: s for s in spans}
    child_s: dict[int, float] = {}
    for s in spans:
        if s[1] in by_id:
            child_s[s[1]] = child_s.get(s[1], 0.0) + (s[4] - s[3])
    totals: dict[str, dict] = {}
    for sid, parent, name, start, end, _run, attrs in spans:
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = end - start
        t["calls"] += 1
        t["self_s"] += dur - child_s.get(sid, 0.0)
        p = parent
        while p in by_id and by_id[p][2] != name:
            p = by_id[p][1]
        if p not in by_id:
            t["s"] += dur
        for key, val in (attrs or {}).items():
            if key in ("points", "steps"):
                t[key] = t.get(key, 0) + val
            elif key == "dense_bytes":
                t[key] = max(t.get(key, 0), val)
    return totals


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer_metrics(totals: dict, overhead_s: float, src_lines: int) -> dict:
    """The benchmark's per-layer metrics; a layer that did not run reads 0."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    def timing(name):
        put(f"{name}.s", float(get(name, "s")), "s")
        put(f"{name}.self_s", float(get(name, "self_s")), "s")

    lb = "levelset.level_bounds"
    put(f"{lb}.calls", get(lb, "calls"), "count")
    put(f"{lb}.points", get(lb, "points"), "count")
    timing(lb)
    put(f"{lb}.points_per_s", _rate(get(lb, "points"), get(lb, "s")), "1/s")

    li = "levelset.level_interval"
    put(f"{li}.calls", get(li, "calls"), "count")
    timing(li)
    put(f"{li}.us_per_call", 1e6 * _rate(get(li, "s"), get(li, "calls")), "us")

    ell = "levelset.ell"
    put(f"{ell}.calls", get(ell, "calls"), "count")
    put(f"{ell}.points", get(ell, "points"), "count")
    timing(ell)

    timing("levelset.level_set_function")
    for name in ("kernel.build_tgrid", "kernel.discretize_pt", "kernel.spectral_gap"):
        put(f"{name}.calls", get(name, "calls"), "count")
        timing(name)
    put("kernel.dense_bytes", get("kernel.discretize_pt", "dense_bytes"),
        "bytes_computed")
    timing("kernel.transition_cdf")
    timing("kernel.adjointness_check")

    rx = "samplers.run_x_chain"
    put(f"{rx}.calls", get(rx, "calls"), "count")
    put(f"{rx}.steps", get(rx, "steps"), "count")
    timing(rx)
    put(f"{rx}.steps_per_s", _rate(get(rx, "steps"), get(rx, "s")), "1/s")
    for name in ("samplers.t_step_levels", "samplers.x_step_radii"):
        put(f"{name}.points", get(name, "points"), "count")
        timing(name)
    timing("samplers.oracles")

    put("diagnostics.iat.calls", get("diagnostics.iat", "calls"), "count")
    timing("diagnostics.iat")
    timing("harness.iat_sweep")
    timing("harness.verify")
    timing("cli.main")

    put("trace.overhead_s", overhead_s, "s")
    put("src.lines", src_lines, "count")
    return out


def self_time_shares(totals: dict, traced_s: float, top: int = 8) -> list:
    """Largest self times, each with its share of the traced wall time."""
    ranked = sorted(totals.items(), key=lambda kv: kv[1]["self_s"], reverse=True)
    return [{"layer": name, "self_s": t["self_s"],
             "share": t["self_s"] / traced_s if traced_s > 0 else 0.0,
             "calls": t["calls"]}
            for name, t in ranked[:top]]
