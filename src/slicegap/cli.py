"""Command-line entry point.

Subcommands:
  iat-sweep    — dimension sweep of radius-trace IATs, CSV output
  gap-table    — spectral-gap certificates per (target, sampler, d), JSON
  check-lambda — level-set class membership reports, JSON
  verify       — stationarity / kernel / adjointness / equivalence checks
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .errors import SliceGapError
from .harness import PAPER_SCALE, ExperimentConfig, check_lambda, gap_table, \
    iat_sweep, verify, write_iat_csv


def _build_config(args) -> ExperimentConfig:
    """``--config`` (else the defaults) with ``--paper-scale``, ``--seed``,
    ``--grid-size`` and ``--out`` merged in by one validating ``replace``."""
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    flags = {"base_seed": args.seed, "grid_size": args.grid_size, "out": args.out}
    return replace(cfg, **(PAPER_SCALE if args.paper_scale else {}),
                   **{name: v for name, v in flags.items() if v is not None})


def _emit_json(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slicegap",
        description="Slice-sampling spectral-gap laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags beyond --config and --out, each on the subcommands that read it.
    flags = {
        "--seed": dict(type=int, help="base seed override"),
        "--paper-scale": dict(action="store_true",
                              help="full-size sweep (d up to 100, n_it=1e5, n_rep=10)"),
        "--grid-size": dict(type=int, help="kernel grid size override"),
        "--workers": dict(type=int, help="process-pool size for the sweep"),
    }
    for name, own in (("iat-sweep", ("--seed", "--paper-scale", "--workers")),
                      ("gap-table", ("--paper-scale", "--grid-size")),
                      ("check-lambda", ("--paper-scale",)),
                      ("verify", ("--seed",))):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", help="output file path")
        for flag in own:
            p.add_argument(flag, **flags[flag])
    parser.set_defaults(seed=None, paper_scale=False, grid_size=None, workers=None)
    args = parser.parse_args(argv)

    try:
        cfg = _build_config(args)
        if args.command == "iat-sweep":
            result = iat_sweep(cfg, max_workers=args.workers)
            if cfg.out:
                write_iat_csv(result, cfg.out)
                print(f"wrote {cfg.out}")
            else:
                _emit_json(result, None)
            return 0
        if args.command == "gap-table":
            _emit_json(gap_table(cfg), cfg.out)
            return 0
        if args.command == "check-lambda":
            _emit_json(check_lambda(cfg), cfg.out)
            return 0
        if args.command == "verify":
            report = verify(cfg)
            _emit_json(report, cfg.out)
            return 0 if report["status"] == "pass" else 1
    except (SliceGapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
