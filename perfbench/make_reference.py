#!/usr/bin/env python3
"""Write the reference outputs that the benchmark checks against.

Run from the root of a source checkout, at a commit whose outputs are
known to be right:

    python3 perfbench/make_reference.py

Runs one repetition of every workload at full and at toy size and writes
``perfbench/reference/<workload>.json``.  The outputs do not depend on the
benchmark seed, so seed 0 is used.
"""

import json
import sys

import run
import workloads


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    run.REFERENCE.mkdir(exist_ok=True)
    for cls in workloads.WORKLOADS.values():
        entry = {}
        for toy in (False, True):
            workload = cls(0, toy=toy)
            _, sg, state = run.timed_setup(workload)
            entry[workload.size] = workload.reference(workload.run(sg, state))
            print(f"{workload.name} ({workload.size}) done", flush=True)
        with open(run.REFERENCE / f"{cls.name}.json", "w") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
