"""Self-test of the output checks.

    python3 bench/selftest.py [--seed 1]

For every workload, runs one round of ``flow.py --self-test`` on the
seed's first dataset.  Each check must pass on the program's result and
reject a deliberately corrupted copy of it (see ``checks.CORRUPTIONS``).
Exits 0 only if both hold for every check.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
from run import ROOT, run_flow  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    for workload in WORKLOADS.values():
        workdir = os.path.join(ROOT, ".bench_cache",
                               f"selftest-{workload.name}-{os.getpid()}")
        try:
            inputs = os.path.join(workdir, "data")
            gen.generate(workload.name, args.seed, inputs)
            row = run_flow(workload, inputs, os.path.join(workdir, "out"),
                           "--self-test")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for check, passed in row["checks"].items():
            rejected = row["rejected"][check]
            ok &= passed and rejected
            print(f"{workload.name:18s} {check:30s} "
                  f"{'passes' if passed else 'FAILS'} on the result, "
                  f"{'rejects' if rejected else 'ACCEPTS'} the corrupted one")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
