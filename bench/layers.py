"""Per-layer report of one traced round of a workload.

    python3 bench/layers.py --workload ball16_logit_rank --seed 1

Generates the workload's first dataset for ``--seed``, runs one traced
round of ``flow.py`` (same pinned thread counts as ``run.py``), and prints
for every traced function its calls, total and self time (span minus the
part its children cover), and for the block-design build the computed
flop and byte figures.  Then it prints the per-layer metrics and the
machine: ``nproc``, BLAS library and thread count, numpy and scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
from run import ROOT, run_flow  # noqa: E402
from tracer import LAYER_METRICS, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def machine():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": 1,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    spans = [(r["id"], r["parent"], r["name"], r["thread"], r["start"],
              r["end"], r) for r in rows]
    return spans


def table(spans):
    selfs = self_times(spans)
    agg = {}
    for span in spans:
        name, attrs = span[2], span[6]
        if "kind" in attrs:
            name += "." + attrs["kind"]
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                  "gflop": 0.0, "mb": 0.0})
        a["calls"] += 1
        a["s"] += span[5] - span[4]
        a["self_s"] += selfs[span[0]]
        a["gflop"] += attrs.get("flop", 0.0) / 1e9
        a["mb"] += attrs.get("bytes", 0.0) / 2**20
    return agg


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_cache",
                           f"layers-{workload.name}-{args.seed}-{os.getpid()}")
    try:
        inputs, out = os.path.join(workdir, "data"), os.path.join(workdir, "out")
        gen.generate(workload.name, args.seed, inputs)
        row = run_flow(workload, inputs, out, "--trace")
        spans = read_spans(os.path.join(out, "spans.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{workload.name} seed {args.seed}: setup_s {row['setup_s']:.3f}  "
          f"solve_s {row['solve_s']:.3f} (traced)  checks "
          f"{'pass' if all(row['checks'].values()) else row['checks']}")
    print(f"{'span':44s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s} "
          f"{'GFLOP':>8s} {'MB':>9s} (GFLOP and MB computed, not counted)")
    for name, a in sorted(table(spans).items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:44s} {a['calls']:7d} {a['s']:9.4f} {a['self_s']:9.4f} "
              f"{a['gflop']:8.3f} {a['mb']:9.1f}")
    print()
    for name, unit in LAYER_METRICS.items():
        if name in row["layers"]:
            print(f"{name:44s} {row['layers'][name]:14.6g} {unit}")
    print()
    print("machine:", json.dumps(machine()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
