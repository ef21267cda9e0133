"""Benchmark entry point: run one workload for a fixed time and print the
result as one JSON line.

    python3 bench/run.py --workload img64_normal --seed 1 --seconds 40 --trace 0

The run generates its inputs from ``--seed`` (``gen.py``) under
``.bench_cache/`` in the checkout, then starts rounds of ``flow.py``, each
a fresh process with one BLAS thread and the workload's
``TENSORREG_THREADS``.  Round k reads dataset k of the seed, so one run's
medians mix several draws of the same problem.  A first set-up-only round
fills the bytecode and page caches and is not timed.  Rounds start while
the next one is expected to end within ``--seconds``; at least one always
runs.

``--trace 0`` prints the end-to-end metrics: the medians over rounds of
``setup_s``, ``solve_s`` and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced rounds on the same dataset and prints the per-layer
metrics (medians over the traced rounds) with ``trace.overhead_s``, the
traced minus the untraced median ``solve_s``.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; ``correct`` is false
when any output check of any round fails.  The exit code is 0 unless a
round crashed or the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402

ROUND_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def child_env(workload):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TENSORREG_THREADS"] = str(workload.threads)
    env["PYTHONPATH"] = SRC
    return env


def run_flow(workload, inputs, out, *flags):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "flow.py"),
           "--workload", workload.name, "--inputs", inputs, "--out", out, *flags]
    proc = subprocess.run(cmd, env=child_env(workload), cwd=ROOT,
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round failed (exit {proc.returncode}): "
                         f"{' '.join(cmd)}\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def run_round(workload, inputs, out, *flags):
    """One round of ``flow.py``; logs its end-to-end figures to stderr."""
    row = run_flow(workload, inputs, out, *flags)
    shutil.rmtree(out, ignore_errors=True)
    print(f"{os.path.basename(inputs)} {' '.join(flags)}: "
          + " ".join(f"{k} {row[k]:.4f}" for k in END_TO_END if k in row)
          + "".join(f"; failed {e}" for e in row.get("errors", ())),
          file=sys.stderr)
    return row


def measure(workload, seed, workdir, seconds, trace):
    """Run rounds until the next would end after ``seconds``; return them.

    Round k reads dataset k of the seed, so the medians mix as many draws
    of the problem as there are rounds.
    """
    import gen

    start = time.perf_counter()
    plain, traced, longest = [], [], 0.0
    out = os.path.join(workdir, "out")
    while True:
        t = time.perf_counter()
        part = len(plain)
        inputs = os.path.join(workdir, f"dataset-{part}")
        gen.generate(workload.name, seed, inputs, part)
        if part == 0:  # warm-up, not timed: fills the bytecode and page caches
            run_round(workload, inputs, out, "--setup-only")
        plain.append(run_round(workload, inputs, out))
        if trace:
            traced.append(run_round(workload, inputs, out, "--trace"))
        shutil.rmtree(inputs)
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() + longest > start + seconds:
            return plain, traced


def summarize(plain, traced, trace):
    rows = plain + traced
    correct = all(all(r["checks"].values()) for r in rows)
    attempted = sum(r["attempted"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    if trace:
        from tracer import LAYER_METRICS

        values = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in LAYER_METRICS if k != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(r["solve_s"] for r in traced)
            - statistics.median(r["solve_s"] for r in plain))
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": statistics.median(r[k] for r in plain), "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its round and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "tensorreg", "__init__.py")):
        print(f"bench: no tensorreg sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_cache",
                           f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plain, traced = measure(workload, args.seed, workdir, args.seconds,
                                args.trace)
    except (RoundError, subprocess.TimeoutExpired) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for r in plain + traced:
        bad = [k for k, ok in r["checks"].items() if not ok]
        if bad:
            print(f"bench: failed checks {bad}", file=sys.stderr)
    print(json.dumps(summarize(plain, traced, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
