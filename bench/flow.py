"""One measured round of a workload, as a fresh process.

Runs the user flow of one workload on input files written by ``gen.py``:
import ``tensorreg``, read the files, build the dataset (together the
set-up), fit or select the rank (the solve), write the model outputs, and
run Wald inference where the workload asks for it.  Then it checks the
outputs against the benchmark's own computations and prints one JSON
line.  ``run.py`` starts it with the BLAS and ``TENSORREG_THREADS``
thread counts pinned; ``--setup-only`` stops after the set-up.

    python3 bench/flow.py --workload W --inputs DIR --out DIR [--trace]

Only the standard library is imported before ``tensorreg``, so the timed
import pays for numpy and scipy exactly as a user's first import does.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402  (numpy-free)


def _no_phase(name):
    return contextlib.nullcontext()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(workload, inputs, out, tracer=None, setup_only=False):
    """Run the flow; return (timings and counts, program results for checks)."""
    w = WORKLOADS[workload]
    phase = tracer.phase if tracer is not None else _no_phase
    t0 = time.perf_counter()
    with phase("tensorreg.import"):
        import tensorreg
        from tensorreg import io as tio
    if tracer is not None:
        tracer.install(tensorreg)

    rss0 = tracer.rss_mb() if tracer is not None else 0.0
    with phase("io.read"):
        tensors = tio.parse_tensor_file(os.path.join(inputs, "x.tnsr"))
        y = tio.read_response_csv(os.path.join(inputs, "response.csv"))
        _, z = tio.read_covariates_csv(os.path.join(inputs, "covariates.csv"))
    with phase("model.dataset"):
        dataset = tensorreg.TensorGlmDataset(y, tensors, z)
    del tensors
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.notes["dataset_mb"] = tracer.rss_mb() - rss0
    out_row = {"setup_s": setup_s}
    if setup_only:
        return out_row, None

    attempted, failed, errors = 1, 0, []  # the set-up is the first operation
    penalty = tensorreg.PenaltySpec("lasso", w.rho) if w.rho > 0 else None
    cfg = tensorreg.FitConfig(rank=w.rank, restarts=w.restarts, seed=0,
                              max_outer_iters=w.max_outer_iters, penalty=penalty)
    table = None
    attempted += 1
    t1 = time.perf_counter()
    with phase("solve"):
        if w.select_rank:
            model, table = tensorreg.select_rank(dataset, w.family, w.rank, cfg)
        else:
            model = tensorreg.fit(dataset, w.family, cfg)
    solve_s = time.perf_counter() - t1

    attempted += 1
    with phase("io.write"):
        os.makedirs(out, exist_ok=True)
        tensorreg.save_model(model, os.path.join(out, "model.json"))
        tio.write_trace_csv(os.path.join(out, "trace.csv"), model.trace)
        if len(model.dims) == 2:
            tio.write_pgm(os.path.join(out, "coefficients.pgm"),
                          model.coefficient_tensor().to_array())

    if w.inference:
        attempted += 1
        with phase("inference"):
            try:
                tensorreg.score_and_information(model, dataset)
            except tensorreg.InferenceError as err:
                failed += 1
                errors.append(f"score_and_information: {err}")

    out_row.update(solve_s=solve_s, peak_rss_mb=_peak_rss_mb(),
                   attempted=attempted, failed=failed, errors=errors)
    return out_row, (tensorreg, model, table, dataset)


def main(argv=None):
    ap = argparse.ArgumentParser(description="one measured benchmark round")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true",
                    help="record spans and print per-layer metrics")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="also feed every check a corrupted result")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    row, results = run_round(args.workload, args.inputs, args.out, tracer,
                             args.setup_only)
    if results is not None:
        import checks

        tensorreg, model, table, dataset = results
        inp = checks.load_inputs(args.inputs)
        fitted = checks.fitted_from_model(model, table, dataset, args.out, tensorreg)
        row["checks"] = checks.run_checks(args.workload, inp, fitted)
        if args.self_test:
            row["rejected"] = checks.self_test(args.workload, inp, fitted)
    if tracer is not None:
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
        row["layers"] = tracer.layer_metrics()
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
