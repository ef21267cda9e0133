"""Command-line front end.

Subcommands: ``fit`` (estimate on user data), ``simulate`` (write a
synthetic dataset to disk), ``benchmark`` (replicated shape studies),
``rank-select`` (BIC over a rank grid), ``inspect`` (summarize a saved
model).  Exit codes are a stable contract: 0 success, 1 usage or input
error, 2 fit ran but did not converge (outputs still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io as tio
from .errors import TensorRegError
from .glm import get_family
from .model import (
    FitConfig,
    TensorGlmDataset,
    bic_from_loglik,
    effective_parameters,
    fit,
    load_model,
    save_model,
    select_rank,
)
from .penalties import PenaltySpec
from .shapes import SHAPE_NAMES, ShapeSpec, SimSpec, generate_shape, run_consistency_study, simulate
from .tensor_core import cp_to_full, unstack_vec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _at_least(low, convert=int):
    """argparse type: ``convert(value)``, rejected below ``low``, NaN or
    infinite."""

    def parse(value):
        v = convert(value)
        if not v >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if v == float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        return v

    parse.__name__ = convert.__name__  # argparse names the type in its messages
    return parse


_positive_int = _at_least(1)
_nonnegative_int = _at_least(0)


def _int_list(value):
    try:
        return [int(v) for v in value.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {value}")


def _add_fit_options(p, with_rank=True):
    p.add_argument("--tensors", required=True, help="TNSR stack of covariate tensors")
    p.add_argument("--response", required=True, help="CSV with single column y")
    p.add_argument("--covariates", help="optional CSV of ordinary covariates")
    p.add_argument("--family", default="normal",
                   choices=["normal", "bernoulli", "poisson"])
    if with_rank:
        p.add_argument("--rank", type=_positive_int, default=1)
    p.add_argument("--penalty", choices=["lasso", "ridge", "bridge", "power",
                                         "elastic_net", "scad"])
    p.add_argument("--rho", type=_at_least(0.0, float), default=0.0)
    p.add_argument("--lam", type=float, help="penalty family index")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--max-outer-iters", type=_positive_int, default=500)
    p.add_argument("--restarts", type=_positive_int, default=5)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--output-dir", required=True)


def build_parser():
    parser = _Parser(prog="tensorreg", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit",
                           help="fit a rank-R tensor GLM on user data")
    _add_fit_options(p_fit)

    p_sim = sub.add_parser("simulate",
                           help="write a synthetic shape dataset to disk")
    p_sim.add_argument("--shape", required=True, choices=list(SHAPE_NAMES))
    p_sim.add_argument("--size", type=_positive_int, default=64)
    p_sim.add_argument("--family", default="normal",
                       choices=["normal", "bernoulli", "poisson"])
    p_sim.add_argument("--n", type=_positive_int, required=True)
    p_sim.add_argument("--gamma-dim", type=_nonnegative_int, default=5)
    p_sim.add_argument("--seed", type=_nonnegative_int, default=0)
    p_sim.add_argument("--output-dir", required=True)

    p_bench = sub.add_parser("benchmark",
                             help="replicated consistency study over a shape")
    p_bench.add_argument("--shape", required=True, choices=list(SHAPE_NAMES))
    p_bench.add_argument("--dims", type=_positive_int, default=64,
                         help="image side length")
    p_bench.add_argument("--sizes", type=_int_list, required=True,
                         help="comma-separated sample sizes")
    p_bench.add_argument("--replicates", type=_positive_int, default=20)
    p_bench.add_argument("--family", default="normal",
                         choices=["normal", "bernoulli", "poisson"])
    p_bench.add_argument("--rank", type=_positive_int,
                         help="fit at this fixed rank")
    p_bench.add_argument("--max-rank", type=_positive_int,
                         help="select rank by BIC up to this bound")
    p_bench.add_argument("--gamma-dim", type=_nonnegative_int, default=5)
    p_bench.add_argument("--epsilon", type=float)
    p_bench.add_argument("--max-outer-iters", type=_positive_int, default=500)
    p_bench.add_argument("--restarts", type=_positive_int, default=2)
    p_bench.add_argument("--seed", type=_nonnegative_int, default=0)
    p_bench.add_argument("--output", required=True, help="study CSV path")

    p_rank = sub.add_parser("rank-select",
                            help="fit ranks 1..max and pick the BIC minimizer")
    _add_fit_options(p_rank, with_rank=False)
    p_rank.add_argument("--max-rank", type=_positive_int, default=3)

    p_ins = sub.add_parser("inspect",
                           help="summarize a saved model document")
    p_ins.add_argument("--model", required=True)

    return parser


def _load_dataset(args):
    tensors = tio.parse_tensor_file(args.tensors)
    y = tio.read_response_csv(args.response)
    z = None
    if args.covariates:
        _, z = tio.read_covariates_csv(args.covariates)
    n_parts = {"tensors": len(tensors), "response": y.size}
    if z is not None:
        n_parts["covariates"] = z.shape[0]
    if len(set(n_parts.values())) != 1:
        detail = ", ".join(f"{k}={v}" for k, v in n_parts.items())
        raise TensorRegError(
            f"sample counts disagree across input files: {detail} "
            f"({args.tensors}, {args.response}"
            + (f", {args.covariates})" if z is not None else ")")
        )
    return TensorGlmDataset(y, tensors, z)


def _fit_config(args, rank):
    penalty = None
    if args.rho > 0.0:  # rho = 0 means no penalty, with or without --penalty
        if args.penalty is None:
            raise TensorRegError(f"--rho {args.rho:g} needs a --penalty")
        penalty = PenaltySpec(args.penalty, args.rho, args.lam)
    return FitConfig(
        rank=rank,
        epsilon=args.epsilon,
        max_outer_iters=args.max_outer_iters,
        restarts=args.restarts,
        seed=args.seed,
        penalty=penalty,
    )


def _write_model_outputs(model, outdir):
    os.makedirs(outdir, exist_ok=True)
    model_path = os.path.join(outdir, "model.json")
    save_model(model, model_path)
    tio.write_trace_csv(os.path.join(outdir, "trace.csv"), model.trace)
    if len(model.dims) == 2:
        tio.write_pgm(
            os.path.join(outdir, "coefficients.pgm"),
            cp_to_full(model.coeff).to_array(),
            comment="fitted coefficient image",
        )
    return model_path


def cmd_fit(args):
    config = _fit_config(args, args.rank)
    model = fit(_load_dataset(args), get_family(args.family), config)
    path = _write_model_outputs(model, args.output_dir)
    print(f"model written to {path}")
    print(f"loglik={model.loglik!r} bic={model.bic!r} converged={model.converged}")
    return EXIT_OK if model.converged else EXIT_NOT_CONVERGED


def cmd_simulate(args):
    signal = generate_shape(ShapeSpec(args.shape, args.size))
    spec = SimSpec(
        signal=signal,
        gamma=np.ones(args.gamma_dim),
        family=args.family,
        n=args.n,
        seed=args.seed,
    )
    dataset = simulate(spec)
    os.makedirs(args.output_dir, exist_ok=True)
    tio.write_tensor_file(
        os.path.join(args.output_dir, "x.tnsr"),
        unstack_vec(dataset.x_matrix(), dataset.dims),
    )
    tio.write_response_csv(os.path.join(args.output_dir, "response.csv"), dataset.y)
    if args.gamma_dim:
        tio.write_covariates_csv(
            os.path.join(args.output_dir, "covariates.csv"), dataset.z
        )
    tio.write_tensor_file(os.path.join(args.output_dir, "signal.tnsr"), [signal])
    tio.write_pgm(
        os.path.join(args.output_dir, "signal.pgm"),
        signal.to_array(),
        comment=f"true {args.shape} signal",
    )
    print(f"dataset written to {args.output_dir}")
    return EXIT_OK


def cmd_benchmark(args):
    if (args.rank is None) == (args.max_rank is None):
        raise TensorRegError("give exactly one of --rank or --max-rank")
    config = FitConfig(
        rank=args.rank or 1,
        epsilon=args.epsilon,
        max_outer_iters=args.max_outer_iters,
        restarts=args.restarts,
        seed=args.seed,
    )
    result = run_consistency_study(
        ShapeSpec(args.shape, args.dims),
        n_grid=args.sizes,
        replicates=args.replicates,
        family=args.family,
        config=config,
        gamma=np.ones(args.gamma_dim),
        max_rank=args.max_rank,
    )
    tio.write_study_csv(args.output, result.rows)
    for n, rep, msg in result.failures:
        print(f"warning: replicate {rep} at n={n} failed: {msg}", file=sys.stderr)
    print(f"study written to {args.output}")
    return EXIT_OK


def cmd_rank_select(args):
    config = _fit_config(args, 1)
    model, table = select_rank(
        _load_dataset(args), get_family(args.family), args.max_rank, config
    )
    os.makedirs(args.output_dir, exist_ok=True)
    table_path = os.path.join(args.output_dir, "bic_table.csv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("rank,bic,loglik,converged,error\n")
        for row in table:
            bic_s = "" if row["bic"] is None else repr(row["bic"])
            ll_s = "" if row["loglik"] is None else repr(row["loglik"])
            err_s = "" if row["error"] is None else row["error"].replace(",", ";")
            fh.write(f"{row['rank']},{bic_s},{ll_s},{row['converged']},{err_s}\n")
    path = _write_model_outputs(model, args.output_dir)
    print(f"selected rank {model.rank}; model written to {path}")
    return EXIT_OK if model.converged else EXIT_NOT_CONVERGED


def cmd_inspect(args):
    model = load_model(args.model)
    p_e = effective_parameters(model.dims, model.rank, model.p0)
    recomputed = bic_from_loglik(model.loglik, model.n, p_e)
    print(f"family: {model.family.name}")
    print(f"dims: {'x'.join(map(str, model.dims))}")
    print(f"rank: {model.rank}")
    print(f"n: {model.n}")
    print(f"p0: {model.p0}")
    print(f"alpha: {model.alpha!r}")
    print(f"phi: {model.phi!r}")
    print(f"loglik: {model.loglik!r}")
    print(f"effective_parameters: {p_e}")
    print(f"bic_stored: {model.bic!r}")
    print(f"bic_recomputed: {recomputed!r}")
    print(f"converged: {model.converged}")
    print(f"restarts_used: {model.restarts_used}")
    print(f"outer_iterations: {max(len(model.trace) - 1, 0)}")
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "benchmark": cmd_benchmark,
    "rank-select": cmd_rank_select,
    "inspect": cmd_inspect,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except SystemExit as err:  # argparse usage errors carry EXIT_INPUT
        return err.code if isinstance(err.code, int) else EXIT_INPUT
    except (TensorRegError, OSError, json.JSONDecodeError) as err:
        print(f"tensorreg: error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
