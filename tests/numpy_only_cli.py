"""Every ``tensorreg`` command with scipy unimportable.

numpy is the package's only runtime dependency.  This script makes every
import of scipy fail before it imports tensorreg, then runs ``simulate``,
``fit`` for each family, ``rank-select`` under the bridge and SCAD
penalties, and ``inspect`` on small data in ``WORKDIR``.  A fit may end
unconverged (exit code 2); any other failure, an ImportError of scipy
included, ends the script with a nonzero status.

    python tests/numpy_only_cli.py WORKDIR
"""

import os
import sys

sys.modules["scipy"] = None  # "import scipy..." now raises ImportError

from tensorreg.cli import EXIT_NOT_CONVERGED, EXIT_OK, main  # noqa: E402


def run(args, allowed=(EXIT_OK, EXIT_NOT_CONVERGED)):
    rc = main([str(a) for a in args])
    print(f"exit {rc}: tensorreg {' '.join(map(str, args))}", flush=True)
    if rc not in allowed:
        sys.exit(f"tensorreg {args[0]} exited {rc}")


def data_args(data):
    return ["--tensors", os.path.join(data, "x.tnsr"),
            "--response", os.path.join(data, "response.csv"),
            "--covariates", os.path.join(data, "covariates.csv")]


def main_sequence(workdir):
    solver = ["--restarts", 1, "--seed", 0, "--max-outer-iters", 20]
    for family in ("normal", "bernoulli", "poisson"):
        data = os.path.join(workdir, f"data-{family}")
        run(["simulate", "--shape", "cross", "--size", 16, "--family", family,
             "--n", 200, "--gamma-dim", 2, "--seed", 1, "--output-dir", data],
            allowed=(EXIT_OK,))
        run(["fit", *data_args(data), "--family", family, "--rank", 1, *solver,
             "--output-dir", os.path.join(workdir, f"fit-{family}")])
    normal = data_args(os.path.join(workdir, "data-normal"))
    for penalty in (["--penalty", "bridge", "--lam", 0.3], ["--penalty", "scad"]):
        run(["rank-select", *normal, "--max-rank", 2, *solver, *penalty,
             "--rho", 5.0, "--output-dir", os.path.join(workdir, f"rank-{penalty[1]}")])
    run(["inspect", "--model", os.path.join(workdir, "rank-bridge", "model.json")],
        allowed=(EXIT_OK,))
    print("every command ran without scipy")


if __name__ == "__main__":
    main_sequence(sys.argv[1])
