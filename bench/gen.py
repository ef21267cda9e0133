"""Deterministic input generator for the benchmark workloads.

Every workload's inputs are drawn from ``numpy.random.default_rng`` seeded
with ``(seed, workload index, part)`` and written the way a command-line user
hands data to ``tensorreg``: a TNSR tensor stack, a response CSV and a
covariate CSV.  The true parameters go next to them in ``truth.npz`` for
the output checks.  Nothing here imports ``tensorreg``: the signal
geometry, the TNSR writer and the response draw are the benchmark's own.

    python3 bench/gen.py --workload img64_normal --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os
import shutil
import struct
import sys

import numpy as np

from workloads import WORKLOADS

BALL_HALF_PERIOD = 7
BALL_OFFSETS = (0, 7)  # the first ball's window starts at the corner


def cross_image(s):
    """Rank-2 cross: two bars of width s/8 crossing at the centre."""
    img = np.zeros((s, s))
    bar = max(s // 8, 2)
    mid = (s - bar) // 2
    img[mid:mid + bar, s // 4:3 * s // 4] = 1.0
    img[s // 4:3 * s // 4, mid:mid + bar] = 1.0
    return img


def butterfly_image(s):
    """Bowtie: two mirrored triangles meeting at the centre (high rank)."""
    c = (s - 1) / 2.0
    i, j = np.ogrid[:s, :s]
    return ((np.abs(i - c) <= np.abs(j - c)) & (np.abs(j - c) <= s / 4)).astype(float)


def ball_volume(p):
    """Sum of two separable sine balls in a p x p x p volume."""
    window = BALL_HALF_PERIOD + 1
    profile = np.sin(np.arange(window) * np.pi / BALL_HALF_PERIOD)
    vol = np.zeros((p, p, p))
    for off in BALL_OFFSETS:
        v = np.zeros(p)
        v[off:off + window] = profile
        vol += np.einsum("i,j,k->ijk", v, v, v)
    return vol


def true_signal(name):
    if name == "img64_normal":
        return cross_image(64)
    if name == "butterfly32_lasso":
        return butterfly_image(32)
    return ball_volume(16)


def write_tnsr(path, stack):
    """TNSR stack: magic, uint32 n, uint32 D, D uint32 dims, then each
    sample's float64 values with the first index fastest."""
    n, dims = stack.shape[0], stack.shape[1:]
    D = len(dims)
    vec = stack.transpose([0] + list(range(D, 0, -1)))
    with open(path, "wb") as fh:
        fh.write(b"TNSR")
        fh.write(struct.pack(f"<II{D}I", n, D, *dims))
        fh.write(np.ascontiguousarray(vec, dtype="<f8").tobytes())


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def generate(workload, seed, out, part=0):
    """Write dataset ``part`` of one workload's inputs for ``seed`` into
    directory ``out``.

    The files are written to a sibling temporary directory and renamed
    into place, so a half-written set is never picked up.
    """
    w = WORKLOADS[workload]
    rng = np.random.default_rng([int(seed), w.index, int(part)])
    signal = true_signal(w.name)
    gamma = np.ones(w.p0)
    alpha = 0.0
    z = rng.standard_normal((w.n, w.p0))
    x = rng.standard_normal((w.n,) + signal.shape)
    eta = alpha + z @ gamma + x.reshape(w.n, -1) @ signal.ravel()
    if w.family == "normal":
        y = w.eta_scale * eta + rng.standard_normal(w.n)
    else:
        y = (rng.random(w.n) < 1.0 / (1.0 + np.exp(-w.eta_scale * eta))).astype(float)
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    write_tnsr(os.path.join(tmp, "x.tnsr"), x)
    write_csv(os.path.join(tmp, "response.csv"), ["y"], y[:, None])
    write_csv(os.path.join(tmp, "covariates.csv"),
              [f"z{j + 1}" for j in range(w.p0)], z)
    np.savez(os.path.join(tmp, "truth.npz"), signal=signal, gamma=gamma,
             alpha=alpha, eta_scale=w.eta_scale)
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0,
                    help="which of the run's datasets to write")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.part)
    return 0


if __name__ == "__main__":
    sys.exit(main())
