"""The benchmark workloads: problem sizes and the program settings.

Kept free of numpy so that the measured process can read it before its
timed ``import tensorreg``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One fixed problem shape and the program settings used to fit it."""

    name: str
    index: int
    family: str
    n: int
    p0: int
    eta_scale: float
    rank: int  # fitted rank; for rank selection, the largest rank tried
    restarts: int
    threads: int
    max_outer_iters: int = 500  # the program's default
    rho: float = 0.0  # lasso penalty; 0 means unpenalized
    select_rank: bool = False
    inference: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("img64_normal", 0, "normal", n=1000, p0=5, eta_scale=1.0,
                 rank=2, restarts=5, threads=2, inference=True),
        Workload("butterfly32_lasso", 1, "normal", n=300, p0=5, eta_scale=1.0,
                 rank=3, restarts=2, threads=1, max_outer_iters=50, rho=30.0),
        Workload("ball16_logit_rank", 2, "bernoulli", n=500, p0=5,
                 eta_scale=0.1, rank=2, restarts=2, threads=1,
                 max_outer_iters=30, select_rank=True),
    )
}
