"""Rank-R generalized linear tensor regression.

The coefficient array of a GLM with tensor covariates is constrained to a
rank-R CP form ``B = [[B_1, ..., B_D]]`` and estimated by cyclic exact
maximization: holding all but one factor fixed, the linear predictor is
linear in the remaining factor, so each update is an ordinary (or
penalized) GLM on a derived ``n x (p_d R)`` design.  The module also
provides the identifiability normalization that makes factors comparable
across fits, BIC-based rank selection, and score/Fisher-information
inference for the free parametrization.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import operator
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

# numpy loads its random module on first use; every fit spawns its restart
# streams from it, so it is loaded with the package rather than in a fit.
from numpy.random import SeedSequence, default_rng

from .errors import (
    DegenerateNormalizationWarning,
    DomainError,
    FitConvergenceError,
    InferenceError,
    KRankSizeError,
    SingularDesignError,
    TensorRegError,
)
from .glm import GlmFamily, get_family, irls_fit, log_likelihood, penalized_fit
from .penalties import PenaltySpec, _penalty_total
from .tensor_core import (
    CpTensor,
    DenseTensor,
    cp_to_full,
    factor_chain_omitting,
    khatri_rao_chain,
    mode_dd_matricize,
    stack_vec,
)

__all__ = [
    "TensorGlmDataset",
    "FitConfig",
    "TensorGlmModel",
    "InferenceReport",
    "UniquenessReport",
    "build_block_design",
    "fit",
    "normalize_identifiability",
    "effective_parameters",
    "bic",
    "select_rank",
    "eta_gradient",
    "eta_hessian",
    "score_and_information",
    "log_density_hessian",
    "k_rank",
    "check_uniqueness",
    "model_to_document",
    "model_from_document",
    "max_workers",
]


def max_workers():
    """Worker cap (TENSORREG_THREADS) for the stacked block-design
    contraction, per-start block solves and study replicates."""
    value = os.environ.get("TENSORREG_THREADS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        warnings.warn(f"TENSORREG_THREADS={value!r} is not a positive integer; "
                      "using 1 worker", RuntimeWarning, stacklevel=2)
    return max(workers, 1)


_WORKER_PREFIX = "tensorreg-worker"

# A task goes to a worker thread only if it does at least this many
# multiply-adds; smaller ones are bound by the handoff and by interpreter
# work under the GIL.  With one BLAS thread and two workers, block solves
# (n * k^2 each) ran up to 2x slower than on one thread at n * k^2 <= 4.1e6
# and took 0.72-0.92x as long from 8.2e6 on; block designs built in two
# row ranges took 0.6-0.97x as long for 64x64 images at n=1000 and R=2-10
# (4.1e6-2e7 per range) but 1.1-1.9x as long below 2.5e6 per range, and
# 16^3 designs at n=500 gained little up to 6e6 per range.  More than two
# workers are unmeasured.
_SPREAD_WORK = 2**22


def _run_inline(tasks, work=None):
    return [t() for t in tasks]


@contextlib.contextmanager
def _worker_pool(workers):
    """Yield ``run(tasks, work=inf)``, which calls ``tasks`` and returns
    their results in task order, on up to ``workers`` threads that live as
    long as the ``with`` block.

    ``work`` is the multiply-adds of the largest task: below
    ``_SPREAD_WORK`` the tasks run one after another on the calling
    thread, as does a single task.  Called from a worker of another pool,
    the tasks run inline, so nested fits never hold more than ``workers``
    threads.
    """
    if workers <= 1 or threading.current_thread().name.startswith(_WORKER_PREFIX):
        yield _run_inline
        return
    with ThreadPoolExecutor(workers, thread_name_prefix=_WORKER_PREFIX) as pool:

        def run(tasks, work=math.inf):
            if len(tasks) <= 1 or work < _SPREAD_WORK:
                return _run_inline(tasks)
            futures = [pool.submit(t) for t in tasks]
            return [f.result() for f in futures]

        yield run


def _require_finite_tensors(vecs, dims):
    """Raise DomainError naming the first nonfinite covariate entry.

    One sum over the payload allocates nothing payload-sized; only when it
    is not finite are the rows searched (a sum that overflows with every
    entry finite passes the search).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(vecs.sum()):
            return
    for i, row in enumerate(vecs):
        bad = np.flatnonzero(~np.isfinite(row))
        if bad.size:
            at = tuple(int(k) for k in np.unravel_index(bad[0], dims, order="F"))
            raise DomainError(
                f"tensor covariate x[{i}] has the nonfinite entry {row[bad[0]]} "
                f"at index {at}"
            )


def _require_valid_fit_data(dataset, family):
    """Raise DomainError for a nonfinite y or z, fewer observations than
    intercept and covariate columns, a z whose columns are collinear with
    the intercept, or a y outside the family's support."""
    for name, a in (("y", dataset.y), ("z", dataset.z)):
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            at = ", ".join(str(int(k)) for k in bad[0])
            raise DomainError(f"{name}[{at}] is {a[tuple(bad[0])]}: {name} must be finite")
    if dataset.n <= dataset.p0:
        raise DomainError(
            f"n={dataset.n} observations for {dataset.p0 + 1} intercept and "
            "covariate columns"
        )
    rank = np.linalg.matrix_rank(np.column_stack([np.ones(dataset.n), dataset.z]))
    if rank <= dataset.p0:
        raise DomainError(
            f"z is collinear with the intercept: [1, z] has rank {rank} of "
            f"{dataset.p0 + 1} columns"
        )
    outside = np.flatnonzero(~family.in_support(dataset.y))
    if outside.size:
        i = int(outside[0])
        raise DomainError(
            f"y[{i}] = {dataset.y[i]:g} is outside the support of the "
            f"{family.name} family ({family.support})"
        )


class TensorGlmDataset:
    """Observations ``(y_i, x_i, z_i)`` with tensor covariates of shared dims.

    The covariates are held once, as the ``(n, prod(dims))`` array of
    :meth:`x_matrix`; an ``x`` that already views such an array in vec
    order (as :func:`tensorreg.io.parse_tensor_file` returns) is not
    copied.  A nonfinite tensor entry raises DomainError; ``y`` and ``z``
    are checked by :func:`fit`, against the family.

    Parameters
    ----------
    y : (n,) array
    x : list of DenseTensor, or array of shape ``(n, p_1, ..., p_D)``
    z : (n, p_0) array or None
        Ordinary covariates; ``None`` means ``p_0 = 0``.
    """

    def __init__(self, y, x, z=None):
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        n = y.size
        if n < 1:
            raise DomainError("dataset needs at least one observation")
        dims, vecs = stack_vec(x)
        if vecs.shape[0] != n:
            raise DomainError(f"{vecs.shape[0]} tensors for {n} responses")
        if z is None:
            z = np.zeros((n, 0))
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z[:, None]
        if z.ndim != 2:
            raise DomainError(f"z must be an (n, p0) matrix, got shape {z.shape}")
        if z.shape[0] != n:
            raise DomainError(f"z has {z.shape[0]} rows for {n} responses")
        self.y = y
        self.z = z
        self.dims = dims
        self._vecs = np.require(vecs, np.float64, ["C", "A"])
        _require_finite_tensors(self._vecs, dims)

    @property
    def n(self):
        return self.y.size

    @property
    def p0(self):
        return self.z.shape[1]

    @property
    def ndim(self):
        return len(self.dims)

    def x_matrix(self):
        """``(n, prod(dims))`` matrix whose row i is ``vec(x_i)`` (not a copy)."""
        return self._vecs


def _require_int(name, value, low):
    """``value`` as an int; DomainError naming ``name`` unless it is an
    integer (not a bool) >= ``low``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        v = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if not v >= low:
        raise DomainError(f"{name} must be >= {low}, got {value!r}")
    return v


@dataclass
class FitConfig:
    """Knobs for the alternating fit.

    ``epsilon`` is the absolute stopping threshold on the objective
    increase per outer cycle; ``None`` uses ``1e-6 * (1 + |objective|)``.
    A ``penalty`` with ``rho = 0`` is no penalty, and is held as ``None``.
    """

    rank: int = 1
    epsilon: float | None = None
    max_outer_iters: int = 500
    restarts: int = 5
    seed: int = 0
    penalty: PenaltySpec | None = None

    def __post_init__(self):
        _require_int("rank", self.rank, 1)
        if self.epsilon is not None and not self.epsilon > 0:
            raise DomainError("epsilon must be positive")
        _require_int("max_outer_iters", self.max_outer_iters, 1)
        _require_int("restarts", self.restarts, 1)
        _require_int("seed", self.seed, 0)
        if self.penalty is not None and self.penalty.rho == 0.0:
            self.penalty = None


@dataclass
class TensorGlmModel:
    """A fitted rank-R tensor GLM."""

    alpha: float
    gamma: np.ndarray
    coeff: CpTensor
    family: GlmFamily
    phi: float
    loglik: float
    bic: float
    trace: list
    converged: bool
    restarts_used: int
    n: int
    p0: int
    penalty: PenaltySpec | None = None

    @property
    def dims(self):
        return self.coeff.dims

    @property
    def rank(self):
        return self.coeff.rank

    def coefficient_tensor(self):
        return cp_to_full(self.coeff)

    def linear_predictor(self, dataset):
        return _linear_predictor(dataset, self.alpha, self.gamma, self.coeff)

    def predict_mean(self, dataset):
        return self.family.mean(self.linear_predictor(dataset))


def _require_matching_data(dataset, dims, p0):
    """Raise DomainError unless ``dataset`` has the model's tensor dims and p0."""
    if dataset.dims != dims or dataset.p0 != p0:
        raise DomainError(
            f"the model has dims {dims} and p0={p0}, the dataset dims "
            f"{dataset.dims} and p0={dataset.p0}"
        )


def _linear_predictor(dataset, alpha, gamma, coeff):
    """``eta_i = alpha + gamma'z_i + <B, x_i>`` for every sample."""
    _require_matching_data(dataset, coeff.dims, gamma.size)
    eta = np.full(dataset.n, alpha)
    if gamma.size:
        eta = eta + dataset.z @ gamma
    return eta + dataset.x_matrix() @ cp_to_full(coeff).data


def bic_from_loglik(loglik, n, p_e):
    """Bayesian information criterion ``-2 loglik + log(n) p_e``."""
    return float(-2.0 * loglik + np.log(n) * p_e)


# Entries of the middle-mode intermediate per row block: about 256 KB, the
# fastest of 32 KB to 2 MB on 16x16x16 and 8x32x32 data at 2 to 10 columns.
_BLOCK_ENTRIES = 2**15


def build_block_design(dataset, coeff, d, *, run=_run_inline, parts=1):
    """Design matrix for the mode-d factor update, as a new array.

    Row i is ``vec(X_{i(d)} W_d)`` where ``W_d`` is the Khatri-Rao chain
    of the other factors in descending mode order, so that
    ``row_i . vec(B_d) = <B, x_i>`` with the other blocks frozen.  The
    columns of factor column r are ``r*p_d : (r+1)*p_d``, so the design of
    a CpTensor whose factors stack those of several starts column-wise is
    the designs of the starts side by side.

    Computed by batched matrix products on the vec-order rows, viewed as
    ``(n, H, p_d, L)`` with ``L`` the product of the dims below mode d and
    ``H`` of those above.  Mode 1 multiplies each sample by the upper
    chain and the last mode by the lower chain.  A middle mode contracts
    the upper chain first, then L, in row blocks whose intermediate stays
    within an eighth of the payload and about 256 KB.

    The rows are built as ``parts`` independent contiguous ranges, handed
    as tasks to ``run(tasks, work)`` (by default, one after another on the
    calling thread; :func:`_worker_pool` yields one that spreads them over
    threads when ``work`` is large enough).  The ranges differ by at most
    one row, and ``work`` counts each at its share,
    ``n * prod(dims) * R // parts`` multiply-adds.  Every row is the same
    per-sample product whatever the ranges, so the design does not depend
    on ``run`` or ``parts``.
    """
    if coeff.dims != dataset.dims:
        raise DomainError(
            f"coefficient dims {coeff.dims} do not match data dims {dataset.dims}"
        )
    D = dataset.ndim
    if not 1 <= d <= D:
        raise DomainError(f"mode {d} out of range")
    n, R, p = dataset.n, coeff.rank, dataset.dims[d - 1]
    L = math.prod(dataset.dims[: d - 1])
    H = math.prod(dataset.dims[d:])
    x = dataset.x_matrix()
    out = np.empty((n, R, p))
    if d == 1:
        upper_t = factor_chain_omitting(coeff.factors, 1).T  # (R, H)

        def rows(s, e):
            np.matmul(upper_t, x[s:e].reshape(e - s, H, p), out=out[s:e])

    elif d == D:
        # a C-ordered chain: with the transposed view, numpy's per-sample
        # GEMM took 1.1-2.6x as long at one BLAS thread
        lower_t = np.ascontiguousarray(factor_chain_omitting(coeff.factors, D).T)

        def rows(s, e):
            np.matmul(lower_t, x[s:e].reshape(e - s, p, L).transpose(0, 2, 1),
                      out=out[s:e])

    else:
        upper_t = factor_chain_omitting(coeff.factors, range(1, d + 1)).T  # (R, H)
        lower = factor_chain_omitting(coeff.factors, range(d, D + 1))  # (L, R)
        lower_cols = lower.T[:, :, None]  # (R, L, 1)
        block = max(1, min(n * H // (8 * R), _BLOCK_ENTRIES // (R * p * L)))

        def rows(s, e):
            buf = np.empty((min(block, e - s), R, p * L))
            for a in range(s, e, block):
                m = min(block, e - a)
                np.matmul(upper_t, x[a : a + m].reshape(m, H, p * L), out=buf[:m])
                np.matmul(buf[:m].reshape(m, R, p, L), lower_cols,
                          out=out[a : a + m, :, :, None])

    parts = max(1, min(parts, n))
    bounds = [n * k // parts for k in range(parts + 1)]
    run([functools.partial(rows, s, e) for s, e in zip(bounds, bounds[1:])],
        n * H * p * L * R // parts)
    return out.reshape(n, R * p)


def effective_parameters(dims, rank, p0):
    """Effective parameter count: intercept + covariates + free CP entries.

    For a matrix covariate, ``R (p_1 + p_2) - R^2`` is the dimension of the
    rank-R matrices only while ``R <= min(p_1, p_2)``; a higher rank raises
    DomainError.
    """
    dims = tuple(int(p) for p in dims)
    R = int(rank)
    if R < 1:
        raise DomainError("rank must be >= 1")
    D = len(dims)
    if D == 1:
        tensor_part = dims[0]
    elif D == 2:
        if R > min(dims):
            raise DomainError(
                f"rank {R} for a {dims[0]}x{dims[1]} matrix covariate: its "
                f"coefficient has matrix rank at most min(p1, p2) = {min(dims)}, "
                f"so only ranks up to {min(dims)} can be fitted"
            )
        tensor_part = R * (dims[0] + dims[1]) - R * R
    else:
        tensor_part = R * (sum(dims) - D + 1)
    return int(p0) + 1 + tensor_part


def _require_enough_observations(dataset, config):
    """Raise DomainError when a 1-mode covariate is fitted at rank > 1, a
    matrix covariate at a rank above its smaller side, or when an
    unpenalized block, or the unpenalized model as a whole, has no more
    observations than parameters."""
    n, R, p0 = dataset.n, config.rank, dataset.p0
    if dataset.ndim == 1 and R > 1:
        raise DomainError(
            f"rank {R} for a 1-mode covariate: its coefficient is a vector, "
            "whose CP rank is 1, so only rank 1 can be fitted"
        )
    p_e = effective_parameters(dataset.dims, R, p0)  # checks a matrix's rank
    if config.penalty is not None:
        return
    for d, p in enumerate(dataset.dims, start=1):
        if n <= p * R + p0 + 1:
            raise DomainError(
                f"n={n} too small for an unpenalized rank-{R} fit: block {d} "
                f"needs more than {p * R + p0 + 1} observations"
            )
    if n <= p_e:
        raise DomainError(
            f"n={n} too small for an unpenalized rank-{R} fit: it has {p_e} "
            f"effective parameters"
        )


def _starts(config, init_factors=None):
    """``(config, rng, init_factors)`` for each restart of ``config``: RNG
    streams spawned from ``config.seed``, ``init_factors`` pinning the
    first."""
    seeds = SeedSequence(config.seed).spawn(config.restarts)
    return [
        (config, default_rng(seed), init_factors if i == 0 else None)
        for i, seed in enumerate(seeds)
    ]


class _Start:
    """One start of the block relaxation: its iterate, outer objective
    trace and outcome.

    ``eta`` and ``loglik`` are the linear predictor and log-likelihood of
    the current iterate, as the solve that reached it evaluated them; the
    next solve starts from them instead of evaluating the iterate again.
    """

    def __init__(self, config, factors, ag, offset_ag):
        self.config = config
        self.factors = factors
        self.ag = ag
        self.offset_ag = offset_ag
        self.eta = None
        self.loglik = None
        self.trace = []
        self.converged = False
        self.error = None

    @property
    def active(self):
        return (
            self.error is None
            and not self.converged
            and len(self.trace) <= self.config.max_outer_iters
        )


def _fit_lockstep(dataset, family, starts):
    """Block relaxation from every start of ``starts`` at once.

    ``starts`` holds ``(config, rng, init_factors)`` triples, whose ranks
    may differ.  In each cycle and mode the factors of the starts still
    running are stacked column-wise into one CpTensor, so one
    :func:`build_block_design` call reads the payload for all of them, in
    one row range per ``TENSORREG_THREADS`` worker; each start then solves
    its block on its own column slice.  The ranges, and the solves, go to
    the workers by the one rule of :func:`_worker_pool`.  Each design is a
    new array, freed before the next mode's is built.  One ``update``
    solves every block of a cycle, the D factor blocks and then the
    unpenalized (alpha, gamma), from the linear predictor and
    log-likelihood that the previous solve returned.  A start leaves the
    stack when it converges, reaches its ``max_outer_iters`` or raises a
    TensorRegError, which it keeps in ``error``.

    Returns one :class:`_Start` per start, in order.
    """
    n, dims = dataset.n, dataset.dims
    D = len(dims)
    y, x = dataset.y, dataset.x_matrix()
    zdesign = np.hstack([np.ones((n, 1)), dataset.z])

    def update(run, design, offset, start, penalty, block):
        """Solve a block of ``run`` from its held ``(eta, loglik)``, hold the
        solve's, and return the block's coefficients."""
        kw = dict(offset=offset, start=start, held=(run.eta, run.loglik))
        try:
            if penalty is None:
                res = irls_fit(design, y, family, **kw)
            else:
                res = penalized_fit(design, y, family, penalty=penalty, **kw)
        except SingularDesignError as err:
            raise SingularDesignError(err.ncols, err.rank, block=block) from None
        run.eta, run.loglik = res.eta, res.loglik
        return res.coefficients

    def solve_block(run, d, design):
        coef = update(run, design, run.offset_ag, run.factors[d - 1].ravel(order="F"),
                      run.config.penalty, d)
        run.factors[d - 1] = coef.reshape((dims[d - 1], run.config.rank), order="F")

    def end_cycle(run):
        # (alpha, gamma) is never penalized, and names no factor block
        run.ag = update(run, zdesign, run.eta - run.offset_ag, run.ag, None, None)
        run.offset_ag = zdesign @ run.ag
        # the log-likelihood at the new (alpha, gamma), with eta summed as
        # the initial objective sums it
        obj = run.loglik - _penalty_total(run.config.penalty, run.factors)
        run.trace.append(obj)
        eps = run.config.epsilon
        threshold = eps if eps is not None else 1e-6 * (1.0 + abs(obj))
        run.converged = obj - run.trace[-2] < threshold

    def step(run, d, design):
        try:
            solve_block(run, d, design)
            if d == D:
                end_cycle(run)
        except TensorRegError as err:
            run.error = err

    runs = []
    if not starts:
        return runs
    try:
        # Intercept/covariate start, shared by every start: GLM with the
        # tensor part zeroed out.
        ag = irls_fit(zdesign, y, family).coefficients
    except TensorRegError as err:
        for config, _, _ in starts:
            run = _Start(config, None, None, None)
            run.error = err
            runs.append(run)
        return runs
    offset_ag = zdesign @ ag
    for config, rng, init in starts:
        if init is not None:
            factors = [np.array(f, dtype=np.float64) for f in init]
        else:
            factors = []
            for p in dims:
                f = rng.standard_normal((p, config.rank))
                f /= np.maximum(np.linalg.norm(f, axis=0), 1e-12)
                factors.append(f)
        runs.append(_Start(config, factors, ag, offset_ag))
    # each start's initial linear predictor from products of its own, over
    # row blocks that stay in cache while every start reads them: a GEMM
    # over the stacked vecs rounds a start's column unlike its single-start
    # fit does, and the fit can carry that difference into its factors
    vecs = [cp_to_full(CpTensor(run.factors)).data for run in runs]
    etas = np.empty((len(runs), n))
    rows = max(1, _BLOCK_ENTRIES // x.shape[1])
    for s in range(0, n, rows):
        for eta, vec in zip(etas, vecs):
            np.matmul(x[s : s + rows], vec, out=eta[s : s + rows])
    for run, eta in zip(runs, etas):
        run.eta = run.offset_ag + eta
        run.loglik = log_likelihood(family, y, run.eta, 1.0)
        run.trace.append(run.loglik - _penalty_total(run.config.penalty, run.factors))

    running = list(runs)
    workers = max_workers()
    with _worker_pool(workers) as run_tasks:
        while running:
            for d in range(1, D + 1):
                if not running:
                    break
                stacked = CpTensor(
                    [np.hstack([run.factors[k] for run in running]) for k in range(D)]
                )
                design = build_block_design(dataset, stacked, d, run=run_tasks,
                                            parts=workers)
                tasks, end = [], 0
                for run in running:  # each start's columns, in stacking order
                    start, end = end, end + dims[d - 1] * run.config.rank
                    tasks.append(functools.partial(step, run, d, design[:, start:end]))
                widest = dims[d - 1] * max(run.config.rank for run in running)
                run_tasks(tasks, n * widest**2)
                del design, tasks  # freed before the next mode's design is built
                running = [run for run in running if run.active]
    return runs


def _best_model(dataset, family, config, runs):
    """The normalized model of the best of ``runs``, the starts of
    ``config``; FitConvergenceError when every start failed, or when the
    best bernoulli start, penalized or not, fits every response with near
    certainty (a log-likelihood above -1e-6): the data are then separated,
    and the maximum lies at infinity (a penalty bounds only the tensor
    factors, not the covariates).  Dispersion and log-likelihood are
    taken at the linear predictor the best start holds:
    normalization leaves the tensor unchanged, so nothing is contracted anew.
    """
    successes = [run for run in runs if run.error is None]
    if not successes:
        # the most cycles, then the best objective
        furthest = max(runs, key=lambda run: (len(run.trace), run.trace[-1:]))
        raise FitConvergenceError(
            f"all {len(runs)} restarts failed: {runs[0].error}",
            best_trace=list(furthest.trace),
        )
    best = max(successes, key=lambda run: run.trace[-1])
    if family.name == "bernoulli" and best.loglik > -1e-6:
        raise FitConvergenceError(
            f"complete separation at rank {config.rank}: the fit reaches "
            f"log-likelihood {best.loglik:.3g}, and its maximum lies at "
            "infinity; a penalty bounds only the tensor factors (the intercept "
            "and covariates are not penalized)",
            best_trace=list(best.trace),
        )
    n, dims, p0 = dataset.n, dataset.dims, dataset.p0
    alpha, gamma = float(best.ag[0]), best.ag[1:].copy()

    coeff = normalize_identifiability(CpTensor(best.factors))
    p_e = effective_parameters(dims, config.rank, p0)
    eta = best.eta
    if family.dispersion_fixed:
        phi = 1.0
    else:
        mu = family.mean(eta)
        dof = n - p_e if n > p_e else n
        phi = float(np.sum((dataset.y - mu) ** 2 / family.variance(mu)) / dof)
    loglik = log_likelihood(family, dataset.y, eta, phi)
    return TensorGlmModel(
        alpha=alpha,
        gamma=gamma,
        coeff=coeff,
        family=family,
        phi=phi,
        loglik=loglik,
        bic=bic_from_loglik(loglik, n, p_e),
        trace=best.trace,
        converged=best.converged,
        restarts_used=len(successes),
        n=n,
        p0=p0,
        penalty=config.penalty,
    )


def fit(dataset, family, config, init_factors=None):
    """Fit a rank-R tensor GLM by block relaxation.

    Runs ``config.restarts`` starts (per-restart RNG streams spawned from
    ``config.seed``) in lockstep and keeps the run with the best final
    objective.  The returned coefficient is in normalized form.

    ``init_factors`` optionally pins the starting factors of the first
    restart (used e.g. to study sensitivity to initialization).

    Raises DomainError, before any fitting, for a nonfinite ``y`` or ``z``,
    n at most p0, a ``z`` collinear with the intercept, a ``y`` outside the
    family's support, a rank above 1 for a 1-mode covariate or above
    min(p_1, p_2) for a matrix covariate, and an unpenalized fit
    with n at most its effective parameters, or at most one factor block's
    plus 1 + p0.  When every restart fails, FitConvergenceError carries the
    objective trace of the restart that ran the most cycles; it also names
    complete separation, when a bernoulli fit, penalized or not, reaches a
    log-likelihood above -1e-6.
    """
    family = get_family(family)
    _require_valid_fit_data(dataset, family)
    _require_enough_observations(dataset, config)
    if init_factors is not None:
        init = CpTensor(init_factors)
        if init.dims != dataset.dims or init.rank != config.rank:
            raise DomainError(
                f"init_factors have dims {init.dims} and rank {init.rank}; the "
                f"fit needs dims {dataset.dims} and rank {config.rank}"
            )
    runs = _fit_lockstep(dataset, family, _starts(config, init_factors))
    return _best_model(dataset, family, config, runs)


def normalize_identifiability(coeff):
    """Rescale and reorder CP factors into the canonical identifiable form.

    Columns of ``B_1, ..., B_{D-1}`` are scaled so their first entries are
    one (the scale moves into ``B_D``); columns are then permuted so the
    first row of ``B_D`` is strictly descending.  The represented tensor
    is unchanged.  Zero first-row entries or ties (a measure-zero set) use
    a documented fallback and emit :class:`DegenerateNormalizationWarning`:
    scaling by the largest-magnitude entry of the column instead, and
    breaking order ties by the later rows of ``B_D``.
    """
    D, R = coeff.ndim, coeff.rank
    factors = [f.copy() for f in coeff.factors]
    degenerate = False
    scale = np.ones(R)
    for d in range(D - 1):
        divisors = factors[d][0, :].copy()
        bad = divisors == 0.0
        if bad.any():
            degenerate = True
            for r in np.nonzero(bad)[0]:
                col = factors[d][:, r]
                top = col[np.argmax(np.abs(col))]
                divisors[r] = top if top != 0.0 else 1.0
        factors[d] /= divisors
        scale *= divisors
    factors[D - 1] = factors[D - 1] * scale

    lead = factors[D - 1][0, :]
    # a sorted tie test: np.unique would load numpy.ma inside the fit
    if (np.diff(np.sort(lead)) == 0).any():
        degenerate = True
    if R > 1:
        # np.lexsort orders by the *last* key first: primary key is the
        # first row, later rows only break exact ties.
        keys = tuple(-factors[D - 1][i, :] for i in range(factors[D - 1].shape[0] - 1, -1, -1))
        order = np.lexsort(keys)
        if not np.array_equal(order, np.arange(R)):
            factors = [f[:, order] for f in factors]
    if degenerate:
        warnings.warn(
            "degenerate normalization (zero leading entry or tied ordering row); "
            "fell back to largest-magnitude scaling / later-row tie breaking",
            DegenerateNormalizationWarning,
            stacklevel=2,
        )
    return CpTensor(factors)


def bic(model, dataset):
    """Bayesian information criterion of ``model`` on ``dataset``."""
    eta = model.linear_predictor(dataset)
    ll = log_likelihood(model.family, dataset.y, eta, model.phi)
    p_e = effective_parameters(model.dims, model.rank, model.p0)
    return bic_from_loglik(ll, dataset.n, p_e)


def select_rank(dataset, family, max_rank, config):
    """Fit ranks 1..max_rank and return (best-BIC model, selection table).

    The restarts of every rank run in one lockstep fit, and each rank's
    model is the best of its own restarts, as in :func:`fit`.  Ties break
    toward the smaller rank.  Ranks whose fit fails, or that :func:`fit`
    would reject before fitting (too few observations, or a rank above 1
    for a 1-mode covariate or above min(p_1, p_2) for a matrix covariate),
    are recorded in the table and skipped; when no rank is left, the error
    names the first rank's.
    """
    _require_int("max_rank", max_rank, 1)
    # bad input is no per-rank failure: raise it instead of tabulating it
    family = get_family(family)
    _require_valid_fit_data(dataset, family)

    plan, starts = [], []  # per rank: its config and first start, or its error
    for rank in range(1, max_rank + 1):
        cfg = replace(config, rank=rank)
        try:
            _require_enough_observations(dataset, cfg)
        except DomainError as err:
            plan.append((cfg, err))
            continue
        plan.append((cfg, len(starts)))
        starts += _starts(cfg)
    runs = _fit_lockstep(dataset, family, starts)
    table = []
    best = None
    for cfg, at in plan:
        try:
            if isinstance(at, TensorRegError):
                raise at
            res = _best_model(dataset, family, cfg, runs[at : at + cfg.restarts])
        except TensorRegError as err:
            table.append(
                {"rank": cfg.rank, "bic": None, "loglik": None, "converged": False,
                 "error": str(err)}
            )
            continue
        table.append(
            {"rank": cfg.rank, "bic": res.bic, "loglik": res.loglik,
             "converged": res.converged, "error": None}
        )
        if best is None or res.bic < best.bic:
            best = res
    if best is None:
        raise FitConvergenceError(
            f"no rank produced a model: {table[0]['error']}", best_trace=[]
        )
    return best, table


# ---------------------------------------------------------------------------
# Derivatives of the linear predictor and likelihood-based inference
# ---------------------------------------------------------------------------


def eta_gradient(coeff, x):
    """Gradient of ``eta = <B, x>`` in all CP entries, stacked by mode.

    Block d is ``vec(X_(d) W_d)`` (column-major): the row of the one-sample
    :func:`build_block_design` for mode d.
    """
    one = TensorGlmDataset(np.zeros(1), [x])
    return np.concatenate(
        [build_block_design(one, coeff, d)[0] for d in range(1, coeff.ndim + 1)]
    )


def eta_hessian(coeff, x):
    """Hessian of ``eta = <B, x>`` in all CP entries.

    Diagonal blocks are zero; the (d, d') block is nonzero only where the
    two coordinates share the same rank-1 term, with values read off the
    mode-(d, d') matricization times the chain of the remaining factors.
    """
    if coeff.dims != x.dims:
        raise DomainError(f"dims {coeff.dims} vs {x.dims}")
    D, R = coeff.ndim, coeff.rank
    dims = coeff.dims
    sizes = [p * R for p in dims]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    H = np.zeros((offsets[-1], offsets[-1]))
    for d in range(1, D + 1):
        for d2 in range(d + 1, D + 1):
            m = mode_dd_matricize(x, d, d2) @ factor_chain_omitting(
                coeff.factors, (d, d2)
            )
            pd, pd2 = dims[d - 1], dims[d2 - 1]
            for r in range(R):
                sub = m[:, r].reshape(pd, pd2, order="F")
                r0, c0 = offsets[d - 1] + r * pd, offsets[d2 - 1] + r * pd2
                H[r0 : r0 + pd, c0 : c0 + pd2] = sub
                H[c0 : c0 + pd2, r0 : r0 + pd] = sub.T
    return H


def free_parameter_index(dims, rank):
    """Positions of the free CP entries after the normalization deletes
    the first rows of ``B_1 ... B_{D-1}``.

    Returns ``(index_map, keep)`` where ``index_map[(d, i, r)]`` (1-based
    mode, row, column) gives the flat position in the free vector and
    ``keep`` is the boolean selector into the full stacked layout of
    :func:`eta_gradient`.
    """
    D = len(dims)
    coords = [
        (d, i, r)
        for d, p in enumerate(dims, start=1)
        for r in range(1, rank + 1)
        for i in range(1, p + 1)
    ]
    keep = np.array([d == D or i > 1 for d, i, _ in coords], dtype=bool)
    free = itertools.compress(coords, keep)
    return {c: pos for pos, c in enumerate(free)}, keep


@dataclass
class InferenceReport:
    """Score, Fisher information and Wald standard errors.

    The parameter vector is the free CP entries (first rows of
    ``B_1..B_{D-1}`` excluded), followed by the intercept and the
    covariate coefficients; ``free_parameter_index`` maps 1-based
    ``(mode, row, column)`` CP coordinates to positions, and
    ``alpha_position`` / ``gamma_positions`` locate the rest.
    ``condition_number`` is the information's largest over smallest singular value.
    """

    score: np.ndarray
    information: np.ndarray
    std_errors: np.ndarray
    free_parameter_index: dict
    alpha_position: int
    gamma_positions: np.ndarray
    condition_number: float


def _eta_derivatives(model, dataset):
    """``(G, w, r)``: the eta gradients and log-likelihood weights at ``model``.

    Row i of ``G`` is the gradient of ``eta_i`` in (free CP entries, alpha,
    gamma), filled mode by mode from :func:`build_block_design`.  With a
    canonical link, ``d loglik_i / d eta_i = r_i = (y_i - mu_i) / a(phi)``
    and ``d^2 loglik_i / d eta_i^2 = -w_i = -V(mu_i) / a(phi)``.
    """
    _require_matching_data(dataset, model.dims, model.p0)
    coeff, n = model.coeff, dataset.n
    R = coeff.rank
    _, keep = free_parameter_index(coeff.dims, R)
    nfree = int(keep.sum())
    G = np.empty((n, nfree + 1 + dataset.p0))
    col = at = 0
    for d, p in enumerate(coeff.dims, start=1):
        keep_d = keep[at : at + p * R]
        width = int(keep_d.sum())
        G[:, col : col + width] = build_block_design(dataset, coeff, d)[:, keep_d]
        col, at = col + width, at + p * R
    G[:, nfree] = 1.0
    G[:, nfree + 1 :] = dataset.z
    fam = model.family
    a_phi = fam.a_phi(model.phi)
    mu = model.predict_mean(dataset)
    return G, fam.variance(mu) / a_phi, (dataset.y - mu) / a_phi


def score_and_information(model, dataset):
    """Score vector and Fisher information over the free parametrization.

    With the eta gradients ``G`` and weights of :func:`_eta_derivatives`,
    the score is ``G'r`` and the information ``G'WG``: the per-sample
    outer-product form summed over the sample, so standard errors are
    square roots of the diagonal of its inverse directly.
    """
    G, w, r = _eta_derivatives(model, dataset)
    score = G.T @ r
    info = (G * w[:, None]).T @ G
    dim = info.shape[0]
    if not np.all(np.isfinite(info)):
        raise InferenceError("Fisher information has nonfinite entries")
    try:
        # numpy's matrix_rank rule, on singular values that also give the condition
        s = np.linalg.svd(info, compute_uv=False)
        rank = int(np.count_nonzero(s > s[0] * dim * np.finfo(s.dtype).eps))
        condition = float(s[0] / s[-1]) if s[-1] > 0.0 else np.inf
        if rank < dim:
            raise InferenceError(
                f"Fisher information is singular (rank {rank} of {dim}, "
                f"condition number {condition:.3g}); the parameter point is "
                "not locally identifiable up to permutation"
            )
        cov = np.linalg.solve(info, np.eye(dim))
    except np.linalg.LinAlgError as err:
        raise InferenceError(f"Fisher information: {err}") from None
    std = np.sqrt(np.maximum(np.diag(cov), 0.0))
    index_map, _ = free_parameter_index(model.dims, model.rank)
    nfree = len(index_map)
    return InferenceReport(
        score=score,
        information=info,
        std_errors=std,
        free_parameter_index=index_map,
        alpha_position=nfree,
        gamma_positions=np.arange(nfree + 1, nfree + 1 + model.p0),
        condition_number=condition,
    )


def log_density_hessian(model, dataset):
    """Hessian of the log-likelihood over the free parametrization.

    Minus the Fisher information ``G'WG`` of :func:`score_and_information`
    plus the score-weighted curvature of eta, ``sum_i r_i d^2 eta_i``, on
    the free CP block (see :func:`_eta_derivatives` for ``G``, ``w`` and
    ``r``).
    """
    G, w, r = _eta_derivatives(model, dataset)
    H = (G * -w[:, None]).T @ G
    # The eta-curvature term is linear in x, so the weighted sample sum
    # collapses into one Hessian evaluation at the weighted covariate sum.
    xw = DenseTensor(model.dims, r @ dataset.x_matrix())
    _, keep = free_parameter_index(model.dims, model.rank)
    nfree = int(keep.sum())
    H[:nfree, :nfree] += eta_hessian(model.coeff, xw)[np.ix_(keep, keep)]
    return H


# ---------------------------------------------------------------------------
# CP uniqueness diagnostics
# ---------------------------------------------------------------------------


def k_rank(m):
    """Largest k such that every k-subset of columns is linearly independent.

    Exhaustive over column subsets; guarded against combinatorial blowup.
    """
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    cols = m.shape[1]
    if cols < 1:
        raise DomainError("k-rank needs at least one column")
    if cols > 12:
        raise KRankSizeError(
            f"k-rank enumeration over {cols} columns is too large (max 12)"
        )
    max_k = min(cols, int(np.linalg.matrix_rank(m)))
    for k in range(1, max_k + 1):
        for subset in itertools.combinations(range(cols), k):
            if np.linalg.matrix_rank(m[:, subset]) < k:
                return k - 1
    return max_k


@dataclass
class UniquenessReport:
    """Checkable CP-uniqueness conditions for a factor set."""

    sufficient: bool
    necessary: bool
    k_ranks: list
    chain_ranks: list
    threshold: int
    notes: list = field(default_factory=list)


def check_uniqueness(coeff):
    """Evaluate the k-rank sufficient and Khatri-Rao-rank necessary
    conditions for uniqueness of the decomposition up to scaling and
    permutation."""
    D, R = coeff.ndim, coeff.rank
    k_ranks = [k_rank(f) for f in coeff.factors]
    threshold = 2 * R + (D - 1)
    sufficient = sum(k_ranks) >= threshold
    chain_ranks = []
    for d in range(1, D + 1):
        others = [coeff.factors[k] for k in range(D) if k != d - 1]
        chain = khatri_rao_chain(others) if others else np.ones((1, R))
        chain_ranks.append(int(np.linalg.matrix_rank(chain)))
    necessary = min(chain_ranks) == R
    notes = []
    if D == 2:
        notes.append(
            "D=2: any nonsingular transformation between the two factors "
            "also preserves the tensor, so these conditions alone do not "
            "settle uniqueness"
        )
    return UniquenessReport(
        sufficient=sufficient,
        necessary=necessary,
        k_ranks=k_ranks,
        chain_ranks=chain_ranks,
        threshold=threshold,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Model document (JSON-shaped) serialization
# ---------------------------------------------------------------------------

_DOC_FORMAT = "tensorreg-model"
_DOC_VERSION = 1


def model_to_document(model):
    """Serialize a fitted model to a JSON-compatible dict."""
    return {
        "format": _DOC_FORMAT,
        "version": _DOC_VERSION,
        "family": model.family.name,
        "alpha": float(model.alpha),
        "gamma": [float(v) for v in model.gamma],
        "dims": list(model.dims),
        "rank": int(model.rank),
        "factors": [[list(map(float, row)) for row in f] for f in model.coeff.factors],
        "phi": float(model.phi),
        "loglik": float(model.loglik),
        "bic": float(model.bic),
        "n": int(model.n),
        "p0": int(model.p0),
        "trace": [float(v) for v in model.trace],
        "converged": bool(model.converged),
        "restarts_used": int(model.restarts_used),
        "penalty": model.penalty.to_dict() if model.penalty is not None else None,
    }


def model_from_document(doc):
    """Rebuild a model from :func:`model_to_document` output.

    Raises DomainError naming the field that is missing, of the wrong JSON
    type (``n``, ``p0``, ``rank`` and ``restarts_used`` are integers,
    ``converged`` a boolean), nonfinite, out of range (``phi <= 0``,
    ``n < 1``, ``restarts_used < 1``), or inconsistent with the factors or
    ``p0``.
    """
    if not isinstance(doc, dict) or doc.get("format") != _DOC_FORMAT:
        raise DomainError(f"not a {_DOC_FORMAT} document")
    if doc.get("version") != _DOC_VERSION:
        raise DomainError(f"unsupported document version {doc.get('version')!r}")

    def field(key, convert=float):
        if key not in doc:
            raise DomainError(f"model document has no {key!r} field")
        try:
            return convert(doc[key])
        except (KeyError, TypeError, ValueError) as err:
            raise DomainError(f"model document field {key!r}: {err}") from None

    def integer(key, low):
        return _require_int(f"model document field {key!r}",
                            field(key, lambda v: v), low)

    def boolean(v):
        if not isinstance(v, bool):
            raise TypeError(f"must be true or false, got {v!r}")
        return v

    def finite(key, *values):
        if not all(np.isfinite(v).all() for v in values):
            raise DomainError(f"model document field {key!r} has a nonfinite value")
        return values[0]

    factors = field("factors", lambda fs: [np.asarray(f, np.float64) for f in fs])
    coeff = CpTensor(factors)
    finite("factors", *factors)
    if field("dims", tuple) != coeff.dims or integer("rank", 1) != coeff.rank:
        raise DomainError("document dims/rank do not match its factors")
    p0 = integer("p0", 0)
    gamma = finite("gamma", field("gamma", lambda v: np.asarray(v, dtype=np.float64)))
    if gamma.shape != (p0,):
        raise DomainError(f"model document fields 'gamma' and 'p0' disagree: gamma "
                          f"has shape {gamma.shape}, p0 is {p0}")
    phi = finite("phi", field("phi"))
    if phi <= 0.0:
        raise DomainError(f"model document field 'phi' must be > 0, got {phi!r}")
    return TensorGlmModel(
        alpha=finite("alpha", field("alpha")),
        gamma=gamma,
        coeff=coeff,
        family=field("family", lambda v: get_family(str(v))),
        phi=phi,
        loglik=finite("loglik", field("loglik")),
        bic=finite("bic", field("bic")),
        trace=finite("trace", field("trace", lambda v: [float(t) for t in v])),
        converged=field("converged", boolean),
        restarts_used=integer("restarts_used", 1),
        n=integer("n", 1),
        p0=p0,
        penalty=field("penalty", PenaltySpec.from_dict) if doc.get("penalty") else None,
    )


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_document(model), fh, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_document(json.load(fh))
