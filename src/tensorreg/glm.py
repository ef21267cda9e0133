"""Exponential families and the weighted/penalized GLM solvers.

These are the inner kernels of every block update in the alternating
tensor fit: each factor update is an ordinary GLM (or penalized GLM) on a
derived design matrix with the remaining parameters absorbed into an
offset.  Only canonical links are implemented (identity, logit, log), so
the natural parameter always equals the linear predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GlmDivergenceError, SingularDesignError
from .penalties import _penalty_total, threshold_update

__all__ = [
    "GlmFamily",
    "GlmFit",
    "get_family",
    "log_likelihood",
    "irls_fit",
    "penalized_fit",
]

_MIN_WEIGHT = 1e-10
# The one IRLS stopping rule, of every solve (see _irls).
_TOL = 1e-8
_MAX_ITER = 100
# Cholesky pivots below this share of the largest one send a weighted least
# squares step to the SVD solve, which determines the numerical rank.
_PIVOT_RATIO = 1e-6
# Caps on the coordinate-descent sweeps of one penalized quadratic step and
# on the sign patterns its active-set search tries before them.
_MAX_SWEEPS = 1000
_MAX_PATTERNS = 8


def _logistic(x):
    """``(exp(-|x|), 1 / (1 + exp(-x)))``, elementwise.

    ``exp`` only ever sees ``-|x|``, so it cannot overflow.  Beyond
    ``|x| > 708`` it underflows gradually toward the tiny true value, which
    is not an error.
    """
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(x))
    return e, np.where(x < 0.0, e, 1.0) / (1.0 + e)


# Lanczos's approximation of the gamma function with g = 7 and 9 terms,
# within 5e-15 of log Gamma(y + 1) relative to max(1, |log Gamma|), y >= 0:
#   Gamma(y + 1) = (u + g)^u e^-u A(y),  u = y + 1/2,
#   A(y) = sqrt(2 pi) e^-g (p_0 + sum_k p_k / (y + k)),
# with the factor sqrt(2 pi) e^-g taken into the coefficients.
_LANCZOS_G = 7.0
_LANCZOS_SCALE = np.sqrt(2.0 * np.pi) * np.exp(-_LANCZOS_G)
_LANCZOS_P0 = _LANCZOS_SCALE * 0.99999999999980993
_LANCZOS_P = _LANCZOS_SCALE * np.array([
    676.5203681218851, -1259.1392167224028, 771.32342877765313,
    -176.61502916214059, 12.507343278686905, -0.13857109526572012,
    9.9843695780195716e-6, 1.5056327351493116e-7,
])
_LANCZOS_K = np.arange(1.0, 9.0)[:, None]
# log(k!) for k = 0..255, looked up for integer y, as poisson counts are:
# every block solve sums the constant again, and on 400 counts the series
# takes about three times as long as the lookup
_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(256)])


def _log_factorial(y):
    """``log Gamma(y + 1)`` of the float array ``y >= 0``, elementwise."""
    x = y.reshape(-1)
    if x.size and 0.0 <= x.min() and x.max() < _LOG_FACTORIALS.size:
        k = x.astype(np.intp)
        if np.array_equal(k, x):
            return _LOG_FACTORIALS[k].reshape(y.shape)
    a = _LANCZOS_P @ np.reciprocal(x + _LANCZOS_K) + _LANCZOS_P0
    u = x + 0.5
    return (u * np.log(u + _LANCZOS_G) - u + np.log(a)).reshape(y.shape)


def expit(x):
    """Logistic function ``1 / (1 + exp(-x))``, elementwise."""
    return _logistic(np.asarray(x, dtype=np.float64))[1]


class GlmFamily:
    """An exponential-family response with its canonical link.

    Subclasses provide :meth:`b_and_mean`, the cumulant ``b(eta)`` together
    with the mean ``mu = b'(eta)`` from one pass over ``eta``; the mean
    alone, :meth:`mean`; the variance function ``V(mu) = b''(eta)``; the
    dispersion scale ``a(phi)``; and the log-density constant
    ``c(y, phi)``.  The link is canonical, so the natural parameter is
    ``eta`` itself, and the derivatives of the log-likelihood in ``eta``
    are ``(y - mu) / a(phi)`` and ``-V(mu) / a(phi)``.  ``b_and_mean`` is
    the only cumulant: every log-likelihood, the IRLS kernel's and
    :func:`log_likelihood`'s, is evaluated through it.
    """

    name = "?"
    dispersion_fixed = True
    # True when the log-likelihood is quadratic in eta: the IRLS working
    # model is then exact, and one undamped step reaches the maximum.
    quadratic_loglik = False
    support = "the real line"

    def a_phi(self, phi):
        """Dispersion scale ``a(phi)``: 1 for fixed-dispersion families."""
        return 1.0

    def mean(self, eta):
        """Mean function ``mu(eta) = b'(eta)``."""
        raise NotImplementedError

    def b_and_mean(self, eta):
        """``(b(eta), mu(eta))``, sharing the work of the two; an overflow
        of either is not an error."""
        raise NotImplementedError

    def variance(self, mu):
        """Variance function ``V(mu)``."""
        raise NotImplementedError

    def c(self, y, phi):
        """Per-observation log-density constant ``c(y, phi)``."""
        raise NotImplementedError

    def sample(self, eta, rng):
        """Draw responses with linear predictor ``eta`` (unit dispersion)."""
        raise NotImplementedError

    def in_support(self, y):
        """Elementwise: is the finite response ``y`` a value of this family?"""
        return np.ones(np.shape(y), dtype=bool)

    def __repr__(self):
        return f"<GlmFamily {self.name}>"


class NormalFamily(GlmFamily):
    name = "normal"
    dispersion_fixed = False
    quadratic_loglik = True

    def a_phi(self, phi):
        return float(phi)

    def mean(self, eta):
        return np.asarray(eta, dtype=np.float64)

    def b_and_mean(self, eta):
        eta = np.asarray(eta, dtype=np.float64)
        with np.errstate(over="ignore"):
            return 0.5 * np.square(eta), eta

    def variance(self, mu):
        return np.ones_like(np.asarray(mu, dtype=np.float64))

    def c(self, y, phi):
        # Exact constant, so the normal log-likelihood is the true density.
        return -0.5 * np.square(y) / phi - 0.5 * np.log(2.0 * np.pi * phi)

    def sample(self, eta, rng):
        return eta + rng.standard_normal(np.shape(eta))


class BernoulliFamily(GlmFamily):
    name = "bernoulli"
    support = "{0, 1}"

    def mean(self, eta):
        return expit(eta)

    def b_and_mean(self, eta):
        # one exp for both: log(1 + exp(eta)) = max(eta, 0) + log1p(e), and
        # the mean is expit's, with e = exp(-|eta|)
        e, mu = _logistic(eta)
        return np.maximum(eta, 0.0) + np.log1p(e), mu

    def variance(self, mu):
        return mu * (1.0 - mu)

    def c(self, y, phi):
        return np.zeros_like(np.asarray(y, dtype=np.float64))

    def sample(self, eta, rng):
        return (rng.random(np.shape(eta)) < expit(eta)).astype(np.float64)

    def in_support(self, y):
        y = np.asarray(y)
        return (y == 0.0) | (y == 1.0)


class PoissonFamily(GlmFamily):
    name = "poisson"
    support = "y >= 0"

    def mean(self, eta):
        return np.exp(eta)

    def b_and_mean(self, eta):
        with np.errstate(over="ignore"):
            mu = np.exp(eta)
        return mu, mu

    def variance(self, mu):
        return np.asarray(mu, dtype=np.float64)

    def c(self, y, phi):
        # Data-only constant log(y!), included so likelihoods are comparable
        # across models fitted to the same data.
        return -_log_factorial(np.asarray(y, dtype=np.float64))

    def sample(self, eta, rng):
        return rng.poisson(np.exp(eta)).astype(np.float64)

    def in_support(self, y):
        return np.asarray(y) >= 0.0


_FAMILIES = {f.name: f for f in (NormalFamily(), BernoulliFamily(), PoissonFamily())}
_ALIASES = {"gaussian": "normal", "binomial": "bernoulli", "logistic": "bernoulli"}


def get_family(name):
    """Look up a family instance by name (normal, bernoulli, poisson)."""
    if isinstance(name, GlmFamily):
        return name
    key = _ALIASES.get(name.lower(), name.lower())
    try:
        return _FAMILIES[key]
    except KeyError:
        raise DomainError(f"unknown GLM family {name!r}") from None


def log_likelihood(family, y, eta, phi=1.0):
    """Exponential-family log-likelihood at linear predictor ``eta``.

    ``sum_i (y_i * eta_i - b(eta_i)) / a(phi) + sum_i c(y_i, phi)``: the
    link is canonical, so the natural parameter is ``eta``.  The first sum is
    the IRLS kernel's evaluation, so at ``phi = 1`` this is its value to the bit.
    """
    family = get_family(family)
    y = np.asarray(y, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    if y.shape != eta.shape:
        raise DomainError(f"y has shape {y.shape}, eta has shape {eta.shape}")
    with np.errstate(over="ignore"):
        s, _ = _loglik_and_mean(family, y, eta, 0.0)
        return s / family.a_phi(phi) + float(np.sum(family.c(y, phi)))


@dataclass
class GlmFit:
    """Result of a (penalized) GLM fit.

    ``trace`` holds the objective (log-likelihood at unit dispersion, less
    the penalty) at every iterate; ``eta`` and ``loglik`` are the linear
    predictor and the log-likelihood of the last one, which a caller can
    hand to the next solve from the same point.  ``halvings`` counts the
    step-halvings of every iteration together.  The kernel estimates no
    dispersion: the tensor model does that once, for the model it keeps.
    """

    coefficients: np.ndarray
    iterations: int
    converged: bool
    eta: np.ndarray = field(default=None, repr=False)
    loglik: float = None
    halvings: int = 0
    trace: list = field(default_factory=list, repr=False)


def _as_problem(design, y, offset, start):
    """The design as a 2-D float array; the response, the offset and the
    start (zeros when None) as vectors."""
    X = np.asarray(design, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n, p = X.shape
    if y.size != n:
        raise DomainError(f"{n} design rows vs {y.size} responses")
    if offset is None:
        offset = np.zeros(n)
    offset = np.asarray(offset, dtype=np.float64).reshape(-1)
    if offset.size != n:
        raise DomainError(f"offset length {offset.size} != {n} observations")
    beta = np.zeros(p) if start is None else np.array(start, dtype=np.float64).ravel()
    if beta.size != p:
        raise DomainError(f"start has {beta.size} entries for {p} columns")
    return X, y, offset, beta


def _weighted_gram(X, w, z):
    """``X'WX`` and ``X'Wz`` for the diagonal weights ``W = diag(w)``.

    ``w`` None stands for unit weights (the normal family): the Gram is
    then ``X.T @ X`` on ``X`` itself, which numpy runs as one symmetric
    rank-k update (BLAS ``syrk``) with no weighted copy, also on a column
    slice of a wider design.
    """
    if w is None:
        return X.T @ X, X.T @ z
    Xw = X * w[:, None]
    return X.T @ Xw, Xw.T @ z


def _cholesky_solve(G, c):
    """Solve ``G b = c``, or return None if ``G`` is badly conditioned.

    The Cholesky factor of ``G`` is the conditioning test: None when the
    factorization fails or its smallest pivot (a diagonal entry of the
    factor) is below ``_PIVOT_RATIO`` times the largest, so that the caller
    can take the rank-revealing SVD path.  The system itself is then solved
    by one LAPACK ``gesv`` on ``G``, which at one BLAS thread takes about
    half the time of two general solves on the factor and its transpose
    (numpy has no triangular solve).
    """
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    pivots = L.diagonal()
    if not pivots.min() >= _PIVOT_RATIO * pivots.max():  # also catches NaN
        return None
    return np.linalg.solve(G, c)


def _least_squares_step(X, w, z, beta, first):
    """The weighted least-squares solution of ``X b ~ z`` with weights ``w``.

    Cholesky on ``X'WX``, or the rank-revealing SVD solve when that is
    badly conditioned; a rank-deficient design on the ``first`` step
    raises SingularDesignError.  ``w`` None means unit weights.
    """
    step = _cholesky_solve(*_weighted_gram(X, w, z))
    if step is None:
        if w is not None:
            sw = np.sqrt(w)
            X, z = sw[:, None] * X, sw * z
        step, _, rank, _ = np.linalg.lstsq(X, z, rcond=None)
        if first and rank < X.shape[1]:
            raise SingularDesignError(X.shape[1], int(rank))
    return step


def _loglik_and_mean(family, y, eta, const):
    """Log-likelihood at unit dispersion and mean at ``eta``: the kernel's
    one evaluation of an iterate.

    ``const`` is ``sum_i c(y_i, 1)``, summed once per solve.
    :func:`log_likelihood` evaluates through this function too, after its
    checks of the shapes, which the kernel fixed when it set up the
    problem.  An overflow of ``b`` (a poisson mean beyond the float range)
    gives a log-likelihood of -inf without a warning.
    """
    if not np.isfinite(eta).all():
        raise DomainError("nonfinite linear predictor")
    b, mu = family.b_and_mean(eta)
    return float(np.sum(y * eta - b) + const), mu


def _irls(design, y, family, offset, start, held, solve, penalty):
    """Maximize ``loglik - penalty(beta)`` by IRLS from ``start``, the
    kernel of :func:`irls_fit` and :func:`penalized_fit`.

    Each iteration forms the working response ``z`` and weights ``w`` at
    the current linear predictor, and ``solve(X, w, z, beta, first)``
    maximizes the working quadratic (with the penalty, if any).  When the
    log-likelihood is quadratic in eta (the normal family) the weights are
    1, passed as ``w`` None, and ``z`` is ``y - offset``.  The
    quadratic is only a local model for non-normal families, so the step
    is halved back toward the current iterate until the objective does not
    fall; the 40th halving is the last one evaluated, and is kept either
    way.  ``penalty`` is None for a plain fit.

    One rule stops every solve: an iteration that gains at most ``_TOL``
    of ``1 + |objective|``, or an undamped step when the log-likelihood is
    quadratic in eta (it is exact).  ``_MAX_ITER`` iterations without
    either raise GlmDivergenceError, which carries the last GlmFit.

    Every evaluated point costs one :func:`_loglik_and_mean`, whose mean
    forms the next working response.  ``held``, the ``(eta, loglik)`` of
    ``start`` or None, replaces the evaluation of the start, so that a call
    costs one evaluation per iteration and halving.

    Returns a GlmFit whose trace holds the objective at every iterate.
    """
    family = get_family(family)
    X, y, offset, beta = _as_problem(design, y, offset, start)
    const = float(np.sum(family.c(y, 1.0)))

    def evaluate(beta):
        eta = X @ beta + offset
        ll, mu = _loglik_and_mean(family, y, eta, const)
        return eta, mu, ll, ll if penalty is None else ll - penalty(beta)

    if held is None:
        eta, mu, ll, obj = evaluate(beta)
    else:
        eta, ll = np.asarray(held[0], dtype=np.float64).reshape(-1), float(held[1])
        if eta.size != y.size:
            raise DomainError(
                f"held eta has {eta.size} entries for {y.size} observations")
        mu = family.mean(eta)
        obj = ll if penalty is None else ll - penalty(beta)
    trace = [obj]
    converged = False
    spent = 0
    for it in range(1, _MAX_ITER + 1):
        if family.quadratic_loglik:
            w, z = None, y - offset
        else:
            # canonical link: mu'(eta) = V(mu)
            w = np.maximum(family.variance(mu), _MIN_WEIGHT)
            z = (eta - offset) + (y - mu) / w
        beta_new = solve(X, w, z, beta, it == 1)
        for halvings in range(41):
            eta_new, mu_new, ll_new, obj_new = evaluate(beta_new)
            if halvings == 40 or (
                np.isfinite(obj_new) and obj_new >= obj - 1e-12 * (1.0 + abs(obj))
            ):
                break
            beta_new = 0.5 * (beta_new + beta)
        spent += halvings
        beta, eta, mu, ll = beta_new, eta_new, mu_new, ll_new
        obj_prev, obj = obj, obj_new
        trace.append(obj)
        exact = family.quadratic_loglik and halvings == 0
        if exact or abs(obj - obj_prev) <= _TOL * (1.0 + abs(obj)):
            converged = True
            break
    fit = GlmFit(
        coefficients=beta,
        iterations=len(trace) - 1,
        converged=converged,
        eta=eta,
        loglik=ll,
        halvings=spent,
        trace=trace,
    )
    if not converged:
        raise GlmDivergenceError(
            f"{'IRLS' if penalty is None else 'penalized IRLS'} did not converge "
            f"in {_MAX_ITER} iterations (family={family.name}; possible "
            "separation or unstable design)",
            last_fit=fit,
        )
    return fit


def irls_fit(design, y, family, offset=None, *, start=None, held=None):
    """Maximum-likelihood GLM fit by iteratively reweighted least squares.

    The offset is added to the linear predictor and not estimated.  Each
    step solves the weighted normal equations ``X'WX b = X'Wz`` by
    Cholesky; when the factorization fails or is badly conditioned, the
    step is a rank-revealing SVD least-squares solve instead.  For a
    family whose log-likelihood is quadratic in the linear predictor (the
    normal family) the weights are 1, so the step solves
    ``X'X b = X'(y - offset)`` with the Gram formed from ``design`` itself
    (no weighted copy); that first undamped step is the maximum, and the
    fit stops there.  Step-halving keeps the log-likelihood nondecreasing
    across iterations for the canonical links used here; with a warm
    ``start`` the result is therefore never worse than the starting point.

    Each evaluated point costs one log-likelihood evaluation, which also
    gives the mean for the next working response.  ``held``, a pair
    ``(eta, loglik)`` of the linear predictor ``design @ start + offset``
    and the log-likelihood there (as ``GlmFit.eta`` and ``GlmFit.loglik``
    of the solve that reached ``start`` give them), spares the evaluation
    of the start: the fit starts from these values, which are not
    checked against ``start``.

    Every fit, here and in :func:`penalized_fit`, stops by one rule: an
    iteration that gains at most 1e-8 of the objective, relative to
    ``1 + |objective|``, or the exact step of the normal family.

    Raises
    ------
    SingularDesignError
        If the design is column-rank deficient.
    GlmDivergenceError
        If 100 iterations do not meet the stopping rule (e.g. separation
        under the bernoulli family); the error carries the last iterate.
    """
    return _irls(design, y, family, offset, start, held, _least_squares_step, None)


def _cd_on_quadratic(G, cvec, beta, spec, tol, max_sweeps):
    """Minimize (1/2) b'Gb - c'b + sum_j P(|b_j|), starting from ``beta``.

    For a penalty with a quadratic piece (lasso, ridge, elastic net), a
    primal-dual active-set search runs first (Hintermüller, Ito & Kunisch,
    SIAM J. Optim. 2002): from the sign pattern of ``beta``, each step
    solves that active set exactly by :func:`_exact_finish` and either
    accepts the solution or moves to the signs of its thresholded point.
    The search gives up at a repeated pattern or after ``_MAX_PATTERNS``
    steps.

    Cyclic coordinate descent from ``beta`` is the fallback, and the only
    solver for the other penalties.  The sweeps run on Python floats and
    read rows of the symmetric ``G``.  With a quadratic piece, a sweep that
    leaves the support and the signs unchanged, and the sweep that meets
    ``tol``, are followed by the same exact solve on that active set
    (Friedman, Hastie & Tibshirani, JSS 2010), so that both paths return
    the same solve of the same pattern.  A rejected solve is followed by
    one active-set step to the signs of its thresholded point: on a
    repeated column the sweeps creep towards that pattern by only
    ``2 a1 / G_jj`` a sweep.  The support leaves out entries
    within ``tol`` of zero: at a knot of the penalty both paths return the
    sparser pattern's solve (see :func:`_exact_finish`).  A solve is
    returned only if it is a fixed point of the sweep to within ``tol``,
    the step bound plain coordinate descent stops at.
    """
    finish = spec.quadratic_piece is not None
    if finish:
        cand = _pattern_search(G, cvec, np.sign(beta), spec, tol)
        if cand is not None:
            return cand
    coords = list(zip(range(beta.size), G, G.diagonal().tolist(), cvec.tolist()))
    rule = spec.threshold_rule()
    q = G @ beta
    b = beta.tolist()
    signs = np.sign(beta)
    tried = None
    for _ in range(max_sweeps):
        delta = 0.0
        for j, row, gjj, cj in coords:
            bj = b[j]
            if gjj <= 0.0:
                new = 0.0
            else:
                new = rule((cj - q.item(j) + gjj * bj) / gjj, gjj)
            step = new - bj
            if step != 0.0:
                q += row * step
                b[j] = new
                if abs(step) > delta:
                    delta = abs(step)
        done = delta <= tol
        if finish:
            # rounding noise about zero makes no pattern (see _exact_finish)
            now = np.array(b)
            before, signs = signs, np.where(np.abs(now) > tol, np.sign(now), 0.0)
            # the candidate depends on the sign pattern only: try each once
            stable = done or np.array_equal(signs, before)
            if stable and not np.array_equal(signs, tried):
                tried = signs
                cand, nxt = _exact_finish(G, cvec, signs, spec, tol)
                if cand is None and nxt is not None and not np.array_equal(nxt, signs):
                    # one active-set step: the sweeps may creep towards it
                    cand, _ = _exact_finish(G, cvec, nxt, spec, tol)
                if cand is not None:
                    return cand
        if done:
            break
    return np.array(b)


def _pattern_search(G, cvec, signs, spec, tol):
    """The accepted active-set solution reached from ``signs``, or None.

    Each step is one :func:`_exact_finish`; a rejected pattern is followed
    by the signs of its thresholded point.  None when a pattern repeats,
    a moved point is not finite, or ``_MAX_PATTERNS`` patterns were tried.
    """
    tried = []
    for _ in range(_MAX_PATTERNS):
        tried.append(signs)
        cand, signs = _exact_finish(G, cvec, signs, spec, tol)
        if cand is not None:
            return cand
        if signs is None or any(np.array_equal(signs, s) for s in tried):
            return None
    return None


def _exact_finish(G, cvec, signs, spec, tol):
    """Minimizer on the active set of ``signs``, if no sweep would move it.

    Solves ``(G_AA + a2 I) b_A = c_A - a1 s_A``, then applies one
    vectorised pass of :func:`threshold_update` to every coordinate at
    once.  Returns ``(b, None)`` when that pass moves no coordinate by more
    than ``tol``, no active entry of ``b`` has the sign opposite to the one
    it was solved for, and every active residual, computed directly, meets
    the bound of the pass.  The last two catch what the pass misses: with
    a near-zero ``a1`` a point off its pattern moves by less than ``tol``,
    and a nearly singular ``G_AA`` gives a point so large that the
    residual rounds away when the pass adds it.  At a knot, an accepted
    solve with active entries within ``tol`` of zero, the pass cannot tell
    the pattern from the one without those entries: that one is solved
    too and returned if it is accepted, so the sparsest accepted pattern
    wins, from whichever side a search reaches it.  Otherwise returns
    ``(None, s)``: ``s`` holds the signs of the moved point, the next
    pattern of the active-set search, or is None when the moved point is
    not finite.  The solve is numpy's LU; a singular ``G_AA`` (a repeated
    column) is solved by least squares, whose minimum-norm solution the
    same checks accept or reject.
    """
    a1, a2 = spec.quadratic_piece
    diag = G.diagonal()
    live = diag > 0.0
    act = (signs != 0.0) & live
    M = G[act][:, act]
    M[np.diag_indices_from(M)] += a2
    rhs = cvec[act] - a1 * signs[act]
    cand = np.zeros_like(cvec)
    try:
        cand[act] = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:  # singular G_AA: its minimum-norm solve
        cand[act] = np.linalg.lstsq(M, rhs, rcond=None)[0]
    w = np.where(live, diag, 1.0)
    r = cvec - G @ cand
    moved = threshold_update(spec, cand + r / w, w)
    moved[~live] = 0.0
    gap = np.max(np.abs(moved - cand))
    if gap <= tol:
        b, s = cand[act], signs[act]
        slack = np.abs(r[act] - a1 * s - a2 * b) - tol * (w[act] + a2)
        if np.all(b * s >= 0.0) and np.all(slack <= 0.0):
            knot = act & (np.abs(cand) <= tol)
            if knot.any():
                sparser, _ = _exact_finish(G, cvec, np.where(knot, 0.0, signs),
                                           spec, tol)
                if sparser is not None:
                    return sparser, None
            return cand, None
    return None, np.sign(moved) if np.isfinite(gap) else None


def penalized_fit(design, y, family, offset=None, penalty=None, *, start=None,
                  held=None):
    """Penalized GLM fit: the IRLS loop with a penalized quadratic step.

    Maximizes ``loglik - sum_j P(|beta_j|)``: every coefficient is
    penalized (the tensor fit updates its intercept and covariates in a
    block of their own, by :func:`irls_fit`).  ``penalty`` must have a
    positive ``rho``: an unpenalized fit is :func:`irls_fit`'s, and
    DomainError names it.  The IRLS loop, its stopping rule and ``held``
    are :func:`irls_fit`'s; it starts from ``start`` (zeros when it is
    None), and step-halving keeps the penalized objective nondecreasing, so
    the result is never worse than the start; for a nonconvex penalty
    (power with lam < 1, SCAD) it is the optimum reached from there.  Each
    quadratic step is solved by :func:`_cd_on_quadratic`: for lasso, ridge
    and elastic net an active-set search from the current iterate's sign
    pattern comes first and coordinate-descent sweeps are the fallback; the
    other penalties are solved by the sweeps alone.  The penalty of the
    start is added to a held log-likelihood here.
    """
    if penalty is None or not penalty.rho > 0.0:
        raise DomainError(
            f"penalized_fit needs a penalty with rho > 0, got {penalty!r}; "
            "fit without one by irls_fit"
        )

    def solve(X, w, z, beta, first):
        return _cd_on_quadratic(*_weighted_gram(X, w, z), beta, penalty,
                                tol=1e-12, max_sweeps=_MAX_SWEEPS)

    def cost(beta):
        return _penalty_total(penalty, (beta,))

    return _irls(design, y, family, offset, start, held, solve, cost)
