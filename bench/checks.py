"""Output checks: each recomputes a property of the program's result with
the benchmark's own code (its own TNSR reader, CP expansion,
log-likelihoods, BIC and gradients) and never with ``tensorreg``.

``run_checks`` returns ``{check: bool}``.  ``self_test`` feeds every check
a deliberately corrupted copy of the same result and reports, per check,
whether the corruption was rejected.
"""

from __future__ import annotations

import copy
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

TRACE_SLACK = 1e-10  # relative drop of the objective still counted as flat
MATCH_RTOL = 1e-8  # agreement asked of recomputed likelihoods and BICs
RECOVERY_SHARE = 0.25  # img64: RMSE limit as a share of the zero image's
GRADIENT_SHARE = 0.25  # ball16: block gradient limit, see _check_gradient


@dataclass
class Inputs:
    x: np.ndarray  # (n, p_1, ..., p_D), natural index order
    y: np.ndarray
    z: np.ndarray
    signal: np.ndarray
    gamma: np.ndarray
    alpha: float


@dataclass
class Fitted:
    """Plain copy of what the program returned and wrote."""

    factors: list
    alpha: float
    gamma: np.ndarray
    loglik: float
    bic: float
    trace: np.ndarray
    table: list | None
    predictions: np.ndarray | None = None
    reloaded_predictions: np.ndarray | None = None


def read_tnsr(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"TNSR":
        raise ValueError(f"{path}: not a TNSR file")
    n, D = struct.unpack_from("<II", blob, 4)
    dims = struct.unpack_from(f"<{D}I", blob, 12)
    vec = np.frombuffer(blob, dtype="<f8", offset=12 + 4 * D)
    # each sample is stored first index fastest
    vec = vec.reshape((n,) + tuple(reversed(dims)))
    return vec.transpose([0] + list(range(D, 0, -1)))


def read_csv_matrix(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def load_inputs(inputs):
    truth = np.load(os.path.join(inputs, "truth.npz"))
    return Inputs(
        x=read_tnsr(os.path.join(inputs, "x.tnsr")),
        y=read_csv_matrix(os.path.join(inputs, "response.csv"))[:, 0],
        z=read_csv_matrix(os.path.join(inputs, "covariates.csv")),
        signal=truth["signal"],
        gamma=truth["gamma"],
        alpha=float(truth["alpha"]),
    )


def fitted_from_model(model, table, dataset, out, tensorreg):
    """Copy the program's outputs; reload ``model.json`` for the round trip."""
    fitted = Fitted(
        factors=[np.array(f) for f in model.coeff.factors],
        alpha=float(model.alpha),
        gamma=np.array(model.gamma),
        loglik=float(model.loglik),
        bic=float(model.bic),
        trace=np.array(model.trace, dtype=float),
        table=copy.deepcopy(table),
    )
    fitted.predictions = model.predict_mean(dataset)
    reloaded = tensorreg.load_model(os.path.join(out, "model.json"))
    fitted.reloaded_predictions = reloaded.predict_mean(dataset)
    return fitted


# -- the benchmark's own model arithmetic -----------------------------------

def cp_full(factors):
    R = factors[0].shape[1]
    full = np.zeros(tuple(f.shape[0] for f in factors))
    for r in range(R):
        term = factors[0][:, r]
        for f in factors[1:]:
            term = np.multiply.outer(term, f[:, r])
        full += term
    return full


def linear_predictor(inp, image, alpha, gamma):
    n = inp.y.size
    return alpha + inp.z @ gamma + inp.x.reshape(n, -1) @ image.ravel()


def effective_parameters(dims, R, p0):
    """The paper's count: R(p1+p2) - R^2 for matrices, R(sum p_d - D + 1)
    for higher orders, plus the intercept and the covariates."""
    D = len(dims)
    tensor = R * sum(dims) - R * R if D == 2 else R * (sum(dims) - D + 1)
    return 1 + p0 + tensor


def normal_loglik(y, eta, p_e):
    n = y.size
    rss = float(np.sum((y - eta) ** 2))
    phi = rss / (n - p_e)
    return -0.5 * rss / phi - 0.5 * n * math.log(2.0 * math.pi * phi)


def bernoulli_loglik(y, eta):
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def rmse(a, b):
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def close(a, b, rtol=MATCH_RTOL):
    return abs(a - b) <= rtol * (1.0 + abs(b))


def trace_nondecreasing(trace):
    t = np.asarray(trace)
    return bool(np.all(np.diff(t) >= -TRACE_SLACK * (1.0 + np.abs(t[:-1]))))


# -- checks per workload ------------------------------------------------------

def _img64(inp, fit):
    image = cp_full(fit.factors)
    eta = linear_predictor(inp, image, fit.alpha, fit.gamma)
    eta_true = linear_predictor(inp, inp.signal, inp.alpha, inp.gamma)
    rss_hat = float(np.sum((inp.y - eta) ** 2))
    rss_true = float(np.sum((inp.y - eta_true) ** 2))
    zero_err = rmse(0.0, inp.signal)
    R = fit.factors[0].shape[1]
    p_e = effective_parameters(inp.signal.shape, R, inp.z.shape[1])
    bic = -2.0 * normal_loglik(inp.y, eta, p_e) + math.log(inp.y.size) * p_e
    return {
        "rss_at_estimate_le_truth": rss_hat <= rss_true,
        "recovery_rmse": rmse(image, inp.signal) < RECOVERY_SHARE * zero_err,
        "bic_recomputed": close(bic, fit.bic),
        "reload_identical_predictions": bool(
            np.array_equal(fit.predictions, fit.reloaded_predictions)),
    }


def _butterfly(inp, fit):
    image = cp_full(fit.factors)
    eta = linear_predictor(inp, image, fit.alpha, fit.gamma)
    R = fit.factors[0].shape[1]
    p_e = effective_parameters(inp.signal.shape, R, inp.z.shape[1])
    return {
        "trace_nondecreasing": trace_nondecreasing(fit.trace),
        "exact_zeros": bool(np.any(image == 0.0)),
        "loglik_recomputed": close(normal_loglik(inp.y, eta, p_e), fit.loglik),
        "recovery_beats_zero": rmse(image, inp.signal) < rmse(0.0, inp.signal),
    }


def _block_gradient(inp, factors, resid, d):
    """d loglik / d B_d for the bernoulli family: sum_i resid_i times the
    contraction of x_i with every factor but B_d."""
    D = len(factors)
    letters = "abcdefgh"[:D]
    operands = [inp.x, resid]
    terms = ["i" + letters, "i"]
    for k in range(D):
        if k != d:
            operands.append(factors[k])
            terms.append(letters[k] + "r")
    spec = ",".join(terms) + "->" + letters[d] + "r"
    return np.einsum(spec, *operands, optimize=True)


def _check_gradient(inp, fit):
    """Each factor block's log-likelihood gradient at the estimate is small
    against the gradient at the start of the tensor fit, where the linear
    predictor holds only the intercept and covariates (same factors).

    The workload caps the fit at 30 outer cycles, which leaves the rank-1
    fit short of convergence on some draws: the largest ratio seen over
    twelve draws was 0.086 (converged fits: about 0.001), hence a limit of
    a quarter rather than a tolerance."""
    image = cp_full(fit.factors)
    eta = linear_predictor(inp, image, fit.alpha, fit.gamma)
    eta0 = fit.alpha + inp.z @ fit.gamma
    resid = inp.y - 1.0 / (1.0 + np.exp(-eta))
    resid0 = inp.y - 1.0 / (1.0 + np.exp(-eta0))
    for d in range(len(fit.factors)):
        g = np.linalg.norm(_block_gradient(inp, fit.factors, resid, d))
        g0 = np.linalg.norm(_block_gradient(inp, fit.factors, resid0, d))
        if not g <= GRADIENT_SHARE * g0:
            return False
    return True


def _ball16(inp, fit):
    n, p0, dims = inp.y.size, inp.z.shape[1], inp.signal.shape
    bic_ok = True
    for row in fit.table:
        if row["bic"] is None:  # the fit at this rank failed
            bic_ok = False
            continue
        p_e = effective_parameters(dims, row["rank"], p0)
        bic_ok &= close(-2.0 * row["loglik"] + math.log(n) * p_e, row["bic"])
    best = min(fit.table, key=lambda row: (row["bic"], row["rank"]))
    R = fit.factors[0].shape[1]
    image = cp_full(fit.factors)
    eta = linear_predictor(inp, image, fit.alpha, fit.gamma)
    selected_ok = (best["rank"] == R and close(best["bic"], fit.bic)
                   and close(bernoulli_loglik(inp.y, eta), fit.loglik))
    return {
        "bic_per_rank_and_selection": bool(bic_ok and selected_ok),
        "trace_nondecreasing": trace_nondecreasing(fit.trace),
        "block_gradients_small": _check_gradient(inp, fit),
    }


CHECKS = {"img64_normal": _img64, "butterfly32_lasso": _butterfly,
          "ball16_logit_rank": _ball16}


def run_checks(workload, inp, fit):
    return {k: bool(v) for k, v in CHECKS[workload](inp, fit).items()}


# -- self-test: each check must reject its corrupted result ------------------

def _scaled_factor(fit, mode, factor):
    out = copy.deepcopy(fit)
    out.factors[mode] = out.factors[mode] * factor
    return out


def _with(fit, **changes):
    out = copy.deepcopy(fit)
    for key, value in changes.items():
        setattr(out, key, value)
    return out


def _dropped_trace(fit):
    trace = fit.trace.copy()
    trace[-1] = trace[-2] - 1.0
    return _with(fit, trace=trace)


def _swapped_ranks(fit):
    table = copy.deepcopy(fit.table)
    table[0]["bic"], table[1]["bic"] = table[1]["bic"], table[0]["bic"]
    return _with(fit, table=table)


def _one_ulp_off(fit):
    pred = fit.reloaded_predictions.copy()
    pred[0] = np.nextafter(pred[0], np.inf)
    return _with(fit, reloaded_predictions=pred)


CORRUPTIONS = {
    "img64_normal": {
        "rss_at_estimate_le_truth": lambda f: _scaled_factor(f, 0, 0.9),
        "recovery_rmse": lambda f: _scaled_factor(f, 0, 0.0),
        "bic_recomputed": lambda f: _with(f, bic=f.bic + 1e-4 * abs(f.bic)),
        "reload_identical_predictions": _one_ulp_off,
    },
    "butterfly32_lasso": {
        "trace_nondecreasing": _dropped_trace,
        "exact_zeros": lambda f: _with(
            f, factors=[a + 1e-12 for a in f.factors]),
        "loglik_recomputed": lambda f: _with(
            f, loglik=f.loglik + 1e-6 * abs(f.loglik)),
        "recovery_beats_zero": lambda f: _scaled_factor(f, 0, -1.0),
    },
    "ball16_logit_rank": {
        "bic_per_rank_and_selection": _swapped_ranks,
        "trace_nondecreasing": _dropped_trace,
        "block_gradients_small": lambda f: _scaled_factor(f, 0, -1.0),
    },
}


def self_test(workload, inp, fit):
    """``{check: True}`` when the check rejects its corrupted result."""
    rejected = {}
    for check, corrupt in CORRUPTIONS[workload].items():
        rejected[check] = not CHECKS[workload](inp, corrupt(fit))[check]
    return rejected

