"""Acceptance suite: one test per exit criterion, one printed line each.

Criterion 3 (monotone ascent across every fit the suite executes) is
checked last against a registry fed by the other criteria.  Criterion 5
is the publication-scale spot check (64x64 images, n=1000, 20 replicates,
a few seconds).  Run with ``pytest tests/test_acceptance.py -s`` to see
the pass/fail lines.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import norm

from tensorreg.cli import main as cli_main
from tensorreg.errors import DegenerateNormalizationWarning
from tensorreg.glm import get_family, log_likelihood
from tensorreg.model import (
    FitConfig,
    TensorGlmDataset,
    check_uniqueness,
    eta_hessian,
    fit,
    free_parameter_index,
    k_rank,
    log_density_hessian,
    score_and_information,
    select_rank,
)
from tensorreg.shapes import (
    ShapeSpec,
    SimSpec,
    count_trace_violations,
    generate_shape,
    run_consistency_study,
    simulate,
)
from tensorreg.tensor_core import (
    CpTensor,
    DenseTensor,
    cp_to_full,
    factor_chain_omitting,
)

from oracles import cp_mode_d_unfolding, mode_d_matricize

from test_model import (
    eta_gradient,
    fd_gradient,
    fd_hessian,
    loglik_at_free_vector,
    make_model,
    normalized_point,
    pack_free_vector,
    random_dataset,
    with_response,
)

TRACES = []  # (label, trace) for every fit this suite runs
STUDY_VIOLATIONS = []  # (label, violation count) from study harness runs


def register(label, model):
    TRACES.append((label, list(model.trace)))
    return model


def report(num, ok, desc, detail=""):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_algebraic_identities():
    rng = np.random.default_rng(1001)
    caps = (6, 5, 4, 3)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        ndim = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, caps[d] + 1)) for d in range(ndim))
        rank = int(rng.integers(1, 4))
        c = CpTensor([rng.standard_normal((p, rank)) for p in dims])
        full = cp_to_full(c)
        scale = max(np.abs(full.data).max(), 1.0)
        for d in range(1, ndim + 1):
            gap = np.abs(
                cp_mode_d_unfolding(c, d) - mode_d_matricize(full, d)
            ).max()
            worst = max(worst, gap / scale)
        vec = factor_chain_omitting(c.factors, ()) @ np.ones(rank)
        worst = max(worst, np.abs(vec - full.data).max() / scale)
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        "vec/mode-d reconstruction identities on 100 random CP tensors",
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def _derivative_configs():
    # identifiable configurations only: D=2 restricted to R=1 (see notes
    # on the rotation indeterminacy), D=3 free
    return [((3, 4), 1, 2), ((3, 3, 2), 2, 1), ((4, 3, 2), 2, 0), ((3, 3, 3), 1, 2)]


def test_criterion_02_derivative_oracles():
    t0 = time.perf_counter()
    worst = {"grad": 0.0, "hess": 0.0, "score": 0.0, "ldh": 0.0}
    for index, family in enumerate(("normal", "bernoulli", "poisson")):
        fam = get_family(family)
        # a constant seed: hash(family) is salted per process
        rng = np.random.default_rng(index)
        for k in range(20):
            dims, rank, p0 = _derivative_configs()[k % 4]
            coeff = normalized_point(rng, dims, rank)
            x = DenseTensor.from_array(rng.standard_normal(dims))
            flat = np.concatenate([f.ravel(order="F") for f in coeff.factors])

            def eta_of(theta):
                fs, pos = [], 0
                for p in dims:
                    fs.append(theta[pos : pos + p * rank].reshape((p, rank), order="F"))
                    pos += p * rank
                return float(cp_to_full(CpTensor(fs)).data @ x.data)

            g = eta_gradient(coeff, x)
            g_fd = fd_gradient(eta_of, flat)
            worst["grad"] = max(
                worst["grad"], np.abs(g - g_fd).max() / max(1.0, np.abs(g_fd).max())
            )
            H = eta_hessian(coeff, x)
            H_fd = fd_hessian(eta_of, flat)
            worst["hess"] = max(
                worst["hess"], np.abs(H - H_fd).max() / max(1.0, np.abs(H_fd).max())
            )

            model = make_model(coeff, family=fam, gamma=0.3 * rng.standard_normal(p0), n=30)
            ds = random_dataset(rng, 30, dims, p0=p0)
            y = fam.sample(0.3 * model.linear_predictor(ds), rng)
            ds = with_response(ds, y)
            rep = score_and_information(model, ds)
            theta0 = pack_free_vector(model)
            s_fd = fd_gradient(lambda th: loglik_at_free_vector(model, ds, th), theta0)
            worst["score"] = max(
                worst["score"],
                np.abs(rep.score - s_fd).max() / max(1.0, np.abs(s_fd).max()),
            )
            L = log_density_hessian(model, ds)
            L_fd = fd_hessian(lambda th: loglik_at_free_vector(model, ds, th), theta0)
            worst["ldh"] = max(
                worst["ldh"], np.abs(L - L_fd).max() / max(1.0, np.abs(L_fd).max())
            )
    elapsed = time.perf_counter() - t0
    ok = (
        worst["grad"] <= 1e-5
        and worst["hess"] <= 1e-4
        and worst["score"] <= 1e-5
        and worst["ldh"] <= 1e-4
        and elapsed < 30.0
    )
    report(
        2,
        ok,
        "eta gradient/Hessian, score, log-density Hessian vs finite differences",
        f"rel errs grad {worst['grad']:.1e} hess {worst['hess']:.1e} "
        f"score {worst['score']:.1e} ldh {worst['ldh']:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_desk_scale_trend():
    t0 = time.perf_counter()
    res = run_consistency_study(
        ShapeSpec("square", 16),
        n_grid=[200, 500, 1000],
        replicates=20,
        family="normal",
        config=FitConfig(rank=1, restarts=2, seed=42),
    )
    elapsed = time.perf_counter() - t0
    STUDY_VIOLATIONS.append(("criterion4", res.trace_violations))
    means = {
        (row["param"], row["n"]): row["mean_rmse"] for row in res.rows
    }
    b = [means[("B", n)] for n in (200, 500, 1000)]
    g = [means[("gamma", n)] for n in (200, 500, 1000)]
    ok = (
        all(a > c for a, c in zip(b, b[1:]))
        and all(a > c for a, c in zip(g, g[1:]))
        and not res.failures
        and elapsed < 180.0
    )
    report(
        4,
        ok,
        "16x16 square: mean RMSE_B and RMSE_gamma strictly decreasing in n",
        f"B {['%.4f' % v for v in b]} gamma {['%.4f' % v for v in g]}, {elapsed:.0f}s",
    )


def test_criterion_05_full_scale_spot_check():
    t0 = time.perf_counter()
    res = run_consistency_study(
        ShapeSpec("square", 64),
        n_grid=[1000],
        replicates=20,
        family="normal",
        config=FitConfig(rank=1, restarts=2, seed=64),
    )
    elapsed = time.perf_counter() - t0
    STUDY_VIOLATIONS.append(("criterion5", res.trace_violations))
    means = {row["param"]: row["mean_rmse"] for row in res.rows}
    ok = (
        0.004 <= means["B"] <= 0.009
        and 0.02 <= means["gamma"] <= 0.05
        and elapsed < 1800.0
    )
    report(
        5,
        ok,
        "64x64 square at n=1000: published-scale RMSE bands",
        f"B {means['B']:.4f} in [0.004,0.009], gamma {means['gamma']:.4f} "
        f"in [0.02,0.05], {elapsed:.0f}s",
    )


def test_criterion_06_rank_selection():
    t0 = time.perf_counter()
    fractions = {}
    for shape, want in (("square", 1), ("cross", 2)):
        signal = generate_shape(ShapeSpec(shape, 16))
        picks = []
        for rep, ss in enumerate(np.random.SeedSequence(99).spawn(20)):
            d_seq, f_seq = ss.spawn(2)
            ds = simulate(
                SimSpec(signal=signal, gamma=np.ones(5), family="normal",
                        n=1000, seed=d_seq)
            )
            model, _ = select_rank(
                ds, "normal", 3,
                FitConfig(restarts=2, seed=int(f_seq.generate_state(1)[0])),
            )
            register(f"criterion6-{shape}-{rep}", model)
            picks.append(model.rank)
        fractions[shape] = picks.count(want) / len(picks)
    elapsed = time.perf_counter() - t0
    ok = fractions["square"] >= 0.7 and fractions["cross"] >= 0.7 and elapsed < 600.0
    report(
        6,
        ok,
        "BIC picks rank 1 for square and rank 2 for cross in >= 70% of replicates",
        f"square {fractions['square']:.0%}, cross {fractions['cross']:.0%}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_07_neg_hessian_equals_information_at_zero_residuals():
    rng = np.random.default_rng(777)
    worst = 0.0
    for k in range(10):
        dims, rank, p0 = _derivative_configs()[k % 4]
        model = make_model(
            normalized_point(rng, dims, rank),
            gamma=rng.standard_normal(p0),
            n=40,
        )
        ds = random_dataset(rng, 40, dims, p0=p0)
        ds = with_response(ds, model.linear_predictor(ds))
        rep = score_and_information(model, ds)
        H = log_density_hessian(model, ds)
        worst = max(
            worst, np.abs(-H - rep.information).max() / np.abs(rep.information).max()
        )
    report(
        7,
        worst <= 1e-6,
        "normal family at zero residuals: observed -Hessian equals information",
        f"worst rel gap {worst:.2e}",
    )


def test_criterion_08_lasso_improves_butterfly_recovery():
    from tensorreg.penalties import PenaltySpec
    from tensorreg.shapes import rmse

    t0 = time.perf_counter()
    signal = generate_shape(ShapeSpec("butterfly", 32))
    wins = 0
    reps = 10
    with pytest.warns(DegenerateNormalizationWarning):
        # strong shrinkage zeroes whole factor columns, which exercises
        # the documented degenerate-normalization fallback
        for rep, ss in enumerate(np.random.SeedSequence(7).spawn(reps)):
            d_seq, f_seq = ss.spawn(2)
            ds = simulate(
                SimSpec(signal=signal, gamma=np.ones(5), family="normal",
                        n=300, seed=d_seq)
            )
            seed = int(f_seq.generate_state(1)[0])
            scores = {}
            for rho in (0.0, 30.0, 100.0):
                pen = None if rho == 0.0 else PenaltySpec("lasso", rho)
                m = fit(
                    ds, "normal",
                    FitConfig(rank=3, restarts=1, seed=seed, penalty=pen,
                              max_outer_iters=200),
                )
                register(f"criterion8-rep{rep}-rho{rho}", m)
                scores[rho] = rmse(cp_to_full(m.coeff).data, signal.data)
            if min(scores[30.0], scores[100.0]) < scores[0.0]:
                wins += 1

    # rho = 0 through the penalized path must equal the unpenalized fit
    ds = simulate(
        SimSpec(signal=signal, gamma=np.ones(5), family="normal", n=300, seed=123)
    )
    cfg = dict(rank=3, restarts=1, seed=5, max_outer_iters=200)
    plain = fit(ds, "normal", FitConfig(**cfg))
    zero = fit(ds, "normal", FitConfig(penalty=PenaltySpec("lasso", 0.0), **cfg))
    register("criterion8-plain", plain)
    register("criterion8-zerorho", zero)
    gap = np.abs(
        cp_to_full(plain.coeff).data - cp_to_full(zero.coeff).data
    ).max()
    elapsed = time.perf_counter() - t0
    ok = wins / reps >= 0.6 and gap <= 1e-8
    report(
        8,
        ok,
        "lasso at some rho > 0 beats rho = 0 on 32x32 butterfly; rho=0 path identical",
        f"wins {wins}/{reps}, zero-rho gap {gap:.1e}, {elapsed:.0f}s",
    )


def test_criterion_09_wald_coverage():
    t0 = time.perf_counter()
    b1 = np.array([1.0, 0.8, -0.6, 0.4])
    b2 = np.array([0.9, -0.7, 0.5, 1.1])
    truth = CpTensor([b1, b2])
    B = cp_to_full(truth).to_array()
    truth_map, _ = free_parameter_index((4, 4), 1)
    theta_true = {k: truth.factors[k[0] - 1][k[1] - 1, k[2] - 1] for k in truth_map}
    z975 = norm.ppf(0.975)
    covered = total = 0
    for rep, ss in enumerate(np.random.SeedSequence(2024).spawn(200)):
        rng = np.random.default_rng(ss.spawn(1)[0])
        x = rng.standard_normal((2000, 4, 4))
        y = np.tensordot(x, B, 2) + rng.standard_normal(2000)
        ds = TensorGlmDataset(y, x)
        model = register(
            f"criterion9-{rep}", fit(ds, "normal", FitConfig(rank=1, restarts=2, seed=rep))
        )
        inf = score_and_information(model, ds)
        for key, pos in inf.free_parameter_index.items():
            est = model.coeff.factors[key[0] - 1][key[1] - 1, key[2] - 1]
            half = z975 * inf.std_errors[pos]
            covered += est - half <= theta_true[key] <= est + half
            total += 1
    rate = covered / total
    elapsed = time.perf_counter() - t0
    report(
        9,
        0.90 <= rate <= 0.99,
        "95% Wald intervals cover true free coefficients (200 replicates)",
        f"coverage {rate:.3f} over {total} intervals, {elapsed:.0f}s",
    )


def test_criterion_10_krank_and_uniqueness():
    def oracle(m):
        cols = m.shape[1]
        best = 0
        for k in range(1, cols + 1):
            if all(
                np.linalg.matrix_rank(m[:, s]) == k
                for s in itertools.combinations(range(cols), k)
            ):
                best = k
            else:
                break
        return best

    rng = np.random.default_rng(10)
    corpus = [np.eye(k) for k in range(1, 7)]
    corpus.append(np.array([[1.0, 0.0], [0.0, 0.0]]))
    corpus.append(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    for _ in range(30):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(1, 7))
        m = rng.standard_normal((rows, cols))
        if rng.random() < 0.3 and cols >= 2:
            m[:, -1] = m[:, 0]
        if rng.random() < 0.2:
            m[:, 0] = 0.0
        if rng.random() < 0.3 and cols >= 2:
            m[:, -1] = m[:, :-1] @ rng.standard_normal(cols - 1)
        corpus.append(m)
    mismatches = sum(k_rank(m) != oracle(m) for m in corpus)

    col = rng.standard_normal(4)
    dup = np.column_stack([col, col])
    rep_dup = check_uniqueness(CpTensor([dup, dup.copy(), dup.copy()]))
    ok = mismatches == 0 and not rep_dup.necessary
    report(
        10,
        ok,
        "k-rank matches subset-enumeration oracle; duplicated columns fail necessity",
        f"{len(corpus)} matrices, {mismatches} mismatches",
    )


def test_criterion_11_cli_benchmark_determinism(tmp_path):
    args = [
        "benchmark", "--shape", "square", "--dims", "16", "--sizes", "150,220",
        "--replicates", "2", "--family", "normal", "--rank", "1",
        "--restarts", "1", "--gamma-dim", "2", "--seed", "31",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = cli_main(args + ["--output", str(a)])
    rc2 = cli_main(args + ["--output", str(b)])
    same = a.read_bytes() == b.read_bytes()
    report(
        11,
        rc1 == 0 and rc2 == 0 and same,
        "fixed-seed CLI benchmark produces byte-identical CSV twice",
        f"{len(a.read_bytes())} bytes",
    )


def test_criterion_03_monotone_ascent_registry():
    # defined last on purpose: inspects every fit the criteria above ran
    if not TRACES and not STUDY_VIOLATIONS:
        pytest.skip("no fits recorded in this run (filtered execution)")
    bad = [(label, count_trace_violations(t)) for label, t in TRACES]
    direct = sum(c for _, c in bad)
    study = sum(c for _, c in STUDY_VIOLATIONS)
    ok = direct == 0 and study == 0
    report(
        3,
        ok,
        "objective trace nondecreasing across every fit executed by the suite",
        f"{len(TRACES)} direct fits + study harness runs, "
        f"{direct + study} violations",
    )
