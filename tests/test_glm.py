"""GLM engine tests: likelihood values, IRLS against closed forms,
penalized coordinate descent against soft-threshold/ridge oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tensorreg.glm as glm
from tensorreg.errors import DomainError, GlmDivergenceError, SingularDesignError
from tensorreg.glm import (
    get_family,
    irls_fit,
    log_likelihood,
    penalized_fit,
)
from tensorreg.model import (
    FitConfig,
    TensorGlmDataset,
    effective_parameters,
    fit,
    select_rank,
)
from tensorreg.penalties import PenaltySpec, penalty_value, threshold_update


# Reference cumulants b(eta), written independently of the families.
CUMULANTS = {
    "normal": lambda eta: 0.5 * eta**2,
    "bernoulli": lambda eta: np.logaddexp(0.0, eta),
    "poisson": np.exp,
}


def ols_oracle(X, y):
    """Normal-equations least squares, independent of lstsq."""
    return np.linalg.solve(X.T @ X, X.T @ y)


class TestFamilies:
    def test_lookup_and_aliases(self):
        assert get_family("normal").name == "normal"
        assert get_family("gaussian").name == "normal"
        assert get_family("binomial").name == "bernoulli"
        with pytest.raises(DomainError):
            get_family("gamma")

    @pytest.mark.parametrize("name", ["normal", "bernoulli", "poisson"])
    def test_mean_is_b_prime_and_variance_is_b_second(self, name):
        fam = get_family(name)

        def b(eta):
            return fam.b_and_mean(eta)[0]

        eta = np.linspace(-2.0, 2.0, 41)
        np.testing.assert_allclose(b(eta), CUMULANTS[name](eta), rtol=1e-15)
        h = 1e-6
        b_prime = (b(eta + h) - b(eta - h)) / (2 * h)
        np.testing.assert_allclose(fam.mean(eta), b_prime, rtol=1e-6, atol=1e-8)
        h2 = 1e-4  # larger step: second differences lose ~eps/h^2 to rounding
        b_second = (b(eta + h2) - 2 * b(eta) + b(eta - h2)) / h2**2
        np.testing.assert_allclose(
            fam.variance(fam.mean(eta)), b_second, rtol=1e-4, atol=1e-6
        )


class TestExpit:
    """The numpy logistic function against scipy's and the exact value."""

    grid = np.linspace(-745.0, 745.0, 200001)

    def test_agrees_with_scipy(self):
        special = pytest.importorskip("scipy.special")
        ref = special.expit(self.grid)
        got = glm.expit(self.grid)
        # scipy forms 1 / (1 + exp(-x)), whose exp overflows below
        # x = -709.78 and gives 0; the exact value there is subnormal
        flushed = ref == 0.0
        assert (self.grid[flushed] < -709.78).all()
        assert (got[flushed] < np.finfo(np.float64).tiny).all()
        # each is within 2 ulp of the exact value (next test), in
        # opposite directions at worst
        np.testing.assert_array_max_ulp(got[~flushed], ref[~flushed], maxulp=3)

    def test_within_two_ulp_of_the_exact_value(self):
        from decimal import Decimal, localcontext

        xs = self.grid[::10]
        with localcontext() as ctx:
            ctx.prec = 40
            exact = np.array([float(1 / (1 + (-Decimal(x)).exp())) for x in xs])
        np.testing.assert_array_max_ulp(glm.expit(xs), exact, maxulp=2)

    def test_limits_raise_no_floating_point_error(self):
        with np.errstate(all="raise"):
            got = glm.expit(np.concatenate([[-np.inf, np.inf], self.grid]))
        assert got[0] == 0.0 and got[1] == 1.0
        assert np.all(np.diff(got[2:]) >= 0.0)


class TestLogLikelihood:
    def test_normal_zero_residuals(self):
        y = np.array([0.3, -1.2, 2.0, 0.0])
        ll = log_likelihood("normal", y, y, 1.0)
        assert ll == pytest.approx(-(4 / 2) * np.log(2 * np.pi), rel=1e-12)

    def test_bernoulli_eta_zero(self):
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        ll = log_likelihood("bernoulli", y, np.zeros(5))
        assert ll == pytest.approx(5 * np.log(0.5), rel=1e-12)

    def test_poisson_unit_mean(self):
        assert log_likelihood("poisson", [1.0], [0.0]) == pytest.approx(-1.0)

    def test_nonfinite_eta_rejected(self):
        with pytest.raises(DomainError):
            log_likelihood("normal", [1.0], [np.inf])

    def test_poisson_log_factorial_matches_gammaln(self):
        special = pytest.importorskip("scipy.special")
        ys = np.concatenate([np.arange(200.0), np.linspace(0.0, 50.0, 501),
                             np.geomspace(1e-6, 1e6, 501)])
        for y in ys:
            # at eta = 0 the log-likelihood is exactly -1 - log(y!); an
            # integer y below 256 is looked up, any other y evaluated
            ref = -1.0 - special.gammaln(y + 1.0)
            got = log_likelihood("poisson", [y], [0.0])
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), y
        # an array with a non-integer entry is evaluated at every entry
        ref = special.gammaln(ys + 1.0)
        got = -get_family("poisson").c(ys, 1.0)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("name", ["normal", "bernoulli", "poisson"])
    def test_gradient_matches_finite_differences(self, name):
        # Canonical-link gradient wrt coefficients is X' (y - mu) / a(phi).
        rng = np.random.default_rng(42)
        fam = get_family(name)
        n, p = 40, 3
        X = rng.standard_normal((n, p))
        beta = rng.standard_normal(p) * 0.3
        eta = X @ beta
        y = fam.sample(eta, rng)
        analytic = X.T @ (y - fam.mean(eta))
        h = 1e-6
        fd = np.zeros(p)
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            fd[j] = (
                log_likelihood(fam, y, X @ (beta + e))
                - log_likelihood(fam, y, X @ (beta - e))
            ) / (2 * h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)


class TestIrlsFit:
    def test_normal_equals_ols(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        fit = irls_fit(X, y, "normal")
        np.testing.assert_allclose(fit.coefficients, ols_oracle(X, y), rtol=1e-10)
        assert fit.converged

    def test_offset_shifts_normal_solution(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 2))
        y = rng.standard_normal(60)
        off = rng.standard_normal(60)
        fit = irls_fit(X, y, "normal", offset=off)
        np.testing.assert_allclose(fit.coefficients, ols_oracle(X, y - off), rtol=1e-10)

    def test_zero_signal_shrinks_with_n(self):
        rng = np.random.default_rng(2)
        n = 10_000
        X = rng.standard_normal((n, 1))
        y = rng.standard_normal(n)
        fit = irls_fit(X, y, "normal")
        assert abs(fit.coefficients[0]) < 0.1

    def test_bernoulli_intercept_logit_of_mean(self):
        y = np.zeros(100)
        y[:30] = 1.0
        fit = irls_fit(np.ones((100, 1)), y, "bernoulli")
        assert fit.coefficients[0] == pytest.approx(np.log(0.3 / 0.7), rel=1e-8)

    @pytest.mark.parametrize("name", ["bernoulli", "poisson"])
    def test_recovers_coefficients(self, name):
        rng = np.random.default_rng(3)
        fam = get_family(name)
        n = 4000
        X = rng.standard_normal((n, 3))
        beta = np.array([0.5, -0.25, 0.1])
        y = fam.sample(X @ beta, rng)
        fit = irls_fit(X, y, fam)
        np.testing.assert_allclose(fit.coefficients, beta, atol=0.12)
        assert fit.converged

    @pytest.mark.parametrize("name", ["normal", "bernoulli", "poisson"])
    def test_loglik_trace_nondecreasing(self, name):
        rng = np.random.default_rng(4)
        fam = get_family(name)
        X = rng.standard_normal((200, 4))
        y = fam.sample(X @ rng.standard_normal(4), rng)
        fit = irls_fit(X, y, fam)
        t = np.asarray(fit.trace)
        assert np.all(np.diff(t) >= -1e-12 * (1.0 + np.abs(t[:-1])))

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 2))
        X = np.hstack([X, X[:, :1] + X[:, 1:2]])
        with pytest.raises(SingularDesignError) as err:
            irls_fit(X, y=rng.standard_normal(30), family="normal")
        assert err.value.ncols == 3
        assert err.value.rank == 2

    @pytest.mark.parametrize("solve", [
        lambda X, y, offset, **kw: irls_fit(X, y, "normal", offset, **kw),
        lambda X, y, offset, **kw: penalized_fit(X, y, "normal", offset,
                                                 penalty=PenaltySpec("lasso", 1.0),
                                                 **kw),
    ], ids=["irls_fit", "penalized_fit"])
    def test_spent_halvings_return_the_eta_of_the_last_halving(self, monkeypatch,
                                                                solve):
        # Every trial step is rejected, so the returned iterate is the one
        # halved after the last evaluation and its eta must be recomputed.
        # Without a held start the zeros start is evaluated first.
        rng = np.random.default_rng(14)
        X = rng.standard_normal((40, 3))
        y = X @ np.ones(3) + rng.standard_normal(40)
        offset = rng.standard_normal(40)
        real = glm._loglik_and_mean
        start_ll = log_likelihood("normal", y, offset)  # eta of the zeros start
        monkeypatch.setattr(glm, "_MAX_ITER", 1)
        for held, evaluations in ((None, 1 + 40 + 1), ((offset, start_ll), 40 + 1)):
            calls = []

            def worse_than_start(family, y, eta, const):
                calls.append(eta)
                start, _ = real(family, y, calls[0], const)
                _, mu = real(family, y, eta, const)
                first = len(calls) == 1 and held is None
                return (start if first else start_ll - 1.0), mu

            monkeypatch.setattr(glm, "_loglik_and_mean", worse_than_start)
            with pytest.raises(GlmDivergenceError) as err:
                solve(X, y, offset, held=held)
            assert len(calls) == evaluations
            last = err.value.last_fit
            assert not np.array_equal(last.eta, calls[-2])
            np.testing.assert_array_equal(last.eta, X @ last.coefficients + offset)


class TestHeldStart:
    """A solve started from a held ``(eta, loglik)`` against one that
    evaluates its start, and the one evaluation per iterate."""

    @staticmethod
    def problem(name, seed=31):
        rng = np.random.default_rng(seed)
        fam = get_family(name)
        X = rng.standard_normal((150, 5))
        offset = 0.3 * rng.standard_normal(150)
        y = fam.sample(X @ (0.4 * rng.standard_normal(5)) + offset, rng)
        warm = 0.2 * rng.standard_normal(5)
        # summed in another order than the kernel's X @ warm + offset, as
        # the tensor fit's held eta comes from another block's design
        eta = offset + X[:, ::-1] @ warm[::-1]
        return fam, X, y, offset, warm, (eta, log_likelihood(fam, y, eta))

    @staticmethod
    def solve(X, y, fam, offset, penalty, **kw):
        if penalty is None:
            return irls_fit(X, y, fam, offset, **kw)
        return penalized_fit(X, y, fam, offset, penalty, **kw)

    @pytest.mark.parametrize("penalty", [None, PenaltySpec("lasso", 3.0)],
                             ids=["plain", "lasso"])
    def test_normal_fits_are_bit_identical(self, penalty):
        fam, X, y, offset, warm, held = self.problem("normal")
        a = self.solve(X, y, fam, offset, penalty, start=warm)
        b = self.solve(X, y, fam, offset, penalty, start=warm, held=held)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        np.testing.assert_array_equal(a.eta, b.eta)
        assert a.loglik == b.loglik and a.trace[-1] == b.trace[-1]

    @pytest.mark.parametrize("name", ["bernoulli", "poisson"])
    @pytest.mark.parametrize("penalty", [None, PenaltySpec("lasso", 3.0)],
                             ids=["plain", "lasso"])
    def test_other_families_agree(self, name, penalty):
        fam, X, y, offset, warm, held = self.problem(name)
        a = self.solve(X, y, fam, offset, penalty, start=warm)
        b = self.solve(X, y, fam, offset, penalty, start=warm, held=held)
        np.testing.assert_allclose(b.coefficients, a.coefficients, rtol=1e-10,
                                   atol=1e-10)
        assert b.loglik == pytest.approx(a.loglik, rel=1e-10)

    def test_evaluations_are_iterations_plus_halvings(self, monkeypatch):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 4))
        y = get_family("bernoulli").sample(X @ np.array([1.0, -0.5, 0.3, 0.0]), rng)
        start = 10.0 * np.array([1.0, -1.0, 1.0, 1.0])  # far: steps are halved
        eta = X @ start
        held = (eta, log_likelihood("bernoulli", y, eta))
        real, calls = glm._loglik_and_mean, []

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(glm, "_loglik_and_mean", counting)
        fit = irls_fit(X, y, "bernoulli", start=start, held=held)
        assert fit.halvings > 0
        assert len(calls) == fit.iterations + fit.halvings
        calls.clear()
        again = irls_fit(X, y, "bernoulli", start=start)
        assert len(calls) == 1 + again.iterations + again.halvings

    def test_held_eta_of_the_wrong_length_is_named(self):
        fam, X, y, offset, warm, (eta, ll) = self.problem("normal")
        with pytest.raises(DomainError, match="held eta has 149 entries"):
            irls_fit(X, y, fam, offset, start=warm, held=(eta[1:], ll))


class TestFusedEvaluation:
    """``b_and_mean`` against reference cumulants and the family's ``mean``."""

    grid = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 700.0, -700.0, 1e4, -1e4],
        np.linspace(-40.0, 40.0, 8001),
    ])

    def test_bernoulli_within_two_ulp_of_logaddexp_and_expit(self):
        b, mu = get_family("bernoulli").b_and_mean(self.grid)
        np.testing.assert_array_max_ulp(b, np.logaddexp(0.0, self.grid), maxulp=2)
        np.testing.assert_array_max_ulp(mu, glm.expit(self.grid), maxulp=2)

    @pytest.mark.parametrize("name", ["normal", "poisson"])
    def test_normal_and_poisson_equal_b_and_mean(self, name):
        fam = get_family(name)
        b, mu = fam.b_and_mean(self.grid)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(b, CUMULANTS[name](self.grid))
            np.testing.assert_array_equal(mu, fam.mean(self.grid))

    @pytest.mark.parametrize("name", ["normal", "bernoulli", "poisson"])
    def test_kernel_evaluation_is_the_log_likelihood(self, name):
        fam = get_family(name)
        rng = np.random.default_rng(8)
        eta = 3.0 * rng.standard_normal(300)
        y = fam.sample(eta, rng)
        const = float(np.sum(fam.c(y, 1.0)))
        ll, mu = glm._loglik_and_mean(fam, y, eta, const)
        assert ll == log_likelihood(fam, y, eta)
        np.testing.assert_allclose(mu, fam.mean(eta), rtol=1e-15)
        with pytest.raises(DomainError, match="nonfinite linear predictor"):
            glm._loglik_and_mean(fam, y, np.where(eta > 0, np.inf, eta), const)
        # the whole grid, overflowing the poisson mean, warns of nothing
        glm._loglik_and_mean(fam, np.zeros(self.grid.size), self.grid, 0.0)


class TestDispersion:
    """The tensor model's Pearson dispersion, the only one estimated: the
    residual mean square on n - p_e degrees of freedom (n when n <= p_e)
    for the normal family, 1.0 for a fixed-dispersion family."""

    @staticmethod
    def dataset(seed, n, dims, family):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n,) + dims)
        eta = 0.3 + 0.8 * x[:, 0, 0] - 0.5 * x[:, 1, 1]
        y = get_family(family).sample(eta, rng)
        return TensorGlmDataset(y, x, rng.standard_normal((n, 1)))

    @staticmethod
    def residual_square_sum(model, ds):
        resid = ds.y - model.linear_predictor(ds)
        return resid @ resid

    def test_normal_fit_divides_by_n_minus_p_e(self):
        ds = self.dataset(6, 150, (4, 3), "normal")
        model = fit(ds, "normal", FitConfig(rank=1, restarts=2, seed=1))
        p_e = effective_parameters(ds.dims, 1, ds.p0)
        want = self.residual_square_sum(model, ds) / (ds.n - p_e)
        assert model.phi == pytest.approx(want, rel=1e-12)

    def test_penalized_fit_with_n_at_most_p_e_divides_by_n(self):
        ds = self.dataset(7, 20, (6, 6), "normal")
        model = fit(ds, "normal", FitConfig(rank=2, restarts=2, seed=2,
                                            penalty=PenaltySpec("ridge", 1.0)))
        assert effective_parameters(ds.dims, 2, ds.p0) >= ds.n
        want = self.residual_square_sum(model, ds) / ds.n
        assert model.phi == pytest.approx(want, rel=1e-12)

    def test_bernoulli_dispersion_is_one(self):
        ds = self.dataset(8, 200, (4, 3), "bernoulli")
        model = fit(ds, "bernoulli", FitConfig(rank=1, restarts=2, seed=3))
        assert model.phi == 1.0


def lstsq_step(X, w, z):
    """Reference weighted least-squares step by the SVD solve."""
    sw = np.sqrt(w)
    return np.linalg.lstsq(sw[:, None] * X, sw * z, rcond=None)[0]


class TestBlockSolve:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 12),
        extra_rows=st.integers(1, 40),
        name=st.sampled_from(["normal", "bernoulli", "poisson"]),
    )
    def test_cholesky_step_matches_lstsq(self, seed, p, extra_rows, name):
        rng = np.random.default_rng(seed)
        fam = get_family(name)
        n = 2 * p + extra_rows
        X = rng.standard_normal((n, p))
        eta = X @ (0.3 * rng.standard_normal(p))
        y = fam.sample(eta, rng)
        w = np.maximum(fam.variance(fam.mean(eta)), glm._MIN_WEIGHT)
        z = eta + (y - fam.mean(eta)) / w
        got = glm._cholesky_solve(*glm._weighted_gram(X, w, z))
        want = lstsq_step(X, w, z)
        assert got is not None
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-10 * (1.0 + np.abs(want).max()))

    @pytest.mark.parametrize("name", ["normal", "bernoulli", "poisson"])
    def test_collinear_designs_take_the_svd_path(self, name):
        rng = np.random.default_rng(15)
        fam = get_family(name)
        X = rng.standard_normal((60, 2))
        X = np.hstack([X, X[:, :1] + X[:, 1:2]])
        y = fam.sample(0.2 * X[:, 0], rng)
        noise = rng.standard_normal(60)
        # Nearly collinear: with 1e-7 noise the factor exists but its
        # pivots are too small, with 1e-9 the factorization fails.  Either
        # way the step goes to lstsq, which finds full rank and solves it.
        for scale in (1e-7, 1e-9):
            near = X.copy()
            near[:, 2] += scale * noise
            G, c = glm._weighted_gram(near, np.ones(60), y)
            assert glm._cholesky_solve(G, c) is None
            if name == "normal":
                fit = irls_fit(near, y, fam)
                np.testing.assert_array_equal(fit.coefficients,
                                              lstsq_step(near, np.ones(60), y))
        # exactly collinear: the SVD rank is reported on the first iteration
        with pytest.raises(SingularDesignError) as err:
            irls_fit(X, y, fam)
        assert (err.value.ncols, err.value.rank) == (3, 2)

    def test_unit_weight_gram_of_a_column_slice_matches_the_weighted_one(self):
        # the layout the lockstep fit hands over: a column slice of a wider
        # C-ordered design, not contiguous
        rng = np.random.default_rng(17)
        wide = rng.standard_normal((300, 20))
        X = wide[:, 6:14]
        assert not X.flags.c_contiguous and not X.flags.f_contiguous
        z = rng.standard_normal(300)
        G, c = glm._weighted_gram(X, None, z)
        G_w, c_w = glm._weighted_gram(X, np.ones(300), z)
        np.testing.assert_allclose(G, G_w, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(c, c_w, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(G, G.T)

    def test_normal_collinear_column_slice_raises_singular_design(self):
        rng = np.random.default_rng(18)
        wide = rng.standard_normal((60, 7))
        wide[:, 4] = wide[:, 2] + wide[:, 3]
        y = wide[:, 2] + rng.standard_normal(60)
        with pytest.raises(SingularDesignError) as err:
            irls_fit(wide[:, 2:5], y, "normal")
        assert (err.value.ncols, err.value.rank) == (3, 2)

    @pytest.mark.parametrize("name,unit", [("normal", True), ("bernoulli", False),
                                           ("poisson", False)])
    def test_only_the_normal_family_takes_unit_weights(self, monkeypatch, name,
                                                       unit):
        seen = []
        gram = glm._weighted_gram

        def spy(X, w, z):
            seen.append(w)
            return gram(X, w, z)

        monkeypatch.setattr(glm, "_weighted_gram", spy)
        rng = np.random.default_rng(19)
        fam = get_family(name)
        X = rng.standard_normal((80, 3))
        y = fam.sample(0.3 * X[:, 0], rng)
        offset = 0.1 * rng.standard_normal(80)
        fit = irls_fit(X, y, fam, offset)
        assert seen and all((w is None) == unit for w in seen)
        if unit:
            np.testing.assert_allclose(fit.coefficients,
                                       ols_oracle(X, y - offset),
                                       rtol=1e-12, atol=1e-14)

    def test_normal_fit_takes_one_exact_step(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((80, 4))
        y = X @ rng.standard_normal(4) + rng.standard_normal(80)
        fit = irls_fit(X, y, "normal", start=rng.standard_normal(4))
        assert fit.iterations == 1 and fit.converged
        assert len(fit.trace) == 2 and fit.trace[1] > fit.trace[0]
        np.testing.assert_allclose(fit.coefficients, ols_oracle(X, y), rtol=1e-10)
        pen = penalized_fit(X, y, "normal", penalty=PenaltySpec("lasso", 5.0),
                            start=fit.coefficients)
        assert pen.iterations == 1 and pen.converged and len(pen.trace) == 2


class TestPenalizedFit:
    @pytest.mark.parametrize("penalty", [None, PenaltySpec("lasso", 0.0)],
                             ids=["none", "rho0"])
    def test_no_positive_penalty_names_irls_fit(self, penalty):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((80, 5))
        y = X @ rng.standard_normal(5) + rng.standard_normal(80)
        with pytest.raises(DomainError, match="rho > 0.*fit without one by irls_fit"):
            penalized_fit(X, y, "normal", penalty=penalty)

    def test_orthonormal_design_lasso_is_soft_thresholded_ols(self):
        rng = np.random.default_rng(9)
        n, p = 100, 6
        Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        y = rng.standard_normal(n)
        rho = 0.11
        fit = penalized_fit(Q, y, "normal", penalty=PenaltySpec("lasso", rho))
        ols = Q.T @ y  # Q'Q = I
        want = np.sign(ols) * np.maximum(np.abs(ols) - rho, 0.0)
        np.testing.assert_allclose(fit.coefficients, want, atol=1e-10)

    def test_ridge_matches_closed_form(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((70, 5))
        y = rng.standard_normal(70)
        rho = 0.8
        fit = penalized_fit(X, y, "normal", penalty=PenaltySpec("ridge", rho))
        want = np.linalg.solve(X.T @ X + 2.0 * rho * np.eye(5), X.T @ y)
        np.testing.assert_allclose(fit.coefficients, want, atol=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_lasso_nnz_nonincreasing_in_rho(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, p = 120, 6
        X = rng.standard_normal((n, p))
        y = X @ (rng.standard_normal(p) * (rng.random(p) < 0.5)) + rng.standard_normal(n)
        rho_max = np.abs(X.T @ y).max()
        nnz = []
        for rho in np.geomspace(1e-3 * rho_max, 2.0 * rho_max, 10):
            fit = penalized_fit(X, y, "normal", penalty=PenaltySpec("lasso", rho))
            nnz.append(int(np.count_nonzero(fit.coefficients)))
        assert all(a >= b for a, b in zip(nnz, nnz[1:]))

    @pytest.mark.parametrize("seed", range(3))
    def test_lasso_active_set_moves_continuously(self, seed):
        # Along the path, any active-set jump of more than one coefficient
        # must split into single steps once the grid interval is bisected:
        # the solution path is continuous in rho.
        rng = np.random.default_rng(200 + seed)
        n, p = 90, 5
        X = rng.standard_normal((n, p))
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        rho_max = np.abs(X.T @ y).max()

        def nnz_at(rho):
            fit = penalized_fit(X, y, "normal", penalty=PenaltySpec("lasso", rho))
            return int(np.count_nonzero(fit.coefficients))

        grid = list(np.geomspace(1e-3 * rho_max, 1.5 * rho_max, 40))
        counts = [nnz_at(r) for r in grid]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        stack = list(zip(grid, counts, grid[1:], counts[1:]))
        budget = 200
        while stack:
            lo, clo, hi, chi = stack.pop()
            if clo - chi <= 1:
                continue
            budget -= 1
            assert budget > 0, "path refinement did not terminate"
            mid = np.sqrt(lo * hi)
            cmid = nnz_at(mid)
            assert chi <= cmid <= clo
            if hi / lo < 1 + 1e-9:
                continue  # two coefficients leave at numerically the same knot
            stack.append((lo, clo, mid, cmid))
            stack.append((mid, cmid, hi, chi))

    @pytest.mark.parametrize("name", ["bernoulli", "poisson"])
    def test_penalized_objective_trace_nondecreasing(self, name):
        rng = np.random.default_rng(11)
        fam = get_family(name)
        X = rng.standard_normal((150, 6))
        y = fam.sample(X @ (0.4 * rng.standard_normal(6)), rng)
        fit = penalized_fit(X, y, fam, penalty=PenaltySpec("lasso", 2.0))
        t = np.asarray(fit.trace)
        assert np.all(np.diff(t) >= -1e-10 * (1.0 + np.abs(t[:-1])))

    @pytest.mark.parametrize("lam", [0.5, 1.5])
    def test_bridge_sweeps_end_before_their_cap(self, monkeypatch, lam):
        # the bridge threshold is exact to rounding, so the sweeps of each
        # quadratic step meet their tolerance instead of running to the cap
        calls = [0]
        rule_of = PenaltySpec.threshold_rule

        def counting_rule(spec):
            rule = rule_of(spec)

            def counted(z, w):
                calls[0] += 1
                return rule(z, w)

            return counted

        sweeps = []
        cd = glm._cd_on_quadratic

        def counted_cd(G, cvec, beta, spec, tol, max_sweeps):
            before = calls[0]
            out = cd(G, cvec, beta, spec, tol, max_sweeps)
            sweeps.append((calls[0] - before) / beta.size)
            return out

        monkeypatch.setattr(PenaltySpec, "threshold_rule", counting_rule)
        monkeypatch.setattr(glm, "_cd_on_quadratic", counted_cd)
        # 32 equicorrelated columns (correlation 0.3), small dense signal
        rng = np.random.default_rng(0)
        X = np.sqrt(0.7) * rng.standard_normal((200, 32))
        X += np.sqrt(0.3) * rng.standard_normal((200, 1))
        y = 0.15 * X @ rng.standard_normal(32) + rng.standard_normal(200)
        fit = penalized_fit(X, y, "normal", penalty=PenaltySpec("bridge", 3.0, lam))
        assert fit.converged and sweeps
        assert max(sweeps) < glm._MAX_SWEEPS
        t = np.asarray(fit.trace)
        assert np.all(np.diff(t) >= -1e-10 * (1.0 + np.abs(t[:-1])))

    def test_convex_update_unique_across_starts(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((80, 5))
        y = X @ rng.standard_normal(5) + rng.standard_normal(80)
        spec = PenaltySpec("elastic_net", 0.5, 1.5)
        a = penalized_fit(X, y, "normal", penalty=spec)
        b = penalized_fit(X, y, "normal", penalty=spec, start=np.ones(5) * 3.0)
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-8)

    @pytest.mark.parametrize("name", ["normal", "bernoulli"])
    @pytest.mark.parametrize("seed", range(4))
    def test_warm_started_scad_never_ends_below_its_warm_start(self, name, seed):
        # a nonconvex block is solved from its warm start alone: the
        # step-halving keeps the objective at or above the warm start's
        rng = np.random.default_rng(300 + seed)
        fam = get_family(name)
        X = rng.standard_normal((100, 4))
        y = fam.sample(X @ np.array([1.5, 0.0, -1.0, 0.0]), rng)
        spec = PenaltySpec("scad", 2.0)
        warm = 2.0 * rng.standard_normal(4)
        start = log_likelihood(fam, y, X @ warm) - np.sum(penalty_value(spec, warm))
        fit = penalized_fit(X, y, fam, penalty=spec, start=warm)
        end = log_likelihood(fam, y, X @ fit.coefficients) - np.sum(
            penalty_value(spec, fit.coefficients))
        assert fit.trace[0] == pytest.approx(start, rel=1e-12)
        assert end >= start - 1e-12 * (1.0 + abs(start))
        assert end == pytest.approx(fit.trace[-1], rel=1e-12)


def plain_cd(G, cvec, beta, spec, tol=1e-13, max_sweeps=20_000):
    """Reference: cyclic coordinate descent, one threshold_update per step."""
    beta = beta.copy()
    q = G @ beta
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(beta.size):
            gjj = G[j, j]
            zj = (cvec[j] - q[j] + gjj * beta[j]) / gjj
            new = threshold_update(spec, zj, gjj)
            step = new - beta[j]
            if step != 0.0:
                q += G[:, j] * step
                beta[j] = new
                delta = max(delta, abs(step))
        if delta <= tol:
            break
    return beta


def assert_kkt(G, cvec, b, spec, atol):
    """Stationarity of (1/2) b'Gb - c'b + sum a1|b_j| + a2 b_j^2/2."""
    a1, a2 = spec.quadratic_piece
    r = cvec - G @ b
    on = b != 0.0
    off = ~on
    np.testing.assert_allclose(r[on], (a1 + a2 * np.abs(b[on])) * np.sign(b[on]),
                               atol=atol)
    assert np.all(np.abs(r[off]) <= a1 + atol)


def quadratic_problem(seed, n, p, collinear=False):
    """A random quadratic; ``collinear`` repeats column 0 as the last one,
    so that G is singular when p >= 2."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if collinear:
        X[:, -1] = X[:, 0]
    return rng, X.T @ X, X.T @ (3.0 * rng.standard_normal(n))


class TestCoordinateDescent:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 8),
        extra_rows=st.integers(1, 16),
        family=st.sampled_from(["lasso", "ridge", "elastic_net"]),
        lam=st.floats(1.0, 2.0),
        rho_share=st.floats(0.01, 1.2),
        warm=st.booleans(),
    )
    def test_exact_finish_meets_kkt_and_matches_plain_cd(
        self, seed, p, extra_rows, family, lam, rho_share, warm
    ):
        rng, G, cvec = quadratic_problem(seed, 2 * p + extra_rows, p)
        rho = rho_share * np.abs(cvec).max()
        spec = PenaltySpec(family, rho, lam if family == "elastic_net" else None)
        beta0 = rng.standard_normal(p) if warm else np.zeros(p)
        got = glm._cd_on_quadratic(G, cvec, beta0, spec, tol=1e-12, max_sweeps=1000)
        want = plain_cd(G, cvec, beta0, spec)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
        scale = 1.0 + np.abs(G).max() * (1.0 + np.abs(got).max())
        assert_kkt(G, cvec, got, spec, atol=1e-9 * scale)

    def test_rejected_candidate_still_reaches_the_optimum(self, monkeypatch):
        # With the active-set search switched off, the sweeps on this
        # correlated design hold wrong sign patterns for a sweep each
        # before the right one, and their candidates fail.
        rng, G, cvec = quadratic_problem(3, 12, 8)
        G += 30.0 * np.outer(np.ones(8), np.ones(8))
        spec = PenaltySpec("lasso", 0.2 * np.abs(cvec).max())
        outcomes = []
        finish = glm._exact_finish

        def recording(*args):
            cand, signs = finish(*args)
            outcomes.append(cand is not None)
            return cand, signs

        monkeypatch.setattr(glm, "_MAX_PATTERNS", 0)
        monkeypatch.setattr(glm, "_exact_finish", recording)
        got = glm._cd_on_quadratic(G, cvec, np.zeros(8), spec, tol=1e-12,
                                   max_sweeps=1000)
        assert outcomes[:2] == [False, False] and outcomes[-1]
        want = plain_cd(G, cvec, np.zeros(8), spec)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
        assert_kkt(G, cvec, got, spec, atol=1e-9 * np.abs(G).max())

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 8),
        extra_rows=st.integers(1, 16),
        family=st.sampled_from(["lasso", "ridge", "elastic_net"]),
        lam=st.floats(1.0, 2.0),
        rho_share=st.floats(0.01, 1.2),
        warm=st.booleans(),
        collinear=st.booleans(),
    )
    # a singular G_AA whose LU solution is huge; an elastic net with a1 of
    # 2e-15, where a point off its pattern passes the threshold pass; a
    # lasso at its knot; sweeps that creep along a repeated column
    @example(seed=2, p=2, extra_rows=7, family="lasso", lam=1.0,
             rho_share=0.015625, warm=True, collinear=True)
    @example(seed=0, p=5, extra_rows=1, family="elastic_net",
             lam=1.9999999999999998, rho_share=1.0, warm=False, collinear=False)
    @example(seed=670, p=1, extra_rows=1, family="lasso", lam=1.0,
             rho_share=1.0, warm=False, collinear=False)
    @example(seed=500, p=2, extra_rows=9, family="lasso", lam=1.0,
             rho_share=0.01171875, warm=True, collinear=True)
    def test_pattern_search_returns_what_the_sweeps_return(
        self, seed, p, extra_rows, family, lam, rho_share, warm, collinear
    ):
        rng, G, cvec = quadratic_problem(seed, 2 * p + extra_rows, p, collinear)
        rho = rho_share * np.abs(cvec).max()
        spec = PenaltySpec(family, rho, lam if family == "elastic_net" else None)
        beta0 = rng.standard_normal(p) if warm else np.zeros(p)
        # Sweeps from a warm start of mixed signs on a repeated column creep
        # by 2 a1 / G_jj each, so they get the reference's sweep budget.
        got = glm._cd_on_quadratic(G, cvec, beta0, spec, tol=1e-12,
                                   max_sweeps=20_000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glm, "_MAX_PATTERNS", 0)
            swept = glm._cd_on_quadratic(G, cvec, beta0, spec, tol=1e-12,
                                         max_sweeps=20_000)
        if not collinear or p == 1:
            # positive definite: one minimizer, reached on the same pattern
            assert np.array_equal(got, swept)
        scale = 1.0 + np.abs(G).max() * (1.0 + np.abs(got).max())
        for b in (got, swept):
            assert_kkt(G, cvec, b, spec, atol=1e-9 * scale)

    # the lasso zeroes a leading factor entry, which normalization reports
    @pytest.mark.filterwarnings("ignore::tensorreg.errors.DegenerateNormalizationWarning")
    @pytest.mark.parametrize("penalty", [PenaltySpec("lasso", 8.0),
                                         PenaltySpec("elastic_net", 6.0, 1.5)],
                             ids=["lasso", "elastic_net"])
    def test_fits_are_bit_identical_without_the_pattern_search(self, monkeypatch,
                                                                penalty):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((120, 6, 5))
        signal = np.zeros((6, 5))
        signal[1:4, 1:3] = 1.0
        y = np.tensordot(x, signal, axes=2) + rng.standard_normal(120)
        ds = TensorGlmDataset(y, x, rng.standard_normal((120, 2)))
        cfg = FitConfig(rank=2, restarts=2, seed=4, penalty=penalty)
        with_search = fit(ds, "normal", cfg)
        monkeypatch.setattr(glm, "_MAX_PATTERNS", 0)
        sweeps_only = fit(ds, "normal", cfg)
        for a, b in zip(with_search.coeff.factors, sweeps_only.coeff.factors):
            assert np.array_equal(a, b)
        assert with_search.trace == sweeps_only.trace
        assert np.count_nonzero(with_search.coeff.factors[0] == 0.0) > 0


class TestDivergence:
    def test_bernoulli_separation_raises_with_last_iterate(self):
        from tensorreg.errors import GlmDivergenceError

        rng = np.random.default_rng(0)
        x = rng.standard_normal(80)
        y = (x > 0).astype(float)  # perfectly separable
        with pytest.raises(GlmDivergenceError) as err:
            irls_fit(x[:, None], y, "bernoulli")
        last = err.value.last_fit
        assert last is not None
        assert last.iterations == 100
        assert not last.converged
        assert np.abs(last.coefficients).max() > 10.0


class TestSolverArguments:
    """Mismatched shapes that the solvers and the log-likelihood name."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: log_likelihood("normal", np.zeros(3), np.zeros(4)),
                     r"y has shape \(3,\), eta has shape \(4,\)", id="loglik"),
        pytest.param(lambda: irls_fit(np.ones((4, 2)), np.zeros(3), "normal"),
                     "4 design rows vs 3 responses", id="rows"),
        pytest.param(lambda: irls_fit(np.ones((4, 2)), np.zeros(4), "normal",
                                      np.zeros(3)),
                     "offset length 3 != 4 observations", id="offset"),
        pytest.param(lambda: penalized_fit(np.ones((4, 2)), np.zeros(4), "normal",
                                           penalty=PenaltySpec("ridge", 1.0),
                                           start=np.zeros(3)),
                     "start has 3 entries for 2 columns", id="start"),
    ])
    def test_mismatch_is_named(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()


class TestInputValidation:
    """Bad responses and covariates are rejected before any fitting."""

    @staticmethod
    def dataset(y=None, z=None, x=None):
        rng = np.random.default_rng(17)
        n = 200
        x = rng.standard_normal((n, 6, 5)) if x is None else x
        z = rng.standard_normal((n, 2)) if z is None else z
        y = (rng.random(n) < 0.5).astype(float) if y is None else y
        return TensorGlmDataset(y, x, z)

    @pytest.mark.parametrize("name, value, message", [
        pytest.param("bernoulli", 2.0, r"y\[3\] = 2 is outside the support of the "
                     r"bernoulli family \(\{0, 1\}\)", id="bernoulli-2"),
        pytest.param("bernoulli", 0.5, r"y\[3\] = 0\.5 is outside the support of the "
                     r"bernoulli family", id="bernoulli-half"),
        pytest.param("poisson", -1.0, r"y\[3\] = -1 is outside the support of the "
                     r"poisson family \(y >= 0\)", id="poisson-negative"),
        pytest.param("normal", np.nan, r"y\[3\] is nan: y must be finite", id="normal-nan"),
        pytest.param("poisson", np.inf, r"y\[3\] is inf: y must be finite", id="poisson-inf"),
    ])
    def test_response_outside_the_family_is_named(self, name, value, message):
        ds = self.dataset()
        ds.y[3] = value
        with pytest.raises(DomainError, match=message):
            fit(ds, name, FitConfig(rank=1, restarts=1))

    def test_nonfinite_covariate_is_named(self):
        z = np.random.default_rng(18).standard_normal((200, 2))
        z[5, 1] = np.nan
        with pytest.raises(DomainError, match=r"z\[5, 1\] is nan: z must be finite"):
            fit(self.dataset(z=z), "bernoulli", FitConfig(rank=1, restarts=1))

    def test_select_rank_raises_instead_of_tabulating(self):
        ds = self.dataset()
        ds.y[0] = 3.0
        with pytest.raises(DomainError, match="outside the support"):
            select_rank(ds, "bernoulli", 2, FitConfig(restarts=1))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_nonfinite_tensor_entry_is_named(self, value):
        x = np.random.default_rng(19).standard_normal((200, 6, 5))
        x[7, 2, 3] = value
        with pytest.raises(DomainError, match=(
            rf"tensor covariate x\[7\] has the nonfinite entry {value} at index \(2, 3\)"
        )):
            self.dataset(x=x)

    def test_finite_tensors_whose_sum_overflows_are_accepted(self):
        x = np.zeros((200, 6, 5))
        x[0, 0, 0] = x[1, 0, 0] = 1e308
        with np.errstate(over="ignore"):
            assert np.isinf(x.sum())
        assert self.dataset(x=x).n == 200
