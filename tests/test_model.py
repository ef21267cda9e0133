"""Tensor GLM tests: block designs, alternating fit, normalization,
inference derivatives against finite differences, uniqueness checks."""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorreg.errors import (
    DegenerateNormalizationWarning,
    DomainError,
    FitConvergenceError,
    GlmDivergenceError,
    InferenceError,
    KRankSizeError,
)
from tensorreg.glm import get_family, log_likelihood
from tensorreg.penalties import PenaltySpec
from tensorreg.model import (
    FitConfig,
    TensorGlmDataset,
    TensorGlmModel,
    bic,
    build_block_design,
    check_uniqueness,
    effective_parameters,
    eta_gradient,
    eta_hessian,
    fit,
    free_parameter_index,
    k_rank,
    log_density_hessian,
    model_from_document,
    model_to_document,
    normalize_identifiability,
    select_rank,
    score_and_information,
)
from tensorreg.tensor_core import (
    CpTensor,
    DenseTensor,
    cp_to_full,
    factor_chain_omitting,
    unstack_vec,
)

from oracles import dataset_tensors, inner, mode_d_matricize, raw_parameter_count


def random_dataset(rng, n, dims, p0=0):
    x = rng.standard_normal((n,) + tuple(dims))
    z = rng.standard_normal((n, p0)) if p0 else None
    y = rng.standard_normal(n)
    return TensorGlmDataset(y, x, z)


def with_response(ds, y):
    """The dataset ``ds`` with its responses replaced by ``y``."""
    return TensorGlmDataset(y, unstack_vec(ds.x_matrix(), ds.dims), ds.z)


def random_cp(rng, dims, rank):
    return CpTensor([rng.standard_normal((p, rank)) for p in dims])


def simulate_normal(rng, n, coeff, gamma=None, alpha=0.0):
    dims = coeff.dims
    x = rng.standard_normal((n,) + dims)
    p0 = 0 if gamma is None else len(gamma)
    z = rng.standard_normal((n, p0)) if p0 else None
    full = cp_to_full(coeff).to_array()
    eta = alpha + np.tensordot(x, full, axes=len(dims))
    if p0:
        eta = eta + z @ np.asarray(gamma)
    y = eta + rng.standard_normal(n)
    return TensorGlmDataset(y, x, z)


def normalized_point(rng, dims, rank, spread=0.6, last_scale=0.5):
    """A well-conditioned CP point already in normalized form."""
    factors = [spread * rng.standard_normal((p, rank)) for p in dims]
    for d in range(len(dims) - 1):
        factors[d][0, :] = 1.0
    lead = last_scale * np.sort(rng.uniform(0.8, 2.0, rank))[::-1]
    factors[-1] *= last_scale
    factors[-1][0, :] = lead
    return CpTensor(factors)


def make_model(coeff, family="normal", alpha=0.0, gamma=(), phi=1.0, n=1, p0=None):
    gamma = np.asarray(gamma, dtype=np.float64)
    return TensorGlmModel(
        alpha=alpha,
        gamma=gamma,
        coeff=coeff,
        family=get_family(family),
        phi=phi,
        loglik=np.nan,
        bic=np.nan,
        trace=[],
        converged=True,
        restarts_used=1,
        n=n,
        p0=gamma.size if p0 is None else p0,
    )


def loglik_at_free_vector(model, dataset, theta):
    """Log-likelihood as a function of (free CP entries, alpha, gamma)."""
    index_map, _ = free_parameter_index(model.dims, model.rank)
    factors = [f.copy() for f in model.coeff.factors]
    for (d, i, r), pos in index_map.items():
        factors[d - 1][i - 1, r - 1] = theta[pos]
    nfree = len(index_map)
    alpha = theta[nfree]
    gamma = theta[nfree + 1 :]
    eta = alpha + dataset.x_matrix() @ cp_to_full(CpTensor(factors)).data
    if dataset.p0:
        eta = eta + dataset.z @ gamma
    return log_likelihood(model.family, dataset.y, eta, model.phi)


def pack_free_vector(model):
    index_map, _ = free_parameter_index(model.dims, model.rank)
    theta = np.zeros(len(index_map) + 1 + model.p0)
    for (d, i, r), pos in index_map.items():
        theta[pos] = model.coeff.factors[d - 1][i - 1, r - 1]
    theta[len(index_map)] = model.alpha
    theta[len(index_map) + 1 :] = model.gamma
    return theta


# ---------------------------------------------------------------------------
# Block designs
# ---------------------------------------------------------------------------


class TestBuildBlockDesign:
    def test_rank1_2d_mode1_rows_are_x_beta2(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 7, (3, 4))
        coeff = random_cp(rng, (3, 4), 1)
        design = build_block_design(ds, coeff, 1)
        b2 = coeff.factors[1][:, 0]
        for i, t in enumerate(dataset_tensors(ds)):
            np.testing.assert_allclose(design[i], t.to_array() @ b2, rtol=1e-12)

    def test_all_ones_factors_give_mode_sums(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 5, (3, 4, 2))
        coeff = CpTensor([np.ones((p, 1)) for p in (3, 4, 2)])
        for d in (1, 2, 3):
            design = build_block_design(ds, coeff, d)
            for i, t in enumerate(dataset_tensors(ds)):
                axes = tuple(k for k in range(3) if k != d - 1)
                np.testing.assert_allclose(
                    design[i], t.to_array().sum(axis=axes), rtol=1e-12
                )

    @pytest.mark.parametrize("dims,rank", [((3, 4), 2), ((3, 4, 2), 2), ((2, 3, 2, 2), 3)])
    def test_row_dot_vec_bd_equals_full_inner_product(self, dims, rank):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 6, dims)
        coeff = random_cp(rng, dims, rank)
        full = cp_to_full(coeff)
        for d in range(1, len(dims) + 1):
            design = build_block_design(ds, coeff, d)
            vec_bd = coeff.factors[d - 1].ravel(order="F")
            want = [inner(full, t) for t in dataset_tensors(ds)]
            np.testing.assert_allclose(design @ vec_bd, want, rtol=1e-9)

    def test_dims_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 4, (3, 4))
        with pytest.raises(DomainError):
            build_block_design(ds, random_cp(rng, (4, 3), 1), 1)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        rank=st.integers(1, 4),
        n=st.integers(1, 30),
        data=st.data(),
    )
    def test_matches_per_sample_matricization(self, seed, dims, rank, n, data):
        d = data.draw(st.integers(1, len(dims)), label="d")
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n, dims)
        coeff = random_cp(rng, dims, rank)
        chain = factor_chain_omitting(coeff.factors, d)
        want = np.array(
            [(mode_d_matricize(t, d) @ chain).ravel(order="F")
             for t in dataset_tensors(ds)]
        )
        got = build_block_design(ds, coeff, d)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        ranks=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        n=st.integers(1, 30),
    )
    def test_stacked_design_is_the_starts_side_by_side(self, seed, dims, ranks, n):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n, dims)
        starts = [random_cp(rng, dims, r) for r in ranks]
        stacked = CpTensor(
            [np.hstack([c.factors[k] for c in starts]) for k in range(len(dims))]
        )
        for d in range(1, len(dims) + 1):
            design = build_block_design(ds, stacked, d)
            end = 0
            for c in starts:
                start, end = end, end + dims[d - 1] * c.rank
                np.testing.assert_allclose(
                    design[:, start:end], build_block_design(ds, c, d),
                    rtol=1e-12, atol=1e-12,
                )
            assert end == design.shape[1]

    @pytest.mark.parametrize("dims", [(5, 4), (3, 4, 2)])
    def test_each_design_is_a_new_array(self, dims):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 7, dims)
        coeff = random_cp(rng, dims, 2)
        previous = None
        for d in range(1, len(dims) + 1):
            got = build_block_design(ds, coeff, d)
            assert got.shape == (7, dims[d - 1] * 2)
            assert not np.shares_memory(got, ds.x_matrix())
            if previous is not None:
                assert not np.shares_memory(got, previous)
            previous = got

    @pytest.mark.parametrize("n,parts", [(53, 2), (53, 3), (2, 3)])
    @pytest.mark.parametrize("dims", [(9, 7), (6, 5, 4)])
    def test_rows_spread_over_threads_equal_the_inline_build(self, dims, n, parts):
        import threading

        from tensorreg.model import _worker_pool

        rng = np.random.default_rng(22)
        ds = random_dataset(rng, n, dims)
        coeff = random_cp(rng, dims, 2)
        names = set()

        def recording(task):
            def call():
                names.add(threading.current_thread().name)
                return task()

            return call

        with _worker_pool(2) as run:

            def spread(tasks, work):  # on the workers whatever the work
                return run([recording(t) for t in tasks])

            for d in range(1, len(dims) + 1):
                # with n = 53 the middle mode of (6, 5, 4) contracts rows in
                # blocks of 53 * 4 // (8 * 2) = 13, several per range
                got = build_block_design(ds, coeff, d, run=spread, parts=parts)
                assert np.array_equal(got, build_block_design(ds, coeff, d))
        assert any(name.startswith("tensorreg-worker") for name in names)


class TestDatasetLayouts:
    def test_x_matrix_rows_are_vec(self):
        rng = np.random.default_rng(4)
        tensors = [DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
                   for _ in range(3)]
        xm = TensorGlmDataset(np.zeros(3), tensors).x_matrix()
        for i, t in enumerate(tensors):
            np.testing.assert_array_equal(xm[i], t.data)

    def test_parsed_even_d_file_is_held_without_copy(self, tmp_path):
        from tensorreg.io import parse_tensor_file, write_tensor_file

        rng = np.random.default_rng(5)
        path = tmp_path / "x.tnsr"  # D = 2: the payload starts at byte 20
        write_tensor_file(path, rng.standard_normal((6, 3, 4)))
        parsed = parse_tensor_file(path)
        xm = TensorGlmDataset(np.zeros(6), parsed).x_matrix()
        assert xm.flags.aligned and xm.flags.c_contiguous
        assert xm.ctypes.data % 8 == 0
        assert np.shares_memory(xm, parsed)
        for i in range(6):
            np.testing.assert_array_equal(xm[i], parsed[i].ravel(order="F"))

    # rank 12 is the stacked column count of select_rank over ranks 1-3
    # with 2 restarts
    @pytest.mark.parametrize("dims,rank", [((32, 24), 2), ((16, 12, 8), 12)])
    def test_block_design_allocates_less_than_a_quarter_of_the_payload(
        self, tmp_path, dims, rank
    ):
        import tracemalloc

        from tensorreg.io import parse_tensor_file, write_tensor_file

        rng = np.random.default_rng(7)
        path = tmp_path / "x.tnsr"
        write_tensor_file(path, rng.standard_normal((400,) + dims))
        ds = TensorGlmDataset(np.zeros(400), parse_tensor_file(path))
        coeff = random_cp(rng, dims, rank)
        payload = ds.x_matrix().nbytes
        for d in range(1, len(dims) + 1):
            tracemalloc.start()
            try:
                build_block_design(ds, coeff, d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < payload / 4, (d, peak, payload)

    def test_accepts_list_of_tensors(self):
        rng = np.random.default_rng(6)
        ts = [DenseTensor.from_array(rng.standard_normal((2, 2))) for _ in range(3)]
        ds = TensorGlmDataset(np.zeros(3), ts)
        assert ds.dims == (2, 2)
        with pytest.raises(DomainError):
            TensorGlmDataset(
                np.zeros(2),
                [ts[0], DenseTensor.from_array(rng.standard_normal((3, 2)))],
            )

    def test_list_of_arrays_takes_the_array_path(self):
        rng = np.random.default_rng(8)
        arr = rng.standard_normal((3, 2, 4))
        ds = TensorGlmDataset(np.zeros(3), list(arr))
        assert ds.dims == (2, 4)
        np.testing.assert_array_equal(
            ds.x_matrix(), TensorGlmDataset(np.zeros(3), arr).x_matrix()
        )

    def test_three_way_z_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DomainError, match="z must be"):
            TensorGlmDataset(np.zeros(3), rng.standard_normal((3, 2, 2)),
                             np.zeros((3, 2, 1)))


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


class TestNormalizeIdentifiability:
    def test_scale_transfer_rank1(self):
        c = normalize_identifiability(
            CpTensor([np.array([2.0, 4.0]), np.array([3.0, 6.0])])
        )
        np.testing.assert_array_equal(c.factors[0][:, 0], [1.0, 2.0])
        np.testing.assert_array_equal(c.factors[1][:, 0], [6.0, 12.0])

    def test_idempotent_and_value_preserving(self):
        rng = np.random.default_rng(7)
        c = random_cp(rng, (3, 4, 2), 3)
        before = cp_to_full(c).data
        n1 = normalize_identifiability(c)
        scale = np.abs(before).max()
        assert np.abs(cp_to_full(n1).data - before).max() <= 1e-10 * max(scale, 1.0)
        n2 = normalize_identifiability(n1)
        for f1, f2 in zip(n1.factors, n2.factors):
            np.testing.assert_array_equal(f1, f2)

    def test_normalized_form(self):
        rng = np.random.default_rng(8)
        c = normalize_identifiability(random_cp(rng, (4, 3, 5), 3))
        for d in range(c.ndim - 1):
            np.testing.assert_array_equal(c.factors[d][0, :], np.ones(3))
        lead = c.factors[-1][0, :]
        assert np.all(np.diff(lead) < 0)

    def test_zero_leading_entry_falls_back_with_warning(self):
        b1 = np.array([[0.0, 1.0], [2.0, 1.0], [1.0, -1.0]])
        b2 = np.array([[3.0, 1.0], [1.0, 2.0]])
        c = CpTensor([b1, b2])
        before = cp_to_full(c).data
        with pytest.warns(DegenerateNormalizationWarning):
            norm = normalize_identifiability(c)
        np.testing.assert_allclose(cp_to_full(norm).data, before, rtol=1e-12)

    def test_tied_lead_row_breaks_by_second_row(self):
        b1 = np.array([[1.0, 1.0], [2.0, -1.0]])
        b2 = np.array([[2.0, 2.0], [1.0, 5.0]])
        with pytest.warns(DegenerateNormalizationWarning):
            norm = normalize_identifiability(CpTensor([b1, b2]))
        # columns ordered by the tie-breaking second row of the last factor
        assert norm.factors[1][1, 0] == 5.0
        np.testing.assert_allclose(
            cp_to_full(norm).data, cp_to_full(CpTensor([b1, b2])).data, rtol=1e-12
        )


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


class TestFit:
    def test_recovers_rank1_signal(self):
        rng = np.random.default_rng(9)
        truth = CpTensor([np.array([1.0, 2.0, 0.5, -1.0, 0.0, 1.5]),
                          np.array([2.0, 1.0, 0.0, -0.5, 1.0, 0.0])])
        ds = simulate_normal(rng, 600, truth, gamma=[1.0, -1.0])
        model = fit(ds, "normal", FitConfig(rank=1, restarts=2, seed=1))
        err = cp_to_full(model.coeff).data - cp_to_full(truth).data
        assert np.sqrt(np.mean(err**2)) < 0.05
        np.testing.assert_allclose(model.gamma, [1.0, -1.0], atol=0.15)
        assert model.converged
        assert model.restarts_used == 2

    def test_trace_nondecreasing(self):
        rng = np.random.default_rng(10)
        truth = random_cp(rng, (5, 4), 2)
        ds = simulate_normal(rng, 300, truth)
        model = fit(ds, "normal", FitConfig(rank=2, restarts=2, seed=2))
        t = np.asarray(model.trace)
        assert np.all(np.diff(t) >= -1e-10 * (1.0 + np.abs(t[:-1])))

    def test_zero_signal_sanity(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, 400, (4, 4))  # y is pure noise
        model = fit(ds, "normal", FitConfig(rank=1, restarts=2, seed=3))
        t = np.asarray(model.trace)
        assert np.all(np.diff(t) >= -1e-10 * (1.0 + np.abs(t[:-1])))
        assert np.linalg.norm(cp_to_full(model.coeff).data) < 0.5

    def test_result_coeff_is_normalized(self):
        rng = np.random.default_rng(12)
        truth = random_cp(rng, (4, 3, 3), 2)
        ds = simulate_normal(rng, 500, truth)
        model = fit(ds, "normal", FitConfig(rank=2, restarts=2, seed=4))
        renorm = normalize_identifiability(model.coeff)
        for a, b in zip(model.coeff.factors, renorm.factors):
            np.testing.assert_array_equal(a, b)

    def test_objective_equivalent_every_iteration(self, held_state_check):
        # the suite's held-state check (conftest.py) compares both eta
        # routes at every block solve: at least the 3 factor blocks and
        # (alpha, gamma) of every cycle of the returned start
        rng = np.random.default_rng(60)
        truth = random_cp(rng, (4, 4, 3), 2)
        ds = simulate_normal(rng, 400, truth, gamma=[1.0])
        model = fit(ds, "normal", FitConfig(rank=2, restarts=2, seed=14))
        assert model.converged
        assert held_state_check.calls >= 4 * (len(model.trace) - 1)

    def test_objective_equivalent_through_both_routes(self):
        rng = np.random.default_rng(13)
        truth = random_cp(rng, (4, 5), 2)
        ds = simulate_normal(rng, 250, truth)
        model = fit(ds, "normal", FitConfig(rank=2, restarts=2, seed=5))
        eta_cp = model.linear_predictor(ds)
        for d in (1, 2):
            design = build_block_design(ds, model.coeff, d)
            eta_design = model.alpha + design @ model.coeff.factors[d - 1].ravel(
                order="F"
            )
            ll_a = log_likelihood(model.family, ds.y, eta_cp, 1.0)
            ll_b = log_likelihood(model.family, ds.y, eta_design, 1.0)
            assert ll_b == pytest.approx(ll_a, rel=1e-9)

    @pytest.mark.parametrize("family", ["bernoulli", "poisson"])
    def test_other_families_fit_and_ascend(self, family):
        rng = np.random.default_rng(14)
        truth = CpTensor(
            [0.3 * rng.standard_normal((4, 1)), 0.3 * rng.standard_normal((3, 1))]
        )
        fam = get_family(family)
        x = rng.standard_normal((800, 4, 3))
        eta = np.einsum("nij,ij->n", x, cp_to_full(truth).to_array())
        y = fam.sample(eta, rng)
        ds = TensorGlmDataset(y, x)
        model = fit(ds, fam, FitConfig(rank=1, restarts=2, seed=6))
        t = np.asarray(model.trace)
        assert np.all(np.diff(t) >= -1e-10 * (1.0 + np.abs(t[:-1])))
        err = cp_to_full(model.coeff).data - cp_to_full(truth).data
        assert np.sqrt(np.mean(err**2)) < 0.25

    def test_permutation_invariant_after_normalization(self):
        rng = np.random.default_rng(15)
        b1 = np.array([[1.0, 1.0], [3.0, -2.0], [0.5, 1.0], [2.0, 0.0]])
        b2 = np.array([[4.0, 1.0], [1.0, -3.0], [0.0, 2.0]])
        truth = CpTensor([b1, b2])
        ds = simulate_normal(rng, 2000, truth)
        init = [rng.standard_normal((4, 2)), rng.standard_normal((3, 2))]
        perm = [f[:, ::-1].copy() for f in init]
        cfg = FitConfig(rank=2, restarts=1, seed=7, epsilon=1e-10,
                        max_outer_iters=2000)
        m1 = fit(ds, "normal", cfg, init_factors=init)
        m2 = fit(ds, "normal", cfg, init_factors=perm)
        np.testing.assert_allclose(
            cp_to_full(m1.coeff).data, cp_to_full(m2.coeff).data, atol=1e-6
        )

    def test_failed_fit_reports_the_outer_trace_of_the_furthest_restart(
        self, monkeypatch
    ):
        from tensorreg import model as model_module

        monkeypatch.setenv("TENSORREG_THREADS", "1")  # one thread counts cycles
        rng = np.random.default_rng(43)
        ds = simulate_normal(rng, 300, random_cp(rng, (5, 4), 2), gamma=[0.5])
        cfg = FitConfig(rank=2, restarts=2, seed=9, epsilon=1e-300)
        reference = fit(ds, "normal", replace(cfg, max_outer_iters=2))
        assert len(reference.trace) == 3
        inner = model_module.irls_fit
        cycles_ended = [0]

        def diverging(design, y, family, offset=None, **kwargs):
            out = inner(design, y, family, offset=offset, **kwargs)
            if design.shape[1] == 1 + ds.p0:  # intercept/covariate update
                cycles_ended[0] += offset is not None
            elif cycles_ended[0] == 2 * cfg.restarts:  # a block of cycle 3
                raise GlmDivergenceError("diverged", last_fit=out)
            return out

        monkeypatch.setattr(model_module, "irls_fit", diverging)
        with pytest.raises(FitConvergenceError) as err:
            fit(ds, "normal", cfg)
        assert err.value.best_trace == reference.trace

    def test_mismatched_init_factors_rejected(self):
        rng = np.random.default_rng(45)
        ds = simulate_normal(rng, 100, random_cp(rng, (4, 3), 1))
        cfg = FitConfig(rank=2, restarts=2)
        for init in (random_cp(rng, (4, 3), 1), random_cp(rng, (3, 4), 2)):
            with pytest.raises(DomainError, match="init_factors"):
                fit(ds, "normal", cfg, init_factors=init.factors)

    def test_infeasible_unpenalized_size_rejected(self):
        rng = np.random.default_rng(16)
        ds = random_dataset(rng, 10, (4, 4))
        with pytest.raises(DomainError):
            fit(ds, "normal", FitConfig(rank=3, restarts=1))

    def test_more_effective_parameters_than_observations_rejected(self):
        # every block of rank 3 needs only n > 16 * 3 + 3, but p_e = 90
        ds = random_dataset(np.random.default_rng(48), 80, (16, 16), p0=2)
        with pytest.raises(DomainError, match="n=80 .* 90 effective parameters"):
            fit(ds, "normal", FitConfig(rank=3, restarts=1))

    @pytest.mark.parametrize("penalty", [None, PenaltySpec("ridge", 0.1)],
                             ids=["unpenalized", "ridge"])
    @pytest.mark.parametrize("n,p0,message", [
        (3, 5, "n=3 observations for 6 intercept and covariate columns"),
        (200, 2, r"z is collinear with the intercept: \[1, z\] has rank 2 of 3"),
    ], ids=["few_observations", "collinear"])
    def test_intercept_and_covariate_columns_name_the_cause(self, n, p0, message,
                                                            penalty):
        rng = np.random.default_rng(49)
        z = rng.standard_normal((n, p0))
        z[:, -1] = 1.0  # collinear with the intercept once n > p0
        ds = TensorGlmDataset(rng.standard_normal(n), rng.standard_normal((n, 6, 6)), z)
        with pytest.raises(DomainError, match=message):
            fit(ds, "normal", FitConfig(rank=1, restarts=2, penalty=penalty))

    @pytest.mark.parametrize("penalty", [None, PenaltySpec("ridge", 0.1)],
                             ids=["unpenalized", "ridge"])
    def test_matrix_rank_above_the_smaller_side_rejected(self, penalty):
        ds = random_dataset(np.random.default_rng(62), 600, (4, 4))
        with pytest.raises(DomainError, match=r"rank 5 for a 4x4 matrix covariate: .*"
                           r"min\(p1, p2\) = 4, so only ranks up to 4"):
            fit(ds, "normal", FitConfig(rank=5, restarts=1, penalty=penalty))

    def test_image_row_zero_in_every_sample_names_the_block(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((100, 6, 6))
        x[:, 0, :] = 0.0
        ds = TensorGlmDataset(rng.standard_normal(100), x)
        with pytest.raises(FitConvergenceError, match="design matrix in block 1 "
                           "has 6 columns but numerical rank 5"):
            fit(ds, "normal", FitConfig(rank=1, restarts=2))

    def test_tiny_scale_matches_unstructured_glm_projection(self):
        # At dims (2,2), R=1, both the tensor fit and "OLS on vec(X) then
        # best rank-1 projection" estimate the same four coefficients.
        rng = np.random.default_rng(17)
        truth = CpTensor([np.array([1.0, 0.6]), np.array([0.8, -0.7])])
        ds = simulate_normal(rng, 20_000, truth)
        model = fit(ds, "normal", FitConfig(rank=1, restarts=2, seed=8))
        beta_hat, *_ = np.linalg.lstsq(ds.x_matrix(), ds.y, rcond=None)
        u, s, vt = np.linalg.svd(beta_hat.reshape((2, 2), order="F"))
        proj = s[0] * np.outer(u[:, 0], vt[0])
        np.testing.assert_allclose(
            cp_to_full(model.coeff).to_array(), proj, atol=0.05
        )


# ---------------------------------------------------------------------------
# Model size accounting and rank selection
# ---------------------------------------------------------------------------


class TestHeldStateCheck:
    """The suite's check of every block solve's held state (conftest.py)."""

    @pytest.mark.parametrize("perturbed,message", [
        ("loglik", "held log-likelihood"),
        ("eta", "linear-predictor routes disagree"),
    ])
    def test_held_state_off_by_1e_6_raises(self, held_state_check, perturbed,
                                           message):
        rng = np.random.default_rng(61)
        fam = get_family("normal")
        design, start = rng.standard_normal((50, 3)), rng.standard_normal(3)
        offset, y = rng.standard_normal(50), rng.standard_normal(50)
        eta = design @ start + offset
        held_state_check(design, y, fam, offset, start,
                         (eta, log_likelihood(fam, y, eta)))
        if perturbed == "eta":  # its log-likelihood held with it
            eta = eta * (1.0 + 1e-6)
        loglik = log_likelihood(fam, y, eta)
        if perturbed == "loglik":
            loglik *= 1.0 + 1e-6
        with pytest.raises(AssertionError, match=message):
            held_state_check(design, y, fam, offset, start, (eta, loglik))


class TestFitOutcomes:
    """Failures that the fit names instead of returning a model."""

    @staticmethod
    def separated(by_z):
        # y = 1{z > 0}, or y = 1{<B, x> > 0} for a rank-1 B: either the
        # covariate or the tensor separates the responses
        n = 60
        z = np.linspace(-1.0, 1.0, n)
        x = np.random.default_rng(0).standard_normal((n, 3, 3))
        if by_z:
            return TensorGlmDataset((z > 0).astype(float), x, z)
        return TensorGlmDataset((x[:, 0, 0] + x[:, 0, 1] > 0).astype(float), x)

    @pytest.mark.parametrize("by_z", [True, False], ids=["covariate", "tensor"])
    def test_separated_bernoulli_data_are_named(self, by_z):
        ds = self.separated(by_z)
        with pytest.raises(FitConvergenceError,
                           match="complete separation at rank 1.* a penalty bounds"):
            fit(ds, "bernoulli", FitConfig(rank=1, restarts=2))
        with pytest.raises(FitConvergenceError,
                           match="no rank produced a model: complete separation "
                                 "at rank 1"):
            select_rank(ds, "bernoulli", 2, FitConfig(restarts=2))

    def test_a_penalty_does_not_bound_covariate_separation(self):
        # the penalty bounds the tensor factors only, so gamma still runs
        # off to infinity on data that z separates
        with pytest.raises(FitConvergenceError,
                           match="complete separation at rank 1.* bounds only the "
                                 "tensor factors"):
            fit(self.separated(by_z=True), "bernoulli",
                FitConfig(rank=1, restarts=2, penalty=PenaltySpec("ridge", 1.0)))

    def test_a_penalty_fits_tensor_separated_data(self):
        model = fit(self.separated(by_z=False), "bernoulli",
                    FitConfig(rank=1, restarts=2, penalty=PenaltySpec("ridge", 1.0)))
        assert model.converged and model.loglik < -1.0

    def test_vector_covariate_fits_at_rank_one_only(self, monkeypatch):
        from tensorreg import model as model_module

        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 6))
        ds = TensorGlmDataset(x @ rng.standard_normal(6) + rng.standard_normal(200), x)
        assert ds.dims == (6,) and effective_parameters((6,), 2, 0) == 7
        model, table = select_rank(ds, "normal", 2, FitConfig(restarts=2))
        assert model.rank == 1 and table[0]["error"] is None
        assert model.bic == pytest.approx(-2.0 * model.loglik + np.log(200) * 7)
        assert "1-mode covariate" in table[1]["error"]

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(model_module, "irls_fit", no_solve)
        monkeypatch.setattr(model_module, "penalized_fit", no_solve)
        for penalty in (None, PenaltySpec("lasso", 1.0)):
            with pytest.raises(DomainError, match="rank 2 for a 1-mode covariate: "
                                                  "its coefficient is a vector"):
                fit(ds, "normal", FitConfig(rank=2, restarts=2, penalty=penalty))

    def test_failed_intercept_start_fails_every_start(self, monkeypatch):
        from tensorreg import model as model_module

        inner = model_module.irls_fit

        def failing(design, y, family, offset=None, **kwargs):
            if offset is None:  # the (alpha, gamma) start shared by every start
                raise GlmDivergenceError("the intercept fit diverged")
            return inner(design, y, family, offset=offset, **kwargs)

        monkeypatch.setattr(model_module, "irls_fit", failing)
        rng = np.random.default_rng(48)
        ds = simulate_normal(rng, 100, random_cp(rng, (4, 3), 1), gamma=[1.0])
        with pytest.raises(FitConvergenceError, match="all 3 restarts failed: "
                                                      "the intercept fit diverged") as err:
            fit(ds, "normal", FitConfig(rank=1, restarts=3))
        assert err.value.best_trace == []
        with pytest.raises(FitConvergenceError, match="no rank produced a model: all "
                                                      "1 restarts failed: the intercept"):
            select_rank(ds, "normal", 2, FitConfig(restarts=1))


class TestReturnedModel:
    """The returned model's dispersion and log-likelihood are taken at the
    linear predictor the fit holds, not at a fresh contraction."""

    @staticmethod
    def _dataset(family, seed, n=600, dims=(4, 3)):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n, dims, p0=1)
        truth = CpTensor([0.4 * rng.standard_normal((p, 2)) for p in dims])
        eta = 0.2 + ds.z[:, 0] * 0.5 + ds.x_matrix() @ cp_to_full(truth).data
        return with_response(ds, get_family(family).sample(eta, rng))

    @pytest.mark.parametrize("family", ["bernoulli", "poisson"])
    def test_loglik_is_the_last_trace_entry(self, family):
        ds = self._dataset(family, 70)
        model = fit(ds, family, FitConfig(rank=2, restarts=2, seed=3))
        assert model.loglik == model.trace[-1]

    def test_every_select_rank_model_has_its_last_trace_entry(self, monkeypatch):
        from tensorreg import model as model_module

        built, inner = [], model_module._best_model

        def keep(*args):
            built.append(inner(*args))
            return built[-1]

        monkeypatch.setattr(model_module, "_best_model", keep)
        ds = self._dataset("bernoulli", 71)
        _, table = select_rank(ds, "bernoulli", 3, FitConfig(restarts=2, seed=4))
        assert [m.rank for m in built] == [1, 2, 3]
        assert all(row["error"] is None for row in table)
        for m, row in zip(built, table):
            assert m.loglik == m.trace[-1] == row["loglik"]

    def test_fit_and_select_rank_make_no_contraction_of_their_own(
        self, monkeypatch
    ):
        from tensorreg import model as model_module

        def refuse(*args):
            raise AssertionError("the returned model was contracted anew")

        monkeypatch.setattr(model_module, "_linear_predictor", refuse)
        ds = self._dataset("poisson", 72, n=300)
        model = fit(ds, "normal", FitConfig(rank=2, restarts=2, seed=5))
        assert np.isfinite(model.phi) and np.isfinite(model.loglik)
        best, _ = select_rank(ds, "poisson", 2, FitConfig(restarts=2, seed=6))
        assert np.isfinite(best.loglik)


class TestConfigValidation:
    @pytest.mark.parametrize("name,value", [
        ("rank", 0), ("rank", 1.5), ("restarts", 0), ("restarts", 2.5),
        ("max_outer_iters", float("nan")), ("max_outer_iters", 10.0),
        ("seed", -1), ("seed", 0.5),
    ])
    def test_bad_value_names_the_field(self, name, value):
        with pytest.raises(DomainError, match=name):
            FitConfig(**{name: value})

    def test_zero_rho_penalty_is_held_as_none(self):
        cfg = FitConfig(penalty=PenaltySpec("lasso", 0.0))
        assert cfg.penalty is None
        assert replace(cfg, penalty=PenaltySpec("ridge", 0.0)).penalty is None
        assert replace(FitConfig(penalty=PenaltySpec("lasso", 1.0)),
                       penalty=PenaltySpec("lasso", 0.0)).penalty is None
        assert replace(cfg, penalty=PenaltySpec("lasso", 0.5)).penalty.rho == 0.5

    def test_numpy_integers_accepted(self):
        cfg = FitConfig(rank=np.int64(2), restarts=np.int32(1), seed=np.uint64(7))
        assert (cfg.rank, cfg.restarts, cfg.seed) == (2, 1, 7)

    @pytest.mark.parametrize("max_rank", [0, 1.5])
    def test_select_rank_max_rank_names_the_field(self, max_rank):
        ds = random_dataset(np.random.default_rng(47), 30, (3, 3))
        with pytest.raises(DomainError, match="max_rank"):
            select_rank(ds, "normal", max_rank, FitConfig(restarts=1))


class TestArgumentErrors:
    """Bad arguments of the dataset, the config and the model functions,
    each named."""

    @staticmethod
    def cp():
        return CpTensor([np.ones((2, 1)), np.ones((3, 1))])

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: TensorGlmDataset(np.zeros(0), np.zeros((0, 2, 2))),
                     "dataset needs at least one observation", id="no-observations"),
        pytest.param(lambda: TensorGlmDataset(np.zeros(3), np.zeros((4, 2, 2))),
                     "4 tensors for 3 responses", id="tensor-count"),
        pytest.param(lambda: TensorGlmDataset(np.zeros(3), np.zeros((3, 2, 2)),
                                              np.zeros((4, 1))),
                     "z has 4 rows for 3 responses", id="z-rows"),
        pytest.param(lambda: FitConfig(epsilon=0.0), "epsilon must be positive",
                     id="epsilon"),
        pytest.param(lambda: build_block_design(
                         TensorGlmDataset(np.zeros(3), np.zeros((3, 2, 3))),
                         TestArgumentErrors.cp(), 3),
                     "mode 3 out of range", id="block-mode"),
        pytest.param(lambda: effective_parameters((3, 4), 0, 0), "rank must be >= 1",
                     id="effective-rank"),
        pytest.param(lambda: eta_hessian(TestArgumentErrors.cp(),
                                         DenseTensor((3, 2), np.zeros(6))),
                     r"dims \(2, 3\) vs \(3, 2\)", id="hessian-dims"),
        pytest.param(lambda: k_rank(np.zeros((3, 0))),
                     "k-rank needs at least one column", id="k-rank-empty"),
    ])
    def test_is_named(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_document_dims_must_match_its_factors(self):
        doc = model_to_document(TensorGlmModel(
            alpha=0.0, gamma=np.zeros(0), coeff=self.cp(), family=get_family("normal"),
            phi=1.0, loglik=-1.0, bic=2.0, trace=[-1.0], converged=True,
            restarts_used=1, n=10, p0=0,
        ))
        model_from_document(doc)
        for key, value in (("dims", [3, 2]), ("rank", 2)):
            with pytest.raises(DomainError, match="document dims/rank do not match"):
                model_from_document(dict(doc, **{key: value}))


class TestParameterCounts:
    def test_spec_values(self):
        assert effective_parameters((64, 64), 3, 0) == 376
        assert effective_parameters((256, 256, 198), 1, 0) == 709
        assert effective_parameters((2, 2), 1, 0) == 4

    def test_matrix_rank_above_the_smaller_side_raises(self):
        assert effective_parameters((4, 6), 4, 0) == 1 + 4 * 10 - 16
        with pytest.raises(DomainError, match=r"min\(p1, p2\) = 4"):
            effective_parameters((4, 6), 5, 0)

    def test_raw_count(self):
        assert raw_parameter_count((64, 64), 3, 5) == 5 + 1 + 3 * 128


class TestBicAndSelection:
    def test_equal_loglik_prefers_lower_rank(self):
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, 50, (3, 3))
        m1 = make_model(random_cp(rng, (3, 3), 1), n=50)
        m2 = make_model(random_cp(rng, (3, 3), 2), n=50)
        # force identical predictions: zero out both coefficient sets
        z1 = CpTensor([np.zeros((3, 1)), np.zeros((3, 1))])
        z2 = CpTensor([np.zeros((3, 2)), np.zeros((3, 2))])
        m1 = make_model(z1, n=50)
        m2 = make_model(z2, n=50)
        assert bic(m1, ds) < bic(m2, ds)

    def test_select_rank_with_no_feasible_rank_raises(self):
        rng = np.random.default_rng(46)
        ds = random_dataset(rng, 5, (4, 4))
        with pytest.raises(FitConvergenceError, match="no rank produced a model: "
                           "n=5 too small for an unpenalized rank-1 fit"):
            select_rank(ds, "normal", 2, FitConfig(restarts=1))

    def test_rank_with_more_effective_parameters_than_observations_fails(self):
        # rank 3 passes every block check (n > 51) but has p_e = 90 > n = 80
        ds = random_dataset(np.random.default_rng(51), 80, (16, 16), p0=2)
        model, table = select_rank(ds, "normal", 3, FitConfig(restarts=2, seed=1))
        assert [row["error"] is None for row in table] == [True, True, False]
        assert "90 effective parameters" in table[2]["error"]
        assert model.rank <= 2

    def test_ridge_selection_tabulates_matrix_ranks_above_the_smaller_side(self):
        rng = np.random.default_rng(63)
        ds = simulate_normal(rng, 600, random_cp(rng, (4, 4), 1))
        cfg = FitConfig(restarts=1, seed=2, penalty=PenaltySpec("ridge", 0.1))
        model, table = select_rank(ds, "normal", 9, cfg)
        assert model.rank <= 4
        assert [row["rank"] for row in table] == list(range(1, 10))
        assert all(row["error"] is None for row in table[:4])
        for row in table[4:]:
            assert row["bic"] is None
            assert f"rank {row['rank']} for a 4x4 matrix covariate" in row["error"]
            assert "only ranks up to 4 can be fitted" in row["error"]

    def test_collinear_covariates_rejected_before_any_rank(self):
        rng = np.random.default_rng(52)
        z = np.column_stack([rng.standard_normal(200), np.ones(200)])
        ds = TensorGlmDataset(rng.standard_normal(200),
                              rng.standard_normal((200, 6, 6)), z)
        with pytest.raises(DomainError, match=r"\[1, z\] has rank 2 of 3"):
            select_rank(ds, "normal", 2, FitConfig(restarts=2))

    def test_select_rank_pure_noise_prefers_rank1(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, 400, (4, 4))
        model, table = select_rank(ds, "normal", 3, FitConfig(restarts=2, seed=9))
        assert model.rank == 1
        assert [row["rank"] for row in table] == [1, 2, 3]
        assert all(row["error"] is None for row in table)
        assert np.linalg.norm(cp_to_full(model.coeff).data) < 0.5

    def test_select_rank_finds_rank2_signal(self):
        rng = np.random.default_rng(20)
        b1 = np.array([[1.0, 1.0], [2.0, -1.0], [0.5, 0.0], [1.0, 2.0]])
        b2 = np.array([[1.0, 2.0], [-1.0, 1.0], [2.0, 0.5], [0.0, 1.0]])
        ds = simulate_normal(rng, 1500, CpTensor([b1, b2]))
        model, table = select_rank(ds, "normal", 3, FitConfig(restarts=3, seed=10))
        assert model.rank == 2


# ---------------------------------------------------------------------------
# Derivatives of eta
# ---------------------------------------------------------------------------


def fd_gradient(f, x0, h=1e-6):
    g = np.zeros_like(x0)
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = h
        g[j] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    return g


def fd_hessian(f, x0, h=1e-4):
    n = x0.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            v = (
                f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
            ) / (4 * h * h)
            H[i, j] = H[j, i] = v
    return H


def eta_of_flat(coeff, x, theta):
    """eta as a function of all CP entries flattened in gradient layout."""
    dims, R = coeff.dims, coeff.rank
    factors = []
    pos = 0
    for p in dims:
        block = theta[pos : pos + p * R].reshape((p, R), order="F")
        factors.append(block)
        pos += p * R
    return inner(cp_to_full(CpTensor(factors)), x)


def flat_of_factors(coeff):
    return np.concatenate([f.ravel(order="F") for f in coeff.factors])


class TestEtaDerivatives:
    def test_gradient_rank1_2d_blocks(self):
        rng = np.random.default_rng(21)
        c = random_cp(rng, (3, 4), 1)
        x = DenseTensor.from_array(rng.standard_normal((3, 4)))
        g = eta_gradient(c, x)
        X = x.to_array()
        np.testing.assert_allclose(g[:3], X @ c.factors[1][:, 0], rtol=1e-12)
        np.testing.assert_allclose(g[3:], X.T @ c.factors[0][:, 0], rtol=1e-12)

    def test_gradient_zero_x(self):
        rng = np.random.default_rng(22)
        c = random_cp(rng, (3, 2), 2)
        x = DenseTensor((3, 2), np.zeros(6))
        assert not eta_gradient(c, x).any()

    @pytest.mark.parametrize("dims,rank", [((3, 4), 2), ((3, 4, 2), 2), ((2, 2, 3), 3)])
    def test_gradient_matches_finite_differences(self, dims, rank):
        rng = np.random.default_rng(23)
        c = random_cp(rng, dims, rank)
        x = DenseTensor.from_array(rng.standard_normal(dims))
        got = eta_gradient(c, x)
        want = fd_gradient(lambda th: eta_of_flat(c, x, th), flat_of_factors(c))
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("dims,rank", [((3, 4), 1), ((3, 4, 2), 2), ((2, 3, 2), 3)])
    def test_hessian_matches_finite_differences(self, dims, rank):
        rng = np.random.default_rng(24)
        c = random_cp(rng, dims, rank)
        x = DenseTensor.from_array(rng.standard_normal(dims))
        got = eta_hessian(c, x)
        want = fd_hessian(lambda th: eta_of_flat(c, x, th), flat_of_factors(c))
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-5 * scale

    def test_hessian_structure(self):
        rng = np.random.default_rng(25)
        dims, rank = (3, 2, 2), 2
        c = random_cp(rng, dims, rank)
        x = DenseTensor.from_array(rng.standard_normal(dims))
        H = eta_hessian(c, x)
        sizes = [p * rank for p in dims]
        offs = np.concatenate([[0], np.cumsum(sizes)])
        # zero diagonal blocks
        for k in range(3):
            blk = H[offs[k] : offs[k + 1], offs[k] : offs[k + 1]]
            assert not blk.any()
        # cross-rank entries are exactly zero
        for d in range(3):
            for d2 in range(3):
                if d == d2:
                    continue
                for r in range(rank):
                    for r2 in range(rank):
                        if r == r2:
                            continue
                        blk = H[
                            offs[d] + r * dims[d] : offs[d] + (r + 1) * dims[d],
                            offs[d2] + r2 * dims[d2] : offs[d2] + (r2 + 1) * dims[d2],
                        ]
                        assert not blk.any()

    def test_hessian_zero_for_vector_covariate(self):
        rng = np.random.default_rng(26)
        c = CpTensor([rng.standard_normal((5, 2))])
        x = DenseTensor.from_array(rng.standard_normal(5))
        assert not eta_hessian(c, x).any()


# ---------------------------------------------------------------------------
# Score, information, log-density Hessian
# ---------------------------------------------------------------------------


class TestInference:
    def _normalized_model(self, rng, dims, rank, family="normal", gamma=(), n=200):
        coeff = normalize_identifiability(random_cp(rng, dims, rank))
        return make_model(coeff, family=family, gamma=gamma, n=n)

    @pytest.mark.parametrize("model_dims,model_p0,data_dims,data_p0", [
        ((3, 4), 0, (3, 4), 2),
        ((3, 4), 2, (3, 4), 0),
        ((3, 4), 1, (4, 3), 1),
        ((3, 3, 2), 0, (3, 3), 0),
    ])
    def test_model_and_dataset_mismatch_fails_early(
        self, model_dims, model_p0, data_dims, data_p0
    ):
        rng = np.random.default_rng(48)
        model = self._normalized_model(rng, model_dims, 1, gamma=np.ones(model_p0))
        ds = random_dataset(rng, 20, data_dims, p0=data_p0)
        want = (f"dims {model_dims} and p0={model_p0}, the dataset dims "
                f"{data_dims} and p0={data_p0}")
        for call in (model.linear_predictor, lambda ds: bic(model, ds),
                     lambda ds: score_and_information(model, ds),
                     lambda ds: log_density_hessian(model, ds)):
            with pytest.raises(DomainError) as err:
                call(ds)
            assert want in str(err.value)

    def test_score_near_zero_at_mle(self):
        rng = np.random.default_rng(27)
        truth = CpTensor([np.array([1.0, -0.5, 2.0]), np.array([1.5, 0.7, -1.0, 0.2])])
        ds = simulate_normal(rng, 800, truth, gamma=[0.5])
        model = fit(
            ds, "normal", FitConfig(rank=1, restarts=2, seed=11, epsilon=1e-12,
                                    max_outer_iters=3000)
        )
        rep = score_and_information(model, ds)
        assert np.abs(rep.score).max() < 1e-4 * max(1.0, np.abs(ds.y).max())

    # Note: for matrix covariates (D=2) with R >= 2, fixing first rows
    # removes only R of the R^2 rotation degrees of freedom, so the
    # information over that chart is structurally singular; inference
    # tests therefore use D=3 or R=1.
    @pytest.mark.parametrize("family", ["normal", "bernoulli", "poisson"])
    @pytest.mark.parametrize("dims,rank", [((3, 3, 2), 2), ((3, 4), 1)])
    def test_score_matches_finite_differences(self, family, dims, rank):
        rng = np.random.default_rng(28)
        model = make_model(
            normalized_point(rng, dims, rank),
            family=family,
            gamma=(0.3, -0.2),
            n=60,
        )
        ds = random_dataset(rng, 60, dims, p0=2)
        fam = get_family(family)
        eta = model.linear_predictor(ds)
        ds = with_response(ds, fam.sample(0.3 * eta, rng))
        rep = score_and_information(model, ds)
        theta0 = pack_free_vector(model)
        want = fd_gradient(lambda th: loglik_at_free_vector(model, ds, th), theta0)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(rep.score - want).max() <= 1e-5 * scale

    @pytest.mark.parametrize("family", ["normal", "bernoulli", "poisson"])
    def test_log_density_hessian_matches_finite_differences(self, family):
        rng = np.random.default_rng(29)
        model = make_model(
            normalized_point(rng, (3, 2, 2), 2), family=family, gamma=(0.2,), n=50
        )
        ds = random_dataset(rng, 50, (3, 2, 2), p0=1)
        fam = get_family(family)
        ds = with_response(ds, fam.sample(0.3 * model.linear_predictor(ds), rng))
        H = log_density_hessian(model, ds)
        theta0 = pack_free_vector(model)
        want = fd_hessian(lambda th: loglik_at_free_vector(model, ds, th), theta0)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(H - want).max() <= 1e-4 * scale

    def test_neg_hessian_equals_information_at_zero_residuals(self):
        rng = np.random.default_rng(30)
        model = self._normalized_model(rng, (3, 3), 1, gamma=(0.4, 1.0), n=40)
        ds = random_dataset(rng, 40, (3, 3), p0=2)
        ds = with_response(ds, model.linear_predictor(ds))
        rep = score_and_information(model, ds)
        H = log_density_hessian(model, ds)
        scale = np.abs(rep.information).max()
        assert np.abs(-H - rep.information).max() <= 1e-6 * scale

    def test_information_symmetric_psd(self):
        rng = np.random.default_rng(31)
        model = self._normalized_model(rng, (3, 2), 1, n=30)
        ds = random_dataset(rng, 30, (3, 2))
        rep = score_and_information(model, ds)
        info = rep.information
        assert np.abs(info - info.T).max() <= 1e-8 * max(1.0, np.abs(info).max())
        assert np.linalg.eigvalsh(info).min() >= -1e-8

    def test_nonfinite_factors_raise_inference_error(self):
        rng = np.random.default_rng(32)
        factors = [f.copy() for f in normalized_point(rng, (3, 4), 1).factors]
        factors[1][2, 0] = np.nan
        model = make_model(CpTensor(factors), n=30)
        ds = random_dataset(rng, 30, (3, 4))
        with pytest.raises(InferenceError, match="nonfinite"):
            score_and_information(model, ds)

    def test_condition_number_is_that_of_the_information(self):
        rng = np.random.default_rng(33)
        model = make_model(normalized_point(rng, (3, 3, 2), 2), gamma=(0.3,), n=80)
        ds = random_dataset(rng, 80, (3, 3, 2), p0=1)
        rep = score_and_information(model, ds)
        assert rep.condition_number == pytest.approx(
            np.linalg.cond(rep.information), rel=1e-12
        )

    def test_structurally_singular_information_names_its_condition_number(self):
        # D=2, R=2: the first-row chart fixes R of the R^2 rotation degrees
        # of freedom (see the note above test_score_matches_finite_differences)
        rng = np.random.default_rng(34)
        model = make_model(normalized_point(rng, (3, 4), 2), n=80)
        ds = random_dataset(rng, 80, (3, 4))
        with pytest.raises(InferenceError, match="singular .*condition number"):
            score_and_information(model, ds)

    def test_free_parameter_layout(self):
        index_map, keep = free_parameter_index((3, 4), 2)
        assert len(index_map) == (3 - 1) * 2 + 4 * 2
        assert (1, 1, 1) not in index_map and (1, 1, 2) not in index_map
        assert (2, 1, 1) in index_map  # last mode keeps its first row
        assert keep.sum() == len(index_map)

    @pytest.mark.parametrize("func", [score_and_information, log_density_hessian])
    def test_peak_memory_below_three_gradient_matrices(self, func):
        import tracemalloc

        rng = np.random.default_rng(33)
        dims, rank, p0, n = (3, 32, 24), 2, 2, 400
        model = make_model(
            normalized_point(rng, dims, rank), gamma=(0.3, -0.2), n=n
        )
        ds = random_dataset(rng, n, dims, p0=p0)
        ds = with_response(ds, model.linear_predictor(ds) + rng.standard_normal(n))
        # G: one row per sample, one column per free parameter
        nfree = len(free_parameter_index(dims, rank)[0])
        g_bytes = n * (nfree + 1 + p0) * 8
        tracemalloc.start()
        try:
            func(model, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * g_bytes, peak / g_bytes


# ---------------------------------------------------------------------------
# k-rank / uniqueness
# ---------------------------------------------------------------------------


def k_rank_oracle(m):
    cols = m.shape[1]
    best = 0
    for k in range(1, cols + 1):
        ok = all(
            np.linalg.matrix_rank(m[:, s]) == k
            for s in itertools.combinations(range(cols), k)
        )
        if ok:
            best = k
        else:
            break
    return best


class TestKRank:
    def test_identity(self):
        assert k_rank(np.eye(3)) == 3

    def test_zero_column(self):
        assert k_rank(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0

    def test_dependent_triple(self):
        assert k_rank(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])) == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_subset_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(1, 6))
        m = rng.standard_normal((rows, cols))
        if seed % 3 == 0 and cols >= 2:
            m[:, -1] = m[:, 0]  # plant a duplicated column
        if seed % 4 == 0:
            m[:, 0] = 0.0
        assert k_rank(m) == k_rank_oracle(m)

    def test_size_guard(self):
        with pytest.raises(KRankSizeError):
            k_rank(np.ones((2, 13)))


class TestCheckUniqueness:
    def test_rank1_d3_generic(self):
        rng = np.random.default_rng(32)
        rep = check_uniqueness(random_cp(rng, (3, 3, 3), 1))
        assert rep.k_ranks == [1, 1, 1]
        assert rep.threshold == 4
        assert not rep.sufficient  # 3 < 2R + D - 1 = 4: test is conservative
        assert rep.necessary

    def test_duplicated_columns_fail_necessity(self):
        rng = np.random.default_rng(33)
        col = rng.standard_normal(4)
        f = np.column_stack([col, col])
        rep = check_uniqueness(CpTensor([f, f.copy(), f.copy()]))
        assert not rep.necessary

    def test_d2_note_emitted(self):
        rng = np.random.default_rng(34)
        rep = check_uniqueness(random_cp(rng, (3, 3), 2))
        assert any("D=2" in note for note in rep.notes)

    def test_generic_rank2_d3_sufficient(self):
        rng = np.random.default_rng(35)
        rep = check_uniqueness(random_cp(rng, (4, 4, 4), 2))
        # generic k-ranks are 2 each: 6 >= 2R + D - 1 = 6
        assert rep.sufficient


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestModelDocument:
    def test_round_trip_preserves_predictions_bitwise(self):
        rng = np.random.default_rng(36)
        truth = random_cp(rng, (4, 3), 2)
        ds = simulate_normal(rng, 200, truth, gamma=[1.0, 2.0])
        model = fit(ds, "normal", FitConfig(rank=2, restarts=2, seed=12))
        doc = json.loads(json.dumps(model_to_document(model)))
        back = model_from_document(doc)
        np.testing.assert_array_equal(
            back.linear_predictor(ds), model.linear_predictor(ds)
        )
        assert back.bic == model.bic
        assert back.phi == model.phi
        assert back.penalty is None

    def test_bad_documents_rejected(self):
        with pytest.raises(DomainError):
            model_from_document({"format": "other"})
        doc = {
            "format": "tensorreg-model",
            "version": 99,
        }
        with pytest.raises(DomainError):
            model_from_document(doc)
        # a missing field, a non-numeric or nonfinite entry, a non-integer
        # count, a non-boolean converged flag, phi <= 0, n < 1,
        # restarts_used < 1, or a gamma of the wrong length raises
        # DomainError naming the field
        rng = np.random.default_rng(34)
        good = dict(model_to_document(
            make_model(random_cp(rng, (3, 4), 1), gamma=(0.5, -1.0), n=20)
        ), loglik=-31.5, bic=75.0)
        inf = float("inf")
        bad_factors = [[[1.0], [0.5], [inf]], good["factors"][1]]
        bad_values = [
            ("alpha", None), ("alpha", "high"), ("phi", [1.0]), ("n", "many"),
            ("trace", [0.0, "x"]), ("factors", [[[1.0, 2.0], [3.0]], [1.0]]),
            ("family", 5), ("gamma", ["a"]), ("gamma", [1.0, 2.0, 3.0]),
            ("gamma", [1.0]), ("p0", 3),
            ("alpha", inf), ("gamma", [0.5, np.nan]), ("factors", bad_factors),
            ("phi", np.nan), ("phi", 0.0), ("phi", -1.0), ("loglik", -inf),
            ("bic", np.nan), ("n", 0),
            ("n", 2.5), ("n", True), ("p0", 2.0), ("rank", 1.0),
            ("restarts_used", 2.7), ("restarts_used", -3), ("restarts_used", 0),
            ("converged", "false"), ("converged", 1), ("trace", [np.nan]),
            ("trace", [0.0, -inf]),
        ]
        for key, value in bad_values:
            doc = dict(good, **{key: value})
            with pytest.raises(DomainError, match=repr(key)):
                model_from_document(doc)
            del doc[key]
            with pytest.raises(DomainError, match=f"no {key!r} field"):
                model_from_document(doc)


class TestPenalizedBlockUpdate:
    def test_rho_zero_matches_unpenalized_update(self):
        # a zero penalty is no penalty: FitConfig holds it as None, so
        # every block goes to irls_fit, as in the unpenalized fit
        from tensorreg.penalties import PenaltySpec

        rng = np.random.default_rng(40)
        ds = random_dataset(rng, 300, (4, 3), p0=1)
        eta = 0.5 * ds.x_matrix() @ cp_to_full(random_cp(rng, (4, 3), 1)).data
        ds = with_response(ds, get_family("bernoulli").sample(eta, rng))
        cfg = FitConfig(rank=2, restarts=2, seed=3)
        plain = fit(ds, "bernoulli", cfg)
        zero = fit(ds, "bernoulli", replace(cfg, penalty=PenaltySpec("lasso", 0.0)))
        for a, b in zip(plain.coeff.factors, zero.coeff.factors):
            np.testing.assert_array_equal(a, b)
        assert (plain.alpha, plain.trace) == (zero.alpha, zero.trace)
        np.testing.assert_array_equal(plain.gamma, zero.gamma)

    def test_huge_rho_returns_zero_factor(self):
        from tensorreg.glm import penalized_fit
        from tensorreg.penalties import PenaltySpec

        rng = np.random.default_rng(41)
        truth = random_cp(rng, (4, 3), 1)
        ds = simulate_normal(rng, 200, truth)
        coeff = random_cp(rng, (4, 3), 1)
        updated = penalized_fit(
            build_block_design(ds, coeff, 2), ds.y, "normal",
            offset=np.zeros(ds.n), penalty=PenaltySpec("lasso", 1e9),
            start=coeff.factors[1].ravel(order="F"),
        ).coefficients.reshape((3, 1), order="F")
        assert updated.shape == (3, 1)
        assert not updated.any()


class TestLockstep:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ranks=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        restarts=st.integers(1, 2),
        family=st.sampled_from(["normal", "bernoulli"]),
        dims=st.sampled_from([(4, 3), (3, 3, 2)]),
    )
    def test_each_start_agrees_with_its_single_start_fit(
        self, seed, ranks, restarts, family, dims
    ):
        from tensorreg.model import _fit_lockstep, _starts

        rng = np.random.default_rng(seed)
        fam = get_family(family)
        x = rng.standard_normal((300,) + dims)
        z = rng.standard_normal((300, 1))
        truth = cp_to_full(random_cp(rng, dims, 1)).to_array()
        eta = 0.3 * np.tensordot(x, truth, axes=len(dims)) + 0.5 * z[:, 0]
        ds = TensorGlmDataset(fam.sample(eta, rng), x, z)
        configs = [
            FitConfig(rank=r, restarts=restarts, seed=seed + k, max_outer_iters=30)
            for k, r in enumerate(ranks)
        ]

        def starts():
            return [s for cfg in configs for s in _starts(cfg)]

        together = _fit_lockstep(ds, fam, starts())
        for k, run in enumerate(together):
            (alone,) = _fit_lockstep(ds, fam, [starts()[k]])
            assert type(run.error) is type(alone.error)
            np.testing.assert_allclose(run.trace, alone.trace, rtol=1e-10)
            if run.error is None:
                want = cp_to_full(CpTensor(alone.factors)).data
                np.testing.assert_allclose(
                    cp_to_full(CpTensor(run.factors)).data, want, rtol=0.0,
                    atol=1e-10 * (1.0 + np.abs(want).max()),
                )


class TestWorkerParallelism:
    def test_thread_cap_env_var_preserves_results(self, monkeypatch):
        from tensorreg.model import max_workers
        from tensorreg.shapes import ShapeSpec, run_consistency_study

        kwargs = dict(
            n_grid=[140],
            replicates=3,
            family="normal",
            config=FitConfig(rank=1, restarts=2, seed=21),
            gamma=np.ones(2),
        )
        monkeypatch.delenv("TENSORREG_THREADS", raising=False)
        assert max_workers() == 1
        seq = run_consistency_study(ShapeSpec("square", 16), **kwargs)
        monkeypatch.setenv("TENSORREG_THREADS", "3")
        assert max_workers() == 3
        par = run_consistency_study(ShapeSpec("square", 16), **kwargs)
        assert seq.rows == par.rows
        monkeypatch.setenv("TENSORREG_THREADS", "two")
        with pytest.warns(RuntimeWarning, match="'two'"):
            assert max_workers() == 1

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_thread_cap_below_one_warns(self, monkeypatch, value):
        from tensorreg.model import max_workers

        monkeypatch.setenv("TENSORREG_THREADS", value)
        with pytest.warns(RuntimeWarning, match=f"'{value}' is not a positive"):
            assert max_workers() == 1

    @pytest.mark.parametrize("work,on_workers", [(2**22 - 1, False), (2**22, True)])
    def test_tasks_spread_from_2_22_multiply_adds(self, work, on_workers):
        import threading

        from tensorreg.model import _worker_pool

        def name():
            return threading.current_thread().name

        with _worker_pool(2) as run:
            names = run([name, name], work)
        assert [n.startswith("tensorreg-worker") for n in names] == [on_workers] * 2

    @pytest.mark.parametrize("n,parts", [(7, 2), (7, 3), (2, 3)])
    def test_a_design_range_counts_its_share_of_the_work(self, n, parts):
        # n * prod(dims) * R // 2 >= 2**22 exactly when n * prod(dims) * R
        # >= 2**23, so at 2 workers a design spreads from 2**23 in total
        ds = random_dataset(np.random.default_rng(64), n, (3, 4))
        coeff = random_cp(np.random.default_rng(65), (3, 4), 2)
        seen = []

        def recording(tasks, work):
            seen.append((len(tasks), work))
            return [t() for t in tasks]

        build_block_design(ds, coeff, 1, run=recording, parts=parts)
        ranges = min(n, parts)
        assert seen == [(ranges, n * 12 * 2 // ranges)]

    def test_nested_pools_stay_within_thread_cap(self, monkeypatch):
        import threading

        from tensorreg import model as model_module

        # the per-start block solves of the lockstep fit call irls_fit
        inner = model_module.irls_fit
        peak = [0]
        threads = set()

        def counting_block_solve(*args, **kwargs):
            peak[0] = max(peak[0], threading.active_count())
            threads.add(threading.current_thread().name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(model_module, "irls_fit", counting_block_solve)
        monkeypatch.setenv("TENSORREG_THREADS", "2")
        rng = np.random.default_rng(42)
        # mode-1 blocks of rank 3 are large enough to go to the workers
        ds = simulate_normal(rng, 400, random_cp(rng, (50, 4), 1))
        before = threading.active_count()
        select_rank(ds, "normal", 3, FitConfig(restarts=2, seed=5))
        # the calling thread plus at most TENSORREG_THREADS workers
        assert peak[0] <= before + 2
        assert any(name.startswith("tensorreg-worker") for name in threads)

    def test_fit_and_select_rank_are_bit_identical_across_thread_counts(
        self, monkeypatch
    ):
        import threading

        from tensorreg import model as model_module

        inner = model_module.irls_fit
        inner_design = model_module.build_block_design
        names, design_names = set(), set()

        def recording_block_solve(*args, **kwargs):
            names.add(threading.current_thread().name)
            return inner(*args, **kwargs)

        def recording_design(*args, run, **kwargs):
            def record(task):
                def call():
                    design_names.add(threading.current_thread().name)
                    return task()

                return call

            return inner_design(
                *args, run=lambda tasks, work: run([record(t) for t in tasks], work),
                **kwargs
            )

        monkeypatch.setattr(model_module, "irls_fit", recording_block_solve)
        monkeypatch.setattr(model_module, "build_block_design", recording_design)
        # mode-1 blocks large enough to go to the workers, and a stacked
        # contraction of 5 starts over the design gate, n * 1536 * 10 >= 2**23
        rng = np.random.default_rng(44)
        normal = simulate_normal(rng, 600, random_cp(rng, (64, 24), 2), gamma=[1.0])
        x = rng.standard_normal((600, 40, 4, 3))
        fam = get_family("bernoulli")
        eta = np.tensordot(x, cp_to_full(random_cp(rng, (40, 4, 3), 1)).to_array(), 3)
        binary = TensorGlmDataset(fam.sample(0.2 * eta, rng), x)
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("TENSORREG_THREADS", threads)
            names.clear()
            design_names.clear()
            model = fit(normal, "normal", FitConfig(rank=2, restarts=5, seed=3))
            best, table = select_rank(
                binary, fam, 3, FitConfig(restarts=2, seed=4, max_outer_iters=40)
            )
            runs[threads] = (model, best, table)
            for seen in (names, design_names):
                on_workers = any(name.startswith("tensorreg-worker") for name in seen)
                assert on_workers == (threads == "2")
        for a, b in zip(runs["1"][:2], runs["2"][:2]):
            for fa, fb in zip(a.coeff.factors, b.coeff.factors):
                np.testing.assert_array_equal(fa, fb)
            assert a.trace == b.trace
            assert a.bic == b.bic
        assert runs["1"][2] == runs["2"][2]
