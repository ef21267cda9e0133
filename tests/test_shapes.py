"""Shape masks, ball signals, simulation determinism, and the study harness."""

import numpy as np
import pytest

import tensorreg.shapes as shapes
from tensorreg.errors import DomainError
from tensorreg.glm import get_family
from tensorreg.model import FitConfig
from tensorreg.shapes import (
    SHAPE_NAMES,
    STUDY_COLUMNS,
    ShapeSpec,
    SimSpec,
    generate_ball_signal,
    generate_shape,
    rmse,
    run_consistency_study,
    simulate,
)
from tensorreg.tensor_core import DenseTensor, cp_to_full, stack_vec


class TestShapes:
    @pytest.mark.parametrize("name", SHAPE_NAMES)
    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_masks_binary_nonempty_deterministic(self, name, size):
        spec = ShapeSpec(name, size)
        a = generate_shape(spec).to_array()
        b = generate_shape(spec).to_array()
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert a.any()

    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_low_rank_shapes(self, size):
        ranks = {
            name: np.linalg.matrix_rank(
                generate_shape(ShapeSpec(name, size)).to_array(), tol=1e-8
            )
            for name in ("square", "t_shape", "cross")
        }
        assert ranks["square"] == 1
        assert ranks["t_shape"] == 2
        assert ranks["cross"] == 2

    def test_high_rank_shapes_at_default_size(self):
        for name in ("disk", "triangle", "butterfly"):
            mask = generate_shape(ShapeSpec(name, 64)).to_array()
            assert np.linalg.matrix_rank(mask, tol=1e-8) > 3

    def test_validation(self):
        with pytest.raises(DomainError):
            ShapeSpec("hexagon", 64)
        with pytest.raises(DomainError):
            ShapeSpec("square", 8)


class TestBallSignal:
    def test_single_ball_window(self):
        c = generate_ball_signal((256, 256, 198), centers=[90])
        assert c.rank == 1
        for f in c.factors:
            col = f[:, 0]
            window = col[90:105]
            np.testing.assert_allclose(
                window, np.sin(np.arange(15) * np.pi / 14), rtol=1e-12
            )
            assert col[:90].sum() == 0.0 and col[105:].sum() == 0.0
        # endpoints exactly zero, peak in the middle
        assert c.factors[0][90, 0] == 0.0
        assert c.factors[0][104, 0] == pytest.approx(0.0, abs=1e-15)
        assert np.argmax(c.factors[0][:, 0]) == 97

    def test_two_ball_disjoint_windows(self):
        c = generate_ball_signal((256, 256, 198), centers=[90, 140])
        assert c.rank == 2
        for f in c.factors:
            assert not (np.abs(f[:, 0]) * np.abs(f[:, 1])).any()

    def test_per_mode_offsets_and_overflow(self):
        c = generate_ball_signal((40, 30), centers=[(10, 5)])
        assert c.factors[0][10:25, 0].any()
        assert c.factors[1][5:20, 0].any()
        with pytest.raises(DomainError):
            generate_ball_signal((20, 20), centers=[10])  # 10 + 15 > 20


class TestBallSignalErrors:
    @pytest.mark.parametrize("centers, message", [
        ([], "need at least one ball"),
        ([(0, 0)], "ball 1 gives 2 offsets for 3 modes"),
    ], ids=["no-balls", "offsets"])
    def test_is_named(self, centers, message):
        with pytest.raises(DomainError, match=message):
            generate_ball_signal((16, 16, 16), centers)


class TestSimulate:
    def test_fixed_seed_reproducible_bytes(self):
        spec = SimSpec(
            signal=generate_shape(ShapeSpec("square", 16)),
            gamma=np.ones(3),
            family="normal",
            n=50,
            seed=123,
        )
        a, b = simulate(spec), simulate(spec)
        assert a.y.tobytes() == b.y.tobytes()
        assert a.z.tobytes() == b.z.tobytes()
        assert a.x_matrix().tobytes() == b.x_matrix().tobytes()

    def test_pure_noise_mean(self):
        zero = generate_shape(ShapeSpec("square", 16))
        zero = type(zero)(zero.dims, np.zeros(zero.size))
        spec = SimSpec(signal=zero, gamma=np.zeros(2), family="normal", n=4000, seed=7)
        ds = simulate(spec)
        assert abs(ds.y.mean()) < 4 / np.sqrt(4000)

    def test_normal_unit_noise_variance(self):
        signal = generate_shape(ShapeSpec("square", 16))
        spec = SimSpec(signal=signal, gamma=np.ones(5), family="normal", n=5000, seed=9)
        ds = simulate(spec)
        eta = ds.z @ spec.gamma + ds.x_matrix() @ signal.data
        resid_var = np.var(ds.y - eta)
        assert abs(resid_var - 1.0) < 0.1

    def test_family_link_scales(self):
        signal = generate_shape(ShapeSpec("square", 16))
        for family, scale in (("bernoulli", 0.1), ("poisson", 0.01)):
            ds = simulate(SimSpec(signal=signal, gamma=np.ones(2), family=family,
                                  n=10, seed=1))
            # the same draw by hand, the response at scale * eta
            rng = np.random.default_rng(1)
            z = rng.standard_normal((10, 2))
            x = rng.standard_normal((10, 16, 16))
            eta = x.reshape(10, -1) @ signal.to_array().ravel() + z @ np.ones(2)
            np.testing.assert_array_equal(ds.y, get_family(family).sample(scale * eta, rng))
            if family == "bernoulli":
                assert set(np.unique(ds.y)) <= {0.0, 1.0}
            else:
                assert np.all(ds.y >= 0) and np.allclose(ds.y, np.round(ds.y))

    @pytest.mark.parametrize("family,dims,n,p0", [
        ("normal", (8, 8), 129, 3),  # chunks of 64 and 65 samples
        ("bernoulli", (4, 4, 4), 140, 0),  # chunks of 64, 64 and 12
    ])
    @pytest.mark.parametrize("chunk_entries", [1, shapes._SIMULATE_CHUNK_ENTRIES],
                             ids=["chunked", "default"])
    def test_chunked_draw_equals_one_draw(self, monkeypatch, family, dims, n, p0,
                                          chunk_entries):
        # n * prod(dims) stays below OpenBLAS's threading threshold, so the
        # one product over all samples runs on one BLAS thread
        monkeypatch.setattr(shapes, "_SIMULATE_CHUNK_ENTRIES", chunk_entries)
        signal = DenseTensor.from_array(np.random.default_rng(5).standard_normal(dims))
        gamma = np.linspace(-1.0, 1.0, p0)
        ds = simulate(SimSpec(signal=signal, gamma=gamma, family=family, n=n, seed=9))
        # the draw of the whole C-order x at once, then its vec-order rows
        rng = np.random.default_rng(9)
        z = rng.standard_normal((n, p0))
        x = rng.standard_normal((n,) + dims)
        eta = x.reshape(n, -1) @ signal.to_array().ravel()
        if p0:
            eta = eta + z @ gamma
        scale = {"normal": 1.0, "bernoulli": 0.1}[family]
        np.testing.assert_array_equal(ds.y, get_family(family).sample(scale * eta, rng))
        np.testing.assert_array_equal(ds.z, z)
        np.testing.assert_array_equal(ds.x_matrix(), stack_vec(x)[1])

    def test_payload_is_held_once(self):
        import tracemalloc

        spec = SimSpec(signal=generate_shape(ShapeSpec("square", 64)),
                       gamma=np.ones(2), family="normal", n=600, seed=4)
        tracemalloc.start()
        try:
            ds = simulate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * ds.x_matrix().nbytes


    @pytest.mark.parametrize("field,value,message", [
        ("seed", -1, "seed must be >= 0"),
        ("seed", 1.0, "seed must be an integer"),
        ("seed", None, "seed must be an integer"),
        ("n", 1.5, "n must be an integer"),
        ("n", 0, "n must be >= 1"),
    ])
    def test_bad_seed_or_n_is_named(self, field, value, message):
        kwargs = dict(signal=generate_shape(ShapeSpec("square", 16)),
                      gamma=np.ones(2), family="normal", n=10, seed=1)
        kwargs[field] = value
        with pytest.raises(DomainError, match=message):
            SimSpec(**kwargs)

    def test_seed_sequence_and_numpy_integers_are_accepted(self):
        signal = generate_shape(ShapeSpec("square", 16))
        a = simulate(SimSpec(signal=signal, gamma=np.ones(2), family="normal",
                             n=np.int64(10), seed=np.random.SeedSequence(4)))
        b = simulate(SimSpec(signal=signal, gamma=np.ones(2), family="normal",
                             n=10, seed=np.int64(4)))
        assert a.n == b.n == 10
        np.testing.assert_array_equal(a.y, b.y)


class TestRmse:
    def test_exact_match(self):
        assert rmse(np.arange(5.0), np.arange(5.0)) == 0.0

    def test_unit_offset(self):
        assert rmse(np.ones(4), np.zeros(4)) == 1.0

    def test_duplicate_formula_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(17), rng.standard_normal(17)
        want = np.sqrt(np.mean((a - b) ** 2))  # independent arrangement
        assert rmse(a, b) == pytest.approx(want, rel=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            rmse(np.ones(3), np.ones(4))


class TestStudyHarness:
    def test_smoke_run_schema(self):
        res = run_consistency_study(
            ShapeSpec("square", 16),
            n_grid=[120, 160],
            replicates=2,
            family="normal",
            config=FitConfig(rank=1, restarts=1, seed=5),
            gamma=np.ones(2),
        )
        assert len(res.rows) == 4  # 2 n values x 2 params
        for row in res.rows:
            assert tuple(row.keys()) == STUDY_COLUMNS
            assert row["rank_selected_mode"] == 1
        ns = [row["n"] for row in res.rows]
        assert ns == [120, 120, 160, 160]
        assert not res.failures

    def test_study_reproducible(self):
        kwargs = dict(
            n_grid=[150],
            replicates=2,
            family="normal",
            config=FitConfig(rank=1, restarts=1, seed=11),
            gamma=np.ones(2),
        )
        a = run_consistency_study(ShapeSpec("square", 16), **kwargs)
        b = run_consistency_study(ShapeSpec("square", 16), **kwargs)
        assert a.rows == b.rows

    def test_replicates_validated(self):
        with pytest.raises(DomainError):
            run_consistency_study(
                ShapeSpec("square", 16),
                n_grid=[100],
                replicates=1,
                family="normal",
                config=FitConfig(rank=1),
            )

    @pytest.mark.parametrize("kwargs,message", [
        (dict(n_grid=[60], replicates=2.5), "replicates must be an integer"),
        (dict(n_grid=[60], replicates=2, max_rank=1.5), "max_rank must be an integer"),
        (dict(n_grid=[60], replicates=2, max_rank=0), "max_rank must be >= 1"),
        (dict(n_grid=[60, 0], replicates=2), "n must be >= 1"),
    ])
    def test_bad_study_arguments_raise_before_any_replicate(self, monkeypatch,
                                                            kwargs, message):
        import tensorreg.shapes as shapes

        drawn = []
        monkeypatch.setattr(shapes, "simulate", lambda spec: drawn.append(spec))
        with pytest.raises(DomainError, match=message):
            run_consistency_study(
                ShapeSpec("square", 16),
                family="normal",
                config=FitConfig(rank=1),
                **kwargs,
            )
        assert not drawn

    def test_one_worker_pool_per_study(self, monkeypatch):
        import tensorreg.shapes as shapes

        entered = []
        inner = shapes._worker_pool

        def counting(workers):
            entered.append(workers)
            return inner(workers)

        monkeypatch.setattr(shapes, "_worker_pool", counting)
        run_consistency_study(ShapeSpec("square", 16), n_grid=[120, 160],
                              replicates=2, family="normal",
                              config=FitConfig(rank=1, restarts=1, seed=5),
                              gamma=np.ones(2))
        assert len(entered) == 1

    @staticmethod
    def study_at(monkeypatch, threads, **kwargs):
        monkeypatch.setenv("TENSORREG_THREADS", str(threads))
        return run_consistency_study(ShapeSpec("square", 16), replicates=2,
                                     family="normal", gamma=np.ones(2), **kwargs)

    def test_infeasible_size_is_logged_and_left_out_of_the_rows(self, monkeypatch):
        kwargs = dict(n_grid=[10, 150], config=FitConfig(rank=1, restarts=1, seed=3))
        one, two = (self.study_at(monkeypatch, t, **kwargs) for t in (1, 2))
        assert (one.rows, one.failures) == (two.rows, two.failures)
        assert [row["n"] for row in one.rows] == [150, 150]
        assert [(n, rep) for n, rep, _ in one.failures] == [(10, 0), (10, 1)]
        assert all("n=10 too small" in msg for _, _, msg in one.failures)

    def test_max_rank_study_selects_by_bic(self, monkeypatch):
        kwargs = dict(n_grid=[150], config=FitConfig(restarts=1, seed=4), max_rank=2)
        one, two = (self.study_at(monkeypatch, t, **kwargs) for t in (1, 2))
        assert (one.rows, one.failures) == (two.rows, two.failures)
        assert not one.failures
        assert [row["rank_selected_mode"] for row in one.rows] == [1, 1]

