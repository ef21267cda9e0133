"""Tensor algebra tests against brute-force index-map oracles.

The reference functions of ``oracles`` are checked here against the loop
oracles, entry by entry, before other tests use them to check the package.
"""

import itertools

import numpy as np
import pytest

from tensorreg.errors import DimensionMismatchError, DomainError
from tensorreg.tensor_core import (
    CpTensor,
    DenseTensor,
    cp_to_full,
    factor_chain_omitting,
    khatri_rao,
    khatri_rao_chain,
    mode_dd_matricize,
    stack_vec,
)

from oracles import (
    cp_mode_d_unfolding,
    getitem,
    inner,
    kronecker,
    mode_d_matricize,
    outer_product,
    vec_index,
)

# ---------------------------------------------------------------------------
# Loop oracles: every index formula re-derived entry by entry, no reshapes.
# ---------------------------------------------------------------------------


def vec_index_oracle(dims, idx):
    j = 1
    for d in range(len(dims)):
        stride = 1
        for dp in range(d):
            stride *= dims[dp]
        j += (idx[d] - 1) * stride
    return j


def mode_d_oracle(t, d):
    dims = t.dims
    rest = [k for k in range(len(dims)) if k != d - 1]
    ncols = int(np.prod([dims[k] for k in rest])) if rest else 1
    out = np.zeros((dims[d - 1], ncols))
    for idx in itertools.product(*(range(1, p + 1) for p in dims)):
        col = 0
        stride = 1
        for k in rest:
            col += (idx[k] - 1) * stride
            stride *= dims[k]
        out[idx[d - 1] - 1, col] = getitem(t, idx)
    return out


def mode_dd_oracle(t, d, d2):
    dims = t.dims
    rest = [k for k in range(len(dims)) if k not in (d - 1, d2 - 1)]
    ncols = int(np.prod([dims[k] for k in rest])) if rest else 1
    out = np.zeros((dims[d - 1] * dims[d2 - 1], ncols))
    for idx in itertools.product(*(range(1, p + 1) for p in dims)):
        row = (idx[d - 1] - 1) + (idx[d2 - 1] - 1) * dims[d - 1]
        col = 0
        stride = 1
        for k in rest:
            col += (idx[k] - 1) * stride
            stride *= dims[k]
        out[row, col] = getitem(t, idx)
    return out


def kron_oracle(a, b):
    m, n = a.shape
    p, q = b.shape
    out = np.zeros((m * p, n * q))
    for i in range(m):
        for j in range(n):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def outer_oracle(vectors):
    dims = tuple(len(v) for v in vectors)
    out = np.zeros(dims)
    for idx in itertools.product(*(range(p) for p in dims)):
        prod = 1.0
        for d, i in enumerate(idx):
            prod *= vectors[d][i]
        out[idx] = prod
    return out


def cp_full_oracle(c):
    total = np.zeros(c.dims)
    for r in range(c.rank):
        total += outer_oracle([f[:, r] for f in c.factors])
    return total


def random_cp(rng, dims, rank):
    return CpTensor([rng.standard_normal((p, rank)) for p in dims])


# ---------------------------------------------------------------------------
# DenseTensor storage contract
# ---------------------------------------------------------------------------


class TestDenseTensor:
    def test_flat_layout_matches_vec_formula(self):
        rng = np.random.default_rng(0)
        dims = (3, 4, 2)
        t = DenseTensor(dims, rng.standard_normal(24))
        for idx in itertools.product(*(range(1, p + 1) for p in dims)):
            assert getitem(t, idx) == t.data[vec_index_oracle(dims, idx) - 1]

    def test_round_trip_through_array(self):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((2, 5, 3))
        t = DenseTensor.from_array(arr)
        np.testing.assert_array_equal(t.to_array(), arr)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DenseTensor((2, 3), np.zeros(5))

    def test_empty_mode_rejected(self):
        with pytest.raises(DomainError):
            DenseTensor((2, 0, 3), np.zeros(0))

    def test_immutable(self):
        t = DenseTensor((2, 2), np.ones(4))
        with pytest.raises((AttributeError, ValueError)):
            t.data[0] = 5.0


class TestInvalidInput:
    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: DenseTensor((), [1.0]), DomainError,
                     "a tensor needs at least one mode", id="no-modes"),
        pytest.param(lambda: DenseTensor.from_array(np.float64(2.0)), DomainError,
                     "a 0-dimensional array is not a valid tensor", id="0-d-array"),
        pytest.param(lambda: CpTensor([np.zeros((2, 2, 2))]), DomainError,
                     "factor 1 must be a matrix, got ndim=3", id="3-d-factor"),
        pytest.param(lambda: CpTensor([]), DomainError,
                     "a CP tensor needs at least one factor", id="no-factors"),
        pytest.param(lambda: CpTensor([np.zeros((3, 0))]), DomainError,
                     "rank must be at least 1", id="rank-0"),
        pytest.param(lambda: CpTensor([np.zeros((3, 2)), np.zeros((0, 2))]),
                     DomainError, "factor 2 has no rows", id="empty-factor"),
        pytest.param(lambda: CpTensor([np.zeros((3, 2)), np.zeros((4, 1))]),
                     DimensionMismatchError, "factor 2 has 1 columns, expected rank 2",
                     id="ranks-differ"),
        pytest.param(lambda: stack_vec(np.zeros(3)), DomainError,
                     r"a tensor stack needs a positive shape .*, got \(3,\)",
                     id="flat-stack"),
        pytest.param(lambda: khatri_rao_chain([]), DomainError,
                     "empty Khatri-Rao chain", id="empty-chain"),
    ])
    def test_is_named(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    @pytest.mark.parametrize("make", [
        lambda: DenseTensor((2,), [1.0, 2.0]),
        lambda: CpTensor([np.ones((2, 1))]),
    ], ids=["DenseTensor", "CpTensor"])
    def test_is_immutable(self, make):
        t = make()
        with pytest.raises(AttributeError, match=f"{type(t).__name__} is immutable"):
            t.dims = (3,)


class TestStackVec:
    def test_arrays_of_different_shapes_name_the_first_mismatch(self):
        tensors = [np.zeros((2, 3)), np.ones((2, 3)), np.zeros((3, 2)),
                   np.zeros((4, 4))]
        with pytest.raises(DomainError, match=r"tensor 2 has shape \(3, 2\)"):
            stack_vec(tensors)

    def test_dense_tensors_of_different_dims_name_the_first_mismatch(self):
        tensors = [DenseTensor((2, 3), np.zeros(6)), DenseTensor((3, 2), np.zeros(6))]
        with pytest.raises(DomainError, match=r"tensor 1 has shape \(3, 2\)"):
            stack_vec(tensors)

    @pytest.mark.parametrize("dense_first", [True, False])
    def test_mixed_dense_tensors_and_arrays_are_named(self, dense_first):
        arr = np.arange(6.0).reshape(2, 3)
        tensors = [DenseTensor.from_array(arr), arr, arr]
        if not dense_first:
            tensors = tensors[::-1]
        kind = "an array" if dense_first else "a DenseTensor"
        with pytest.raises(DomainError, match=f"tensor {1 if dense_first else 2} is {kind}"):
            stack_vec(tensors)


class TestVecIndex:
    def test_spec_values(self):
        assert vec_index((2, 3), (2, 3)) == 6
        assert vec_index((2, 2, 2), (1, 1, 1)) == 1
        assert vec_index((3, 4, 5), (2, 3, 4)) == 44

    @pytest.mark.parametrize("dims", [(4, 3, 2, 2), (5,), (2, 6)])
    def test_bijection_onto_range(self, dims):
        hits = [
            vec_index(dims, idx)
            for idx in itertools.product(*(range(1, p + 1) for p in dims))
        ]
        assert sorted(hits) == list(range(1, int(np.prod(dims)) + 1))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            vec_index((2, 3), (3, 1))
        with pytest.raises(DomainError):
            vec_index((2, 3), (0, 1))


# ---------------------------------------------------------------------------
# Matricizations
# ---------------------------------------------------------------------------


class TestModeD:
    def test_mode1_column_stack_is_vec(self):
        rng = np.random.default_rng(2)
        t = DenseTensor.from_array(rng.standard_normal((3, 4, 2)))
        m = mode_d_matricize(t, 1)
        np.testing.assert_array_equal(m.ravel(order="F"), t.data)

    def test_matrix_mode1_identity(self):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((2, 3))
        t = DenseTensor.from_array(arr)
        np.testing.assert_array_equal(mode_d_matricize(t, 1), arr)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_loop_oracle(self, d):
        rng = np.random.default_rng(4)
        t = DenseTensor.from_array(rng.standard_normal((3, 4, 2)))
        np.testing.assert_array_equal(mode_d_matricize(t, d), mode_d_oracle(t, d))

    def test_mode_out_of_range(self):
        t = DenseTensor((2, 2), np.ones(4))
        with pytest.raises(DomainError):
            mode_d_matricize(t, 3)


class TestModeDD:
    def test_slices_become_columns(self):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((2, 3, 4))
        t = DenseTensor.from_array(arr)
        m = mode_dd_matricize(t, 1, 2)
        assert m.shape == (6, 4)
        for k in range(4):
            np.testing.assert_array_equal(m[:, k], arr[:, :, k].ravel(order="F"))

    def test_2d_collapses_to_vec_column(self):
        rng = np.random.default_rng(6)
        t = DenseTensor.from_array(rng.standard_normal((3, 2)))
        m = mode_dd_matricize(t, 1, 2)
        assert m.shape == (6, 1)
        np.testing.assert_array_equal(m[:, 0], t.data)

    @pytest.mark.parametrize("d,d2", [(2, 4), (4, 2), (1, 3), (3, 1)])
    def test_against_loop_oracle(self, d, d2):
        rng = np.random.default_rng(7)
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 4, 2)))
        np.testing.assert_array_equal(
            mode_dd_matricize(t, d, d2), mode_dd_oracle(t, d, d2)
        )

    def test_equal_modes_rejected(self):
        t = DenseTensor((2, 2), np.ones(4))
        with pytest.raises(DomainError):
            mode_dd_matricize(t, 1, 1)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


class TestKronecker:
    def test_identity(self):
        np.testing.assert_array_equal(kronecker(np.eye(2), np.eye(2)), np.eye(4))

    def test_column_vectors(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[1.0], [3.0]])
        np.testing.assert_array_equal(
            kronecker(a, b), np.array([[1.0], [3.0], [2.0], [6.0]])
        )

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        got = kronecker(a, b)
        assert got.shape == (6, 6)
        np.testing.assert_allclose(got, kron_oracle(a, b), rtol=0, atol=0)


class TestKhatriRao:
    def test_single_column_equals_kronecker(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 1))
        b = rng.standard_normal((4, 1))
        np.testing.assert_array_equal(khatri_rao(a, b), kronecker(a, b))

    def test_unit_vectors(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.0], [1.0]])
        np.testing.assert_array_equal(
            khatri_rao(a, b), np.array([[0.0], [1.0], [0.0], [0.0]])
        )

    def test_per_column_kron_oracle(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 2))
        got = khatri_rao(a, b)
        assert got.shape == (6, 2)
        for r in range(2):
            np.testing.assert_allclose(
                got[:, r], np.kron(a[:, r], b[:, r]), rtol=0, atol=0
            )

    def test_equals_scipy_bit_for_bit(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(12)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((5, 3))
        got = khatri_rao(a, b)
        assert got.shape == (35, 3)
        assert np.array_equal(got, linalg.khatri_rao(a, b))

    def test_empty_factor(self):
        assert khatri_rao(np.ones((0, 3)), np.ones((5, 3))).shape == (0, 3)

    def test_column_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))

    def test_chain_associativity(self):
        rng = np.random.default_rng(11)
        mats = [rng.standard_normal((p, 3)) for p in (2, 3, 2)]
        left = khatri_rao(khatri_rao(mats[0], mats[1]), mats[2])
        right = khatri_rao(mats[0], khatri_rao(mats[1], mats[2]))
        np.testing.assert_allclose(khatri_rao_chain(mats), left, rtol=1e-15)
        np.testing.assert_allclose(left, right, rtol=1e-15)


class TestOuterProduct:
    def test_2x2(self):
        t = outer_product([np.array([1.0, 2.0]), np.array([1.0, 3.0])])
        np.testing.assert_array_equal(t.to_array(), np.array([[1.0, 3.0], [2.0, 6.0]]))

    def test_zero_vector_annihilates(self):
        t = outer_product([np.array([1.0, -2.0, 3.0]), np.zeros(2)])
        assert not t.data.any()

    def test_against_loop_oracle(self):
        vs = [np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([2.0, 0.0])]
        t = outer_product(vs)
        np.testing.assert_array_equal(t.to_array(), outer_oracle(vs))


# ---------------------------------------------------------------------------
# CP representation and the vec / mode-d identities
# ---------------------------------------------------------------------------


class TestCpToFull:
    def test_rank1_is_outer_product(self):
        c = CpTensor([np.array([1.0, 2.0]), np.array([1.0, 3.0])])
        np.testing.assert_allclose(
            cp_to_full(c).to_array(), np.array([[1.0, 3.0], [2.0, 6.0]]), rtol=1e-15
        )

    def test_zero_column_drops(self):
        rng = np.random.default_rng(12)
        b1 = rng.standard_normal((3, 2))
        b2 = rng.standard_normal((4, 2))
        b1[:, 1] = 0.0
        full2 = cp_to_full(CpTensor([b1, b2]))
        full1 = cp_to_full(CpTensor([b1[:, :1], b2[:, :1]]))
        np.testing.assert_allclose(full2.data, full1.data, rtol=0, atol=0)

    def test_against_sum_of_outer_products(self):
        rng = np.random.default_rng(13)
        c = random_cp(rng, (4, 3, 5), 3)
        np.testing.assert_allclose(
            cp_to_full(c).to_array(), cp_full_oracle(c), rtol=1e-12, atol=1e-12
        )


class TestCpUnfolding:
    def test_rank1_outer_product_matricization(self):
        b1 = np.array([1.0, 2.0, 3.0])
        b2 = np.array([4.0, 5.0])
        c = CpTensor([b1, b2])
        np.testing.assert_allclose(cp_mode_d_unfolding(c, 1), np.outer(b1, b2))
        np.testing.assert_allclose(cp_mode_d_unfolding(c, 2), np.outer(b2, b1))

    def test_d2_is_b2_b1t(self):
        rng = np.random.default_rng(14)
        c = random_cp(rng, (3, 4), 2)
        np.testing.assert_allclose(
            cp_mode_d_unfolding(c, 2), c.factors[1] @ c.factors[0].T, rtol=1e-14
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_dense_matricization(self, d):
        rng = np.random.default_rng(15)
        c = random_cp(rng, (3, 4, 2), 2)
        dense = mode_d_matricize(cp_to_full(c), d)
        np.testing.assert_allclose(cp_mode_d_unfolding(c, d), dense, rtol=1e-10)


class TestVecModeIdentities:
    """The two rank-R reconstruction identities on a randomized grid."""

    @pytest.mark.parametrize("seed", range(6))
    def test_identities(self, seed):
        rng = np.random.default_rng(100 + seed)
        ndim = rng.integers(2, 5)
        dims = tuple(int(rng.integers(2, 6)) for _ in range(ndim))
        rank = int(rng.integers(1, 4))
        c = random_cp(rng, dims, rank)
        full = cp_to_full(c)
        scale = np.abs(full.data).max()
        for d in range(1, ndim + 1):
            lhs = cp_mode_d_unfolding(c, d)
            rhs = mode_d_matricize(full, d)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(scale, 1.0)
        vec = factor_chain_omitting(c.factors, ()) @ np.ones(rank)
        assert np.abs(vec - full.data).max() <= 1e-10 * max(scale, 1.0)


class TestInner:
    def test_zero(self):
        rng = np.random.default_rng(16)
        t = DenseTensor.from_array(rng.standard_normal((3, 2)))
        z = DenseTensor((3, 2), np.zeros(6))
        assert inner(t, z) == 0.0

    def test_trace_selection(self):
        a = DenseTensor.from_array(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = DenseTensor.from_array(np.array([[2.0, 5.0], [7.0, 3.0]]))
        assert inner(a, b) == 5.0

    def test_flat_dot_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 4))
        y = rng.standard_normal((2, 3, 4))
        a, b = DenseTensor.from_array(x), DenseTensor.from_array(y)
        acc = 0.0
        for idx in itertools.product(range(2), range(3), range(4)):
            acc += x[idx] * y[idx]
        assert inner(a, b) == pytest.approx(acc, rel=1e-13)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner(DenseTensor((2, 2), np.ones(4)), DenseTensor((4,), np.ones(4)))


class TestInnerFactorForm:
    """<B, X> computed through any mode-d factor pairing must agree."""

    def test_every_mode_agrees(self):
        rng = np.random.default_rng(18)
        dims = (3, 4, 2)
        c = random_cp(rng, dims, 2)
        x = DenseTensor.from_array(rng.standard_normal(dims))
        direct = inner(cp_to_full(c), x)
        for d in range(1, 4):
            xd = mode_d_matricize(x, d)
            chain = factor_chain_omitting(c.factors, d)
            via_factors = float(np.sum(c.factors[d - 1] * (xd @ chain)))
            assert via_factors == pytest.approx(direct, rel=1e-10)
