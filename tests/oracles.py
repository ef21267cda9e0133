"""Reference tensor algebra that the tests check the package against.

The vec-index map, the mode-d matricization, Kronecker and outer
products, the CP mode-d unfolding and the tensor inner product are the
tools of the paper's identities.  A fit needs only the contraction
``build_block_design`` computes from them, so they live here, where the
loop oracles of ``test_tensor_core.py`` check them and they in turn
check ``cp_to_full`` and ``build_block_design``.  Conventions follow
:mod:`tensorreg.tensor_core`: vec order, 1-based modes and indices.
"""

import numpy as np

from tensorreg.errors import DimensionMismatchError, DomainError
from tensorreg.tensor_core import DenseTensor, _check_mode, factor_chain_omitting


def vec_index(dims, multi_index):
    """Map a 1-based multi-index to its 1-based vec-order position.

    ``j = 1 + sum_d (i_d - 1) * prod_{d' < d} p_{d'}``.
    """
    dims = tuple(int(p) for p in dims)
    idx = tuple(int(i) for i in multi_index)
    if len(idx) != len(dims):
        raise DimensionMismatchError(
            f"index has {len(idx)} components for {len(dims)} dims"
        )
    j = 1
    stride = 1
    for i, p in zip(idx, dims):
        if not 1 <= i <= p:
            raise DomainError(f"index {idx} out of range for dims {dims}")
        j += (i - 1) * stride
        stride *= p
    return j


def getitem(t, multi_index):
    """Entry of the DenseTensor ``t`` at a 1-based multi-index ``(i_1, ..., i_D)``."""
    return t.data[vec_index(t.dims, multi_index) - 1]


def mode_d_matricize(t, d):
    """Mode-d matricization: a ``p_d x prod_{d' != d} p_{d'}`` matrix.

    Entry ``(i_1, ..., i_D)`` of the tensor lands in row ``i_d``; the
    column index runs over the remaining modes in their original order,
    first remaining index fastest.
    """
    _check_mode(t, d)
    arr = t.to_array()
    rest = [k for k in range(t.ndim) if k != d - 1]
    arr = arr.transpose([d - 1] + rest)
    return arr.reshape(t.dims[d - 1], -1, order="F")


def kronecker(a, b):
    """Kronecker product of two matrices: the block matrix ``[a_ij * B]``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    return np.kron(a, b)


def outer_product(vectors):
    """Outer product of D vectors: entries ``prod_d b_d[i_d]``."""
    vs = [np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors]
    if not vs:
        raise DomainError("outer product of zero vectors")
    for k, v in enumerate(vs, start=1):
        if v.size == 0:
            raise DomainError(f"vector {k} is empty")
    out = vs[0]
    for v in vs[1:]:
        out = np.multiply.outer(out, v)
    return DenseTensor.from_array(out)


def cp_mode_d_unfolding(c, d):
    """Mode-d unfolding of a CP tensor without densifying it.

    ``B_(d) = B_d (B_D (*) ... (*) B_{d+1} (*) B_{d-1} (*) ... (*) B_1)^T``.
    """
    if not 1 <= d <= c.ndim:
        raise DomainError(f"mode {d} out of range for a {c.ndim}-way tensor")
    return c.factors[d - 1] @ factor_chain_omitting(c.factors, d).T


def inner(a, b):
    """Inner product of two equal-dimension tensors: sum of entrywise products."""
    if a.dims != b.dims:
        raise DimensionMismatchError(f"dims {a.dims} vs {b.dims}")
    return float(a.data @ b.data)


def raw_parameter_count(dims, rank, p0):
    """Unadjusted count: intercept + covariates + all CP entries."""
    return int(p0) + 1 + int(rank) * int(sum(dims))
