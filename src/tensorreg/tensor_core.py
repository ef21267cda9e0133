"""Dense tensors, CP factor sets, and the matrix/tensor algebra they need.

Conventions used throughout the package:

* A tensor of dimensions ``(p_1, ..., p_D)`` is stored as a flat float64
  vector in *vec order*: the first index varies fastest, so the 1-based
  entry ``(i_1, ..., i_D)`` sits at flat position
  ``1 + sum_d (i_d - 1) * prod_{d' < d} p_{d'}``.
* Matrices are plain 2-d :class:`numpy.ndarray` objects.  Whenever a
  matrix is vectorized it is flattened column-major (``order="F"``),
  which coincides with vec order for D = 2.
* Modes are numbered 1-based in every public signature, matching the
  mathematical convention of the formulas implemented here.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, DomainError

__all__ = [
    "DenseTensor",
    "CpTensor",
    "mode_dd_matricize",
    "khatri_rao",
    "khatri_rao_chain",
    "cp_to_full",
]


class DenseTensor:
    """A D-dimensional numeric array with vec-order flat storage.

    Parameters
    ----------
    dims : sequence of int
        Positive dimensions ``(p_1, ..., p_D)``.  Empty modes are
        rejected: no formula downstream is defined for them.
    data : array_like
        ``prod(dims)`` values in vec order (first index fastest).

    The instance is immutable: ``data`` is a read-only float64 array.
    """

    __slots__ = ("dims", "data")

    def __init__(self, dims, data):
        dims = tuple(int(p) for p in dims)
        if len(dims) == 0:
            raise DomainError("a tensor needs at least one mode")
        if any(p <= 0 for p in dims):
            raise DomainError(f"all dimensions must be positive, got {dims}")
        flat = np.asarray(data, dtype=np.float64).reshape(-1)
        size = int(np.prod(dims))
        if flat.size != size:
            raise DimensionMismatchError(
                f"data has {flat.size} entries, dims {dims} require {size}"
            )
        flat = flat.copy()
        flat.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", flat)

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    @property
    def ndim(self):
        return len(self.dims)

    @property
    def size(self):
        return self.data.size

    @classmethod
    def from_array(cls, arr):
        """Build from a numpy array, flattening in vec (column-major) order."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 0:
            raise DomainError("a 0-dimensional array is not a valid tensor")
        return cls(arr.shape, arr.ravel(order="F"))

    def to_array(self):
        """Return the tensor as a ``dims``-shaped numpy array."""
        return self.data.reshape(self.dims, order="F")

    def __repr__(self):
        return f"DenseTensor(dims={self.dims})"


class CpTensor:
    """A rank-R CP factor set ``[[B_1, ..., B_D]]``.

    Factor ``d`` is a ``p_d x R`` matrix whose column ``r`` is the mode-d
    vector of the r-th rank-1 term.  The represented tensor is
    ``sum_r beta_1^(r) o ... o beta_D^(r)``.
    """

    __slots__ = ("dims", "rank", "factors")

    def __init__(self, factors):
        mats = []
        for d, f in enumerate(factors, start=1):
            m = np.asarray(f, dtype=np.float64)
            if m.ndim == 1:
                m = m[:, None]
            if m.ndim != 2:
                raise DomainError(f"factor {d} must be a matrix, got ndim={m.ndim}")
            mats.append(m)
        if not mats:
            raise DomainError("a CP tensor needs at least one factor")
        rank = mats[0].shape[1]
        if rank < 1:
            raise DomainError("rank must be at least 1")
        for d, m in enumerate(mats, start=1):
            if m.shape[0] < 1:
                raise DomainError(f"factor {d} has no rows")
            if m.shape[1] != rank:
                raise DimensionMismatchError(
                    f"factor {d} has {m.shape[1]} columns, expected rank {rank}"
                )
        frozen = []
        for m in mats:
            m = m.copy()
            m.flags.writeable = False
            frozen.append(m)
        object.__setattr__(self, "factors", tuple(frozen))
        object.__setattr__(self, "dims", tuple(m.shape[0] for m in frozen))
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("CpTensor is immutable")

    @property
    def ndim(self):
        return len(self.dims)

    def __repr__(self):
        return f"CpTensor(dims={self.dims}, rank={self.rank})"


def stack_vec(tensors):
    """Rows ``vec(x_i)`` of a stack of equal-dims tensors.

    ``tensors`` is a list of DenseTensor or an array (or a list of
    equal-shape arrays) of shape ``(n, p_1, ..., p_D)``.  Returns
    ``(dims, rows)`` with ``rows`` of shape ``(n, prod(dims))``; an array
    that views vec-order rows, as :func:`unstack_vec` returns, is not
    copied.
    """
    if isinstance(tensors, (list, tuple)) and tensors:
        _require_uniform(tensors)
        if isinstance(tensors[0], DenseTensor):
            return tensors[0].dims, np.stack([t.data for t in tensors])
    arr = np.asarray(tensors, dtype=np.float64)
    if arr.ndim < 2 or 0 in arr.shape:
        raise DomainError(
            f"a tensor stack needs a positive shape (n, p_1, ..., p_D), got {arr.shape}"
        )
    # with the mode axes reversed, C order is vec order
    rows = arr.transpose([0] + list(range(arr.ndim - 1, 0, -1)))
    return tuple(arr.shape[1:]), rows.reshape(arr.shape[0], -1)


def _require_uniform(tensors):
    """Raise DomainError naming the first entry of the list ``tensors``
    whose kind (DenseTensor or array) or shape differs from entry 0's."""

    def kind(t):
        if isinstance(t, DenseTensor):
            return "a DenseTensor", t.dims
        return "an array", np.shape(t)

    first_kind, first_shape = kind(tensors[0])
    for i, t in enumerate(tensors):
        this_kind, shape = kind(t)
        if this_kind != first_kind:
            raise DomainError(f"tensor {i} is {this_kind}, tensor 0 {first_kind}")
        if shape != first_shape:
            raise DomainError(
                f"tensor {i} has shape {shape}, tensor 0 has {first_shape}"
            )


def unstack_vec(rows, dims):
    """View ``(n, prod(dims))`` vec-order rows as an ``(n, p_1, ..., p_D)`` array."""
    D = len(dims)
    stacked = rows.reshape((rows.shape[0],) + tuple(dims)[::-1])
    return stacked.transpose([0] + list(range(D, 0, -1)))


def _check_mode(t, d):
    if not 1 <= d <= t.ndim:
        raise DomainError(f"mode {d} out of range for a {t.ndim}-way tensor")


def mode_dd_matricize(t, d, d2):
    """Mode-(d, d') matricization: ``p_d p_{d'} x prod_{d'' != d,d'} p_{d''}``.

    Row index for entry ``(i_1, ..., i_D)`` is ``i_d + (i_{d'} - 1) p_d``;
    columns run over the remaining modes in their original order, first
    remaining index fastest.
    """
    _check_mode(t, d)
    _check_mode(t, d2)
    if d == d2:
        raise DomainError("mode-(d,d') matricization requires d != d'")
    arr = t.to_array()
    rest = [k for k in range(t.ndim) if k not in (d - 1, d2 - 1)]
    arr = arr.transpose([d - 1, d2 - 1] + rest)
    return arr.reshape(t.dims[d - 1] * t.dims[d2 - 1], -1, order="F")


def khatri_rao(a, b):
    """Columnwise Kronecker product of two matrices with equal column counts."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"Khatri-Rao needs equal column counts, got {a.shape[1]} and {b.shape[1]}"
        )
    prod = a[:, None, :] * b[None, :, :]
    return prod.reshape(a.shape[0] * b.shape[0], a.shape[1])


def khatri_rao_chain(mats):
    """Left-associated Khatri-Rao product ``m_1 (*) m_2 (*) ... (*) m_k``.

    A single matrix is returned unchanged; the product is associative so
    bracketing does not matter.
    """
    mats = list(mats)
    if not mats:
        raise DomainError("empty Khatri-Rao chain")
    out = np.atleast_2d(np.asarray(mats[0], dtype=np.float64))
    for m in mats[1:]:
        out = khatri_rao(out, m)
    return out


def factor_chain_omitting(factors, omit):
    """Khatri-Rao chain ``B_D (*) ... (*) B_1`` skipping the modes in ``omit``.

    ``omit`` is a 1-based mode or an iterable of them.  This descending
    ordering is the one under which the chain's row index agrees with the
    column index of the matching mode matricization.  If every mode is
    omitted, returns a ``1 x R`` matrix of ones (the empty product).
    """
    if np.isscalar(omit):
        omit = (omit,)
    omit = {int(o) for o in omit}
    chain = [factors[d] for d in reversed(range(len(factors))) if d + 1 not in omit]
    if not chain:
        return np.ones((1, np.atleast_2d(factors[0]).shape[1]))
    return khatri_rao_chain(chain)


def cp_to_full(c):
    """Densify a CP tensor via ``vec B = (B_D (*) ... (*) B_1) 1_R``."""
    vec = factor_chain_omitting(c.factors, ()) @ np.ones(c.rank)
    return DenseTensor(c.dims, vec)
