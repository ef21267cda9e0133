"""Synthetic 2D-shape and 3D-ball signals plus the simulation harness.

The 2D shapes are binary coefficient images whose matrix rank drives how
well a rank-R fit can recover them: the square is rank 1, the T and the
cross are rank 2 (each is a disjoint union of two axis-aligned bars), and
the disk, triangle and butterfly have rank well above 3.  The exact
geometry is fixed here, parameterized only by the image side length.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, TensorRegError
from .glm import GlmFamily, get_family
from .model import (
    TensorGlmDataset,
    _require_int,
    _worker_pool,
    fit,
    max_workers,
    select_rank,
)
from .tensor_core import CpTensor, DenseTensor, cp_to_full, unstack_vec

__all__ = [
    "SHAPE_NAMES",
    "ShapeSpec",
    "SimSpec",
    "StudyResult",
    "count_trace_violations",
    "generate_shape",
    "generate_ball_signal",
    "simulate",
    "rmse",
    "run_consistency_study",
    "STUDY_COLUMNS",
]

SHAPE_NAMES = ("square", "t_shape", "cross", "disk", "triangle", "butterfly")

# Link-scale factors applied inside the mean function when simulating
# non-normal responses, keeping them in a well-conditioned regime.
DEFAULT_ETA_SCALE = {"normal": 1.0, "bernoulli": 0.1, "poisson": 0.01}

# Half period, in entries, of the sine window of a 3D ball's factor columns.
HALF_PERIOD = 14

STUDY_COLUMNS = ("shape", "n", "param", "mean_rmse", "sd_rmse", "rank_selected_mode")


@dataclass(frozen=True)
class ShapeSpec:
    """A named binary 2D signal at a given side length."""

    name: str
    size: int = 64

    def __post_init__(self):
        if self.name not in SHAPE_NAMES:
            raise DomainError(
                f"unknown shape {self.name!r}; choose from {SHAPE_NAMES}"
            )
        if self.size < 16:
            raise DomainError(f"shape size must be >= 16, got {self.size}")


def _square(s):
    mask = np.zeros((s, s))
    side = round(s / 4)
    lo = (s - side) // 2
    mask[lo : lo + side, lo : lo + side] = 1.0
    return mask


def _t_shape(s):
    mask = np.zeros((s, s))
    bar = max(s // 8, 2)
    top = s // 4
    mask[top : top + bar, s // 4 : 3 * s // 4] = 1.0  # horizontal cap
    stem_lo = (s - bar) // 2
    mask[top + bar : 3 * s // 4, stem_lo : stem_lo + bar] = 1.0  # vertical stem
    return mask


def _cross(s):
    mask = np.zeros((s, s))
    bar = max(s // 8, 2)
    mid = (s - bar) // 2
    mask[mid : mid + bar, s // 4 : 3 * s // 4] = 1.0
    mask[s // 4 : 3 * s // 4, mid : mid + bar] = 1.0
    return mask


def _disk(s):
    c = (s - 1) / 2.0
    r = s / 5.0
    i, j = np.ogrid[:s, :s]
    return ((i - c) ** 2 + (j - c) ** 2 <= r * r).astype(np.float64)


def _triangle(s):
    # filled right triangle: legs along the left and bottom of the block
    mask = np.zeros((s, s))
    lo, hi = s // 4, 3 * s // 4
    for u, i in enumerate(range(lo, hi)):
        mask[i, lo : lo + u + 1] = 1.0
    return mask


def _butterfly(s):
    # two mirrored triangles meeting at the center (a bowtie)
    c = (s - 1) / 2.0
    i, j = np.ogrid[:s, :s]
    return ((np.abs(i - c) <= np.abs(j - c)) & (np.abs(j - c) <= s / 4)).astype(
        np.float64
    )


_GENERATORS = {
    "square": _square,
    "t_shape": _t_shape,
    "cross": _cross,
    "disk": _disk,
    "triangle": _triangle,
    "butterfly": _butterfly,
}


def generate_shape(spec):
    """Deterministic binary mask for a named 2D shape."""
    if isinstance(spec, str):
        spec = ShapeSpec(spec)
    mask = _GENERATORS[spec.name](spec.size)
    assert mask.any()
    return DenseTensor.from_array(mask)


def generate_ball_signal(dims, centers):
    """CP factors whose columns carry sine half-period windows.

    Each ball r contributes one factor column per mode, zero except for a
    window of ``HALF_PERIOD + 1`` entries ``sin(j pi / HALF_PERIOD)``,
    j = 0..HALF_PERIOD, starting at that ball's offset.  ``centers`` is a
    sequence of per-ball offsets, each either one integer (reused for all
    modes) or a per-mode sequence.  The rendered dense signal is a
    smooth blob per ball.
    """
    dims = tuple(int(p) for p in dims)
    window = HALF_PERIOD + 1
    R = len(centers)
    if R < 1:
        raise DomainError("need at least one ball")
    profile = np.sin(np.arange(window) * np.pi / HALF_PERIOD)
    factors = [np.zeros((p, R)) for p in dims]
    for r, center in enumerate(centers):
        if np.isscalar(center):
            offsets = [int(center)] * len(dims)
        else:
            offsets = [int(c) for c in center]
            if len(offsets) != len(dims):
                raise DomainError(
                    f"ball {r + 1} gives {len(offsets)} offsets for {len(dims)} modes"
                )
        for d, off in enumerate(offsets):
            if off < 0 or off + window > dims[d]:
                raise DomainError(
                    f"ball {r + 1} window [{off}, {off + window}) overflows "
                    f"mode {d + 1} of size {dims[d]}"
                )
            factors[d][off : off + window, r] = profile
    return CpTensor(factors)


@dataclass
class SimSpec:
    """Specification of one synthetic dataset draw.

    ``seed`` is an integer >= 0 or a ``numpy.random.SeedSequence``.
    """

    signal: DenseTensor
    gamma: np.ndarray
    family: GlmFamily | str
    n: int
    seed: int

    def __post_init__(self):
        self.family = get_family(self.family)
        self.gamma = np.asarray(self.gamma, dtype=np.float64).reshape(-1)
        _require_int("n", self.n, 1)
        if not isinstance(self.seed, np.random.SeedSequence):
            _require_int("seed", self.seed, 0)


# Entries of x that simulate draws per chunk of samples: about 2 MB, so that
# the draw holds little beyond the payload itself.
_SIMULATE_CHUNK_ENTRIES = 2**18


def simulate(spec):
    """Draw a dataset from the model: standard-normal Z and X entries,
    ``eta = gamma'z + <B, x>``, response from the family with the link
    evaluated at ``DEFAULT_ETA_SCALE[family] * eta``.  Fixed seed gives an
    identical dataset on every call.

    X is drawn a chunk of samples at a time, from the one RNG stream, and
    written straight into the dataset's vec-order array, so the payload is
    held once.  Each chunk's ``<B, x_i>`` is the product of its C-order
    rows with ``B``, as for all samples at once; the chunks are whole
    multiples of 64 rows, the last one at least 2, so that at one BLAS
    thread each row's product runs in the same BLAS kernel and the draw
    is that of one product over all rows.
    """
    rng = np.random.default_rng(spec.seed)
    n, p0 = spec.n, spec.gamma.size
    dims = spec.signal.dims
    z = rng.standard_normal((n, p0))
    b = spec.signal.to_array().ravel()
    vecs = np.empty((n, b.size))
    x = unstack_vec(vecs, dims)
    eta = np.empty(n)
    step = 64 * max(1, _SIMULATE_CHUNK_ENTRIES // (64 * b.size))
    bounds = list(range(0, n, step)) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        del bounds[-2]  # a one-row product would take another BLAS path
    buf = np.empty((max(e - s for s, e in zip(bounds, bounds[1:])),) + dims)
    for s, e in zip(bounds, bounds[1:]):
        chunk = rng.standard_normal(out=buf[: e - s])
        eta[s:e] = chunk.reshape(e - s, -1) @ b
        x[s:e] = chunk
    if p0:
        eta = eta + z @ spec.gamma
    y = spec.family.sample(DEFAULT_ETA_SCALE[spec.family.name] * eta, rng)
    return TensorGlmDataset(y, x, z if p0 else None)


def rmse(estimate, truth):
    """Root mean squared elementwise error, normalized by sqrt(length)."""
    estimate = np.asarray(estimate, dtype=np.float64).reshape(-1)
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    if estimate.size != truth.size:
        raise DomainError(f"length mismatch: {estimate.size} vs {truth.size}")
    return float(np.linalg.norm(estimate - truth) / np.sqrt(truth.size))


@dataclass
class StudyResult:
    """Aggregated study output: schema-stable rows plus failure log.

    ``trace_violations`` counts objective decreases (beyond 1e-10 slack)
    across every fit the study ran; the alternating maximization
    guarantees zero.
    """

    rows: list
    failures: list = field(default_factory=list)
    trace_violations: int = 0


def count_trace_violations(trace, slack=1e-10):
    t = np.asarray(trace, dtype=np.float64)
    if t.size < 2:
        return 0
    drops = np.diff(t) < -slack * (1.0 + np.abs(t[:-1]))
    return int(drops.sum())


def _replicate(signal, gamma, family, config, max_rank, n, seq):
    """One study replicate drawn from ``seq``: its error text, or
    ``(rmse_gamma, rmse_B, rank, trace_violations)``."""
    data_seq, fit_seq = seq.spawn(2)
    dataset = simulate(SimSpec(signal=signal, gamma=gamma, family=family, n=n,
                               seed=data_seq))
    cfg = replace(config, seed=int(fit_seq.generate_state(1)[0]))
    try:
        if max_rank is None:
            model = fit(dataset, family, cfg)
        else:
            model, _ = select_rank(dataset, family, max_rank, cfg)
    except TensorRegError as err:
        return str(err)
    return (
        rmse(model.gamma, gamma),
        rmse(cp_to_full(model.coeff).data, signal.data),
        model.rank,
        count_trace_violations(model.trace),
    )


def run_consistency_study(shape, n_grid, replicates, family, config, *,
                          gamma=None, max_rank=None):
    """Replicated simulate-fit-evaluate sweep over a sample-size grid.

    For each n, draws ``replicates`` independent datasets with the shape
    as the true coefficient image, fits (at ``config.rank``, or with BIC
    selection up to ``max_rank``), and aggregates RMSE for gamma and for
    the coefficient image.  Per-replicate failures are recorded, not
    fatal.  Replicates own independent RNG streams spawned from
    ``config.seed``, so results are reproducible and order-independent;
    the replicates of every n run as one task list on one worker pool.
    """
    # a bad study argument is no per-replicate failure: raise it up front
    _require_int("replicates", replicates, 2)
    if max_rank is not None:
        _require_int("max_rank", max_rank, 1)
    n_grid = [_require_int("n", n, 1) for n in n_grid]
    if isinstance(shape, str):
        shape = ShapeSpec(shape)
    family = get_family(family)
    signal = generate_shape(shape)
    gamma = np.ones(5) if gamma is None else gamma
    gamma = np.asarray(gamma, dtype=np.float64).reshape(-1)

    grid_seqs = np.random.SeedSequence(config.seed).spawn(len(n_grid))
    tasks = [
        functools.partial(_replicate, signal, gamma, family, config, max_rank, n, seq)
        for n, n_seq in zip(n_grid, grid_seqs)
        for seq in n_seq.spawn(replicates)
    ]
    with _worker_pool(max_workers()) as run:
        results = run(tasks)
    rows, failures, violations = [], [], 0
    for k, n in enumerate(n_grid):
        reps = results[k * replicates : (k + 1) * replicates]
        failures += [(n, rep, r) for rep, r in enumerate(reps) if isinstance(r, str)]
        oks = [r for r in reps if not isinstance(r, str)]
        if not oks:
            continue
        g_err, b_err, ranks, drops = zip(*oks)
        violations += sum(drops)
        # the most frequent rank, the smallest one on ties
        mode_rank = min(ranks, key=lambda r: (-ranks.count(r), r))
        for param, err in (("gamma", np.array(g_err)), ("B", np.array(b_err))):
            values = (shape.name, n, param, float(err.mean()),
                      float(err.std(ddof=1)), mode_rank)
            rows.append(dict(zip(STUDY_COLUMNS, values)))
    return StudyResult(rows=rows, failures=failures, trace_violations=violations)
