"""Synthetic 2D-shape and 3D-ball signals plus the simulation harness.

The 2D shapes are binary coefficient images whose matrix rank drives how
well a rank-R fit can recover them: the square is rank 1, the T and the
cross are rank 2 (each is a disjoint union of two axis-aligned bars), and
the disk, triangle and butterfly have rank well above 3.  The exact
geometry is fixed here, parameterized only by the image side length.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, TensorRegError
from .glm import GlmFamily, get_family
from .model import (
    TensorGlmDataset,
    _worker_pool,
    fit,
    max_workers,
    select_rank,
)
from .tensor_core import CpTensor, DenseTensor, cp_to_full

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


def generate_ball_signal(dims, centers, half_period=14):
    """CP factors whose columns carry sine half-period windows.

    Each ball r contributes one factor column per mode, zero except for a
    window of ``half_period + 1`` entries ``sin(j pi / half_period)``,
    j = 0..half_period, starting at that ball's offset.  ``centers`` is a
    sequence of per-ball offsets, each either one integer (reused for all
    modes) or a per-mode sequence.  The rendered dense signal is a
    smooth blob per ball.
    """
    dims = tuple(int(p) for p in dims)
    if half_period < 2:
        raise DomainError("half_period must be at least 2")
    window = half_period + 1
    R = len(centers)
    if R < 1:
        raise DomainError("need at least one ball")
    profile = np.sin(np.arange(window) * np.pi / half_period)
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
    """Specification of one synthetic dataset draw."""

    signal: DenseTensor
    gamma: np.ndarray
    family: GlmFamily | str
    n: int
    seed: int
    eta_scale: float | None = None

    def __post_init__(self):
        self.family = get_family(self.family)
        self.gamma = np.asarray(self.gamma, dtype=np.float64).reshape(-1)
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.eta_scale is None:
            self.eta_scale = DEFAULT_ETA_SCALE[self.family.name]


def simulate(spec):
    """Draw a dataset from the model: standard-normal Z and X entries,
    ``eta = gamma'z + <B, x>``, response from the family with the link
    evaluated at ``eta_scale * eta``.  Fixed seed gives an identical
    dataset on every call."""
    rng = np.random.default_rng(spec.seed)
    n, p0 = spec.n, spec.gamma.size
    dims = spec.signal.dims
    z = rng.standard_normal((n, p0))
    x = rng.standard_normal((n,) + dims)
    eta = x.reshape(n, -1) @ spec.signal.to_array().ravel()
    if p0:
        eta = eta + z @ spec.gamma
    y = spec.family.sample(spec.eta_scale * eta, rng)
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


def run_consistency_study(shape, n_grid, replicates, family, config, *,
                          gamma=None, max_rank=None):
    """Replicated simulate-fit-evaluate sweep over a sample-size grid.

    For each n, draws ``replicates`` independent datasets with the shape
    as the true coefficient image, fits (at ``config.rank``, or with BIC
    selection up to ``max_rank``), and aggregates RMSE for gamma and for
    the coefficient image.  Per-replicate failures are recorded, not
    fatal.  Replicates own independent RNG streams spawned from
    ``config.seed``, so results are reproducible and order-independent.
    """
    if replicates < 2:
        raise DomainError("replicates must be >= 2")
    if isinstance(shape, str):
        shape = ShapeSpec(shape)
    family = get_family(family)
    signal = generate_shape(shape)
    if gamma is None:
        gamma = np.ones(5)
    gamma = np.asarray(gamma, dtype=np.float64).reshape(-1)

    root = np.random.SeedSequence(config.seed)
    grid_seqs = root.spawn(len(n_grid))
    rows = []
    failures = []
    violations = 0
    for n, n_seq in zip(n_grid, grid_seqs):
        rep_seqs = n_seq.spawn(replicates)

        def one(rep):
            def task():
                data_seq, fit_seq = rep_seqs[rep].spawn(2)
                sim = SimSpec(
                    signal=signal,
                    gamma=gamma,
                    family=family,
                    n=n,
                    seed=data_seq,
                )
                dataset = simulate(sim)
                cfg = replace(config, seed=int(fit_seq.generate_state(1)[0]))
                try:
                    if max_rank is None:
                        model = fit(dataset, family, cfg)
                    else:
                        model, _ = select_rank(dataset, family, max_rank, cfg)
                except TensorRegError as err:
                    return ("error", rep, str(err))
                b_hat = cp_to_full(model.coeff).data
                return (
                    "ok",
                    rep,
                    rmse(model.gamma, gamma),
                    rmse(b_hat, signal.data),
                    model.rank,
                    count_trace_violations(model.trace),
                )

            return task

        with _worker_pool(max_workers()) as run:
            results = run([one(r) for r in range(replicates)])
        oks = sorted(r for r in results if r[0] == "ok")
        failures.extend((n, r[1], r[2]) for r in results if r[0] == "error")
        violations += sum(r[5] for r in oks)
        if not oks:
            continue
        g_err = np.array([r[2] for r in oks])
        b_err = np.array([r[3] for r in oks])
        ranks = [r[4] for r in oks]
        counts = Counter(ranks)
        top = max(counts.values())
        mode_rank = min(rk for rk, cnt in counts.items() if cnt == top)
        for param, err in (("gamma", g_err), ("B", b_err)):
            rows.append(
                {
                    "shape": shape.name,
                    "n": int(n),
                    "param": param,
                    "mean_rmse": float(err.mean()),
                    "sd_rmse": float(err.std(ddof=1)),
                    "rank_selected_mode": int(mode_rank),
                }
            )
    return StudyResult(rows=rows, failures=failures, trace_violations=violations)
