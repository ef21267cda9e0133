"""Penalty values and threshold rules against a grid-search minimizer oracle."""

import numpy as np
import pytest

from tensorreg.errors import DomainError
from tensorreg.penalties import PenaltySpec, penalty_value, threshold_update


def threshold_oracle(spec, z, w, half_width=None):
    """Dense grid search + local refinement of the 1-d penalized quadratic.

    Deliberately independent of the closed forms: evaluates the objective
    directly on ~2e5 points and refines around the best one.
    """

    def f(b):
        return 0.5 * w * (b - z) ** 2 + penalty_value(spec, b)

    if half_width is None:
        half_width = abs(z) + 1.0
    grid = np.linspace(-half_width, half_width, 200_001)
    vals = f(grid)
    k = int(np.argmin(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    for _ in range(60):
        mids = np.linspace(lo, hi, 9)
        j = int(np.argmin(f(mids)))
        lo, hi = mids[max(j - 1, 0)], mids[min(j + 1, 8)]
    best = 0.5 * (lo + hi)
    # The spike at exactly zero matters for lasso/bridge-type penalties.
    return 0.0 if f(0.0) <= f(best) else best


ORACLE_SPECS = pytest.mark.parametrize(
    "spec",
    [
        PenaltySpec("lasso", 0.7),
        PenaltySpec("ridge", 1.3),
        PenaltySpec("power", 0.9, 0.5),
        PenaltySpec("power", 0.6, 1.5),
        PenaltySpec("elastic_net", 0.8, 1.5),
        PenaltySpec("elastic_net", 0.8, 1.0),
        PenaltySpec("scad", 0.9, 3.7),
        PenaltySpec("scad", 1.1, 2.5),
    ],
    ids=lambda s: f"{s.family}-lam{s.lam}-rho{s.rho}",
)
ORACLE_Z = [-4.1, -1.9, -0.3, 0.2, 0.9, 2.6, 5.5]
ORACLE_W = [0.6, 1.0, 2.4]


class TestPenaltySpec:
    def test_lasso_ridge_canonicalize_to_power(self):
        assert PenaltySpec("lasso", 1.0) == PenaltySpec("power", 1.0, 1.0)
        assert PenaltySpec("ridge", 2.5) == PenaltySpec("power", 2.5, 2.0)
        assert PenaltySpec("bridge", 1.0).lam == 0.5

    def test_default_lambdas(self):
        assert PenaltySpec("scad", 1.0).lam == 3.7
        assert PenaltySpec("elastic_net", 1.0).lam == 1.5

    @pytest.mark.parametrize(
        "family,lam",
        [("power", 0.0), ("power", 2.5), ("elastic_net", 0.5), ("scad", 2.0)],
    )
    def test_lambda_domains(self, family, lam):
        with pytest.raises(DomainError):
            PenaltySpec(family, 1.0, lam)

    def test_negative_rho_rejected(self):
        with pytest.raises(DomainError):
            PenaltySpec("lasso", -1.0)

    @pytest.mark.parametrize("rho", [np.inf, np.nan])
    @pytest.mark.parametrize("family", ["lasso", "elastic_net", "scad"])
    def test_nonfinite_rho_rejected(self, family, rho):
        with pytest.raises(DomainError, match="rho must be finite"):
            PenaltySpec(family, rho)

    def test_infinite_scad_lambda_rejected(self):
        with pytest.raises(DomainError, match="finite lam"):
            PenaltySpec("scad", 1.0, np.inf)


class TestPenaltyValue:
    def test_lasso(self):
        assert penalty_value(PenaltySpec("lasso", 2.0), -3.0) == 6.0

    def test_elastic_net_pure_ridge_limb(self):
        assert penalty_value(PenaltySpec("elastic_net", 1.0, 2.0), 2.0) == 2.0

    def test_scad_linear_region(self):
        assert penalty_value(PenaltySpec("scad", 1.0, 3.7), 0.5) == 0.5

    def test_scad_piecewise_continuous_and_matches_integral(self):
        rho, lam = 1.3, 3.7
        spec = PenaltySpec("scad", rho, lam)

        def deriv(t):
            return np.where(
                t <= rho, rho, rho * np.maximum(lam * rho - t, 0.0) / ((lam - 1.0) * rho)
            )

        ts = np.linspace(0.0, 2.0 * lam * rho, 4001)
        for t in ts[1:]:
            grid = np.linspace(0.0, t, 20_001)
            integral = np.trapezoid(deriv(grid), grid)
            assert penalty_value(spec, t) == pytest.approx(integral, abs=1e-6)

    def test_rho_zero_is_no_penalty(self):
        for family, lam in [("power", 0.5), ("elastic_net", 1.5), ("scad", 3.7)]:
            assert penalty_value(PenaltySpec(family, 0.0, lam), 4.2) == 0.0

    def test_vectorized(self):
        spec = PenaltySpec("lasso", 1.0)
        np.testing.assert_array_equal(
            penalty_value(spec, np.array([-1.0, 0.0, 2.0])), [1.0, 0.0, 2.0]
        )


class TestThresholdUpdate:
    def test_lasso_soft_threshold(self):
        spec = PenaltySpec("lasso", 1.0)
        assert threshold_update(spec, 3.0, 1.0) == 2.0
        assert threshold_update(spec, 0.5, 1.0) == 0.0

    def test_ridge_closed_form(self):
        # argmin of (1/2)(b-3)^2 + b^2 is b = 1 (frozen from the calculus
        # and grid oracles; penalty is rho*b^2 with rho = 1).
        spec = PenaltySpec("ridge", 1.0)
        assert threshold_update(spec, 3.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert threshold_oracle(spec, 3.0, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_scad_large_z_unshrunk(self):
        spec = PenaltySpec("scad", 1.0, 3.7)
        assert threshold_update(spec, 10.0, 1.0) == 10.0
        assert threshold_update(spec, -25.0, 2.0) == -25.0

    @ORACLE_SPECS
    @pytest.mark.parametrize("z", ORACLE_Z)
    @pytest.mark.parametrize("w", ORACLE_W)
    def test_matches_grid_oracle(self, spec, z, w):
        got = threshold_update(spec, z, w)
        want = threshold_oracle(spec, z, w)
        assert got == pytest.approx(want, abs=2e-4)

    @ORACLE_SPECS
    def test_array_input_matches_scalar_elementwise(self, spec):
        z = np.array(ORACLE_Z + [0.0])[:, None]
        w = np.array(ORACLE_W)[None, :]
        got = threshold_update(spec, z, w)
        assert got.shape == (len(ORACLE_Z) + 1, len(ORACLE_W))
        for (i, j), value in np.ndenumerate(got):
            scalar = threshold_update(spec, z[i, 0], w[0, j])
            assert type(scalar) is float
            assert value == scalar, (z[i, 0], w[0, j])

    @pytest.mark.parametrize(
        "spec",
        [
            PenaltySpec("lasso", 0.7),
            PenaltySpec("power", 1.0, 0.5),
            PenaltySpec("elastic_net", 0.8, 1.5),
            PenaltySpec("scad", 0.9, 3.7),
            PenaltySpec("ridge", 1.3),
        ],
        ids=lambda s: f"{s.family}-lam{s.lam}",
    )
    def test_odd_in_z(self, spec):
        for z in np.linspace(0.05, 6.0, 40):
            for w in (0.5, 1.0, 3.0):
                assert threshold_update(spec, -z, w) == -threshold_update(spec, z, w)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DomainError):
            threshold_update(PenaltySpec("lasso", 1.0), 1.0, 0.0)
        with pytest.raises(DomainError):
            threshold_update(PenaltySpec("lasso", 1.0), [1.0, 2.0], [1.0, -1.0])

    def test_nan_weight_rejected(self):
        spec = PenaltySpec("lasso", 1.0)
        with pytest.raises(DomainError, match="must be positive"):
            threshold_update(spec, 2.0, np.nan)
        with pytest.raises(DomainError, match="must be positive"):
            threshold_update(spec, [1.0, 2.0], [1.0, np.nan])

    @pytest.mark.parametrize(
        "spec,piece",
        [
            (PenaltySpec("lasso", 0.7), (0.7, 0.0)),
            (PenaltySpec("ridge", 1.3), (0.0, 2.6)),
            (PenaltySpec("elastic_net", 0.8, 1.5), (0.4, 0.4)),
            (PenaltySpec("power", 0.9, 0.5), None),
            (PenaltySpec("power", 0.6, 1.5), None),
            (PenaltySpec("scad", 0.9, 3.7), None),
        ],
        ids=["lasso", "ridge", "elastic_net", "bridge", "power-lam1.5", "scad"],
    )
    def test_quadratic_piece(self, spec, piece):
        assert spec.quadratic_piece == piece
        if piece is not None:
            a1, a2 = piece
            for t in (0.3, 1.0, 4.2):
                assert penalty_value(spec, t) == pytest.approx(a1 * t + a2 * t**2 / 2)
