"""Sparsity penalties and the scalar threshold rules used in coordinate descent.

A penalty is a scalar function ``P(|beta|; rho, lam)`` added (negated) to
the log-likelihood of every penalized coefficient.  Supported families:

* ``power``: ``rho * |beta|**lam`` with ``lam`` in (0, 2]; ``lasso`` and
  ``ridge`` are aliases for lam = 1 and lam = 2, and ``bridge`` for any
  lam, 0.5 by default.
* ``elastic_net``: ``rho * ((lam - 1) * beta**2 / 2 + (2 - lam) * |beta|)``
  with ``lam`` in [1, 2].
* ``scad``: the three-piece penalty whose derivative is
  ``rho * (1{t <= rho} + (lam*rho - t)_+ / ((lam - 1) * rho) * 1{t > rho})``
  for t = |beta|, with ``lam`` > 2 (default 3.7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["PenaltySpec", "penalty_value", "threshold_update"]

_DEFAULT_LAMBDA = {"elastic_net": 1.5, "scad": 3.7, "bridge": 0.5}
_POWER_ALIASES = {"lasso": 1.0, "ridge": 2.0}
# A cap on the Newton steps of one bridge threshold; a handful reach the
# root to rounding.
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class PenaltySpec:
    """A penalty family with tuning constant ``rho`` and family index ``lam``.

    ``lasso``, ``ridge`` and ``bridge`` canonicalize to the power family,
    with lam 1, 2 and the given lam (0.5 when None); lasso or ridge given
    another lam raises DomainError.  ``rho = 0`` means no penalty for any
    family.
    """

    family: str
    rho: float
    lam: float | None = None

    def __post_init__(self):
        family = self.family.lower()
        lam = self.lam
        if family in _POWER_ALIASES:
            fixed = _POWER_ALIASES[family]
            if lam is not None and lam != fixed:  # also catches NaN
                raise DomainError(
                    f"{family} is the power penalty with lam {fixed:g}, got lam {lam}")
            family, lam = "power", fixed
        elif family == "bridge":
            family = "power"
            lam = _DEFAULT_LAMBDA["bridge"] if lam is None else lam
        if family not in ("power", "elastic_net", "scad"):
            raise DomainError(f"unknown penalty family {self.family!r}")
        if lam is None:
            if family == "power":
                raise DomainError("power penalty requires an explicit lam in (0, 2]")
            lam = _DEFAULT_LAMBDA[family]
        lam = float(lam)
        if family == "power" and not 0.0 < lam <= 2.0:
            raise DomainError(f"power penalty needs lam in (0, 2], got {lam}")
        if family == "elastic_net" and not 1.0 <= lam <= 2.0:
            raise DomainError(f"elastic net needs lam in [1, 2], got {lam}")
        if family == "scad" and not 2.0 < lam < np.inf:
            raise DomainError(f"scad needs a finite lam > 2, got {lam}")
        if not 0.0 <= self.rho < np.inf:  # also catches NaN
            raise DomainError(f"rho must be finite and nonnegative, got {self.rho}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "lam", lam)

    @property
    def quadratic_piece(self):
        """``(a1, a2)`` with ``P(t) = a1*t + a2*t**2/2`` for all t > 0, or None.

        Lasso, ridge and elastic net are one quadratic on t > 0; SCAD and
        the other power exponents are not.
        """
        rho, lam = self.rho, self.lam
        if self.family == "elastic_net":
            return rho * (2.0 - lam), rho * (lam - 1.0)
        if self.family == "power" and lam == 1.0:
            return rho, 0.0
        if self.family == "power" and lam == 2.0:
            return 0.0, 2.0 * rho
        return None

    def threshold_rule(self):
        """The threshold of this penalty as ``rule(z, w)`` on Python floats.

        Unchecked (``w`` must be positive) and odd in ``z``: the scalar
        kernel behind :func:`threshold_update`, chosen once per penalty so
        that an inner loop pays one plain call per coordinate.
        """
        rho, lam = self.rho, self.lam
        if rho == 0.0:
            return _identity
        piece = self.quadratic_piece
        if piece is not None:
            a1, a2 = piece

            def rule(z, w):
                # argmin of (w/2)(b-z)^2 + a1|b| + a2 b^2/2; NaN falls through
                wz = w * z
                if wz > a1:
                    return (wz - a1) / (w + a2)
                if wz >= -a1:
                    return 0.0
                return (wz + a1) / (w + a2)

            return rule
        half = _scad_threshold if self.family == "scad" else _power_threshold

        def rule(z, w):
            if z > 0.0:
                return half(rho, lam, z, w)
            if z < 0.0:
                return -half(rho, lam, -z, w)
            return z

        return rule

    def to_dict(self):
        return {"family": self.family, "rho": self.rho, "lam": self.lam}

    @classmethod
    def from_dict(cls, d):
        return cls(d["family"], d["rho"], d.get("lam"))


def penalty_value(spec, beta):
    """Evaluate ``P(|beta|; rho, lam)`` elementwise."""
    t = np.abs(np.asarray(beta, dtype=np.float64))
    rho, lam = spec.rho, spec.lam
    if rho == 0.0:
        return np.zeros_like(t) if t.ndim else 0.0
    if spec.family == "power":
        out = rho * t**lam
    elif spec.family == "elastic_net":
        out = rho * ((lam - 1.0) * t**2 / 2.0 + (2.0 - lam) * t)
    else:  # scad: integral of the derivative, in closed three-piece form
        linear = rho * t
        quad = (2.0 * lam * rho * t - t**2 - rho**2) / (2.0 * (lam - 1.0))
        flat = (lam + 1.0) * rho**2 / 2.0
        out = np.where(t <= rho, linear, np.where(t <= lam * rho, quad, flat))
    return float(out) if out.ndim == 0 else out


def _penalty_total(spec, arrays):
    """``sum P(|b|)`` over the entries of ``arrays``, 0.0 for ``None``.
    Private: the benchmark tracer opens a span per call of an ``__all__`` name."""
    if spec is None:
        return 0.0
    return float(sum(np.sum(penalty_value(spec, a)) for a in arrays))


def _identity(z, w):
    return z


def _scad_threshold(rho, lam, z, w):
    # Candidate stationary points of (w/2)(b-z)^2 + P_scad(b) on b >= 0
    # plus region boundaries; robust when w*(lam-1) <= 1.
    cands = [0.0, min(z, rho), min(z, lam * rho)]
    b1 = z - rho / w
    if 0.0 <= b1 <= rho:
        cands.append(b1)
    denom = w * (lam - 1.0) - 1.0
    if denom > 0.0:
        b2 = (w * z * (lam - 1.0) - lam * rho) / denom
        if rho <= b2 <= lam * rho:
            cands.append(b2)
    if z >= lam * rho:
        cands.append(z)

    def f(b):
        # the three pieces of penalty_value for b >= 0
        if b <= rho:
            pen = rho * b
        elif b <= lam * rho:
            pen = (2.0 * lam * rho * b - b**2 - rho**2) / (2.0 * (lam - 1.0))
        else:
            pen = (lam + 1.0) * rho**2 / 2.0
        return 0.5 * w * (b - z) ** 2 + pen

    return min(cands, key=f)


def _power_threshold(rho, lam, z, w):
    # argmin over b >= 0 of (w/2)(b - z)^2 + rho b^lam for z > 0: 0 or a root
    # of w(b - z) + rho lam b^(lam-1) (Marjanovic & Solo, IEEE TSP 2012).
    # Newton runs on an increasing convex form of that equation from the
    # right of its root, so the iterates fall monotonically onto it: on b
    # itself for lam < 1, and on u = b^(lam-1) for lam in (1, 2).
    c = rho * lam / w
    if lam > 1.0:
        p = 1.0 / (lam - 1.0)
        u = z ** (lam - 1.0)
        for _ in range(_NEWTON_STEPS):
            new = u - (u**p - z + c * u) / (p * u ** (p - 1.0) + c)
            if not 0.0 < new < u:  # also stops at NaN
                break
            u = new
        return u**p
    # the closed-form cut: the root at which f equals f(0) lies at b = cut,
    # where z = cut + c cut^(lam-1); for smaller z the minimizer is 0
    cut = (2.0 * rho * (1.0 - lam) / w) ** (1.0 / (2.0 - lam))
    if z < cut + c * cut ** (lam - 1.0):
        return 0.0
    b = z
    for _ in range(_NEWTON_STEPS):
        g = b - z + c * b ** (lam - 1.0)
        new = b - g / (1.0 + c * (lam - 1.0) * b ** (lam - 2.0))
        if not 0.0 < new < b:
            break
        b = new
    return b if 0.5 * w * (b - z) ** 2 + rho * b**lam <= 0.5 * w * z * z else 0.0


def threshold_update(spec, z, quad_weight):
    """Minimize ``(quad_weight/2) * (beta - z)**2 + P(|beta|; rho, lam)``.

    Elementwise over broadcast arrays; a float for scalar input.  Closed
    forms for lasso, ridge, elastic net, and SCAD; for the remaining power
    exponents, the closed-form cut to zero and Newton's method on the
    stationarity equation.  Odd in ``z`` for every family.
    """
    w = np.asarray(quad_weight, dtype=np.float64)
    if not np.all(w > 0.0):  # also catches NaN
        raise DomainError(f"quad_weight must be positive, got {quad_weight}")
    z = np.asarray(z, dtype=np.float64)
    rule = spec.threshold_rule()
    if z.ndim == 0 and w.ndim == 0:
        return rule(float(z), float(w))
    piece = spec.quadratic_piece
    if spec.rho == 0.0 or piece is None:
        return np.vectorize(rule, otypes=[np.float64])(z, w)
    # the closed form of threshold_rule, with the same rounding
    a1, a2 = piece
    wz = w * z
    return np.sign(wz) * np.maximum(np.abs(wz) - a1, 0.0) / (w + a2)
