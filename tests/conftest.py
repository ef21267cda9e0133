"""A check that runs under every test: the held state of each block solve.

Every block solve of the lockstep fit starts from the linear predictor and
log-likelihood that the previous solve returned, ``held=(eta, loglik)``,
instead of evaluating its iterate again.  The autouse fixture
``held_state_check`` wraps the two solvers as :mod:`tensorreg.model` calls
them and, at every call handed a ``held``, asserts that

- ``loglik`` is the log-likelihood at ``eta``;
- the log-likelihood at ``design @ start + offset`` is that at ``eta``:
  the block design, its frozen factors and the offset give the linear
  predictor the fit holds.

The first block of a start is so compared against the dense initial
linear predictor, and each later block against the previous block's
design.  Both hold to ``1e-9 * (1 + |loglik|)``.
"""

import functools
import threading

import numpy as np
import pytest

from tensorreg import model as model_module

_RTOL = 1e-9


def _loglik(family, y, eta):
    """Log-likelihood at unit dispersion from the family's cumulant and
    constant alone: not through ``glm.log_likelihood`` or the IRLS
    kernel's evaluation, whose calls some tests count."""
    b, _ = family.b_and_mean(eta)
    return float(np.sum(y * eta - b)) + float(np.sum(family.c(y, 1.0)))


def _close(a, b):
    return a == b or abs(a - b) <= _RTOL * (1.0 + abs(b))


class HeldStateCheck:
    """Calling it checks one solve's ``held``; ``calls`` counts the checks
    that passed, on whichever thread the solve ran."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, design, y, family, offset, start, held):
        eta, loglik = held
        ll = _loglik(family, y, eta)
        assert _close(loglik, ll), (
            f"held log-likelihood {loglik!r} is not that of the held linear "
            f"predictor, {ll!r}"
        )
        ll_design = _loglik(family, y, design @ start + offset)
        assert _close(ll_design, ll), (
            f"linear-predictor routes disagree: {ll!r} held, {ll_design!r} "
            "through the block design"
        )
        with self._lock:
            self.calls += 1

    def wrap(self, solve):
        @functools.wraps(solve)
        def checked(design, y, family, offset=None, **kwargs):
            if kwargs.get("held") is not None:
                self(design, y, family, offset, kwargs["start"], kwargs["held"])
            return solve(design, y, family, offset, **kwargs)

        return checked


@pytest.fixture(autouse=True)
def held_state_check(monkeypatch):
    check = HeldStateCheck()
    for name in ("irls_fit", "penalized_fit"):
        monkeypatch.setattr(model_module, name, check.wrap(getattr(model_module, name)))
    return check
