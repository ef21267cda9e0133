"""Cold-start guards: what importing tensorreg and running a fit loads.

Each case runs in a fresh interpreter, so a module one case loads cannot
hide a lazy import of another.  scipy is imported only by the Poisson
log(y!) constant and the bridge penalty's scalar minimizer.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Tiny datasets on a 6x6 grid; the fit under test runs after the snapshot.
_DATA = """
import json, sys
import numpy as np
import tensorreg as tr

rng = np.random.default_rng(0)
n, dims = 200, (6, 6)
x = rng.standard_normal((n,) + dims)
z = rng.standard_normal((n, 1))
signal = np.zeros(dims)
signal[1:4, 2:5] = 0.4
eta = np.tensordot(x, signal, axes=2) + 0.5 * z[:, 0]


def data(family):
    fam = tr.get_family(family)
    return tr.TensorGlmDataset(fam.sample(eta, rng), x, z)


def cfg(rank=1, penalty=None):
    return tr.FitConfig(rank=rank, restarts=2, max_outer_iters=8, seed=0,
                        penalty=penalty)
"""

FIT_CALLS = {
    "normal_fit": 'tr.fit(ds, "normal", cfg())',
    "lasso_fit": 'tr.fit(ds, "normal", cfg(2, tr.PenaltySpec("lasso", 5.0)))',
    "bernoulli_select_rank": 'tr.select_rank(ds, "bernoulli", 2, cfg())',
}


def run_fresh(code):
    """Run ``code`` in a new interpreter; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["tensorreg", "tensorreg.cli"])
def test_import_loads_no_scipy(module):
    loaded = run_fresh(f"""
        import importlib, json, sys
        importlib.import_module({module!r})
        print(json.dumps(sorted(sys.modules)))
    """)
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    # every fit spawns its restart streams from numpy.random: the import
    # pays for it, not the first fit
    assert "numpy.random" in loaded


@pytest.mark.parametrize("case", sorted(FIT_CALLS))
def test_fit_imports_nothing(case):
    family = "bernoulli" if case.startswith("bernoulli") else "normal"
    added = run_fresh(_DATA + f"""
ds = data({family!r})
before = set(sys.modules)
{FIT_CALLS[case]}
print(json.dumps(sorted(set(sys.modules) - before)))
""")
    assert added == []


@pytest.mark.parametrize("family,penalty,module", [
    ("poisson", "None", "scipy.special"),
    ("normal", 'tr.PenaltySpec("bridge", 5.0)', "scipy.optimize"),
])
def test_lazy_scipy_paths_still_fit(family, penalty, module):
    result = run_fresh(_DATA + f"""
ds = data({family!r})
model = tr.fit(ds, {family!r}, cfg(penalty={penalty}))
print(json.dumps([bool(np.isfinite(model.loglik)), {module!r} in sys.modules]))
""")
    assert result == [True, True]
