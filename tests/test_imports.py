"""Cold-start guards: what importing tensorreg and running a fit loads.

Each case runs in a fresh interpreter, so a module one case loads cannot
hide a lazy import of another.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
NUMPY_ONLY_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "numpy_only_cli.py")

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


def _penalized(family, rho=5.0):
    return f'tr.fit(ds, "normal", cfg(2, tr.PenaltySpec("{family}", {rho})))'


# case: (family of the data, the fit)
FIT_CALLS = {
    "normal_fit": ("normal", 'tr.fit(ds, "normal", cfg())'),
    "poisson_fit": ("poisson", 'tr.fit(ds, "poisson", cfg())'),
    "lasso_fit": ("normal", _penalized("lasso")),
    "ridge_fit": ("normal", _penalized("ridge")),
    "elastic_net_fit": ("normal", _penalized("elastic_net")),
    "scad_fit": ("normal", _penalized("scad")),
    "bridge_fit": ("normal", _penalized("bridge")),
    "bernoulli_select_rank": ("bernoulli",
                              'tr.select_rank(ds, "bernoulli", 2, cfg())[0]'),
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
    family, call = FIT_CALLS[case]
    added = run_fresh(_DATA + f"""
ds = data({family!r})
before = set(sys.modules)
model = {call}
assert np.isfinite(model.loglik)
print(json.dumps(sorted(set(sys.modules) - before)))
""")
    assert added == []


def test_cli_runs_without_scipy(tmp_path):
    # the script makes every import of scipy fail before it imports tensorreg
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, NUMPY_ONLY_CLI, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "every command ran without scipy"
