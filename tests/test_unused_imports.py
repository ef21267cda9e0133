"""Source guard: no module of the package imports a name it never uses.

Each module under ``src/tensorreg`` is parsed with :mod:`ast`.  A name an
import binds (anywhere in the module, also inside a function) must be read
somewhere in that module or be listed in its ``__all__``.  ``__init__.py``
is exempt: it imports names only to re-export them.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "tensorreg"
)
MODULES = sorted(f for f in os.listdir(PACKAGE)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source):
    """``(name, line)`` of every imported name ``source`` neither reads nor
    exports in ``__all__``."""
    tree = ast.parse(source)
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [((a.asname or a.name).split(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in bound if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_scan_flags_a_dead_import_and_spares_used_and_exported_ones():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == [("os", 2), ("pi", 4), ("dumps", 7)]
