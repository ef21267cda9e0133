"""Source guard: every function, class and method the package defines is used.

Each module under ``src/tensorreg`` is parsed with :mod:`ast`.  A name a
``def`` or ``class`` statement binds (at any depth: methods and nested
functions too) must be referenced somewhere in ``src/tensorreg``, ``tests``
or ``bench``, as a bare name or as an attribute, or be listed in a module's
``__all__``.  Dunder names are exempt: Python calls them itself.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tensorreg")
REFERENCE_DIRS = [PACKAGE, os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]


def python_files(directory):
    for dirpath, _, names in os.walk(directory):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def dead_definitions(package, references):
    """``(label, name, line)`` of every definition in ``package`` that no
    source in ``references`` names and no ``__all__`` of ``package`` exports,
    in source order.

    Both arguments map a label to source text; the sources of ``package``
    count as references too.
    """
    defined, named, exported = [], set(), set()
    for label, source in {**references, **package}.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif label not in package:
                continue
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                defined.append((label, node.name, node.lineno))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
    dead = [
        (label, name, line) for label, name, line in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in named and name not in exported
    ]
    return sorted(dead, key=lambda d: (d[0], d[2]))


def read_all(directory):
    sources = {}
    for path in python_files(directory):
        with open(path, encoding="utf-8") as fh:
            sources[os.path.relpath(path, ROOT)] = fh.read()
    return sources


def test_package_defines_nothing_unused():
    references = {}
    for directory in REFERENCE_DIRS:
        references.update(read_all(directory))
    assert dead_definitions(read_all(PACKAGE), references) == []


def test_scan_flags_a_dead_definition_and_spares_used_and_exported_ones():
    package = {
        "mod.py": (
            "__all__ = ['public']\n"
            "def public():\n"
            "    return _helper()\n"
            "def _helper():\n"
            "    def inner():\n"
            "        pass\n"
            "    return 1\n"
            "class Thing:\n"
            "    def __repr__(self):\n"
            "        return 'thing'\n"
            "    def used(self):\n"
            "        pass\n"
            "    def unused(self):\n"
            "        pass\n"
            "def _orphan():\n"
            "    pass\n"
        ),
    }
    references = {"test_mod.py": "from mod import Thing\nThing().used()\n"}
    assert dead_definitions(package, references) == [
        ("mod.py", "inner", 5), ("mod.py", "unused", 13), ("mod.py", "_orphan", 15),
    ]
