"""Import hygiene: every name a library module imports is used there, no
library module imports a private (``_``-prefixed) name of another, and the
runtime imports nothing outside the standard library and ``fwsets``.

A name imported only for its side effect carries ``# noqa: F401`` on its
line.  ``__init__.py`` is skipped by the first two checks, because it
imports in order to export.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fwsets"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught_and_noqa_is_honoured():
    source = (
        "from os import path, sep\n"
        "import json  # noqa: F401\n"
        "import sys\n"
        "print(sep, sys.argv)\n"
    )
    assert unused_imports(source) == [(1, "path")]


def private_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each ``_``-prefixed name imported from a package
    module: a relative import, or one from ``fwsets`` itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "fwsets":
            continue
        found.extend((alias.lineno, alias.name) for alias in node.names if alias.name.startswith("_"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_a_private_import_is_caught():
    source = (
        "from os import _exit\n"
        "from .linalg import dot, _kernel_from_rows\n"
        "from fwsets.numeric import _short_dyadic\n"
        "from . import _private\n"
    )
    assert private_imports(source) == [
        (2, "_kernel_from_rows"),
        (3, "_short_dyadic"),
        (4, "_private"),
    ]


def third_party_imports(source: str) -> list[tuple[int, str]]:
    """``(line, module)`` for each absolute import of a top-level module that
    is neither in the standard library nor ``fwsets``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [(node.lineno, node.module)]
        else:
            continue
        for line, name in names:
            top = name.split(".")[0]
            if top != "fwsets" and top not in sys.stdlib_module_names:
                found.append((line, top))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    assert third_party_imports(path.read_text(encoding="utf-8")) == []


def test_a_third_party_import_is_caught():
    source = (
        "import os.path, numpy as np\n"
        "from fractions import Fraction\n"
        "from scipy.optimize import linprog\n"
        "from . import linalg\n"
        "from fwsets.polyhedra import dd_convert\n"
    )
    assert third_party_imports(source) == [(1, "numpy"), (3, "scipy")]
