"""Every exported name resolves: each module's ``__all__``, the names the
package imports into ``selfsim``, and each demo's ``from selfsim import``
names.  The demos are read with ``ast``, not run, so a demo that imports
a deleted name fails here rather than only when it is executed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import selfsim

PACKAGE = Path(selfsim.__file__).parent
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))


def _imported_names(path: Path):
    """(module, name) for every ``from selfsim... import name`` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:  # relative, inside the package
            module = "selfsim" + (f".{node.module}" if node.module else "")
        elif node.module.split(".")[0] == "selfsim":
            module = node.module
        else:
            continue
        for alias in node.names:
            yield module, alias.name


def _unresolved(pairs):
    return [f"{module}.{name}" for module, name in pairs
            if not hasattr(importlib.import_module(module), name)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"selfsim.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_resolve():
    pairs = list(_imported_names(PACKAGE / "__init__.py"))
    assert pairs
    assert _unresolved(pairs) == []
    assert [n for _, n in pairs if not hasattr(selfsim, n)] == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve(demo):
    pairs = list(_imported_names(demo))
    assert pairs, f"{demo.name} imports nothing from selfsim"
    assert _unresolved(pairs) == []
