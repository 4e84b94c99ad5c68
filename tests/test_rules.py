"""The shared refusal rules stay written once, in ``selfsim.errors``.

The package is read with ``ast``: outside ``errors.py`` no module raises
the sign rule's classes itself or tests for a numpy integer, so a
hand-written copy of the sign or the count rule fails here.
"""

import ast
from pathlib import Path

import selfsim

PACKAGE = Path(selfsim.__file__).parent
SIGN_RULE_CLASSES = {"NonPositiveScale", "TimeNonPositive", "EpsNonPositive"}


def _name(node) -> str | None:
    """The name a raised expression refers to: X, X(...), mod.X or mod.X(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _copies(source: str):
    """(line, what) for each hand-written copy of the sign or count rule in a module's source."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and _name(node.exc) in SIGN_RULE_CLASSES:
            yield node.lineno, f"raise {_name(node.exc)}"
        if (isinstance(node, ast.Attribute) and node.attr == "integer"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno, f"{node.value.id}.integer"


def test_sign_and_count_rules_are_written_once():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py")
    assert len(modules) > 5
    found = [f"{p.name}:{line}: {what}" for p in modules for line, what in _copies(p.read_text())]
    assert found == [], "use errors._check_positive and errors._check_integer instead"


def test_the_scan_sees_each_form_of_a_copy():
    source = (
        "import numpy as np\n"
        "def f(t, n, eps):\n"
        "    if not t > 0:\n"
        "        raise TimeNonPositive(f't = {t}')\n"
        "    if not isinstance(n, (int, np.integer)):\n"
        "        raise errors.NonPositiveScale\n"
        "    raise EpsNonPositive\n"
    )
    assert sorted(_copies(source)) == [(4, "raise TimeNonPositive"), (5, "np.integer"),
                                       (6, "raise NonPositiveScale"), (7, "raise EpsNonPositive")]
