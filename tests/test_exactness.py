"""Every decision in the package is exact: no module under ``src/hitbox``
holds a float constant, calls ``float``, calls ``math.sqrt``, ``math.log``
or ``math.exp``, or imports a process pool (``concurrent`` or
``multiprocessing``), outside the allow-list below."""

import ast
from pathlib import Path

import pytest

import hitbox

SRC = Path(hitbox.__file__).resolve().parent

# (module, qualified name) of each scope allowed a float: the report's
# indeterminate share is a figure for the reader, and no verdict reads it
ALLOWED = {("harness", "EquivalenceReport.indeterminate_fraction")}

_MATH_FLOATS = {"sqrt", "log", "exp"}
_POOL_MODULES = {"concurrent", "multiprocessing"}


def inexact_uses(source: str) -> list[tuple[str, int, str]]:
    """(qualified scope, line, source text) of each forbidden node in
    ``source``; the scope is "" at module level."""
    found = []
    math_names = set()  # names bound to the math module

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        bad = False
        if isinstance(node, ast.Constant):
            bad = isinstance(node.value, float)
        elif isinstance(node, ast.Call):
            bad = isinstance(node.func, ast.Name) and node.func.id == "float"
        elif isinstance(node, ast.Attribute):
            bad = (
                isinstance(node.value, ast.Name)
                and node.value.id in math_names
                and node.attr in _MATH_FLOATS
            )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "math":
                    math_names.add(alias.asname or "math")
                bad |= alias.name.split(".")[0] in _POOL_MODULES
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            bad = root in _POOL_MODULES or (
                root == "math" and any(a.name in _MATH_FLOATS for a in node.names)
            )
        if bad:
            found.append((scope, node.lineno, ast.get_source_segment(source, node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_no_float_or_process_pool_in_the_package():
    found = [
        (path.stem, *use)
        for path in sorted(SRC.glob("*.py"))
        for use in inexact_uses(path.read_text())
        if (path.stem, use[0]) not in ALLOWED
    ]
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "survival = [1.0] * 3",
        "def f(n):\n    return float(n)",
        "import math\nr = math.sqrt(2)",
        "import math as m\nr = m.log(2)",
        "from math import exp",
        "import multiprocessing",
        "from concurrent.futures import ProcessPoolExecutor",
        "import concurrent.futures",
    ],
)
def test_each_inexact_form_is_found(source):
    assert len(inexact_uses(source)) == 1


def test_exact_forms_pass_and_a_finding_names_its_scope():
    assert inexact_uses("import math\nr = math.isqrt(2) + math.gcd(4, 6)\ns: float = 1") == []
    assert inexact_uses("class R:\n    def share(self):\n        return 0.0") == [("R.share", 3, "0.0")]
