"""Self-checks stay alive under ``python -O``: the package raises typed
errors, never ``assert`` statements or bare ``AssertionError``."""

import ast
from pathlib import Path

import lindisc

SOURCES = sorted(Path(lindisc.__file__).parent.glob("*.py"))


def _raises_assertion_error(node):
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_sources_found():
    assert any(path.name == "discs.py" for path in SOURCES)


def test_no_assert_statements_or_assertion_errors():
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _raises_assertion_error(node)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"use CertificateError, not assert: {offenders}"


# where each arithmetic kernel may live: a second product or fold of F_q
# coordinates would have to name one of these and so shows up here, and
# a second square-and-multiply would have to halve its exponent
CONVOLVE_HOMES = {"laurent._convolve"}
FOLD_HOMES = {
    "field.FieldParams.__init__",
    "field.FieldParams.mul_rows",
    "laurent._convolve",
}
POWER_HOMES = {"field.FieldParams.pow_rows", "laurent.LaurentSeries.__pow__"}


def _kernel_uses(module, source):
    """(qualified scope, kind) for every ``np.convolve`` call, every read
    of ``_reduction_rows`` and every ``n >>= 1`` in the source of ``module``."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "convolve"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            uses.append((scope, "convolve"))
        if isinstance(node, ast.Attribute) and node.attr == "_reduction_rows":
            uses.append((scope, "fold"))
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.RShift)
            and isinstance(node.value, ast.Constant)
            and node.value.value == 1
        ):
            uses.append((scope, "power"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return uses


def _misplaced(uses):
    homes = {"convolve": CONVOLVE_HOMES, "fold": FOLD_HOMES, "power": POWER_HOMES}
    return [(scope, kind) for scope, kind in uses if scope not in homes[kind]]


def test_one_convolution_and_one_fold():
    offenders, seen = [], set()
    for path in SOURCES:
        uses = _kernel_uses(path.stem, path.read_text(encoding="utf-8"))
        seen.update(uses)
        offenders += _misplaced(uses)
    assert not offenders, f"a second F_q product, fold or power: {offenders}"
    assert ("laurent._convolve", "convolve") in seen
    assert ("laurent._convolve", "fold") in seen
    assert ("field.FieldParams.pow_rows", "power") in seen


def test_kernel_walk_flags_a_second_product():
    source = (
        "import numpy as np\n"
        "class LaurentSeries:\n"
        "    def scale(self, c):\n"
        "        return np.convolve(self.coeffs, c) @ self.field._reduction_rows\n"
        "    def power(self, n):\n"
        "        while n:\n"
        "            n >>= 1\n"
    )
    assert _misplaced(_kernel_uses("laurent", source)) == [
        ("laurent.LaurentSeries.scale", "convolve"),
        ("laurent.LaurentSeries.scale", "fold"),
        ("laurent.LaurentSeries.power", "power"),
    ]
