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
# where a strided view of sliding windows may be built: the batched path
# of ``_convolve``.  A second windowed product would build one too
WINDOW_HOMES = {"laurent._convolve"}
# where each resonance rule may live: a second division by a small
# divisor would call ``.inverse()`` or ``_invert_unit`` in the solvers'
# module, and a second Lemma bound (or any other formula in the
# resonance count) would call ``count_resonant``
DIVIDE_HOMES = {"schroder._small_divisors"}
LEMMA_HOMES = {"multiplier.lemma_bound"}
# the one p-adic split n = p^s·u: a second one would loop while p | n
SPLIT_HOMES = {"multiplier.p_split"}


def _divisible_by_p(test):
    """True for a test ``… % p == 0`` (``p`` a name or an attribute)."""
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.BinOp)
        and isinstance(test.left.op, ast.Mod)
        and getattr(test.left.right, "id", getattr(test.left.right, "attr", None)) == "p"
        and [type(op) for op in test.ops] == [ast.Eq]
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == 0
    )


def _kernel_uses(module, source):
    """(qualified scope, kind) for every ``np.convolve`` call, every read
    of ``_reduction_rows``, every ``n >>= 1``, every ``count_resonant(...)``
    call, every ``while … % p == 0`` loop, every strided view (an
    ``np.ndarray(...)`` call given strides, an ``as_strided`` or
    ``sliding_window_view`` call) and, in ``schroder``, every
    ``.inverse()`` and ``_invert_unit(...)`` call in the source of ``module``."""
    uses = []

    def method_call(node, name):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
        )

    def function_call(node, name):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        )

    def numpy_call(node, name):
        return (
            method_call(node, name)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        )

    def strided_view(node):
        # np.ndarray(shape, dtype, buffer, offset, strides, ...)
        if numpy_call(node, "ndarray"):
            return len(node.args) >= 5 or any(k.arg == "strides" for k in node.keywords)
        return any(
            method_call(node, name) or function_call(node, name)
            for name in ("as_strided", "sliding_window_view")
        )

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if numpy_call(node, "convolve"):
            uses.append((scope, "convolve"))
        if strided_view(node):
            uses.append((scope, "window"))
        if isinstance(node, ast.Attribute) and node.attr == "_reduction_rows":
            uses.append((scope, "fold"))
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.RShift)
            and isinstance(node.value, ast.Constant)
            and node.value.value == 1
        ):
            uses.append((scope, "power"))
        if module == "schroder" and (
            method_call(node, "inverse") or function_call(node, "_invert_unit")
        ):
            uses.append((scope, "divide"))
        if function_call(node, "count_resonant"):
            uses.append((scope, "lemma"))
        if isinstance(node, ast.While) and _divisible_by_p(node.test):
            uses.append((scope, "split"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return uses


def _misplaced(uses):
    homes = {
        "convolve": CONVOLVE_HOMES,
        "fold": FOLD_HOMES,
        "power": POWER_HOMES,
        "window": WINDOW_HOMES,
        "divide": DIVIDE_HOMES,
        "lemma": LEMMA_HOMES,
        "split": SPLIT_HOMES,
    }
    return [(scope, kind) for scope, kind in uses if scope not in homes[kind]]


def test_one_convolution_and_one_fold():
    offenders, seen = [], set()
    for path in SOURCES:
        uses = _kernel_uses(path.stem, path.read_text(encoding="utf-8"))
        seen.update(uses)
        offenders += _misplaced(uses)
    assert not offenders, (
        f"a second F_q product, fold, power or windowed view, small-divisor "
        f"quotient, Lemma bound or p-adic split: {offenders}"
    )
    assert ("laurent._convolve", "convolve") in seen
    assert ("laurent._convolve", "window") in seen
    assert ("laurent._convolve", "fold") in seen
    assert ("field.FieldParams.pow_rows", "power") in seen
    assert ("schroder._small_divisors", "divide") in seen
    assert ("multiplier.lemma_bound", "lemma") in seen
    assert ("multiplier.p_split", "split") in seen


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


def test_kernel_walk_flags_a_second_windowed_product():
    source = (
        "import numpy as np\n"
        "from numpy.lib.stride_tricks import as_strided, sliding_window_view\n"
        "def _convolve(params, a, b):\n"
        "    return np.ndarray((2, 3), np.int64, a, 0, (8, 8)) @ b\n"
        "class DensePoly:\n"
        "    def mul(self, other):\n"
        "        w = np.ndarray(shape=(2, 3), dtype=np.int64, buffer=self.data, strides=(8, 8))\n"
        "        x = np.lib.stride_tricks.as_strided(self.data, (2, 3), (8, 8))\n"
        "        y = as_strided(self.data, (2, 3), (8, 8))\n"
        "        z = sliding_window_view(self.data, 3)\n"
        "        return np.ndarray((2, 3), np.int64), np.ndarray((2,), np.int64, self.data)\n"
    )
    assert _misplaced(_kernel_uses("laurent", source)) == [
        ("laurent.DensePoly.mul", "window"),
        ("laurent.DensePoly.mul", "window"),
        ("laurent.DensePoly.mul", "window"),
        ("laurent.DensePoly.mul", "window"),
    ]
    # in another module the one home is not a home
    assert _misplaced(_kernel_uses("_dense", source))[0] == ("_dense._convolve", "window")


def test_kernel_walk_flags_a_second_quotient_and_bound():
    source = (
        "def solve(s, div, window, profile, A, k):\n"
        "    b = s * div.truncate_relative(window).inverse()\n"
        "    c = s * _invert_unit(div.field, div.coeffs[None], window)[0]\n"
        "    return b, c, (k - 1) * A - profile.v_m.value * count_resonant(profile, k)\n"
        "def _small_divisors(profile, ks, window):\n"
        "    return _invert_unit(profile.lam.field, ks, window), profile.lam.inverse()\n"
    )
    assert _misplaced(_kernel_uses("schroder", source)) == [
        ("schroder.solve", "divide"),
        ("schroder.solve", "divide"),
        ("schroder.solve", "lemma"),
    ]
    # the same calls outside the solvers' module are not quotients
    assert _misplaced(_kernel_uses("laurent", source)) == [("laurent.solve", "lemma")]


def test_kernel_walk_flags_a_second_p_split():
    source = (
        "def p_split(n, p):\n"
        "    while n % p == 0:\n"
        "        n //= p\n"
        "def small_divisor_valuation(profile, n):\n"
        "    p = profile.p\n"
        "    while n % p == 0:\n"
        "        n //= p\n"
        "    while n % profile.p == 0:\n"
        "        n //= profile.p\n"
        "    while n % 2 == 0 or n % p:\n"
        "        n //= 2\n"
    )
    assert _misplaced(_kernel_uses("multiplier", source)) == [
        ("multiplier.small_divisor_valuation", "split"),
        ("multiplier.small_divisor_valuation", "split"),
    ]


# the regular-expression calls whose patterns the walk below reads
RE_CALLS = {"compile", "match", "fullmatch", "search"}


def _re_patterns(source):
    """(line, pattern text) for every ``re.compile``, ``re.match``,
    ``re.fullmatch`` and ``re.search`` call in ``source``.  A pattern is
    read through string literals, f-strings, ``+`` and module-level names
    bound to those; any other part reads as empty."""
    tree = ast.parse(source)
    names = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    }

    def text(node, outer=()):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            return "".join(text(part, outer) for part in node.values)
        if isinstance(node, ast.FormattedValue):
            return text(node.value, outer)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return text(node.left, outer) + text(node.right, outer)
        if isinstance(node, ast.Name) and node.id in names and node.id not in outer:
            return text(names[node.id], outer + (node.id,))
        return ""

    return sorted(
        (node.lineno, text(node.args[0]))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in RE_CALLS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
        and node.args
    )


def _unicode_classes(patterns):
    """Lines whose pattern uses \\d or \\w: both match non-ASCII digits,
    which the literal grammar's integer rule, [0-9]+, excludes."""
    return [line for line, pattern in patterns if "\\d" in pattern or "\\w" in pattern]


def test_no_unicode_digit_classes_in_patterns():
    offenders, seen = [], 0
    for path in SOURCES:
        patterns = _re_patterns(path.read_text(encoding="utf-8"))
        seen += len(patterns)
        offenders += [f"{path.name}:{line}" for line in _unicode_classes(patterns)]
    assert not offenders, f"use [0-9], not \\d or \\w: {offenders}"
    assert seen >= 3  # the element term, the series term and cli._int_of


def test_pattern_walk_flags_unicode_classes():
    source = (
        "import re\n"
        'WORD = r"(?P<name>\\w+)"\n'
        'INT = re.compile(r"-?\\d+")\n'
        'TERM = re.compile(rf"{WORD}\\s*=\\s*[0-9]+")\n'
        "def parse(text):\n"
        '    return re.fullmatch("[0-9]+" + WORD, text), re.match(r"[0-9]+", text)\n'
    )
    assert _unicode_classes(_re_patterns(source)) == [3, 4, 6]


# the names through which a float reaches the arithmetic: infinities and
# NaNs, and the one test that reads them
FLOAT_NAMES = {"inf", "nan", "isinf"}


def _float_uses(source):
    """(line, text) for every float literal, every ``float(...)`` call and
    every use of ``math.inf``, ``math.nan``, ``math.isinf``, ``np.inf`` or
    ``np.nan``, read as an attribute or imported by name."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            uses.append((node.lineno, repr(node.value)))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            uses.append((node.lineno, "float(...)"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("math", "np", "numpy")
            and node.attr in FLOAT_NAMES
        ):
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            uses += [
                (node.lineno, f"{node.module}.{alias.name}")
                for alias in node.names
                if alias.name in FLOAT_NAMES
            ]
    return sorted(uses)


def test_no_floats_in_the_arithmetic():
    offenders = [
        f"{path.name}:{line} {text}"
        for path in SOURCES
        for line, text in _float_uses(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, f"valuations and horizons are exact: {offenders}"


def test_float_walk_flags_each_kind():
    source = (
        "import math\n"
        "from math import inf, isqrt\n"
        "half = 0.5 + 1e3 + 2j\n"
        "def horizon(s):\n"
        "    h = math.inf if s.exact else float(s.prec)\n"
        "    return math.isinf(h), np.inf, numpy.nan, math.nan, math.isqrt(4)\n"
        'version = "0.1.0"\n'
    )
    assert _float_uses(source) == [
        (2, "math.inf"),
        (3, "0.5"),
        (3, "1000.0"),
        (3, "2j"),
        (5, "float(...)"),
        (5, "math.inf"),
        (6, "math.isinf"),
        (6, "math.nan"),
        (6, "np.inf"),
        (6, "numpy.nan"),
    ]
