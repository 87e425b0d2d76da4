"""Self-checks stay alive under ``python -O``: the package raises typed
errors, never ``assert`` statements or bare ``AssertionError``."""

import ast
from pathlib import Path

import lindisc

SOURCES = sorted(Path(lindisc.__file__).parent.glob("*.py"))
BENCH = Path(__file__).resolve().parent.parent / "bench"


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
# the one p-adic split n = p^s·u: a second one would loop while p | n.
# It lives in ``field``, below ``laurent``'s powers
SPLIT_HOMES = {"field.p_split"}
# the readers of the closed-form small-divisor valuations: the product
# formula's one integer pass and the divisor table's check.  A per-term
# loop over them, or a per-value wrapper, would call it elsewhere
LEADS_HOMES = {
    "multiplier.product_small_divisors",
    "schroder._small_divisors",
}
# the one reader of the memory budget of stacked products: every batch
# is sized by ``_per_batch``, so a second rule would load or import
# ``_STACK_BYTES``; the budget is bound once, at the top of ``laurent``
BUDGET_HOMES = {"laurent._per_batch"}
BINDING_HOMES = {"laurent"}
# the callers of ``LaurentSeries._of``, which skips ``__init__``'s
# reduction mod p: results the series arithmetic, the dense engine, the
# divisor table and the binomial recurrence's products form already
# reduced.  Parsed input never reaches it
REDUCED_HOMES = {
    "laurent.LaurentSeries.__add__",
    "laurent.LaurentSeries.__neg__",
    "laurent.LaurentSeries.__mul__",
    "laurent.LaurentSeries.scale",
    "laurent.LaurentSeries.shift",
    "laurent.LaurentSeries.inverse",
    "laurent.LaurentSeries.__pow__",
    "_dense.DensePoly.column",
    "schroder._DivisorTable.__getitem__",
    "schroder._solve_binomial.coefficient",
}
# the one caller of ``DensePoly._mask_all``: the running sum is the only
# polynomial with horizons inside its windows, and products of exact-start
# powers write nothing at or past theirs, so a mask after a product would
# clear nothing
MASK_HOMES = {"_dense.DensePoly.add_scaled"}
# the Lemma bound is read in integers only, over one common denominator
# of the conjugacy's ``ValuationTable``: a second, Fraction-valued reader
# would call ``lemma_bound`` without ``den`` or build a ``Fraction`` per
# degree inside a loop of ``discs``.  Neither has a home
FRACTION_HOMES = set()
# the one Horner over series: a second evaluator of a polynomial in x,
# Horner or term by term, multiplies by a power of the point inside a
# loop that adds up a sum (``… * (x ** …)`` and ``… + …``)
HORNER_HOMES = {"powerseries.eval_table"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


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


def _sums_powers_of(nodes, params):
    """True when ``nodes`` add up a sum and multiply by a power of one of
    ``params``: a binary ``+`` or ``+=`` (or a ``sum(...)`` call) and a
    product ``… * (x ** …)`` with x in ``params``."""
    nodes = [sub for node in nodes for sub in ast.walk(node)]

    def param_power(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Name)
            and node.left.id in params
        )

    adds = any(
        isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Add)
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
        for node in nodes
    )
    return adds and any(
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and (param_power(node.left) or param_power(node.right))
        for node in nodes
    )


def _kernel_uses(module, source):
    """(qualified scope, kind) for every ``np.convolve`` call and every
    ``correlate`` or ``_correlate`` call (the C call behind it), every read
    of ``_reduction_rows``, every ``n >>= 1``, every ``count_resonant(...)``
    and ``small_divisor_leads(...)`` call, every ``._of(...)`` call,
    every ``while … % p == 0`` loop, every strided view (an ``np.ndarray(...)`` call given strides,
    an ``as_strided`` or ``sliding_window_view`` call), every load, import
    and binding of ``_STACK_BYTES`` and, in ``schroder``, every
    ``.inverse()`` and ``_invert_unit(...)`` call, every
    ``._mask_all(...)`` call, every ``lemma_bound(...)`` call without
    ``den``, in ``discs``, every ``Fraction(...)`` built inside the
    body of a ``for`` or ``while`` or a comprehension, and every loop or
    comprehension that sums powers of its function's parameters
    (``_sums_powers_of``) in the source of ``module``."""
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

    def visit(node, scope, looped=False, params=frozenset()):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.FunctionDef):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if isinstance(node, (ast.For, ast.While)) and _sums_powers_of(node.body, params):
            uses.append((scope, "horner"))
        if function_call(node, "sum") and _sums_powers_of([node], params):
            uses.append((scope, "horner"))
        if numpy_call(node, "convolve") or any(
            method_call(node, name) or function_call(node, name)
            for name in ("correlate", "_correlate")
        ):
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
        if function_call(node, "small_divisor_leads") or method_call(
            node, "small_divisor_leads"
        ):
            uses.append((scope, "leads"))
        if method_call(node, "_of"):
            uses.append((scope, "reduced"))
        if method_call(node, "_mask_all"):
            uses.append((scope, "mask"))
        if (
            (function_call(node, "lemma_bound") or method_call(node, "lemma_bound"))
            and len(node.args) < 4
            and not any(k.arg == "den" for k in node.keywords)
        ):
            uses.append((scope, "fraction"))
        if module == "discs" and looped and function_call(node, "Fraction"):
            uses.append((scope, "fraction"))
        if isinstance(node, ast.While) and _divisible_by_p(node.test):
            uses.append((scope, "split"))
        name = getattr(node, "id", getattr(node, "attr", None))
        if name == "_STACK_BYTES" and isinstance(node, (ast.Name, ast.Attribute)):
            uses.append((scope, "budget" if isinstance(node.ctx, ast.Load) else "binding"))
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == "_STACK_BYTES" for alias in node.names
        ):
            uses.append((scope, "budget"))
        body = node.body if isinstance(node, (ast.For, ast.While)) else ()
        looped = looped or isinstance(node, COMPREHENSIONS)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, looped or any(child is stmt for stmt in body), params)

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
        "leads": LEADS_HOMES,
        "budget": BUDGET_HOMES,
        "binding": BINDING_HOMES,
        "reduced": REDUCED_HOMES,
        "mask": MASK_HOMES,
        "fraction": FRACTION_HOMES,
        "horner": HORNER_HOMES,
    }
    return [(scope, kind) for scope, kind in uses if scope not in homes[kind]]


def test_one_convolution_and_one_fold():
    offenders, seen, bindings = [], set(), []
    for path in SOURCES:
        uses = _kernel_uses(path.stem, path.read_text(encoding="utf-8"))
        seen.update(uses)
        offenders += _misplaced(uses)
        bindings += [use for use in uses if use[1] == "binding"]
    assert not offenders, (
        f"a second F_q product, fold, power or windowed view, small-divisor "
        f"quotient, Lemma bound, p-adic split, small-divisor term loop, "
        f"memory budget, unreduced series, mask, Fraction-valued Lemma "
        f"bound reader or Horner: {offenders}"
    )
    assert ("laurent._convolve", "convolve") in seen
    assert ("laurent._convolve", "window") in seen
    assert ("laurent._convolve", "fold") in seen
    assert ("field.FieldParams.pow_rows", "power") in seen
    assert ("schroder._small_divisors", "divide") in seen
    assert ("multiplier.lemma_bound", "lemma") in seen
    assert ("field.p_split", "split") in seen
    assert {(home, "reduced") for home in REDUCED_HOMES} <= seen
    assert {(home, "leads") for home in LEADS_HOMES} <= seen
    assert ("laurent._per_batch", "budget") in seen
    assert ("_dense.DensePoly.add_scaled", "mask") in seen
    assert [use for use in seen if use[1] == "horner"] == [("powerseries.eval_table", "horner")]
    assert bindings == [("laurent", "binding")]  # the budget is bound once


def test_kernel_walk_flags_a_second_budget_read():
    source = (
        "from .laurent import _STACK_BYTES, _per_batch\n"
        "import lindisc.laurent\n"
        "def _per_batch(item_bytes):\n"
        "    return max(1, _STACK_BYTES // item_bytes)\n"
        "class DensePoly:\n"
        "    def mul(self, other):\n"
        "        step = max(1, _STACK_BYTES // 8)\n"
        "        cap = lindisc.laurent._STACK_BYTES\n"
        "        lindisc.laurent._STACK_BYTES = 1\n"
        "        return _per_batch(8)\n"
    )
    assert _misplaced(_kernel_uses("_dense", source)) == [
        ("_dense", "budget"),
        ("_dense._per_batch", "budget"),
        ("_dense.DensePoly.mul", "budget"),
        ("_dense.DensePoly.mul", "budget"),
        ("_dense.DensePoly.mul", "binding"),
    ]
    # in ``laurent`` the helper is the home, and the module level binds
    laurent = "_STACK_BYTES = 32 << 20\n" + source.split("\n", 2)[2]
    assert _misplaced(_kernel_uses("laurent", laurent)) == [
        ("laurent.DensePoly.mul", "budget"),
        ("laurent.DensePoly.mul", "budget"),
        ("laurent.DensePoly.mul", "binding"),
    ]


def test_kernel_walk_flags_a_second_product():
    source = (
        "import numpy as np\n"
        "class LaurentSeries:\n"
        "    def scale(self, c):\n"
        "        return np.convolve(self.coeffs, c) @ self.field._reduction_rows\n"
        "    def power(self, n):\n"
        "        while n:\n"
        "            n >>= 1\n"
        "    def slide(self, b):\n"
        "        return _correlate(self.coeffs, b, 2), multiarray.correlate(b, b, 2)\n"
    )
    assert _misplaced(_kernel_uses("laurent", source)) == [
        ("laurent.LaurentSeries.scale", "convolve"),
        ("laurent.LaurentSeries.scale", "fold"),
        ("laurent.LaurentSeries.power", "power"),
        ("laurent.LaurentSeries.slide", "convolve"),
        ("laurent.LaurentSeries.slide", "convolve"),
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
    assert _misplaced(_kernel_uses("field", source)) == [
        ("field.small_divisor_valuation", "split"),
        ("field.small_divisor_valuation", "split"),
    ]
    # the one home is in ``field``: a split left behind elsewhere is a second
    assert _misplaced(_kernel_uses("multiplier", source))[0] == ("multiplier.p_split", "split")


def test_kernel_walk_flags_an_unreduced_series_from_parsed_input():
    source = (
        "from .laurent import LaurentSeries\n"
        "class LaurentSeries:\n"
        "    def __mul__(self, other):\n"
        "        return LaurentSeries._of(self.field, self.ram, 0, conv, prec, exact)\n"
        "    def scale(self, c):\n"
        "        return type(self)._of(self.field, self.ram, self.lead, out, self.prec)\n"
        "def parse_series(text, field, ram=1, prec=16):\n"
        "    return LaurentSeries._of(field, ram, lead, arr, prec, True)\n"
        "def _of(field, rows):\n"
        "    return LaurentSeries(field, 1, 0, rows, 1)\n"
    )
    assert _misplaced(_kernel_uses("laurent", source)) == [
        ("laurent.parse_series", "reduced"),
    ]
    # the arithmetic's homes are homes in ``laurent`` only
    assert _misplaced(_kernel_uses("cli", source)) == [
        ("cli.LaurentSeries.__mul__", "reduced"),
        ("cli.LaurentSeries.scale", "reduced"),
        ("cli.parse_series", "reduced"),
    ]


def test_kernel_walk_flags_a_mask_after_a_product():
    source = (
        "class DensePoly:\n"
        "    def mul(self, other):\n"
        "        out = DensePoly(self.field, self.ram, self.D, self.W)\n"
        "        out._mask_all(start)\n"
        "        return out\n"
        "    def add_scaled(self, series, other):\n"
        "        self._mask_all(lo)\n"
    )
    assert _misplaced(_kernel_uses("_dense", source)) == [("_dense.DensePoly.mul", "mask")]
    # the sum is the home in the dense engine only
    assert _misplaced(_kernel_uses("schroder", source)) == [
        ("schroder.DensePoly.mul", "mask"),
        ("schroder.DensePoly.add_scaled", "mask"),
    ]


def test_kernel_walk_flags_a_fourth_small_divisor_reader():
    """A per-value wrapper and a per-term sum are readers past the two
    homes, the product formula and the divisor table."""
    source = (
        "from . import multiplier\n"
        "def small_divisor_valuation(profile, n):\n"
        "    return small_divisor_leads(profile, *p_split(n, profile.p))\n"
        "def product_small_divisors(profile, N):\n"
        "    return small_divisor_leads(profile, ss, us).sum()\n"
        "def certify_divergence(profile, Nmax):\n"
        "    return sum(\n"
        "        multiplier.small_divisor_leads(profile, *p_split(i * p, p))\n"
        "        for i in range(1, p ** (Nmax - 1) + 1)\n"
        "    ), small_divisor_leads\n"
    )
    assert _misplaced(_kernel_uses("multiplier", source)) == [
        ("multiplier.small_divisor_valuation", "leads"),
        ("multiplier.certify_divergence", "leads"),
    ]
    # the table's check is a home in the solvers' module only
    table = (
        "def _small_divisors(profile, ss, us):\n"
        "    return small_divisor_leads(profile, ss, us)\n"
    )
    assert _misplaced(_kernel_uses("schroder", table)) == []
    assert _misplaced(_kernel_uses("multiplier", table)) == [
        ("multiplier._small_divisors", "leads"),
    ]


def test_kernel_walk_flags_a_fraction_valued_lemma_bound_reader():
    source = (
        "from fractions import Fraction\n"
        "from . import multiplier\n"
        "def degree_on_sigma(g, profile, A, kp, den, table):\n"
        "    exact = lemma_bound(profile, A, kp, den), lemma_bound(profile, A, kp, den=den)\n"
        "    bound = lemma_bound(profile, A, kp)\n"
        "    other = multiplier.lemma_bound(profile, A, kp)\n"
        "    for k in range(1, g.D + 1):\n"
        "        t = Fraction(table.lead[k], table.ram) + k\n"
        "        while t:\n"
        "            t = Fraction(t) - 1\n"
        "    return Fraction(exact[0], den), [Fraction(k) for k in range(3)]\n"
    )
    assert _misplaced(_kernel_uses("discs", source)) == [
        ("discs.degree_on_sigma", "fraction"),
        ("discs.degree_on_sigma", "fraction"),
        ("discs.degree_on_sigma", "fraction"),
        ("discs.degree_on_sigma", "fraction"),
        ("discs.degree_on_sigma", "fraction"),
    ]
    # a Fraction built in a loop is a Lemma-bound reader in ``discs`` only;
    # a bound without ``den`` is one anywhere
    assert _misplaced(_kernel_uses("schroder", source)) == [
        ("schroder.degree_on_sigma", "fraction"),
        ("schroder.degree_on_sigma", "fraction"),
    ]


def test_kernel_walk_flags_a_second_horner():
    """A term sum of a polynomial in x is a second evaluator, as a loop
    or as a ``sum`` over a comprehension; powers of a coefficient, as in
    ``solve_sfe_multinomial``, and row kernels that multiply by a formed
    power, as in ``discs._eval_rows``, are not."""
    source = (
        "def eval_table(table, x):\n"
        "    acc = table[degs[0]]\n"
        "    for prev, nxt in zip(degs, degs[1:]):\n"
        "        acc = acc * (x ** (prev - nxt)) + table[nxt]\n"
        "    return acc * (x ** degs[-1]) if degs[-1] else acc\n"
        "def ps_derivative_at(f, x):\n"
        "    acc = None\n"
        "    for d, a in sorted(_table_derivative(f.coeffs, f.field.p).items()):\n"
        "        term = a * (x ** d) if d else a\n"
        "        acc = term if acc is None else acc + term\n"
        "    return acc\n"
        "def ps_eval(f, x):\n"
        "    return sum(a * x**i for i, a in f.coeffs.items())\n"
        "def solve_sfe_multinomial(f, D, window=32):\n"
        "    for i in degrees:\n"
        "        term = term * f.coeffs[i] ** alpha[i]\n"
        "        total = term if total is None else total + term\n"
        "def _eval_rows(field_, poly, xs):\n"
        "    for prev, nxt in zip(degs, degs[1:]):\n"
        "        acc = (field_.mul_rows(acc, power(prev - nxt)) + poly[nxt]) % field_.p\n"
        "def _lucas(n, k, p):\n"
        "    while p**digits <= top:\n"
        "        digits += 1\n"
    )
    assert _misplaced(_kernel_uses("powerseries", source)) == [
        ("powerseries.ps_derivative_at", "horner"),
        ("powerseries.ps_eval", "horner"),
    ]
    # the one home is in ``powerseries``: Horner anywhere else is a second
    assert _misplaced(_kernel_uses("discs", source))[0] == ("discs.eval_table", "horner")


def _uncalled(package, others):
    """Qualified names of the top-level public functions and classes of
    ``package`` (module name -> source) that no source loads by name,
    as ``f`` or ``module.f``: neither a module of ``package`` outside the
    definition's own body nor any of ``others``.  Imports, and with them
    ``__init__``'s re-exports, load nothing."""
    defined, loaded = [], set()

    def loads(node, own=None):
        return {
            getattr(sub, "id", getattr(sub, "attr", None))
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
        } - {own}

    for module, source in package.items():
        for node in ast.parse(source).body:
            definition = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if definition and not node.name.startswith("_"):
                defined.append((module, node.name))
            loaded |= loads(node, node.name if definition else None)
    for source in others:
        loaded |= loads(ast.parse(source))
    return sorted(f"{module}.{name}" for module, name in defined if name not in loaded)


def test_every_public_function_has_a_caller():
    """Code that only tests run lives in ``tests/oracles.py``: every
    public function and class of the package is called by the package
    or by the benchmark in ``bench/``."""
    package = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    bench = [path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py"))]
    assert bench, "the benchmark's sources are part of the walk"
    offenders = _uncalled(package, bench)
    assert not offenders, f"no caller outside tests; move to tests/oracles.py: {offenders}"


def test_public_walk_flags_an_uncalled_function():
    package = {
        "__init__": "from .schroder import Table, helper, oracle, solve\n",
        "schroder": (
            "from .powerseries import eval_table\n"
            "def oracle(f, g, x):\n"
            "    return oracle(f, g, x - 1) if x else helper(g)\n"
            "def helper(g):\n"
            "    return g\n"
            "class Table:\n"
            "    def read(self):\n"
            "        return Table()\n"
            "def solve(f):\n"
            "    return _private(f)\n"
            "def _private(f):\n"
            "    return f\n"
        ),
        "powerseries": "def eval_table(table, x):\n    return x\n",
    }
    bench = ["import lindisc.schroder as schroder\nrun = schroder.solve\n"]
    # the own body, a re-export and an import are no callers; a function
    # only an uncalled one calls, as ``helper``, still has one
    assert _uncalled(package, bench) == [
        "powerseries.eval_table",
        "schroder.Table",
        "schroder.oracle",
    ]
    # without the benchmark, ``solve`` has no caller
    assert "schroder.solve" in _uncalled(package, [])


def _sliced_products(source):
    """Lines where a ``_convolve(...)`` call's result is subscripted where
    it is made: a product cut after it is formed, not by ``keep``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", getattr(node.value.func, "attr", None))
        == "_convolve"
    )


def test_products_are_cut_by_keep():
    """Every caller asks ``_convolve`` for the rows it keeps, so no
    product forms rows that are thrown away."""
    offenders = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _sliced_products(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, f"pass keep to _convolve, do not slice its result: {offenders}"


def test_product_walk_flags_a_sliced_result():
    source = (
        "import numpy as np\n"
        "from . import laurent\n"
        "def table(params, a, b, k):\n"
        "    x = _convolve(params, a, b)[:k]\n"
        "    y = laurent._convolve(params, a, b)[..., :k, :]\n"
        "    z = _convolve(params, a[:k], b[0], k)\n"
        "    w = np.convolve(a, b)[:k], _convolve\n"
        "    return _convolve(params, x, y, k, z[0])[0]\n"
    )
    assert _sliced_products(source) == [4, 5, 8]


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


# numpy's Python-level wrappers, a fixed cost per call that a loop pays
# at every step: these functions, and the ndarray methods that run
# through ``numpy/_core/_methods.py``.  Inside a loop, call the ufunc
# reductions (``np.minimum.reduce``, ``laurent._any``) and the C-level
# ndarray methods (``.nonzero()``, ``.searchsorted()``) instead
LOOP_METHODS = {"any", "all", "min", "max", "sum"}
LOOP_WRAPPERS = {"flatnonzero", "nonzero", "argmax", "argmin", "searchsorted", "where"}
LOOP_WRAPPERS |= LOOP_METHODS | {"amin", "amax", "convolve", "correlate"}


def _wrappers_in_loops(source):
    """(line, call) for every ``np.<wrapper>(...)`` and ``.<method>(...)``
    call of the lists above inside the body of a ``for`` or ``while``."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in (node for stmt in loop.body for node in ast.walk(stmt)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name, owner = node.func.attr, node.func.value
            if isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
                if name in LOOP_WRAPPERS:
                    found.add((node.lineno, f"{owner.id}.{name}"))
            elif name in LOOP_METHODS:
                found.add((node.lineno, f".{name}"))
    return sorted(found)


def test_no_numpy_wrappers_in_loop_bodies():
    offenders = [
        f"{path.name}:{line} {call}"
        for path in SOURCES
        for line, call in _wrappers_in_loops(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, f"use ufunc reductions and ndarray methods in loops: {offenders}"


def test_loop_walk_flags_each_wrapper():
    source = (
        "import numpy as np\n"
        "def step(rows, j):\n"
        "    first = np.flatnonzero(rows)\n"
        "    for i in range(j):\n"
        "        live = np.flatnonzero(rows[i]), np.nonzero(rows), numpy.where(rows)\n"
        "        lo, hi = rows.min(), rows[i].max(axis=0)\n"
        "        while rows.any() and not rows.all():\n"
        "            k = np.argmax(rows) + np.argmin(rows) + np.searchsorted(rows, j)\n"
        "            total = rows.sum(axis=1) + np.sum(rows) + sum(rows)\n"
        "    ok = rows.any(), np.minimum.reduce(rows), rows.nonzero()[0], _any(rows, axis=1)\n"
        "    for i in range(j):\n"
        "        lo = np.minimum.reduce(rows[i]), rows.nonzero()[0], rows.searchsorted(j)\n"
        "        flags = np.logical_or.reduce(rows, axis=1), np.convolve(rows, rows)\n"
    )
    assert _wrappers_in_loops(source) == [
        (5, "np.flatnonzero"),
        (5, "np.nonzero"),
        (5, "numpy.where"),
        (6, ".max"),
        (6, ".min"),
        (7, ".all"),
        (7, ".any"),
        (8, "np.argmax"),
        (8, "np.argmin"),
        (8, "np.searchsorted"),
        (9, ".sum"),
        (9, "np.sum"),
        (13, "np.convolve"),
    ]
