"""The dense engine against LaurentSeries table arithmetic, with its
window invariant checked after every seeded random operation."""

import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

import lindisc._dense
import lindisc.laurent
from lindisc import CertificateError, FieldParams, LaurentSeries, PowerSeriesMap, parse_series
from lindisc._dense import _INF_CUT, INF, DensePoly
from lindisc.laurent import _convolve
from lindisc.powerseries import _table_mul
from oracles import dense_add_scaled_all_columns, dense_mul_per_column, horizon, solve_sfe_chain


def assert_invariant(poly):
    finite = poly.base < _INF_CUT
    assert (poly.prec[finite] <= poly.base[finite] + poly.W).all()
    exps = poly.base[:, None] + np.arange(poly.W)[None, :]
    beyond = (exps >= poly.prec[:, None]) & finite[:, None]
    assert not poly.data[beyond].any()
    assert not poly.data[~finite].any()


def assert_agrees(poly, table):
    """Every column is the table's value on the column's horizon, and
    that horizon is no further than the table's."""
    zero = LaurentSeries.zero(poly.field, poly.ram, 0, exact=True)
    for d in range(poly.D + 1):
        column, exact = poly.column(d), table.get(d, zero)
        assert column.agrees_with(exact), d
        assert horizon(column) <= horizon(exact), d


def random_rows(field, rng, n):
    return [[rng.randrange(field.p) for _ in range(field.r)] for _ in range(n)]


def random_series(field, ram, rng):
    """Exact or inexact, zero or not: every kind of series the engine takes."""
    kind = rng.choice(["exact", "inexact", "exact-zero", "inexact-zero"])
    lead = rng.randrange(-2, 4)
    if kind == "exact-zero":
        return LaurentSeries.zero(field, ram, 0, exact=True)
    if kind == "inexact-zero":
        return LaurentSeries.zero(field, ram, lead + rng.randrange(0, 6))
    rows = random_rows(field, rng, rng.randrange(1, 16))
    rows[0] = [rng.randrange(1, field.p)] + rows[0][1:]
    if kind == "exact":
        return LaurentSeries(field, ram, lead, rows, lead + len(rows), exact=True)
    return LaurentSeries(field, ram, lead, rows, lead + rng.randrange(1, 16))


def random_map(field, ram, rng, D):
    """Two nonlinear terms up to degree D and one above it."""
    lam = [[rng.randrange(1, field.p)] + [0] * (field.r - 1)] + random_rows(field, rng, 2)
    coeffs = {1: LaurentSeries(field, ram, 0, lam, 3, exact=True)}
    for d in rng.sample(range(2, D + 1), 2) + [rng.randrange(D + 1, 2 * D + 2)]:
        lead = rng.randrange(-1, 3)
        rows = random_rows(field, rng, 2)
        coeffs[d] = LaurentSeries(field, ram, lead, rows, lead + 2, exact=True)
    return PowerSeriesMap(coeffs)


FIELDS = (FieldParams(2), FieldParams(3), FieldParams(2, 2), FieldParams(2, 4))


def random_poly(field, ram, rng, D, W):
    """A DensePoly and its table: leading exact-zero columns, then
    columns of every kind, some left exactly zero."""
    poly, table = DensePoly(field, ram, D, W), {}
    for d in range(rng.randrange(0, D // 2), D + 1):
        if rng.random() < 0.6:
            table[d] = random_series(field, ram, rng)
            poly.set_column(d, table[d])
    return poly, table


def assert_exact_start(poly):
    """Every finite column has the full-window horizon base + W and every
    other column is an exact zero: the operands ``mul`` takes."""
    finite = poly.base < _INF_CUT
    assert (poly.prec[finite] == poly.base[finite] + poly.W).all()
    assert (poly.prec[~finite] == INF).all()
    assert_invariant(poly)


def sparse_series(field, ram, rng, lead):
    """An exact column like those of the Frobenius power f^p: a monomial,
    or digits every p-th row with zero rows between them."""
    rows = [[0] * field.r for _ in range(field.p * rng.randrange(0, 3) + 1)]
    for j in range(0, len(rows), field.p):
        rows[j] = [rng.randrange(1, field.p)] + random_rows(field, rng, 1)[0][1:]
    return LaurentSeries(field, ram, lead, rows, lead + len(rows), exact=True)


def exact_column(field, ram, rng, W, lead=None):
    """An exact map coefficient of a kind the data pass sees: a monomial,
    a sparse column, a column longer than the window, or a random one."""
    kind = rng.choice(["monomial", "sparse", "long", "random"])
    lead = rng.randrange(-2, 4) if lead is None else lead
    if kind == "monomial":
        return LaurentSeries.monomial(field, lead, rng.randrange(1, field.p), ram=ram)
    if kind == "sparse":
        return sparse_series(field, ram, rng, lead)
    n = 2 * W + rng.randrange(1, W + 1) if kind == "long" else rng.randrange(1, 16)
    rows = random_rows(field, rng, n)
    rows[0] = rows[-1] = [rng.randrange(1, field.p)] + rows[0][1:]
    return LaurentSeries(field, ram, lead, rows, lead + n, exact=True)


def exact_map(field, ram, rng, D, W):
    """A map with exact columns of every kind: λ of lead 0, three
    coefficients up to degree D and one above it."""
    coeffs = {1: exact_column(field, ram, rng, W, lead=0)}
    for d in rng.sample(range(2, D + 1), 3) + [rng.randrange(D + 1, 2 * D + 2)]:
        coeffs[d] = exact_column(field, ram, rng, W)
    return PowerSeriesMap(coeffs)


def power(f, k, D, W):
    """f^k as an exact-start power, ``of_map`` and k − 1 products by f,
    and its table."""
    poly, table = DensePoly.of_map(f, D, W), {d: s for d, s in f.coeffs.items() if d <= D}
    for _ in range(k - 1):
        poly, table = poly.mul_by_map(f), _table_mul(table, f.coeffs, D)
    return poly, table


def hollowed(poly, degrees, rng):
    """poly + x − x in place, x exact columns at ``degrees``: still an
    exact-start power of the same table, whose columns at ``degrees`` are
    live and, where poly was an exact zero, hold no data."""
    field, ram = poly.field, poly.ram
    x = DensePoly(field, ram, poly.D, poly.W)
    for d in degrees:
        x.set_column(d, exact_column(field, ram, rng, poly.W))
    one = LaurentSeries.constant(field, 1, ram)
    poly.add_scaled(one, x)
    poly.add_scaled(-one, x)
    return poly


def exact_start(field, ram, rng, D, W):
    """An exact-start power and its table: the columns of a random exact
    map, a power of one, the product of two maps' powers, or a power with
    live columns that hold no data."""
    kind = rng.choice(["map", "power", "two maps", "hollowed"])
    f = exact_map(field, ram, rng, D, W)
    x, x_table = power(f, 1 if kind == "map" else rng.randrange(2, 4), D, W)
    if kind == "two maps":
        y, y_table = power(exact_map(field, ram, rng, D, W), rng.randrange(1, 3), D, W)
        return x.mul(y), _table_mul(x_table, y_table, D)
    if kind == "hollowed":
        hollowed(x, rng.sample(range(D + 1), 3), rng)
    return x, x_table


def test_invariant_and_values_after_every_operation():
    """Sums of general scalar multiples of a general polynomial and of a
    power, and products of the power by a map."""
    rng = random.Random(31)
    D, W = 10, 12
    for field in FIELDS:
        for ram in (1, 2):
            f = random_map(field, ram, rng, D)
            poly, table = DensePoly(field, ram, D, W), {}
            for d in rng.sample(range(D + 1), 4):
                table[d] = random_series(field, ram, rng)
                poly.set_column(d, table[d])
            assert_invariant(poly)
            assert_agrees(poly, table)
            fpow, fpow_table = exact_start(field, ram, rng, D, W)
            acc = DensePoly(field, ram, D, W)
            acc_table = {}
            for _ in range(5):
                for x, x_table in ((poly, table), (fpow, fpow_table)):
                    scalar = random_series(field, ram, rng)
                    acc.add_scaled(scalar, x)
                    for d, s in x_table.items():
                        term = scalar * s
                        acc_table[d] = acc_table[d] + term if d in acc_table else term
                    assert_invariant(acc)
                    assert_agrees(acc, acc_table)
                fpow = fpow.mul_by_map(f)
                fpow_table = _table_mul(fpow_table, f.coeffs, D)
                assert_exact_start(fpow)
                assert_agrees(fpow, fpow_table)


def test_products_of_dense_polynomials():
    """The product of two exact-start powers is one, with the values of
    the product of their tables."""
    rng = random.Random(37)
    D, W = 10, 12
    for field in FIELDS:
        for ram in (1, 2):
            for _ in range(4):
                a, a_table = exact_start(field, ram, rng, D, W)
                b, b_table = exact_start(field, ram, rng, D, W)
                product = a.mul(b)
                assert_exact_start(product)
                assert_agrees(product, _table_mul(a_table, b_table, D))


def times_uniformizer(poly, table):
    """U·poly formed as poly + (U − 1)·poly: each window keeps its base
    and now starts with a zero row."""
    field, ram = poly.field, poly.ram
    unit = [1] + [0] * (field.r - 1)
    rows = [[field.p - 1] + unit[1:], unit]
    u_minus_one = LaurentSeries(field, ram, 0, rows, 2, exact=True)
    out = DensePoly(field, ram, poly.D, poly.W)
    out.add_scaled(LaurentSeries.constant(field, 1, ram), poly)
    out.add_scaled(u_minus_one, poly)
    assert not out.data[out.base < _INF_CUT, 0].any()
    u = LaurentSeries.monomial(field, 1, ram=ram)
    return out, {d: u * s for d, s in table.items()}


def test_products_by_sparse_and_monomial_columns():
    """Factor columns are trimmed to their nonzero rows, and what lies
    before, between and beyond those rows still counts."""
    rng = random.Random(47)
    D, W = 10, 12
    for field in FIELDS:
        for ram in (1, 2):
            for _ in range(3):
                a, a_table = exact_start(field, ram, rng, D, W)
                coeffs = {1: sparse_series(field, ram, rng, 0)}
                for d in rng.sample(range(2, D + 1), 4):
                    coeffs[d] = sparse_series(field, ram, rng, rng.randrange(-2, 4))
                b, b_table = power(PowerSeriesMap(coeffs), 1, D, W)
                c, c_table = times_uniformizer(b, b_table)
                for x, y, x_table, y_table in (
                    (a, b, a_table, b_table),
                    (b, a, b_table, a_table),
                    (a, c, a_table, c_table),
                ):
                    product = x.mul(y)
                    assert_exact_start(product)
                    assert_agrees(product, _table_mul(x_table, y_table, D))


def test_map_coefficients_longer_than_the_window():
    """``mul_by_map`` keeps only the first W digits of a map coefficient.
    No product digit below the horizon needs the rest, and the horizons
    are the minimum rule's over the whole map, prec[j] + lead."""
    rng = random.Random(43)
    D, W = 8, 6
    for field in FIELDS:
        for ram in (1, 2):
            a, a_table = exact_start(field, ram, rng, D, W)
            f = random_map(field, ram, rng, D)
            rows = random_rows(field, rng, 3 * W)
            rows[0] = rows[-1] = [1] + rows[0][1:]
            long = LaurentSeries(field, ram, -1, rows, 3 * W - 1, exact=True)
            f = PowerSeriesMap({**f.coeffs, rng.randrange(2, D + 1): long})
            product = a.mul_by_map(f)
            assert_exact_start(product)
            assert_agrees(product, _table_mul(a_table, f.coeffs, D))
            for d in range(D + 1):
                caps = [a.prec[d - i] + c.lead for i, c in f.coeffs.items() if i <= d]
                expected = min(caps, default=INF)
                assert product.prec[d] == (INF if expected >= _INF_CUT else expected), d


def test_zero_to_precision_columns_are_live():
    """A column known only to be O(T^2), below the first finite base,
    still caps the horizons of a sum (a product refuses it:
    ``test_product_of_a_sum_raises``)."""
    field, D, W = FieldParams(3), 6, 8
    a, a_table = DensePoly(field, 1, D, W), {0: LaurentSeries.zero(field, 1, 2)}
    a_table[3] = parse_series("1+T", field)
    for d, s in a_table.items():
        a.set_column(d, s)
    scalar = parse_series("2+T^2", field)
    acc = DensePoly(field, 1, D, W)
    acc.add_scaled(scalar, a)
    assert acc.column(0).prec == 2
    assert_invariant(acc)
    assert_agrees(acc, {d: scalar * s for d, s in a_table.items()})


def test_product_of_a_sum_raises():
    """``mul`` takes exact-start powers only.  A polynomial with an
    inexact column, or with a column that is zero only to precision, like
    the running sum of a solve, raises ``CertificateError`` as left and as
    right operand, and as the left operand of ``mul_by_map``."""
    rng = random.Random(79)
    field, D, W = FieldParams(3), 8, 8
    f = exact_map(field, 1, rng, D, W)
    fpow, _ = power(f, 2, D, W)
    for column in (parse_series("1+T+O(T^3)", field), LaurentSeries.zero(field, 1, 2)):
        total = DensePoly.of_map(f, D, W)
        total.set_column(4, column)
        for operation in (
            lambda: total.mul(fpow),
            lambda: fpow.mul(total),
            lambda: total.mul_by_map(f),
        ):
            with pytest.raises(CertificateError, match="exact-start"):
                operation()


def mixed_column(field, ram, rng, W):
    """One scalar of a kind a sum sees: zero to precision (no data, a
    finite horizon), an exact column of every kind, or a random one."""
    kind = rng.choice(["zero", "exact", "random"])
    if kind == "zero":
        return LaurentSeries.zero(field, ram, rng.randrange(-2, 10))
    if kind == "exact":
        return exact_column(field, ram, rng, W)
    return random_series(field, ram, rng)


def mixed_poly(field, ram, rng, D, W):
    """Columns of every kind, a zero-to-precision one every fourth degree
    among them, some left exactly zero."""
    poly = DensePoly(field, ram, D, W)
    start = rng.randrange(0, 4)
    for d in range(start, D + 1):
        if (d - start) % 4 == 2:
            poly.set_column(d, LaurentSeries.zero(field, ram, rng.randrange(-2, 6)))
        elif rng.random() < 0.7:
            poly.set_column(d, mixed_column(field, ram, rng, W))
    return poly


def copied(poly):
    out = DensePoly(poly.field, poly.ram, poly.D, poly.W)
    out.base[:], out.prec[:], out.data[:] = poly.base, poly.prec, poly.data
    return out


def assert_same(poly, expected):
    assert (poly.base == expected.base).all()
    assert (poly.prec == expected.prec).all()
    assert (poly.data == expected.data).all()


def holds_no_data(poly):
    """The live columns of poly that hold no data."""
    return (poly.prec < _INF_CUT) & ~poly.data.any(axis=(1, 2))


@pytest.mark.parametrize("W", [4, 12, 32])
def test_products_and_sums_equal_the_per_column_oracle(W):
    """Convolving only the pairs of data columns gives the same bases,
    horizons and digits as convolving every live column, in products of
    exact-start powers and in sums of general polynomials; the live
    columns without data still count."""
    rng = random.Random(53 + W)
    D = 24
    for field in FIELDS:
        for ram in (1, 2):
            for _ in range(3):
                pa, _ = exact_start(field, ram, rng, D, W)
                pb, _ = power(exact_map(field, ram, rng, D, W), rng.randrange(1, 3), D, W)
                hollowed(pb, [0] + rng.sample(range(1, D + 1), 3), rng)
                assert holds_no_data(pb)[0] and (pb.base < _INF_CUT).any()
                for x, y in ((pa, pb), (pb, pa)):
                    assert_same(x.mul(y), dense_mul_per_column(x, y))
                a = mixed_poly(field, ram, rng, D, W)
                b = mixed_poly(field, ram, rng, D, W)
                zero_to_precision = (b.base >= _INF_CUT) & (b.prec < _INF_CUT)
                assert zero_to_precision.any() and (b.base < _INF_CUT).any()
                for x, y in ((a, b), (b, a)):
                    series = mixed_column(field, ram, rng, W)
                    acc, expected = copied(a), copied(a)
                    acc.add_scaled(series, y)
                    dense_add_scaled_all_columns(expected, series, y)
                    assert_same(acc, expected)


@pytest.mark.parametrize("field", [FIELDS[0], FIELDS[2], FIELDS[3]], ids=lambda f: f"F_{f.q}")
@pytest.mark.parametrize("ram", [1, 2])
def test_products_on_the_reachable_band_equal_the_per_column_oracle(monkeypatch, field, ram):
    """Self's first live column lo is above x^0 and other's first, i0,
    above x^1, so a product reaches only x^(lo + i0) .. x^D.  Self is a
    map's lo-th power; other a map's (i0 + 1)-th power with a live column
    that holds no data at x^i0, so the band starts with a column that
    holds none.  At the default budget and at one byte, where every grid
    row and every pair is a batch of its own, the product equals the
    per-column oracle, and every column below the band is an exact zero."""
    rng = random.Random(89 + 10 * field.q + ram)
    D, W = 24, 8
    for _ in range(4):
        lo, i0 = rng.randrange(1, 6), rng.randrange(2, 6)
        a, _ = power(exact_map(field, ram, rng, D, W), lo, D, W)
        b, _ = power(exact_map(field, ram, rng, D, W), i0 + 1, D, W)
        hollowed(b, [i0], rng)
        expected = dense_mul_per_column(a, b)
        start = lo + i0
        assert (expected.base[:start] == INF).all() and (expected.prec[:start] == INF).all()
        assert holds_no_data(expected)[start]
        for budget in (None, 1):
            with monkeypatch.context() as patch:
                if budget:
                    patch.setattr(lindisc.laurent, "_STACK_BYTES", budget)
                assert_same(a.mul(b), expected)


def test_a_solve_forms_one_factor_per_right_operand(monkeypatch):
    """The dense solve multiplies by f's columns, by the stride f^p of a
    p-divisible map and by the gap powers u^g its support needs, and packs
    each as a right factor once (``solve_sfe`` takes the binomial
    recurrence for the p-divisible maps here, so the dense loop is called
    directly).  F_2, x^2: f and f^2 (K = 1, 2, 4, …).
    F_3, x^3: f, f^3 and (f^3)^2 (K = 1, 3, 9, 15, 21).  F_2, x^3: f and
    f^2 (K = the odd degrees).  F_3, x^2: f alone (K = every degree)."""
    import lindisc.schroder

    real, formed = DensePoly.__dict__["_factor"].func, []

    def factor(self):
        formed.append(1)
        return real(self)

    packed = functools.cached_property(factor)
    packed.__set_name__(DensePoly, "_factor")
    monkeypatch.setattr(DensePoly, "_factor", packed)
    F2, F3 = FieldParams(2), FieldParams(3)
    for field, degree, count in ((F2, 2, 2), (F3, 3, 3), (F2, 3, 2), (F3, 2, 1)):
        f = PowerSeriesMap({1: parse_series("1+T", field), degree: parse_series("1", field)})
        formed.clear()
        lindisc.schroder._solve_dense(f, 24, 32)
        assert len(formed) == count, (field.p, degree)


TOWERS = (FieldParams(2), FieldParams(3), FieldParams(2, 2), FieldParams(2, 3), FieldParams(3, 2))


@pytest.mark.parametrize("field", TOWERS, ids=lambda f: f"F_{f.q}")
@pytest.mark.parametrize("ram", [1, 2, 3])
def test_a_solve_multiplies_exact_start_powers_only(monkeypatch, field, ram):
    """While ``solve_sfe`` runs a p-divisible map and a map with a degree
    prime to p, every product takes and gives exact-start powers, and
    after every sum the running sum keeps prec <= base + W, holds no
    digit at or past its horizons and holds zeros in its columns with an
    INF base."""
    import lindisc.schroder

    real_mul, real_add = DensePoly.mul, DensePoly.add_scaled
    seen = {"mul": 0, "add_scaled": 0}

    def mul(self, other):
        assert_exact_start(self)
        assert_exact_start(other)
        out = real_mul(self, other)
        assert_exact_start(out)
        seen["mul"] += 1
        return out

    def add_scaled(self, series, other):
        real_add(self, series, other)
        assert_invariant(self)
        seen["add_scaled"] += 1

    monkeypatch.setattr(DensePoly, "mul", mul)
    monkeypatch.setattr(DensePoly, "add_scaled", add_scaled)
    p, r = field.p, field.r
    residue = [0, 1] + [0] * (r - 2) if r > 1 else [1]
    unit = [1] + [0] * (r - 1)
    lam = LaurentSeries(field, ram, 0, [residue, unit], 2, exact=True)
    a = LaurentSeries(field, ram, -1, [unit, residue], 1, exact=True)
    family = PowerSeriesMap({1: lam, p: a, 2 * p: LaurentSeries.constant(field, 1, ram)})
    generic = PowerSeriesMap({1: lam, 3 if p == 2 else 2: a, p: a * a})
    for f in (family, generic):
        lindisc.schroder.solve_sfe(f, 20)
    assert seen["mul"] >= 20 and seen["add_scaled"] >= 20, seen


def test_a_column_times_a_series_is_their_product():
    """``column(d, by)`` is ``column(d) * by`` in lead, horizon, exactness
    and rows: on columns of every kind (exact zeros, zeros to precision,
    digits) and inexact factors whose horizon falls inside, at or past
    the column's window."""
    rng = random.Random(97)
    for field in FIELDS:
        for ram in (1, 2):
            poly, _ = random_poly(field, ram, rng, 12, 8)
            for d in range(13):
                rows = random_rows(field, rng, rng.randrange(1, 12))
                rows[0] = [rng.randrange(1, field.p)] + rows[0][1:]
                lead = rng.randrange(-4, 4)
                by = LaurentSeries(field, ram, lead, rows, lead + rng.randrange(1, 14))
                got = poly.column(d, (by.lead, by.coeffs, by.prec))
                expected = poly.column(d) * by
                assert (got.lead, got.prec, got.exact) == (
                    expected.lead, expected.prec, expected.exact
                ), (field, d)
                assert got.coeffs.tobytes() == expected.coeffs.tobytes(), (field, d)


def test_a_column_read_is_not_changed_by_later_sums():
    """``column`` builds its series on a copy of the polynomial's data,
    so a series read from a polynomial keeps its coefficients when a
    later ``add_scaled`` or ``set_column`` writes that column."""
    rng = random.Random(41)
    for field in FIELDS:
        poly, table = DensePoly(field, 1, 6, 8), {}
        for d in range(7):
            table[d] = parse_series("1+T+T^2", field)
            poly.set_column(d, table[d])
        read = [poly.column(d) for d in range(7)]
        rows = [series.coeffs.copy() for series in read]
        for _ in range(3):
            other, _ = random_poly(field, 1, rng, 6, 8)
            poly.add_scaled(parse_series("1+T^2", field), other)
        poly.set_column(3, parse_series("1", field))
        for series, before, d in zip(read, rows, range(7)):
            assert np.array_equal(series.coeffs, before), d
            assert series == table[d]


def test_a_polynomial_is_read_only_once_its_factor_is_formed():
    """A product by a polynomial packs it as a right factor, after which
    ``set_column`` and ``add_scaled`` on it raise and leave it unchanged,
    so its factor never goes stale; the left factor of a product, and the
    columns of f before their first product, stay writable."""
    rng = random.Random(97)
    field, D, W = FieldParams(3), 10, 8
    f = random_map(field, 1, rng, D)
    a, _ = exact_start(field, 1, rng, D, W)
    b, _ = exact_start(field, 1, rng, D, W)
    b.set_column(D, parse_series("1+T", field))
    by_f = a.mul_by_map(f)
    a.mul(b)
    columns = by_f.map_columns[1]
    series = parse_series("2+T", field)
    for poly in (b, columns):
        before = copied(poly)
        with pytest.raises(ValueError, match="read-only"):
            poly.set_column(1, series)
        with pytest.raises(ValueError, match="read-only"):
            poly.add_scaled(series, b)
        assert_same(poly, before)
    for poly in (a, by_f, DensePoly.of_map(f, D, W)):
        poly.set_column(1, series)
        poly.add_scaled(series, b)


def data_columns(field, rng, D, W, degrees):
    poly = DensePoly(field, 1, D, W)
    for d in degrees:
        rows = random_rows(field, rng, W)
        rows[0] = [1] + rows[0][1:]
        poly.set_column(d, LaurentSeries(field, 1, rng.randrange(-2, 3), rows, W, exact=True))
    return poly


def batch_sizes(monkeypatch, operation):
    """The number of items of each ``_convolve`` call ``operation`` makes
    in the dense engine."""
    calls, real = [], lindisc._dense._convolve
    with monkeypatch.context() as patch:
        patch.setattr(
            lindisc._dense, "_convolve", lambda *args: calls.append(len(args[1])) or real(*args)
        )
        operation()
    return calls


def in_batches(total, step):
    return [min(step, total - c) for c in range(0, total, step)]


@pytest.mark.parametrize("field", [FieldParams(3), FieldParams(2, 2)])
def test_products_convolve_one_batch_per_chunk(monkeypatch, field):
    """A product whose second factor has 12 data columns convolves its
    column pairs, and a sum its data columns, in batches of as many items
    as ``_per_batch`` fits in the budget: one batch at the default budget,
    batches of five and of four at five items' bytes and one byte less."""
    rng = random.Random(59)
    D, W = 40, 8
    a = data_columns(field, rng, D, W, [0, 2, 5])
    b = data_columns(field, rng, D, W, range(1, 36, 3))
    # columns without data are never convolved: live ones in the product's
    # factor, zero-to-precision ones in the sum's operand
    other = copied(b)
    hollowed(b, (0, 3, 6), rng)
    zero = LaurentSeries.zero(field, 1, 3)
    for d in (0, 3, 6):
        other.set_column(d, zero)
    pairs = sum(i + j <= D for j in (0, 2, 5) for i in range(1, 36, 3))
    scalar = parse_series("1+T", field)
    # the longest of b's data columns trimmed to its nonzero rows
    L = max(np.ptp(np.flatnonzero(row)) + 1 for row in b.data.any(axis=2) if row.any())
    r = field.r
    # a pair: two columns, its shift and their product's W kept rows; a
    # column of a sum: its data, its shift, its product and the sum
    pair_bytes = 8 * (r * (2 * W + L) + 1)
    column_bytes = 8 * (3 * W * r + 1)
    product = lambda: a.mul(b)  # noqa: E731
    add = lambda: DensePoly(field, 1, D, W).add_scaled(scalar, other)  # noqa: E731
    assert batch_sizes(monkeypatch, product) == [pairs]
    assert batch_sizes(monkeypatch, add) == [12]
    for step in (5, 4):
        monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", 5 * pair_bytes - (step == 4))
        assert lindisc.laurent._per_batch(pair_bytes) == step
        assert batch_sizes(monkeypatch, product) == in_batches(pairs, step)
        monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", 5 * column_bytes - (step == 4))
        assert batch_sizes(monkeypatch, add) == in_batches(12, step)


def traced_peak(operation):
    tracemalloc.start()
    try:
        operation()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_product_memory_is_bounded_by_the_chunk(monkeypatch):
    """With the budget set to one data array, the traced peak of a
    product with 40 data columns in each factor stays within the budget
    plus its operands and its result.  Convolving all 1,600 pairs at
    once would take about 65 data arrays."""
    field, D, W = FieldParams(2, 2), 400, 64
    rng = random.Random(61)
    a = data_columns(field, rng, D, W, rng.sample(range(D // 2), 40))
    b = data_columns(field, rng, D, W, rng.sample(range(D // 2), 40))
    budget = a.data.nbytes
    monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", budget)
    peak = traced_peak(lambda: a.mul(b))
    assert peak < budget + a.data.nbytes + b.data.nbytes + a.data.nbytes, (peak, budget)


def test_horizon_pass_memory_is_bounded_by_the_chunk(monkeypatch):
    """The grid of a product's bases (all of them here: the operands are
    no powers of one map) sizes a row at two int64 arrays of the band,
    the row's indices and the bases it gathers, and a batch at half the
    budget (the other half is for the gap powers a solve keeps).  A
    product by 401 live columns, its right factor packed beforehand, has
    a grid of 401 rows of 401 degrees; with the budget set to one data
    array, its traced peak stays within the budget plus its operands and
    its result.  The whole grid at once would take about 25 data arrays."""
    field, D, W = FieldParams(2, 2), 400, 16
    rng = random.Random(73)
    a = data_columns(field, rng, D, W, [0, 1])
    b = data_columns(field, rng, D, W, range(D + 1))
    b._factor  # packed once per right operand, before the product
    budget = a.data.nbytes
    monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", budget)
    items, real = [], lindisc._dense._per_batch
    monkeypatch.setattr(lindisc._dense, "_per_batch", lambda n: items.append(n) or real(n))
    peak = traced_peak(lambda: a.mul(b))
    assert items[0] == 2 * 8 * 2 * (D + 1)
    assert peak < budget + a.data.nbytes + b.data.nbytes + a.data.nbytes, (peak, budget)


def test_sum_memory_is_bounded_by_the_chunk(monkeypatch):
    """With the budget set to one data array, the traced peak of adding a
    W-digit scalar times a polynomial whose every column holds W digits
    stays within the budget plus that polynomial and the sum.  Convolving
    every column at once takes about two data arrays for the products
    alone, and as much again for their realigned windows."""
    field, D, W = FieldParams(2, 2), 400, 64
    rng = random.Random(67)
    other = data_columns(field, rng, D, W, range(D + 1))
    acc = data_columns(field, rng, D, W, range(D + 1))
    rows = random_rows(field, rng, W)
    rows[0] = [1] + rows[0][1:]
    scalar = LaurentSeries(field, 1, 0, rows, W, exact=True)
    budget = acc.data.nbytes
    monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", budget)
    peak = traced_peak(lambda: acc.add_scaled(scalar, other))
    assert peak < budget + other.data.nbytes + acc.data.nbytes, (peak, budget)


@pytest.mark.parametrize("field", FIELDS[:3], ids=lambda f: f"F_{f.q}")
@pytest.mark.parametrize("ram", [1, 2])
def test_batching_is_invisible(monkeypatch, field, ram):
    """At a budget of one byte every batch holds one item; products of
    exact-start powers and sums of general polynomials keep the bases,
    horizons and digits of the default budget, with live columns without
    data among the powers and zero-to-precision columns among the sums'
    operands."""
    rng = random.Random(71 + 10 * field.q + ram)
    D, W = 20, 12
    for _ in range(4):
        a, b = mixed_poly(field, ram, rng, D, W), mixed_poly(field, ram, rng, D, W)
        series = mixed_column(field, ram, rng, W)
        pa, _ = exact_start(field, ram, rng, D, W)
        pb, _ = exact_start(field, ram, rng, D, W)
        hollowed(pb, rng.sample(range(D + 1), 3), rng)

        def results():
            acc = copied(a)
            acc.add_scaled(series, b)
            return pa.mul(pb), pb.mul(pa), acc

        default = results()
        with monkeypatch.context() as patch:
            patch.setattr(lindisc.laurent, "_STACK_BYTES", 1)
            for got, want in zip(results(), default):
                assert_same(got, want)


def coordinate_stack(field, rng, *shape):
    """Random coordinate rows of shape (*shape, r): every third row zero,
    a stack's last slice all zero, and for r > 1 the last coordinate
    zero throughout (in every slice of a stack, its second slice)."""
    size = math.prod(shape) * field.r
    a = np.array([rng.randrange(field.p) for _ in range(size)], dtype=np.int64)
    a = a.reshape(*shape, field.r)
    a[..., 1::3, :] = 0
    if len(shape) > 1:
        a[-1] = 0
    if field.r > 1:
        (a[1] if len(shape) > 1 else a)[..., -1] = 0
    return a


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F_{f.q}")
def test_batched_convolution_equals_one_call_per_slice(field):
    """``_convolve``'s one batched path against its unbatched path, slice
    by slice: a stack times one array (La < Lb, La > Lb, Lb = 1) and a
    stack of pairs, with zero rows, an all-zero slice and an all-zero
    coordinate column."""
    rng = random.Random(field.q)
    for la, lb in [(3, 8), (8, 3), (5, 1), (1, 1)]:
        a = coordinate_stack(field, rng, 5, la)
        for b in (coordinate_stack(field, rng, lb), coordinate_stack(field, rng, 5, lb)):
            got = _convolve(field, a, b)
            assert got.shape == (5, la + lb - 1, field.r)
            for i in range(5):
                assert (got[i] == _convolve(field, a[i], b if b.ndim == 2 else b[i])).all()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F_{f.q}")
def test_chunked_convolution_is_unchanged(monkeypatch, field):
    """With the batched path's cap set to a few slices' products, a stack
    of n slices is convolved in ⌈n / chunk⌉ chunks, each a call of its
    own, and the result is unchanged; a cap below one slice's products
    convolves slice by slice."""
    rng = random.Random(field.q + 1)
    n, la, lb = 7, 6, 4
    a = coordinate_stack(field, rng, n, la)
    cases = [coordinate_stack(field, rng, lb), coordinate_stack(field, rng, n, lb)]
    whole = [_convolve(field, a, b) for b in cases]
    r, rows = field.r, la + lb - 1
    # the padded slice, the r × r products, the raw coordinates, the fold
    slice_bytes = 8 * ((la + 2 * lb - 2) * r + rows * (r * r + (2 * r - 1) + r))
    calls, real = [], lindisc.laurent._convolve
    monkeypatch.setattr(
        lindisc.laurent, "_convolve", lambda *args: calls.append(len(args[1])) or real(*args)
    )
    for cap, chunk in [(3 * slice_bytes, 3), (3 * slice_bytes - 1, 2), (1, 1)]:
        monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", cap)
        for b, want in zip(cases, whole):
            calls.clear()
            assert (lindisc.laurent._convolve(field, a, b) == want).all()
            # the call itself, then one call per chunk
            assert calls == [n] + [min(chunk, n - c) for c in range(0, n, chunk)]


def test_chunk_temporaries_at_r_8_stay_within_the_cap(monkeypatch):
    """At r = 8 a chunk holds, besides its r × r products, a padded slice,
    23 raw and folded coordinates per row and its result; chunk sizing
    counts them all, so a chunked call's traced peak stays within the
    cap plus the result it returns (0.94 of the cap past the result).
    Sized by the products alone, a chunk took 16 slices, and its
    temporaries peaked at 1.75 times the cap."""
    field = FieldParams(2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1])
    rng = np.random.default_rng(8)
    a = rng.integers(0, 2, size=(64, 16, 8))
    _convolve(field, a[:1], a[0])  # the coordinate-sum matrix is cached
    cap = 256 << 10
    monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", cap)
    for b in (rng.integers(0, 2, size=(16, 8)), rng.integers(0, 2, size=(64, 16, 8))):
        tracemalloc.start()
        try:
            result = _convolve(field, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.shape == (64, 31, 8)
        assert peak <= cap + result.nbytes, (peak, cap + result.nbytes)


def test_batched_convolution_memory_is_bounded_by_the_cap(monkeypatch):
    """One batched call holds its result and one chunk's temporaries at a
    time, so its traced peak stays below cap + operands + result.  The
    r × r products of the whole stack alone are r = 4 times the result."""
    field, cap = FieldParams(2, 4), 32 << 10
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, size=(64, 64, 4))
    monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", cap)
    for b in (rng.integers(0, 2, size=(64, 4)), rng.integers(0, 2, size=(64, 64, 4))):
        tracemalloc.start()
        try:
            result = _convolve(field, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cap + a.nbytes + b.nbytes + result.nbytes, (peak, result.nbytes)


def test_a_chain_of_products_by_one_map_installs_its_columns_once(monkeypatch):
    """``solve_sfe`` multiplies by f through ``mul_by_map``; f's columns
    are installed once per dense solve, for f^1, which carries them to
    its products by f, and each product carries them to the next.  So a
    map with a degree prime to p (a product by f per degree) and a
    p-divisible one (f^p, the stride, the one product by f) each make one
    ``of_map``, and their coefficients are the chain's of every power."""
    import lindisc.schroder

    F2 = FieldParams(2)
    real_of_map, real_mul_by_map = DensePoly.__dict__["of_map"], DensePoly.mul_by_map
    calls = {"of_map": 0, "mul_by_map": 0}

    def of_map(cls, *args):
        calls["of_map"] += 1
        return real_of_map.__func__(cls, *args)

    def mul_by_map(self, g):
        calls["mul_by_map"] += 1
        return real_mul_by_map(self, g)

    for high, products in ((3, 18), (4, 1)):
        f = PowerSeriesMap({
            1: parse_series("1+T", F2), 2: parse_series("1", F2), high: parse_series("T", F2)
        })
        calls.update(of_map=0, mul_by_map=0)
        with monkeypatch.context() as patch:
            patch.setattr(DensePoly, "of_map", classmethod(of_map))
            patch.setattr(DensePoly, "mul_by_map", mul_by_map)
            g = lindisc.schroder.solve_sfe(f, 20)
        assert calls == {"of_map": 1, "mul_by_map": products}, high
        reference = solve_sfe_chain(f, 20)
        for k in range(1, 21):
            x, y = g.coefficient(k), reference.coefficient(k)
            assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), (high, k)
            assert x.coeffs.tobytes() == y.coeffs.tobytes(), (high, k)


def test_a_product_by_another_map_uses_that_maps_columns():
    """A product carries the columns of the map it was multiplied by; a
    product by a different map installs that map's columns instead."""
    rng = random.Random(47)
    D, W = 10, 8
    for field in FIELDS:
        a, _ = exact_start(field, 1, rng, D, W)
        f, h = random_map(field, 1, rng, D), random_map(field, 1, rng, D)
        by_f = a.mul_by_map(f)
        for x, y in [
            (by_f.mul_by_map(h), by_f.mul(DensePoly.of_map(h, D, W))),
            (by_f.mul_by_map(f), by_f.mul(DensePoly.of_map(f, D, W))),
        ]:
            assert np.array_equal(x.base, y.base)
            assert np.array_equal(x.prec, y.prec)
            assert np.array_equal(x.data, y.data)


def test_a_modified_polynomial_no_longer_passes_for_a_maps_columns():
    """Products by f read f's columns, never a polynomial that was
    modified: after ``of_map(f)`` is changed, its own products by f and
    those of a product that carries f's columns equal products by the
    columns installed afresh."""
    rng = random.Random(53)
    D, W = 10, 8
    for field in FIELDS:
        f = random_map(field, 1, rng, D)
        for modify in ("set_column", "add_scaled"):
            own = DensePoly.of_map(f, D, W)
            carrier = own.mul_by_map(f)
            if modify == "set_column":
                own.set_column(3, parse_series("1+T", field))
            else:
                own.add_scaled(parse_series("T", field), own.mul_by_map(f))
            for x in (own, carrier):
                got, expected = x.mul_by_map(f), x.mul(DensePoly.of_map(f, D, W))
                assert np.array_equal(got.base, expected.base), modify
                assert np.array_equal(got.prec, expected.prec), modify
                assert np.array_equal(got.data, expected.data), modify


def test_a_solves_map_columns_are_freed_without_the_cycle_collector(monkeypatch):
    """The columns f's products carry hold no reference cycle, so they go
    with the last product of the dense solve, not at the next run of the
    cycle collector."""
    import gc
    import weakref

    import lindisc.schroder

    F2 = FieldParams(2)
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    real_of_map, made = DensePoly.__dict__["of_map"], []

    def of_map(cls, *args):
        poly = real_of_map.__func__(cls, *args)
        made.append(weakref.ref(poly))
        return poly

    monkeypatch.setattr(DensePoly, "of_map", classmethod(of_map))
    gc.disable()
    try:
        lindisc.schroder._solve_dense(f, 12, 32)
        assert made and all(ref() is None for ref in made)
    finally:
        gc.enable()


def test_the_stride_drops_the_columns_of_f_once_formed(monkeypatch):
    """For a p-divisible map f^p, the stride of every later power of the
    dense solve, is multiplied only by ``mul``, so it drops the columns of
    f its products carried: by the first product by f^p, no polynomial
    ``of_map`` made is alive, and no (D + 1)·W·r block of f's columns is
    held to the end of the solve."""
    import gc
    import weakref

    import lindisc.schroder

    F2 = FieldParams(2)
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    real_of_map, real_mul = DensePoly.__dict__["of_map"], DensePoly.mul
    made, alive = [], []

    def of_map(cls, *args):
        poly = real_of_map.__func__(cls, *args)
        made.append(weakref.ref(poly))
        return poly

    def mul(self, other):
        if all(ref() is not other for ref in made):  # a product by f^p
            alive.append(sum(ref() is not None for ref in made))
        return real_mul(self, other)

    monkeypatch.setattr(DensePoly, "of_map", classmethod(of_map))
    monkeypatch.setattr(DensePoly, "mul", mul)
    gc.disable()
    try:
        lindisc.schroder._solve_dense(f, 12, 32)
    finally:
        gc.enable()
    assert len(alive) == 4 and not any(alive), alive
