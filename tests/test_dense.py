"""The dense engine against LaurentSeries table arithmetic, with its
window invariant checked after every seeded random operation."""

import random

import numpy as np

from lindisc import FieldParams, LaurentSeries, PowerSeriesMap, parse_series
from lindisc._dense import _INF_CUT, INF, DensePoly
from lindisc.powerseries import _table_mul


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
        assert column._effective_prec() <= exact._effective_prec(), d


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


def test_invariant_and_values_after_every_operation():
    rng = random.Random(31)
    D, W = 10, 12
    for field in FIELDS:
        for ram in (1, 2):
            f = random_map(field, ram, rng, D)
            poly = DensePoly(field, ram, D, W)
            table = {}
            for d in rng.sample(range(D + 1), 4):
                table[d] = random_series(field, ram, rng)
                poly.set_column(d, table[d])
            assert_invariant(poly)
            assert_agrees(poly, table)
            acc = DensePoly(field, ram, D, W)
            acc_table = {}
            for _ in range(5):
                scalar = random_series(field, ram, rng)
                acc.add_scaled(scalar, poly)
                for d, s in table.items():
                    term = scalar * s
                    acc_table[d] = acc_table[d] + term if d in acc_table else term
                assert_invariant(acc)
                assert_agrees(acc, acc_table)
                poly = poly.mul_by_map(f)
                table = _table_mul(table, f.coeffs, D)
                assert_invariant(poly)
                assert_agrees(poly, table)


def test_products_of_dense_polynomials():
    """The product of two DensePolys, columns of every kind on both sides."""
    rng = random.Random(37)
    D, W = 10, 12
    for field in FIELDS:
        for ram in (1, 2):
            for _ in range(4):
                a, a_table = random_poly(field, ram, rng, D, W)
                b, b_table = random_poly(field, ram, rng, D, W)
                product = a.mul(b)
                assert_invariant(product)
                assert_agrees(product, _table_mul(a_table, b_table, D))


def sparse_series(field, ram, rng):
    """A column like those of the Frobenius power f^p: a monomial, or
    digits every p-th row with zero rows between them, sometimes known
    to be followed by zero rows."""
    lead = rng.randrange(-2, 4)
    rows = [[0] * field.r for _ in range(field.p * rng.randrange(0, 3) + 1)]
    for j in range(0, len(rows), field.p):
        rows[j] = [rng.randrange(1, field.p)] + random_rows(field, rng, 1)[0][1:]
    if rng.random() < 0.5:
        return LaurentSeries(field, ram, lead, rows, lead + len(rows), exact=True)
    return LaurentSeries(field, ram, lead, rows, lead + len(rows) + rng.randrange(0, 4))


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
                a, a_table = random_poly(field, ram, rng, D, W)
                b, b_table = DensePoly(field, ram, D, W), {}
                for d in rng.sample(range(D + 1), 5):
                    b_table[d] = sparse_series(field, ram, rng)
                    b.set_column(d, b_table[d])
                c, c_table = times_uniformizer(b, b_table)
                for x, y, x_table, y_table in (
                    (a, b, a_table, b_table),
                    (b, a, b_table, a_table),
                    (a, c, a_table, c_table),
                ):
                    product = x.mul(y)
                    assert_invariant(product)
                    assert_agrees(product, _table_mul(x_table, y_table, D))


def test_map_coefficients_longer_than_the_window():
    """``mul_by_map`` keeps only the first W digits of a map coefficient.
    No product digit below the horizon needs the rest, and the horizons
    are the minimum rule's over the whole map, prec[j] + lead."""
    rng = random.Random(43)
    D, W = 8, 6
    for field in FIELDS:
        for ram in (1, 2):
            a, a_table = random_poly(field, ram, rng, D, W)
            f = random_map(field, ram, rng, D)
            rows = random_rows(field, rng, 3 * W)
            rows[0] = rows[-1] = [1] + rows[0][1:]
            long = LaurentSeries(field, ram, -1, rows, 3 * W - 1, exact=True)
            f = PowerSeriesMap({**f.coeffs, rng.randrange(2, D + 1): long})
            product = a.mul_by_map(f)
            assert_invariant(product)
            assert_agrees(product, _table_mul(a_table, f.coeffs, D))
            for d in range(D + 1):
                caps = [a.prec[d - i] + c.lead for i, c in f.coeffs.items() if i <= d]
                expected = min(caps, default=INF)
                assert product.prec[d] == (INF if expected >= _INF_CUT else expected), d


def test_zero_to_precision_columns_are_live():
    """A column known only to be O(T^2), below the first finite base,
    still caps the horizons of products and sums."""
    field, D, W = FieldParams(3), 6, 8
    a, a_table = DensePoly(field, 1, D, W), {0: LaurentSeries.zero(field, 1, 2)}
    a_table[3] = parse_series("1+T", field)
    for d, s in a_table.items():
        a.set_column(d, s)
    b, b_table = DensePoly(field, 1, D, W), {1: parse_series("2+T^2", field)}
    b.set_column(1, b_table[1])
    f = PowerSeriesMap({1: b_table[1]})
    for product, table in (
        (a.mul(b), _table_mul(a_table, b_table, D)),
        (a.mul_by_map(f), _table_mul(a_table, f.coeffs, D)),
        (b.mul(a), _table_mul(b_table, a_table, D)),
    ):
        assert product.column(1).prec == 2
        assert_invariant(product)
        assert_agrees(product, table)
    acc = DensePoly(field, 1, D, W)
    acc.add_scaled(b_table[1], a)
    assert acc.column(0).prec == 2
    assert_invariant(acc)
    assert_agrees(acc, {d: b_table[1] * s for d, s in a_table.items()})
