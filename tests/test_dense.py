"""The dense engine against LaurentSeries table arithmetic, with its
window invariant checked after every seeded random operation."""

import math
import random
import tracemalloc

import numpy as np
import pytest

import lindisc._dense
import lindisc.laurent
from lindisc import FieldParams, LaurentSeries, PowerSeriesMap, parse_series
from lindisc._dense import _INF_CUT, INF, DensePoly
from lindisc.laurent import _convolve
from lindisc.powerseries import _table_mul
from oracles import dense_add_scaled_all_columns, dense_mul_per_column, horizon


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


def mixed_column(field, ram, rng, W):
    """One column of a kind the data pass sees: zero to precision (no
    data, a finite horizon), a monomial, a sparse column, a column longer
    than the window, or a random one."""
    kind = rng.choice(["zero", "monomial", "sparse", "long", "random"])
    lead = rng.randrange(-2, 4)
    if kind == "zero":
        return LaurentSeries.zero(field, ram, lead + rng.randrange(0, 6))
    if kind == "monomial":
        return LaurentSeries.monomial(field, lead, rng.randrange(1, field.p), ram=ram)
    if kind == "sparse":
        return sparse_series(field, ram, rng)
    if kind == "long":
        rows = random_rows(field, rng, 2 * W + rng.randrange(1, W + 1))
        rows[0] = rows[-1] = [1] + rows[0][1:]
        return LaurentSeries(field, ram, lead, rows, lead + len(rows), exact=True)
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


@pytest.mark.parametrize("W", [4, 12, 32])
def test_products_and_sums_equal_the_per_column_oracle(W):
    """Convolving only the pairs of data columns gives the same bases,
    horizons and digits as convolving every live column, and the
    columns without data still cap the horizons."""
    rng = random.Random(53 + W)
    D = 24
    for field in FIELDS:
        for ram in (1, 2):
            for _ in range(3):
                a = mixed_poly(field, ram, rng, D, W)
                b = mixed_poly(field, ram, rng, D, W)
                zero_to_precision = (b.base >= _INF_CUT) & (b.prec < _INF_CUT)
                assert zero_to_precision.any() and (b.base < _INF_CUT).any()
                for x, y in ((a, b), (b, a)):
                    assert_same(x.mul(y), dense_mul_per_column(x, y))
                    series = mixed_column(field, ram, rng, W)
                    acc, expected = copied(a), copied(a)
                    acc.add_scaled(series, y)
                    dense_add_scaled_all_columns(expected, series, y)
                    assert_same(acc, expected)


def data_columns(field, rng, D, W, degrees):
    poly = DensePoly(field, 1, D, W)
    for d in degrees:
        rows = random_rows(field, rng, W)
        rows[0] = [1] + rows[0][1:]
        poly.set_column(d, LaurentSeries(field, 1, rng.randrange(-2, 3), rows, W, exact=True))
    return poly


@pytest.mark.parametrize("field", [FieldParams(3), FieldParams(2, 2)])
def test_products_convolve_one_batch_per_chunk(monkeypatch, field):
    """A product whose second factor has 12 data columns convolves one
    batch of column pairs per chunk of (D + 1) // r pairs, not one
    column at a time; a sum convolves once."""
    rng = random.Random(59)
    D, W = 40, 8
    a = data_columns(field, rng, D, W, [0, 2, 5])
    b = data_columns(field, rng, D, W, range(1, 36, 3))
    zero = LaurentSeries.zero(field, 1, 3)
    for d in (0, 3, 6):  # zero-to-precision columns are never convolved
        b.set_column(d, zero)
    pairs = sum(i + j <= D for j in (0, 2, 5) for i in range(1, 36, 3))
    calls, real = [], lindisc._dense._convolve
    monkeypatch.setattr(
        lindisc._dense, "_convolve", lambda *args: calls.append(args) or real(*args)
    )
    a.mul(b)
    assert len(calls) == math.ceil(pairs / ((D + 1) // field.r))
    assert sum(len(args[1]) for args in calls) == pairs
    calls.clear()
    acc = DensePoly(field, 1, D, W)
    acc.add_scaled(parse_series("1+T", field), b)
    assert len(calls) == 1 and len(calls[0][1]) == 12


def test_product_memory_is_bounded_by_the_chunk():
    """Each batch of column pairs is no larger than one column's product
    by a whole factor, so the traced peak of a product with 40 data
    columns in each factor stays within a fixed multiple of one data
    array.  Convolving all 1,600 pairs at once would take about 65 of them."""
    field, D, W = FieldParams(2, 2), 400, 64
    rng = random.Random(61)
    a = data_columns(field, rng, D, W, rng.sample(range(D // 2), 40))
    b = data_columns(field, rng, D, W, rng.sample(range(D // 2), 40))
    tracemalloc.start()
    try:
        a.mul(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * a.data.nbytes


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
    """``solve_sfe`` multiplies by f once per degree through
    ``mul_by_map``; f's columns are installed once per solve, and each
    product carries them to the next."""
    import lindisc.schroder

    F2 = FieldParams(2)
    f = PowerSeriesMap({
        1: parse_series("1+T", F2), 2: parse_series("1", F2), 3: parse_series("T", F2)
    })
    real_of_map, real_mul_by_map = DensePoly.__dict__["of_map"], DensePoly.mul_by_map
    calls = {"of_map": 0, "mul_by_map": 0}

    def of_map(cls, *args):
        calls["of_map"] += 1
        return real_of_map.__func__(cls, *args)

    def mul_by_map(self, g):
        calls["mul_by_map"] += 1
        return real_mul_by_map(self, g)

    monkeypatch.setattr(DensePoly, "of_map", classmethod(of_map))
    monkeypatch.setattr(DensePoly, "mul_by_map", mul_by_map)
    lindisc.schroder.solve_sfe(f, 20)
    assert calls == {"of_map": 1, "mul_by_map": 18}


def test_a_product_by_another_map_uses_that_maps_columns():
    """A product carries the columns of the map it was multiplied by; a
    product by a different map installs that map's columns instead."""
    rng = random.Random(47)
    D, W = 10, 8
    for field in FIELDS:
        a, _ = random_poly(field, 1, rng, D, W)
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
    """``of_map(f)`` serves as f's columns in products by f only until it
    is modified: then products by f, its own and those of a product that
    carries it, install f's columns afresh."""
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
    with the last product, not at the next run of the cycle collector."""
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
        lindisc.schroder.solve_sfe(f, 12)
        assert made and all(ref() is None for ref in made)
    finally:
        gc.enable()
