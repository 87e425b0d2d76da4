"""Finite-field arithmetic against a brute-force polynomial oracle."""

import random
import time

import numpy as np
import pytest

from lindisc import FieldParams, FqElement, LaurentSeries, parse_series
import lindisc.field as field_module
from lindisc.field import BUILTIN_MODULI
from lindisc.errors import (
    FieldConstructionError,
    HypothesisError,
    IncompatibleFieldError,
    ParseError,
    ZeroDivisionFieldError,
)

FIELDS = [
    FieldParams(2),
    FieldParams(3),
    FieldParams(2, 2),
    FieldParams(5),
    FieldParams(2, 3),
    FieldParams(3, 2),
]


def naive_mul(a, b, field):
    """Schoolbook product of coordinate vectors reduced by the modulus."""
    p, r = field.p, field.r
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    modulus = list(field.modulus)
    for i in range(len(prod) - 1, r - 1, -1):
        c = prod[i]
        if c:
            for j in range(r + 1):
                prod[i - r + j] = (prod[i - r + j] - c * modulus[j]) % p
    return tuple(prod[:r])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_multiplication_matches_polynomial_oracle(field):
    rng = random.Random(7 * field.q)
    for _ in range(200):
        a = [rng.randrange(field.p) for _ in range(field.r)]
        b = [rng.randrange(field.p) for _ in range(field.r)]
        got = (field.element(a) * field.element(b)).coeffs
        assert got == naive_mul(a, b, field)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_every_unit_satisfies_fermat(field):
    one = field.one()
    for x in field.elements():
        if x.is_zero:
            continue
        assert x ** (field.q - 1) == one
        assert x * x.inverse() == one


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_multiplicative_order_divides_group_order(field):
    one = field.one()
    for x in field.elements():
        if x.is_zero:
            continue
        n = x.multiplicative_order()
        assert (field.q - 1) % n == 0
        assert x**n == one
        # minimality
        for d in range(1, n):
            if n % d == 0:
                assert x**d != one or d == n


def test_known_orders():
    F4 = FieldParams(2, 2)
    assert F4.gen().multiplicative_order() == 3
    F5 = FieldParams(5)
    assert F5.element(2).multiplicative_order() == 4
    assert F5.element(4).multiplicative_order() == 2


@pytest.mark.parametrize("field", [FieldParams(3, 2), FieldParams(2, 4)], ids=repr)
def test_scale_matches_element_product_row_by_row(field):
    """``LaurentSeries.scale`` is a one-row convolution; every row of the
    result is the ``FqElement`` product, for every scalar of the field."""
    rng = random.Random(field.q)
    rows = [[rng.randrange(field.p) for _ in range(field.r)] for _ in range(12)]
    series = LaurentSeries(field, 1, -3, rows, 20, exact=False)
    for c in field.elements():
        scaled = series.scale(c)
        want = [c * FqElement(field, row) for row in rows]
        got = [scaled.coefficient(-3 + j) for j in range(len(rows))]
        assert got == want, c
        assert scaled.prec == series.prec


def test_fermat_inverse_at_the_largest_prime():
    """x^(q-2) with a 32-bit exponent q - 2 (q = 65521²), on seeded units."""
    field = FieldParams(65521, 2, [17, 0, 1])
    rng = random.Random(65521)
    for _ in range(64):
        x = field.element([rng.randrange(1, field.p), rng.randrange(field.p)])
        assert x * x.inverse() == field.one(), x


SMALL_BUILTIN = [FieldParams(p, r) for (p, r) in BUILTIN_MODULI if p**r <= 125]


def as_tuples(rows):
    return [tuple(int(c) for c in row) for row in rows]


@pytest.mark.parametrize("field", SMALL_BUILTIN, ids=lambda f: f"p{f.p}r{f.r}")
def test_mul_rows_matches_element_product_on_every_pair(field):
    rows = field.element_rows(0, field.q)
    a = np.repeat(rows, field.q, axis=0)
    b = np.tile(rows, (field.q, 1))
    got = field.mul_rows(a, b)
    assert as_tuples(got) == [naive_mul(x, y, field) for x, y in zip(a, b)]


def test_mul_rows_matches_element_product_on_a_sample_of_f_7_4():
    field = FieldParams(7, 4)
    rng = np.random.default_rng(74)
    a = rng.integers(0, 7, size=(4096, 4), dtype=np.int64)
    b = rng.integers(0, 7, size=(4096, 4), dtype=np.int64)
    got = field.mul_rows(a, b)
    assert as_tuples(got) == [naive_mul(x, y, field) for x, y in zip(a, b)]


def naive_pow(x, n, field):
    """x^n as n - 1 schoolbook products (x^0 is 1)."""
    result = (1,) + (0,) * (field.r - 1)
    for _ in range(n):
        result = naive_mul(result, x, field)
    return result


LARGEST_PRIME_FIELD = FieldParams(65521, 2, [17, 0, 1])


@pytest.mark.parametrize(
    "field", SMALL_BUILTIN + [LARGEST_PRIME_FIELD], ids=lambda f: f"p{f.p}r{f.r}"
)
def test_pow_rows_matches_repeated_products(field):
    if field.q <= 125:
        rows = field.element_rows(0, field.q)
    else:
        rng = np.random.default_rng(field.p)
        rows = rng.integers(0, field.p, size=(64, field.r), dtype=np.int64)
        rows[:, 0] |= rows[:, 0] == 0  # units only, for the Fermat inverse
    for n in (0, 1, 2, 3):
        got = field.pow_rows(rows, n)
        assert as_tuples(got) == [naive_pow(x, n, field) for x in rows], n
    # x^(q-2) is the inverse of each unit; at q = 65521² it is checked
    # through one product instead of q - 2 of them
    units = rows[rows.any(axis=1)]
    got = field.pow_rows(units, field.q - 2)
    if field.q <= 125:
        assert as_tuples(got) == [naive_pow(x, field.q - 2, field) for x in units]
    one = naive_pow(units[0], 0, field)
    assert [naive_mul(y, x, field) for x, y in zip(units, got)] == [one] * len(units)


@pytest.mark.parametrize("field", SMALL_BUILTIN, ids=lambda f: f"p{f.p}r{f.r}")
def test_frobenius_rows_is_the_p_power_map(field):
    """``frobenius_rows(xs, s)`` is xs^(p^s) entry by entry, and at r | s
    it is xs itself: the Frobenius of F_{p^r} has order r."""
    rows = field.element_rows(0, min(field.q, 125))
    for s in range(2 * field.r + 2):
        got = field.frobenius_rows(rows, s)
        assert as_tuples(got) == as_tuples(field.pow_rows(rows, field.p**s)), s
        assert (got is rows) == (s % field.r == 0), s


def test_mul_rows_stays_exact_at_the_largest_prime():
    """p = 65521 is the largest prime below 2^16; with every coordinate
    p - 1 each schoolbook entry is near 2·p², the int64 worst case."""
    p = 65521
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    field = FieldParams(p, 2, [-n % p, 0, 1])  # x^2 - n, n a non-residue
    rng = random.Random(65521)
    pairs = [([p - 1, p - 1], [p - 1, p - 1])] + [
        ([rng.randrange(p) for _ in range(2)], [rng.randrange(p) for _ in range(2)])
        for _ in range(64)
    ]
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    got = field.mul_rows(a, b)
    for (x, y), z in zip(pairs, got):
        assert tuple(int(c) for c in z) == naive_mul(x, y, field)


@pytest.mark.parametrize(
    "field", [FieldParams(5, 3), FieldParams(3, 4), FieldParams(7, 2)], ids=str
)
def test_element_rows_follow_elements_order(field):
    """Element n has the base-p digits of n, least significant first, as
    its coordinates, in ``element_rows`` and in ``elements()`` alike."""
    q, p = field.q, field.p

    def digits(n):
        out = []
        for _ in range(field.r):
            n, d = divmod(n, p)
            out.append(d)
        return tuple(out)

    listed = [digits(n) for n in range(q)]
    assert [x.coeffs for x in field.elements()] == listed
    for start, stop in [(0, q), (0, 7), (5, 17), (7, 14), (q - 3, q), (4, 4)]:
        got = field.element_rows(start, stop)
        assert got.shape == (stop - start, field.r)
        assert as_tuples(got) == listed[start:stop]


def test_parse_and_render_round_trip():
    F8 = FieldParams(2, 3)
    for x in F8.elements():
        assert F8.parse_element(str(x)) == x
    F3 = FieldParams(3)
    assert F3.parse_element("-1") == F3.element(2)
    with pytest.raises(ParseError):
        F3.parse_element("b")  # no generator in a prime field
    with pytest.raises(ParseError):
        F8.parse_element("b^5")


def test_field_construction_errors():
    with pytest.raises(FieldConstructionError):
        FieldParams(4)
    with pytest.raises(FieldConstructionError):
        FieldParams(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(FieldConstructionError):
        FieldParams(2, 2, [1, 1])  # wrong degree
    with pytest.raises(ZeroDivisionFieldError):
        FieldParams(2).zero().inverse()


def test_primes_beyond_the_int64_safe_range_rejected():
    """Squaring -(1+T+...+T^4) sums up to five products (p-1)² in int64:
    that overflowed silently at p = 2^31 - 1 and is exact at p = 65521."""
    with pytest.raises(FieldConstructionError):
        FieldParams(2147483647, 1, [0, 1])
    field = FieldParams(65521, 1, [0, 1])
    x = -parse_series("1+T+T^2+T^3+T^4", field)
    square = x * x
    assert square.lead == 0
    assert [int(c) for c in square.coeffs[:, 0]] == [1, 2, 3, 4, 5, 4, 3, 2, 1]


def test_prime_bound_checked_before_primality(monkeypatch):
    """Trial division to √p would run for minutes at p = 2^61 - 1: the
    p < 2^16 bound rejects such a p before primality is tested."""
    calls = []
    monkeypatch.setattr(field_module, "_is_prime", lambda n: calls.append(n) or True)
    for p in (2**16, 65537, 2**61 - 1):
        with pytest.raises(FieldConstructionError, match="too large"):
            FieldParams(p)
    assert calls == []
    FieldParams(65521, 1, [0, 1])
    assert calls == [65521]


def test_fields_of_order_2_32_and_above_rejected():
    """The irreducibility test is trial division by every factor of degree
    <= r/2, so q = 65521^4 never finished; it is rejected before that."""
    t0 = time.perf_counter()
    with pytest.raises(FieldConstructionError):
        FieldParams(65521, 4, [3, 1, 0, 0, 1])
    assert time.perf_counter() - t0 < 5
    field = FieldParams(65521, 2, [17, 0, 1])
    b = field.gen()
    assert b * b == field.element(-17)


def test_cross_field_operations_rejected():
    a = FieldParams(2).one()
    b = FieldParams(3).one()
    with pytest.raises(IncompatibleFieldError):
        a + b


def test_custom_modulus_accepted():
    # x^2 + x + 2 is irreducible over F_3 (no roots)
    field = FieldParams(3, 2, [2, 1, 1])
    x = field.gen()
    assert x * x == field.element([1, 2])  # b^2 = -b - 2 = 2b + 1


@pytest.mark.parametrize("p", [11, 13, 65521])
def test_a_prime_field_needs_no_modulus(p):
    """F_p takes the modulus x by default for every prime p < 2^16, with or
    without a built-in table entry; its arithmetic is the integers mod p."""
    field = FieldParams(p)
    assert field == FieldParams(p, 1, [0, 1])
    assert field.modulus == (0, 1)
    a, b = field.element(p - 3), field.element(7)
    assert a * b == field.element((p - 3) * 7)
    assert a * a.inverse() == field.one()


@pytest.mark.parametrize("p, r", [(11, 2), (13, 3), (2, 5), (7, 5)])
def test_an_extension_without_a_built_in_modulus_needs_one(p, r):
    with pytest.raises(FieldConstructionError, match="no built-in modulus"):
        FieldParams(p, r)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_p_split_of_an_array_equals_the_scalar_split(p):
    """The array split (one gcd with the largest int64 power of p) equals
    the scalar split entry by entry: on 1 .. 999, on every power p^s
    below 2^63 (the largest included), on u·p^s for units u and on
    entries near 2^63; s and u are int64.  An entry below 1 raises the
    scalar split's HypothesisError, naming the least entry."""
    top = 2**63
    powers = [p**s for s in range(64) if p**s < top]
    units = [u for u in (1, 2, 3, p - 1, p + 1, 2 * p + 1) if u % p]
    n = list(range(1, 1000)) + powers + [u * q for u in units for q in powers if u * q < top]
    n += [top - 1 - i for i in range(8)]
    s, u = field_module.p_split(np.array(n, dtype=np.int64), p)
    assert s.dtype == u.dtype == np.int64
    assert list(zip(s.tolist(), u.tolist())) == [field_module.p_split(x, p) for x in n]
    assert s[999 + len(powers) - 1] == len(powers) - 1
    for bad in ([3, 0, 5], [-4, 2]):
        with pytest.raises(HypothesisError, match=f"exponent must be >= 1, got {min(bad)}"):
            field_module.p_split(np.array(bad, dtype=np.int64), p)
