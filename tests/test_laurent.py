"""Truncated Laurent series: valuation axioms, precision propagation,
parsing, and ramified towers."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lindisc import FieldParams, LaurentSeries, parse_series
from lindisc.errors import (
    IncompatibleFieldError,
    NotIntegralError,
    ParseError,
    PrecisionError,
    ZeroDivisionFieldError,
)
from lindisc.laurent import _convolve, _invert_unit, format_valuation

F2 = FieldParams(2)
F3 = FieldParams(3)
F4 = FieldParams(2, 2)


def random_series(field, rng, prec=24, exact=False, ram=1):
    lead = rng.randrange(-5, 6)
    length = rng.randrange(1, 10)
    coeffs = [[rng.randrange(field.p) for _ in range(field.r)] for _ in range(length)]
    coeffs[0] = [1] + [0] * (field.r - 1)  # nonzero lead
    return LaurentSeries(field, ram, lead, coeffs, lead + length if exact else prec, exact)


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["F2", "F3", "F4"])
def test_valuation_axioms(field):
    rng = random.Random(field.q)
    for _ in range(100):
        a = random_series(field, rng)
        b = random_series(field, rng)
        va, vb = a.valuation(), b.valuation()
        assert (a * b).valuation() == va + vb
        vs = (a + b).valuation()
        assert vs is None or vs >= min(va, vb)  # None: a + b is zero as known
        if va != vb:
            assert vs == min(va, vb)


def test_valuation_of_uniformizer():
    t = LaurentSeries.monomial(F2, 1)
    assert t.valuation() == 1
    assert (t * t).valuation() == 2
    u = LaurentSeries.monomial(F2, 1, ram=2)
    assert u.valuation() == Fraction(1, 2)


def test_addition_precision_is_minimum():
    a = parse_series("1+T+O(T^5)", F2)
    b = parse_series("T^2+O(T^9)", F2)
    assert (a + b).prec == 5
    assert (a + b).exact is False


def test_multiplication_precision_rule():
    a = parse_series("T+O(T^5)", F2)  # lead 1, prec 5
    b = parse_series("T^2+O(T^4)", F2)  # lead 2, prec 4
    prod = a * b
    # min(5 + 2, 4 + 1) = 5
    assert prod.prec == 5
    assert prod.lead == 3


def test_exact_zero_times_inexact_series_is_exact_zero():
    zero = LaurentSeries.zero(F2, exact=True)
    s = parse_series("T^3+T^4+O(T^13)", F2)
    for prod in (zero * s, s * zero):
        assert prod.is_exact_zero
    # a zero known only to O(T^5) still caps the product's horizon: 5 + 3
    prod = LaurentSeries.zero(F2, prec=5) * s
    assert prod.is_zero_as_known and not prod.exact and prod.prec == 8


def test_exact_series_survive_arithmetic():
    a = parse_series("1+T", F2)
    b = parse_series("T^3", F2)
    assert (a * b).exact
    assert (a + b).exact
    assert (a**5).exact
    # exact zeros agree whatever horizon they were declared with
    c = parse_series("1+T", FieldParams(5))
    zero = LaurentSeries.zero(FieldParams(5), 1, 0, exact=True)
    for exact_zero in (c - c, c.scale(0)):
        assert exact_zero.is_exact_zero
        assert exact_zero.agrees_with(zero) and zero.agrees_with(exact_zero)


def test_inverse_round_trip():
    rng = random.Random(3)
    one = parse_series("1", F3)
    for _ in range(50):
        a = random_series(F3, rng)
        inv = a.inverse()
        assert (a * inv).agrees_with(one)


@pytest.mark.parametrize("field", [F3, FieldParams(5), F4, FieldParams(3, 2), FieldParams(2, 4)])
def test_inverse_with_every_leading_coefficient(field):
    rng = random.Random(field.q)
    one = LaurentSeries.constant(field, 1)
    for c in field.elements():
        if c.is_zero:
            continue
        a = random_series(field, rng).scale(c)
        assert (a * a.inverse()).agrees_with(one)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionFieldError):
        parse_series("0", F2).inverse()
    with pytest.raises(PrecisionError):
        LaurentSeries.zero(F2, 1, 8).inverse()


def test_geometric_series():
    inv = parse_series("1+T", F2).inverse()
    # 1/(1+T) = 1 + T + T^2 + ... in char 2
    for j in range(inv.prec):
        assert inv.coefficient(j) == F2.one()


def test_coefficient_beyond_horizon_rejected():
    a = parse_series("1+O(T^4)", F2)
    assert a.coefficient(3) == F2.zero()
    with pytest.raises(PrecisionError):
        a.coefficient(4)


def test_with_prec_cannot_invent_digits():
    a = parse_series("1+O(T^4)", F2)
    with pytest.raises(PrecisionError):
        a.with_prec(10)
    exact = parse_series("1+T", F2)
    assert exact.with_prec(100).prec == 100


def test_residue():
    assert parse_series("1+T", F2).residue() == F2.one()
    assert parse_series("T+T^2", F2).residue() == F2.zero()
    with pytest.raises(NotIntegralError):
        parse_series("T^-1", F2).residue()


def test_ramify_preserves_valuation():
    a = parse_series("T^-1+1+T^2", F4)
    b = a.ramify(3)
    assert b.valuation() == a.valuation() == -1
    assert b.coefficient(-3) == a.coefficient(-1)
    assert b.coefficient(6) == a.coefficient(2)
    assert b.coefficient(1) == F4.zero()


@pytest.mark.parametrize("field", [F2, F4], ids=str)
def test_ramify_composes_through_any_multiple(field):
    """x.ramify(2).ramify(6) == x.ramify(6) in lead, rows, horizon and
    exactness, for exact, inexact and zero series."""
    rng = random.Random(field.q)
    cases = [random_series(field, rng, exact=exact) for exact in (True, False)] + [
        LaurentSeries.zero(field, 1, 5, exact=exact) for exact in (True, False)
    ]
    for x in cases:
        two_steps, one_step = x.ramify(2).ramify(6), x.ramify(6)
        assert two_steps.ram == one_step.ram == 6
        assert two_steps.lead == one_step.lead == 6 * x.lead
        assert np.array_equal(two_steps.coeffs, one_step.coeffs)
        assert two_steps.prec == one_step.prec == 6 * x.prec
        assert two_steps.exact == one_step.exact == x.exact
        for e in (3, 5):
            with pytest.raises(IncompatibleFieldError):
                x.ramify(2).ramify(e)


def test_residue_field_extension():
    a = parse_series("1+T", F2)
    b = a.extend_residue_field(F4)
    assert b.field == F4
    assert b.coefficient(0) == F4.one()


def test_parse_render_round_trip():
    """Over F_p, F_{p^r} for r in {2, 3, 4}, and in towers e in {2, 3}:
    a rendering in U and O(U^n) parses back to the same series."""
    rng = random.Random(17)
    fields = (F2, F3, F4, FieldParams(2, 3), FieldParams(3, 3), FieldParams(3, 4))
    for field, ram in itertools.product(fields, (1, 2, 3)):
        for _ in range(40):
            a = random_series(field, rng, exact=rng.random() < 0.5, ram=ram)
            text = a.render()
            assert ("U" in text) == (ram > 1)
            again = parse_series(text, field, ram)
            assert again.lead == a.lead
            assert np.array_equal(again.coeffs, a.coeffs)
            assert again.prec == a.prec


def test_parse_examples():
    a = parse_series("T^-1 + 1 + (b+1)*T^2", F4)
    assert a.lead == -1
    assert a.coefficient(2) == F4.element([1, 1])
    b = parse_series("-T + 2*T^3", F3)
    assert b.coefficient(1) == F3.element(2)
    with pytest.raises(ParseError):
        parse_series("1 + * T", F2)
    with pytest.raises(ParseError):
        parse_series("", F2)
    with pytest.raises(ParseError):
        parse_series("U^2", F2)  # U needs a ramified tower


F5 = FieldParams(5)
F9 = FieldParams(3, 2)


def _series(field, ram=1):
    return lambda text: parse_series(text, field, ram).render()


def _element(field):
    return lambda text: str(field.parse_element(text))


# (parse, literal, rendering or None for a ParseError).  The rows marked
# "changed" had another outcome before field elements and series terms
# shared one term splitter and one integer rule
LITERALS = [
    # changed: two O-terms, the last one won
    pytest.param(_series(F2), "1+O(T^3)+O(T^5)", None, id="two-O-terms"),
    # changed: O(T5) read as O(T^5), and O(U^3) as O(T^3) at e = 1
    pytest.param(_series(F2), "1+O(T5)", None, id="O-term-without-caret"),
    pytest.param(_series(F2), "O(U^3)+1", None, id="O-term-U-at-e-1"),
    pytest.param(_series(F2), "O(T^)", None, id="O-term-empty-exponent"),
    # changed: a space joined the digits 1 and 2 into 12
    pytest.param(_series(F5), "1+(1 2)*T", None, id="space-joins-digits"),
    pytest.param(_element(F5), "1 2", None, id="element-space-joins-digits"),
    # changed: int() read 1_0 as 10 and an Arabic-Indic digit as 3
    pytest.param(_element(F5), "1_0", None, id="element-underscore"),
    pytest.param(_series(F2), "1+T^\u0663", None, id="unicode-digit-exponent"),
    pytest.param(_element(F5), "\u0663", None, id="element-unicode-digit"),
    # changed: a series took two signs in a row, and a trailing sign,
    # a trailing ^ or a trailing * dropped what followed
    pytest.param(_series(F2), "--1", None, id="two-leading-signs"),
    pytest.param(_series(F2), "1+-T", None, id="two-signs-between-terms"),
    pytest.param(_series(F2), "1+", None, id="trailing-sign"),
    pytest.param(_series(F2), "1+T^", None, id="trailing-caret"),
    pytest.param(_series(F3), "2*", None, id="star-without-variable"),
    pytest.param(_element(F4), "*b", None, id="element-star-without-coefficient"),
    # changed: int() raised ValueError past 4300 digits
    pytest.param(_series(F2), "T^" + "1" * 5000, None, id="exponent-of-5000-digits"),
    # changed: 2b was an element but not a bare series coefficient
    pytest.param(_series(F4), "b+2b*T", "b + O(T^16)", id="bare-2b-coefficient"),
    pytest.param(_series(F9), "b+2b*T", "b + 2*b*T + O(T^16)", id="bare-2b-over-F9"),
    pytest.param(_series(F9), "b+(2b)*T", "b + 2*b*T + O(T^16)", id="parenthesised-2b"),
    pytest.param(_element(F9), "2b", "2*b", id="element-2b"),
    # changed: whitespace may separate any two tokens
    pytest.param(_series(F2), "T ^ 2", "T^2 + O(T^16)", id="spaced-caret"),
    pytest.param(_series(F2), "T^ -1", "T^-1 + O(T^16)", id="spaced-negative-exponent"),
    pytest.param(_series(F2), "O (T^3)", "O(T^3)", id="spaced-O-term"),
    # unchanged
    pytest.param(_element(F5), "--1", None, id="element-two-leading-signs"),
    pytest.param(_element(F4), "1+-b", None, id="element-two-signs-between-terms"),
    pytest.param(_series(F2), "-O(T^3)+1", "1 + O(T^3)", id="signed-O-term"),
    pytest.param(_series(F5), "T^02 + 0003", "3 + T^2 + O(T^16)", id="leading-zeros"),
    pytest.param(_series(F5, 2), "2 T + U^-1 + O(U^5)", "U^-1 + 2*U^2 + O(U^5)", id="tower"),
    pytest.param(_series(F4), "(b+1)T - bT^2", "(b+1)*T + b*T^2 + O(T^16)", id="coefficients"),
    pytest.param(_element(F9), " -2 * b ^ 1 + 1 ", "b+1", id="element-spaced"),
    pytest.param(_element(F4), "+b^0", "1", id="element-b0"),
    pytest.param(_series(F2), "1+(1)", "O(T^16)", id="cancelling-terms"),
    pytest.param(_series(F2), "T^-4097", None, id="exponent-above-maximum"),
    pytest.param(_element(F4), "b^2", None, id="element-power-above-r"),
    pytest.param(_series(F2), "U", None, id="U-at-e-1"),
    pytest.param(_series(F2), "1 + (1", None, id="unbalanced"),
    pytest.param(_series(F2), " ", None, id="blank"),
]


@pytest.mark.parametrize("parse, text, want", LITERALS)
def test_literal_grammar(parse, text, want):
    if want is None:
        with pytest.raises(ParseError):
            parse(text)
    else:
        assert parse(text) == want


def test_parse_in_tower():
    u = parse_series("U + U^3", F2, ram=2)
    assert u.valuation() == Fraction(1, 2)
    t = parse_series("T", F2, ram=2)
    assert t.valuation() == 1


def test_dual_horizon_soundness():
    """The same computation at doubled horizon agrees on the common one."""
    rng = random.Random(23)
    for _ in range(30):
        lo = random_series(F3, rng, prec=12)
        hi = lo.exact and lo or LaurentSeries(F3, 1, lo.lead, lo.coeffs, 24)
        expr_lo = (lo * lo + lo).inverse()
        expr_hi = (hi * hi + hi).inverse()
        assert expr_lo.agrees_with(expr_hi)


def test_truncate_relative():
    a = parse_series("1+T+T^2+T^3", F2)
    t = a.truncate_relative(2)
    assert t.prec == 2
    assert not t.exact
    # on an exact series the declared horizon may be raised freely
    widened = a.truncate_relative(10)
    assert widened.prec == 10
    assert widened.exact
    assert widened.agrees_with(a)


def test_valuation_comparisons():
    """A valuation is a plain Fraction, None for a series zero as known;
    the reports write it as num/den through ``format_valuation``."""
    assert format_valuation(Fraction(-3, 2)) == "-3/2"
    assert format_valuation(Fraction(1)) == "1/1"
    assert parse_series("T^-1+1", F3).valuation() == Fraction(-1)
    assert parse_series("U^3+O(U^9)", F3, ram=2).valuation() == Fraction(3, 2)
    assert LaurentSeries.zero(F3, 1, 4).valuation() is None


@pytest.mark.parametrize("field", [F3, F4, FieldParams(2, 4)], ids=["r1", "r2", "r4"])
def test_batched_convolution_is_one_convolution_per_slice(field):
    """Each slice of a batched product is the unbatched product: the zero
    rows between slices keep them apart, at every length down to 1."""
    rng = random.Random(field.q)
    for la, lb in [(1, 1), (1, 5), (6, 1), (7, 4), (3, 9)]:
        a = np.array(
            [[rng.randrange(field.p) for _ in range(field.r)] for _ in range(6 * la)]
        ).reshape(2, 3, la, field.r)
        b = np.array([[rng.randrange(field.p) for _ in range(field.r)] for _ in range(lb)])
        batched = _convolve(field, a, b)
        assert batched.shape == (2, 3, la + lb - 1, field.r)
        for i in range(2):
            for j in range(3):
                assert (batched[i, j] == _convolve(field, a[i, j], b)).all()


@pytest.mark.parametrize("field", [F3, F4, FieldParams(2, 4)], ids=["r1", "r2", "r4"])
def test_pairwise_convolution_is_one_convolution_per_pair(field):
    """When both operands carry the batch, slice (i, j) of the product is
    the unbatched product of the two (i, j) slices, at every length down
    to 1, and a batch of one is the unbatched product too."""
    rng = random.Random(field.q)

    def rows(*shape):
        return np.array(
            [rng.randrange(field.p) for _ in range(field.r * math.prod(shape))],
            dtype=np.int64,
        ).reshape(*shape, field.r)

    for la, lb in [(1, 1), (1, 5), (6, 1), (7, 4), (3, 9)]:
        a, b = rows(2, 3, la), rows(2, 3, lb)
        paired = _convolve(field, a, b)
        assert paired.shape == (2, 3, la + lb - 1, field.r)
        for i in range(2):
            for j in range(3):
                assert (paired[i, j] == _convolve(field, a[i, j], b[i, j])).all()
        one = _convolve(field, a[:1, :1], b[:1, :1])
        assert (one[0, 0] == _convolve(field, a[0, 0], b[0, 0])).all()


def int_convolve(field, a, b):
    """The product of two coefficient arrays in Python ints, reduced by
    the modulus and by p only at the end."""
    p, r, modulus = field.p, field.r, list(field.modulus)
    a, b = a.astype(object), b.astype(object)
    raw = np.zeros((a.shape[0] + b.shape[0] - 1, 2 * r - 1), dtype=object)
    for s1 in range(r):
        for s2 in range(r):
            raw[:, s1 + s2] += np.convolve(a[:, s1], b[:, s2])
    for t in range(2 * r - 2, r - 1, -1):
        for j in range(r + 1):
            raw[:, t - r + j] -= raw[:, t] * modulus[j]
    return raw[:, :r] % p


@pytest.mark.parametrize(
    "field", [FieldParams(65521, 1, [0, 1]), FieldParams(65521, 2, [17, 0, 1])],
    ids=["r1", "r2"],
)
def test_convolution_at_the_largest_prime_is_exact(field):
    """1024 rows of p - 1 at p = 65521: the int64 sums of products
    (p - 1)² match Python integers, batched or not."""
    a = np.full((1024, field.r), field.p - 1, dtype=np.int64)
    expected = int_convolve(field, a, a).astype(np.int64)
    assert (_convolve(field, a, a) == expected).all()
    assert (_convolve(field, np.stack([a, a]), a) == expected).all()
    assert (_convolve(field, np.stack([a, a]), np.stack([a, a])) == expected).all()


def _unit_stack(field, rng, digits):
    """One unit per nonzero element of the field, that element leading,
    with random rows after it."""
    leads = [row for row in field.element_rows(1, field.q)]
    tail = [
        [[rng.randrange(field.p) for _ in range(field.r)] for _ in range(digits - 1)]
        for _ in leads
    ]
    return np.array([[lead, *rows] for lead, rows in zip(leads, tail)], dtype=np.int64)


@pytest.mark.parametrize(
    "field",
    [F3, F4, FieldParams(3, 2), FieldParams(2, 4)],
    ids=["F3", "F4", "F9", "F16"],
)
def test_batched_inverse_pairs_each_unit_with_its_own_inverse(field):
    """A stack of units with every leading coefficient of the field: each
    batched inverse times its own unit is 1 to the digits asked for, and
    equals the inverse of that unit alone.  A kernel that started the
    whole stack from the first unit's c^(q-2) fails here."""
    rng = random.Random(field.q)
    for digits in (1, 2, 13, 32):
        units = _unit_stack(field, rng, digits)
        inverses = _invert_unit(field, units, digits)
        assert inverses.shape == units.shape
        one = np.zeros((digits, field.r), dtype=np.int64)
        one[0, 0] = 1
        for unit, inv in zip(units, inverses):
            assert (_convolve(field, unit, inv)[:digits] == one).all()
            assert (_invert_unit(field, unit[None], digits)[0] == inv).all()


@pytest.mark.parametrize(
    "field", [FieldParams(65521, 1, [0, 1]), FieldParams(65521, 2, [17, 0, 1])],
    ids=["r1", "r2"],
)
def test_batched_inverse_at_the_largest_prime_is_exact(field):
    """The pairwise products of the batched Newton run stay inside int64
    at p = 65521 (W·r·p² < 2^63): units of 256 rows, checked in Python
    integers."""
    rng = random.Random(7)
    digits = 256
    units = np.array(
        [
            [[rng.choice((1, field.p - 1, rng.randrange(field.p))) for _ in range(field.r)]
             for _ in range(digits)]
            for _ in range(3)
        ],
        dtype=np.int64,
    )
    units[:, 0] = [[field.p - 1] + [0] * (field.r - 1)]
    units[1, 0, -1] = 3
    inverses = _invert_unit(field, units, digits)
    one = np.zeros((digits, field.r), dtype=object)
    one[0, 0] = 1
    for unit, inv in zip(units, inverses):
        assert (int_convolve(field, unit, inv)[:digits] == one).all()


def test_batched_inverse_memory_is_linear_in_the_stack():
    """The batched Newton run keeps O(K·W·r) integers: its peak stays a
    small multiple of the stack, far below a K×W×W Toeplitz (W = 64
    times the stack)."""
    rng = np.random.default_rng(3)
    units = rng.integers(0, 5, size=(256, 64, 1))
    units[:, 0, 0] = 1
    field = FieldParams(5)
    tracemalloc.start()
    try:
        _invert_unit(field, units, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * units.nbytes, (peak, units.nbytes)
