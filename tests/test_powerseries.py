"""Power-series maps: gauge, evaluation, iteration, composition and
derivative."""

import random
from fractions import Fraction

import numpy as np
import pytest

import lindisc.powerseries
from lindisc import (
    FieldParams,
    LaurentSeries,
    PowerSeriesMap,
    binomial_mod_p,
    eval_table,
    parse_series,
    ps_derivative_at,
    ps_eval,
    ps_gauge,
    table_compose,
)
from lindisc.errors import HypothesisError
from lindisc.powerseries import _table_derivative, newton_root
from lindisc.schroder import solve_sfe
from oracles import (
    binomial_digits,
    conjugacy_table,
    derivative_term_sum,
    horizon,
    invert_at_point,
    ps_iterate,
    table_compose_horner,
)

F2 = FieldParams(2)
F3 = FieldParams(3)
F4 = FieldParams(2, 2)


def series(lit, field=F2, **kw):
    return parse_series(lit, field, **kw)


def test_map_requires_unit_multiplier():
    with pytest.raises(HypothesisError):
        PowerSeriesMap({1: series("T")})
    with pytest.raises(HypothesisError):
        PowerSeriesMap({2: series("1")})
    with pytest.raises(HypothesisError):
        PowerSeriesMap({0: series("1"), 1: series("1+T")})


def test_gauge_examples():
    lam = series("1+T")
    g = ps_gauge(PowerSeriesMap({1: lam, 2: series("1")}))
    assert (g.A, g.attained_at) == (0, 2)
    g = ps_gauge(PowerSeriesMap({1: lam, 3: series("T")}))
    assert (g.A, g.attained_at) == (Fraction(1, 2), 3)
    g = ps_gauge(PowerSeriesMap({1: lam, 2: series("T^-1"), 4: series("1")}))
    assert (g.A, g.attained_at) == (-1, 2)
    linear = ps_gauge(PowerSeriesMap({1: lam}))
    assert linear.is_linear


def test_linear_map_is_not_p_divisible():
    """A linear map is not in the p-divisible family, so the solver and
    the structural checks take their generic path for it."""
    assert not PowerSeriesMap({1: series("1+T")}).divisible_degrees()
    assert PowerSeriesMap({1: series("1+T"), 4: series("1")}).divisible_degrees()


def test_gauge_bound_holds_for_all_degrees():
    rng = random.Random(5)
    for _ in range(20):
        coeffs = {1: series("1+T", F3)}
        for d in rng.sample(range(2, 12), 4):
            coeffs[d] = parse_series(f"T^{rng.randrange(-2, 4)}", F3)
        f = PowerSeriesMap(coeffs)
        g = ps_gauge(f)
        for i in f.nonlinear_degrees:
            assert f.coeffs[i].valuation() >= (i - 1) * g.A
        assert f.coeffs[g.attained_at].valuation() == (g.attained_at - 1) * g.A


def test_eval_fixed_point_char2():
    f = PowerSeriesMap({1: series("1+T"), 2: series("1")})
    x = series("T", prec=20)
    assert ps_eval(f, x).agrees_with(x)
    assert ps_iterate(f, 5, x).agrees_with(x)


def test_eval_char3_cubic():
    f = PowerSeriesMap({1: series("1+T", F3), 3: series("1", F3)})
    got = ps_eval(f, series("T", F3, prec=20))
    assert got.agrees_with(series("T+T^2+T^3", F3, prec=20))
    # the same Horner evaluates residue-field tables: b + b^3 = b + 1 in F_4
    b = F4.gen()
    assert eval_table({1: F4.one(), 3: F4.one()}, b) == b + F4.one()


def test_eval_at_zero():
    f = PowerSeriesMap({1: series("1+T"), 4: series("T^2")})
    assert ps_eval(f, LaurentSeries.zero(F2, 1, 10)).is_zero_as_known


def test_iterate_trivial_cases():
    f = PowerSeriesMap({1: series("1+T"), 2: series("1")})
    x = series("T^2", prec=20)
    assert ps_iterate(f, 0, x) is x
    lam = series("2+T", F3)
    linear = PowerSeriesMap({1: lam})
    y = series("T", F3, prec=20)
    assert ps_iterate(linear, 3, y).agrees_with((lam**3) * y)


def test_injectivity_below_gauge_radius():
    """v(f(x) - f(y)) = v(x - y) for points inside the gauge disc."""
    rng = random.Random(9)
    f = PowerSeriesMap({1: series("1+T", F3), 2: series("T", F3), 3: series("1", F3)})
    # A = 0, so sample points with v > 0
    for _ in range(30):
        x = parse_series(f"T^{rng.randrange(1, 5)}+T^{rng.randrange(5, 9)}+O(T^30)", F3)
        y = parse_series(f"2*T^{rng.randrange(1, 5)}+O(T^30)", F3)
        if (x - y).is_zero_as_known:
            continue
        assert (ps_eval(f, x) - ps_eval(f, y)).valuation() == (x - y).valuation()


def test_compose_identity_and_binomial():
    lam = series("1+T", F3)
    a2 = series("2", F3)
    f = PowerSeriesMap({1: lam, 2: a2})
    ident = table_compose({1: series("1", F3)}, f.coeffs, 3)
    assert ident[1].agrees_with(lam)
    assert ident[2].agrees_with(a2)
    sq = table_compose({2: series("1", F3)}, f.coeffs, 3)
    assert sq[2].agrees_with(lam * lam)
    assert sq[3].agrees_with((lam * a2).scale(2))


def test_compose_char2_kills_cross_term():
    f = PowerSeriesMap({1: series("1+T"), 2: series("1")})
    sq = table_compose({2: series("1")}, f.coeffs, 3)
    assert 3 not in sq or sq[3].is_zero_as_known


def test_compose_associativity():
    """(g∘f)∘f and g∘(f∘f) agree degree by degree."""
    lam = series("1+T")
    f = PowerSeriesMap({1: lam, 2: series("1"), 3: series("T")})
    outer = {1: series("1+T^2"), 3: series("T")}
    D = 9
    lhs = table_compose(table_compose(outer, f.coeffs, D), f.coeffs, D)
    rhs = table_compose(outer, table_compose(f.coeffs, f.coeffs, D), D)
    for d in range(1, D + 1):
        a = lhs.get(d)
        b = rhs.get(d)
        if a is None or b is None:
            assert (a is None or a.is_zero_as_known) and (
                b is None or b.is_zero_as_known
            )
        else:
            assert a.agrees_with(b)


COMPOSE_FIELDS = [F2, F3, F4, FieldParams(5), FieldParams(3, 2)]


def _random_table(rng, field, ram, degrees, exact):
    """Random nonzero series at each degree; an inexact one knows 0-2
    digits past its last stored row."""
    table = {}
    for d in degrees:
        n, lead = rng.randrange(1, 4), rng.randrange(-2, 3)
        rows = [[rng.randrange(field.p) for _ in range(field.r)] for _ in range(n)]
        rows[0][0] = rows[0][0] or 1
        prec = lead + n + (0 if exact else rng.randrange(3))
        table[d] = LaurentSeries(field, ram, lead, rows, prec, exact)
    return table


def _check_against_horner(outer, inner, D):
    """Every coefficient agrees with the Horner oracle on the common
    horizon; with an exact inner table none has a lower horizon; exact
    tables in give exact tables out, equal in lead and rows."""
    got, want = table_compose(outer, inner, D), table_compose_horner(outer, inner, D)
    some = next(iter(outer.values()))
    zero = LaurentSeries.zero(some.field, some.ram, 0, exact=True)
    inner_exact = all(c.exact for c in inner.values())
    all_exact = inner_exact and all(a.exact for a in outer.values())
    for d in set(got) | set(want):
        a, b = got.get(d, zero), want.get(d, zero)
        assert a.agrees_with(b), d
        if inner_exact:
            assert horizon(a) >= horizon(b), d
        if all_exact:
            assert a.exact and b.exact and a == b, d
    return got


@pytest.mark.parametrize("field", COMPOSE_FIELDS, ids=str)
@pytest.mark.parametrize("ram", [1, 2])
@pytest.mark.parametrize("outer_exact", [True, False])
@pytest.mark.parametrize("inner_exact", [True, False])
def test_table_compose_equals_horner_oracle(field, ram, outer_exact, inner_exact):
    """At the outer degrees 1, 2, p, p², 2p, 5 and 6, alone and together
    with a constant term, over a random inner table and the empty one."""
    p = field.p
    rng = random.Random(f"{field}-{ram}-{outer_exact}-{inner_exact}")
    degrees = sorted({1, 2, p, p * p, 2 * p, 5, 6})
    for inner_degrees in ([1, 2], [1, 3], []):
        inner = _random_table(rng, field, ram, inner_degrees, inner_exact)
        D = 2 * max(degrees) - 1  # truncates the top of h^(p²)
        for outer_degrees in [[d] for d in degrees] + [[0] + degrees]:
            outer = _random_table(rng, field, ram, outer_degrees, outer_exact)
            got = _check_against_horner(outer, inner, D)
            if not inner:
                assert set(got) <= {0}


@pytest.mark.parametrize("field", COMPOSE_FIELDS, ids=str)
def test_composing_by_a_power_of_p_makes_no_table_product(field, monkeypatch):
    """λx + c·x^(p^s) composes by Frobenius alone: h^(p^s) is h with its
    coefficients raised to p^s, so ``_table_mul`` is never called."""
    calls = []
    mul = lindisc.powerseries._table_mul
    monkeypatch.setattr(
        lindisc.powerseries, "_table_mul", lambda *a: calls.append(a) or mul(*a)
    )
    rng = random.Random(str(field))
    for s in (1, 2):
        q = field.p**s
        outer = _random_table(rng, field, 1, [1, q], True)
        inner = _random_table(rng, field, 1, [1, 2, q], True)
        _check_against_horner(outer, inner, q * q)
    assert calls == []


def test_derivative_examples():
    lam3 = series("1+T", F3)
    a2 = series("2", F3)
    f = PowerSeriesMap({1: lam3, 2: a2})
    got = ps_derivative_at(f, series("T", F3, prec=16))
    assert got.agrees_with(lam3 + a2.scale(2) * series("T", F3, prec=16))
    # char 2 kills the quadratic term entirely
    f2 = PowerSeriesMap({1: series("1+T"), 2: series("1")})
    assert ps_derivative_at(f2, series("T^3", prec=16)).agrees_with(series("1+T"))
    # p-divisible degrees never contribute: derivative is λ at any point
    fam = PowerSeriesMap({1: series("1+T"), 4: series("1"), 6: series("T")})
    assert ps_derivative_at(fam, series("T+T^2", prec=16)).agrees_with(series("1+T"))


def _same_series(a, b):
    return (a.lead, a.prec, a.exact, a.coeffs.tobytes()) == (
        b.lead,
        b.prec,
        b.exact,
        b.coeffs.tobytes(),
    )


@pytest.mark.parametrize(
    "field", [F2, F3, FieldParams(5), F4, FieldParams(3, 2)], ids=str
)
def test_derivative_term_sum_equals_horner(field):
    """``ps_derivative_at``, Horner over the derivative table, equals the
    term sum (``oracles.derivative_term_sum``) in lead, horizon,
    exactness and bytes, at inexact points of random maps of degree
    prime to p (leads -3 .. 5).  For a p-divisible map the derivative
    table is {0: λ}, and Horner takes no closing factor x^0: both give
    λ itself, with λ's horizon, not x's."""
    rng = random.Random(field.q + 5)
    p = field.p

    def exact(lead, n):
        rows = [[rng.randrange(p) for _ in range(field.r)] for _ in range(n)]
        rows[0][0] = rows[0][0] or 1
        return LaurentSeries(field, 1, lead, rows, lead + n, exact=True)

    lam = LaurentSeries.constant(field, 1) + exact(1, 2)
    for _ in range(200):
        deg = rng.choice([d for d in range(2, 9) if d % p])
        coeffs = {1: lam, deg: exact(rng.randrange(-4, 5), 2)}
        for d in rng.sample(range(2, deg), min(deg - 2, rng.randrange(0, 4))):
            coeffs[d] = exact(rng.randrange(-4, 5), rng.randrange(1, 7))
        f = PowerSeriesMap(coeffs)
        lead = rng.randrange(-3, 6)
        x = LaurentSeries(field, 1, lead, exact(lead, 3).coeffs, lead + rng.randrange(1, 20))
        assert _same_series(ps_derivative_at(f, x), derivative_term_sum(f, x)), (f, x)
    fam = PowerSeriesMap({1: lam, p: exact(0, 2), 2 * p: exact(-1, 3)})
    x = LaurentSeries(field, 1, 1, exact(1, 3).coeffs, 300)
    assert ps_derivative_at(fam, x) is lam
    assert derivative_term_sum(fam, x) is lam
    assert eval_table({0: lam}, x) is lam and lam.prec == 3


# Newton lifts from a simple residue root u0 that take Newton steps:
# field, ramification, the polynomial's coefficients, u0, and the root
# lifted from u0 known to O(V^24), as rendered before ``eval_table``
# dropped its closing factor x^0.
_EXACT_DERIVATIVE_LIFTS = {
    "F_2": (F2, 1, {0: "T", 1: "1+T", 2: "1+T^3"}, "1",
            "1 + T^3 + T^4 + T^5 + T^8 + T^10 + T^13 + T^14 + T^15 + T^19 + T^23 + O(T^24)"),
    "F_3": (F3, 1, {0: "T", 1: "1+T", 3: "2+T^2"}, "1",
            "1 + T + T^2 + 2*T^5 + 2*T^6 + T^7 + T^8 + 2*T^9 + T^10 + 2*T^11 + T^12"
            " + 2*T^13 + T^14 + T^15 + 2*T^16 + 2*T^17 + T^20 + 2*T^23 + O(T^24)"),
    "F_2^2": (F4, 1, {0: "T", 1: "1+T", 2: "b+T^2"}, "b+1",
              "(b+1) + b*T + T^2 + T^3 + (b+1)*T^6 + (b+1)*T^7 + b*T^8 + b*T^9"
              " + b*T^10 + b*T^11 + T^12 + T^13 + (b+1)*T^16 + (b+1)*T^17 + T^18"
              " + T^19 + (b+1)*T^20 + (b+1)*T^21 + T^22 + T^23 + O(T^24)"),
    "F_2,e=2": (F2, 2, {0: "U", 1: "1+U", 2: "1+U^3"}, "1",
                "1 + U^3 + U^4 + U^5 + U^8 + U^10 + U^13 + U^14 + U^15 + U^19 + U^23"
                " + O(U^24)"),
}
_SLOPE_DERIVATIVE_LIFTS = {
    "F_3": (F3, 1, {0: "2+2*T", 2: "1"}, "1",
            "1 + 2*T + T^2 + T^3 + 2*T^4 + T^5 + T^9 + 2*T^10 + T^11 + T^12 + 2*T^13"
            " + T^14 + O(T^24)"),
    "F_5": (FieldParams(5), 1, {0: "3+T^2", 1: "1", 3: "1+T"}, "1",
            "1 + T + 2*T^2 + 2*T^3 + 4*T^4 + 3*T^5 + 2*T^6 + 2*T^7 + 2*T^8 + 4*T^9"
            " + T^10 + T^11 + 3*T^12 + 3*T^13 + T^14 + 2*T^15 + 3*T^16 + 2*T^17"
            " + 4*T^20 + 2*T^21 + 4*T^22 + T^23 + O(T^24)"),
    "F_2^2": (F4, 1, {0: "(b+1)+b*T", 1: "1", 3: "1+T"}, "b",
              "b + b*T + (b+1)*T^4 + T^5 + (b+1)*T^6 + b*T^7 + b*T^8 + T^9 + T^10"
              " + (b+1)*T^11 + T^12 + (b+1)*T^13 + (b+1)*T^14 + b*T^15 + T^16"
              " + b*T^17 + (b+1)*T^18 + b*T^19 + T^20 + T^21 + O(T^24)"),
}


def _lift(case, horizon):
    """The lift of one case from u0 known to O(V^horizon): the start,
    the derivative's value there, and the root, checked against the
    recorded root and for its start horizon."""
    field, ram, lits, start, recorded = case
    var = "U" if ram > 1 else "T"
    table = {d: parse_series(s, field, ram=ram) for d, s in lits.items()}
    dtable = _table_derivative(table, field.p)
    u = parse_series(f"{start}+O({var}^{horizon})", field, ram=ram)
    assert not eval_table(table, u).is_zero_as_known  # so Newton steps are taken
    root = newton_root(table, dtable, u)
    assert root.prec == u.prec and not root.exact
    assert eval_table(table, root).is_zero_as_known
    want = parse_series(recorded, field, ram=ram)
    if horizon == 24:
        assert (root.lead, root.prec, root.render()) == (want.lead, want.prec, recorded)
    else:
        assert root.agrees_with(want)
    return eval_table(dtable, u)


@pytest.mark.parametrize("horizon", [8, 24, 40])
@pytest.mark.parametrize("case", sorted(_EXACT_DERIVATIVE_LIFTS))
def test_a_newton_lift_with_an_exact_derivative_keeps_its_start_horizon(case, horizon):
    """Every nonlinear degree is divisible by p, so the derivative table
    is {0: c} and its value the exact c, known to fewer digits than the
    start at horizons 24 and 40: the lift still keeps the start's
    horizon, and equals the recorded root."""
    deriv = _lift(_EXACT_DERIVATIVE_LIFTS[case], horizon)
    assert deriv.exact and deriv.prec == 16 * deriv.ram


@pytest.mark.parametrize("horizon", [8, 24, 40])
@pytest.mark.parametrize("case", sorted(_SLOPE_DERIVATIVE_LIFTS))
def test_a_newton_lift_with_a_non_constant_derivative_keeps_its_start_horizon(
    case, horizon
):
    """A degree prime to p above 1 makes the derivative a polynomial in
    x, inexact at the start: the lift keeps the start's horizon, and
    equals the recorded root."""
    assert not _lift(_SLOPE_DERIVATIVE_LIFTS[case], horizon).exact


def test_point_inversion_takes_newton_steps_to_the_point_horizon():
    """``invert_at_point`` lifts g(y) = x through g's derivative table,
    of degrees 0, 1, 3, 4 for f = (1+T)x + x^2 over F_3: the root keeps
    x's horizon and equals the recorded one."""
    f = PowerSeriesMap({1: series("1+T", F3), 2: series("1", F3)})
    g = solve_sfe(f, 24, window=48)
    x = series("T^3+2*T^4+O(T^40)", F3)
    table = conjugacy_table(g)
    assert sorted(_table_derivative(table, 3))[:4] == [0, 1, 3, 4]
    assert not eval_table({0: -x, **table}, x).is_zero_as_known
    y = invert_at_point(g, x)
    assert (y.lead, y.prec, y.exact) == (3, 40, False)
    assert y.render() == (
        "T^3 + 2*T^4 + T^5 + 2*T^7 + T^11 + T^12 + 2*T^13 + 2*T^14 + T^15 + T^16"
        " + 2*T^18 + 2*T^21 + T^24 + 2*T^25 + 2*T^26 + 2*T^27 + T^30 + T^32 + T^33"
        " + T^37 + O(T^40)"
    )


def test_lucas_binomials():
    from math import comb

    for p in (2, 3, 5):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert binomial_mod_p(n, k, p) == comb(n, k) % p
                assert binomial_digits(n, k, p) == comb(n, k) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_lucas_at_many_digits_equals_the_digit_oracle(p):
    """Up to 40 base-p digits, with k below 0, above n and in between,
    the array form equals ``binomial_digits`` pair by pair."""
    rng = np.random.default_rng(p)
    n = rng.integers(0, 2**40, size=400)
    k = np.concatenate((rng.integers(-3, 0, 20), n[20:380] - rng.integers(0, 2**40, 360)))
    k = np.concatenate((np.minimum(k, n[:380]), n[380:] + rng.integers(1, 9, 20)))
    got = binomial_mod_p(n, k, p)
    assert got.dtype == np.int64
    assert got.tolist() == [binomial_digits(a, b, p) for a, b in zip(n.tolist(), k.tolist())]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lucas_array_form_equals_the_scalar_form(p):
    """The array form of ``binomial_mod_p`` on a broadcast grid of n
    (a column) against k (a row) equals Pascal's triangle mod p, built
    row by row with C(n+1, k) = C(n, k) + C(n, k-1), at every pair
    0 <= k <= n < p^4, and is 0 at k = -2, -1 and at every k > n."""
    top = p**4
    ks = np.arange(-2, top + 2)
    pascal = (ks == 0).astype(np.int64)  # row n = 0
    for start in range(0, top, 256):
        ns = np.arange(start, min(start + 256, top))
        grid = binomial_mod_p(ns[:, None], ks, p)
        assert grid.shape == (ns.size, ks.size) and grid.dtype == np.int64
        for n, row in zip(ns.tolist(), grid):
            assert np.array_equal(row, pascal), n
            pascal[1:] += pascal[:-1].copy()
            pascal %= p
