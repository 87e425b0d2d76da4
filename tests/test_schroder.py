"""Conjugacy solvers, structural lemmas on their coefficients,
divergence certificates, and residual checks."""

import hashlib
import itertools
import math
import random
import re
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

import lindisc._dense
import lindisc.discs
import lindisc.laurent
import lindisc.multiplier
import lindisc.schroder
from lindisc import (
    Conjugacy,
    FieldParams,
    LaurentSeries,
    PowerSeriesMap,
    certify_divergence,
    check_coefficient_bound,
    check_structural_zeros,
    disc_profile,
    mult_profile,
    parse_series,
    ps_gauge,
    solve_sfe,
    solve_sfe_multinomial,
    solve_specialized_p_plus_1,
    table_compose,
)
from lindisc._dense import DensePoly, _MinPlus
from lindisc.discs import check_bkprime_zero_extension
from lindisc.errors import (
    CertificateError,
    HypothesisError,
    LindiscError,
    PrecisionError,
    RootOfUnityError,
)
from lindisc.field import p_split
from lindisc.multiplier import small_divisor_leads
from lindisc.schroder import (
    COMPUTED_ZERO,
    NONZERO,
    STRUCTURAL,
    ValuationTable,
    _binomial_terms,
    _powers,
    _rows,
    _small_divisors,
)
from oracles import (
    binomial_digits,
    conjugacy_csv_by_fractions,
    check_coefficient_bound_per_k,
    exact_powers,
    full_conjugacy_residual,
    invert_at_point,
    lemma_bound_per_k,
    over_small_divisor,
    semiconjugacy_residual,
    small_divisor_leads_per_entry,
    small_divisor_valuation,
    solve_sfe_chain,
    solve_specialized_per_term,
    solve_specialized_windowed_terms,
)

F2 = FieldParams(2)
F3 = FieldParams(3)
F4 = FieldParams(2, 2)
F5 = FieldParams(5)
F9 = FieldParams(3, 2)


def conjugacies_agree(g1, g2, upto):
    for k in range(1, upto + 1):
        a, b = g1.coefficient(k), g2.coefficient(k)
        if a.is_zero_as_known or b.is_zero_as_known:
            if not (a.is_zero_as_known and b.is_zero_as_known):
                return False
        elif not a.agrees_with(b):
            return False
    return True


def test_first_coefficient_formula():
    lam = parse_series("1+T", F2)
    a2 = parse_series("1", F2)
    g = solve_sfe(PowerSeriesMap({1: lam, 2: a2}), 6)
    one = parse_series("1", F2)
    expected = a2 / (lam * (one - lam))
    assert g.coefficient(2).agrees_with(expected)
    assert g.valuation(2) == -1


def test_lowest_degree_formula_general():
    """b_{i0} = a_{i0} / (λ(1 - λ^{i0-1})) with zeros below i0."""
    rng = random.Random(3)
    for field in (F2, F3, F5):
        lam = parse_series("1+T", field)
        one = parse_series("1", field)
        i0 = rng.randrange(3, 7)
        a = parse_series(f"2*T^2" if field.p > 2 else "T^2", field)
        g = solve_sfe(PowerSeriesMap({1: lam, i0: a}), i0 + 2)
        expected = a / (lam * (one - lam ** (i0 - 1)))
        assert g.coefficient(i0).agrees_with(expected)
        for k in range(2, i0):
            assert g.zero_kind[k] == STRUCTURAL


def test_linear_map_gives_identity_conjugacy():
    g = solve_sfe(PowerSeriesMap({1: parse_series("1+T", F2)}), 8)
    assert g.valuation(1) == 0
    for k in range(2, 9):
        assert g.zero_kind[k] == STRUCTURAL


def test_root_of_unity_multiplier_rejected():
    f = PowerSeriesMap({1: parse_series("1", F2), 2: parse_series("1", F2)})
    with pytest.raises(RootOfUnityError):
        solve_sfe(f, 4)


def random_map(field, rng, max_degree=8, family=False):
    lam = parse_series(f"1+T^{rng.randrange(1, 3)}", field)
    coeffs = {1: lam}
    degrees = range(field.p, max_degree + 1, field.p) if family else range(2, max_degree + 1)
    for d in rng.sample(list(degrees), min(3, len(list(degrees)))):
        c = rng.randrange(1, field.p)
        coeffs[d] = parse_series(f"{c}*T^{rng.randrange(0, 3)}", field)
    return PowerSeriesMap(coeffs)


def test_term_matching_equals_multinomial():
    rng = random.Random(11)
    for _ in range(8):
        field = rng.choice([F2, F3])
        f = random_map(field, rng)
        D = 14
        g1 = solve_sfe(f, D)
        g2 = solve_sfe_multinomial(f, D)
        assert conjugacies_agree(g1, g2, D)


def random_unit(field, rng):
    return [rng.randrange(1, field.p)] + [rng.randrange(field.p) for _ in range(field.r - 1)]


def tower_map(field, ram, rng, max_degree=6):
    """A seeded map over F_{p^r}((U)) with U^ram = T, whose coefficients
    use every coordinate of the residue field."""
    r = field.r
    j = rng.randrange(1, 3)
    rows = [random_unit(field, rng)] + [[0] * r] * (j - 1) + [random_unit(field, rng)]
    coeffs = {1: LaurentSeries(field, ram, 0, rows, j + 1, exact=True)}
    family = rng.random() < 0.5
    degrees = list(range(field.p if family else 2, max_degree + 1, field.p if family else 1))
    for d in rng.sample(degrees, min(3, len(degrees))):
        lead = rng.randrange(0, 2 * ram)
        rows = [[rng.randrange(field.p) for _ in range(r)] for _ in range(2)]
        coeffs[d] = LaurentSeries(field, ram, lead, rows, lead + 2, exact=True)
    return PowerSeriesMap(coeffs)


def test_term_matching_equals_multinomial_in_towers():
    """Residue extensions (r = 2, 4) and ramified towers (e = 2)."""
    rng = random.Random(23)
    D = 12
    for field in (F4, FieldParams(3, 2), FieldParams(2, 4), FieldParams(3, 4)):
        for ram in (1, 2):
            for _ in range(4):
                f = tower_map(field, ram, rng)
                g1 = solve_sfe(f, D, window=24)
                g2 = solve_sfe_multinomial(f, D, window=24)
                assert conjugacies_agree(g1, g2, D), (field, ram, f)


def one_step_solve(f, D, window):
    """``solve_sfe``'s term matching with every power f^k formed as
    f^{k-1}·f, the chain the stride by f^p must reproduce."""
    field, ram, lam = f.field, f.ram, f.multiplier
    profile = mult_profile(lam)
    one = LaurentSeries.constant(field, 1, ram)
    family = f.divisible_degrees()
    acc, fpow = DensePoly(field, ram, D, window), DensePoly(field, ram, D, window)
    for i, a in f.coeffs.items():
        if i <= D:
            fpow.set_column(i, a)
    acc.add_scaled(one, fpow)
    coeffs, lam_power = {1: one}, exact_powers(lam)
    for k in range(2, D + 1):
        s_k = acc.column(k)
        if family and k % field.p:
            assert s_k.is_zero_as_known, k
            b_k = LaurentSeries.zero(field, ram, 0, exact=True)
        elif s_k.is_exact_zero:
            b_k = s_k
        else:
            b_k = over_small_divisor(s_k, lam_power, profile, k, window)
        coeffs[k] = b_k
        fpow = fpow.mul_by_map(f)
        acc.add_scaled(b_k, fpow)
    return coeffs


def family_map(field, ram, rng, degrees):
    """A seeded map with nonlinear terms at the given degrees, each
    coefficient using every coordinate of the residue field."""
    r = field.r
    rows = [random_unit(field, rng), random_unit(field, rng)]  # not a root of unity
    coeffs = {1: LaurentSeries(field, ram, 0, rows, 2, exact=True)}
    for d in degrees:
        lead = rng.randrange(-ram, 2 * ram)
        rows = [random_unit(field, rng)]
        rows += [[rng.randrange(field.p) for _ in range(r)] for _ in range(2)]
        coeffs[d] = LaurentSeries(field, ram, lead, rows, lead + 3, exact=True)
    return PowerSeriesMap(coeffs)


def test_stride_chain_equals_one_step_chain():
    """For p-divisible maps ``solve_sfe`` forms f^{p(j+1)} as f^{pj}·f^p;
    every coefficient is the one-step chain's, to the byte."""
    rng = random.Random(41)
    D, W = 26, 20
    maps = []
    for p in (2, 3, 5):
        for r in (1, 2):
            field = FieldParams(p, r)
            for ram in (1, 2):
                multiples = range(p, 3 * p + 1, p)
                maps.append(family_map(field, ram, rng, rng.sample(multiples, 2)))
    maps.append(family_map(F3, 1, rng, [3, 3 * D]))  # a degree above D
    for f in maps:
        assert f.divisible_degrees()
        g = solve_sfe(f, D, window=W)
        reference = one_step_solve(f, D, W)
        for k in range(1, D + 1):
            a, b = g.coefficient(k), reference[k]
            assert (a.lead, a.prec, a.exact) == (b.lead, b.prec, b.exact), (f, k)
            assert a.coeffs.tobytes() == b.coeffs.tobytes(), (f, k)


def _coefficient(field, ram, lead, rng, length=2):
    rows = [random_unit(field, rng)]
    rows += [[rng.randrange(field.p) for _ in range(field.r)] for _ in range(length - 1)]
    return LaurentSeries(field, ram, lead, rows, lead + length, exact=True)


def _support_cases(p, r, e):
    """(label, f, D) over F_{p^r}((U)), U^e = T: generic maps and
    p-divisible ones, the single-term λx + c·x^N of the ``disc`` strata
    (N = k' and N = p·k'), a degree above D, and D < p."""
    field, rng = FieldParams(p, r), random.Random(1000 * p + 10 * r + e)

    def build(degrees, lam=None):
        if lam is None:
            rows = [random_unit(field, rng), random_unit(field, rng)]
            lam = LaurentSeries(field, e, 0, rows, 2, exact=True)
        coeffs = {1: lam}
        for d in degrees:
            coeffs[d] = _coefficient(field, e, rng.randrange(-e, 2 * e), rng)
        return PowerSeriesMap(coeffs)

    cases = []
    for n in (1, 2, 3):
        degrees = rng.sample(range(2, 13), n)
        if all(d % p == 0 for d in degrees):
            degrees.append(p + 1)
        cases.append((f"generic{degrees}", build(degrees), 24))
        multiples = rng.sample(range(p, 5 * p + 1, p), n)
        cases.append((f"divisible{multiples}", build(multiples), 24))
    for residue in ([1] + [0] * (r - 1), random_unit(field, rng)):
        lam = LaurentSeries(field, e, 0, [residue, random_unit(field, rng)], 2, exact=True)
        kp = mult_profile(lam).k_prime
        for N in (kp, p * kp):
            if N <= 40:
                cases.append((f"single x^{N}", build([N], lam), min(4 * N, 64)))
    cases.append(("generic above D", build([2 * p + 1, 40]), 20))
    cases.append(("divisible above D", build([p, 40 * p]), 20))
    if p > 2:
        cases.append(("D < p", build([p, 2 * p]), p - 1))
    cases.append(("D = 1", build([2 * p]), 1))
    return cases


SUPPORT_GRID = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)]


@pytest.mark.parametrize("p, r", SUPPORT_GRID, ids=lambda x: str(x))
def test_solve_on_the_support_equals_the_chain_of_every_power(p, r):
    """``solve_sfe``, which forms f^k only on the support of b, equals the
    chain of every power (``oracles.solve_sfe_chain``) in lead, horizon,
    exactness and rows at every degree, over F_{p^r} with e = 1, 2, 3."""
    for e in (1, 2, 3):
        for label, f, D in _support_cases(p, r, e):
            g, h = solve_sfe(f, D, window=12), solve_sfe_chain(f, D, window=12)
            for k in range(1, D + 1):
                a, b = g.coefficient(k), h.coefficient(k)
                assert (a.lead, a.prec, a.exact) == (b.lead, b.prec, b.exact), (label, e, k)
                assert a.coeffs.tobytes() == b.coeffs.tobytes(), (label, e, k)


def _binomial_cases(p, r):
    """(label, f, D) over F_{p^r}((U)), U^e = T: two maps λx + a·x^N for
    each N = p, 2p, p², p + 1, e = 1, 2, 3 in turn, λ a unit with a tail
    up to U^4 and a of one or two terms; one D below N and one from N on."""
    field, rng = FieldParams(p, r), random.Random(7000 + 10 * p + r)
    cases = []
    for n, N in enumerate((p, 2 * p, p * p, p + 1) * 2):
        e, tail = 1 + (n + p + r) % 3, rng.randint(1, 4)
        rows = [random_unit(field, rng)]
        rows += [[rng.randrange(p) for _ in range(r)] for _ in range(tail - 1)]
        lam = LaurentSeries(field, e, 0, rows + [random_unit(field, rng)], tail + 1, exact=True)
        a = _coefficient(field, e, rng.randrange(-e, 2 * e), rng, rng.randint(1, 2))
        f = PowerSeriesMap({1: lam, N: a})
        for D in (rng.randrange(1, N), rng.randint(N, max(N, 60))):
            cases.append((f"x^{N}, e = {e}, D = {D}", f, D))
    return cases


def _binomial_solve(f, D, window):
    """The binomial recurrence: ``solve_specialized_p_plus_1`` for
    N = p + 1 (up to the largest jp + 1 <= D), the route of ``solve_sfe``
    for p | N.  Returns the conjugacy and its degree."""
    p = f.field.p
    if f.nonlinear_degrees == [p + 1]:
        g = solve_specialized_p_plus_1(f, (D - 1) // p, window)
        return g, g.D
    return solve_sfe(f, D, window), D


def _assert_bytes_equal(g, h, D, label):
    for k in range(1, D + 1):
        a, b = g.coefficient(k), h.coefficient(k)
        assert (a.lead, a.prec, a.exact) == (b.lead, b.prec, b.exact), (label, k)
        assert a.coeffs.tobytes() == b.coeffs.tobytes(), (label, k)


@pytest.mark.parametrize("p, r", SUPPORT_GRID, ids=lambda x: str(x))
def test_binomial_recurrence_equals_the_chain(p, r):
    """The binomial recurrence equals the chain of every power
    (``oracles.solve_sfe_chain``) in lead, horizon, exactness and rows at
    every degree, for p | N (``solve_sfe``'s route) and N = p + 1
    (``solve_specialized_p_plus_1``), D < N included."""
    for label, f, D in _binomial_cases(p, r):
        g, D = _binomial_solve(f, D, 12)
        _assert_bytes_equal(g, solve_sfe_chain(f, D, window=12), D, label)


def _series_rows(g):
    """(lead, horizon, zero kind) of each series b_1 .. b_D of g, read one
    series at a time."""
    rows = []
    for k in range(1, g.D + 1):
        s = g.coefficient(k)
        if not s.is_zero_as_known:
            kind = NONZERO
        else:
            kind = STRUCTURAL if s.exact else COMPUTED_ZERO
        rows.append((s.lead, s.prec, kind))
    return rows


@pytest.mark.parametrize("p, r", SUPPORT_GRID, ids=lambda x: str(x))
def test_valuation_table_equals_every_series(p, r):
    """A solve's ``ValuationTable`` holds the lead, horizon and zero kind
    of each b_k as Python ints and the kinds' strings, with row 0 the
    exact zero b_0: for the dense route and the binomial route of
    ``solve_sfe`` and for the p+1 solve, e = 1, 2, 3, D below the first
    support degree included.  The binomial routes fill it before any
    series is built."""
    cases = [case for e in (1, 2, 3) for case in _support_cases(p, r, e)]
    routes = set()
    for label, f, D in cases + _binomial_cases(p, r):
        solves = [solve_sfe(f, D, 12)]
        if f.nonlinear_degrees == [p + 1]:
            solves.append(solve_specialized_p_plus_1(f, (D - 1) // p, 12))
        for g in solves:
            lazy = isinstance(g.coeffs, lindisc.schroder._Coefficients)
            routes.add((g.source, lazy))
            assert not lazy or g.coeffs.built == {}, label
            table = g.valuations
            assert table.ram == f.ram and len(table.kind) == g.D + 1, label
            got = list(zip(table.lead.tolist(), table.prec.tolist(), table.kind.tolist()))
            assert got[0] == (0, 0, STRUCTURAL), label
            assert got[1:] == _series_rows(g), label
            assert all(type(x) is int for row in got for x in row[:2]), label
    assert routes == {("term-matching", False), ("term-matching", True), ("specialized", True)}


def test_binomial_recurrence_takes_the_zero_binomial_caps():
    """Over F_2 with λ = 1 + T^2 + T^3 + T^4, f = λx + T^2·x^6, D = 28,
    W = 16, a zero binomial caps the horizon of b_26 at 20: taking only
    the nonzero binomials would give 22.  The route equals the chain."""
    f = PowerSeriesMap({1: parse_series("1+T^2+T^3+T^4", F2), 6: parse_series("T^2", F2)})
    g = solve_sfe(f, 28, 16)
    assert g.source == "term-matching"
    assert g.coefficient(26).prec == 20
    _assert_bytes_equal(g, solve_sfe_chain(f, 28, 16), 28, "F_2, x^6")


def _raised(solve):
    try:
        solve()
    except LindiscError as error:
        return type(error)
    return None


@pytest.mark.parametrize("fault", ["degree", "window", "root", "vanish", "valuation"])
def test_binomial_recurrence_raises_as_the_chain(monkeypatch, fault):
    """Each fault raises the chain's error type in the binomial recurrence:
    D or the window below one, λ a root of unity, a divisor 1 − λ^u that
    vanishes to the window, a divisor valuation off the closed form (u
    and the exponent p^s·u each one the solve reads)."""
    maps = [  # field, λ, N, D, u, p^s·u
        (F2, "1+T", 2, 12, 3, 5),
        (F3, "2+T", 6, 30, 5, 20),
        (F2, "1+T^2", 3, 13, 3, 6),
        (F3, "1+T", 4, 16, 5, 12),
    ]
    for field, lam, N, D, u, n in maps:
        if fault == "root":
            lam = "1"
        f = PowerSeriesMap({1: parse_series(lam, field), N: parse_series("1", field)})
        D, W = {"degree": 0, "window": D}.get(fault, D), 0 if fault == "window" else 12
        with monkeypatch.context() as patch:
            if fault == "vanish":
                _planted_powers(patch, u)
            if fault == "valuation":
                _planted_valuation(patch, n)
            want = _raised(lambda: solve_sfe_chain(f, D, W))
            if N == field.p + 1:
                got = _raised(lambda: solve_specialized_p_plus_1(f, (D - 1) // field.p, W))
            else:
                got = _raised(lambda: solve_sfe(f, D, W))
        assert want is not None and got is want, (N, fault, got, want)


def test_binomial_recurrence_checks_a_planted_binomial(monkeypatch):
    """A nonzero binomial planted at a degree off the support (p ∤ k) of
    a p-divisible binomial map is a CertificateError."""
    real = lindisc.schroder._binomial_terms

    def planted(p, N, held):
        i, c, offsets = real(p, N, held)
        at = offsets[1]  # one more term for J = 2, k = 1 + 2(N − 1)
        i, c = np.insert(i, at, [[1]], axis=0), np.insert(c, at, 1)
        return i, c, offsets[:2] + [n + 1 for n in offsets[2:]]

    monkeypatch.setattr(lindisc.schroder, "_binomial_terms", planted)
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    with pytest.raises(CertificateError, match="degree 3 should vanish"):
        solve_sfe(f, 12)


@pytest.mark.parametrize("p, r", SUPPORT_GRID, ids=lambda x: str(x))
def test_support_is_where_the_chain_solves_no_exact_zero(p, r):
    """The support K that ``_support`` reads off f's degrees is exactly
    the set of k whose b_k the chain of every power does not find an
    exact zero."""
    for e in (1, 2, 3):
        for label, f, D in _support_cases(p, r, e):
            _, support = lindisc.schroder._support(_MinPlus(f, D))
            h = solve_sfe_chain(f, D, window=8)
            nonzero = [k for k in range(1, D + 1) if not h.coefficient(k).is_exact_zero]
            assert support.nonzero()[0].tolist() == nonzero, (label, e)


@pytest.mark.parametrize("stack_bytes", ["one power", "two powers"])
def test_gap_powers_past_the_cap_take_the_chain(monkeypatch, stack_bytes):
    """With room for one or two kept gap powers u^g, later gaps are taken
    as g products by u; every coefficient is still the chain's."""
    def power_map(field, lam, degrees):
        coeffs = {1: parse_series(lam, field)}
        coeffs.update((d, parse_series(f"1+T^{d % 3}", field)) for d in degrees)
        return PowerSeriesMap(coeffs)

    maps = [  # gaps in steps of u: 2, 5, 2, 3, …; 4, 3, 1, 3, 1, 2, …; 4, 3, 11, 3, 3
        power_map(F2, "1+T", (6, 16, 20)),
        power_map(F3, "2+T", (5, 8)),
        power_map(F3, "1+T", (15, 24)),
    ]
    D, W = 80, 8
    poly = 2 * (D + 1) * 8 * (W * 1 + 2)  # a polynomial and its factor, r = 1
    # the kept powers take half the budget
    budget = {"one power": 1, "two powers": 4 * poly}[stack_bytes]
    monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", budget)
    real, chained = lindisc.schroder._GapPowers.times, []

    def times(self, x, g):
        out = real(self, x, g)
        assert self.cap == {"one power": 1, "two powers": 2}[stack_bytes]
        assert len(self.kept) <= self.cap
        chained.append(g >= 2 and g not in self.kept)  # a gap past the cap
        return out

    monkeypatch.setattr(lindisc.schroder._GapPowers, "times", times)
    for f in maps:
        chained.clear()
        g, h = solve_sfe(f, D, window=W), solve_sfe_chain(f, D, window=W)
        assert any(chained) and not all(chained)
        for k in range(1, D + 1):
            a, b = g.coefficient(k), h.coefficient(k)
            assert (a.lead, a.prec, a.exact) == (b.lead, b.prec, b.exact), (f, k)
            assert a.coeffs.tobytes() == b.coeffs.tobytes(), (f, k)


@pytest.mark.parametrize(
    "field, degree, plant, message",
    [
        (F2, 2, ("drop", 4), "degree 4 is live"),
        (F3, 3, ("add", 6), "degree 6 is an exact zero"),
        (F3, 3, ("add", 4), "degree 4 is an exact zero"),
        (F2, 3, ("drop", 7), "degree 7 is live"),
        (F2, 3, ("add", 8), "degree 8 is an exact zero"),
    ],
)
def test_a_wrong_support_prediction_is_caught(monkeypatch, field, degree, plant, message):
    """``solve_sfe`` checks the support at every degree: a live sum where
    the support says none, or an exact zero where it says live, is a
    CertificateError, for p | k and p ∤ k alike."""
    real = lindisc.schroder._support

    def planted(table):
        live, support = real(table)
        action, k = plant
        live[k] = support[k] = action == "add"
        return live, support

    monkeypatch.setattr(lindisc.schroder, "_support", planted)
    f = PowerSeriesMap({1: parse_series("1+T", field), degree: parse_series("1", field)})
    with pytest.raises(CertificateError, match=message):
        solve_sfe(f, 12)


# tracemalloc peaks over F_2 at W = 32 of the chain of every power f^k
# (``oracles.solve_sfe_chain``): λx + x^2 and λx + x^34 at D = 4096,
# λx + x^34 + x^36 at D = 2048
CHAIN_PEAKS = {"x^2": 7.72 * 2**20, "x^34": 5.30 * 2**20, "x^34 + x^36": 3.13 * 2**20}


@pytest.mark.parametrize("degree", [2, 34])
def test_solve_memory_on_the_support_is_bounded(degree):
    """The binomial recurrence, which ``solve_sfe`` takes for these
    p-divisible binomial maps, fits ``laurent._STACK_BYTES``: over F_2 at
    D = 4096, W = 32, λx + x^2 and λx + x^34 each peak within the chain's
    peak plus that budget (its binomial table is chunked within it)."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), degree: parse_series("1", F2)})
    tracemalloc.start()
    try:
        solve_sfe(f, 4096, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CHAIN_PEAKS[f"x^{degree}"] + lindisc.laurent._STACK_BYTES, peak


def test_dense_solve_memory_on_the_support_is_bounded(monkeypatch):
    """The dense solve of a two-degree map that keeps gap powers,
    λx + x^34 + x^36 over F_2 at D = 2048, W = 32 (gaps of up to 32 steps
    of f^2), peaks within the chain's peak plus ``laurent._STACK_BYTES``:
    the kept powers and a product's grid of bases share that budget."""
    f = PowerSeriesMap(
        {1: parse_series("1+T", F2), 34: parse_series("1", F2), 36: parse_series("1", F2)}
    )
    gaps = []
    real = lindisc.schroder._GapPowers.__init__

    def init(self, *args):
        real(self, *args)
        gaps.append(self)

    monkeypatch.setattr(lindisc.schroder._GapPowers, "__init__", init)
    tracemalloc.start()
    try:
        solve_sfe(f, 2048, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (gaps,) = gaps
    # powers are kept, and the cap binds: more gaps are needed than kept
    assert len(gaps.kept) > 1 and len(gaps.needed) > gaps.cap
    assert peak <= CHAIN_PEAKS["x^34 + x^36"] + lindisc.laurent._STACK_BYTES, peak


def test_specialized_matches_term_matching():
    for field, a_lit in [(F2, "1"), (F3, "2"), (F2, "T")]:
        p = field.p
        f = PowerSeriesMap(
            {1: parse_series("1+T", field), p + 1: parse_series(a_lit, field)}
        )
        D = 3 * p + 1
        g1 = solve_sfe(f, D)
        g2 = solve_specialized_p_plus_1(f, 3)
        assert conjugacies_agree(g1, g2, D)


def _held(p, N, size):
    """The held i of the binomial recurrence, as ``_support`` predicts
    them: every i for p ∤ N, and 0 and i ≡ 1 (mod p) for p | N."""
    held = np.ones(size, dtype=bool)
    if N % p == 0:
        held[:] = False
        held[0], held[1::p] = True, True
    return held


def _digit_terms(p, N, Jmax):
    """(J, i, c) for every nonzero c = C(1 + i(N−1), J − i) mod p over the
    whole triangle 0 <= i < J <= Jmax, i held, one base-p digit at a
    time."""
    held = _held(p, N, Jmax + 1)
    terms = [
        (j, i, c)
        for j in range(1, Jmax + 1)
        for i in range(j)
        if held[i] and (c := binomial_digits(1 + i * (N - 1), j - i, p))
    ]
    return np.array(terms, dtype=np.int64).reshape(-1, 3)


def _assert_csr_terms(p, N, Jmax, held, i, c, offsets, oracle):
    """The CSR table (i, c, offsets) of ``_binomial_terms`` holds, row J,
    exactly the (J, i, c) of ``oracle`` (sorted) with J <= Jmax, each c
    nonzero, and one padding entry (Jmax + 1, 0) first in each held row."""
    assert i.shape == (len(c), 1) and offsets[0] == 0 and len(offsets) == Jmax + 1
    j = np.repeat(np.arange(1, Jmax + 1), np.diff(offsets))
    pads = c == 0
    assert (i[pads, 0] == Jmax + 1).all(), (N, Jmax)
    assert np.array_equal(j[pads], held[1:].nonzero()[0] + 1), (N, Jmax)
    assert pads[np.array(offsets[:-1], dtype=np.int64)[held[1:]]].all(), (N, Jmax)
    terms = np.stack((j, i[:, 0], c), axis=1)[~pads]
    assert ((terms[:, 2] > 0) & (terms[:, 2] < p)).all(), (N, Jmax)  # no zero binomial
    terms = terms[np.lexsort((terms[:, 1], terms[:, 0]))]
    assert np.array_equal(terms, oracle[oracle[:, 0] <= Jmax]), (N, Jmax)


def _level_passes(monkeypatch):
    """A list that counts the digit levels ``_binomial_terms`` passes over
    a chunk with prefixes (one ``_any`` test each)."""
    passes, real = [], lindisc.schroder._any
    monkeypatch.setattr(lindisc.schroder, "_any", lambda x: passes.append(1) or real(x))
    return passes


@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "small-chunks"])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_binomial_terms_are_every_nonzero_binomial(monkeypatch, p, chunked):
    """The CSR table of the binomial recurrence holds, row J, exactly the
    nonzero binomials of the triangle over the held i, enumerated digit
    by digit: no entry has a zero binomial, and with a small budget the
    table goes in chunks of whole i.  Each held J's row starts with one
    padding entry (i, c) = (Jmax + 1, 0), and no other row holds one.
    Every Jmax for N = p + 1; at p <= 7, for p | N (N = p, 2p), every
    seventh Jmax and the largest."""
    top = 3 * p * p + 5
    if chunked:  # room for p²/2 candidates q <= Q_i of 96 bytes each
        monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", 48 * p * p)
    shapes = [(p + 1, range(top + 1))]
    if p <= 7:
        shapes += [(N, [*range(0, top, 7), top]) for N in (p, 2 * p)]
    for N, sizes in shapes:
        oracle = _digit_terms(p, N, top)
        for Jmax in sizes:
            held = _held(p, N, Jmax + 1)
            _assert_csr_terms(p, N, Jmax, held, *_binomial_terms(p, N, held), oracle)
    held = _held(p, p + 1, top + 1)
    passes = _level_passes(monkeypatch)
    _binomial_terms(p, p + 1, held)
    if chunked:  # the largest table spans many chunks, each with its own levels
        monkeypatch.undo()
        whole = _level_passes(monkeypatch)
        _binomial_terms(p, p + 1, held)
        assert len(passes) > 5 * len(whole), (len(passes), len(whole))
    else:  # one chunk: at most one pass per base-p digit of Jmax
        assert 0 < len(passes) <= len(np.base_repr(top, p)), len(passes)


@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "small-chunks"])
def test_binomial_terms_over_F2_at_Jmax_1024(monkeypatch, chunked):
    """Over F_2 at Jmax = 1024 (N = 3) the table holds 47,368 entries with
    its 1,024 padding entries: every odd C(2i + 1, J − i), by Lucas over
    F_2 a bit test (J − i has no bit that 2i + 1 lacks), whole and in
    chunks of at most 4,096 candidates."""
    Jmax = 1024
    if chunked:
        monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", 96 << 12)
    passes = _level_passes(monkeypatch)
    held = _held(2, 3, Jmax + 1)
    i, c, offsets = _binomial_terms(2, 3, held)
    assert len(c) == 47368
    j, k = np.tril_indices(Jmax + 1, -1)  # 0 <= k < j: J = j, i = k
    odd = ((j - k) & ~(1 + 2 * k)) == 0
    oracle = np.stack((j[odd], k[odd], np.ones(odd.sum(), dtype=np.int64)), axis=1)
    oracle = oracle[np.lexsort((oracle[:, 1], oracle[:, 0]))]
    _assert_csr_terms(2, 3, Jmax, held, i, c, offsets, oracle)
    assert (len(passes) > 40) == chunked, len(passes)  # 175,616 candidates


def test_p_plus_1_solve_memory_is_bounded():
    """Over F_2 at Jmax = 1024, W = 32 the binomial table has 175,616
    candidates q <= Q_i, of which only the 23,684 pairs (i, q) with a
    nonzero binomial are formed (46,344 terms), within ``_per_batch``'s
    budget at 96 bytes per candidate: the solve's traced peak stays
    below 20 MiB."""
    f = PowerSeriesMap({1: parse_series("1+T", F2, 1, 32), 3: parse_series("1", F2, 1, 32)})
    tracemalloc.start()
    try:
        solve_specialized_p_plus_1(f, 1024, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20


def _oracle_cases():
    """(p, r, e, v(a), W, λ) covering every value of each axis; the case
    λ = b + T^2 has a b_{jp+1} that is zero to precision, so later sums
    take a term that caps the horizon and adds no rows."""
    other = {2: "1", 3: "2", 5: "2", 7: "3"}  # of order m > 1 for p > 2
    cases = []
    for idx, (p, r) in enumerate(itertools.product((2, 3, 5, 7), (1, 2, 4))):
        residue = ("1", "b" if p == 2 and r > 1 else other[p])[idx % 2]
        lam = f"{residue}+T+{idx % p}*T^2"
        cases.append((p, r, 1 + idx % 2, idx % 4 - 1, (8, 32, 64)[idx % 3], lam))
    cases.append((5, 2, 1, 0, 8, "b+T^2"))
    # prime fields past the built-in moduli: 2 of every p candidates j − i
    # (m mod p <= 1) can hold a nonzero binomial
    for idx, p in enumerate((11, 11, 13, 13)):
        lam = f"{(1, 2)[idx % 2]}+T+{idx}*T^2"
        cases.append((p, 1, 1 + idx % 2, idx - 1, (8, 32, 64, 8)[idx], lam))
    return cases


@pytest.mark.parametrize("p, r, e, v_a, W, lam", _oracle_cases())
def test_specialized_equals_per_term_oracle(p, r, e, v_a, W, lam):
    """The windowed sum gives every b_k exactly as the per-term series
    recurrence does: lead, horizon, exactness and coefficients."""
    field = FieldParams(p, r)
    a = f"T^{v_a}+{p - 1}*T^{v_a + 1}" + (f"+U^{2 * v_a + 1}" if e == 2 else "")
    f = PowerSeriesMap(
        {1: parse_series(lam, field, e, W), p + 1: parse_series(a, field, e, W)}
    )
    J = {2: 16, 3: 12, 5: 10, 7: 8, 11: 35, 13: 41}[p]
    g, oracle = solve_specialized_p_plus_1(f, J, W), solve_specialized_per_term(f, J, W)
    assert g.D == oracle.D and g.source == oracle.source
    for k in range(1, g.D + 1):
        x, y = g.coefficient(k), oracle.coefficient(k)
        assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), k
        assert x.coeffs.tobytes() == y.coeffs.tobytes(), k
    if lam == "b+T^2":
        assert g.zero_kind[31] == COMPUTED_ZERO


# Lucas blocks of p consecutive J: a last block cut short (Jmax = 2p + 3
# at p = 7), blocks over F_4 and F_49, and a B_J zero to precision first
# in its block (b_31 over F_25, λ = b + T^2), read by J + 1 as its term
# i = J inside the block
BLOCK_EDGES = [
    (7, 1, "3+T+2*T^2", "1+6*T", 17, 16),
    (2, 2, "b+T+T^2", "b+T", 9, 16),
    (7, 2, "b+T", "1+6*T", 17, 8),
    (5, 2, "b+T^2", "1+4*T", 12, 8),
]


def _assert_blocks_equal_the_oracle(monkeypatch, p, r, e, lam, a, Jmax, W, terms):
    """Solve λx + a·x^(p+1) over F_{p^r}, U^e = T, to Jmax with ``_per_batch``
    room for ``terms`` terms (None: the budget) and compare every b_k
    with the per-term series recurrence; the solve is returned."""
    if terms is not None:
        monkeypatch.setattr(lindisc.schroder, "_per_batch", lambda item: terms)
    field = FieldParams(p, r)
    f = PowerSeriesMap(
        {1: parse_series(lam, field, e, W), p + 1: parse_series(a, field, e, W)}
    )
    g, oracle = solve_specialized_p_plus_1(f, Jmax, W), solve_specialized_per_term(f, Jmax, W)
    _assert_bytes_equal(g, oracle, g.D, (p, r, e, lam))
    return g


@pytest.mark.parametrize("terms", [None, 1, 3])
@pytest.mark.parametrize("p, r, lam, a, Jmax, W", BLOCK_EDGES)
def test_lucas_blocks_equal_the_per_term_oracle(monkeypatch, p, r, lam, a, Jmax, W, terms):
    """Across and at the edges of the Lucas blocks, the recurrence gives
    every b_k exactly as the per-term series recurrence does, also when
    ``_per_batch`` leaves room for one term or three, so that a block's
    gather goes in chunks of one J and of several."""
    g = _assert_blocks_equal_the_oracle(monkeypatch, p, r, 1, lam, a, Jmax, W, terms)
    if lam == "b+T^2":
        assert g.zero_kind[31] == COMPUTED_ZERO and g.zero_kind[36] == NONZERO


@pytest.mark.parametrize("terms", [None, 1, 3])
def test_lucas_block_reads_a_zero_inside_it_ramified(monkeypatch, terms):
    """Over F_25 with U^2 = T, λ = b + 1 + U^2 and a = 1 at W = 6, b_86
    (J = 17, the second J of the block 16 .. 20) is a zero to precision
    that J = 18 reads as its term i = J − 1 inside the block: every b_k
    equals the per-term recurrence's, whole and in chunks."""
    g = _assert_blocks_equal_the_oracle(monkeypatch, 5, 2, 2, "b+1+U^2", "1", 18, 6, terms)
    assert g.zero_kind[86] == COMPUTED_ZERO and g.zero_kind[91] == NONZERO


@pytest.mark.parametrize("field, N, Jmax", [(F2, 4, 9), (F3, 6, 10), (F3, 3, 13)])
def test_p_divisible_map_takes_one_held_J_per_block(field, N, Jmax):
    """A p-divisible binomial map holds J ≡ 1 (mod p), one per block;
    held J over four or more blocks equal the chain of every power."""
    lam, a = parse_series("1+T^2+T^3", field), parse_series("T+T^2", field)
    f = PowerSeriesMap({1: lam, N: a})
    D = 1 + Jmax * (N - 1)
    g = solve_sfe(f, D, 12)
    held = [J for J in range(1, Jmax + 1) if g.zero_kind[1 + J * (N - 1)] != STRUCTURAL]
    assert held == list(range(1, Jmax + 1, field.p)) and len(held) >= 4
    _assert_bytes_equal(g, solve_sfe_chain(f, D, 12), D, (field, N))


# (p, r, N, λ, a, D, W): p+1 maps over F_2, F_4 and F_25 (b_31 zero to
# precision), and p | N maps with held J zero to precision among them
LOOP_PRODUCT_CASES = [
    (2, 1, 3, "1+T+T^3", "1+T^2", 129, 32),
    (2, 2, 3, "b+T+T^2", "b+T", 19, 16),
    (5, 2, 6, "b+T^2", "1+4*T", 61, 8),
    (3, 1, 3, "1+T", "1", 200, 16),
    (2, 1, 4, "1+T^2+T^3", "T+T^2", 28, 12),
    (3, 1, 6, "1+T^2+T^3", "T+T^2", 51, 12),
]


@pytest.mark.parametrize("p, r, N, lam, a, D, W", LOOP_PRODUCT_CASES)
def test_binomial_loop_makes_one_product_per_held_J_with_digits(
    monkeypatch, p, r, N, lam, a, D, W
):
    """The loop's cost contract: one ``_convolve`` by a row of the divisor
    table per held J whose sum S_J has digits, none for a zero to
    precision, and no other product outside the divisor table's own (its
    powers of λ, its Newton run, the spreads).  A sum formed per term, or
    a second product per J, fails."""
    tables, products, others = [], [], []
    real_table, real_convolve = lindisc.schroder._small_divisors, lindisc.schroder._convolve

    def table(*args, **kwargs):
        tables.append(None)  # inside the table: its products are its own
        tables[-1] = real_table(*args, **kwargs)
        return tables[-1]

    def convolve(params, x, y, *rest):
        if tables and tables[0] is not None:
            (products if np.shares_memory(y, tables[0].rows) else others).append(x.shape)
        return real_convolve(params, x, y, *rest)

    monkeypatch.setattr(lindisc.schroder, "_small_divisors", table)
    monkeypatch.setattr(lindisc.schroder, "_convolve", convolve)
    field = FieldParams(p, r)
    f = PowerSeriesMap({1: parse_series(lam, field, 1, W), N: parse_series(a, field, 1, W)})
    g = solve_sfe(f, D, W) if N % p == 0 else solve_specialized_p_plus_1(f, (D - 1) // p, W)
    monkeypatch.undo()
    kinds = g.valuations.kind[2:].tolist()
    assert len(tables) == 1 and kinds.count(NONZERO) == len(products), (kinds, len(products))
    assert others == [], others
    if N % p == 0 or r == 2 and p == 5:
        assert COMPUTED_ZERO in kinds


def test_p_plus_1_result_keeps_no_divisor_rows():
    """The returned conjugacy reads λ^(−1) off λ's spread row, λ's head
    and t only, so with the result alive tracemalloc sees B (Jmax + 2
    rows of W + 1 int64 each at r = 1) and less than a quarter of the
    divisor rows' size more: the table of valuations, the reader.  A
    result that keeps the divisor table holds about twice B."""
    W, Jmax = 256, 1024
    f = PowerSeriesMap({1: parse_series("1+T", F2, 1, W), 3: parse_series("1", F2, 1, W)})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = solve_specialized_p_plus_1(f, Jmax, W)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    B, rows = (Jmax + 2) * (W + 1) * 8, (Jmax + 1) * W * 8
    assert held < B + rows // 4, (held, B)
    assert g.valuation(3) is not None and g.coefficient(3).lead == g.valuations.lead[3]


# the shape of each ``divergence-ladder`` stratum: (p, r, λ, a, Nmax) with
# λ = residue + c·T (m = 1, or m > 1 in the -conj strata) and a unit a
LADDER_SHAPES = {
    "p2-N8": (2, 1, "1+T", "1", 8),
    "p3-N5": (3, 1, "1+2*T", "2", 5),
    "p5-N4": (5, 1, "1+3*T", "4", 4),
    "p7-N3": (7, 1, "1+5*T", "3", 3),
    "f4-conj": (2, 2, "b+(b+1)*T", "b", 7),
    "p3-conj": (3, 1, "2+T", "1", 5),
    "p5-conj": (5, 1, "3+2*T", "2", 4),
}


@pytest.mark.parametrize("W", [4, 8, 32])
@pytest.mark.parametrize("shape", LADDER_SHAPES)
def test_specialized_equals_windowed_terms_at_ladder_sizes(shape, W):
    """At the full Jmax = p^(Nmax-1) of each ladder stratum, the one dot
    product per coefficient gives every b_k exactly as the term-by-term
    windowed sum does: lead, horizon, exactness and coefficients."""
    p, r, lam, a, nmax = LADDER_SHAPES[shape]
    field = FieldParams(p, r)
    f = PowerSeriesMap(
        {1: parse_series(lam, field, prec=W), p + 1: parse_series(a, field, prec=W)}
    )
    J = p ** (nmax - 1)
    g, oracle = solve_specialized_p_plus_1(f, J, W), solve_specialized_windowed_terms(f, J, W)
    assert g.D == oracle.D == J * p + 1
    for k in range(1, g.D + 1):
        x, y = g.coefficient(k), oracle.coefficient(k)
        assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), k
        assert x.coeffs.tobytes() == y.coeffs.tobytes(), k


def test_specialized_makes_o_jmax_convolutions(monkeypatch):
    """The p+1 recurrence makes one windowed product per coefficient, not
    two per term.  Over F_2 at Jmax = 64 and W = 32 it makes at most
    3·Jmax + 32 calls of ``_convolve``: the powers λ^j and a^j (one
    product each), one product B_j per j, and a fixed number of batched
    ones (the divisor table's Newton run among them).  The term-by-term
    sum makes 605 here, two per term."""
    f = PowerSeriesMap({1: parse_series("1+T+T^3", F2), 3: parse_series("1+T^2", F2)})
    real, calls = lindisc.laurent._convolve, []

    def spy(params, a, b, *rest):
        calls.append(a.shape)
        return real(params, a, b, *rest)

    for module in (lindisc.laurent, lindisc.schroder, lindisc._dense):
        monkeypatch.setattr(module, "_convolve", spy)
    g = solve_specialized_p_plus_1(f, 64)
    assert 64 <= len(calls) <= 3 * 64 + 32, len(calls)
    monkeypatch.undo()
    assert conjugacies_agree(g, solve_specialized_windowed_terms(f, 64), g.D)


@pytest.mark.parametrize(
    "solve, degree",
    [(solve_sfe, 4), (solve_sfe_multinomial, 4), (solve_specialized_p_plus_1, 2)],
    ids=["term-matching", "multinomial", "specialized"],
)
def test_divisor_valuation_off_the_closed_form_is_caught(monkeypatch, solve, degree):
    """Every solver divides through ``_small_divisors``, which checks each
    divisor against its closed form ``small_divisor_leads``."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    monkeypatch.setattr(
        lindisc.schroder, "small_divisor_leads", lambda profile, s, u: np.full_like(s, 99)
    )
    with pytest.raises(CertificateError, match="closed form"):
        solve(f, degree)


# a residue of multiplicative order m > 1 for each p
RESIDUE_OF_ORDER_ABOVE_1 = {2: "b", 3: "2", 5: "2", 7: "3", 65521: "65520"}


def _divisor_cases():
    """(p, r, e, λ, W, exponents k − 1) for the divisor-table oracle test:
    p ∈ {2, 3, 5, 7, 65521}, r ∈ {1, 2, 3}, e ∈ {1, 2, 3}, m = 1 and m > 1,
    v_m·e ∈ {1, 2}, 1-3 tail terms and W ∈ {8, 32, 64}.  The exponents are
    1..8 and p^s·u for u ∈ {1, m} and s <= 4, as far as the exact chain
    (k·deg λ + 1 rows per power) stays cheap: to p^4·u at p <= 3 and at
    p ∈ {5, 7} when r = e = 1, and below p at p = 65521."""
    combos = [(p, r) for p in (2, 3, 5, 7) for r in (1, 2, 3)]
    combos += [(65521, 1), (65521, 2)]
    cases = []
    for idx, (p, r) in enumerate(combos):
        e = 1 + idx % 3
        var = "T" if e == 1 else "U"
        high_order = idx % 2 == 1 and not (p == 2 and r == 1)
        residue = RESIDUE_OF_ORDER_ABOVE_1[p] if high_order else "1"
        m = {"1": 1, "b": 2**r - 1, "2": p - 1, "3": 6, "65520": 2}[residue]
        first = 1 + (idx // 2) % 2
        tail = ["1", "b" if r > 1 else str(p - 1), "1"][: 1 + idx % 3]
        lam = residue + "".join(
            f"+{c}*{var}^{first + t}" for t, c in enumerate(tail)
        )
        W = 64 if p > 7 else (8, 32, 64)[idx % 3]
        limit = 500 if p <= 3 else 2500 // (r * e)
        exps = set(range(1, 9)) | {
            p**s * u for s in range(5) for u in (1, m) if p**s * u <= limit
        }
        cases.append((p, r, e, lam, W, sorted(exps)))
    return cases


def _field(p, r):
    if p == 65521:
        return FieldParams(p, r, [0, 1] if r == 1 else [17, 0, 1])
    return FieldParams(p, r)


@pytest.mark.parametrize("p, r, e, lam, W, exps", _divisor_cases())
def test_divisor_table_equals_the_exact_quotient(p, r, e, lam, W, exps):
    """Each entry of the divisor table is the exact quotient's inverse of
    1 − λ^n to W digits, formed from the exact chain λ^n: the same lead,
    rows, horizon and exactness."""
    field = _field(p, r)
    lam = parse_series(lam, field, e)
    profile = mult_profile(lam)
    one = LaurentSeries.constant(field, 1, e)
    table = _small_divisors(profile, exps, W)
    assert sorted(table) == exps
    lam_power = exact_powers(lam)
    for n in exps:
        x, y = table[n], over_small_divisor(one, lam_power, profile, n, W, low=0)
        assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), n
        assert x.coeffs.tobytes() == y.coeffs.tobytes(), n


@pytest.mark.parametrize("p, r, e, lam, W, exps", _divisor_cases())
def test_divisor_table_of_frobenius_images_equals_the_exact_quotient(p, r, e, lam, W, exps):
    """An entry 1/(1 − λ^n), n = p^s·u with s >= 1, is the Frobenius image
    of the inverse of 1 − λ^u, which the table forms even when no entry
    has n = u: with only such entries, each is the exact quotient's to W
    digits, and so are the W digits of the table's λ^(-1), which Newton
    formed to ⌈W/p^s_min⌉ digits only.  The exact λ^(p^s·u) comes from
    ``LaurentSeries.__pow__``, a Frobenius image, so p = 65521 is in
    reach."""
    field = _field(p, r)
    lam = parse_series(lam, field, e)
    profile = mult_profile(lam)
    one = LaurentSeries.constant(field, 1, e)
    m = profile.m
    ns = sorted({p**s * u for s in range(1, 5) for u in (1, m) if p**s * u <= max(p * m, 2500)})
    table = _small_divisors(profile, ns, W)
    assert sorted(table) == ns
    for n in ns:
        x, y = table[n], over_small_divisor(one, lam.__pow__, profile, n, W, low=0)
        assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), n
        assert x.coeffs.tobytes() == y.coeffs.tobytes(), n
    inverse = LaurentSeries(field, e, 0, lam.coeffs[:W], W).inverse().coeffs
    expected = np.zeros((W, r), dtype=np.int64)
    expected[: inverse.shape[0]] = inverse
    assert np.array_equal(table.lam_inverse, expected)


def _p_free_parts(ns, p):
    """The distinct u of the n = p^s·u, in increasing order, and the least
    s."""
    splits = [p_split(n, p) for n in ns]
    return sorted({u for _, u in splits}), min((s for s, _ in splits), default=0)


@pytest.mark.parametrize(
    "solve, lit, field, degrees, D",
    [
        (solve_specialized_p_plus_1, "1+T+T^2", F2, [3], 12),
        (solve_specialized_p_plus_1, "2+T", F3, [4], 10),
        (solve_specialized_p_plus_1, "b+T", F4, [3], 9),
        (solve_sfe, "1+T", F2, [4], 40),
        (solve_sfe, "1+T^2", F3, [2, 4], 30),
        (solve_sfe_multinomial, "1+T", F2, [3], 10),
    ],
    ids=["p+1-F2", "p+1-F3", "p+1-F4", "binomial-F2", "dense-F3", "multinomial"],
)
def test_divisor_table_makes_one_newton_run_over_the_p_free_parts(
    monkeypatch, solve, lit, field, degrees, D
):
    """Each solve inverts once: one ``_invert_unit`` call, whose stack holds
    the unit of 1 − λ^u for every distinct p-free part u of the table's
    exponents n, in increasing order, to ⌈W/p^s_min⌉ digits, and λ as
    its last slice, from which every solver's λ^(-1) comes.  Every coefficient agrees with an
    oracle that forms no table, dividing by exact quotients: the per-term
    p+1 recurrence or the one-step dense chain."""
    W = 32
    lam = parse_series(lit, field)
    f = PowerSeriesMap({1: lam, **{d: parse_series("1", field) for d in degrees}})
    real_table, real_invert = lindisc.schroder._small_divisors, lindisc.schroder._invert_unit
    tables, runs = [], []

    def small_divisors(profile, ns, window):
        tables.append(list(ns))
        return real_table(profile, ns, window)

    def invert(params, units, digits):
        runs.append((units.copy(), digits))
        return real_invert(params, units, digits)

    monkeypatch.setattr(lindisc.schroder, "_small_divisors", small_divisors)
    monkeypatch.setattr(lindisc.schroder, "_invert_unit", invert)
    g = solve(f, D, W)
    (ns,), ((units, digits),) = tables, runs
    us, s_min = _p_free_parts(ns, field.p)
    assert s_min == (1 if solve is solve_specialized_p_plus_1 else 0)
    assert digits == -(-W // field.p**s_min)
    assert units.shape == (len(us) + 1, digits, field.r)
    head = lam.coeffs[:digits]
    assert np.array_equal(units[-1, : head.shape[0]], head)
    assert not units[-1, head.shape[0] :].any()
    for u, unit in zip(us, units):  # the unit of 1 − λ^u, to ``digits`` rows
        div = LaurentSeries.constant(field, 1) - lam**u
        assert np.array_equal(unit[: div.coeffs.shape[0]], div.coeffs[:digits]), u
    monkeypatch.undo()
    if solve is solve_specialized_p_plus_1:
        reference = solve_specialized_per_term(f, D, W)
    else:
        reference = Conjugacy(one_step_solve(f, D, W), g.profile, "one-step", D)
    assert conjugacies_agree(g, reference, g.D)


def _lazy_spies(monkeypatch, lam):
    """Spies on ``schroder._powers`` and on the products that read a power
    table of a base other than λ, in either operand: the bases of every
    table formed, and one entry per such product (B_J·(a·λ^(−N))^J)."""
    real_powers, real_convolve = lindisc.schroder._powers, lindisc.schroder._convolve
    bases, others, products = [], [], []

    def powers(x, n, width):
        table = real_powers(x, n, width)
        bases.append(x)
        if x is not lam:
            others.append(table)
        return table

    def convolve(params, a, b, *rest):
        if any(np.shares_memory(x, table) for x in (a, b) for table in others):
            products.append((a.shape, b.shape))
        return real_convolve(params, a, b, *rest)

    monkeypatch.setattr(lindisc.schroder, "_powers", powers)
    monkeypatch.setattr(lindisc.schroder, "_convolve", convolve)
    return bases, products


def test_divergence_and_disc_solves_form_only_the_powers_of_lambda(monkeypatch):
    """``certify_divergence`` and a p | N ``disc`` solve read no coefficient
    series, so they form λ's power table and nothing else: no power of
    a·λ^(−N) and no product by one.  Reading one coefficient of the p+1
    solve forms the table of a·λ^(−N) once and one product
    B_J·(a·λ^(−N))^J; reading them all forms no second table, one product
    per coefficient with digits, and every b_J equals
    ``solve_specialized_per_term``'s."""
    lam = parse_series("1+T+T^2", F2)
    f = PowerSeriesMap({1: lam, 3: parse_series("1+T", F2)})
    bases, products = _lazy_spies(monkeypatch, lam)
    certify_divergence(f, 5)
    assert bases == [lam] and products == []
    disc_map = PowerSeriesMap({1: lam, 4: parse_series("1", F2)})
    lindisc.discs.classify_linearization_disc(disc_map)
    assert all(x is lam for x in bases) and products == []
    del bases[:]
    Jmax, W = 16, 32
    g = solve_specialized_p_plus_1(f, Jmax, W)
    assert bases == [lam] and products == []
    g.coefficient(2 * 5 + 1)
    assert len(bases) == 2 and bases[1] is not lam and len(products) == 1
    oracle = solve_specialized_per_term(f, Jmax, W)
    with_digits = 0
    for k in range(1, g.D + 1):
        x, y = g.coefficient(k), oracle.coefficient(k)
        assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), k
        assert x.coeffs.tobytes() == y.coeffs.tobytes(), k
        with_digits += k > 1 and x.prec > x.lead and not x.exact
    assert len(bases) == 2 and len(products) == with_digits


def test_solve_sfe_reads_lambda_powers_only_to_their_window(monkeypatch):
    """λ = 1 + T^4096 has v_m = 4096, so each divisor reads λ^u only
    modulo T^(4096 + W).  No product the solve makes has an operand
    longer than that; the exact λ^k has 4096·k + 1 rows, and forming
    it made the solve's time grow as D².  The coefficients are those of
    the exact quotient."""
    lam = parse_series("1+T^4096", F2)
    f = PowerSeriesMap({1: lam, 2: parse_series("1", F2)})
    D, W = 9, 32
    real, longest = lindisc.laurent._convolve, []

    def spy(params, a, b, *rest):
        longest.append(max(a.shape[-2], b.shape[-2]))
        return real(params, a, b, *rest)

    for module in (lindisc.laurent, lindisc.schroder, lindisc._dense):
        monkeypatch.setattr(module, "_convolve", spy)
    g = solve_sfe(f, D, window=W)
    assert max(longest) <= 4096 + W
    monkeypatch.undo()
    reference = one_step_solve(f, D, W)
    for k in range(1, D + 1):
        a, b = g.coefficient(k), reference[k]
        assert (a.lead, a.prec, a.exact) == (b.lead, b.prec, b.exact), k
        assert a.coeffs.tobytes() == b.coeffs.tobytes(), k


@pytest.mark.parametrize("field, lit", [(F2, "1+T+T^3"), (F4, "b+T")])
def test_divisor_table_spreads_in_chunks(monkeypatch, field, lit):
    """The Frobenius spreads go in one pass over every s, in chunks of
    entries that ``_per_batch`` sizes; with one entry per chunk, every
    entry of a table with s_min = 0 and of one with s_min = 1, and their
    λ^(-1), has the bytes of the table built whole."""
    profile, W = mult_profile(parse_series(lit, field)), 16
    for ns in (range(1, 129), range(2, 130, 2)):
        whole = _small_divisors(profile, ns, W)
        monkeypatch.setattr(lindisc.schroder, "_per_batch", lambda item: 1)
        chunked = _small_divisors(profile, ns, W)
        monkeypatch.undo()
        assert chunked.rows.tobytes() == whole.rows.tobytes(), ns
        assert np.array_equal(chunked.leads, whole.leads), ns
        assert chunked.lam_inverse.tobytes() == whole.lam_inverse.tobytes(), ns


def test_no_divisor_table_keeps_the_powers_of_lambda():
    """Every solver holds its divisor table to the end of the solve, and
    no solver reads λ's powers after the table is built.  So a table
    keeps its rows (λ's spread among them), leads, index and λ's head,
    not the array of λ^0 .. λ^u it was read from nor the Newton stack:
    over F_2 with λ = 1 + T, for the 512 exponents n = k − 1 of a
    p-divisible solve to D = 1024 (every n odd) and for the 512
    exponents 2j of a p+1 solve (s_min = 1), the memory it holds stays
    below its rows plus half that array, of the v_m·e + ⌈W/p^s_min⌉ rows
    the table reads."""
    profile, W = mult_profile(parse_series("1+T", F2)), 32
    # (ns, the largest u, s_min)
    for ns, top, least in (
        (range(1, 1024, 2), 1023, 0),
        ([2 * j for j in range(1, 513)], 511, 1),
    ):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = _small_divisors(profile, ns, W)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        powers = (top + 1) * (1 + -(-W // 2**least)) * 8  # one coordinate, v_m·e = 1
        assert held < table.rows.nbytes + powers // 2, (least, held, table.rows.nbytes, powers)
        assert table.lam_inverse.shape == (W, 1)


def test_certify_divergence_forms_no_power_of_lambda_for_its_inverse(monkeypatch):
    """The p+1 table's exponents pJ have t = 1, so λ^(−1) is
    λ^(p − 1)·λ^(−p), and only a coefficient read needs it:
    ``certify_divergence`` forms no power of a series at all, and the
    first read of a p+1 coefficient forms λ^(p − 1), then λ^(−N), once."""
    real, powers = LaurentSeries.__pow__, []

    def power(self, n):
        powers.append(n)
        return real(self, n)

    monkeypatch.setattr(LaurentSeries, "__pow__", power)
    f = PowerSeriesMap({1: parse_series("1+T", F3), 4: parse_series("2", F3)})
    certify_divergence(f, 4)
    assert powers == []
    g = solve_specialized_p_plus_1(f, 27)
    assert powers == []
    g.coefficient(4)
    g.coefficient(7)
    assert powers == [2, 4]


def test_p_plus_1_solve_holds_only_B_and_the_divisors_through_its_loop(monkeypatch):
    """The recurrence keeps B and its bounds, and reads E_J − 1, formed in
    place in the divisor table's rows; the table of valuations is filled
    after the loop, so what is traced when it is made is what the loop
    held.  B and the divisor rows take about (Jmax + 1)·(W + 1)·r int64
    each, and everything else (the binomial table, the support, the
    divisor leads) less than one more: a third array of that size, a
    table of the sums S_J or a copy of the divisor rows, passes the
    bound."""
    held = []
    real = lindisc.schroder.ValuationTable

    def table(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args)

    monkeypatch.setattr(lindisc.schroder, "ValuationTable", table)
    for field, lam, a, Jmax, W in ((F2, "1+T", "1", 256, 128), (F4, "b+T", "b", 128, 64)):
        f = PowerSeriesMap(
            {1: parse_series(lam, field, 1, W), field.p + 1: parse_series(a, field, 1, W)}
        )
        held.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solve_specialized_p_plus_1(f, Jmax, W)
        finally:
            tracemalloc.stop()
        array = (Jmax + 1) * (W + 1) * field.r * 8
        assert held[0] - before < 3 * array, (field, held[0] - before, array)


def test_power_table_read_past_its_width_raises(monkeypatch):
    """A read past a power array's width raises CertificateError; it never
    returns a shorter slice.  With λ's array one row short, the divisor
    table of every solver runs into it: term matching, the multinomial
    solve, the p+1 recurrence and a p-divisible binomial map's.  With only
    the array of a/λ one row short, the p+1 solve runs, and the first
    read of a coefficient with digits runs into it."""
    power = _powers(parse_series("1+T", F3), 3, 4)
    assert power.shape == (4, 4, 1)
    assert _rows(power, 4)[3].tolist() == [[1], [0], [0], [1]]
    assert _rows(power, 2)[0].tolist() == [[1], [0]]
    for n in (3, 0):
        with pytest.raises(CertificateError, match="width 4"):
            _rows(_powers(parse_series("1+T", F3), n, 4), 5)
    lam = parse_series("1+T", F2)
    f = PowerSeriesMap({1: lam, 3: parse_series("1", F2)})
    binomial = PowerSeriesMap({1: lam, 4: parse_series("1", F2)})
    real = lindisc.schroder._powers
    monkeypatch.setattr(
        lindisc.schroder, "_powers", lambda x, n, width: real(x, n, width - 1)
    )
    for solve, g, degree in [
        (solve_sfe, f, 6),
        (solve_sfe_multinomial, f, 6),
        (solve_specialized_p_plus_1, f, 3),
        (solve_sfe, binomial, 10),
    ]:
        with pytest.raises(CertificateError, match="past its table's width"):
            solve(g, degree)
    monkeypatch.setattr(
        lindisc.schroder, "_powers", lambda x, n, width: real(x, n, width - (x is not lam))
    )
    g = solve_specialized_p_plus_1(f, 5)
    assert g.valuation(11) is not None
    with pytest.raises(CertificateError, match="past its table's width"):
        g.coefficient(11)


# fields and towers of the doubled power table's oracle test: F_2, F_3,
# F_4 and F_9, and a ramified tower e = 2
POWER_CASES = [
    (F2, 1, "1+T+T^3"),
    (F3, 1, "2+T+2*T^2"),
    (F4, 1, "b+T+(b+1)*T^2"),
    (FieldParams(3, 2), 1, "b+(b+2)*T"),
    (F3, 2, "1+U+2*U^3"),
]


@pytest.mark.parametrize("field, e, lit", POWER_CASES)
@pytest.mark.parametrize("width", [8, 40, 200])
def test_power_table_equals_the_exact_powers(field, e, lit, width):
    """The array is formed by doubling (capped at wide windows over large
    fields, where it adds a few powers per product); whatever the
    steps, every power equals the exact chain's x^n on its first rows,
    across the doubling boundaries n = 2^s and 2^s + 1, and so does a
    read of fewer rows."""
    x = parse_series(lit, field, e)
    exact = exact_powers(x)
    top = 40

    def rows(n):
        coeffs = exact(n).coeffs[:width]
        out = np.zeros((width, field.r), dtype=np.int64)
        out[: coeffs.shape[0]] = coeffs
        return out

    expected = np.stack([rows(n) for n in range(top + 1)])
    for n in sorted({0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, top}):
        assert np.array_equal(_powers(x, n, width), expected[: n + 1]), n
    half = _rows(_powers(x, top, width), width // 2)
    assert np.array_equal(half, expected[:, : width // 2])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 100, 128, 129])
def test_power_table_makes_log_many_products(monkeypatch, n):
    """n powers cost at most ⌈log2 n⌉ + 1 products, not one per power of a
    chain x^(k-1)·x.  λ = 1 + T + T^3 over F_2 at the ladder's width."""
    real, calls = lindisc.schroder._convolve, []

    def spy(params, a, b, *rest):
        calls.append(a.shape)
        return real(params, a, b, *rest)

    monkeypatch.setattr(lindisc.schroder, "_convolve", spy)
    _powers(parse_series("1+T+T^3", F2), n, 33)
    assert len(calls) <= math.ceil(math.log2(n)) + 1, (n, len(calls))


def test_power_table_keeps_each_slice_within_its_cost_cap(monkeypatch):
    """Over F_27 at width 300 a window-wide product of two powers costs
    far more than a product by λ = 1 + T, so the table adds only as many
    powers per product as keep each slice within ``_SLICE_PRODUCTS``
    coordinate products, or one power by the unbatched path."""
    field = FieldParams(3, 3)
    lam = parse_series("1+T", field)
    real, slices = lindisc.schroder._convolve, []

    def spy(params, a, b, *rest):
        slices.append((a.ndim, a.shape[-2], b.shape[0]))
        return real(params, a, b, *rest)

    monkeypatch.setattr(lindisc.schroder, "_convolve", spy)
    table = _powers(lam, 100, 300)
    monkeypatch.undo()
    budget = lindisc.schroder._SLICE_PRODUCTS
    for ndim, la, lb in slices:
        assert ndim == 2 or (la + lb - 1) * lb * field.r**2 <= budget, (la, lb)
    assert any(ndim == 3 for ndim, _, _ in slices)
    exact = exact_powers(lam)
    for n in (1, 2, 5, 17, 64, 100):
        coeffs = exact(n).coeffs
        assert np.array_equal(table[n, : coeffs.shape[0]], coeffs), n
        assert not table[n, coeffs.shape[0] :].any(), n


def test_power_table_keeps_each_product_within_the_stack_bytes(monkeypatch):
    """With the budget ``laurent._STACK_BYTES`` set to five powers'
    products at the widest, each batched product that grows the table
    returns at most that many bytes, so the table adds at most five powers
    per product, and every power is unchanged."""
    x, width = parse_series("1+T+T^3", F2), 33
    expected = _powers(x, 100, width)
    cap = 5 * 8 * (2 * width - 1)
    real, stacks = lindisc.schroder._convolve, []

    def spy(params, a, b, *rest):
        if a.ndim == 3:
            stacks.append((a.shape[0], a.shape[1] + b.shape[0] - 1))
        return real(params, a, b, *rest)

    monkeypatch.setattr(lindisc.laurent, "_STACK_BYTES", cap)
    monkeypatch.setattr(lindisc.schroder, "_convolve", spy)
    table = _powers(x, 100, width)
    assert max(c for c, _ in stacks) == 5
    assert all(8 * c * rows <= cap for c, rows in stacks), stacks
    assert np.array_equal(table, expected)


def _planted_powers(monkeypatch, u0):
    """Every power array of ``_small_divisors`` reads λ^u0 as 1, so the
    divisor 1 − λ^u0 vanishes to the window."""
    real = lindisc.schroder._powers

    def planted(x, n, width):
        table = real(x, n, width)
        if n >= u0:
            table[u0] = 0
            table[u0, 0, 0] = 1
        return table

    monkeypatch.setattr(lindisc.schroder, "_powers", planted)


def _planted_valuation(monkeypatch, n0):
    """The closed form ``small_divisor_leads`` one off at exponent
    n0 = p^s·u only."""
    real = lindisc.schroder.small_divisor_leads
    monkeypatch.setattr(
        lindisc.schroder,
        "small_divisor_leads",
        lambda profile, s, u: real(profile, s, u) + (profile.p**s * u == n0),
    )


@pytest.mark.parametrize(
    "vanish, wrong, error, match",
    [
        (5, 9, PrecisionError, r"lambda\^5 vanished"),  # n = 5 comes before n = 9
        # n = 3 before n = 5; the id writes 1 - λ^3 as λ^0 - λ^3
        pytest.param(
            5, 3, CertificateError, r"of 1 - lambda\^3$",
            id="5-3-CertificateError-of lambda^0 - lambda^3",
        ),
        (None, 18, CertificateError, r"of 1 - lambda\^18$"),
        (9, None, PrecisionError, r"lambda\^9 vanished"),
    ],
)
def test_small_divisors_raise_at_the_first_faulty_entry(
    monkeypatch, vanish, wrong, error, match
):
    """Entries are checked in the order of ``ns``, as one entry at a time
    would: the first entry whose divisor vanishes to the window raises
    PrecisionError, the first whose valuation is off the closed form
    raises CertificateError, whichever comes first.  Here n runs over
    1 .. 19, so 1 − λ^u0 first appears at n = u0."""
    profile = mult_profile(parse_series("1+T+T^2", F2))
    if vanish is not None:
        _planted_powers(monkeypatch, vanish)
    if wrong is not None:
        _planted_valuation(monkeypatch, wrong)
    with pytest.raises(error, match=match):
        _small_divisors(profile, list(range(1, 20)), 16)


def test_small_divisors_check_the_p_plus_1_entries_in_order(monkeypatch):
    """As the p+1 recurrence reads the table over F_2: the exponents
    n = 2j = 2·u; a divisor vanishing at u = 3 raises at j = 3 (exponent
    6), before a valuation planted wrong at j = 5 (exponent 10)."""
    profile = mult_profile(parse_series("1+T", F2))
    ns = [2 * j for j in range(1, 9)]
    _planted_powers(monkeypatch, 3)
    _planted_valuation(monkeypatch, 10)
    with pytest.raises(PrecisionError, match=r"lambda\^6 vanished"):
        _small_divisors(profile, ns, 16)
    monkeypatch.undo()
    _planted_valuation(monkeypatch, 10)
    with pytest.raises(CertificateError, match=r"of 1 - lambda\^10$"):
        _small_divisors(profile, ns, 16)


def _random_divisor_tables(seed, count):
    """(profile, ns, W) with m > 1: λ = c + (terms from U^j on), c of
    order m > 1 over F_3, F_4, F_5, F_7 and F_9, e ∈ {1, 2, 3},
    v_m·e = j ∈ {1, 2, 3}, and 40 random exponents n below 299, or for
    every third table, as the p+1 recurrence reads it, 40 random
    n = p·j."""
    rng = random.Random(seed)
    fields = [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]
    for n in range(count):
        p, r = fields[n % len(fields)]
        e, j = rng.randint(1, 3), rng.randint(1, 3)
        var = "T" if e == 1 else "U"
        tail = "".join(f"+{rng.randrange(1, p)}*{var}^{j + t}" for t in range(rng.randint(1, 3)))
        lam = parse_series(RESIDUE_OF_ORDER_ABOVE_1[p] + tail, FieldParams(p, r), e)
        profile = mult_profile(lam)
        assert profile.m > 1 and profile.v_m * e == j
        if n % 3 == 2:
            ns = [p * j for j in rng.sample(range(1, 60), 40)]
        else:
            ns = rng.sample(range(1, 299), 40)
        yield profile, ns, rng.choice([8, 16, 32])


def test_divisor_leads_equal_the_per_entry_closed_form():
    """The one array pass of ``_small_divisors`` gives every divisor the
    lead that checking entry by entry gives, with ``small_divisor_valuation``
    per entry, on random multipliers with m > 1; and the closed form
    ``small_divisor_leads`` of a whole array of splits is e times the
    per-entry valuation, with m | n and s > 0 among the exponents."""
    splits_seen = set()
    for profile, ns, W in _random_divisor_tables(151, 15):
        table = _small_divisors(profile, ns, W)
        assert table.leads.tolist() == small_divisor_leads_per_entry(profile, ns, W)
        ns = list(range(1, 400))
        s, u = np.array([p_split(n, profile.p) for n in ns]).T
        e = profile.lam.ram
        expected = [small_divisor_valuation(profile, n) * e for n in ns]
        assert small_divisor_leads(profile, s, u).tolist() == expected
        splits_seen |= {(n % profile.m == 0, n % profile.p == 0) for n in ns}
    assert splits_seen == {(True, True), (True, False), (False, True), (False, False)}


def _planted_rows(monkeypatch, planted):
    """λ's power arrays read λ^u as 1 + U^x for each u -> x of
    ``planted``, and as 1 for x None (so 1 − λ^u vanishes)."""
    real = lindisc.schroder._powers

    def powers(x, n, width):
        table = real(x, n, width)
        for u, row in planted.items():
            if u <= n:
                table[u] = 0
                table[u, 0, 0] = 1
                if row is not None:
                    table[u, row, 0] = 1
        return table

    monkeypatch.setattr(lindisc.schroder, "_powers", powers)


def test_divisor_checks_raise_as_the_per_entry_checks(monkeypatch):
    """With a lead planted off the closed form at the second entry or at
    the last, or a divisor vanishing before such a lead, the one array
    pass raises at the entry, with the error and text, that checking
    entry by entry raises at."""
    raised = []
    for profile, ns, W in _random_divisor_tables(157, 10):
        off = int(profile.v_m * profile.lam.ram) + 1  # neither 0 nor v_m·e
        us = [p_split(n, profile.p)[1] for n in ns]
        for planted in ({us[1]: off}, {us[-1]: off}, {us[3]: None, us[-2]: off}):
            with monkeypatch.context() as patch:
                _planted_rows(patch, planted)
                with pytest.raises((PrecisionError, CertificateError)) as want:
                    small_divisor_leads_per_entry(profile, ns, W)
                with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                    _small_divisors(profile, ns, W)
            raised.append(want.type)
    assert PrecisionError in raised and CertificateError in raised


def test_specialized_requires_shape():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    with pytest.raises(HypothesisError):
        solve_specialized_p_plus_1(f, 3)


def test_sfe_defect_is_zero_to_precision():
    """The defining relation: every degree of g∘f − λ·g vanishes."""
    rng = random.Random(19)
    for _ in range(5):
        field = rng.choice([F2, F3])
        f = random_map(field, rng)
        D = 12
        g = solve_sfe(f, D, window=24)
        table = {k: s for k, s in g.coeffs.items() if not s.is_zero_as_known}
        gof = table_compose(table, f.coeffs, D)
        lam = f.multiplier
        for k in range(1, D + 1):
            lhs = gof.get(k)
            rhs = lam * g.coefficient(k)
            if lhs is None:
                assert rhs.is_zero_as_known
            else:
                assert (lhs - rhs).is_zero_as_known, k


def test_structural_zeros_family():
    lam = parse_series("1+T", F2)
    one = parse_series("1", F2)
    f = PowerSeriesMap({1: lam, 4: one, 6: one})
    g = solve_sfe(f, 100)
    report = check_structural_zeros(g, f)
    assert report.applicable
    assert report.violations == []
    for k in range(2, 101):
        if k % 2:
            assert g.zero_kind[k] == STRUCTURAL


def test_structural_zero_check_builds_no_series(monkeypatch):
    """The dense solve checks every degree off the support on the dense
    columns: it reads a column as a series only on the support K, here
    the odd multiples of 3 (k − 1 even, p | k)."""
    f = PowerSeriesMap({1: parse_series("1+T", F3), 3: parse_series("1+T", F3)})
    real, read = DensePoly.column, []

    def column(self, d, *by):
        read.append(d)
        return real(self, d, *by)

    monkeypatch.setattr(DensePoly, "column", column)
    lindisc.schroder._solve_dense(f, 30, 32)
    assert read == [3, 9, 15, 21, 27]
    support = lindisc.schroder._support(_MinPlus(f, 30))[1]
    assert read == (support[2:].nonzero()[0] + 2).tolist()


def test_structural_zero_check_catches_a_planted_column(monkeypatch):
    """A nonzero digit in a column off the support of the dense solve's
    running sum is a CertificateError naming the degree, the support's
    degrees, the column's series and the window rows that hold digits: a
    live column p ∤ k of a p-divisible map, and a column that is not live
    (an exact zero's horizon, with data planted) of a map with a degree
    prime to p, whose series reads as O(T^0), so only the rows show the
    planted digit, and whose text names no p-divisible map."""
    lam = parse_series("1+T", F2)
    for degree, k, live in ((2, 5, True), (3, 4, False)):
        f = PowerSeriesMap({1: lam, degree: parse_series("1", F2)})
        real = DensePoly.add_scaled

        def add_scaled(self, series, other, k=k, live=live):
            real(self, series, other)
            if live:
                self.base[k], self.prec[k] = 3, 3 + self.W
            self.data[k, 1, 0] = 1

        with monkeypatch.context() as patch:
            patch.setattr(DensePoly, "add_scaled", add_scaled)
            with pytest.raises(CertificateError) as raised:
                lindisc.schroder._solve_dense(f, 8, 32)
        text = str(raised.value)
        match = re.fullmatch(
            rf"degree {k} should vanish off the support of f's degrees \[{degree}\], "
            r"got (.+), nonzero rows \[([\d, ]+)\]",
            text,
        )
        assert match, text
        series, rows = match[1], [int(x) for x in match[2].split(", ")]
        assert ("T^4" in series) == live and "p-divisible" not in text
        assert 1 in rows if live else rows == [1], text


def test_a_fault_below_the_degree_solved_comes_before_a_later_error(monkeypatch):
    """The support checks run once, after the loop or before an error the
    loop raises, on the degrees it has passed: with a digit planted at
    degree 5 of λx + x^2 over F_2 and a product failing at degree 8, the
    error is degree 5's, the first in order, as when every degree was
    checked on the way."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    real_add, real_times = DensePoly.add_scaled, lindisc.schroder._GapPowers.times

    def add_scaled(self, series, other):
        real_add(self, series, other)
        self.data[5, 1, 0] = 1

    def times(self, x, g):
        if x._live() >= 6:  # forming f^8
            raise CertificateError("a later product fails")
        return real_times(self, x, g)

    monkeypatch.setattr(DensePoly, "add_scaled", add_scaled)
    monkeypatch.setattr(lindisc.schroder._GapPowers, "times", times)
    with pytest.raises(CertificateError, match="degree 5 should vanish"):
        lindisc.schroder._solve_dense(f, 16, 32)


def test_structural_zeros_not_applicable_outside_family():
    f = PowerSeriesMap({1: parse_series("1+T", F3), 2: parse_series("1", F3)})
    g = solve_sfe(f, 8)
    assert not check_structural_zeros(g, f).applicable


def test_coefficient_bound_saturates_at_k_prime():
    """f = λx + a_{k'} x^{k'} attains equality in the estimate."""
    for lam_lit, field, kp in [("1+T", F2, 2), ("b+T", F4, 4), ("2+T", F3, 3)]:
        lam = parse_series(lam_lit, field)
        f = PowerSeriesMap({1: lam, kp: parse_series("1", field)})
        g = solve_sfe(f, 4 * kp)
        gauge = ps_gauge(f)
        report = check_coefficient_bound(g, gauge, f)
        assert report.applicable
        assert report.violations == []
        assert report.margins[kp] == 0
        assert g.valuation(kp) == (kp - 1) * gauge.A - g.profile.v_m


def test_coefficient_bound_raises_on_a_zero_it_cannot_check():
    """f = (1+T)x + x^2 over F_2 has A = 0 and v_m = 1, so b_2's Lemma
    bound is −1.  A b_2 known only as O(T^-2) cannot be checked against
    it, and the check asks for more precision; O(T^-1) can."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    profile, gauge = mult_profile(f.multiplier), ps_gauge(f)
    one = LaurentSeries.constant(F2, 1)
    for h, raises in ((-2, True), (-1, False)):
        g = Conjugacy({1: one, 2: LaurentSeries.zero(F2, 1, h)}, profile, "planted", 2)
        if raises:
            with pytest.raises(PrecisionError, match="b_2"):
                check_coefficient_bound(g, gauge, f)
        else:
            assert check_coefficient_bound(g, gauge, f).margins == {2: None}


def test_coefficient_bound_equals_the_per_k_fraction_route():
    """The integer pass over one denominator gives the margins, the
    violations and the PrecisionError text of the per-k ``Fraction``
    route, on random multipliers with m > 1 over F_3, F_4, F_5 and F_7,
    e ∈ {2, 3}, fractional gauges A and planted b_k around their bounds:
    nonzero, exact zeros and zeros to precision."""
    rng = random.Random(83)
    residues = [(F3, [2]), (F4, [0, 1]), (F5, [2]), (FieldParams(7), [3])]
    seen = {"violation": 0, "none": 0, "raise": 0, "zero margin": 0}
    for trial in range(48):
        field, residue = residues[trial % 4]
        ram, j = rng.choice([2, 3]), rng.randrange(1, 4)
        rows = [residue + [0] * (field.r - len(residue))] + [[0] * field.r] * j
        rows[j] = [1] + [0] * (field.r - 1)
        lam = LaurentSeries(field, ram, 0, rows, j + 1, exact=True)
        profile = mult_profile(lam)
        f = PowerSeriesMap({1: lam, field.p: LaurentSeries.constant(field, 1, ram)})
        gauge = types.SimpleNamespace(A=Fraction(rng.randrange(-9, 10), rng.randrange(2, 7)))
        assert profile.m > 1 and profile.v_m == Fraction(j, ram)
        D = rng.randrange(2 * profile.k_prime, 4 * profile.k_prime + 8)
        coeffs = {1: LaurentSeries.constant(field, 1, ram)}
        for k in range(2, D + 1):
            top = math.ceil(lemma_bound_per_k(profile, gauge.A, k) * ram)
            kind = rng.random()
            if kind < 0.15:
                coeffs[k] = LaurentSeries.zero(field, ram, 0, exact=True)
            elif kind < 0.3:
                coeffs[k] = LaurentSeries.zero(field, ram, top - (rng.random() < 0.05))
            else:
                lead = top + rng.choices([-1, 0, 1, 2], weights=[1, 20, 20, 20])[0]
                coeffs[k] = LaurentSeries.monomial(field, lead, 1, ram=ram)
        g = Conjugacy(coeffs, profile, "planted", D)

        def outcome(check):
            try:
                report = check(g, gauge, f)
            except PrecisionError as error:
                return str(error)
            return report.applicable, report.margins, report.violations

        got = outcome(check_coefficient_bound)
        assert got == outcome(check_coefficient_bound_per_k)
        if isinstance(got, str):
            seen["raise"] += 1
        else:
            seen["violation" if got[2] else "none"] += 1
            seen["zero margin"] += 0 in got[1].values()
    assert all(seen.values()), seen


def test_rescaling_covariance():
    """a_{p+1} -> t·a_{p+1} rescales b_{jp+1} by exactly t^j."""
    lam = parse_series("1+T", F3)
    a = parse_series("1+2*T", F3)
    t = parse_series("T^2", F3)
    f1 = PowerSeriesMap({1: lam, 4: a})
    f2 = PowerSeriesMap({1: lam, 4: t * a})
    J = 9
    g1 = solve_specialized_p_plus_1(f1, J)
    g2 = solve_specialized_p_plus_1(f2, J)
    for j in range(1, J + 1):
        k = 3 * j + 1
        scaled = g1.coefficient(k) * t**j
        assert g2.coefficient(k).agrees_with(scaled)


def test_divergence_certificate_p2():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    cert = certify_divergence(f, 3)
    assert cert.verdict == "diverges"
    assert [(N, k, c) for N, k, c, _ in cert.entries] == [
        (1, 3, Fraction(-2)),
        (2, 5, Fraction(-6)),
        (3, 9, Fraction(-16)),
    ]
    assert all(c == p for _, _, c, p in cert.entries)
    assert cert.slopes == sorted(cert.slopes, reverse=True)


def test_divergence_certificate_p3():
    f = PowerSeriesMap({1: parse_series("1+T", F3), 4: parse_series("1", F3)})
    cert = certify_divergence(f, 2)
    assert [(N, k, c) for N, k, c, _ in cert.entries] == [
        (1, 4, Fraction(-3)),
        (2, 10, Fraction(-15)),
    ]


def test_divergence_certificate_checks_the_predicted_valuation(monkeypatch):
    """A product of small divisors one off the true one: the computed
    v(b_k) no longer equals the predicted one.  The certificate asks for
    every N's product in one call."""
    true_product = lindisc.schroder.product_small_divisors
    monkeypatch.setattr(
        lindisc.schroder,
        "product_small_divisors",
        lambda profile, Ns: [x + 1 for x in true_product(profile, Ns)],
    )
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    with pytest.raises(CertificateError, match="N=1"):
        certify_divergence(f, 2)


@pytest.mark.parametrize("lam, field", [("1+T", F2), ("b+T", F4)])
def test_divergence_certificate_checks_shape_and_profile_once(monkeypatch, lam, field):
    """One certificate checks f's shape once and profiles λ once: both
    come from its solve.  For m = 1 and m > 1 alike."""
    calls = []

    def spy(name):
        real = getattr(lindisc.schroder, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(lindisc.schroder, name, counted)

    spy("mult_profile")
    spy("_p_plus_1_shape")
    f = PowerSeriesMap({1: parse_series(lam, field), 3: parse_series("1", field)})
    certify_divergence(f, 3)
    assert calls == ["_p_plus_1_shape", "mult_profile"]


def test_divergence_certificate_rejects_a_short_ladder():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    for Nmax in (0, -1):
        with pytest.raises(HypothesisError, match=f"Nmax must be >= 1, got {Nmax}"):
            certify_divergence(f, Nmax)


def test_specialized_solve_rejects_a_negative_count():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    assert solve_specialized_p_plus_1(f, 0).D == 1
    with pytest.raises(HypothesisError, match="Jmax must be >= 0, got -3"):
        solve_specialized_p_plus_1(f, -3)


def test_term_matching_rejects_a_degree_below_one():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    assert solve_sfe(f, 1).D == 1
    for D in (0, -2):
        with pytest.raises(HypothesisError, match=f"degree D must be >= 1, got {D}"):
            solve_sfe(f, D)


def test_multinomial_solve_rejects_a_degree_below_one():
    """The cross-oracle rejects what ``solve_sfe`` rejects, with the same
    error, and still solves the smallest accepted degree."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    assert solve_sfe_multinomial(f, 1).D == 1
    for D in (0, -2):
        with pytest.raises(HypothesisError, match=f"degree D must be >= 1, got {D}"):
            solve_sfe_multinomial(f, D)


@pytest.mark.parametrize(
    "solve, shape, solved",
    [
        (lambda f, W: solve_sfe(f, 8, W), 2, lambda g: g.D == 8),
        (lambda f, W: solve_sfe_multinomial(f, 8, W), 2, lambda g: g.D == 8),
        (lambda f, W: solve_specialized_p_plus_1(f, 4, W), 3, lambda g: g.D == 9),
        (lambda f, W: certify_divergence(f, 2, W), 3, lambda c: c.verdict == "diverges"),
    ],
    ids=["solve_sfe", "multinomial", "specialized", "certify_divergence"],
)
def test_a_window_below_one_is_rejected(solve, shape, solved):
    """A window below 1 is a HypothesisError before any arithmetic, not a
    divisor that seems to vanish (W = 0) or an IndexError (W < 0); the
    smallest accepted window still solves."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), shape: parse_series("1", F2)})
    assert solved(solve(f, 1))
    for W in (0, -1):
        with pytest.raises(HypothesisError, match=f"window must be >= 1, got {W}"):
            solve(f, W)


def test_divergence_certificate_builds_only_the_series_it_reads(monkeypatch):
    """``certify_divergence(f, 8)`` over F_2 solves to Jmax = 128 but reads
    only b_{2^N + 1}, N = 1 .. 8: at most 8 of the 128 series b_{2j+1}
    exist when it returns.  The others are built when read, and equal
    the windowed term-by-term oracle's."""
    made = []
    real_init = LaurentSeries.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    solved = []
    real_solve = lindisc.schroder.solve_specialized_p_plus_1

    def solve(f, Jmax, window=32):
        solved.append(real_solve(f, Jmax, window))
        return solved[-1]

    monkeypatch.setattr(LaurentSeries, "__init__", init)
    monkeypatch.setattr(lindisc.schroder, "solve_specialized_p_plus_1", solve)
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    cert = certify_divergence(f, 8)
    before = {id(x) for x in made}
    (g,) = solved
    series = [g.coefficient(2 * j + 1) for j in range(1, 129)]
    assert sum(id(b) in before for b in series) <= 8
    assert [g.coefficient(k).lead for _, k, _, _ in cert.entries] == [
        int(c) for _, _, c, _ in cert.entries
    ]
    monkeypatch.undo()
    oracle = solve_specialized_windowed_terms(f, 128)
    for k in range(1, g.D + 1):
        x, y = g.coefficient(k), oracle.coefficient(k)
        assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), k
        assert x.coeffs.tobytes() == y.coeffs.tobytes(), k


def test_divergence_conjectural_for_m_greater_one():
    f = PowerSeriesMap({1: parse_series("b+T", F4), 3: parse_series("1", F4)})
    cert = certify_divergence(f, 2)
    assert cert.conjectural
    assert cert.verdict == "conjectural"
    assert all(p is None for _, _, _, p in cert.entries)
    assert "conjectural" in cert.csv()


def test_certificate_csv_format():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    cert = certify_divergence(f, 2)
    lines = cert.csv().strip().splitlines()
    assert lines[0] == "N,k,v_num,v_den,predicted_num,predicted_den"
    assert lines[1] == "1,3,-2,1,-2,1"


def test_conjugacy_csv_format():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    g = solve_sfe(f, 4)
    lines = g.csv().strip().splitlines()
    assert lines[0] == "k,v_num,v_den,zero_kind"
    assert lines[1] == "1,0,1,nonzero"
    assert lines[2] == "2,-1,1,nonzero"
    assert lines[3].startswith("3,inf,1,")
    # a zero to precision, whose valuation is None, is written inf too
    one = LaurentSeries.constant(F2, 1)
    g = Conjugacy({1: one, 2: LaurentSeries.zero(F2, 1, 7)}, None, "table", 2)
    assert g.csv().splitlines()[1:] == ["1,0,1,nonzero", "2,inf,1,computed-zero"]


def _exact(field, ram, lead, rows):
    return LaurentSeries(field, ram, lead, rows, lead + len(rows), exact=True)


# three dense maps and the SHA-256 of (k, lead, prec, exact, rows) of
# every b_k their term matching gives, recorded before the dense engine
# took its bases from one min-plus table per solve: a p-divisible map
# over F_2, a map over F_4 with degrees prime to 2, and a p-divisible
# map over F_3((T^(1/2))) with negative leads
DENSE_DIGESTS = {
    "family-F2": (
        lambda: PowerSeriesMap({
            1: parse_series("1+T+T^3", F2), 2: parse_series("1+T", F2),
            4: parse_series("T", F2), 6: parse_series("T^-1+T^2", F2),
        }),
        64, 16, "37bbf678c3f878811f7b05429ee0ba3c646183d58965f26b8a767a81c24024d7",
    ),
    "generic-F4": (
        lambda: PowerSeriesMap({
            1: parse_series("b+T", F4), 2: parse_series("1+bT", F4),
            3: parse_series("T^2", F4), 5: parse_series("b", F4),
        }),
        48, 12, "0e4b5b169e85826fc8aa9aa7e6c06f6937b4dc33df2ceb7ca25f33547a49e230",
    ),
    "p3-e2": (
        lambda: PowerSeriesMap({
            1: _exact(F3, 2, 0, [[1], [0], [1]]), 3: _exact(F3, 2, -1, [[2], [1]]),
            6: _exact(F3, 2, 1, [[1]]), 9: _exact(F3, 2, -2, [[1], [0], [2]]),
        }),
        54, 12, "bddece5a5614b873d7ceb038702e2232a35940519a25dc6742f227957feea74d",
    ),
}


def _digest(g):
    """SHA-256 of the lead, horizon, exactness and rows of every b_k."""
    digest = hashlib.sha256()
    for k in range(1, g.D + 1):
        s = g.coefficient(k)
        digest.update(f"{k},{s.lead},{s.prec},{s.exact};".encode())
        digest.update(s.coeffs.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", DENSE_DIGESTS)
def test_dense_coefficients_keep_their_bytes(name):
    """Every b_k of three fixed dense solves hashes to the digest recorded
    before the per-step bookkeeping changed: leads, horizons, exactness
    and rows are byte for byte the same."""
    make, D, W, expected = DENSE_DIGESTS[name]
    g = solve_sfe(make(), D, window=W)
    assert g.source == "term-matching"
    assert _digest(g) == expected


# (map, its solve, the digest of every b_k) for the other two solvers:
# a p+1 ladder map over F_3 (table exponents 3J, t = 1), a map shaped
# like the ``f4-conj`` ladder (m = 3), a p | N ``disc`` map over F_9
# (exponents 8J, t = 0) and a multinomial solve at D = 12
BINOMIAL_DIGESTS = {
    "p+1-F3": (
        lambda: PowerSeriesMap({1: parse_series("1+T+2T^2", F3), 4: parse_series("2+T", F3)}),
        lambda f: solve_specialized_p_plus_1(f, 27, 32),
        "8302f5290c5c954bbdc152bb743b1fb0824900478183714661e4f77b2041569b",
    ),
    "f4-conj": (
        lambda: PowerSeriesMap({1: parse_series("b+bT", F4), 3: parse_series("b+1", F4)}),
        lambda f: solve_specialized_p_plus_1(f, 64, 32),
        "cd34c0e737d50d0f2138dc74f45384c9dc5c5bf4448c473d50ffa6ee950109bb",
    ),
    "disc-F9": (
        lambda: PowerSeriesMap({1: parse_series("b+T", F9), 9: parse_series("b+1", F9)}),
        lambda f: solve_sfe(f, 145, 32),
        "01c0193da6ab211b931fec533eeeeaa90c088db9840384c58267c55e6ee3d140",
    ),
    "multinomial-D12": (
        lambda: PowerSeriesMap({
            1: parse_series("b+T", F4), 2: parse_series("1+bT", F4), 3: parse_series("T^-1", F4),
        }),
        lambda f: solve_sfe_multinomial(f, 12, 16),
        "832869cfde7f0af17fccf46e18679d15616e0b03f485b8e19452b272bb3373d3",
    ),
}


@pytest.mark.parametrize("name", BINOMIAL_DIGESTS)
def test_binomial_and_multinomial_coefficients_keep_their_bytes(name):
    """Every b_k of the binomial recurrence (N = p + 1 and p | N) and of
    the multinomial solve hashes to the digest recorded before the
    divisor table took its one form, 1/(1 − λ^n)."""
    make, solve, expected = BINOMIAL_DIGESTS[name]
    assert _digest(solve(make())) == expected


@pytest.mark.parametrize("name", DENSE_DIGESTS)
def test_a_dense_solve_forms_one_series_per_support_degree(monkeypatch, name):
    """``_solve_dense`` builds at most one series through
    ``LaurentSeries._of`` per degree of the support K, b_k itself, plus
    a few before its loop that do not grow with D (the multiplier's
    profile is formed afresh for every run)."""
    real, made = LaurentSeries.__dict__["_of"].__func__, []

    def of(cls, *args, **kwargs):
        made.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(LaurentSeries, "_of", classmethod(of))
    make, _, W, _ = DENSE_DIGESTS[name]
    f = make()
    for D in (24, 48, 96, 192):
        monkeypatch.setattr(lindisc.multiplier, "_last_profile", None)
        support = lindisc.schroder._support(_MinPlus(f, D))[1]
        made.clear()
        lindisc.schroder._solve_dense(f, D, W)
        assert len(made) <= int(support[2:].sum()) + 2, (D, len(made))


@pytest.mark.parametrize("name", DENSE_DIGESTS)
def test_a_dense_solve_builds_one_min_plus_table(monkeypatch, name):
    """``_support`` reads the min-plus table of f's leads that
    ``DensePoly.of_map`` builds: one ``_MinPlus`` per dense solve."""
    real, built = _MinPlus.__init__, []

    def init(self, f, D):
        built.append(D)
        real(self, f, D)

    monkeypatch.setattr(_MinPlus, "__init__", init)
    make, D, W, _ = DENSE_DIGESTS[name]
    solve_sfe(make(), D, window=W)
    assert built == [D]


@pytest.mark.parametrize(
    "p, r, e", [(p, r, e) for p in (2, 3, 65521) for r in (1, 2) for e in (1, 2)]
)
def test_dense_divisors_are_the_exact_quotients_by_lambda_minus_lambda_k(monkeypatch, p, r, e):
    """The dense solve divides by λ − λ^k = λ(1 − λ^(k−1)): every row of
    the table, times the table's λ^(−1).  At each degree whose exponent
    k − 1 = p^s·u has s > 0, a Frobenius image in the table, the
    divisor it passes to ``DensePoly.column`` is the exact quotient
    1/(λ − λ^k) to W digits (``over_small_divisor``, low = 1), for m = 1
    and m > 1.  For p = 65521 the map λx + x^(p+1) solves the one such
    degree, p + 1."""
    field, var = _field(p, r), "T" if e == 1 else "U"
    high_order = (r + e) % 2 == 1 and not (p == 2 and r == 1)
    residue = RESIDUE_OF_ORDER_ABOVE_1[p] if high_order else "1"
    lam = parse_series(f"{residue}+{var}+{var}^2", field, e)
    W = 16
    degrees, D = ({p + 1: "1"}, p + 1) if p == 65521 else ({2: "1", 3: var}, 40)
    f = PowerSeriesMap({1: lam, **{d: parse_series(c, field, e) for d, c in degrees.items()}})
    real, divisors = DensePoly.column, {}

    def column(self, d, *by):
        if by:
            divisors[d] = by[0]
        return real(self, d, *by)

    monkeypatch.setattr(DensePoly, "column", column)
    solve_sfe(f, D, W)
    monkeypatch.undo()
    profile, one = mult_profile(lam), LaurentSeries.constant(field, 1, e)
    spread = [k for k in divisors if p_split(k - 1, p)[0] > 0]
    assert spread and (profile.m > 1) == high_order

    def power(k):  # λ^k, k = 1 or p^s·u + 1: times a Frobenius image
        return lam * lam ** (k - 1)

    for k in spread:
        x = LaurentSeries(field, e, *divisors[k])
        y = over_small_divisor(one, power, profile, k, W)
        assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), k
        assert x.coeffs.tobytes() == y.coeffs.tobytes(), k


@pytest.mark.parametrize("e", [1, 2, 3])
def test_conjugacy_csv_equals_the_fraction_rendering(e):
    """``csv`` writes each v(b_k) = lead/e in lowest terms from integer
    gcds; it equals the rendering through one Fraction per degree on
    leads −3e .. 3e, negative ones among them, and on the three kinds:
    a structural zero, a zero to precision and a nonzero b_k."""
    leads = list(range(-3 * e, 3 * e + 1))
    kinds = [STRUCTURAL, COMPUTED_ZERO] + [NONZERO] * len(leads)
    D = len(kinds)
    lead = [0, 0, 5] + leads  # b_0, then b_1 .. b_D
    prec = [0, 0, 5] + [v + 4 for v in leads]
    columns = (lead, prec, [STRUCTURAL] + kinds)
    table = ValuationTable(e, *(np.array(column, dtype=object) for column in columns))
    g = Conjugacy({}, None, "table", D, table)
    text = g.csv()
    assert text == conjugacy_csv_by_fractions(g)
    assert text.splitlines()[1:3] == [f"1,inf,1,{STRUCTURAL}", f"2,inf,1,{COMPUTED_ZERO}"]


def test_residuals_inside_discs():
    lam = parse_series("1+T", F2)
    f = PowerSeriesMap({1: lam, 2: parse_series("1", F2)})
    g = solve_sfe(f, 24, window=48)
    dp = disc_profile(mult_profile(lam), ps_gauge(f))
    for lit in ("T^2+O(T^40)", "T^2+T^3+O(T^40)", "T^5+O(T^40)"):
        x = parse_series(lit, F2)
        semi = semiconjugacy_residual(f, g, x, dp)
        full = full_conjugacy_residual(f, g, x, dp)
        assert semi.is_zero_as_known and not semi.exact
        assert full.is_zero_as_known and not full.exact
    # a zero x, exact or to precision, has no valuation to compare with
    # the radii and lies in every disc
    for x in (LaurentSeries.zero(F2, 1, 40), LaurentSeries.zero(F2, 1, 0, exact=True)):
        assert semiconjugacy_residual(f, g, x, dp).is_zero_as_known
        assert full_conjugacy_residual(f, g, x, dp).is_zero_as_known


def test_residual_rejects_points_outside_disc():
    lam = parse_series("1+T", F2)
    f = PowerSeriesMap({1: lam, 2: parse_series("1", F2)})
    g = solve_sfe(f, 12)
    dp = disc_profile(mult_profile(lam), ps_gauge(f))
    x = parse_series("1+O(T^20)", F2)  # v = 0, outside both discs
    with pytest.raises(HypothesisError):
        semiconjugacy_residual(f, g, x, dp)
    with pytest.raises(HypothesisError):
        full_conjugacy_residual(f, g, x, dp)


def test_point_inversion_outside_the_disc_raises():
    # v_sigma = 1: the sphere v = 1 and the unit circle lie outside D_sigma,
    # where Newton's method from y = x stops instead of running on
    lam = parse_series("1+T", F2)
    f = PowerSeriesMap({1: lam, 2: parse_series("1", F2)})
    g = solve_sfe(f, 12)
    for lit in ("T+O(T^20)", "1+O(T^20)"):
        with pytest.raises(PrecisionError):
            invert_at_point(g, parse_series(lit, F2))


def test_residual_linear_map_is_exact_zero():
    lam = parse_series("2+T", F3)
    f = PowerSeriesMap({1: lam})
    g = solve_sfe(f, 6)
    x = parse_series("T+O(T^30)", F3)
    assert semiconjugacy_residual(f, g, x).is_zero_as_known


def test_bkprime_zero_extension():
    lam = parse_series("1+T", F2)
    # k' = 2, mp = 2: lowest degree k' + mp = 4 forces b_2 = 0
    f = PowerSeriesMap({1: lam, 4: parse_series("1", F2)})
    g = solve_sfe(f, 40)
    dp = disc_profile(mult_profile(lam), ps_gauge(f))
    verdict = check_bkprime_zero_extension(g, dp)
    assert verdict.applicable and verdict.holds
    assert verdict.first_resonant_after == 4
    # with a_{k'} present the check does not apply
    f2 = PowerSeriesMap({1: lam, 2: parse_series("1", F2)})
    g2 = solve_sfe(f2, 12)
    assert not check_bkprime_zero_extension(g2, dp).applicable


def test_a_degree_outside_the_solve_raises_a_typed_error():
    """``coefficient`` and ``valuation`` of a degree below 1 or above D
    raise ``HypothesisError``, for a term-matching solve and for the lazy
    table of the p+1 recurrence, and the degrees 1 and D still read."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    g = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("T", F2)})
    for conjugacy in (solve_sfe(f, 8), solve_specialized_p_plus_1(g, 4)):
        D = conjugacy.D
        for k in (0, -1, D + 1):
            for read in (conjugacy.coefficient, conjugacy.valuation):
                with pytest.raises(HypothesisError, match=f"degree {k} outside"):
                    read(k)
        assert conjugacy.coefficient(1) == LaurentSeries.constant(F2, 1)
        conjugacy.valuation(D)
