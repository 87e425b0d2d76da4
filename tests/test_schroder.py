"""Conjugacy solvers, structural lemmas on their coefficients,
divergence certificates, and residual checks."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import lindisc._dense
import lindisc.laurent
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
    full_conjugacy_residual,
    mult_profile,
    parse_series,
    ps_gauge,
    semiconjugacy_residual,
    solve_sfe,
    solve_sfe_multinomial,
    solve_specialized_p_plus_1,
    table_compose,
)
from lindisc._dense import DensePoly
from lindisc.discs import check_bkprime_zero_extension
from lindisc.errors import (
    CertificateError,
    HypothesisError,
    PrecisionError,
    RootOfUnityError,
)
from lindisc.schroder import (
    COMPUTED_ZERO,
    NONZERO,
    STRUCTURAL,
    _powers,
    _small_divisors,
    invert_at_point,
)
from oracles import (
    exact_powers,
    over_small_divisor,
    solve_specialized_per_term,
    solve_specialized_windowed_terms,
)

F2 = FieldParams(2)
F3 = FieldParams(3)
F4 = FieldParams(2, 2)
F5 = FieldParams(5)


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


def _oracle_cases():
    """(p, r, e, v(a), W, λ) covering every value of each axis; the last
    case has a b_{jp+1} that is zero to precision, so later sums take a
    term that caps the horizon and adds no rows."""
    other = {2: "1", 3: "2", 5: "2", 7: "3"}  # of order m > 1 for p > 2
    cases = []
    for idx, (p, r) in enumerate(itertools.product((2, 3, 5, 7), (1, 2, 4))):
        residue = ("1", "b" if p == 2 and r > 1 else other[p])[idx % 2]
        lam = f"{residue}+T+{idx % p}*T^2"
        cases.append((p, r, 1 + idx % 2, idx % 4 - 1, (8, 32, 64)[idx % 3], lam))
    cases.append((5, 2, 1, 0, 8, "b+T^2"))
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
    J = {2: 16, 3: 12, 5: 10, 7: 8}[p]
    g, oracle = solve_specialized_p_plus_1(f, J, W), solve_specialized_per_term(f, J, W)
    assert g.D == oracle.D and g.source == oracle.source
    for k in range(1, g.D + 1):
        x, y = g.coefficient(k), oracle.coefficient(k)
        assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), k
        assert x.coeffs.tobytes() == y.coeffs.tobytes(), k
    if lam == "b+T^2":
        assert g.zero_kind[31] == COMPUTED_ZERO


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

    def spy(params, a, b):
        calls.append(a.shape)
        return real(params, a, b)

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
    divisor against ``small_divisor_valuation``."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    monkeypatch.setattr(
        lindisc.schroder, "small_divisor_valuation", lambda profile, n: Fraction(99)
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
    λ − λ^k to W digits, formed from the exact chain λ^k: the same lead,
    rows, horizon and exactness."""
    field = _field(p, r)
    lam = parse_series(lam, field, e)
    profile = mult_profile(lam)
    one = LaurentSeries.constant(field, 1, e)
    ks = [n + 1 for n in exps]
    table = _small_divisors(profile, ks, W)
    assert sorted(table) == ks
    lam_power = exact_powers(lam)
    for k in ks:
        x, y = table[k], over_small_divisor(one, lam_power, profile, k, W)
        assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), k
        assert x.coeffs.tobytes() == y.coeffs.tobytes(), k


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

    def spy(params, a, b):
        longest.append(max(a.shape[-2], b.shape[-2]))
        return real(params, a, b)

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


def test_power_table_read_past_its_width_raises(monkeypatch):
    """A read past a power table's width raises CertificateError; it never
    returns a shorter slice.  With every table one row short, the
    divisor table and the p+1 recurrence's window both run into it."""
    power = _powers(parse_series("1+T", F3), 4)
    assert power(3, 4).tolist() == [[1], [0], [0], [1]]
    assert power(0, 2).tolist() == [[1], [0]]
    with pytest.raises(CertificateError, match="width 4"):
        power(3, 5)
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    real = lindisc.schroder._powers
    for short, solves in [
        (lambda width: width - 1, [(solve_sfe, 6), (solve_sfe_multinomial, 6)]),
        (lambda width: width - (width == 32), [(solve_specialized_p_plus_1, 3)]),
    ]:
        monkeypatch.setattr(
            lindisc.schroder, "_powers", lambda x, width: real(x, short(width))
        )
        for solve, degree in solves:
            with pytest.raises(CertificateError, match="past its table's width"):
                solve(f, degree)


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
    """The table grows by doubling (capped at wide windows over large
    fields, where it grows a few powers per product); whatever the
    growth, every read equals the exact chain's x^n on its first rows,
    across the doubling boundaries n = 2^s and 2^s + 1, both read at once
    and one power after another."""
    x = parse_series(lit, field, e)
    exact = exact_powers(x)
    top = 40

    def rows(n):
        coeffs = exact(n).coeffs[:width]
        out = np.zeros((width, field.r), dtype=np.int64)
        out[: coeffs.shape[0]] = coeffs
        return out

    expected = np.stack([rows(n) for n in range(top + 1)])
    for n in sorted({1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, top}):
        assert np.array_equal(_powers(x, width).upto(n, width), expected[: n + 1]), n
    one_by_one = _powers(x, width)
    for n in range(top + 1):
        assert np.array_equal(one_by_one(n, width), expected[n]), n
    assert np.array_equal(one_by_one.upto(top, width // 2), expected[:, : width // 2])


def test_power_table_slice_read_past_its_width_raises():
    table = _powers(parse_series("1+T", F3), 4)
    assert table.upto(3, 4).shape == (4, 4, 1)
    with pytest.raises(CertificateError, match="width 4"):
        table.upto(3, 5)
    with pytest.raises(CertificateError, match="width 4"):
        table.upto(0, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 100, 128, 129])
def test_power_table_makes_log_many_products(monkeypatch, n):
    """n powers cost at most ⌈log2 n⌉ + 1 products, not one per power of a
    chain x^(k-1)·x.  λ = 1 + T + T^3 over F_2 at the ladder's width."""
    real, calls = lindisc.schroder._convolve, []

    def spy(params, a, b):
        calls.append(a.shape)
        return real(params, a, b)

    monkeypatch.setattr(lindisc.schroder, "_convolve", spy)
    table = _powers(parse_series("1+T+T^3", F2), 33)
    table(n, 33)
    assert len(calls) <= math.ceil(math.log2(n)) + 1, (n, len(calls))


def test_power_table_keeps_each_slice_within_its_cost_cap(monkeypatch):
    """Over F_27 at width 300 a window-wide product of two powers costs
    far more than a product by λ = 1 + T, so the table adds only as many
    powers per product as keep each slice within ``_SLICE_PRODUCTS``
    coordinate products, or one power by the unbatched path."""
    field = FieldParams(3, 3)
    lam = parse_series("1+T", field)
    real, slices = lindisc.schroder._convolve, []

    def spy(params, a, b):
        slices.append((a.ndim, a.shape[-2], b.shape[0]))
        return real(params, a, b)

    monkeypatch.setattr(lindisc.schroder, "_convolve", spy)
    table = _powers(lam, 300).upto(100, 300)
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
    """With ``_STACK_BYTES`` set to five powers' products at the widest,
    each batched product that grows the table returns at most that many
    bytes, so the table adds at most five powers per product, and every
    power is unchanged."""
    x, width = parse_series("1+T+T^3", F2), 33
    expected = _powers(x, width).upto(100, width).copy()
    cap = 5 * 8 * (2 * width - 1)
    real, stacks = lindisc.schroder._convolve, []

    def spy(params, a, b):
        if a.ndim == 3:
            stacks.append((a.shape[0], a.shape[1] + b.shape[0] - 1))
        return real(params, a, b)

    monkeypatch.setattr(lindisc.schroder, "_STACK_BYTES", cap)
    monkeypatch.setattr(lindisc.schroder, "_convolve", spy)
    table = _powers(x, width).upto(100, width)
    assert max(c for c, _ in stacks) == 5
    assert all(8 * c * rows <= cap for c, rows in stacks), stacks
    assert np.array_equal(table, expected)


def _planted_powers(monkeypatch, u0):
    """Every power table of ``_small_divisors`` reads λ^u0 as 1, so the
    divisor 1 − λ^u0 vanishes to the window."""
    real = lindisc.schroder._powers

    def planted(x, width):
        table = real(x, width)
        upto = table.upto

        def planted_upto(n, rows):
            out = upto(n, rows)
            if n >= u0:
                out = out.copy()
                out[u0] = 0
                out[u0, 0, 0] = 1
            return out

        table.upto = planted_upto
        return table

    monkeypatch.setattr(lindisc.schroder, "_powers", planted)


def _planted_valuation(monkeypatch, n0):
    """``small_divisor_valuation`` one off at exponent n0 only."""
    real = lindisc.schroder.small_divisor_valuation
    monkeypatch.setattr(
        lindisc.schroder,
        "small_divisor_valuation",
        lambda profile, n: real(profile, n) + (n == n0),
    )


@pytest.mark.parametrize(
    "vanish, wrong, error, match",
    [
        (5, 9, PrecisionError, r"lambda\^5 vanished"),  # k = 6 comes before k = 10
        (5, 3, CertificateError, r"at k = 4$"),  # k = 4 comes before k = 6
        (None, 18, CertificateError, r"at k = 19$"),
        (9, None, PrecisionError, r"lambda\^9 vanished"),
    ],
)
def test_small_divisors_raise_at_the_first_faulty_entry(
    monkeypatch, vanish, wrong, error, match
):
    """Entries are checked in the order of ``ks``, as one entry at a time
    would: the first entry whose divisor vanishes to the window raises
    PrecisionError, the first whose valuation is off the closed form
    raises CertificateError, whichever comes first.  Here k runs over
    2 .. 20 with i = 1 (exponents 1 .. 19), so 1 − λ^u0 first appears
    at k = u0 + 1."""
    profile = mult_profile(parse_series("1+T+T^2", F2))
    if vanish is not None:
        _planted_powers(monkeypatch, vanish)
    if wrong is not None:
        _planted_valuation(monkeypatch, wrong)
    with pytest.raises(error, match=match):
        _small_divisors(profile, list(range(2, 21)), 16)


def test_small_divisors_check_the_p_plus_1_entries_in_order(monkeypatch):
    """With lows, as the p+1 recurrence reads it: k = 3j, i = j over F_2,
    so exponent 2j = 2·u; a divisor vanishing at u = 3 raises at j = 3
    (exponent 6), before a valuation planted wrong at j = 5 (exponent 10)."""
    profile = mult_profile(parse_series("1+T", F2))
    js = list(range(1, 9))
    _planted_powers(monkeypatch, 3)
    _planted_valuation(monkeypatch, 10)
    with pytest.raises(PrecisionError, match=r"lambda\^6 vanished"):
        _small_divisors(profile, [3 * j for j in js], 16, lows=js)
    monkeypatch.undo()
    _planted_valuation(monkeypatch, 10)
    with pytest.raises(CertificateError, match=r"at k = 15$"):
        _small_divisors(profile, [3 * j for j in js], 16, lows=js)


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
    """``solve_sfe`` checks the degrees p ∤ k of a p-divisible map on the
    dense columns: it reads a column as a series only at p | k."""
    f = PowerSeriesMap({1: parse_series("1+T", F3), 3: parse_series("1+T", F3)})
    real, read = DensePoly.column, []

    def column(self, d):
        read.append(d)
        return real(self, d)

    monkeypatch.setattr(DensePoly, "column", column)
    solve_sfe(f, 30)
    assert read == list(range(3, 31, 3))


def test_structural_zero_check_catches_a_planted_column(monkeypatch):
    """A nonzero digit in a column p ∤ k of the running sum is a
    CertificateError naming the degree and the column's series."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    real = DensePoly.add_scaled

    def add_scaled(self, series, other):
        real(self, series, other)
        self.base[5], self.prec[5] = 3, 3 + self.W
        self.data[5, 1, 0] = 1

    monkeypatch.setattr(DensePoly, "add_scaled", add_scaled)
    with pytest.raises(CertificateError, match=r"degree 5 should vanish.*T\^4"):
        solve_sfe(f, 8)


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
    v(b_k) no longer equals the predicted one."""
    true_sums = lindisc.schroder.product_small_divisor_sums
    monkeypatch.setattr(
        lindisc.schroder,
        "product_small_divisor_sums",
        lambda profile, Nmax: (v + 1 for v in true_sums(profile, Nmax)),
    )
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    with pytest.raises(CertificateError, match="N=1"):
        certify_divergence(f, 2)


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
