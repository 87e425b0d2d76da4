"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``python3 -m pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.  Every numeric comparison below is exact (Fraction
or integer); there are no float tolerances anywhere.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from lindisc import (
    FieldParams,
    LaurentSeries,
    PowerSeriesMap,
    certify_divergence,
    check_coefficient_bound,
    check_structural_zeros,
    classify_linearization_disc,
    disc_profile,
    full_conjugacy_residual,
    mult_profile,
    parse_series,
    product_small_divisors,
    ps_eval,
    ps_gauge,
    semiconjugacy_residual,
    small_divisor_valuation,
    solve_sfe,
    solve_sfe_multinomial,
    solve_specialized_p_plus_1,
)
from lindisc.discs import LEVEL_EXACT, LEVEL_EXTENDED, check_bkprime_zero_extension
from lindisc.schroder import NONZERO, STRUCTURAL
from oracles import small_divisor_direct

F2 = FieldParams(2)
F3 = FieldParams(3)
F4 = FieldParams(2, 2)
F5 = FieldParams(5)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def random_family_map(field, rng, max_degree=50):
    """A map whose nonlinear degrees are all divisible by p, with sparse
    monomial coefficients c*T^e, as used by criteria 4 and 5."""
    p = field.p
    lam = parse_series(f"1+T^{rng.randrange(1, 3)}", field)
    coeffs = {1: lam}
    degrees = list(range(p, max_degree + 1, p))
    for d in rng.sample(degrees, rng.randrange(3, 7)):
        c = rng.randrange(1, p)
        coeffs[d] = parse_series(f"{c}*T^{rng.randrange(0, 4)}", field)
    return PowerSeriesMap(coeffs)


@pytest.fixture(scope="session")
def family_corpus():
    """50 random p-divisible maps solved to degree 400, shared between
    the structural-zero and coefficient-bound criteria."""
    rng = random.Random(2026)
    corpus = []
    for i in range(50):
        field = (F2, F3, F5)[i % 3]
        f = random_family_map(field, rng)
        corpus.append((f, solve_sfe(f, 400)))
    return corpus


def divergence_values_p2(window=32):
    f = PowerSeriesMap({1: parse_series("1+T", F2), 3: parse_series("1", F2)})
    cert = certify_divergence(f, 8, window=window)
    spec = solve_specialized_p_plus_1(f, 128, window=window)
    direct = solve_sfe(f, 257, window=window)
    values = []
    for N in range(1, 9):
        k = 2**N + 1
        v_spec = spec.valuation(k)
        v_direct = direct.valuation(k) if k <= 257 else v_spec
        assert v_spec == v_direct == cert.entries[N - 1][2]
        values.append(v_spec)
    return values


def test_criterion_1():
    with criterion(1, "divergence certificate p=2"):
        values = divergence_values_p2()
        assert values == [-2, -6, -16, -40, -96, -224, -512, -1152]


def test_criterion_2():
    with criterion(2, "divergence certificate p=3"):
        f = PowerSeriesMap({1: parse_series("1+T", F3), 4: parse_series("1", F3)})
        cert = certify_divergence(f, 4)
        direct = solve_sfe(f, 82)
        expected = [-3, -15, -63, -243]
        for N in range(1, 5):
            k = 3**N + 1
            assert cert.entries[N - 1][2] == expected[N - 1]
            assert direct.valuation(k) == expected[N - 1]
        assert cert.verdict == "diverges"


def test_criterion_3():
    with criterion(3, "small-divisor product formula"):
        for field, Nmax in ((F2, 4), (F3, 4), (F5, 3)):
            lam = parse_series("1+T", field)
            pr = mult_profile(lam)
            p = field.p
            for N in range(1, Nmax + 1):
                closed = product_small_divisors(pr, N)
                term_sum = sum(
                    small_divisor_valuation(pr, i * p)
                    for i in range(1, p ** (N - 1) + 1)
                )
                series_sum = sum(
                    small_divisor_direct(lam, i * p)
                    for i in range(1, p ** (N - 1) + 1)
                )
                assert closed == term_sum == series_sum


def test_criterion_4(family_corpus):
    with criterion(4, "structural zeros on random p-divisible maps"):
        for f, g in family_corpus:
            report = check_structural_zeros(g, f)
            assert report.applicable
            assert report.violations == []
            p = f.field.p
            for k in range(2, g.D + 1):
                if k % p:
                    assert g.zero_kind[k] == STRUCTURAL


def test_criterion_5(family_corpus):
    with criterion(5, "coefficient valuation bound and saturation"):
        for f, g in family_corpus:
            report = check_coefficient_bound(g, ps_gauge(f), f)
            assert report.applicable
            assert report.violations == []
        # equality at k' when the gauge is attained only there
        for field in (F2, F3, F5):
            lam = parse_series("1+T", field)
            kp = field.p  # m = 1, so k' = p
            f = PowerSeriesMap({1: lam, kp: parse_series("1", field)})
            g = solve_sfe(f, 4 * kp)
            report = check_coefficient_bound(g, ps_gauge(f), f)
            assert report.margins[kp] == 0


def test_criterion_6():
    with criterion(6, "independent solvers agree"):
        rng = random.Random(101)
        for _ in range(20):
            field = rng.choice([F2, F3, F4])
            lam = parse_series(f"1+T^{rng.randrange(1, 3)}", field)
            coeffs = {1: lam}
            for d in rng.sample(range(2, 12), 3):
                coeffs[d] = parse_series(f"T^{rng.randrange(0, 3)}", field)
            f = PowerSeriesMap(coeffs)
            D = rng.randrange(12, 26)
            g1 = solve_sfe(f, D, window=64)
            g2 = solve_sfe_multinomial(f, D)
            for k in range(1, D + 1):
                a, b = g1.coefficient(k), g2.coefficient(k)
                if a.is_zero_as_known or b.is_zero_as_known:
                    assert a.is_zero_as_known and b.is_zero_as_known, k
                else:
                    assert a.agrees_with(b), k
        for field, Jmax in ((F2, 99), (F3, 66)):
            p = field.p
            f = PowerSeriesMap(
                {1: parse_series("1+T", field), p + 1: parse_series("1", field)}
            )
            D = Jmax * p + 1
            g1 = solve_sfe(f, D)
            g2 = solve_specialized_p_plus_1(f, Jmax)
            for k in range(2, D + 1):
                a, b = g1.coefficient(k), g2.coefficient(k)
                if a.is_zero_as_known:
                    assert b.is_zero_as_known, k
                else:
                    assert a.agrees_with(b), k


def test_criterion_7():
    with criterion(7, "closed-form small divisors vs direct series"):
        profiles = [
            parse_series("1+T", F2),
            parse_series("1+T^2", F2),
            parse_series("1+T^3", F2),
            parse_series("b+T", F4),
            parse_series("b+1+T^2", F4),
            parse_series("1+T", F3),
            parse_series("2+T", F3),
            parse_series("2+2*T^2", F3),
            parse_series("2+T", F5),
            parse_series("3+T^2", F5),
        ]
        assert any(mult_profile(lam).m == 3 for lam in profiles)
        for lam in profiles:
            pr = mult_profile(lam)
            one = LaurentSeries.constant(lam.field, 1, lam.ram)
            power = one
            for n in range(1, 1001):
                power = power * lam  # λ^n = λ^(n-1)·λ, exact
                assert small_divisor_valuation(pr, n) == (one - power).valuation(), (
                    lam.render(),
                    n,
                )


def classify_char2_quadratic(window=32):
    """The periodic point is lifted to the horizon 4·window."""
    horizon = 4 * window
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    report = classify_linearization_disc(f, window=window)
    assert report.level == LEVEL_EXACT
    assert report.disc_profile.v_sigma == 1
    assert (report.degree_open, report.degree_closed) == (1, 2)
    pp = report.periodic_point
    assert pp is not None and pp.kappa == 1
    assert pp.point.prec >= horizon
    assert pp.point.agrees_with(parse_series("T", F2, prec=horizon))
    assert pp.multiplier.agrees_with(parse_series("1+T", F2, prec=16))
    assert (ps_eval(f, pp.point) - pp.point).is_zero_as_known
    return report


def test_criterion_8():
    with criterion(8, "exact linearization disc with boundary fixed point"):
        classify_char2_quadratic()


def test_criterion_9():
    with criterion(9, "degree dichotomy and extended one-to-one radius"):
        cases = [("1+T", F2, 2), ("b+T", F4, 4), ("2+T", F3, 3)]
        for lam_lit, field, kp in cases:
            lam = parse_series(lam_lit, field)
            pr = mult_profile(lam)
            f = PowerSeriesMap({1: lam, kp: parse_series("1", field)})
            report = classify_linearization_disc(f)
            assert (report.degree_open, report.degree_closed) == (1, kp)
            # lowest degree above k': b_{k'} = 0 and the radius extends
            i0 = kp + pr.m * field.p
            f_ext = PowerSeriesMap({1: lam, i0: parse_series("1", field)})
            report_ext = classify_linearization_disc(f_ext)
            assert report_ext.level == LEVEL_EXTENDED
            g = solve_sfe(f_ext, 4 * i0)
            dp = disc_profile(pr, ps_gauge(f_ext))
            verdict = check_bkprime_zero_extension(g, dp)
            assert verdict.applicable and verdict.holds


def test_criterion_10(family_corpus):
    with criterion(10, "conjugacy residuals vanish inside certified discs"):
        rng = random.Random(404)
        horizon = 64
        for f, _ in family_corpus[:6]:
            field = f.field
            lam = f.multiplier
            g = solve_sfe(f, 120, window=96)
            dp = disc_profile(mult_profile(lam), ps_gauge(f))
            floor = dp.v_sigma
            base = int(floor) + 1 if floor == int(floor) else -(-floor // 1)
            base = int(base)
            for _ in range(20):
                e1 = base + rng.randrange(0, 4)
                e2 = e1 + rng.randrange(1, 5)
                c = rng.randrange(1, field.p)
                x = parse_series(f"T^{e1}+{c}*T^{e2}+O(T^{horizon + 40})", field)
                semi = semiconjugacy_residual(f, g, x, dp)
                full = full_conjugacy_residual(f, g, x, dp)
                assert semi.is_zero_as_known and not semi.exact
                assert full.is_zero_as_known and not full.exact
                assert semi.prec >= horizon * semi.ram


def test_criterion_11():
    with criterion(11, "results stable under doubled working precision"):
        baseline = divergence_values_p2(window=32)
        doubled = divergence_values_p2(window=64)
        assert baseline == doubled == [-2, -6, -16, -40, -96, -224, -512, -1152]
        r1 = classify_char2_quadratic(window=32)
        r2 = classify_char2_quadratic(window=64)
        assert r1.level == r2.level
        assert r1.disc.v_radius == r2.disc.v_radius
        assert (r1.degree_open, r1.degree_closed) == (r2.degree_open, r2.degree_closed)
        assert r2.periodic_point.point.agrees_with(r1.periodic_point.point)
        rng = random.Random(1111)
        for p in (2, 3, 5):
            for r in (1, 2):
                field = FieldParams(p, r)
                for ram in (1, 2):
                    for family in (True, False):
                        f = tower_corpus_map(field, ram, family, rng)
                        assert_stable_under_doubling(f, D=24, window=16)


def tower_corpus_map(field, ram, family, rng):
    """lambda = unit + unit*U^j and three monomial-like terms, over
    F_{p^r}((U)) with U^ram = T; the degrees are multiples of p when
    ``family``."""
    p, r = field.p, field.r

    def unit():
        return [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(r - 1)]

    j = rng.randrange(1, 3)
    lam_rows = [unit()] + [[0] * r] * (j - 1) + [unit()]
    coeffs = {1: LaurentSeries(field, ram, 0, lam_rows, j + 1, exact=True)}
    degrees = range(p, 4 * p + 1, p) if family else range(2, 13)
    for d in rng.sample(list(degrees), 3):
        lead = rng.randrange(0, 2 * ram)
        rows = [unit(), [rng.randrange(p) for _ in range(r)]]
        coeffs[d] = LaurentSeries(field, ram, lead, rows, lead + 2, exact=True)
    return PowerSeriesMap(coeffs)


def assert_stable_under_doubling(f, D, window):
    """Solving at 2·window changes no known digit: every b_k agrees on the
    common horizon, keeps its zero kind when exact zero, keeps its lead
    when nonzero, and loses no known digit (prec - lead)."""
    g1 = solve_sfe(f, D, window=window)
    g2 = solve_sfe(f, D, window=2 * window)
    for k in range(1, D + 1):
        a, b = g1.coeffs[k], g2.coeffs[k]
        assert b.agrees_with(a), k
        if g1.zero_kind[k] == STRUCTURAL:
            assert g2.zero_kind[k] == STRUCTURAL, k
        if g1.zero_kind[k] == NONZERO:
            assert g2.zero_kind[k] == NONZERO and b.lead == a.lead, k
            assert b.prec - b.lead >= a.prec - a.lead, k
