"""Multiplier resonance data: m, k', closed-form small divisors, the
product formula, resonance counting, and disc radii."""

import random
from fractions import Fraction

import pytest

import lindisc.multiplier
from lindisc import (
    FieldParams,
    LaurentSeries,
    PowerSeriesMap,
    count_resonant,
    disc_profile,
    mult_profile,
    parse_series,
    product_small_divisors,
    ps_gauge,
    small_divisor_valuation,
)
from lindisc.errors import CertificateError, HypothesisError, RootOfUnityError
from lindisc.field import BUILTIN_MODULI
from lindisc.multiplier import lemma_bound, p_split, product_small_divisor_sums
from oracles import small_divisor_direct

F2 = FieldParams(2)
F3 = FieldParams(3)
F4 = FieldParams(2, 2)
F5 = FieldParams(5)


def test_profile_examples():
    pr = mult_profile(parse_series("1+T", F2))
    assert (pr.m, pr.v_m, pr.k_prime) == (1, 1, 2)
    pr = mult_profile(parse_series("b+T", F4))
    assert (pr.m, pr.v_m, pr.k_prime) == (3, 1, 4)
    pr = mult_profile(parse_series("2+T", F3))
    assert (pr.m, pr.v_m, pr.k_prime) == (2, 1, 3)


def _k_prime_scan(p, m):
    """k' as the least k in p, 2p, ..., mp with m | k - 1, by scanning."""
    return next(k for k in range(p, m * p + 1, p) if (k - 1) % m == 0)


def _random_multipliers(rng, field, e, count):
    """Unit multipliers c_0 + Σ c_j V^j over ``field`` with ramification e
    (V = T, or U = T^(1/e)): one to three tail terms, and every other
    literal known only to O(V^n)."""
    var = "T" if e == 1 else "U"
    units = [c for c in field.elements() if not c.is_zero]
    for i in range(count):
        terms = [f"({rng.choice(units)})"]
        exps = sorted(rng.sample(range(1, 6), rng.randrange(1, 4)))
        terms += [f"({rng.choice(units)})*{var}^{j}" for j in exps]
        if i % 2:
            terms.append(f"O({var}^{exps[-1] + rng.randrange(1, 4)})")
        yield parse_series("+".join(terms), field, ram=e)


def test_profile_invariants(monkeypatch):
    """Over every built-in field and e in {1, 2, 3}: m, v_m and k' agree
    with v(1 - λ^m) by series arithmetic and with the k' scan, and
    mult_profile forms no power of λ."""
    rng = random.Random(31)
    lams = [
        lam
        for p, r in sorted(BUILTIN_MODULI)
        for e in (1, 2, 3)
        for lam in _random_multipliers(rng, FieldParams(p, r), e, 2)
    ]
    powers = []
    pow_ = LaurentSeries.__pow__
    monkeypatch.setattr(LaurentSeries, "__pow__", lambda s, n: powers.append(n) or pow_(s, n))
    profiles = [mult_profile(lam) for lam in lams]
    assert powers == []
    for lam, pr in zip(lams, profiles):
        field = lam.field
        assert pr.m % field.p != 0
        assert (field.q - 1) % pr.m == 0
        assert lam.residue() ** pr.m == field.one()
        assert pr.v_m > 0
        assert pr.v_m == small_divisor_direct(lam, pr.m), lam.render()
        assert pr.k_prime == _k_prime_scan(field.p, pr.m)
        assert pr.k_prime % field.p == 0
        assert (pr.k_prime - 1) % pr.m == 0
        assert pr.k_prime - 1 < pr.m * field.p
    assert powers  # the recorder sees the oracle's powers


def test_a_zero_multiplier_is_named_zero():
    """A multiplier zero as known, exactly or to precision, has no
    valuation to print: the error says so."""
    for zero in (LaurentSeries.zero(F2, 1, 0, exact=True), LaurentSeries.zero(F2, 1, 8)):
        with pytest.raises(HypothesisError, match="got zero$"):
            mult_profile(zero)
        with pytest.raises(HypothesisError, match="got zero$"):
            PowerSeriesMap({1: zero})
    with pytest.raises(HypothesisError, match="got v = 1$"):
        mult_profile(parse_series("T", F2))


def test_root_of_unity_screening_tri_state():
    with pytest.raises(RootOfUnityError) as exc:
        mult_profile(parse_series("1", F2))
    assert not exc.value.undetermined
    with pytest.raises(RootOfUnityError) as exc:
        mult_profile(parse_series("b", F4))
    assert not exc.value.undetermined
    with pytest.raises(RootOfUnityError) as exc:
        mult_profile(parse_series("1+O(T^8)", F2))
    assert exc.value.undetermined
    # the same screen in ramified towers and residue extensions
    for literal, field, e, undetermined in [
        ("b+1", F4, 2, False),
        ("2*b+1", FieldParams(3, 2), 3, False),
        ("3+O(U^5)", F5, 2, True),
        ("(b^2+1)+O(T^3)", FieldParams(2, 3), 3, True),
    ]:
        with pytest.raises(RootOfUnityError) as exc:
            mult_profile(parse_series(literal, field, ram=e))
        assert exc.value.undetermined == undetermined, literal
    # a known non-constant part settles the question
    mult_profile(parse_series("1+T+O(T^8)", F2))
    assert mult_profile(parse_series("3+U^4+O(U^5)", F5, ram=3)).v_m == Fraction(4, 3)


def test_non_unit_multiplier_rejected():
    with pytest.raises(HypothesisError):
        mult_profile(parse_series("T", F2))


def test_p_split_against_brute_force():
    for p in (2, 3, 5, 7, 65521):
        for n in list(range(1, 300)) + [p**4, 3 * p**5, 65521**2 * 7]:
            s, u = p_split(n, p)
            assert n == p**s * u and u % p
            assert max(t for t in range(40) if n % p**t == 0) == s
    for n in (0, -4):
        with pytest.raises(HypothesisError):
            p_split(n, 2)


def test_small_divisor_closed_form_examples():
    pr = mult_profile(parse_series("1+T", F2))
    assert small_divisor_valuation(pr, 6) == 2
    assert small_divisor_valuation(pr, 8) == 8
    pr4 = mult_profile(parse_series("b+T", F4))
    assert small_divisor_valuation(pr4, 5) == 0
    assert small_divisor_valuation(pr4, 3) == 1
    assert small_divisor_valuation(pr4, 12) == 4


def test_small_divisor_direct_examples():
    lam = parse_series("1+T", F2)
    assert small_divisor_direct(lam, 2) == 2  # Frobenius: (1+T)^2 = 1+T^2
    assert small_divisor_direct(lam, 1) == 1
    assert small_divisor_direct(parse_series("b+T", F4), 3) == 1


def test_closed_form_matches_direct_oracle():
    profiles = [
        parse_series("1+T", F2),
        parse_series("1+T^3", F2),
        parse_series("b+T", F4),
        parse_series("2+T", F3),
        parse_series("1+2*T^2", F3),
        parse_series("2+T", F5),
        # tails of several terms, in towers and residue extensions
        parse_series("1+T+T^3", F2),
        parse_series("b+T^2+b*T^3", F4),
        parse_series("2+U+2*U^3", F3, ram=2),
        parse_series("(b+1)+b*U^2+U^5", FieldParams(2, 3), ram=3),
        parse_series("3+2*U^2+U^4", F5, ram=3),
    ]
    for lam in profiles:
        pr = mult_profile(lam)
        for n in range(1, 200):
            assert small_divisor_valuation(pr, n) == small_divisor_direct(lam, n), (
                lam.render(),
                n,
            )


def test_product_formula_examples():
    pr2 = mult_profile(parse_series("1+T", F2))
    assert product_small_divisors(pr2, 3) == 16
    assert product_small_divisors(pr2, 1) == 2
    pr3 = mult_profile(parse_series("1+T", F3))
    assert product_small_divisors(pr3, 2) == 15


def test_product_formula_matches_direct_series():
    for field in (F2, F3):
        lam = parse_series("1+T", field)
        pr = mult_profile(lam)
        p = field.p
        for N in range(1, 4):
            direct = sum(
                small_divisor_direct(lam, i * p)
                for i in range(1, p ** (N - 1) + 1)
            )
            assert product_small_divisors(pr, N) == direct


def test_product_formula_sums_the_closed_form_terms(monkeypatch):
    """The term sum goes through small_divisor_valuation; one term off
    breaks its agreement with the closed form."""
    pr = mult_profile(parse_series("1+T", F3))
    true_term = lindisc.multiplier.small_divisor_valuation
    monkeypatch.setattr(
        lindisc.multiplier,
        "small_divisor_valuation",
        lambda profile, n: true_term(profile, n) + (n == 6),
    )
    assert product_small_divisors(pr, 1) == 3
    with pytest.raises(CertificateError, match="N=2"):
        product_small_divisors(pr, 2)


def test_product_formula_reports_the_N_it_was_asked_for(monkeypatch):
    """A term off at i = 1 breaks the sum for every N.  The sum for N
    alone checks and reports that N; the running sums check each N in
    turn and stop at the first."""
    pr = mult_profile(parse_series("1+T", F3))
    true_term = lindisc.multiplier.small_divisor_valuation
    monkeypatch.setattr(
        lindisc.multiplier,
        "small_divisor_valuation",
        lambda profile, n: true_term(profile, n) + (n == 3),
    )
    for N in (1, 3):
        with pytest.raises(CertificateError, match=f"N={N}:"):
            product_small_divisors(pr, N)
    with pytest.raises(CertificateError, match="N=1:"):
        list(product_small_divisor_sums(pr, 3))


def test_product_formula_running_sums_equal_each_N():
    for field, lam in [(F2, "1+T"), (F3, "1+T"), (F5, "1+T^2")]:
        pr = mult_profile(parse_series(lam, field))
        assert list(product_small_divisor_sums(pr, 4)) == [
            product_small_divisors(pr, N) for N in range(1, 5)
        ]


def test_product_formula_requires_m_one():
    pr = mult_profile(parse_series("b+T", F4))
    with pytest.raises(HypothesisError):
        product_small_divisors(pr, 2)


def test_count_resonant_against_brute_force():
    for lam, field in [
        (parse_series("1+T", F2), F2),
        (parse_series("b+T", F4), F4),
        (parse_series("2+T", F3), F3),
        (parse_series("2+T^2", F5), F5),
    ]:
        pr = mult_profile(lam)
        p, m = field.p, pr.m
        for k in range(2, 10 * m * p + 1):
            brute = sum(
                1 for l in range(2, k + 1) if l % p == 0 and (l - 1) % m == 0
            )
            assert count_resonant(pr, k) == brute
        assert count_resonant(pr, pr.k_prime - 1) == 0
        assert count_resonant(pr, pr.k_prime) == 1
        assert count_resonant(pr, pr.k_prime + m * p) == 2
        # the Lemma bound drops by v_m at each resonant degree
        kp, v_m, A = pr.k_prime, pr.v_m, Fraction(-1, 3)
        assert lemma_bound(pr, A, kp) == (kp - 1) * A - v_m
        assert lemma_bound(pr, A, kp + m * p) == (kp + m * p - 1) * A - 2 * v_m


def test_disc_profile_examples():
    lam = parse_series("1+T", F2)
    f = PowerSeriesMap({1: lam, 2: parse_series("1", F2)})
    dp = disc_profile(mult_profile(lam), ps_gauge(f))
    assert dp.v_sigma == 1 and dp.v_rho == Fraction(1, 2)

    lam4 = parse_series("b+T", F4)
    f4 = PowerSeriesMap({1: lam4, 4: parse_series("1", F4)})
    dp4 = disc_profile(mult_profile(lam4), ps_gauge(f4))
    assert dp4.v_rho == Fraction(1, 6) and dp4.v_sigma == Fraction(1, 3)

    # gauge shift: a_2 = T moves both radii down by A = 1
    f_shift = PowerSeriesMap({1: lam, 2: parse_series("T", F2)})
    dp_s = disc_profile(mult_profile(lam), ps_gauge(f_shift))
    assert dp_s.v_sigma == 0 and dp_s.v_rho == Fraction(-1, 2)


def test_disc_profile_ordering_invariant():
    rng = random.Random(47)
    for _ in range(30):
        field = rng.choice([F2, F3, F5])
        lam = parse_series(f"1+T^{rng.randrange(1, 3)}", field)
        coeffs = {1: lam}
        for d in rng.sample(range(2, 10), 3):
            coeffs[d] = parse_series(f"T^{rng.randrange(-1, 3)}", field)
        f = PowerSeriesMap(coeffs)
        gauge = ps_gauge(f)
        dp = disc_profile(mult_profile(lam), gauge)
        assert dp.v_sigma > dp.v_rho > -gauge.A


def test_report_serialization():
    pr = mult_profile(parse_series("b+T", F4))
    rep = pr.report_dict()
    assert rep == {"p": 2, "r": 2, "m": 3, "v_m": "1/1", "k_prime": 4}
