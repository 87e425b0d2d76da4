"""Weierstrass data, linearization-disc certificates, boundary periodic
points, and the resonance-exponent maximization."""

import importlib.util
import math
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

import lindisc.cli as cli
import lindisc.discs as discs
import lindisc.field
import lindisc.schroder
from lindisc import (
    Conjugacy,
    FieldParams,
    LaurentSeries,
    PowerSeriesMap,
    classify_linearization_disc,
    degree_on_sigma,
    disc_profile,
    eval_table,
    find_periodic_point,
    make_disc,
    mult_profile,
    parse_series,
    ps_eval,
    ps_gauge,
    solve_sfe,
    verify_indifferent,
    weierstrass_data,
)
from lindisc.discs import LEVEL_EXACT, LEVEL_EXTENDED, LEVEL_GENERIC
from lindisc.errors import CertificateError, HypothesisError, PrecisionError
from oracles import (
    delta_exponent,
    find_periodic_point_per_element,
    weierstrass_data_per_k,
)

F2 = FieldParams(2)
F3 = FieldParams(3)
F4 = FieldParams(2, 2)


def _outcome(fn, *args):
    """fn(*args), or the type and text of the typed error it raised."""
    try:
        return fn(*args)
    except (HypothesisError, PrecisionError) as error:
        return type(error), str(error)


def _weierstrass(g, v_r, gauge=None):
    """``weierstrass_data`` of g, whose result or typed error must equal
    the per-k ``Fraction`` oracle's on g's series."""
    want = _outcome(weierstrass_data_per_k, g.coeffs, v_r, gauge, g.profile)
    assert _outcome(weierstrass_data, g, v_r, gauge) == want
    return weierstrass_data(g, v_r, gauge)


def _conjugacy(h, profile=None):
    """A conjugacy whose coefficients are the series of h, k = 1 .. D."""
    return Conjugacy(h, profile, "table", max(h))


def test_weierstrass_basic_example():
    h = {1: parse_series("1", F2), 2: parse_series("T^-1", F2)}
    wd = _weierstrass(_conjugacy(h), 1)
    assert (wd.v_s, wd.d, wd.d_prime) == (1, 2, 1)
    assert not wd.certified_tail


def test_weierstrass_data_of_an_empty_table_is_a_typed_error():
    """A table whose coefficients all vanish, exactly or to precision; a
    conjugacy of no degrees is rejected when it is made."""
    zero = LaurentSeries.zero(F2, 1, 0, exact=True)
    h = {1: zero, 2: LaurentSeries.zero(F2, 1, 5), 3: zero}
    with pytest.raises(HypothesisError, match="all coefficients vanish"):
        _weierstrass(_conjugacy(h), Fraction(1))
    with pytest.raises(HypothesisError, match="degree D must be >= 1, got 0"):
        Conjugacy({}, None, "table", 0)


def test_weierstrass_linear():
    wd = _weierstrass(_conjugacy({1: parse_series("1", F3)}), Fraction(5, 2))
    assert wd.d == wd.d_prime == 1


def test_weierstrass_tie_reports_both_minimizers():
    # v(c_1) + 1 = 1 and v(c_3) + 3 = 0 + 3·? pick v_r = 1/2: c_3 gives 3/2
    h = {
        1: parse_series("T", F2),
        2: parse_series("T", F2),
        3: parse_series("1", F2),
    }
    wd = _weierstrass(_conjugacy(h), 1)  # values: 2, 3, 3 -> min 2 at k=1
    assert (wd.d, wd.d_prime) == (1, 1)
    wd = _weierstrass(_conjugacy(h), Fraction(1, 2))  # 3/2, 2, 3/2 -> tie {1, 3}
    assert (wd.d, wd.d_prime) == (3, 1)


def test_weierstrass_precision_guard():
    h = {1: parse_series("T^4", F2), 2: LaurentSeries.zero(F2, 1, 2)}
    with pytest.raises(PrecisionError):
        _weierstrass(_conjugacy(h), 1)


def test_weierstrass_tail_certification():
    """The tail past D is the Lemma bound's: for λ = 1 + T over F_2 (m = 1,
    v_m = 1, k' = 2) it rises with the gauge A = 1 and falls with A = -4.
    With A = -1/2 it stays above a minimum of -9 over its first period
    but gains nothing per period: not certified either."""
    profile = mult_profile(parse_series("1+T", F2))
    h = {1: parse_series("1", F2), 2: parse_series("T", F2)}
    g = _conjugacy(h, profile)
    rising = types.SimpleNamespace(A=Fraction(1))
    wd = _weierstrass(g, 1, rising)
    assert wd.certified_tail
    falling = types.SimpleNamespace(A=Fraction(-4))
    wd = _weierstrass(g, 1, falling)
    assert not wd.certified_tail
    low = _conjugacy({1: parse_series("T^-10", F2), 2: parse_series("T^-10", F2)}, profile)
    wd = _weierstrass(low, 1, types.SimpleNamespace(A=Fraction(-1, 2)))
    assert wd.v_s == -9 and not wd.certified_tail


def _disc_pool_maps():
    """(job id, map, W) of every ``disc`` job of the ``disc-tower`` pool in
    ``bench/workloads.py``, parsed as the CLI parses it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    maps = []
    for _, jobs in sorted(workloads.pool("disc-tower").items()):
        for job_id, argv_tail, payload in jobs:
            if argv_tail == ["disc"]:
                f = cli._job_map(payload, cli._job_field(payload), 1, 32)
                maps.append((job_id, f, 32))
    return maps


def test_integer_weierstrass_reads_equal_the_oracle_on_the_disc_pool():
    """On every ``disc`` map of the ``disc-tower`` pool, solved as ``disc``
    solves it, the integer reads of the valuation table give the per-k
    ``Fraction`` oracle's data, or its typed error, at v_σ with the Lemma
    tail, at v_ρ and at seeded random radii with and without the tail."""
    rng = random.Random(20)
    seen = set()
    maps = _disc_pool_maps()
    assert len(maps) == 12 * 16
    for job_id, f, W in maps:
        g = solve_sfe(f, discs.default_degree(f, mult_profile(f.multiplier)), W)
        gauge = ps_gauge(f)
        dp = disc_profile(g.profile, gauge)
        radii = [(dp.v_sigma, gauge), (dp.v_rho, None)]
        for _ in range(3):
            v = Fraction(rng.randrange(-60, 61), rng.randrange(1, 13))
            radii.append((v, rng.choice([None, gauge])))
        for v, tail in radii:
            out = _outcome(weierstrass_data, g, v, tail)
            assert out == _outcome(weierstrass_data_per_k, g.coeffs, v, tail, g.profile), job_id
            seen.add(out[0] if isinstance(out, tuple) else out.certified_tail)
    assert seen == {True, False, PrecisionError}


@pytest.mark.parametrize(
    "field, lam, degree, ram",
    [(F2, "1+T", 4, 1), (F2, "1+T", 2, 1), (F3, "2+U", 9, 2), (F4, "b+T", 8, 1)],
)
def test_a_zero_to_precision_at_the_minimum_raises_as_the_oracle(field, lam, degree, ram):
    """A b_k planted as O(U^h) with h/e + k·v_r at the Weierstrass minimum
    raises the oracle's PrecisionError, naming the least such k; planted
    one digit higher it leaves the data as it was.  At v_ρ and at v_σ
    with the Lemma tail, in place of exact zeros of the solve."""
    f = _map(field, lam, {degree: "1"}, ram)
    g = solve_sfe(f, 4 * degree + 8)
    gauge = ps_gauge(f)
    dp = disc_profile(g.profile, gauge)
    planted = 0
    for v_r, tail in ((dp.v_rho, None), (dp.v_sigma, gauge)):
        data = _weierstrass(g, v_r, tail)
        # the exact zeros whose horizon h = e·(min − k·v_r) is an integer
        ks = [
            k
            for k in range(2, g.D + 1)
            if g.zero_kind[k] == lindisc.schroder.STRUCTURAL
            and ((data.v_s - k * v_r) * ram).denominator == 1
        ]
        planted += len(ks)
        h = {k: int((data.v_s - k * v_r) * ram) for k in ks}
        for k, later in zip(ks, ks[1:] + ks[:1]):
            zeros = {j: LaurentSeries.zero(field, ram, h[j]) for j in {k, later}}
            at = Conjugacy({**g.coeffs, **zeros}, g.profile, g.source, g.D)
            with pytest.raises(PrecisionError, match=f"^coefficient {min(k, later)} is zero"):
                _weierstrass(at, v_r, tail)
            above = {k: LaurentSeries.zero(field, ram, h[k] + 1)}
            above = Conjugacy({**g.coeffs, **above}, g.profile, g.source, g.D)
            assert _weierstrass(above, v_r, tail) == data
    assert planted >= 2


def test_an_uncertified_lemma_tail_raises_in_degree_on_sigma():
    """With a gauge A lowered by 8 the Lemma bound falls by 8 per degree,
    faster than k·v_σ rises: the tail past D is not certified, and
    ``degree_on_sigma`` raises CertificateError."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    g = solve_sfe(f, 16)
    gauge = ps_gauge(f)
    dp = disc_profile(g.profile, gauge)
    assert degree_on_sigma(g, dp, gauge) == (1, 2)
    falling = types.SimpleNamespace(A=gauge.A - 8)
    assert not _weierstrass(g, dp.v_sigma, falling).certified_tail
    with pytest.raises(CertificateError, match="sigma-disc tail bound failed to certify"):
        degree_on_sigma(g, dp, falling)


def test_degree_dichotomy_instances():
    cases = [
        ("1+T", F2, 2),  # (p, m) = (2, 1)
        ("b+T", F4, 4),  # (p, m) = (2, 3)
        ("2+T", F3, 3),  # (p, m) = (3, 2)
    ]
    for lam_lit, field, kp in cases:
        lam = parse_series(lam_lit, field)
        f = PowerSeriesMap({1: lam, kp: parse_series("1", field)})
        g = solve_sfe(f, 4 * kp + 8)
        gauge = ps_gauge(f)
        dp = disc_profile(g.profile, gauge)
        assert degree_on_sigma(g, dp, gauge) == (1, kp)


def test_degree_drops_when_lowest_degree_exceeds_k_prime():
    for lam_lit, field, kp in [("1+T", F2, 2), ("b+T", F4, 4), ("2+T", F3, 3)]:
        lam = parse_series(lam_lit, field)
        pr = mult_profile(lam)
        i0 = kp + pr.m * field.p
        f = PowerSeriesMap({1: lam, i0: parse_series("1", field)})
        g = solve_sfe(f, 4 * i0)
        gauge = ps_gauge(f)
        dp = disc_profile(pr, gauge)
        assert degree_on_sigma(g, dp, gauge) == (1, 1)


def test_classify_exact_char2_quadratic():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    report = classify_linearization_disc(f)
    assert report.level == LEVEL_EXACT
    assert report.disc.v_radius == 1
    assert report.disc.boundary == "open"
    assert report.disc.rationality == "rational-in-K"
    assert (report.degree_open, report.degree_closed) == (1, 2)
    pp = report.periodic_point
    assert pp is not None and pp.kappa == 1
    assert pp.point.agrees_with(parse_series("T", F2, prec=100))
    assert pp.multiplier.agrees_with(parse_series("1+T", F2, prec=16))


def test_classify_extended_rho():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 4: parse_series("1", F2)})
    report = classify_linearization_disc(f)
    assert report.level == LEVEL_EXTENDED
    assert report.disc.v_radius == Fraction(1, 2)
    assert report.degree_closed == 1


def test_extension_check_reads_zero_to_precision_coefficients():
    """``check_bkprime_zero_extension`` reads its verdict off
    ``weierstrass_data`` at v_ρ.  A coefficient known only to be O(T^h)
    whose horizon could reach the minimum v_ρ raises PrecisionError
    instead of being skipped; one whose horizon lies above the minimum
    leaves the verdict as it was."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 4: parse_series("1", F2)})
    g = solve_sfe(f, 40)
    dp = disc_profile(g.profile, ps_gauge(f))
    assert dp.v_rho == Fraction(1, 2) and g.coeffs[2].is_exact_zero

    def planted(k, h):
        coeffs = {**g.coeffs, k: LaurentSeries.zero(F2, 1, h)}
        return Conjugacy(coeffs, g.profile, g.source, g.D)

    # h + k·v_ρ > v_ρ
    for k, h in [(3, 0), (5, -1)]:
        assert discs.check_bkprime_zero_extension(planted(k, h), dp).holds
    # h + k·v_ρ <= v_ρ
    for k, h in [(3, -1), (5, -2)]:
        with pytest.raises(PrecisionError):
            discs.check_bkprime_zero_extension(planted(k, h), dp)


def test_classify_generic_sigma():
    # v(a_2) = 1 > (k'-1)·A = 0 with witness at degree 4: bound strict at k'
    f = PowerSeriesMap(
        {1: parse_series("1+T", F2), 2: parse_series("T", F2), 4: parse_series("1", F2)}
    )
    report = classify_linearization_disc(f)
    assert report.level == LEVEL_GENERIC
    assert report.degree_closed == 1


@pytest.mark.parametrize(
    "field, lam, degree", [(F2, "1+T", 2), (F2, "1+T", 4), (F4, "b+T", 4), (F3, "2+T", 3)]
)
def test_classify_profiles_lambda_once_by_its_solve(monkeypatch, field, lam, degree):
    """Given D, ``classify_linearization_disc`` reads λ's profile from its
    own solve: one ``mult_profile`` call, the solve's.  Without D the
    default degree needs one more, before the solve."""
    calls = []
    real = mult_profile

    def counted(lam_):
        calls.append(lam_)
        return real(lam_)

    for module in (discs, lindisc.schroder):
        monkeypatch.setattr(module, "mult_profile", counted)
    f = PowerSeriesMap({1: parse_series(lam, field), degree: parse_series("1", field)})
    report = classify_linearization_disc(f, D=discs.default_degree(f, real(f.multiplier)))
    assert len(calls) == 1
    assert report.profile == real(f.multiplier)
    calls.clear()
    assert classify_linearization_disc(f).report_dict() == report.report_dict()
    assert len(calls) == 2


@pytest.mark.parametrize("window", [0, -1])
def test_classify_rejects_a_window_below_one(window):
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    for D in (None, 8):
        with pytest.raises(HypothesisError, match=f"window must be >= 1, got {window}"):
            classify_linearization_disc(f, D, window)


def test_classify_solves_at_the_smallest_window():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    report = classify_linearization_disc(f, window=1)
    assert report.level == LEVEL_EXACT and report.periodic_point.kappa == 1
    assert report.periodic_point.point.prec == 5  # the horizon 4·window, past T


def test_classify_rejects_non_family_maps():
    f = PowerSeriesMap({1: parse_series("1+T", F3), 2: parse_series("1", F3)})
    with pytest.raises(HypothesisError):
        classify_linearization_disc(f)


def test_classify_exact_in_extension_tower():
    lam = parse_series("b+T", F4)
    f = PowerSeriesMap({1: lam, 4: parse_series("1", F4)})
    report = classify_linearization_disc(f)
    assert report.level == LEVEL_EXACT
    assert report.disc.rationality == "rational-in-extension(3)"
    pp = report.periodic_point
    assert pp is not None
    assert pp.tower == (2, 3)
    # family-F multiplier along the orbit is λ^κ exactly
    lam_tower = lam.ramify(3)
    assert pp.multiplier.agrees_with(lam_tower**pp.kappa)


def test_periodic_point_fixed_point_algebra():
    """Fixed points of λx + a x^{k'} solve x^{k'-1} = (1-λ)/a."""
    lam = parse_series("2+T", F3)
    f = PowerSeriesMap({1: lam, 3: parse_series("1", F3)})
    report = classify_linearization_disc(f)
    pp = report.periodic_point
    assert pp is not None
    fe = f
    if pp.point.ram != 1 or pp.point.field != F3:
        from lindisc.discs import _embed_map

        fe = _embed_map(f, pp.point.field, pp.point.ram)
    orbit = pp.point
    for _ in range(pp.kappa):
        orbit = ps_eval(fe, orbit)
    assert (orbit - pp.point).is_zero_as_known


def test_periodic_point_not_found_for_linear_map():
    f = PowerSeriesMap({1: parse_series("1+T", F2)})
    sphere = make_disc(Fraction(1), "closed")
    assert find_periodic_point(f, 3, sphere) is None


def test_search_rejects_a_horizon_below_one():
    """A horizon below 1 is a HypothesisError, not a point zero to
    precision (O(T^1) at horizon 0) certified periodic; horizon 1 still
    lifts T to one digit."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    sphere = make_disc(Fraction(1), "closed")
    for horizon in (0, -1):
        with pytest.raises(HypothesisError, match=f"horizon must be >= 1, got {horizon}"):
            find_periodic_point(f, 2, sphere, horizon=horizon)
    assert find_periodic_point(f, 2, sphere, horizon=1).point.render() == "T + O(T^2)"


@pytest.mark.parametrize("horizon", [8, 24, 40, 128])
def test_a_newton_lift_keeps_the_search_horizon(horizon):
    """A root that needs Newton steps is lifted to the search horizon, not
    to the horizon of the map's exact derivative: over F_2 the fixed point
    T + T^4 + T^7 + … of f = (1+T)x + (1+T^3)x^2, whose derivative table
    is {0: 1 + T} known to 16 digits, is known to O(T^(horizon+1)).  Its
    multiplier is λ itself, to λ's own 16 digits."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1+T^3", F2)})
    pt = find_periodic_point(f, 1, make_disc(Fraction(1), "closed"), horizon=horizon)
    assert pt.point.prec == horizon + 1
    terms = "+".join(f"T^{k}" for k in range(1, horizon + 1, 3))
    assert pt.point.agrees_with(parse_series(f"{terms}+O(T^{horizon + 1})", F2))
    assert (ps_eval(f, pt.point) - pt.point).is_zero_as_known
    assert pt.multiplier == f.multiplier and pt.multiplier.prec == f.multiplier.prec == 16


@pytest.mark.parametrize("horizon", [8, 24, 40])
def test_a_newton_lift_through_a_non_constant_derivative_keeps_the_search_horizon(horizon):
    """Over F_3, f = (1+T)x + (1+T)x^2 has degree 2 prime to p, so on the
    sphere v = 1 the lifted polynomial u + (1+T)u^2 has the derivative
    table {0: 1, 1: 2 + 2T}, and its residue root u = 2 takes Newton
    steps.  The fixed point −T/(1+T) = 2T + T^2 + 2T^3 + … is known to
    O(T^(horizon+1)), its multiplier 1 − T to the same horizon, and both
    equal the per-element oracle's to the byte."""
    f = PowerSeriesMap({1: parse_series("1+T", F3), 2: parse_series("1+T", F3)})
    sphere = make_disc(Fraction(1), "closed")
    pt = find_periodic_point(f, 1, sphere, horizon=horizon)
    terms = "+".join(f"{2 if k % 2 else 1}*T^{k}" for k in range(1, horizon + 1))
    want = parse_series(f"{terms}+O(T^{horizon + 1})", F3)
    assert (pt.point.lead, pt.point.prec) == (1, horizon + 1)
    assert pt.point.render() == want.render()
    assert pt.multiplier.render() == f"1 + 2*T + O(T^{horizon + 1})"
    oracle = find_periodic_point_per_element(f, 1, sphere, horizon=horizon)
    for got, ref in ((pt.point, oracle.point), (pt.multiplier, oracle.multiplier)):
        assert (got.lead, got.prec, got.exact) == (ref.lead, ref.prec, ref.exact)
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()


def test_search_rejects_a_lift_that_is_not_periodic(monkeypatch):
    """A Newton lift that is not a root of G is caught by the walk along
    its orbit: f(x) - x = T^3 + ... at x = T + T^2."""
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    one_t = LaurentSeries.monomial(F2, 1)
    monkeypatch.setattr(discs, "newton_root", lambda table, dtable, y: y + one_t)
    with pytest.raises(CertificateError, match="not 1-periodic"):
        find_periodic_point(f, 1, make_disc(Fraction(1), "closed"))


def test_verify_indifferent_detects_wrong_point():
    f = PowerSeriesMap({1: parse_series("1+T", F2), 2: parse_series("1", F2)})
    good = parse_series("T+O(T^40)", F2)
    residual, mult = verify_indifferent(f, good, 1)
    assert residual.is_zero_as_known
    assert mult.lead == 0
    bad = parse_series("T+T^2+O(T^40)", F2)
    residual, _ = verify_indifferent(f, bad, 1)
    assert not residual.is_zero_as_known
    assert residual.valuation() > 0


def test_delta_maximized_exactly_at_k_prime():
    for lam_lit, field in [("1+T", F2), ("b+T", F4), ("2+T", F3), ("1+T", F3)]:
        pr = mult_profile(parse_series(lam_lit, field))
        kp, step = pr.k_prime, pr.m * field.p
        values = {k: delta_exponent(pr, k) for k in range(2, kp + 10 * step + 1)}
        peak = max(values.values())
        assert [k for k, v in values.items() if v == peak] == [kp]


def test_disc_rationality_bookkeeping():
    assert make_disc(Fraction(3), "open").rationality == "rational-in-K"
    assert make_disc(Fraction(1, 3), "closed").rationality == "rational-in-extension(3)"
    # a zero has no radius valuation, and a radius is a Fraction only
    for v_radius in (LaurentSeries.zero(F2, 1, 4).valuation(), None, 1):
        with pytest.raises(HypothesisError):
            make_disc(v_radius, "open")


# -- the batched tower search against the per-element oracle -----------------


def _map(field, lam, terms, ram=1):
    coeffs = {1: parse_series(lam, field, ram)}
    coeffs.update({d: parse_series(a, field, ram) for d, a in terms.items()})
    return PowerSeriesMap(coeffs)


def _random_series(rng, field, lead, n):
    rows = [[rng.randrange(field.p) for _ in range(field.r)] for _ in range(n)]
    rows[0][0] = rows[0][0] or 1
    return LaurentSeries(field, 1, lead, rows, lead + n, exact=True)


def _random_search_cases():
    """Per (p, r, e): a map near the identity on the unit sphere, whose
    residue polynomial is a random one with unit coefficients (Hensel
    lifting applies), and a random map on a sphere of positive radius."""
    cases = []
    for p in (2, 3, 5, 7):
        for r in (1, 2):
            field = FieldParams(p, r)
            for e in (1, 2, 3):
                rng = random.Random(1000 * p + 10 * r + e)
                one = LaurentSeries.constant(field, 1)
                for unit_sphere in (True, False):
                    if unit_sphere:
                        lam, v, leads = one + _random_series(rng, field, 1, 2), 0, [0]
                    else:
                        lam = _random_series(rng, field, 0, 2)
                        v, leads = Fraction(rng.choice([1, e]), e), [-1, 0, 1]
                    coeffs = {1: lam}
                    for d in rng.sample([2, 3, p, p + 1], 2):
                        coeffs[d] = _random_series(rng, field, rng.choice(leads), 2)
                    kappa_max = 2 if p <= 3 else 1
                    case_id = f"p{p}r{r}e{e}-{'unit' if unit_sphere else 'v' + str(v)}"
                    cases.append((case_id, PowerSeriesMap(coeffs), v, e, kappa_max))
    return cases


def _sigma_sphere_case(case_id, field, lam, kp, kappa_max, ram=1):
    """λx + x^{k'} on the boundary of its σ-disc, as classification searches it."""
    f = _map(field, lam, {kp: "1"}, ram)
    dp = disc_profile(mult_profile(f.multiplier), ps_gauge(f))
    return (case_id, f, dp.v_sigma, math.lcm(dp.v_sigma.denominator, ram), kappa_max)


SEARCH_CASES = _random_search_cases() + [
    # u(u^3 + u + 1): the residue root lies in F_8 only
    ("root-only-in-r3", _map(F2, "1+T", {2: "1", 4: "T^-2"}), 1, 1, 1),
    # u(u^4 + u + 1): the residue root lies in F_16 only
    ("root-only-in-r4", _map(F2, "1+T", {2: "1", 5: "T^-3"}), 1, 2, 1),
    # u(u^5 + u^2 + 1): no nonzero residue root in F_{2^r}, r <= 4
    ("no-residue-root", _map(F2, "1+T", {3: "T^-1", 6: "T^-4"}), 1, 1, 2),
    ("linear-map", _map(F3, "2+T", {}), 1, 1, 3),
    # G = T^2 u(u+1) over F_7: the root 6 is the last of the first block of 7
    ("root-at-block-end", _map(FieldParams(7), "1+T", {2: "1"}), 1, 1, 1),
    # G = T^2 u(u-1)^2(u-2) over F_3: the double root 1 is skipped, 2 lifts
    ("double-root-skipped", _map(F3, "1+T", {2: "2", 3: "2*T^-1", 4: "T^-2"}), 1, 1, 1),
    # G = T^2 u(u-1)(u-2) + T^3 u(u-2) over F_5: G' has valuation 2 at the
    # simple root 1, so it lifts only as a root of G/T^2, to u = 1 - T
    # after a Newton step
    ("simple-root-fails", _map(FieldParams(5), "1+2*T+3*T^2", {2: "2+T", 3: "T^-1"}), 1, 1, 1),
    _sigma_sphere_case("sigma-f5-k2", FieldParams(5), "2+3*T", 5, 2),
    _sigma_sphere_case("sigma-f9", FieldParams(3, 2), "b+T", 9, 3),
    # a map over F_3((T^(1/2))) with v_σ = 1/4, searched at e = 4
    _sigma_sphere_case("sigma-f3-ram2", F3, "2+U", 3, 2, ram=2),
]


def _search_result(pp):
    if pp is None:
        return None
    return pp.point.render(), pp.kappa, pp.multiplier.render(), pp.tower


def _check_against_oracle(case):
    _, f, v, e, kappa_max = case
    sphere = make_disc(Fraction(v), "closed")
    got = find_periodic_point(f, kappa_max, sphere, e=e, horizon=24)
    want = find_periodic_point_per_element(f, kappa_max, sphere, e=e, horizon=24)
    assert _search_result(got) == _search_result(want)
    return got


@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c[0])
def test_tower_search_equals_per_element_oracle(case):
    _check_against_oracle(case)


@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c[0])
def test_tower_search_equals_oracle_across_small_blocks(case, monkeypatch):
    """Blocks of 7 elements put roots past a block boundary."""
    monkeypatch.setattr(lindisc.field, "ELEMENT_BLOCK", 7)
    _check_against_oracle(case)


def test_designed_tower_search_cases_land_where_built():
    cases = {c[0]: c for c in SEARCH_CASES}
    assert _check_against_oracle(cases["root-only-in-r3"]).tower == (3, 1)
    assert _check_against_oracle(cases["root-only-in-r4"]).tower == (4, 2)
    for name in ("no-residue-root", "linear-map"):
        assert _check_against_oracle(cases[name]) is None
    for name, root in [
        ("double-root-skipped", 2),
        ("simple-root-fails", 1),
        ("root-at-block-end", 6),
    ]:
        pp = _check_against_oracle(cases[name])
        assert pp.tower == (1, 1)
        assert pp.point.coefficient(1) == pp.point.field.element(root)
    pp = _check_against_oracle(cases["simple-root-fails"])
    assert pp.point.render() == "T + 4*T^2 + O(T^25)"
    pp = _check_against_oracle(cases["sigma-f3-ram2"])
    assert (pp.tower, pp.kappa) == ((2, 4), 2)


@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c[0])
def test_a_search_embeds_the_map_only_for_the_verified_field(case, monkeypatch):
    """f enters its own field once per search, and another tower field
    only when that field's lifted root is verified: at most two
    ``_embed_map`` calls, the second into the point's field.  The tower
    fields themselves are built once per process."""
    _, f, v, e, kappa_max = case
    fields = []
    real = discs._embed_map

    def counted(g, field_, ram):
        fields.append(field_)
        return real(g, field_, ram)

    monkeypatch.setattr(discs, "_embed_map", counted)
    pp = find_periodic_point(f, kappa_max, make_disc(Fraction(v), "closed"), e=e, horizon=24)
    verified = [] if pp is None or pp.point.field == f.field else [pp.point.field]
    assert fields == [f.field] + verified
    towers = discs._tower_fields(f.field)
    assert towers is discs._tower_fields(FieldParams(f.field.p, f.field.r, f.field.modulus))
    assert isinstance(towers, tuple) and towers[0] == f.field


@pytest.mark.parametrize(
    "name",
    ["p3r1e1-v1", "p3r2e1-v1", "p3r2e2-v1/2", "p7r2e2-v1", "simple-root-fails"],
)
def test_roots_needing_newton_steps_lift_to_indifferent_points(name):
    """On a sphere of positive radius G's coefficients all have positive
    valuation; the search lifts G/T^μ, so these simple residue roots,
    which need Newton steps, lift to verified periodic points."""
    _, f, v, e, kappa_max = {c[0]: c for c in SEARCH_CASES}[name]
    pp = find_periodic_point(f, kappa_max, make_disc(Fraction(v), "closed"), e=e, horizon=24)
    assert pp is not None
    fe = discs._embed_map(f, pp.point.field, pp.point.ram)
    residual, mult = verify_indifferent(fe, pp.point, pp.kappa)
    assert residual.is_zero_as_known
    assert mult.lead == 0


@pytest.mark.parametrize("field", [FieldParams(3, 2), FieldParams(2, 4), FieldParams(5)], ids=str)
def test_block_evaluation_equals_horner_on_elements(field):
    """``_eval_rows`` gives the value of a sparse residue polynomial, not
    only its zeros, at every element."""
    rng = random.Random(field.q)
    elements = list(field.elements())
    for _ in range(5):
        poly = {}
        for d in rng.sample(range(12), 4):
            c = field.element([rng.randrange(field.p) for _ in range(field.r)])
            poly[d] = c or field.one()
        constants = {d: LaurentSeries.constant(field, c) for d, c in poly.items()}
        got = discs._eval_rows(
            field, discs._residue_rows(field, constants), field.element_rows(0, field.q)
        )
        want = [eval_table(poly, x).coeffs for x in elements]
        assert [tuple(int(c) for c in row) for row in got] == want
