"""Reference implementations and helpers that only tests run.

Each reference implementation is the straightforward form of a
computation the package does faster; tests require the package's
results to equal them exactly.  The helpers at the end
(``delta_exponent``, ``ps_iterate``, ``small_divisor_valuation`` and
the conjugacy residuals with their point inversion) are formulas the
package itself has no use for: ``disc`` certifies g∘f = λ·g from the
valuation table of g, and the residuals check it at sample points.
"""

import math
from fractions import Fraction

import numpy as np

import lindisc.discs as discs
import lindisc.schroder
from lindisc._dense import _INF_CUT, INF, DensePoly, _clamp
from lindisc.discs import (
    PeriodicPoint,
    WeierstrassData,
    _embed_map,
    _tower_fields,
    verify_indifferent,
)
from lindisc.errors import CertificateError, HypothesisError, PrecisionError
from lindisc.field import p_split
from lindisc.laurent import LaurentSeries, _any, _convolve
from lindisc.multiplier import count_resonant, mult_profile, small_divisor_leads
from lindisc.powerseries import (
    _table_derivative,
    _table_mul,
    eval_table,
    newton_root,
    ps_eval,
)
from lindisc.schroder import (
    BoundReport,
    Conjugacy,
    _p_plus_1_shape,
    _powers,
    _rows,
    _small_divisors,
)


def binomial_digits(n, k, p):
    """C(n, k) mod p for ints by Lucas' theorem, one base-p digit at a
    time: the per-term oracles' own binomial, apart from the package's
    array form (``powerseries._lucas``)."""
    if k < 0 or k > n:
        return 0
    result = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        num = den = 1
        for t in range(kd):
            num = num * (nd - t) % p
            den = den * (t + 1) % p
        result = result * num * pow(den, p - 2, p) % p
        n //= p
        k //= p
    return result


def horizon(series):
    """The horizon a series justifies: its ``prec``, or no bound at all
    when it is exact."""
    return math.inf if series.exact else series.prec


def exact_powers(x):
    """The exact power table n -> x^n of a series, each power formed
    once, as x^(n-1)·x, when first asked for."""
    table = [LaurentSeries.constant(x.field, 1, x.ram), x]

    def power(n):
        while len(table) <= n:
            table.append(table[-1] * x)
        return table[n]

    return power


def pow_square_multiply(x, n):
    """x^n by square-and-multiply alone from the first factor, as
    ``FieldParams.pow_rows``, for every n >= 1 (x^0 the exact 1 at x's
    horizon, n < 0 as (1/x)^|n|): ``LaurentSeries.__pow__`` without its
    Frobenius split, which it must equal in lead, horizon, exactness and
    bytes."""
    if n < 0:
        return pow_square_multiply(x.inverse(), -n)
    if n == 0:
        return LaurentSeries.constant(x.field, 1, x.ram, prec=x.prec)
    result, base = None, x
    while n:
        if n & 1:
            result = base if result is None else result * base
        base = base * base
        n >>= 1
    return result


def over_small_divisor(s, lam_power, profile, k, window, low=1):
    """s / (λ^low − λ^k), the small divisor λ^low(1 − λ^{k-low}) formed
    exactly from the exact power table ``lam_power`` of λ and inverted to
    ``window`` digits: the quotient that ``schroder._small_divisors``
    tabulates.  Its valuation is checked against the closed form
    v(1 − λ^{k-low})."""
    div = lam_power(low) - lam_power(k)
    if div.is_zero_as_known:
        raise PrecisionError(f"divisor 1 - lambda^{k-low} vanished; root of unity?")
    expected = small_divisor_valuation(profile, k - low)
    if Fraction(div.lead, div.ram) != expected:
        raise CertificateError(
            f"divisor valuation {Fraction(div.lead, div.ram)} != closed form "
            f"{expected} at k = {k}"
        )
    div = LaurentSeries(div.field, div.ram, div.lead, div.coeffs[:window], div.lead + window)
    return s * div.inverse()


def lam_minus_power_divisors(profile, ks, window):
    """k -> 1/(λ − λ^k) = λ^(−1)·1/(1 − λ^(k−1)) to ``window`` digits for
    every k >= 2 in ``ks``: each entry n = k − 1 of
    ``schroder._small_divisors`` times the table's λ^(−1), one series
    product per entry."""
    table = _small_divisors(profile, [k - 1 for k in ks], window)
    lam = profile.lam
    lam_inverse = LaurentSeries(lam.field, lam.ram, 0, table.lam_inverse, window)
    return {k: table[k - 1] * lam_inverse for k in ks}


def solve_specialized_per_term(f, Jmax, window=32):
    """The p+1 recurrence of ``solve_specialized_p_plus_1`` with every
    term formed as ``LaurentSeries``: b_i·C(ip+1, j-i)·λ^e·a^n, each
    product and sum normalised by ``laurent``'s own precision rules."""
    a = _p_plus_1_shape(f)
    lam = f.multiplier
    profile = mult_profile(lam)
    field_, ram = f.field, f.ram
    p = field_.p
    D = Jmax * p + 1
    one = LaurentSeries.constant(field_, 1, ram)
    exact_zero = LaurentSeries.zero(field_, ram, 0, exact=True)
    lam_power, a_power = exact_powers(lam), exact_powers(a)

    b = {0: one}  # indexed by j: b[j] = b_{jp+1}
    for j in range(1, Jmax + 1):
        total = None
        for i in range((j - 1 + p) // (p + 1), j):
            c = binomial_digits(i * p + 1, j - i, p)
            if c == 0:
                continue
            term = b[i].scale(c) * lam_power(i * p + 1 - (j - i)) * a_power(j - i)
            total = term if total is None else total + term
        if total is None:
            b[j] = exact_zero
            continue
        b[j] = over_small_divisor(total, lam_power, profile, j * p + 1, window)
    coeffs = {
        k: b[(k - 1) // p] if (k - 1) % p == 0 else exact_zero for k in range(1, D + 1)
    }
    return Conjugacy(coeffs, profile, "specialized", D)


def solve_specialized_windowed_terms(f, Jmax, window=32):
    """The p+1 recurrence of ``solve_specialized_p_plus_1`` term by term
    on coefficient windows: each term b_i·C(ip+1, j-i)·λ^e·a^n is two
    windowed products, read to the sum's horizon H (the least term
    horizon) from ``_powers`` arrays of λ and a, and each sum is divided
    by the table entry 1/(λ − λ^{jp+1}).  Fast enough for every
    ``divergence-ladder`` size, where ``solve_specialized_per_term``'s
    exact powers are not."""
    a = _p_plus_1_shape(f)
    lam = f.multiplier
    profile = mult_profile(lam)
    field_, ram = f.field, f.ram
    p = field_.p
    D = Jmax * p + 1
    one = LaurentSeries.constant(field_, 1, ram)
    exact_zero = LaurentSeries.zero(field_, ram, 0, exact=True)
    # λ^e with e = ip + 1 − (j − i) <= (Jmax − 1)·p, and a^(j−i) with j − i <= Jmax
    lam_power = _powers(lam, (Jmax - 1) * p, window)
    a_power = _powers(a, Jmax, window)
    divisor = lam_minus_power_divisors(profile, [j * p + 1 for j in range(1, Jmax + 1)], window)

    b = {0: one}  # indexed by j: b[j] = b_{jp+1}
    for j in range(1, Jmax + 1):
        terms, H = [], math.inf
        for i in range((j - 1 + p) // (p + 1), j):
            c = binomial_digits(i * p + 1, j - i, p)
            if c == 0:
                continue
            e, n = i * p + 1 - (j - i), j - i
            lead = b[i].lead + n * a.lead
            H = min(H, lead + (window if b[i].exact else b[i].prec - b[i].lead))
            terms.append((lead, c, b[i].coeffs, e, n))
        lo = min(t[0] for t in terms)
        acc = np.zeros((H - lo, field_.r), dtype=np.int64)
        for lead, c, coeffs, e, n in terms:
            rows = H - lead
            if rows <= 0:
                continue
            prod = _convolve(field_, coeffs[:rows], _rows(lam_power, rows)[e])
            prod = _convolve(field_, prod[:rows], _rows(a_power, rows)[n])[:rows]
            acc[lead - lo : lead - lo + prod.shape[0]] += c * prod
        total = LaurentSeries(field_, ram, lo, acc, H)
        b[j] = total * divisor[j * p + 1]
    coeffs = {
        k: b[(k - 1) // p] if (k - 1) % p == 0 else exact_zero for k in range(1, D + 1)
    }
    return Conjugacy(coeffs, profile, "specialized", D)


def solve_sfe_chain(f, D, window=32):
    """``solve_sfe`` before it solved on the support of b: every power
    f^k its stride allows is formed, f^{k-1}·f, or f^{pj}·f^p for
    p-divisible maps, and a divisor is tabulated for every such k."""
    if D < 1:
        raise HypothesisError(f"degree D must be >= 1, got {D}")
    if window < 1:
        raise HypothesisError(f"window must be >= 1, got {window}")
    profile = mult_profile(f.multiplier)
    field_, ram = f.field, f.ram
    one = LaurentSeries.constant(field_, 1, ram)
    exact_zero = LaurentSeries.zero(field_, ram, 0, exact=True)
    p = field_.p
    family = f.divisible_degrees()
    step = p if family else 1
    divisor = lam_minus_power_divisors(
        profile, [k for k in range(2, D + 1) if not (family and k % p)], window
    )

    coeffs = {1: one}
    acc = DensePoly(field_, ram, D, window)
    fpow = DensePoly.of_map(f, D, window)  # the highest power of f formed
    acc.add_scaled(one, fpow)  # Σ so far = b_1 f^1
    stride = None  # f^p, for p-divisible maps
    for k in range(2, D + 1):
        if family and k % p != 0:
            # columns are reduced and zero past their horizon, so the sum
            # is zero as known exactly when its column holds no data
            if _any(acc.data[k], axis=None):
                raise CertificateError(
                    f"degree {k} should vanish for p-divisible maps, got {acc.column(k)}"
                )
            b_k = exact_zero
        else:
            s_k = acc.column(k)
            b_k = exact_zero if s_k.is_exact_zero else s_k * divisor[k]
        coeffs[k] = b_k
        if k < D and k % step == 0:
            if family and k > p:
                fpow = fpow.mul(stride)
            else:  # f^{k-1}·f, or f^p from f when k = p
                for _ in range(k - 1 if family else 1):
                    fpow = fpow.mul_by_map(f)
                if family:
                    # f^p is multiplied only by ``mul``: free f's columns
                    stride, fpow.map_columns = fpow, None
            acc.add_scaled(b_k, fpow)
    return Conjugacy(coeffs, profile, "term-matching", D)


def conjugacy_csv_by_fractions(g):
    """``Conjugacy.csv`` with one ``valuation`` (a Fraction, or None) per
    degree: the rendering the package forms from integer gcds."""
    lines = ["k,v_num,v_den,zero_kind"]
    for k in range(1, g.D + 1):
        v = g.valuation(k)
        num, den = ("inf", 1) if v is None else (v.numerator, v.denominator)
        lines.append(f"{k},{num},{den},{g.zero_kind[k]}")
    return "\n".join(lines) + "\n"


def table_compose_horner(outer, inner, D):
    """g(h(x)) for two coefficient tables, truncated at degree D, by
    Horner over x-polynomials with series coefficients: one table product
    per degree below max(outer), where ``table_compose`` composes by
    p-th powers."""
    acc = {}
    for l in range(max(outer), -1, -1):
        acc = _table_mul(acc, inner, D)
        if l in outer:
            acc[0] = acc[0] + outer[l] if 0 in acc else outer[l]
    return {d: s for d, s in acc.items() if not s.is_exact_zero}


def derivative_term_sum(f, x):
    """f'(x) = Σ i a_i x^(i-1) summed term by term, each term formed by
    its own power of x, where ``ps_derivative_at`` runs Horner over the
    derivative table.  The constant term is λ itself, not λ·x^0."""
    acc = None
    for d, a in sorted(_table_derivative(f.coeffs, f.field.p).items()):
        term = a * (x**d) if d else a
        acc = term if acc is None else acc + term
    return acc


def find_periodic_point_per_element(f, kappa_max, sphere, e=1, horizon=128):
    """The boundary periodic-point search of ``find_periodic_point`` with
    f^∘κ recomposed by Horner for every κ and every tower field, and the
    residue polynomial evaluated one ``FqElement`` at a time."""
    v_radius = sphere.v_radius
    exponent = v_radius * e
    if exponent.denominator != 1:
        raise HypothesisError(
            f"sphere radius valuation {v_radius} is not integral in a tower "
            f"with e = {e}"
        )
    exponent = int(exponent)
    for kappa in range(1, kappa_max + 1):
        if f.degree_bound**kappa > discs._DEG_CAP:
            break
        for res_field in _tower_fields(f.field):
            fe = _embed_map(f, res_field, e)
            pi = LaurentSeries.monomial(res_field, exponent, 1, ram=e)
            u_hat = _periodic_in_tower_per_element(fe, kappa, pi, horizon * e)
            if u_hat is not None:
                x_hat = pi * u_hat
                _, mult = verify_indifferent(fe, x_hat, kappa)
                return PeriodicPoint(x_hat, kappa, mult, (res_field.r, e))
    return None


def _periodic_in_tower_per_element(f, kappa, pi, horizon):
    """Root u (a unit) of f^∘κ(π·u) − π·u = 0, or None."""
    field_ = f.field
    # G(u) = f^∘κ(π u) − π u as a polynomial in u with exact coefficients;
    # f^∘κ has degree <= degree_bound^κ, so nothing is truncated
    x_table = {1: pi}
    for _ in range(kappa):
        x_table = table_compose_horner(f.coeffs, x_table, f.degree_bound**kappa)
    g_table = {**x_table, 1: x_table[1] - pi}
    g_table = {d: s for d, s in g_table.items() if not s.is_zero_as_known}
    if not g_table:
        return None
    # lift G/T^μ, whose derivative is a unit at a simple residue root
    mu = min(s.lead for s in g_table.values())
    g_table = {d: s.shift(-mu) for d, s in g_table.items()}
    dtable = _table_derivative(g_table, field_.p)
    residue_poly = {d: s.residue() for d, s in g_table.items()}
    dpoly = {d: s.residue() for d, s in dtable.items()}
    for u_bar in field_.elements():
        if u_bar.is_zero:
            continue
        if eval_table(residue_poly, u_bar).is_zero:
            if not dpoly or eval_table(dpoly, u_bar).is_zero:
                continue  # multiple residue root: lifting not certified
            u = LaurentSeries.constant(field_, u_bar, pi.ram, prec=horizon, exact=False)
            lifted = newton_root(g_table, dtable, u)
            if lifted is not None:
                return lifted
    return None


def _realigned_by_take(W, data, base, new_base):
    """Windows of W entries starting at ``new_base``, read from rows of
    ``data`` starting at ``base``: entries outside the rows, and columns
    where either base is INF, read as zero."""
    width = data.shape[1]
    idx = np.arange(W)[None, :] - (base - new_base)[:, None]
    finite = (base < _INF_CUT) & (new_base < _INF_CUT)
    valid = (idx >= 0) & (idx < width) & finite[:, None]
    clipped = np.clip(idx, 0, width - 1)[:, :, None]
    gathered = np.take_along_axis(data, clipped, axis=1)
    return np.where(valid[:, :, None], gathered, 0)


def min_plus_product(a, b):
    """The min-plus product of two base arrays over x^0 .. x^D: at x^d
    the least a[j] + b[i] over i + j = d, INF where no pair is finite;
    the bases of a product of exact-start powers, one column of b at a
    time."""
    out = np.full(a.shape[0], INF, dtype=np.int64)
    for i in np.flatnonzero(b < _INF_CUT):
        out[i:] = np.minimum(out[i:], a[: a.shape[0] - i] + b[i])
    return _clamp(out)


def min_plus_powers(f, D):
    """[None, M_1, M_2, …, M_D]: M_k the bases of f^k over x^0 .. x^D,
    the k-th min-plus power of the leads of f's coefficients."""
    leads = np.full(D + 1, INF, dtype=np.int64)
    for i, a in f.coeffs.items():
        if i <= D:
            leads[i] = a.lead
    powers = [None, leads]
    for _ in range(D - 1):
        powers.append(min_plus_product(powers[-1], leads))
    return powers


def dense_mul_per_column(a, b):
    """a * b for two ``DensePoly``s, one live column of b at a time: its
    horizons against every live column of a, then its nonzero rows
    convolved with every live column of a, data or not."""
    D, W, field = a.D, a.W, a.field
    out = DensePoly(field, a.ram, D, W)
    lo = a._live()
    cols = np.flatnonzero(b.prec[: D + 1 - lo] < _INF_CUT)
    if not cols.size:
        return out
    bounds = np.minimum(a.base, a.prec)
    for i in cols:
        v, h, n = min(b.base[i], b.prec[i]), b.prec[i], D + 1 - i
        out.base[lo + i :] = np.minimum(out.base[lo + i :], a.base[lo:n] + v)
        cap = np.minimum(a.prec[lo:n] + v, bounds[lo:n] + h)
        out.prec[lo + i :] = np.minimum(out.prec[lo + i :], cap)
    _clamp(out.base)
    _clamp(out.prec)
    start = lo + cols[0]
    acc = np.zeros_like(out.data[start:])
    for i in cols:
        rows = np.flatnonzero(b.data[i].any(axis=1))
        if not rows.size:
            continue
        n = D + 1 - i
        column = b.data[i, rows[0] : rows[-1] + 1]
        prod = _convolve(field, a.data[lo:n], column)
        shifted = a.base[lo:n] + (b.base[i] + rows[0])
        acc[lo + i - start :] += _realigned_by_take(W, prod, shifted, out.base[lo + i :])
    out.data[start:] = acc % field.p
    out._mask_all(np.arange(D + 1))
    return out


def dense_add_scaled_all_columns(acc, series, other):
    """acc += series * other, with every live column of other convolved
    by the scalar, data or not."""
    lo = other._live()
    if series.is_exact_zero or lo > acc.D:
        return
    base, prec = acc.base[lo:], acc.prec[lo:]
    new_base, new_prec = base, prec
    if not series.is_zero_as_known:
        new_base = _clamp(np.minimum(base, other.base[lo:] + series.lead))
        new_prec = np.minimum(prec, other.prec[lo:] + series.lead)
    if not series.exact:
        # each column's lead, or its horizon where it holds no data
        leads = [
            other.base[d] + rows[0] if rows.size else other.prec[d]
            for d in range(lo, other.D + 1)
            for rows in [np.flatnonzero(other.data[d].any(axis=1))]
        ]
        new_prec = np.minimum(new_prec, np.minimum(leads, INF) + series.prec)
    if not series.is_zero_as_known:
        data = _realigned_by_take(acc.W, acc.data[lo:], base, new_base)
        prod = _convolve(acc.field, other.data[lo:], series.coeffs)
        prod = _realigned_by_take(acc.W, prod, other.base[lo:] + series.lead, new_base)
        acc.data[lo:] = (data + prod) % acc.field.p
        acc.base[lo:] = new_base
    acc.prec[lo:] = _clamp(new_prec)
    acc._mask_all(np.arange(acc.D + 1))


def product_small_divisors_per_term(profile, N):
    """Σ_{i=1}^{p^{N-1}} v(1 - λ^{ip}), one ``small_divisor_valuation``
    (a ``Fraction``) per term: the term sum that
    ``multiplier.product_small_divisors`` forms as one integer."""
    p = profile.p
    return sum(small_divisor_valuation(profile, i * p) for i in range(1, p ** (N - 1) + 1))


def small_divisor_leads_per_entry(profile, ns, window):
    """The leads (U-units) of the divisors 1 − λ^n of
    ``schroder._small_divisors`` checked entry by entry in the order of
    ``ns``: a p-adic split, the first nonzero row of 1 − λ^u and one
    ``small_divisor_valuation`` per entry.  The first faulty entry raises
    the table's PrecisionError (vanished) or CertificateError (off the
    closed form) with its text.  λ's powers come from ``schroder._powers``
    as the table reads them, so powers a test plants there reach both."""
    lam = profile.lam
    ram, p = lam.ram, lam.field.p
    splits = [p_split(n, p) for n in ns]
    least = min((s for s, _ in splits), default=0)  # λ^u is read to v_m·e + ⌈W/p^least⌉
    width = int(profile.v_m * ram) + -(-window // p**least)
    top = max([u for _, u in splits], default=0)
    powers = lindisc.schroder._powers(lam, top, width)
    leads = []
    for n, (s, u) in zip(ns, splits):
        difference = -powers[u] % p
        difference[0, 0] = (1 - powers[u, 0, 0]) % p
        nonzero = np.flatnonzero(difference.any(axis=1))
        if not nonzero.size:
            raise PrecisionError(
                f"divisor 1 - lambda^{n} vanished to O(U^{p**s * width}); root of unity?"
            )
        lead = p**s * int(nonzero[0])
        expected = small_divisor_valuation(profile, n)
        if lead * expected.denominator != expected.numerator * ram:
            raise CertificateError(
                f"divisor valuation {Fraction(lead, ram)} != closed form "
                f"{expected} of 1 - lambda^{n}"
            )
        leads.append(lead)
    return leads


def small_divisor_direct(lam, n):
    """v(1 - λ^n) by square-and-multiply in the series field: the
    independent oracle for the closed form."""
    one = LaurentSeries.constant(lam.field, 1, lam.ram)
    return (one - lam**n).valuation()


def delta_exponent(profile, k):
    """δ(k) = count_resonant(k)/(k−1); maximal exactly at k = k'."""
    if k < 2:
        raise HypothesisError("delta is defined for k >= 2")
    return Fraction(count_resonant(profile, k), k - 1)


def lemma_bound_per_k(profile, A, k):
    """The Lemma bound (k-1)·A − v_m·count_resonant(k) on v(b_k) as a
    ``Fraction``, one k at a time: ``lemma_bound``'s integer form over a
    common denominator, divided back out."""
    return (k - 1) * A - profile.v_m * count_resonant(profile, k)


def weierstrass_data_per_k(coeffs, v_r, gauge=None, profile=None):
    """``discs.weierstrass_data`` one series at a time: each v(c_k) + k·v_r
    a ``Fraction`` from the series of ``coeffs`` (a mapping k -> c_k), and
    given the gauge and the profile, the tail past the table from
    ``lemma_bound_per_k`` over one period mp and its increment."""
    best = None
    minimizers = []
    for k in sorted(coeffs):
        c = coeffs[k]
        if c.is_zero_as_known:
            continue
        t = Fraction(c.lead, c.ram) + k * v_r
        if best is None or t < best:
            best, minimizers = t, [k]
        elif t == best:
            minimizers.append(k)
    if best is None:
        raise HypothesisError("all coefficients vanish; no Weierstrass data")
    for k, c in coeffs.items():
        if c.is_zero_as_known and not c.exact:
            if Fraction(c.prec, c.ram) + k * v_r <= best:
                raise PrecisionError(
                    f"coefficient {k} is zero only to precision and could "
                    f"attain the Weierstrass minimum"
                )
    certified = False
    if gauge is not None:
        period = profile.m * profile.p
        D = max(coeffs)

        def tail(k):
            return lemma_bound_per_k(profile, gauge.A, k) + k * v_r

        window = [tail(k) for k in range(D + 1, D + period + 1)]
        increment = tail(D + period + 1) - window[0]
        certified = all(t > best for t in window) and increment > 0
    return WeierstrassData(best, max(minimizers), min(minimizers), certified)


def check_coefficient_bound_per_k(g, gauge, f):
    """``check_coefficient_bound`` one k at a time: each Lemma bound a
    ``Fraction`` from ``lemma_bound``, compared with v(b_k) or with the
    horizon of a b_k known only as zero to precision."""
    if not f.divisible_degrees():
        return BoundReport(False, {}, [])
    ram = g.coeffs[1].ram
    margins, violations = {}, []
    for k in range(2, g.D + 1):
        bound = lemma_bound_per_k(g.profile, gauge.A, k)
        b_k = g.coeffs[k]
        if b_k.is_zero_as_known:
            if not b_k.exact and Fraction(b_k.prec, ram) < bound:
                raise PrecisionError(f"b_{k} = O(U^{b_k.prec}), below the Lemma bound {bound}")
            margins[k] = None
            continue
        margin = Fraction(b_k.lead, ram) - bound
        margins[k] = margin
        if margin < 0:
            violations.append(k)
    return BoundReport(True, margins, violations)


def ps_iterate(f, n, x):
    """n-fold iterate f(f(...f(x)...))."""
    if n < 0:
        raise HypothesisError("iteration count must be >= 0")
    for _ in range(n):
        x = ps_eval(f, x)
    return x


def small_divisor_valuation(profile, n):
    """Closed-form v(1 - λ^n), one exponent at a time: 0 when m does not
    divide n, otherwise v_m · p^s where n = p^s·u with p ∤ u
    (``small_divisor_leads`` of one ``p_split``, divided by e)."""
    return Fraction(small_divisor_leads(profile, *p_split(n, profile.p)), profile.lam.ram)


def conjugacy_table(g):
    """The coefficient table of a conjugacy for evaluation, zero entries
    dropped."""
    return {k: s for k, s in g.coeffs.items() if not s.is_zero_as_known}


def semiconjugacy_residual(f, g, x, dp=None):
    """The series g(f(x)) − λ·g(x), expected zero to its horizon inside
    D_ρ; a zero x is inside every disc."""
    if dp is not None and not x.is_zero_as_known and not x.valuation() > dp.v_rho:
        raise HypothesisError(
            f"sample point v = {x.valuation()} not inside the semi-disc "
            f"(need v > {dp.v_rho})"
        )
    table = conjugacy_table(g)
    lhs = eval_table(table, ps_eval(f, x))
    rhs = f.multiplier * eval_table(table, x)
    return lhs - rhs


def invert_at_point(g, x):
    """Solve g(y) = x by Newton iteration from y = x (g is tangent to the
    identity, so convergence is quadratic inside the linearization disc)."""
    table = conjugacy_table(g)
    y = newton_root({0: -x, **table}, _table_derivative(table, x.field.p), x)
    if y is None:
        raise PrecisionError("point inversion of the conjugacy did not converge")
    return y


def full_conjugacy_residual(f, g, x, dp=None):
    """The series g(f(g^{-1}(x))) − λ·x, expected zero to its horizon
    inside D_σ; a zero x is inside every disc."""
    if dp is not None and not x.is_zero_as_known and not x.valuation() > dp.v_sigma:
        raise HypothesisError(
            f"sample point v = {x.valuation()} not inside the linearization "
            f"disc (need v > {dp.v_sigma})"
        )
    y = invert_at_point(g, x)
    value = eval_table(conjugacy_table(g), ps_eval(f, y))
    return value - f.multiplier * x
