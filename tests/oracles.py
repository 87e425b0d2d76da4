"""Reference implementations and helpers that only tests run.

Each reference implementation is the straightforward form of a
computation the package does faster; tests require the package's
results to equal them exactly.  The helpers at the end
(``delta_exponent``, ``ps_iterate``) are formulas the package itself
has no use for.
"""

import math
from fractions import Fraction

import numpy as np

import lindisc.discs as discs
from lindisc._dense import _INF_CUT, DensePoly, _clamp
from lindisc.discs import PeriodicPoint, _embed_map, _tower_fields, verify_indifferent
from lindisc.errors import CertificateError, HypothesisError, PrecisionError
from lindisc.laurent import LaurentSeries, _convolve
from lindisc.multiplier import count_resonant, mult_profile, small_divisor_valuation
from lindisc.powerseries import (
    _table_derivative,
    _table_mul,
    eval_table,
    newton_root,
    ps_eval,
)
from lindisc.schroder import Conjugacy, _p_plus_1_shape, _powers, _small_divisors


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


def over_small_divisor(s, lam_power, profile, k, window):
    """s / (λ − λ^k), the small divisor λ(1 − λ^{k-1}) formed exactly from
    the exact power table ``lam_power`` of λ and inverted to ``window``
    digits: the quotient that ``schroder._small_divisors`` tabulates.
    Its valuation is checked against the closed form v(1 − λ^{k-1})."""
    div = lam_power(1) - lam_power(k)
    if div.is_zero_as_known:
        raise PrecisionError(f"divisor 1 - lambda^{k-1} vanished; root of unity?")
    expected = small_divisor_valuation(profile, k - 1)
    if Fraction(div.lead, div.ram) != expected:
        raise CertificateError(
            f"divisor valuation {Fraction(div.lead, div.ram)} != closed form "
            f"{expected} at k = {k}"
        )
    return s * div.truncate_relative(window).inverse()


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
    horizon) from ``_powers`` tables of λ and a, and each sum is divided
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
    lam_power, a_power = _powers(lam, window), _powers(a, window)
    divisor = _small_divisors(profile, [j * p + 1 for j in range(1, Jmax + 1)], window)

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
            prod = _convolve(field_, coeffs[:rows], lam_power(e, rows))
            prod = _convolve(field_, prod[:rows], a_power(n, rows))[:rows]
            acc[lead - lo : lead - lo + prod.shape[0]] += c * prod
        total = LaurentSeries(field_, ram, lo, acc, H)
        b[j] = total * divisor[j * p + 1]
    coeffs = {
        k: b[(k - 1) // p] if (k - 1) % p == 0 else exact_zero for k in range(1, D + 1)
    }
    return Conjugacy(coeffs, profile, "specialized", D)


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
    out._mask_all()
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
        new_prec = np.minimum(new_prec, other._leads(lo) + series.prec)
    if not series.is_zero_as_known:
        data = _realigned_by_take(acc.W, acc.data[lo:], base, new_base)
        prod = _convolve(acc.field, other.data[lo:], series.coeffs)
        prod = _realigned_by_take(acc.W, prod, other.base[lo:] + series.lead, new_base)
        acc.data[lo:] = (data + prod) % acc.field.p
        acc.base[lo:] = new_base
    acc.prec[lo:] = _clamp(new_prec)
    acc._mask_all()


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


def ps_iterate(f, n, x):
    """n-fold iterate f(f(...f(x)...))."""
    if n < 0:
        raise HypothesisError("iteration count must be >= 0")
    for _ in range(n):
        x = ps_eval(f, x)
    return x
