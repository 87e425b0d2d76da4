"""Power-series maps f(x) = λx + Σ a_i x^i with Laurent-series
coefficients: evaluation, iteration, composition, derivative and the
contraction gauge.

Composition of coefficient tables is ``table_compose``, by p-th powers
in full LaurentSeries arithmetic; the windowed dense engine of
:mod:`lindisc._dense` serves the solver only.  ``eval_table`` is the one
Horner over series; it, the derivative table (``_table_derivative``) and
the Newton root (``newton_root``) serve every polynomial-in-x caller.  Only
the residue-root search of :mod:`lindisc.discs` evaluates elsewhere:
on blocks of residue-field elements at once, as coordinate arrays.  A
Newton lift takes its horizon from the iterate, not from an exact
derivative's.

Input maps are finite coefficient tables (polynomials), so the gauge
minimum min_{i>=2} v(a_i)/(i-1) is always attained.  Integer factors
(derivative multipliers, binomials) are reduced through the prime field,
never through machine integers.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HypothesisError, IncompatibleFieldError, PrecisionError
from .field import _prime_factors, p_split
from .laurent import LaurentSeries


class PowerSeriesMap:
    """Immutable finite table degree -> coefficient, degree 1 mandatory.

    The linear coefficient is the multiplier λ and must be a unit
    (valuation zero): the origin is an indifferent fixed point.
    """

    __slots__ = ("field", "ram", "coeffs")

    def __init__(self, coeffs):
        coeffs = dict(coeffs)
        if 1 not in coeffs:
            raise HypothesisError("a power-series map needs a linear term (degree 1)")
        lam = coeffs[1]
        field, ram = lam.field, lam.ram
        if lam.is_zero_as_known:
            raise HypothesisError("multiplier must be a unit (valuation 0), got zero")
        if lam.lead != 0:
            raise HypothesisError(
                f"multiplier must be a unit (valuation 0), got v = {lam.valuation()}"
            )
        cleaned = {}
        for i, a in coeffs.items():
            i = int(i)
            if i < 1:
                raise HypothesisError(f"coefficient degree {i} < 1: origin must be fixed")
            if a.field != field or a.ram != ram:
                raise IncompatibleFieldError("map coefficients in different fields")
            if not a.exact:
                raise HypothesisError("map coefficients must be exact finite tables")
            if a.is_zero_as_known and i != 1:
                continue
            cleaned[i] = a
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, *_):
        raise AttributeError("PowerSeriesMap is immutable")

    @property
    def multiplier(self):
        return self.coeffs[1]

    @property
    def degree_bound(self):
        return max(self.coeffs)

    @property
    def nonlinear_degrees(self):
        return sorted(i for i in self.coeffs if i >= 2)

    @property
    def is_linear(self):
        return not self.nonlinear_degrees

    def divisible_degrees(self):
        """True when f is not linear and every nonlinear degree is
        divisible by p (the family whose conjugacies converge)."""
        p = self.field.p
        degs = self.nonlinear_degrees
        return bool(degs) and all(i % p == 0 for i in degs)

    def __repr__(self):
        parts = [f"x^{i}: {a}" for i, a in sorted(self.coeffs.items())]
        return "PowerSeriesMap({" + ", ".join(parts) + "})"


@dataclass(frozen=True)
class Gauge:
    """A = min over i >= 2 of v(a_i)/(i-1), with the witness degree.

    For a linear map there is nothing to take the minimum over and the
    gauge is the empty marker (A is None).
    """

    A: object
    attained_at: object

    @property
    def is_linear(self):
        return self.A is None


def ps_gauge(f):
    """Contraction gauge of the map: guarantees v(a_i) >= (i-1)A for all i."""
    best = None
    witness = None
    for i in f.nonlinear_degrees:
        cand = f.coeffs[i].valuation() / (i - 1)
        if best is None or cand < best:
            best, witness = cand, i
    return Gauge(best, witness)


def eval_table(table, x):
    """Evaluate a coefficient table (a polynomial in x) at a point by
    sparse Horner over the supported degrees.  Coefficients and point
    are LaurentSeries, or FqElement for a nonempty residue table.  A
    constant table {0: c} is c itself: no closing factor x^0."""
    degs = sorted(table, reverse=True)
    if not degs:
        return LaurentSeries.zero(x.field, x.ram, x.prec)
    acc = table[degs[0]]
    for prev, nxt in zip(degs, degs[1:]):
        acc = acc * (x ** (prev - nxt)) + table[nxt]
    return acc * (x ** degs[-1]) if degs[-1] else acc


def ps_eval(f, x):
    """Σ a_i x^i."""
    return eval_table(f.coeffs, x)


def ps_derivative_at(f, x):
    """f'(x) = Σ i a_i x^(i-1), the integer factors reduced mod p: λ
    itself for a p-divisible map, whose derivative table is {0: λ}."""
    return eval_table(_table_derivative(f.coeffs, f.field.p), x)


def table_compose(outer, inner, D):
    """g(h(x)) = Σ_d a_d·h^d for two coefficient tables, truncated at
    degree D; the inner table may be inexact.  By p-th powers: for
    d = p^s·m with p ∤ m, h^d is h^m with each coefficient c of x^e
    replaced by c ** p^s at x^(e·p^s), so only the h^m with p ∤ m are
    table products, each formed once, as Frob^s(h^u)·h for m − 1 = p^s·u."""
    p = next(iter(outer.values())).field.p
    powers = {1: inner}  # h^m for p ∤ m

    def power(s, m):  # h^(p^s·m)
        chain = [m]
        while chain[-1] not in powers:
            chain.append(p_split(chain[-1] - 1, p)[1])
        for n in reversed(chain[:-1]):
            powers[n] = _table_mul(power(*p_split(n - 1, p)), inner, D)
        q = p**s
        return {e * q: c**q for e, c in powers[m].items() if e * q <= D} if s else powers[m]

    acc = {0: outer[0]} if 0 in outer else {}
    for d, a in outer.items():
        for e, c in power(*p_split(d, p)).items() if d else ():
            acc[e] = acc[e] + a * c if e in acc else a * c
    return {e: t for e, t in acc.items() if not t.is_exact_zero}


def _table_mul(a, b, D):
    """Product of two x-polynomials with series coefficients, degree <= D."""
    out = {}
    for i, s in a.items():
        for j, t in b.items():
            d = i + j
            if d > D:
                continue
            prod = s * t
            out[d] = out[d] + prod if d in out else prod
    return out


def _table_derivative(a, p):
    """Derivative of an x-polynomial, the integer factors reduced mod p."""
    out = {}
    for d, s in a.items():
        if d == 0:
            continue
        factor = d % p
        if factor == 0:
            continue
        out[d - 1] = s.scale(factor) if factor != 1 else s
    return out


def newton_root(table, dtable, y):
    """Root of the x-polynomial ``table`` (derivative table ``dtable``)
    by Newton iteration from y, once its value is zero to precision.

    None when the derivative is not a unit or a step is not smaller than
    the iterate: the start is not in the root's basin.  Each step at
    least doubles the known digits, so 2·bit_length(prec of y) + 8 steps
    reach the horizon; raises PrecisionError after that many.  The root
    keeps y's horizon: an exact derivative c (``dtable`` = {0: c}) is
    inverted to it, or to c's own if that is larger.
    """
    max_iter = 2 * y.prec.bit_length() + 8
    for _ in range(max_iter):
        resid = eval_table(table, y)
        if resid.is_zero_as_known:
            return y
        deriv = eval_table(dtable, y)
        if deriv.is_zero_as_known or deriv.lead != 0:
            return None
        if deriv.exact:  # inverted to the iterate's horizon, or to its own if larger
            deriv = LaurentSeries(y.field, y.ram, 0, deriv.coeffs, max(deriv.prec, y.prec), True)
        step = resid * deriv.inverse()
        if step.lead <= y.lead:
            return None
        y = y - step
    raise PrecisionError(f"Newton iteration did not converge in {max_iter} steps")


@lru_cache(maxsize=None)
def _log_factorials(p):
    """Discrete-log tables mod p for Lucas' theorem: ``log_fact[a]`` is
    the logarithm of a! mod p (a < p) to a primitive root g, and
    ``power[e]`` is g^e mod p (e < p − 1)."""
    order = p - 1
    primes = _prime_factors(order)
    g = next(g for g in range(1, p) if all(pow(g, order // q, p) != 1 for q in primes))
    power, log = [1] * order, [0] * p
    for e in range(1, order):
        power[e] = power[e - 1] * g % p
        log[power[e]] = e
    log_fact = [0] * p
    for a in range(2, p):
        log_fact[a] = (log_fact[a - 1] + log[a]) % order
    return np.array(log_fact, dtype=np.int64), np.array(power, dtype=np.int64)


def binomial_mod_p(n, k, p):
    """Binomial coefficient mod p by Lucas' theorem (``_lucas``).  ``n``
    and ``k`` are ints, or integer arrays that broadcast together; for
    arrays the result is the int64 array of the binomials, elementwise,
    and for two ints it is an int."""
    n, k = np.asarray(n, dtype=np.int64), np.asarray(k, dtype=np.int64)
    result = _lucas(*np.broadcast_arrays(n, k), p)
    return result if result.ndim else int(result)


def _lucas(n, k, p):
    """Lucas' theorem on int64 arrays of one shape: C(n, k) ≡ Π_t C(n_t, k_t)
    over the base-p digits n_t, k_t, and 0 when k < 0 or k > n.  When
    every k_t ≤ n_t, n − k has the digits n_t − k_t, so the product is
    g^(Σ_t log n_t! − log k_t! − log (n_t − k_t)!), a sum that never
    overflows.  A digit k_t > n_t makes the binomial 0; its negative
    index into ``log_fact`` reads a value that this zero then masks.
    Each digit is one scalar ``divmod`` by p of the quotient before it
    (floor division, so a negative k has the digits of ⌊k/p^t⌋ mod p),
    added into the sum at once: a few arrays of n's shape, whatever the
    number of digits."""
    log_fact, power = _log_factorials(p)
    top, digits = int(n.max(initial=0)), 1
    while p**digits <= top:
        digits += 1
    e = np.zeros(n.shape, dtype=np.int64)
    held = (0 <= k) & (k <= n)
    for _ in range(digits):
        n, dn = np.divmod(n, p)
        k, dk = np.divmod(k, p)
        dm = dn - dk
        held &= dm >= 0
        e += log_fact[dn]
        e -= log_fact[dk]
        e -= log_fact[dm]
    return power[e % (p - 1)] * held
