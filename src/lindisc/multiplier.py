"""Arithmetic of the multiplier λ: the root-of-unity screen, the order m
of its reduction, the resonance threshold k', closed-form small-divisor
valuations, the Lemma bound on v(b_k), the geometric product formula,
and the radii ρ and σ.

In characteristic p the roots of unity of F_q((T)) are exactly the
nonzero constants: any root of unity is integral, and u = λ/λ̄ with
constant term 1 satisfies u^{n·p^s} = 1 for suitable s, forcing
(u − 1)^{n·p^s} = 0 by Frobenius, so u = 1.  The screen and v_m are
therefore one series, the non-constant part t = λ − λ̄: λ is a root of
unity when t = 0 (undetermined when t is zero only to the justified
horizon), and otherwise v_m = v(1 − λ^m) = v(t).  No power of λ is formed.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, HypothesisError, RootOfUnityError
from .laurent import LaurentSeries, format_valuation


@dataclass(frozen=True)
class MultiplierProfile:
    """Exact resonance data of a unit multiplier.

    m is the least n >= 1 with v(1 - λ^n) > 0 (the multiplicative order
    of the reduction λ̄); k' the least k with p | k and m | k - 1.
    """

    lam: LaurentSeries
    m: int
    v_m: Fraction
    k_prime: int

    @property
    def p(self):
        return self.lam.field.p

    def report_dict(self):
        return {
            "p": self.lam.field.p,
            "r": self.lam.field.r,
            "m": self.m,
            "v_m": format_valuation(self.v_m),
            "k_prime": self.k_prime,
        }


@dataclass(frozen=True)
class DiscProfile:
    """Radii of the semi-conjugacy disc (ρ) and the linearization disc
    (σ) as exact rational valuations: v_rho = v_m/(mp) - A and
    v_sigma = v_m/(k'-1) - A."""

    A: Fraction
    v_rho: Fraction
    v_sigma: Fraction

    def report_dict(self):
        return {
            "A": format_valuation(self.A),
            "v_rho": format_valuation(self.v_rho),
            "v_sigma": format_valuation(self.v_sigma),
        }


def mult_profile(lam):
    """Resonance profile of the unit multiplier λ from t = λ − λ̄.  The
    order m of λ̄ divides q − 1, so p ∤ m and 1 − λ^m = −(m·t/λ̄ + O(t²)):
    v_m = v(t) > 0.  k' = p·j with p·j ≡ 1 (mod m), 1 <= j <= m."""
    if lam.is_zero_as_known:
        raise HypothesisError("multiplier must be a unit, got zero")
    if lam.lead != 0:
        raise HypothesisError(f"multiplier must be a unit, got v = {lam.valuation()}")
    residue = lam.residue()
    t = lam - LaurentSeries.constant(lam.field, residue, lam.ram)
    if t.is_zero_as_known:
        raise RootOfUnityError(
            "multiplier is a nonzero constant, hence a root of unity" if t.exact
            else f"non-constant part of the multiplier is zero to O(U^{t.prec}); "
            "cannot rule out a root of unity",
            undetermined=not t.exact,
        )
    p = lam.field.p
    m = residue.multiplicative_order()
    k_prime = p * pow(p, -1, m) if m > 1 else p
    return MultiplierProfile(lam, m, t.valuation(), k_prime)


def small_divisor_valuation(profile, n):
    """Closed-form v(1 - λ^n): 0 when m does not divide n, otherwise
    v_m · p^s where n = p^s·u with p ∤ u."""
    s = p_split(n, profile.p)[0]
    return Fraction(0) if n % profile.m else profile.v_m * profile.p**s


def p_split(n, p):
    """(s, u) with n = p^s·u and p ∤ u: the one p-adic split of an exponent."""
    if n < 1:
        raise HypothesisError(f"exponent must be >= 1, got {n}")
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return s, n


def count_resonant(profile, k):
    """Number of l <= k with p | l and m | l - 1 (an arithmetic
    progression of step mp starting at k')."""
    if k < profile.k_prime:
        return 0
    return (k - profile.k_prime) // (profile.m * profile.p) + 1


def lemma_bound(profile, A, k):
    """The Lemma bound (k-1)·A − v_m·count_resonant(k) on v(b_k), for a
    map whose nonlinear degrees are all divisible by p and whose gauge
    is A."""
    return (k - 1) * A - profile.v_m * count_resonant(profile, k)


def product_small_divisors(profile, N):
    """Σ_{i=1}^{p^{N-1}} v(1 - λ^{ip}) for m = 1, both term by term
    through ``small_divisor_valuation`` and via the closed form
    v_1 · p^N · ((p-1)(N-1)/p + 1); a mismatch is a CertificateError."""
    *_, total = _product_term_sums(profile, N)
    return _checked_product(profile, N, total)


def product_small_divisor_sums(profile, Nmax):
    """The sums of ``product_small_divisors`` for N = 1 .. Nmax in turn,
    each term evaluated once and each sum checked against its closed
    form as it is yielded."""
    for N, total in enumerate(_product_term_sums(profile, Nmax), 1):
        yield _checked_product(profile, N, total)


def _product_term_sums(profile, Nmax):
    """The term-by-term sums for N = 1 .. Nmax, unchecked: the sum for N
    extends the sum for N - 1 by the terms p^{N-2} < i <= p^{N-1}."""
    if profile.m != 1:
        raise HypothesisError("the product formula requires m = 1 (|1 - lambda| < 1)")
    if Nmax < 1:
        raise HypothesisError("N must be >= 1")
    p = profile.p
    total, done = 0, 0
    for N in range(1, Nmax + 1):
        top = p ** (N - 1)
        total += sum(small_divisor_valuation(profile, i * p) for i in range(done + 1, top + 1))
        done = top
        yield total


def _checked_product(profile, N, total):
    """The closed form of the product formula at N, if the term-by-term
    sum ``total`` equals it; else a CertificateError."""
    p = profile.p
    closed = profile.v_m * p**N * (Fraction(p - 1, p) * (N - 1) + 1)
    if total != closed:
        raise CertificateError(
            f"product formula mismatch at N={N}: terms {total} != closed {closed}"
        )
    return closed


def disc_profile(profile, gauge):
    """Radii v_rho = v_m/(mp) - A and v_sigma = v_m/(k'-1) - A."""
    if gauge.is_linear:
        raise HypothesisError("disc radii are undefined for a linear map")
    A = gauge.A
    v_rho = profile.v_m / (profile.m * profile.p) - A
    v_sigma = profile.v_m / (profile.k_prime - 1) - A
    if not (v_sigma > v_rho > -A):
        raise CertificateError(
            f"radius ordering violated: v_sigma={v_sigma}, v_rho={v_rho}, -A={-A}"
        )
    return DiscProfile(A, v_rho, v_sigma)
