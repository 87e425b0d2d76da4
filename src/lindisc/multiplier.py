"""Arithmetic of the multiplier λ: the root-of-unity screen, the order m
of its reduction, the resonance threshold k', closed-form small-divisor
valuations, the Lemma bound on v(b_k), the geometric product formula
(its closed form checked against one integer sum of the terms' closed
forms), and the radii ρ and σ.

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

import numpy as np

from .errors import CertificateError, HypothesisError, RootOfUnityError
from .field import p_split
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


# the profile ``mult_profile`` formed last, kept with its λ: the stages of
# one pipeline ask for the profile of one map's λ, the same series object,
# more than once (a ``disc`` job's default degree, then its solve)
_last_profile = None


def mult_profile(lam):
    """Resonance profile of the unit multiplier λ from t = λ − λ̄.  The
    order m of λ̄ divides q − 1, so p ∤ m and 1 − λ^m = −(m·t/λ̄ + O(t²)):
    v_m = v(t) > 0.  k' = p·j with p·j ≡ 1 (mod m), 1 <= j <= m.  Asked
    again for the series object it profiled last, it returns that
    profile: series are immutable, so the profile still holds."""
    global _last_profile
    if _last_profile is not None and _last_profile.lam is lam:
        return _last_profile
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
    _last_profile = MultiplierProfile(lam, m, t.valuation(), k_prime)
    return _last_profile


def small_divisor_leads(profile, s, u):
    """e·v(1 - λ^n) for n = p^s·u, p ∤ u, in U-units: the closed form
    0 when m does not divide n (m | n iff m | u, as p ∤ m), otherwise
    e·v_m·p^s, in one pass for arrays s, u."""
    return (u % profile.m == 0) * (profile.v_m * profile.lam.ram).numerator * profile.p**s


def count_resonant(profile, k):
    """Number of l <= k with p | l and m | l - 1 (an arithmetic
    progression of step mp starting at k'); k an int or an array."""
    count = (k - profile.k_prime) // (profile.m * profile.p) + 1
    return count * (count > 0)


def lemma_bound(profile, A, k, den):
    """den times the Lemma bound (k-1)·A − v_m·count_resonant(k) on v(b_k)
    of a p-divisible map with gauge A, for ``den`` a common denominator
    of A and v_m: an integer, or for an array of k all in one pass."""
    a, v = A * den, profile.v_m * den
    if a.denominator != 1 or v.denominator != 1:
        raise HypothesisError(f"{den} is no common denominator of A = {A} and v_m")
    return (k - 1) * a.numerator - v.numerator * count_resonant(profile, k)


def product_small_divisors(profile, Ns):
    """Σ_{i=1}^{p^{N-1}} v(1 - λ^{ip}) for m = 1 by the closed form
    v_1 · p^N · ((p-1)(N-1)/p + 1), checked against the sum of the terms'
    closed forms, for each N of the sequence ``Ns`` (a certificate's
    N = 1 .. Nmax): a list of integers in U-units, in its order.  One
    ``p_split`` and one ``small_divisor_leads`` pass over every
    i <= p^(N−1) of the largest N, and each N's sum is a prefix of their
    running sum.  A mismatch is a CertificateError naming the first N,
    in that order, where it occurs."""
    Ns = list(Ns)
    if profile.m != 1:
        raise HypothesisError("the product formula requires m = 1 (|1 - lambda| < 1)")
    if min(Ns) < 1:
        raise HypothesisError("N must be >= 1")
    p, ram = profile.p, profile.lam.ram
    ss, us = p_split(p * np.arange(1, p ** (max(Ns) - 1) + 1), p)
    sums = small_divisor_leads(profile, ss, us).cumsum().tolist()
    closed = []
    for n in Ns:
        total = Fraction(sums[p ** (n - 1) - 1], ram)
        closed.append(profile.v_m * p**n * (Fraction(p - 1, p) * (n - 1) + 1))
        if total != closed[-1]:
            raise CertificateError(
                f"product formula mismatch at N={n}: terms {total} != closed {closed[-1]}"
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
