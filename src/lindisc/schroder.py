"""Formal solutions g of g∘f = λ·g (normalized g(0) = 0, g'(0) = 1),
their structural and valuation properties, and divergence certificates
for the degree-(p+1) family.

Three independent solvers are provided: term matching against the
accumulated powers of f (the workhorse), the multinomial recurrence
(partition enumeration, small degrees), and the binomial recurrence
for f = λx + a·x^N, whose conjugacy is supported on degrees 1 + J(N − 1)
and whose powers of f are closed forms.  ``solve_specialized_p_plus_1``
is its N = p + 1 case; term matching hands it the p-divisible binomial
maps (p | N) and keeps every other map, the p+1 family included, on
the dense engine, so the dense engine still checks the p+1 solver.
All three divide through one table (``_small_divisors``), built once
per solve, of 1/(1 − λ^n) to the working width, with λ^(−1).  In
characteristic p, 1 − λ^{p^s·u} is the s-th Frobenius image of
1 − λ^u, and so is its inverse: one batched Newton run inverts 1 − λ^u
for the distinct p-free u only, and λ as one more entry.  For p ∤ u,
v(1 − λ^u) is 0 or v_m, so λ^u is read modulo U^(v_m·e + window) at
most, from one array of powers formed by doubling (``_powers``).  Term
matching and the multinomial recurrence divide by λ − λ^k =
λ(1 − λ^{k-1}): term matching multiplies every row of the table by
λ^(−1) in one batched product before its loop, and the multinomial
recurrence multiplies each quotient by λ^(−1) as one series.  The
binomial recurrence folds λ^{Ni}·a^{-i} into its coefficients, so its
sums are F_p-linear combinations, formed in Lucas blocks of p; it reads
1/(1 − λ^{(N-1)J}) as it is, and λ^(−1) only when a coefficient is
first read.  λ is an exact literal, so each divisor is known to any
number of digits, and its reciprocal is expanded to the working width:
the division keeps the justified horizon.
"""

import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from ._dense import _INF_CUT, DensePoly, _MinPlus
from .errors import CertificateError, HypothesisError, PrecisionError
from .field import p_split
from .laurent import LaurentSeries, _any, _convolve, _invert_unit, _per_batch
from .multiplier import (
    lemma_bound,
    mult_profile,
    product_small_divisors,
    small_divisor_leads,
)
from .powerseries import _log_factorials, binomial_mod_p

STRUCTURAL = "structural"
COMPUTED_ZERO = "computed-zero"
NONZERO = "nonzero"


@dataclass(frozen=True)
class ValuationTable:
    """The integer valuations of b_0 .. b_D, formed once per solve: row k
    of ``lead`` and ``prec`` is b_k's lead and horizon in U-units
    (U^ram = T), and of ``kind`` how its vanishing, or not, is known;
    b_0 = g(0) is an exact zero.  Object arrays of Python ints and of the
    kinds' strings, so a reader scales them to any denominator exactly."""

    ram: int
    lead: np.ndarray
    prec: np.ndarray
    kind: np.ndarray


def _valuations(ram, D, rows):
    """The ``ValuationTable`` of rows (k, lead, prec, kind); b_1 = 1 exact
    and every b_k, k >= 2, without a row an exact zero."""
    lead, prec, kind = [0] * (D + 1), [0, 1] + [0] * (D - 1), [STRUCTURAL] * (D + 1)
    kind[1] = NONZERO
    for k, *row in rows:
        lead[k], prec[k], kind[k] = row
    return ValuationTable(ram, *(np.array(column, dtype=object) for column in (lead, prec, kind)))


def _kind(s):
    """How a coefficient s is known to vanish, or not."""
    if s.is_zero_as_known:
        return STRUCTURAL if s.exact else COMPUTED_ZERO
    return NONZERO


class _Coefficients(Mapping):
    """Degree k = 1 .. D -> b_k, each built by ``build(k)`` when first
    read and kept: a reader of a few coefficients builds only those."""

    def __init__(self, D, build):
        self.D, self.build, self.built = D, build, {}

    def __getitem__(self, k):
        if k not in self.built:
            if not 1 <= k <= self.D:
                raise KeyError(k)
            self.built[k] = self.build(k)
        return self.built[k]

    def __iter__(self):
        return iter(range(1, self.D + 1))

    def __len__(self):
        return self.D


@dataclass(frozen=True)
class Conjugacy:
    """Coefficients b_k of the normalized formal conjugacy up to degree D:
    ``coeffs`` maps each k = 1 .. D to b_k, a dict or a mapping that
    builds b_k when first read (``_solve_binomial``), and ``valuations``
    is their ``ValuationTable``, read off ``coeffs`` when not given."""

    coeffs: Mapping
    profile: object
    source: str
    D: int
    valuations: ValuationTable = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.valuations is not None:
            return
        if self.D < 1:
            raise HypothesisError(f"degree D must be >= 1, got {self.D}")
        coeffs = [(k, self.coeffs[k]) for k in range(1, self.D + 1)]
        rows = ((k, s.lead, s.prec, _kind(s)) for k, s in coeffs)
        object.__setattr__(self, "valuations", _valuations(coeffs[0][1].ram, self.D, rows))

    @property
    def zero_kind(self):
        """Degree k = 1 .. D -> STRUCTURAL, COMPUTED_ZERO or NONZERO."""
        return self.valuations.kind

    def coefficient(self, k):
        if not 1 <= k <= self.D:
            raise HypothesisError(f"degree {k} outside the solved degrees 1 .. {self.D}")
        return self.coeffs[k]

    def valuation(self, k):
        """v(b_k) as a Fraction, or None when b_k is zero as known."""
        if not 1 <= k <= self.D:
            raise HypothesisError(f"degree {k} outside the solved degrees 1 .. {self.D}")
        table = self.valuations
        return Fraction(table.lead[k], table.ram) if table.kind[k] == NONZERO else None

    def csv(self):
        """One row per degree: v(b_k) = lead/ram in lowest terms, or inf."""
        lines = ["k,v_num,v_den,zero_kind"]
        table = self.valuations
        ram = table.ram
        for k, lead, kind in zip(range(1, self.D + 1), table.lead[1:], table.kind[1:]):
            if kind == NONZERO:
                g = math.gcd(lead, ram)
                lines.append(f"{k},{lead // g},{ram // g},{kind}")
            else:
                lines.append(f"{k},inf,1,{kind}")
        return "\n".join(lines) + "\n"


# most r × r coordinate products per slice of one batched product that
# grows a power table: the fixed cost of one ``_convolve`` call in units
# of its time per coordinate product.  Batching c powers saves c - 1
# calls and pays for every slice's products, so it gains only while a
# slice costs less than one call.  Measured at 2^13.8 .. 2^14.8 for
# r = 1, 2, 3, 8 (Xeon, numpy 2.4; integer matrix products use one core)
_SLICE_PRODUCTS = 1 << 14


def _powers(x, n, width):
    """The windowed powers x^0 .. x^n of a series x: an (n + 1, width, r)
    array whose row j of power k is the coefficient of U^(k·x.lead + j)
    in x^k, zero rows included.

    With x^0 .. x^(L-1) formed, one batched product of x^(L-c) .. x^(L-1)
    by x^c adds x^L .. x^(L+c-1); c = L - 1 doubles the array, so n
    powers cost ⌈log2 n⌉ products.  A slice of it costs at most
    (width + l - 1)·l coordinate products, l the rows of x^c; c is capped
    where that passes ``_SLICE_PRODUCTS``, and by ``laurent._per_batch``
    from the 2·width - 1 rows of each power's buffer: a short x in a wide
    window adds a few powers per product, or one.
    Row j of a product depends only on rows <= j of its factors, so every
    row is a row of the exact x^n.  Readers take rows through ``_rows``."""
    field_, r = x.field, x.field.r
    base = x.coeffs[:width]
    table = np.zeros((n + 1, width, r), dtype=np.int64)
    table[0, 0, 0] = 1
    if n:
        table[1, : base.shape[0]] = base
    # x^c has min(width, c·degree + 1) rows, and a product by it
    # min(width, c·degree + 1) + width - 1
    nonzero = np.flatnonzero(base.any(axis=1))
    degree = int(nonzero[-1]) if nonzero.size else 0
    most = _per_batch(8 * (2 * width - 1) * r)
    # ``span``: the most rows x^c may have for a slice within the cap
    budget = _SLICE_PRODUCTS // r**2
    span = (math.isqrt((width - 1) ** 2 + 4 * budget) - (width - 1)) // 2
    if degree and span < width:
        most = min(most, max(1, (span - 1) // degree))
    have = 2  # x^0 .. x^(have-1) are formed
    while have <= n:
        c = min(have - 1, n + 1 - have, most)
        table[have : have + c] = _convolve(
            field_, table[have - c : have], table[c, : min(width, c * degree + 1)], width
        )
        have += c
    return table


def _rows(powers, rows):
    """The first ``rows`` rows of every power of a ``_powers`` array; a
    read past its width raises CertificateError, never returns fewer."""
    if rows > powers.shape[1]:
        raise CertificateError(
            f"read of {rows} rows of a power past its table's width {powers.shape[1]}"
        )
    return powers[:, :rows]


class _DivisorTable(Mapping):
    """n -> 1/(1 − λ^n) to ``window`` digits, as ``_small_divisors``
    tabulates it.  The i-th divisor, of the exponent ``ns[i]`` (an int64
    array), has valuation ``leads[i]`` (U-units) and ``rows[i]`` holds
    the ``window`` rows of its reciprocal past that reciprocal's lead
    −leads[i].  One more row, the last, holds the ``window`` rows of
    λ^(−p^t), t the least p-adic valuation of the table's exponents, and
    ``head`` λ's first ``window`` rows: the two give λ^(−1)
    (``lam_inverse``), by which the callers that divide by
    λ − λ^k = λ(1 − λ^(k−1)) multiply."""

    def __init__(self, field_, ram, ns, leads, rows, window, t, head):
        self.field, self.ram, self.window = field_, ram, window
        self.ns, self.leads, self.rows, self.t, self.head = ns, leads, rows, t, head

    @cached_property
    def index(self):
        """n -> its row, built at the first read by n: the dense solve and
        the binomial recurrence read rows by position and build none."""
        return {n: i for i, n in enumerate(self.ns.tolist())}

    @property
    def lam_inverse(self):
        """The ``window`` rows of λ^(−1) = λ^(p^t − 1)·λ^(−p^t), formed on
        each read, so a solve that reads no coefficient forms no
        λ^(p^t − 1)."""
        power = LaurentSeries(self.field, self.ram, 0, self.head, self.window)
        power = (power ** (self.field.p**self.t - 1)).coeffs
        return _convolve(self.field, self.rows[-1], power, self.window)

    def __getitem__(self, n):
        i = self.index[n]
        lead = int(self.leads[i])
        return LaurentSeries._of(self.field, self.ram, -lead, self.rows[i], self.window - lead)

    def __iter__(self):
        return iter(self.index)

    def __len__(self):
        return len(self.index)


def _small_divisors(profile, ns, window):
    """n -> 1/(1 − λ^n) to ``window`` digits for every n >= 1 in ``ns``,
    equal in lead, rows and horizon to the exact inverse truncated to
    ``window`` digits, and λ^(−1) (``_DivisorTable.lam_inverse``).

    With n = p^s·u, p ∤ u (one array ``p_split``),
    1/(1 − λ^n) = Frob^s(1/(1 − λ^u)): row j, coefficient c, goes to row
    j·p^s, coefficient c^(p^(s mod r)).  An entry reads ⌈window/p^s⌉ rows
    of 1/(1 − λ^u), so λ^u is read modulo U^(v_m·e + ⌈window/p^t⌉), t the
    least s, from one ``_powers`` array up to the largest u.  One array
    pass finds the lead of every 1 − λ^u and compares each
    p^s·e·v(1 − λ^u) with ``small_divisor_leads``; the first faulty entry
    of ``ns`` raises PrecisionError (vanished to that width) or
    CertificateError (off the closed form).  One batched Newton run
    inverts the units of the distinct 1 − λ^u, and λ as one more entry
    with s = t, to ⌈window/p^t⌉ digits.  The entries with s > 0 are
    spread in one pass over all their rows, whatever their s, in chunks
    of entries that ``_per_batch`` sizes, each class of s mod r raised by
    one Frobenius call.  λ's spread λ^(−p^t) is the table's last row:
    λ^(−1) = λ^(p^t − 1)·λ^(−p^t) is formed only when ``lam_inverse`` is
    read.  The powers of λ are let go before the Newton run, and the unit
    stack once the run returns.
    """
    lam = profile.lam
    field_, ram, p, r = lam.field, lam.ram, lam.field.p, lam.field.r
    ns = np.array(ns, dtype=np.int64)
    ss, us = p_split(ns, p)
    distinct = np.bincount(us).nonzero()[0]  # np.unique would import numpy.ma
    slot = distinct.searchsorted(us)
    t = int(ss.min()) if ss.size else 0
    digits = -(-window // p**t)
    width = profile.v_m.numerator * ram // profile.v_m.denominator + digits
    powers = _rows(_powers(lam, int(distinct[-1]) if distinct.size else 0, width), width)
    # rows of 1 − λ^u that are nonzero: those of λ^u, but row 0 is
    # nonzero where λ^u's differs from 1
    one = np.zeros(r, dtype=np.int64)
    one[0] = 1
    nonzero = powers.any(axis=2)
    nonzero[:, 0] = (powers[:, 0] != one).any(axis=1)
    firsts = nonzero.argmax(axis=1)
    vanished = ~nonzero.any(axis=1)[us]
    del nonzero  # (n + 1) × width flags, not held through the inverse

    leads = p**ss * firsts[us]
    expected = small_divisor_leads(profile, ss, us)
    faulty = np.flatnonzero(vanished | (leads != expected))
    if faulty.size:
        i = int(faulty[0])
        if vanished[i]:
            raise PrecisionError(
                f"divisor 1 - lambda^{ns[i]} vanished to O(U^{p ** int(ss[i]) * width}); "
                "root of unity?"
            )
        raise CertificateError(
            f"divisor valuation {Fraction(int(leads[i]), ram)} != closed form "
            f"{Fraction(int(expected[i]), ram)} of 1 - lambda^{ns[i]}"
        )

    # the units of 1 − λ^u, and λ, an entry with s = t
    stack = np.zeros((distinct.size + 1, digits, r), dtype=np.int64)
    at = firsts[distinct, None] + np.arange(digits)
    units = stack[:-1]
    np.negative(powers[distinct[:, None], at], out=units)
    units[..., 0] += at == 0
    del units, at, powers
    stack %= p
    head = lam.coeffs[:window]
    stack[-1, : head.shape[0]] = head[:digits]
    ss, slot = np.append(ss, t), np.append(slot, distinct.size)
    inverses = _invert_unit(field_, stack, digits)
    del stack

    # every entry with s > 0 in one pass, in chunks of entries within the
    # budget: row j of its u's inverse goes to row j·p^s, raised to
    # p^(s mod r).  An entry reads at most ⌈window/p⌉ rows, each with its
    # r coordinates, about 7r more while its Frobenius powers are formed
    # and about eight int64 indices
    rows = inverses[slot] if t == 0 else np.empty((ss.size, window, r), dtype=np.int64)
    spread = (ss > 0).nonzero()[0]
    chunk = _per_batch(64 * (r + 1) * -(-window // p))
    for c in range(0, spread.size, chunk):
        part = spread[c : c + chunk]
        s_part = ss[part]
        steps = p**s_part
        reads = -(-window // steps)
        ends = reads.cumsum()
        at = np.arange(part.size).repeat(reads)
        j = np.arange(int(ends[-1])) - (ends - reads).repeat(reads)
        frob = inverses[slot[part][at], j]
        for k in set((s_part % r).tolist()) - {0}:
            pick = (s_part[at] % r == k).nonzero()[0]
            frob[pick] = field_.frobenius_rows(frob[pick], k)
        rows[part] = 0
        rows[part[at], j * steps.repeat(reads)] = frob
    return _DivisorTable(field_, ram, ns, leads, rows, window, t, head)


def _support(table):
    """(live, support): boolean arrays over the degrees 0 .. D, read off
    the min-plus table ``_dense._MinPlus(f, D)`` of a map f's leads.
    live[k] holds when k − 1 lies in the additive semigroup S generated
    by the shifts i − 1 of f's nonlinear degrees i <= D: it says where
    the running sum of ``solve_sfe`` has a live column.  support[k] says
    where b_k can be nonzero (the support K): at k = 1 and at every live
    k >= 2, for p-divisible maps only where p | k.

    An exact-start power f^l has a live column at x^k exactly when k − l
    is a sum of at most l shifts: its bases are the min-plus power of f's
    leads (``_dense``).  The sum Σ_{l<k} b_l f^l takes only the l ∈ K
    (the other b_l are exact zeros, and no b_l with l ∈ K is one), so it
    is live at x^k when some l ∈ K below k reaches k with at most l
    shifts; then k − 1 = (l − 1) + those shifts lies in S.  Conversely,
    for k − 1 = s_1 + … + s_t in S the part-count bound never binds:
    * a map with a degree prime to p steps from 1 through 1 + s_1,
      1 + s_1 + s_2, … one shift at a time, each step from a degree in K;
    * a p-divisible map has every shift ≡ −1 (mod p), so a degree of K
      past 1 takes t ≡ 1 (mod p) parts.  For t = 1, l = 1 reaches k by
      one part.  For t >= 2 the first 1 + p·⌊(t − 2)/p⌋ parts reach some
      l ∈ K, l >= p (each degree of f is), and the last 1 .. p parts, at
      most l, reach k.
    S is where that table is finite."""
    f, D = table.f, table.table.size - 1
    live = np.zeros(D + 1, dtype=bool)
    live[1:] = table.table[:D] < _INF_CUT
    support = live.copy()
    if f.divisible_degrees():
        support[1:] &= np.arange(1, D + 1) % f.field.p == 0
        support[1] = True
    return live, support


class _GapPowers:
    """Products by u^g for the gaps g a solve needs: u is the polynomial
    f^1, whose products go through ``mul_by_map`` by the columns of f it
    carries, or the stride f^p of a p-divisible map, multiplied by
    ``mul`` (``f`` None).

    A needed u^g (g >= 2) is built once, by a chain of products by u from
    the largest kept u^h with h < g, which keeps every needed power it
    passes.  The kept powers, each a polynomial and its packed factor (at
    most twice its bytes), take at most half of ``laurent._STACK_BYTES``,
    and a product's grid of bases the other half (``DensePoly.mul``); a
    gap past that cap is taken as g products by u."""

    def __init__(self, u, f, needed):
        self.u, self.f, self.needed, self.kept = u, f, needed, {}
        self.cap = _per_batch(4 * (u.data.nbytes + u.base.nbytes + u.prec.nbytes))

    def _by_u(self, x):
        return x.mul(self.u) if self.f is None else x.mul_by_map(self.f)

    def times(self, x, g):
        """x·u^g, for an exact-start power x and g >= 0.  A product by a
        built u^g carries the columns of f that u^g carries, so a later
        product by f does not install them again."""
        power = self.kept.get(g)
        if power is None:
            if g < 2 or len(self.kept) >= self.cap:
                for _ in range(g):
                    x = self._by_u(x)
                return x
            h = max((h for h in self.kept if h < g), default=1)
            power = self.kept.get(h, self.u)
            for j in range(h + 1, g + 1):
                power = self._by_u(power)
                if j in self.needed and len(self.kept) < self.cap:
                    self.kept[j] = power
        out = x.mul(power)
        out.map_columns = power.map_columns
        return out


def _support_miss(f, k, live):
    """The error of a sum at degree k that is live where the support says
    it is an exact zero, or the reverse (``live`` the prediction)."""
    return CertificateError(
        f"the sum at degree {k} is {'an exact zero' if live else 'live'}, "
        f"against the support of f's degrees {f.nonlinear_degrees}"
    )


def solve_sfe(f, D, window=32):
    """Degree-by-degree term matching: b_k = [x^k](Σ_{l<k} b_l f^l)
    divided by λ(1 − λ^{k-1}), solved on the support K of b.

    A p-divisible binomial map f = λx + a·x^N (p | N, N its one
    nonlinear degree) takes the binomial recurrence (``_solve_binomial``):
    every column of every power is a closed form, so no power of f is
    formed, and its coefficients are this solve's to the byte.  Every
    other map, including the binomial maps with p ∤ N (among them the
    p+1 family), takes the dense engine (``_solve_dense``), which stays
    the independent check of ``solve_specialized_p_plus_1``.  Both
    label their result "term-matching".
    """
    if D < 1:
        raise HypothesisError(f"degree D must be >= 1, got {D}")
    if window < 1:
        raise HypothesisError(f"window must be >= 1, got {window}")
    degrees = f.nonlinear_degrees
    if len(degrees) == 1 and degrees[0] % f.field.p == 0:
        return _solve_binomial(f, D, window, "term-matching")
    return _solve_dense(f, D, window)


def _solve_dense(f, D, window):
    """``solve_sfe`` on the dense engine, for D >= 1 and window >= 1.

    The loop runs over the support K (``_support``) alone.  The divisor
    table holds the degrees of K only, and f^k is formed only for k ∈ K
    below D, as f^{k'}·u^g: k' the previous degree of K, u = f, or the
    stride f^p (p − 1 products by f) for p-divisible maps, and g = (k −
    k')/step (``_GapPowers``).  Every honest route to f^k gives the same
    bases, horizons and data (``_dense``), and the sum adds the same b_l·f^l in
    the same order as the chain of every power (the b_l it skips are
    exact zeros, which add nothing), so every coefficient is the chain's
    to the byte.  b_k is one product of the sum's column by the rows of
    1/(λ − λ^k) = λ^(−1)·1/(1 − λ^(k−1)) (``DensePoly.column``): the
    divisor table's rows, all multiplied by ``lam_inverse`` in one batched
    product before the loop, which writes over them.  f's min-plus table
    is built once, by ``DensePoly.of_map``, and ``_support`` reads it.

    The prediction is checked at every degree, in order: the sum's column
    at x^k must be live exactly where ``_support`` says, else
    CertificateError, and off the support hold no data (an exact zero, or
    for p ∤ k of a p-divisible map a live column of proven zeros).  No
    sum writes below the degree it follows, so the columns are checked
    once, after the loop or before any error it raises.
    """
    profile = mult_profile(f.multiplier)
    field_, ram = f.field, f.ram
    one = LaurentSeries.constant(field_, 1, ram)
    exact_zero = LaurentSeries.zero(field_, ram, 0, exact=True)
    p = field_.p
    family = f.divisible_degrees()
    step = p if family else 1
    fpow = DensePoly.of_map(f, D, window)  # f^prev, prev the last degree of K formed
    live, support = _support(fpow.power[0])
    ks = (support[2:].nonzero()[0] + 2).tolist()
    divisor = _small_divisors(profile, [k - 1 for k in ks], window)
    rows = divisor.rows[:-1]  # 1/(λ − λ^k), in place of 1/(1 − λ^(k−1))
    rows[...] = _convolve(field_, rows, divisor.lam_inverse, window)
    # the gaps, in steps of u = f^step, between u and each f^k formed, k ∈ K below D
    formed = [step] + [k for k in ks if k < D]
    needed = {(k - prev) // step for prev, k in zip(formed, formed[1:])}

    def check(hi):
        """Every degree 2 .. hi - 1, in order, once no sum writes there: the
        sum's column is live exactly where ``_support`` says and, off the
        support, holds no data (columns are reduced and zero past their
        horizon, so it is zero as known): b_k is the exact zero."""
        miss = (acc.prec[2:hi] < _INF_CUT) != live[2:hi]
        held = _any(acc.data[2:hi].reshape(hi - 2, window * field_.r), axis=1)
        bad = (miss | held & ~support[2:hi]).nonzero()[0]
        if bad.size:
            k = 2 + int(bad[0])
            if miss[k - 2]:
                raise _support_miss(f, k, live[k])
            rows = _any(acc.data[k], axis=1).nonzero()[0]
            raise CertificateError(
                f"degree {k} should vanish off the support of f's degrees "
                f"{f.nonlinear_degrees}, got {acc.column(k)}, nonzero rows {rows.tolist()}"
            )

    acc = DensePoly(field_, ram, D, window)
    fpow.map_columns = (f, None)  # f^1 is f's columns: installed once
    acc.add_scaled(one, fpow)  # Σ so far = b_1 f^1
    if family and len(formed) > 1:  # u = f^p, multiplied only by ``mul``: free f's columns
        for _ in range(p - 1):
            fpow = fpow.mul_by_map(f)
        fpow.map_columns = None
    prev, gaps, b = step, _GapPowers(fpow, None if family else f, needed), []
    try:
        for n, k in enumerate(ks):
            # b_k: the sum's column times 1/(λ − λ^k), one product
            shift = int(divisor.leads[n])
            b.append(acc.column(k, (-shift, rows[n], window - shift)))
            if k < D:
                fpow = gaps.times(fpow, (k - prev) // step)
                prev = k
                acc.add_scaled(b[-1], fpow)
    except (CertificateError, PrecisionError):
        check(k + 1)  # a fault at a degree the loop passed comes first
        raise
    check(D + 1)
    # b_0 an exact zero, b_1 = 1 exact, and every b_k off the support
    coeffs = {1: one, **dict.fromkeys(range(2, D + 1), exact_zero), **dict(zip(ks, b))}
    rows = ((k, s.lead, s.prec, _kind(s)) for k, s in zip(ks, b))
    return Conjugacy(coeffs, profile, "term-matching", D, _valuations(ram, D, rows))


def _multinomial_mod_p(l, alphas, p):
    """l! / Π α_i! mod p: the product of the Lucas binomials
    C(α_1 + … + α_i, α_i), all from one array call."""
    if sum(alphas) != l:
        raise CertificateError(f"multiplicities {alphas} do not sum to {l}")
    alphas = np.array(alphas, dtype=np.int64)
    return math.prod(binomial_mod_p(np.cumsum(alphas), alphas, p).tolist()) % p


def _index_solutions(degrees, l, k):
    """All maps degree -> multiplicity with Σα = l and Σ(degree·α) = k.
    A map's degrees include 1, which comes last."""
    degrees = sorted(degrees, reverse=True)

    def rec(idx, rem_l, rem_k, current):
        d = degrees[idx]
        if d == 1:
            # degree 1 absorbs the remainder when consistent
            if rem_l == rem_k and rem_l >= 0:
                current[d] = rem_l
                yield dict(current)
                current.pop(d, None)
            return
        max_a = min(rem_l, rem_k // d)
        for a in range(max_a + 1):
            current[d] = a
            yield from rec(idx + 1, rem_l - a, rem_k - a * d, current)
        current.pop(d, None)

    yield from rec(0, l, k, {})


def solve_sfe_multinomial(f, D, window=32):
    """Independent solver enumerating the index equations
    Σα_i = l, Σ i·α_i = k with multinomial factors reduced mod p.

    Exponential in the support size; intended for small D as a
    cross-oracle of solve_sfe.
    """
    if D < 1:
        raise HypothesisError(f"degree D must be >= 1, got {D}")
    if window < 1:
        raise HypothesisError(f"window must be >= 1, got {window}")
    profile = mult_profile(f.multiplier)
    field_, ram = f.field, f.ram
    p = field_.p
    one = LaurentSeries.constant(field_, 1, ram)
    exact_zero = LaurentSeries.zero(field_, ram, 0, exact=True)
    degrees = sorted(f.coeffs)
    divisor = _small_divisors(profile, range(1, D), window)
    lam_inverse = LaurentSeries(field_, ram, 0, divisor.lam_inverse, window)

    coeffs = {1: one}
    for k in range(2, D + 1):
        total = None
        for l in range(1, k):
            b_l = coeffs[l]
            if b_l.is_exact_zero:
                continue
            for alpha in _index_solutions(degrees, l, k):
                mult = _multinomial_mod_p(
                    l, [alpha.get(i, 0) for i in degrees], p
                )
                if mult == 0:
                    continue
                term = one.scale(mult)
                for i in degrees:
                    if alpha.get(i, 0):
                        term = term * f.coeffs[i] ** alpha[i]
                term = term * b_l
                total = term if total is None else total + term
        if total is None or total.is_exact_zero:
            coeffs[k] = exact_zero
        else:
            coeffs[k] = total * divisor[k - 1] * lam_inverse  # / λ(1 − λ^(k−1))
    return Conjugacy(coeffs, profile, "multinomial", D)


def _p_plus_1_shape(f):
    """The single nonlinear coefficient a_{p+1} of f = λx + a x^{p+1}."""
    p = f.field.p
    degs = f.nonlinear_degrees
    if degs != [p + 1]:
        raise HypothesisError(
            f"expected the single nonlinear degree p+1 = {p + 1}, got {degs}"
        )
    return f.coeffs[p + 1]


def _binomial_terms(p, N, held):
    """The nonzero binomials C(l_i, J − i) mod p, l_i = 1 + i(N − 1), of
    the binomial recurrence over the held i < Jmax (``held[i]``, Jmax =
    ``held.size`` − 1), CSR-style: the terms of J = 1 .. Jmax are entries
    ``offsets[J-1]`` .. ``offsets[J]`` − 1 of ``i`` (a column) and ``c``.
    The row of each held J >= 1 starts with one padding entry
    (i, c) = (Jmax + 1, 0), so no held row is empty.

    Lucas on the last digit: with l = hp + d, 0 <= d < p, C(l, qp + t) ≡
    C(h, q)·C(d, t) for 0 <= t < p, which is 0 for t > d.  Every held l_i
    ends in the digit d_i <= 1: for N = p + 1, l_i = ip + 1 (h_i = i), and
    for p | N the held i are 0 (l = 1) and i ≡ 1 (mod p), whose l_i ≡ 0.
    So each q <= Q_i = min(h_i, ⌊(Jmax − i)/p⌋) serves J = i + qp
    (q >= 1) and, when d_i = 1, J = i + qp + 1 (<= Jmax), both with the
    binomial C(h_i, q); q <= h_i keeps J − i <= l_i.

    Lucas again: C(h, q) ≢ 0 exactly when every base-p digit q_t of q lies
    under h's digit h_t, and then C(h, q) ≡ Π_t C(h_t, q_t).  So only
    those q are formed, digit by digit from the most significant place
    P = p^t down.  A prefix, the digits of q above P with the rest 0, is
    kept while it is at most Q_i, and takes at P the digits 0 ..
    min(h_t, ⌊room/P⌋), room Q_i less the prefix: every kept prefix has a
    completion, its lower digits 0, so no level holds more prefixes than
    there are pairs (i, q) with a nonzero binomial.  Each binomial is
    g^e, e the sum over the digits of log h_t! − log q_t! −
    log (h_t − q_t)! as in ``_lucas``.  The held i go in chunks of whole
    i with at most ``_per_batch(96)`` candidates q <= Q_i between them, so a
    chunk holds at most that many prefixes: 96 bytes per candidate, the
    budget of the pass over every pair (i, q) this replaced, bounds the
    table's whole tracemalloc peak with room (11 to 55 bytes per
    candidate at F_2 .. F_13, Jmax = 1024 .. 4096).  The entries are
    sorted by J once, stably, so each padding entry stays first in its
    row.
    """
    Jmax = held.size - 1
    i = held[:Jmax].nonzero()[0]
    h, d = np.divmod(1 + i * (N - 1), p)
    Q = np.minimum(h, (Jmax - i) // p)
    log_fact, power = _log_factorials(p)
    places, place, most = [], 1, int(Q.max(initial=0))
    while place <= most:  # p^t for every digit of the largest q, from the top
        places.insert(0, place)
        place *= p
    digits = h[:, None] // places % p  # of every h, at each place
    upto = (Q + 1).cumsum()  # the candidates q <= Q_i up to each i
    step, lo = _per_batch(96), 0
    found = [np.zeros((3, 0), dtype=np.int64)]
    while lo < i.size:
        hi = max(lo + 1, int(upto.searchsorted(upto[lo] - Q[lo] - 1 + step, side="right")))
        at = np.arange(lo, hi)  # per prefix: its i, Q_i less the prefix, and e
        room, e = Q[lo:hi].copy(), np.zeros(hi - lo, dtype=np.int64)
        for place, top in zip(places, digits.T):
            top = top[at]
            ways = np.minimum(top, room // place)
            if not _any(ways):  # every prefix takes the digit 0
                continue
            ways += 1
            ends = ways.cumsum()
            digit = np.arange(int(ends[-1])) - (ends - ways).repeat(ways)
            at = at.repeat(ways)
            room = room.repeat(ways) - digit * place
            top = top.repeat(ways)
            e = e.repeat(ways) + log_fact[top] - log_fact[digit] - log_fact[top - digit]
        c = power[e % (p - 1)]
        found.append(np.stack((at, Q[at] - room, c)))
        lo = hi
    at, q, c = np.concatenate(found, axis=1)
    i = i[at]
    j = i + q * p
    low, high = q > 0, (d[at] == 1) & (j < Jmax)  # t = 0, and t = 1
    pads = held[1:].nonzero()[0] + 1  # one entry (Jmax + 1, 0) first in each held row
    j = np.concatenate((pads, j[low], j[high] + 1))
    # a stable sort keeps each padding entry first in its row; on the
    # smallest unsigned type that holds Jmax, a radix sort below 2^16
    order = j.astype(np.min_scalar_type(Jmax)).argsort(kind="stable")
    offsets = [0] + np.bincount(j, minlength=Jmax + 1)[1:].cumsum().tolist()
    i, c = (
        np.concatenate((np.zeros_like(pads) + pad, x[low], x[high]))[order]
        for x, pad in ((i, Jmax + 1), (c, 0))
    )
    return i[:, None], c, offsets


def _chunks(ends, step, segments, n0, n1):
    """The chunks (x0, x1, k0, k1, cuts) of the gather of the held indices
    n0 .. n1 − 1 of one block: the terms x0 .. x1 − 1 of k0 .. k1 − 1, at
    most ``step`` terms or one J, and the starts ``cuts`` of its J among
    them.  ``ends[n]`` is the first term of held index n, ``segments[n]``
    its offset in its block."""
    parts, k0 = [], n0
    while k0 < n1:
        k1 = max(k0 + 1, bisect_right(ends, ends[k0] + step, k0, n1 + 1) - 1)
        parts.append((ends[k0], ends[k1], k0, k1, segments[k0:k1] - segments[k0]))
        k0 = k1
    return parts


def _solve_binomial(f, D, window, source):
    """The conjugacy, labelled ``source``, of a binomial map f = λx + a·x^N,
    N >= 2 the one nonlinear degree of f: the recurrence of
    ``solve_specialized_p_plus_1`` (N = p + 1) and of ``solve_sfe``'s
    p-divisible binomial maps (p | N).  Each b_k is the
    dense term-matching solve's in lead, horizon, exactness and rows.

    The recurrence.  With s = N − 1, f^l = Σ_j C(l, j)·λ^{l−j}·a^j·x^{l+js},
    so from b_1 = x only the degrees 1 + Js are reached; write b_J for
    b_{1+Js} and l_i = 1 + is.  Matching x^{1+Js} gives

    b_J = (Σ_i C(l_i, J−i)·b_i·λ^{1+iN−J}·a^{J−i}) / (λ − λ^{1+Js})

    over the live terms: b_i not an exact zero and 1 <= J − i <= l_i, that
    is ⌈(J−1)/N⌉ <= i <= J − 1.  With B_i = b_i·λ^{Ni}·a^{−i} the term of
    b_i is C(l_i, J−i)·B_i·λ^{1−J}·a^J, so with T_J = 1/(λ^J − λ^{NJ}),
    E_J = 1/(1 − λ^{sJ}) and S_J = Σ_i C(l_i, J−i)·B_i,

        b_J = S_J·a^J·T_J,    B_J = S_J·(E_J − 1),

    as λ^{NJ}·T_J = λ^{sJ}·E_J = E_J − 1, and no inverse of a is formed.
    E_J is the divisor table's entry n = sJ.  By B's definition
    b_J = B_J·(a·λ^{−N})^J: B and its bounds are the recurrence's one
    state, and the valuation table and every b_J are read off it.  b_J
    is formed when first read, as one product by the ``_powers`` of
    a·λ^{−N}, formed with the table's λ^{−1} at the first read: a reader
    of the valuation table alone forms neither.

    The support.  The held i are those with b_{l_i} not an exact zero, as
    ``_support`` predicts (every i for p ∤ N; 0 and i ≡ 1 (mod p) for
    p | N, where p | l_i).  The sum at x^{1+Js} is live when a held i lies
    in ⌈(J−1)/N⌉ .. J − 1, and no other degree is reached; that must be
    ``_support``'s prediction at every degree, else CertificateError with
    the dense path's text.  A nonzero binomial at a J that is not held
    would give b_{1+Js} a digit where p ∤ 1 + Js: CertificateError.
    Only the held J >= 1 are solved, and the table divides only there.

    The horizon, by ``DensePoly.add_scaled``'s minimum rule.  The column
    of f^{l_i} at x^{1+Js} is exact with lead c = (J−i)·L(a), known to
    c + W in the dense engine, and holds digits exactly when its binomial
    is nonzero.  So the term of b_i caps the sum's horizon at c + P(b_i)
    for a nonzero binomial (P the horizon, L + W for the exact b_1), and
    at c + L(b_i) + W for a zero one, whose column holds no data (L the
    lead, or the horizon of a b_i zero to precision).  λ is a unit
    (``mult_profile`` rejects any other) and λ and a are exact
    (``PowerSeriesMap`` takes no other coefficients), so B_i has the
    digits of b_i at lead L(b_i) − i·L(a), and S_J is known below H_S,
    the least over the live terms of L(B_i) + digits(B_i) (nonzero
    binomial) and L(B_i) + W (zero binomial), with a B_i zero to
    precision at lead its horizon and no digits.  The zero caps bind for
    p | N (for N = p + 1 the term i = J − 1 has the binomial 1); they set
    the horizon of a live sum with no nonzero binomial, a zero to
    precision.  The term sum, S_J·λ^{1−J}·a^J, is known below
    H_S + J·L(a), and its lead differs from L(S_J) by the same J·L(a).
    So b_J = S_J·(a^J·T_J), with a^J·T_J known to ``window`` digits like
    the entry 1/(λ − λ^{1+Js}) the sum would be divided by, gets that
    quotient's lead, horizon, rows and exactness, and so does
    B_J·(a·λ^{−N})^J, B_J and the power each known to at least the
    digits of S_J.  Row k of a product depends
    only on rows <= k of its factors, so ``window`` rows of each power
    lose nothing: no B_i knows more than ``window`` digits (the exact
    b_1 = 1 is read to ``window`` digits, every later one is a sum times
    a ``window``-digit factor), so H_S − lo <= ``window``, lo the least
    L(B_i) with a nonzero binomial, or H_S when that is less.

    The loop, in Lucas blocks.  ``_binomial_terms`` forms the nonzero
    binomials of every J before it, CSR-style: flat arrays of i and c
    with Python-int offsets per J.  The J of J_0 .. J_0 + p − 1,
    J_0 ≡ 1 (mod p), make one block.  By its Lucas identity the terms of
    S_J are i = J − qp (q >= 1) and, when d_i = 1, i = J − 1 − qp
    (q >= 0), with the binomial C(h_i, q): the one term whose i lies in
    J's block is i = J − 1, for J > J_0 and N = p + 1, and its binomial
    is C(h, 0) = 1.  So S_J = B_{J−1} + O_J, where O_J reads only the B_i
    from before the block, all solved when the block starts.  A
    p-divisible map holds J ≡ 1 (mod p) only, one J per block, and O_J
    is all of S_J.

    Horizons.  For N = p + 1, B_J's horizon is h_J = H_S − L(1 − λ^{sJ})
    <= H_S, λ a unit, and every J >= 1 has the term i = J − 1 with
    binomial 1 (B_0 = 1 has h_0 = W), so H_S <= h_{J−1}: h never
    increases with J, and every row i < J caps at L(B_i) + digits(B_i) =
    h_i >= h_{J−1}, or at L(B_i) + W >= h_i for a zero binomial.  So
    H_S = h_{J−1} at every J, h_J = W less the divisor leads of
    1 .. J: the loop carries h in a Python int and reads no bound.  For
    p | N, J_0's horizon is the least over its terms' lead + digits and
    its zero cap, the least lead + W of the rows ⌈(J_0−1)/N⌉ .. J_0 − 1,
    two reductions of the bounds; where no term's lead lies below it,
    S_J is a zero to precision and nothing is gathered.

    The frames.  No B_i knows more than W digits (B_0 knows W, and below
    every B_J knows H_S − L(S_J) <= W), and a term with a nonzero
    binomial caps H_S at L(B_i) + digits(B_i), so every term of S_J, and
    B_{J−1} (whose lead + digits is H_S), has its lead at H_S − W or
    above: every digit of S_J lies in its frame, the W exponents
    H_S − W .. H_S − 1.  S_J is its frame, and its lead is the first
    nonzero row the scan finds (every row below a term's lead reads
    zero), so no least lead is formed, per J or per block.  Inside a
    block, H_S falls from J_0's by the divisor leads of the J before it
    (for N = p + 1; a p | N block holds J_0 alone), so each J's fall, and
    with it the place of its terms in its frame, is known before the
    loop.

    The gather.  ``origin[i]`` is the entry of B_i's U^0 in the flat
    array of B's rows, 1 + i·(W + 1) − L(B_i), set when B_i is solved and
    far below its zero entry before (a row of the block, a row not held,
    the padding row).  At each exponent t of its J's frame a term reads
    the entry origin[i] + t, or the zero entry before B_i where that lies
    below it; as t < H_S <= L(B_i) + digits(B_i), it never reads past
    B_i's digits.  Times the binomials (at p = 2 every binomial is 1, and
    a padding entry reads zeros) and summed per J by one ``reduceat``,
    the gather forms every O_J of the block, whole J at a time, as many
    terms as ``_per_batch`` allows.  Before the loop, from the CSR table
    and the divisor leads alone: the blocks, each J's first term and its
    offset in its block, each J's fall (a p | N block holds one J, at
    offset 0, that does not fall), and the chunks of every gather past
    the budget.  So a block pays its gather (and for p | N
    its reductions), and a J its term i = J − 1 added at the top of its
    frame, the mod, the scan and one product B_J = S_J·(E_J − 1).
    Each held J's CSR row starts with one padding entry (Jmax + 1, 0), a
    row of no digits, so no J's segment is empty.  A sum adds at most J
    addends c·x with c, x < p, below J·p² < 2^63 for J < 2^31 (p < 2^16).
    The loop writes B, ``origin`` and, for p | N, the bounds its
    reductions read, and reads E_J − 1, formed in place in the divisor
    table's rows before it.  Each J's lead and horizon stay Python ints,
    and after the loop fill the ``ValuationTable``: b_J has B_J's lead
    and horizon plus J·L(a), a zero to precision where the two are equal
    (S_J has no digits).  The verdicts read the table, and build no b_J.
    The result keeps B, and of the divisor table only λ's spread row,
    λ's head and t, from which λ^(−1) is formed.
    """
    (N,) = f.nonlinear_degrees
    a = f.coeffs[N]
    profile = mult_profile(f.multiplier)
    field_, ram = f.field, f.ram
    p, r, W, s = field_.p, field_.r, window, N - 1
    one = LaurentSeries.constant(field_, 1, ram)
    exact_zero = LaurentSeries.zero(field_, ram, 0, exact=True)
    Jmax = (D - 1) // s
    live, support = _support(_MinPlus(f, D))
    held = support[1::s]  # b_{1+is} is not an exact zero, i = 0 .. Jmax
    Js = np.arange(1, Jmax + 1)
    below = np.concatenate(([0], np.cumsum(held)))  # held i below each index
    reached = np.zeros(D + 1, dtype=bool)
    reached[1 + s :: s] = below[Js] > below[(Js + N - 2) // N]
    missed = (reached[2:] != live[2:]).nonzero()[0]
    if missed.size:
        k = int(missed[0]) + 2
        raise _support_miss(f, k, live[k])
    I, C, offsets = _binomial_terms(p, N, held)
    off = ((np.diff(offsets) > 0) & ~held[1:]).nonzero()[0]
    if off.size:
        raise CertificateError(
            f"degree {1 + (int(off[0]) + 1) * s} should vanish for p-divisible "
            "maps, got a nonzero binomial"
        )

    Ks = held[1:].nonzero()[0] + 1  # the J >= 1 solved
    E = _small_divisors(profile, s * Ks, W)
    # E_J has lead −lead_T[n], and U^0 sits at row lead_T[n]; G[n] is
    # E_J − 1, with the same lead, formed in place: nothing else reads E_J
    G, lead_T = E.rows, E.leads
    inside = (lead_T < W).nonzero()[0]
    u0 = inside, lead_T[inside], 0  # the coefficient of U^0
    G[u0] = (G[u0] - 1) % p

    # B_i's rows, after one zero entry: row t of B_i is entry 1 + i·(W + 1) + t
    # and its row W is zero.  Row Jmax + 1, the padding entries' row, has no
    # digits and bounds past any horizon, like a row not held or not solved;
    # ``origin[i]`` is the entry of B_i's U^0, 1 + i·(W + 1) − L(B_i), far
    # below its zero entry while B_i is not solved
    flat = np.zeros((1 + (Jmax + 2) * (W + 1), r), dtype=np.int64)
    B = flat[1:].reshape(Jmax + 2, W + 1, r)
    B[0, 0, 0] = 1
    bounds = np.full((Jmax + 2, 2), _INF_CUT, dtype=np.int64)  # L(B_i), L(B_i) + digits
    bounds[0] = 0, W
    origin = np.full(Jmax + 2, -_INF_CUT, dtype=np.int64)
    origin[0] = 1

    # the blocks, from the CSR table and the divisors' leads alone: the held
    # indices n0 .. n1 − 1 of each, its first J, each held J's terms and
    # its fall (the divisor leads of its block's J before it), and the
    # chunks of the gathers that pass the budget, each with the segment
    # starts of its J
    solved, Is, floor, C = Ks.tolist(), I[:, 0], I * (W + 1), C[:, None, None]
    alone = N != p + 1  # p | N: the held J are 1 (mod p), one per block
    size = 1 if alone else p
    n0 = list(range(0, len(solved), size))
    n1 = n0[1:] + [len(solved)]
    J0 = [solved[n] for n in n0]
    ends = [offsets[J - 1] for J in solved] + [len(C)]  # each held J's first term
    if alone:  # each J's terms start its block, and no J falls
        segments = np.zeros(len(solved), dtype=np.int64)
    else:
        starts = np.array(ends[:-1], dtype=np.int64)
        segments = starts - starts[::size].repeat(size)[: starts.size]
        before, sizes = lead_T.cumsum() - lead_T, np.diff(ends)
        fall = before - before[::size].repeat(size)[: before.size]
    step = _per_batch(8 * (r + 1) * W)
    chunks = {
        a: _chunks(ends, step, segments, a, b)
        for a, b in zip(n0, n1)
        if ends[b] - ends[a] > step
    }
    lead_T, ramp = lead_T.tolist(), np.arange(W)
    out, H = [], W  # (L(B_J), its horizon) per held J; h_0
    for n0, n1, J0 in zip(n0, n1, J0):
        e0, e1, rows = ends[n0], ends[n1], W
        if alone:  # J_0 alone in its block: the least over its terms and its zero cap
            lo, hi = np.minimum.reduce(bounds[Is[e0:e1]]).tolist()
            H = min(hi, int(np.minimum.reduce(bounds[(J0 + N - 2) // N : J0, 0])) + W)
            if lo >= H:  # no term has a digit below it: S_J is a zero to precision
                rows = 0
        # O_J at the exponents H_J − W .. H_J − 1, H_J = H less J's fall
        old = np.empty((n1 - n0, rows, r), dtype=np.int64)
        if rows:
            for x0, x1, k0, k1, cuts in chunks.get(n0) or ((e0, e1, n0, n1, segments[n0:n1]),):
                lift = origin[Is[x0:x1]]
                if not alone:  # a J past J_0 reads the frame below its own horizon
                    lift -= fall[k0:k1].repeat(sizes[k0:k1])
                at = np.add.outer(lift, (H - W) + ramp)
                np.maximum(at, floor[x0:x1], out=at)  # B_i's zero entry
                frame = flat.take(at, axis=0, mode="clip")
                if p > 2:  # at p = 2 every binomial is 1, and a padding entry reads zeros
                    frame *= C[x0:x1]
                np.add.reduceat(frame, cuts, axis=0, out=old[k0 - n0 : k1 - n0])
            del at, frame
        for n in range(n0, n1):
            J, S = solved[n], old[n - n0]
            if n > n0:  # B_{J−1}, its term i = J − 1: its digits end at h_{J−1} = H
                S[W - digits :] += B[J - 1, :digits]
            S %= p
            nonzero = S.nonzero()[0]  # rows, ascending
            first = H
            if nonzero.size:
                S = S[int(nonzero[0]) :]
                first = H - S.shape[0]
                B[J, : H - first] = _convolve(field_, S, G[n], H - first)
            last, digits = first - lead_T[n], H - first
            H -= lead_T[n]
            out.append((last, H))
            origin[J] = 1 + J * (W + 1) - last
        if alone:
            bounds[J0] = last, H

    # b_J = B_J·(a·λ^(−N))^J: lead and horizon shift by J·L(a)
    table = _valuations(ram, D, (
        (1 + s * J, L + a.lead * J, H + a.lead * J, NONZERO if L < H else COMPUTED_ZERO)
        for J, (L, H) in zip(solved, out)
    ))
    powers = []  # of a·λ^(−N)
    # λ^(−1) needs only λ's spread row, λ's head and t: a table of those
    # alone, so the result does not keep the divisor rows alive
    E = _DivisorTable(field_, ram, (), (), G[-1:].copy(), W, E.t, E.head)

    def coefficient(k):  # b_k = B_J·(a·λ^(−N))^J for k = 1 + Js, J held
        if k == 1:
            return one
        if table.kind[k] == STRUCTURAL:
            return exact_zero
        J, lead, prec = (k - 1) // s, table.lead[k], table.prec[k]
        rows = B[J, :0]
        if prec > lead:
            if not powers:
                over = a * LaurentSeries(field_, ram, 0, E.lam_inverse, W) ** N
                powers.append(_rows(_powers(over, Jmax, W), W))
            rows = _convolve(field_, B[J, : prec - lead], powers[0][J], prec - lead)
        return LaurentSeries._of(field_, ram, lead, rows, prec)

    return Conjugacy(_Coefficients(D, coefficient), profile, source, D, table)


def solve_specialized_p_plus_1(f, Jmax, window=32):
    """Conjugacy of f = λx + a x^{p+1} via the closed recurrence on the
    supported degrees jp + 1 (b_j stands for b_{jp+1} here):

    b_j = (Σ_{i=⌈(j-1)/(p+1)⌉}^{j-1} b_i·C(ip+1, j-i)·λ^{ip+1-(j-i)}·a^{j-i})
          / (λ(1 − λ^{jp}))

    with binomials mod p by Lucas.  All other degrees are structural
    zeros.  Solves up to degree D = Jmax·p + 1: the binomial recurrence
    (``_solve_binomial``) at N = p + 1, whose coefficients are built when
    first read.  The term i = j − 1 has C((j−1)p+1, 1) ≡ 1, so no sum is
    empty and no b_j is an exact zero.
    """
    if Jmax < 0:
        raise HypothesisError(f"Jmax must be >= 0, got {Jmax}")
    if window < 1:
        raise HypothesisError(f"window must be >= 1, got {window}")
    _p_plus_1_shape(f)
    return _solve_binomial(f, Jmax * f.field.p + 1, window, "specialized")


@dataclass(frozen=True)
class ZeroReport:
    applicable: bool
    violations: list


def check_structural_zeros(g, f):
    """For p-divisible maps, every b_k with k > 1 and p ∤ k must vanish."""
    if not f.divisible_degrees():
        return ZeroReport(False, [])
    p, kind = f.field.p, g.valuations.kind.tolist()
    return ZeroReport(True, [k for k in range(2, g.D + 1) if k % p != 0 and kind[k] == NONZERO])


@dataclass(frozen=True)
class BoundReport:
    applicable: bool
    margins: dict  # k -> Fraction margin, or None when b_k vanishes
    violations: list


def check_coefficient_bound(g, gauge, f):
    """The Lemma bound v(b_k) >= (k-1)·A − v_m·count_resonant(k)
    (``lemma_bound``) for p-divisible maps f with gauge A; a b_k known only
    as O(U^h), h below its bound, cannot be checked: PrecisionError.

    All bounds are Python integers over lcm(den A, den v_m, e) from one
    pass of ``lemma_bound``, compared with each lead or horizon of g's
    ``ValuationTable`` on that scale; each margin is one ``Fraction``."""
    if not f.divisible_degrees():
        return BoundReport(False, {}, [])
    table, ks = g.valuations, range(2, g.D + 1)
    den = math.lcm(gauge.A.denominator, g.profile.v_m.denominator, table.ram)
    scale = den // table.ram
    bounds = lemma_bound(g.profile, gauge.A, np.array(ks, dtype=object), den)
    rows = (table.lead[2:].tolist(), table.prec[2:].tolist(), table.kind[2:].tolist())
    margins, violations = {}, []
    for k, bound, lead, prec, kind in zip(ks, bounds.tolist(), *rows):
        if kind == COMPUTED_ZERO and prec * scale < bound:
            raise PrecisionError(
                f"b_{k} = O(U^{prec}), below the Lemma bound {Fraction(bound, den)}"
            )
        margin = lead * scale - bound
        margins[k] = Fraction(margin, den) if kind == NONZERO else None
        if kind == NONZERO and margin < 0:
            violations.append(k)
    return BoundReport(True, margins, violations)


@dataclass(frozen=True)
class DivergenceCertificate:
    """Exact valuations of b_{p^N + 1} against the predicted closed form.

    The verdict "conjectural" marks the m > 1 regime where the
    dominant-term argument is not available: growth data only, no
    divergence claim.
    """

    entries: list  # (N, degree, computed: Fraction, predicted: Fraction|None)
    slopes: list  # Fraction v(b_k)/k per entry
    verdict: str  # "diverges" or "conjectural"
    profile: object

    @property
    def conjectural(self):
        return self.verdict == "conjectural"

    def csv(self):
        tag = ",conjectural" if self.conjectural else ""
        lines = ["N,k,v_num,v_den,predicted_num,predicted_den" + (",note" if tag else "")]
        for N, k, computed, predicted in self.entries:
            pred = (
                f"{predicted.numerator},{predicted.denominator}"
                if predicted is not None
                else ","
            )
            lines.append(
                f"{N},{k},{computed.numerator},{computed.denominator},{pred}{tag}"
            )
        return "\n".join(lines) + "\n"


def certify_divergence(f, Nmax, window=32):
    """Certificate that f = λx + a x^{p+1} with m(λ) = 1 is not
    analytically linearizable: v(b_{p^N+1}) is checked against
    p^{N-1}·v(a) − v_1·p^N·(1 + (p-1)(N-1)/p) for N = 1..Nmax, and the
    slope v(b_k)/k decreases without bound.  The shape of f and the
    profile of λ are those of the one solve, which checks them.

    For m > 1 growth data is returned with verdict "conjectural"; the
    exact-modulus formula need not hold there.
    """
    if Nmax < 1:
        raise HypothesisError(f"Nmax must be >= 1, got {Nmax}")
    p, ram = f.field.p, f.ram
    g = solve_specialized_p_plus_1(f, p ** (Nmax - 1), window)
    profile, table = g.profile, g.valuations
    proven = profile.m == 1
    v_a = Fraction(f.coeffs[p + 1].lead, ram)
    # every N's sum of the small divisors, checked against its closed form
    products = product_small_divisors(profile, range(1, Nmax + 1)) if proven else None
    entries, slopes = [], []
    for N in range(1, Nmax + 1):
        j = p ** (N - 1)
        k = j * p + 1
        if table.kind[k] != NONZERO:
            raise PrecisionError(f"b_{k} vanished to precision; cannot certify")
        computed = Fraction(table.lead[k], ram)
        predicted = None
        if proven:
            predicted = j * v_a - products[N - 1]
            if computed != predicted:
                raise CertificateError(
                    f"divergence valuation mismatch at N={N}: computed {computed}, "
                    f"predicted {predicted}"
                )
        entries.append((N, k, computed, predicted))
        slopes.append(Fraction(computed, k))
    if proven and any(not nxt < prev for prev, nxt in zip(slopes, slopes[1:])):
        raise CertificateError("divergence slope failed to decrease")
    return DivergenceCertificate(
        entries, slopes, "diverges" if proven else "conjectural", profile
    )
