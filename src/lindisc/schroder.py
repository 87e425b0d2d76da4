"""Formal solutions g of g∘f = λ·g (normalized g(0) = 0, g'(0) = 1),
their structural and valuation properties, divergence certificates for
the degree-(p+1) family, and conjugacy residual checks at sample points.

Three independent solvers are provided: term matching against the
accumulated powers of f (the workhorse), the multinomial recurrence
(partition enumeration, small degrees), and the specialized recurrence
for f = λx + a_{p+1} x^{p+1} whose conjugacy is supported on degrees
j·p + 1.  All three divide through one table (``_small_divisors``),
built once per solve: the window-digit inverse of every divisor the
solver meets, from windowed powers of λ (``_powers``) and one batched
Newton inverse.  The first two divide by λ − λ^k = λ(1 − λ^{k-1}); the
specialized recurrence folds λ^{(p+1)i}·a^{-i} into its coefficients,
so each of its sums is one F_p dot product, and divides by
λ^j − λ^{(p+1)j} = λ^j(1 − λ^{pj}).  The division never destroys the
justified horizon: the multiplier is an exact literal, so each divisor
is known to any number of digits and its reciprocal is expanded to the
full working width.  Only those digits are formed.  In characteristic
p, 1 − λ^{p^s·u} is the s-th Frobenius image of 1 − λ^u, and for p ∤ u
the valuation of 1 − λ^u is 0 or v_m, so λ^u is read modulo
U^(v_m·e + window) and never beyond, from one table of powers grown
by doubling (``_PowerTable``).  Each time, a divisor that vanishes to
that window raises PrecisionError and one whose valuation is not the
closed form v(1 − λ^n) raises CertificateError.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._dense import DensePoly
from .errors import CertificateError, HypothesisError, PrecisionError
from .laurent import _STACK_BYTES, LaurentSeries, _convolve, _invert_unit
from .multiplier import (
    lemma_bound,
    mult_profile,
    p_split,
    product_small_divisor_sums,
    small_divisor_valuation,
)
from .powerseries import (
    _table_derivative,
    binomial_mod_p,
    eval_table,
    newton_root,
    ps_eval,
)

STRUCTURAL = "structural"
COMPUTED_ZERO = "computed-zero"
NONZERO = "nonzero"


def _zero_kind(series):
    """How a coefficient's vanishing (or not) is known: an exact zero is
    structural, a zero to precision is computed."""
    if not series.is_zero_as_known:
        return NONZERO
    return STRUCTURAL if series.exact else COMPUTED_ZERO


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
    builds b_k when first read (``solve_specialized_p_plus_1``)."""

    coeffs: Mapping
    profile: object
    source: str
    D: int

    @cached_property
    def zero_kind(self):
        """Degree -> STRUCTURAL, COMPUTED_ZERO or NONZERO."""
        return {k: _zero_kind(s) for k, s in self.coeffs.items()}

    def coefficient(self, k):
        if k > self.D:
            raise HypothesisError(f"degree {k} beyond solved bound {self.D}")
        return self.coeffs[k]

    def valuation(self, k):
        return self.coefficient(k).valuation()

    def table(self):
        """Coefficient table for evaluation (zero entries dropped)."""
        return {k: s for k, s in self.coeffs.items() if not s.is_zero_as_known}

    def csv(self):
        lines = ["k,v_num,v_den,zero_kind"]
        for k in range(1, self.D + 1):
            v = self.valuation(k)
            num, den = ("inf", 1) if v is None else (v.numerator, v.denominator)
            lines.append(f"{k},{num},{den},{self.zero_kind[k]}")
        return "\n".join(lines) + "\n"


# most r × r coordinate products per slice of one batched product that
# grows a power table: the fixed cost of one ``_convolve`` call in units
# of its time per coordinate product.  Batching c powers saves c - 1
# calls and pays for every slice's products, so it gains only while a
# slice costs less than one call.  Measured at 2^13.8 .. 2^14.8 for
# r = 1, 2, 3, 8 (Xeon, numpy 2.4; integer matrix products use one core)
_SLICE_PRODUCTS = 1 << 14


def _powers(x, width):
    """The windowed power table of a series x to ``width`` rows
    (``_PowerTable``)."""
    return _PowerTable(x, width)


class _PowerTable:
    """Windowed powers of a series x: ``table(n, rows)`` is the first
    ``rows`` rows of x^n past its lead n·x.lead, and ``table.upto(n,
    rows)`` stacks them for x^0 .. x^n, for rows <= width.

    The powers are one array of ``width`` rows each, zero rows included.
    With x^0 .. x^(L-1) stored, one batched product of x^(L-c) .. x^(L-1)
    by x^c adds x^L .. x^(L+c-1); c = L - 1 doubles the table, so n
    powers cost ⌈log2 n⌉ products.  A slice of it costs (width + l - 1)·l
    coordinate products, l the rows of x^c, so c is capped where that
    passes ``_SLICE_PRODUCTS``, and where the product's result passes
    ``_STACK_BYTES``: a short x in a wide window grows a few powers per
    product, or one by the unbatched path.  Row j of a product depends
    only on rows <= j of its factors, so every stored row is a row of the
    exact x^n.  A read past the width raises CertificateError."""

    def __init__(self, x, width):
        self.field, self.width = x.field, width
        r = x.field.r
        base = x.coeffs[:width]
        self.rows = np.zeros((2, width, r), dtype=np.int64)
        self.rows[0, 0, 0] = 1
        self.rows[1, : base.shape[0]] = base
        self.count = 2  # x^0 .. x^(count-1) are formed
        # x^c has min(width, c·degree + 1) rows, and a product by it
        # min(width, c·degree + 1) + width - 1
        nonzero = np.flatnonzero(base.any(axis=1))
        self.degree = int(nonzero[-1]) if nonzero.size else 0
        self.most = max(1, _STACK_BYTES // (8 * (2 * width - 1) * r))
        # ``span``: the most rows x^c may have for a slice within the cap
        budget = _SLICE_PRODUCTS // r**2
        span = (math.isqrt((width - 1) ** 2 + 4 * budget) - (width - 1)) // 2
        if self.degree and span < width:
            self.most = min(self.most, max(1, (span - 1) // self.degree))

    def __call__(self, n, rows):
        return self.upto(n, rows)[n]

    def upto(self, n, rows):
        if rows > self.width:
            raise CertificateError(
                f"read of {rows} rows of a power past its table's width {self.width}"
            )
        have = self.count
        if n >= have:
            if n >= self.rows.shape[0]:  # room for n + 1 powers, at least double
                grown = np.empty(
                    (max(n + 1, 2 * have),) + self.rows.shape[1:], dtype=np.int64
                )
                grown[:have] = self.rows[:have]
                self.rows = grown
            while have <= n:
                c = min(have - 1, n + 1 - have, self.most)
                # one power takes the unbatched path, which skips zero coordinates
                stack = self.rows[have - 1] if c == 1 else self.rows[have - c : have]
                rows_c = min(self.width, c * self.degree + 1)
                step = _convolve(self.field, stack, self.rows[c, :rows_c])
                self.rows[have : have + c] = step[..., : self.width, :]
                have += c
            self.count = have
        return self.rows[: n + 1, :rows]


class _DivisorTable(Mapping):
    """k -> 1/(λ^i − λ^k) to ``window`` digits, as ``_small_divisors``
    tabulates it.  The n-th divisor has valuation ``leads[n]`` (U-units)
    and ``rows[n]`` holds the ``window`` rows of its reciprocal past that
    reciprocal's lead −leads[n].  An entry's LaurentSeries is built when
    a solver reads it."""

    def __init__(self, field_, ram, ks, leads, rows, window, lam_power):
        self.field, self.ram, self.window = field_, ram, window
        self.index = {k: n for n, k in enumerate(ks)}
        self.leads, self.rows, self.lam_power = leads, rows, lam_power

    def __getitem__(self, k):
        n = self.index[k]
        lead = int(self.leads[n])
        return LaurentSeries(self.field, self.ram, -lead, self.rows[n], self.window - lead)

    def __iter__(self):
        return iter(self.index)

    def __len__(self):
        return len(self.index)


def _small_divisors(profile, ks, window, lows=None):
    """k -> 1/(λ^i − λ^k) to ``window`` digits for every k in ``ks``,
    where i = 1, or i = lows[n] for the n-th k: the table all three
    solvers divide by, equal in lead, rows and horizon to the inverse of
    λ^i − λ^k formed exactly and truncated to ``window`` digits.

    λ^i − λ^k = λ^i(1 − λ^{k-i}), and λ^i is a unit.  Write k − i = p^s·u
    with p ∤ u.  Then 1 − λ^{k-i} = Frob^s(1 − λ^u): row t with
    coefficient c goes to row t·p^s with coefficient c^(p^s), and
    c^(p^s) = c^(p^(s mod r)) in F_q.  For p ∤ u, v(1 − λ^u) is 0 when
    m ∤ u and v_m otherwise, so the ``window`` digits past the lead read
    λ^u only modulo U^(v_m·e + window).

    The powers λ^0 .. λ^u for the largest u (and i) are one read of a
    ``_powers`` table, and the first nonzero row of every 1 − λ^u is one
    array pass over it.  Then, entry by entry in the order of ``ks``, a
    divisor that vanishes to the window raises PrecisionError and a
    valuation p^s·v(1 − λ^u) off the closed form ``small_divisor_valuation``
    raises CertificateError.  The ``window`` rows of the units
    (1 − λ^{k-i})/U^lead are gathered from the table for all entries with
    one s at once, only the rows each keeps and in chunks within
    ``_STACK_BYTES``, with one ``pow_rows`` per chunk; they are multiplied
    by λ^i (one batched product), stacked and inverted by one batched
    Newton run.
    """
    lam = profile.lam
    field_, ram, p, r = lam.field, lam.ram, lam.field.p, lam.field.r
    width = int(profile.v_m * ram) + window
    lam_power = _powers(lam, width)
    scaled = lows is not None  # each unit times its own λ^i, else all times λ
    lows = list(lows) if scaled else [1] * len(ks)
    splits = [p_split(k - i, p) for k, i in zip(ks, lows)]
    us = [u for _, u in splits]
    powers = lam_power.upto(max(us + (lows if scaled else []), default=0), width)
    # rows of 1 − λ^u that are nonzero: those of λ^u, but row 0 is
    # nonzero where λ^u's differs from 1
    one = np.zeros(r, dtype=np.int64)
    one[0] = 1
    nonzero = powers.any(axis=2)
    nonzero[:, 0] = (powers[:, 0] != one).any(axis=1)
    firsts = nonzero.argmax(axis=1)
    vanished = (~nonzero.any(axis=1)).tolist()
    first_of = firsts.tolist()
    del nonzero  # (n + 1) × width flags, not held through the inverse

    leads = np.zeros(len(ks), dtype=np.int64)
    for n, (k, i, (s, u)) in enumerate(zip(ks, lows, splits)):
        if vanished[u]:
            raise PrecisionError(
                f"divisor 1 - lambda^{k-i} vanished to O(U^{p**s * width}); "
                "root of unity?"
            )
        lead = p**s * first_of[u]
        expected = small_divisor_valuation(profile, k - i)
        if lead * expected.denominator != expected.numerator * ram:
            raise CertificateError(
                f"divisor valuation {Fraction(lead, ram)} != closed form "
                f"{expected} at k = {k}"
            )
        leads[n] = lead

    units = np.zeros((len(ks), window, r), dtype=np.int64)
    us = np.array(us, dtype=np.int64)
    ss = np.array([s for s, _ in splits], dtype=np.int64)
    for s in sorted(set(ss.tolist())):
        step = p**s
        count = -(-window // step)  # rows of 1 − λ^u that reach the window
        entries = np.flatnonzero(ss == s)
        chunk = max(1, _STACK_BYTES // (8 * count * (r + 1)))
        for c in range(0, entries.size, chunk):
            part = entries[c : c + chunk]
            at = firsts[us[part], None] + np.arange(count)
            d = powers[us[part, None], at]
            np.negative(d, out=d)
            d[..., 0] += at == 0
            d %= p
            d = field_.pow_rows(d.reshape(-1, r), p ** (s % r))
            units[part, ::step] = d.reshape(part.size, count, r)
    if scaled:
        scale = powers[np.array(lows, dtype=np.int64), :window]
    else:
        scale = lam.coeffs[:window]
    units = _convolve(field_, units, scale)[:, :window]
    inverses = _invert_unit(field_, units, window)
    return _DivisorTable(field_, ram, ks, leads, inverses, window, lam_power)


def solve_sfe(f, D, window=32):
    """Degree-by-degree term matching: b_k = [x^k](Σ_{l<k} b_l f^l)
    divided by λ(1 − λ^{k-1}).

    When every nonlinear degree of f is divisible by p, coefficients of
    degree k > 1 with p ∤ k are proven zero and short-circuited, so only
    the powers f^{pj} enter the sum: f^p is formed by p − 1 products by f,
    and each later f^{p(j+1)} as f^{pj}·f^p.  Other maps form every f^k
    as f^{k-1}·f.  The sum is read at every degree, so the proven zeros
    are checked against the computed products.
    """
    profile = mult_profile(f.multiplier)
    field_, ram = f.field, f.ram
    one = LaurentSeries.constant(field_, 1, ram)
    exact_zero = LaurentSeries.zero(field_, ram, 0, exact=True)
    p = field_.p
    family = f.divisible_degrees()
    step = p if family else 1
    divisor = _small_divisors(
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
            if acc.data[k].any():
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
                    stride = fpow
            acc.add_scaled(b_k, fpow)
    return Conjugacy(coeffs, profile, "term-matching", D)


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
    profile = mult_profile(f.multiplier)
    field_, ram = f.field, f.ram
    p = field_.p
    one = LaurentSeries.constant(field_, 1, ram)
    exact_zero = LaurentSeries.zero(field_, ram, 0, exact=True)
    degrees = sorted(f.coeffs)
    divisor = _small_divisors(profile, range(2, D + 1), window)

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
            coeffs[k] = total * divisor[k]
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


# rows j of binomials C(ip+1, j-i) that ``solve_specialized_p_plus_1``
# forms in one call of ``binomial_mod_p``
_BINOMIAL_ROWS = 32


def solve_specialized_p_plus_1(f, Jmax, window=32):
    """Conjugacy of f = λx + a x^{p+1} via the closed recurrence on the
    supported degrees jp + 1 (b_j stands for b_{jp+1} here):

    b_j = (Σ_{i=⌈(j-1)/(p+1)⌉}^{j-1} b_i·C(ip+1, j-i)·λ^{ip+1-(j-i)}·a^{j-i})
          / (λ(1 − λ^{jp}))

    with binomials mod p by Lucas.  All other degrees are structural
    zeros.  Solves up to degree D = Jmax·p + 1.

    The fold.  The term of b_i is C(ip+1, j-i)·B_i·λ^{1-j}·a^j with
    B_i = b_i·λ^{(p+1)i}·a^{-i}, so with T_j = 1/(λ^j − λ^{(p+1)j}) and
    S_j = Σ_i C(ip+1, j-i)·B_i,

        b_j = S_j·a^j·T_j,    B_j = S_j·λ^{(p+1)j}·T_j,

    and no inverse of a or λ is formed.  T_j comes from the divisor
    table, whose Newton run inverts the unit of λ^j(1 − λ^{pj}), and
    λ^{(p+1)j}·T_j = λ^{pj}/(1 − λ^{pj}) = λ^j·T_j − 1.  Both factor
    stacks, a^j·T_j and λ^j·T_j − 1, are one batched product each, of
    ``window`` rows of λ^1 .. λ^Jmax and a^1 .. a^Jmax, each one slice of
    a ``_powers`` table (λ's is the divisor table's).  S_j is an
    F_p-linear combination of the rows of the B_i, aligned by lead: one
    integer dot product of the j-th row of binomials against the
    gathered rows, reduced mod p.  Per j that and the product
    B_j = S_j·(λ^{(p+1)j}·T_j) are the only work.  The returned
    ``Conjugacy`` keeps S_j and a^j·T_j and forms b_j = S_j·(a^j·T_j),
    one product, when b_{jp+1} is first read: ``certify_divergence``
    reads Nmax of the Jmax coefficients.  The rows of each B_i are
    stored past its lead, ``window`` + 1 of them with the last always
    zero, and the gather reads row t − lead(B_i) at each exponent t,
    the zero row where that is negative.

    The horizon.  λ is a unit (``mult_profile`` rejects any other), and
    λ and a are exact (``PowerSeriesMap`` takes no other coefficients),
    so B_i has the digits of b_i at lead L(b_i) − i·L(a), and S_j is
    known below H_S, the least L(B_i) + digits(B_i) over the nonzero
    binomials (a B_i that is zero to precision caps H_S and adds no
    rows).  The term sum of the recurrence, S_j·λ^{1-j}·a^j, is known
    below H = H_S + j·L(a), and L(S_j) and L(sum) differ by that same
    j·L(a).  So b_j = S_j·(a^j·T_j), with a^j·T_j known to ``window``
    digits like the table entry 1/(λ − λ^{jp+1}) the sum would be
    divided by, gets the lead, horizon, rows and exactness that
    quotient gets.  Row k of a product depends only on rows <= k of its
    factors, so ``window`` rows of each power lose nothing: no B_i
    knows more than ``window`` digits (the exact b_0 = 1 is read to
    ``window`` digits, every later one is a sum times a ``window``-digit
    factor), so H_S − min L(B_i) <= ``window``.  The term i = j − 1 has
    C((j−1)p+1, 1) ≡ 1, so no sum is empty and no b_j is an exact zero.

    The binomials come ``_BINOMIAL_ROWS`` rows j at a time from the array
    form of ``binomial_mod_p``; below i = ⌈(j−1)/(p+1)⌉, j − i > ip + 1
    and the binomial is 0.  The dot product sums at most j addends
    c·x with c, x < p, below j·p² < 2^63 for j < 2^31 (p < 2^16).
    """
    a = _p_plus_1_shape(f)
    lam = f.multiplier
    profile = mult_profile(lam)
    field_, ram = f.field, f.ram
    p, r, W = field_.p, field_.r, window
    D = Jmax * p + 1
    one = LaurentSeries.constant(field_, 1, ram)
    exact_zero = LaurentSeries.zero(field_, ram, 0, exact=True)
    js = range(1, Jmax + 1)
    T = _small_divisors(profile, [(p + 1) * j for j in js], W, lows=js)
    lam_rows = T.lam_power.upto(Jmax, W)[1:]
    a_rows = _powers(a, W).upto(Jmax, W)[1:]
    lead_T = T.leads  # T_j has lead −lead_T[j-1], and U^0 sits at row lead_T
    G = _convolve(field_, lam_rows, T.rows)[:, :W]  # λ^j·T_j
    inside = np.flatnonzero(lead_T < W)
    G[inside, lead_T[inside], 0] -= 1
    G %= p  # λ^{(p+1)j}·T_j, lead −lead_T
    F = _convolve(field_, a_rows, T.rows)[:, :W]  # a^j·T_j, lead j·L(a) − lead_T

    B = np.zeros((Jmax + 1, W + 1, r), dtype=np.int64)
    B[0, 0, 0] = 1
    B_lead = np.zeros(Jmax + 1, dtype=np.int64)
    B_top = np.zeros(Jmax + 1, dtype=np.int64)  # lead + digits
    B_top[0] = W
    S = np.zeros((Jmax, W, r), dtype=np.int64)
    S_lead = np.zeros(Jmax, dtype=np.int64)
    S_digits = np.zeros(Jmax, dtype=np.int64)
    for j in js:
        if (j - 1) % _BINOMIAL_ROWS == 0:  # rows j .. top - 1
            top = min(j + _BINOMIAL_ROWS, Jmax + 1)
            cols = np.arange((j - 1 + p) // (p + 1), top - 1)
            block = binomial_mod_p(cols * p + 1, np.arange(j, top)[:, None] - cols, p)
        row = block[(j - 1) % _BINOMIAL_ROWS, : j - cols[0]]
        live = np.flatnonzero(row)
        i, c = cols[live], row[live]
        lead = B_lead[i]
        lo, H = int(lead.min()), int(B_top[i].min())
        at = np.maximum(np.arange(lo, H) - lead[:, None], -1)
        s = (c @ B[i[:, None], at].reshape(c.size, -1)).reshape(-1, r) % p
        nonzero = np.flatnonzero(s.any(axis=1))
        first = lo + int(nonzero[0]) if nonzero.size else H
        digits = H - first
        S[j - 1, :digits] = s[first - lo :]
        S_lead[j - 1], S_digits[j - 1] = first, digits
        if digits:
            B[j, :digits] = _convolve(field_, S[j - 1, :digits], G[j - 1, :digits])[:digits]
        B_lead[j] = first - lead_T[j - 1]
        B_top[j] = B_lead[j] + digits
    leads = (S_lead + np.arange(1, Jmax + 1) * a.lead - lead_T).tolist()
    digits = S_digits.tolist()

    def coefficient(k):  # b_k = S_j·(a^j·T_j) for k = jp + 1, on its digits
        j, rest = divmod(k - 1, p)
        if rest:
            return exact_zero
        if j == 0:
            return one
        lead, n = leads[j - 1], digits[j - 1]
        rows = _convolve(field_, S[j - 1, :n], F[j - 1, :n])[:n] if n else S[j - 1, :0]
        return LaurentSeries(field_, ram, lead, rows, lead + n)

    return Conjugacy(_Coefficients(D, coefficient), profile, "specialized", D)


@dataclass(frozen=True)
class ZeroReport:
    applicable: bool
    violations: list


def check_structural_zeros(g, f):
    """For p-divisible maps, every b_k with k > 1 and p ∤ k must vanish."""
    if not f.divisible_degrees():
        return ZeroReport(False, [])
    p = f.field.p
    violations = [
        k
        for k in range(2, g.D + 1)
        if k % p != 0 and g.zero_kind[k] == NONZERO
    ]
    return ZeroReport(True, violations)


@dataclass(frozen=True)
class BoundReport:
    applicable: bool
    margins: dict  # k -> Fraction margin, or None when b_k vanishes
    violations: list
    indeterminate: list  # zero-to-precision entries whose horizon is too low


def check_coefficient_bound(g, gauge, f):
    """The Lemma bound v(b_k) >= (k-1)·A − v_m·count_resonant(k)
    (``lemma_bound``) for p-divisible maps f with gauge A."""
    if not f.divisible_degrees():
        return BoundReport(False, {}, [], [])
    ram = g.coeffs[1].ram
    margins, violations, indeterminate = {}, [], []
    for k in range(2, g.D + 1):
        bound = lemma_bound(g.profile, gauge.A, k)
        b_k = g.coeffs[k]
        if b_k.is_zero_as_known:
            if not b_k.exact and Fraction(b_k.prec, ram) < bound:
                indeterminate.append(k)
            margins[k] = None
            continue
        margin = Fraction(b_k.lead, ram) - bound
        margins[k] = margin
        if margin < 0:
            violations.append(k)
    return BoundReport(True, margins, violations, indeterminate)


@dataclass(frozen=True)
class DivergenceCertificate:
    """Exact valuations of b_{p^N + 1} against the predicted closed form.

    ``conjectural`` marks the m > 1 regime where the dominant-term
    argument is not available: growth data only, no divergence claim.
    """

    entries: list  # (N, degree, computed: Fraction, predicted: Fraction|None)
    slopes: list  # Fraction v(b_k)/k per entry
    verdict: str
    conjectural: bool
    profile: object

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
    slope v(b_k)/k decreases without bound.

    For m > 1 growth data is returned with verdict "conjectural"; the
    exact-modulus formula need not hold there.
    """
    a = _p_plus_1_shape(f)
    lam = f.multiplier
    profile = mult_profile(lam)
    p = f.field.p
    ram = f.ram
    Jmax = p ** (Nmax - 1)
    g = solve_specialized_p_plus_1(f, Jmax, window)
    v_a = Fraction(a.lead, ram)
    entries, slopes = [], []
    conjectural = profile.m != 1
    # each sum checks its terms against the closed form
    products = None if conjectural else product_small_divisor_sums(profile, Nmax)
    for N in range(1, Nmax + 1):
        j = p ** (N - 1)
        k = j * p + 1
        b = g.coeffs[k]
        if b.is_zero_as_known:
            raise PrecisionError(f"b_{k} vanished to precision; cannot certify")
        computed = Fraction(b.lead, ram)
        if conjectural:
            predicted = None
        else:
            predicted = j * v_a - next(products)
            if computed != predicted:
                raise CertificateError(
                    f"divergence valuation mismatch at N={N}: computed {computed}, "
                    f"predicted {predicted}"
                )
        entries.append((N, k, computed, predicted))
        slopes.append(Fraction(computed, k))
    if not conjectural:
        for prev, nxt in zip(slopes, slopes[1:]):
            if not nxt < prev:
                raise CertificateError("divergence slope failed to decrease")
        verdict = "diverges"
    else:
        verdict = "conjectural"
    return DivergenceCertificate(entries, slopes, verdict, conjectural, profile)


def semiconjugacy_residual(f, g, x, dp=None):
    """The series g(f(x)) − λ·g(x), expected zero to its horizon inside
    D_ρ; a zero x is inside every disc."""
    if dp is not None and not x.is_zero_as_known and not x.valuation() > dp.v_rho:
        raise HypothesisError(
            f"sample point v = {x.valuation()} not inside the semi-disc "
            f"(need v > {dp.v_rho})"
        )
    table = g.table()
    lhs = eval_table(table, ps_eval(f, x))
    rhs = f.multiplier * eval_table(table, x)
    return lhs - rhs


def invert_at_point(g, x):
    """Solve g(y) = x by Newton iteration from y = x (g is tangent to the
    identity, so convergence is quadratic inside the linearization disc)."""
    table = g.table()
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
    value = eval_table(g.table(), ps_eval(f, y))
    return value - f.multiplier * x
