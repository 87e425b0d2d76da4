"""Exact arithmetic in small finite fields F_{p^r}.

Elements are represented in the polynomial basis: an element is a vector
of r integers in [0, p), the coordinates with respect to 1, b, ..., b^{r-1}
where b is a root of the defining modulus.  The modulus is a monic
irreducible polynomial of degree r over F_p, either taken from the built-in
table below or supplied explicitly (it is then re-checked for
irreducibility by trial division).

These fields serve as residue fields of the Laurent series fields handled
by :mod:`lindisc.laurent`; elements are immutable value types and safe to
share.
"""

import re
from functools import lru_cache

import numpy as np

from .errors import (
    FieldConstructionError,
    HypothesisError,
    IncompatibleFieldError,
    ParseError,
    ZeroDivisionFieldError,
)

# Fixed monic irreducible moduli (coefficient lists, constant term first)
# for the small fields the periodic-point search actually visits.  Keeping
# a fixed table makes runs reproducible; any other monic irreducible
# modulus is accepted as well.
BUILTIN_MODULI = {
    (2, 1): [0, 1],
    (2, 2): [1, 1, 1],
    (2, 3): [1, 1, 0, 1],
    (2, 4): [1, 1, 0, 0, 1],
    (3, 1): [0, 1],
    (3, 2): [2, 2, 1],
    (3, 3): [1, 2, 0, 1],
    (3, 4): [2, 0, 0, 2, 1],
    (5, 1): [0, 1],
    (5, 2): [2, 4, 1],
    (5, 3): [3, 3, 0, 1],
    (5, 4): [2, 4, 4, 0, 1],
    (7, 1): [0, 1],
    (7, 2): [3, 6, 1],
    (7, 3): [4, 0, 6, 1],
    (7, 4): [3, 4, 5, 0, 1],
}

# elements enumerated at once: memory stays bounded whatever q is
ELEMENT_BLOCK = 1024


def p_split(n, p):
    """(s, u) with n = p^s·u and p ∤ u: the one p-adic split of an
    exponent, or of every entry of an int64 array."""
    if isinstance(n, np.ndarray):
        if (n < 1).any():
            raise HypothesisError(f"exponent must be >= 1, got {n.min()}")
        # p^s divides the largest int64 power of p: one gcd, one search
        powers = _int64_powers(p)
        part = np.gcd(n, powers[-1])
        return powers.searchsorted(part), n // part
    if n < 1:
        raise HypothesisError(f"exponent must be >= 1, got {n}")
    s = 0
    while n % p == 0:
        n //= p
        s += 1
    return s, n


@lru_cache(maxsize=None)
def _int64_powers(p):
    """p^0, p^1, … up to the largest power of p below 2^63, as int64."""
    powers = np.cumprod(np.full(64, p, dtype=object))
    powers = np.array([1, *powers[powers < 2**63]], dtype=np.int64)
    powers.flags.writeable = False  # one array for every caller
    return powers


def _is_prime(n):
    return n >= 2 and _prime_factors(n) == (n,)


def _digit_rows(p, r, start, stop):
    """Base-p digits, least significant first, of the integers start ..
    stop-1, as a (stop - start, r) int64 array."""
    idx = np.arange(start, stop, dtype=np.int64)
    return (idx[:, None] // p ** np.arange(r, dtype=np.int64)) % p


def _is_irreducible(modulus, p):
    """Trial division by all monic polynomials of degree <= r/2."""
    r = len(modulus) - 1
    if r < 1 or modulus[-1] != 1:
        return False
    if r == 1:
        return True
    for d in range(1, r // 2 + 1):
        for digits in _digit_rows(p, d, 0, p**d):
            if not any(_poly_divmod(modulus, [*digits.tolist(), 1], p)[1]):
                return False
    return True


class FieldParams:
    """Parameters of a finite field F_{p^r} in polynomial basis.

    Shared immutably by all its elements; comparing two elements first
    checks that they carry the same params.
    """

    __slots__ = ("p", "r", "modulus", "_reduction_rows")

    def __init__(self, p, r=1, modulus=None):
        # two kernels accumulate in int64.  laurent._convolve: each output
        # entry sums at most r·min(La, Lb) products < p², and r·p² < 2³³
        # because p < 2¹⁶ and q < 2³², so overflow needs both operands of
        # 2³⁰ rows.  mul_rows, which FqElement multiplies through: each
        # entry sums at most r products < p² before its reduction mod p.
        # Both fold the high part alike, by ``@ _reduction_rows``: p - 1
        # plus r - 1 products < p², below r·p² < 2³³.  Checked before
        # primality, whose trial division runs to √p
        if p >= 2**16:
            raise FieldConstructionError(f"p = {p} is too large: need p < 2^16")
        if not _is_prime(p):
            raise FieldConstructionError(f"p = {p} is not prime")
        if r < 1:
            raise FieldConstructionError(f"extension degree r = {r} must be >= 1")
        # the irreducibility test tries all ~q^(1/2) factors of degree <= r/2
        # and multiplicative_order factors q - 1 by trial division; p >= 2,
        # so r >= 32 alone settles it without computing p^r
        if r >= 32 or p**r >= 2**32:
            raise FieldConstructionError(f"q = {p}^{r} is too large: need q < 2^32")
        if modulus is None:
            # F_p itself needs none: x is irreducible over every prime field
            modulus = BUILTIN_MODULI.get((p, r), [0, 1] if r == 1 else None)
            if modulus is None:
                raise FieldConstructionError(
                    f"no built-in modulus for (p, r) = ({p}, {r}); supply one"
                )
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != r + 1:
            raise FieldConstructionError(
                f"modulus must have degree {r} (got {len(modulus) - 1})"
            )
        if modulus[-1] != 1:
            raise FieldConstructionError("modulus must be monic")
        if not _is_irreducible(modulus, p):
            raise FieldConstructionError(f"modulus {modulus} is reducible over F_{p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "modulus", tuple(modulus))
        # rows[t] = coordinates of b^(r+t) for t = 0 .. r-2, used to fold
        # products back into the polynomial basis
        rows = []
        power = [0] * r + [1]
        for _ in range(max(r - 1, 0)):
            row = _poly_divmod(power, modulus, p)[1]
            rows.append(row)
            power = [0] + power
        object.__setattr__(
            self, "_reduction_rows", np.array(rows, dtype=np.int64).reshape(-1, r)
        )

    def __setattr__(self, *_):
        raise AttributeError("FieldParams is immutable")

    @property
    def q(self):
        return self.p**self.r

    def __eq__(self, other):
        return (
            isinstance(other, FieldParams)
            and self.p == other.p
            and self.r == other.r
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.r}"

    # -- element constructors ------------------------------------------------

    def element(self, coeffs):
        """Element from an integer (r = 1 embeds F_p) or coordinate list."""
        if isinstance(coeffs, FqElement):
            if coeffs.params != self:
                raise IncompatibleFieldError("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            vec = [coeffs % self.p] + [0] * (self.r - 1)
            return FqElement(self, vec)
        return FqElement(self, list(coeffs))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def gen(self):
        """The basis generator b (only meaningful for r > 1)."""
        vec = [0] * self.r
        if self.r == 1:
            vec[0] = 1
        else:
            vec[1] = 1
        return FqElement(self, vec)

    def elements(self):
        """All q elements, in lexicographic coordinate order: element n
        has the base-p digits of n as coordinates."""
        for block in self.element_blocks():
            for row in block:
                yield FqElement(self, row)

    def element_blocks(self):
        """``element_rows`` of all q elements, in ``elements()`` order and
        in blocks of at most ELEMENT_BLOCK rows."""
        for start in range(0, self.q, ELEMENT_BLOCK):
            yield self.element_rows(start, min(start + ELEMENT_BLOCK, self.q))

    def element_rows(self, start, stop):
        """Coordinates of the elements at positions start .. stop-1 of
        ``elements()``, as a (stop - start, r) int64 array."""
        return _digit_rows(self.p, self.r, start, stop)

    def mul_rows(self, a, b):
        """Entry-by-entry product of two (n, r) int64 coordinate arrays:
        the schoolbook products reduced mod p, then the high part folded
        through the reduction rows.  The one F_q product: ``FqElement``
        multiplies through it on one-row arrays."""
        p, r = self.p, self.r
        if r == 1:
            return a * b % p
        prod = np.zeros((a.shape[0], 2 * r - 1), dtype=np.int64)
        for i in range(r):
            prod[:, i : i + r] += a[:, i : i + 1] * b
        prod %= p
        return (prod[:, :r] + prod[:, r:] @ self._reduction_rows) % p

    def pow_rows(self, xs, n):
        """xs^n entry by entry for n >= 0, by square-and-multiply."""
        result = None
        while n:
            if n & 1:
                result = xs if result is None else self.mul_rows(result, xs)
            n >>= 1
            if n:
                xs = self.mul_rows(xs, xs)
        if result is None:
            result = np.zeros_like(xs)
            result[:, 0] = 1
        return result

    def frobenius_rows(self, xs, s):
        """xs^(p^s) entry by entry: ``xs`` itself when r | s, as c^(p^r) = c."""
        if s % self.r == 0:
            return xs
        return self.pow_rows(xs, self.p ** (s % self.r))

    def parse_element(self, text):
        """Parse an element literal, element terms joined by + and - (see
        the literal grammar below): ``2*b^2+b`` is an element of F_8.  The
        generator ``b`` needs r > 1."""
        vec = [0] * self.r
        self._add_element(vec, 1, text, 0)
        return FqElement(self, vec)

    def _add_element(self, vec, sign, text, offset):
        """Add sign times the element literal ``text`` to the coordinate
        list ``vec``; positions in errors are offset by ``offset``."""
        for term_sign, term, pos in _split_terms(text):
            m = _ELEMENT_TERM.fullmatch(term)
            if m is None:
                raise ParseError(f"bad element term {term!r}", offset + pos)
            self._add_term(vec, sign * term_sign, m, offset + pos)

    def _add_term(self, vec, sign, m, pos):
        """Add sign·c·b^k, for an element term matched by ``m``, to the
        coordinate list ``vec``.  Absent c and k are 1; absent b is b^0."""
        c, b, k = m.group("c", "b", "k")
        power = 0 if b is None else 1 if k is None else _integer(k, pos)
        if power >= self.r:
            raise ParseError(f"power b^{power} exceeds field degree r = {self.r}", pos)
        vec[power] = (vec[power] + sign * (1 if c is None else _integer(c, pos))) % self.p


# -- the literal grammar -------------------------------------------------------
# A literal is terms joined by + and -, split by _split_terms.  An element
# term is c, b, b^k or c*b^k, the * optional; a series term
# (laurent.parse_series) is [coeff [*]] V[^n] or O(V[^n]).  An integer is a
# run of ASCII digits, [0-9]+: never a Unicode digit, an underscore or a
# space.  Whitespace may separate two tokens but never joins them.
_ELEMENT_TERM = re.compile(
    r"(?=[0-9b])(?P<c>[0-9]+)?"
    r"(?:\s*(?:\*\s*)?(?P<b>b)(?:\s*\^\s*(?P<k>[0-9]+))?)?"
)


def _integer(text, pos=None):
    """int(text) of text the integer rule matched; past the 4300 digits
    int() converts by default, a ParseError instead of a ValueError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer of {len(text)} digits is too long", pos) from None


def _split_terms(text):
    """Yield (sign, stripped term, position) for the top-level terms of a
    literal.  A + or - separates two terms or leads the first; one right
    after ``^`` is an exponent's.  Parentheses are never split.  An empty
    term (two signs in a row, a trailing sign) is a ParseError."""
    depth, sign, start = 0, 1, 0
    for i, ch in enumerate(text + "+"):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parenthesis", i)
        elif ch in "+-" and depth == 0:
            term = text[start:i].strip()
            if term.endswith("^") and i < len(text):
                continue
            if term:  # at the position of its first character
                yield sign, term, i - len(text[start:i].lstrip())
            elif start or i == len(text):
                raise ParseError("empty term", i)
            sign, start = -1 if ch == "-" else 1, i + 1
    if depth:
        raise ParseError("unbalanced parenthesis", len(text))


class FqElement:
    """Immutable element of F_{p^r} in polynomial-basis coordinates."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params, coeffs):
        p, r = params.p, params.r
        if len(coeffs) != r:
            raise FieldConstructionError(
                f"coordinate vector must have length {r} (got {len(coeffs)})"
            )
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coeffs", tuple(int(c) % p for c in coeffs))

    def __setattr__(self, *_):
        raise AttributeError("FqElement is immutable")

    def _check(self, other):
        if not isinstance(other, FqElement):
            raise TypeError(f"expected FqElement, got {type(other).__name__}")
        if other.params != self.params:
            raise IncompatibleFieldError("elements of different fields")

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.params.element(other)
        if not isinstance(other, FqElement):
            return NotImplemented
        return self.params == other.params and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.params, self.coeffs))

    def __add__(self, other):
        self._check(other)
        p = self.params.p
        return FqElement(
            self.params, [(a + b) % p for a, b in zip(self.coeffs, other.coeffs)]
        )

    def _row(self):
        return np.array([self.coeffs], dtype=np.int64)

    def __mul__(self, other):
        params = self.params
        if isinstance(other, int):
            other = params.element(other)
        self._check(other)
        return FqElement(params, params.mul_rows(self._row(), other._row())[0])

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse x^(q-2): x^(q-1) = 1 for nonzero x."""
        if self.is_zero:
            raise ZeroDivisionFieldError("inversion of zero field element")
        return self ** (self.params.q - 2)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return FqElement(self.params, self.params.pow_rows(self._row(), n)[0])

    def multiplicative_order(self):
        """Least n >= 1 with self^n = 1; divides q - 1."""
        if self.is_zero:
            raise ZeroDivisionFieldError("zero has no multiplicative order")
        n = self.params.q - 1
        for prime in _prime_factors(n):
            while n % prime == 0 and (self ** (n // prime)) == self.params.one():
                n //= prime
        return n

    def __repr__(self):
        return f"FqElement({self.params!r}, {self})"

    def __str__(self):
        if self.params.r == 1:
            return str(self.coeffs[0])
        terms = []
        for power in range(self.params.r - 1, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            if power == 0:
                terms.append(str(c))
            else:
                var = "b" if power == 1 else f"b^{power}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms) if terms else "0"


def _poly_divmod(num, den, p):
    num = list(num)
    dd = _poly_degree(den)
    lead_inv = pow(den[dd], p - 2, p)
    quot = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = (num[i] * lead_inv) % p
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return quot, num[:dd] if dd > 0 else [0]


def _poly_degree(poly):
    for i in range(len(poly) - 1, -1, -1):
        if poly[i]:
            return i
    return 0


@lru_cache(maxsize=None)
def _prime_factors(n):
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return tuple(factors)
