"""Truncated formal Laurent series over F_q with exact valuations.

A series lives in F_q((U)) where the uniformizer U satisfies U^e = T for
the ramification index e >= 1 (e = 1 is the base field F_q((T))).  Each
series carries

* ``lead`` -- the exponent (in U-units) of its first known coefficient,
* ``coeffs`` -- a numpy array of shape (L, r) of polynomial-basis
  coordinates, row j holding the coefficient of U^(lead+j),
* ``prec`` -- the justified horizon M: coefficients at exponents >= M are
  unknown, the series is known modulo O(U^M),
* ``exact`` -- True when the series is a finite table known in full (a
  parsed literal, for instance); the tail of an exact series is genuinely
  zero, so its horizon may be raised freely.

A valuation is a plain ``Fraction`` lead/e, and ``None`` stands for a
series that is zero as known (``exact`` tells a true zero from a zero
to precision); ``format_valuation`` writes the ``num/den`` text of the
reports.  Absolute values are never materialised.  All precision
propagation is pessimistic: a result's horizon is the minimum horizon
its inputs justify, and an exact input justifies any horizon.

Powers use characteristic p: x^(p^s·u) = Frob^s(x^u) (see ``__pow__``).
The arithmetic builds its results, already reduced mod p, through
``LaurentSeries._of``; other input goes through ``__init__``.
"""

import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

try:  # numpy >= 2; ``np.convolve`` is a Python wrapper around this call
    from numpy._core.multiarray import correlate as _correlate
except ImportError:
    from numpy.core.multiarray import correlate as _correlate

from .errors import (
    FieldConstructionError,
    IncompatibleFieldError,
    NotIntegralError,
    ParseError,
    PrecisionError,
    ZeroDivisionFieldError,
)
from .field import _ELEMENT_TERM, FqElement, _integer, _split_terms, p_split


def format_valuation(v):
    """The report text of a valuation: ``num/den``, so ``1/1`` for an
    integer."""
    return f"{v.numerator}/{v.denominator}"


# most bytes of temporaries that one batch of a stacked product holds;
# ``_per_batch`` gives how many items of a size fit (at least one)
_STACK_BYTES = 32 << 20


def _per_batch(item_bytes):
    return max(1, _STACK_BYTES // item_bytes)


# ``ndarray.any`` without numpy's Python-level wrapper, a cost per result
# and per step (as are ``.min``, ``np.flatnonzero``, ``np.argmax``,
# ``np.nonzero`` and ``np.searchsorted``: call the ufunc reductions and
# the ndarray methods; an AST test keeps the wrappers out of loop bodies)
_any = np.logical_or.reduce


def _convolve(params, a, b, keep=None, shift=None):
    """Convolution of coefficient arrays of shape (..., La, r) and
    (Lb, r) or (..., Lb, r), multiplying coefficients in F_{p^r}: the
    first ``keep`` rows of the product (all La + Lb - 1 by default), row
    t of slice s at row t + shift[s] given ``shift`` (stacks only, >= 0).

    The path goes by shape.  One pair at r = 1 is one C-level
    ``correlate`` of the longer operand with the shorter reversed (what
    ``np.convolve`` runs, without its Python wrapper) on the first
    ``keep`` rows: a 30 by 32 row product takes 2.9 µs that way and 7.3
    µs as a stack of one (Xeon, numpy 2.4).  Every other product is
    stacked: the leading axes of ``a`` are a stack (a pair at r > 1 is a
    stack of one, its longer operand ``a``), and ``b`` is one array for
    the whole stack or a stack of the same shape, multiplied slice by
    slice.
    Each slice of ``a``, placed Lb - 1 + shift rows into a zero buffer,
    is read as its R = ``keep`` sliding windows of Lb rows, a strided
    view, and one matrix product of the windows by ``b`` reversed gives
    every r × r coordinate product: window i against ``b`` reversed is
    row i of the result.  A second, by the 0/1 matrix ``_coordinate_sums``,
    adds them up into the 2r - 1 raw coordinates of each row.  A 2-D
    ``b`` enters the first matrix product as a stack of one and
    broadcasts over the slices, so a stack times one array needs no path
    of its own and ``b`` is never copied per slice.

    With its operands cut to R rows, a slice costs R·Lb·r² coordinate
    products (R·min(La, Lb)·r² for a pair) and holds the buffer
    ((R + Lb - 1)·r integers, La·r more with ``shift``), the matrix
    product (R·r²), the 2r - 1 raw coordinates (R·(2r - 1)) and the
    folded result (R·r).  A stack
    whose temporaries would exceed the budget of ``_per_batch`` is
    convolved in chunks within it, written into one result;
    a stack that fits is one matrix product, returned without a copy.

    Both paths accumulate in int64.  An entry sums at most r·min(La, Lb)
    products < p² before the fold below, so W·r·p² < 2^63 bounds the
    width W of the operands: W < 2^30 at p < 2^16 and q < 2^32.
    """
    p, r = params.p, params.r
    if a.ndim == 2:  # one pair, the longer operand first
        if keep is not None:
            a, b = a[:keep], b[:keep]
        if a.shape[0] < b.shape[0]:
            a, b = b, a
        if r == 1:
            raw = _correlate(a[:, 0], b[::-1, 0], 2)[:keep].reshape(-1, 1)
            raw %= p
            return raw
    batch = a.shape[:-2]
    rows = a.shape[-2] + b.shape[-2] - 1
    if keep is not None:
        rows = keep if shift is not None else min(keep, rows)
    la, lb = min(a.shape[-2], rows), min(b.shape[-2], rows)
    a = a[..., :la, :].reshape(-1, la, r)
    b = b[..., :lb, :]
    if b.ndim > 2:
        b = b.reshape(-1, lb, r)
    n = a.shape[0]
    length = rows + lb - 1
    if shift is not None:  # room for a slice shifted out
        shift = np.minimum(shift.reshape(-1), rows)
        length += la
    chunk = _per_batch(8 * (length * r + rows * (r * r + 3 * r - 1)))
    if n > chunk:
        out = np.empty((n, rows, r), dtype=np.int64)
        for c in range(0, n, chunk):
            part = b if b.ndim == 2 else b[c : c + chunk]
            at = None if shift is None else shift[c : c + chunk]
            out[c : c + chunk] = _convolve(params, a[c : c + chunk], part, rows, at)
        return out.reshape(batch + (rows, r))
    padded = np.zeros((n, length, r), dtype=np.int64)
    slab, row, coordinate = padded.strides
    if shift is None:
        padded[:, lb - 1 : lb - 1 + la] = a
    else:  # [s, t] is the span of la rows from lb - 1 + t of slice s
        view = (n, rows + 1, la, r), (slab, row, row, coordinate)
        spans = np.ndarray(view[0], np.int64, padded, (lb - 1) * row, view[1])
        spans[np.arange(n), shift] = a
    # [.., i, s, :] (at r = 1, [.., 0, i, :]) is coordinate s of
    # a[i-lb+1-shift .. i-shift].  At r = 1 the rows are the matrix
    # product's rows, one product per slice; at r > 1 each row's r × r
    # products come out contiguous for the sum below.  Views built by
    # the ndarray constructor, which checks them against the buffer;
    # ``as_strided`` goes through ``__array_interface__``, whose dict
    # keys churn the interpreter's table of interned strings
    if r == 1:
        view = (n, 1, rows, lb), (slab, coordinate, row, row)
    else:
        view = (n, rows, r, lb), (slab, row, coordinate, row)
    windows = np.ndarray(view[0], np.int64, padded, 0, view[1])
    # (..., rows, r·r): [.., i, s1·r + s2] is the product of coordinate
    # s1 of a by coordinate s2 of b at row i
    pairs = (windows @ b[..., None, ::-1, :]).reshape(batch + (rows, r * r))
    if r == 1:
        pairs %= p
        return pairs
    # coordinates 0 .. r-1 and r .. 2r-2 of the raw product.  Every operand
    # below is contiguous, so no ufunc copies one into a buffer that the
    # chunk sizing does not count
    sums = _coordinate_sums(r)
    low, high = pairs @ sums[:, :r], pairs @ sums[:, r:]
    low %= p
    high %= p
    folded = high @ params._reduction_rows
    folded += low
    folded %= p
    return folded


@lru_cache(maxsize=None)
def _coordinate_sums(r):
    """The (r·r, 2r - 1) 0/1 matrix taking the r × r coordinate products
    (s1, s2) of two elements to coordinate s1 + s2 of their raw product."""
    sums = np.zeros((r * r, 2 * r - 1), dtype=np.int64)
    sums[np.arange(r * r), (np.arange(r)[:, None] + np.arange(r)).ravel()] = 1
    return sums


class LaurentSeries:
    """Immutable truncated Laurent series over F_q((U)), U^e = T."""

    __slots__ = ("field", "ram", "lead", "coeffs", "prec", "exact")

    def __init__(self, field, ram, lead, coeffs, prec, exact=False):
        if ram < 1:
            raise FieldConstructionError(f"ramification index must be >= 1, got {ram}")
        coeffs = np.asarray(coeffs, dtype=np.int64).reshape(-1, field.r) % field.p
        self._set(field, int(ram), int(lead), coeffs, int(prec), bool(exact))

    @classmethod
    def _of(cls, field, ram, lead, coeffs, prec, exact=False):
        """``__init__`` for an int64 (L, r) array already reduced mod p,
        which becomes read-only: never one its owner still writes."""
        series = object.__new__(cls)
        series._set(field, ram, lead, coeffs, prec, exact)
        return series

    def _set(self, field, ram, lead, coeffs, prec, exact):
        # drop rows at or beyond the horizon (unless the series is exact,
        # where the stored support is genuine knowledge)
        if not exact and lead + coeffs.shape[0] > prec:
            coeffs = coeffs[: max(prec - lead, 0)]
        # normalise: leading coefficient nonzero
        nz = _any(coeffs, axis=1).nonzero()[0]
        if nz.size == 0:
            coeffs = coeffs[:0]
            lead = prec
        else:
            first, last = int(nz[0]), int(nz[-1])
            lead += first
            coeffs = coeffs[first : last + 1]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "exact", exact)
        coeffs.setflags(write=False)

    def __setattr__(self, *_):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, ram=1, prec=0, exact=False):
        return cls(field, ram, prec, np.zeros((0, field.r)), prec, exact)

    @classmethod
    def monomial(cls, field, exponent, coeff=1, ram=1, prec=None, exact=True):
        """coeff * U^exponent, exact by default."""
        coeff = field.element(coeff)
        if prec is None:
            prec = exponent + 1
        return cls(field, ram, exponent, [coeff.coeffs], prec, exact)

    @classmethod
    def constant(cls, field, coeff, ram=1, prec=None, exact=True):
        return cls.monomial(field, 0, coeff, ram, prec, exact)

    # -- bookkeeping ----------------------------------------------------------

    @property
    def is_zero_as_known(self):
        return self.coeffs.shape[0] == 0

    @property
    def is_exact_zero(self):
        return self.is_zero_as_known and self.exact

    def _check(self, other):
        if not isinstance(other, LaurentSeries):
            raise TypeError(f"expected LaurentSeries, got {type(other).__name__}")
        if other.field != self.field:
            raise IncompatibleFieldError("series over different coefficient fields")
        if other.ram != self.ram:
            raise IncompatibleFieldError("series in different ramified towers")

    def valuation(self):
        """v = lead/ram as a Fraction, or None when the series is zero as
        known."""
        if self.is_zero_as_known:
            return None
        return Fraction(self.lead, self.ram)

    def coefficient(self, exponent):
        """Coefficient of U^exponent as an FqElement."""
        if not self.exact and exponent >= self.prec:
            raise PrecisionError(
                f"coefficient of U^{exponent} is beyond the horizon O(U^{self.prec})"
            )
        j = exponent - self.lead
        if j < 0 or j >= self.coeffs.shape[0]:
            return self.field.zero()
        return FqElement(self.field, list(self.coeffs[j]))

    # -- field operations -----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if self.exact and other.exact:
            prec, exact = max(self.prec, other.prec), True
        else:  # the least horizon of an inexact term
            prec = min(
                other.prec if self.exact else self.prec,
                self.prec if other.exact else other.prec,
            )
            exact = False
        la, lb = self.lead, other.lead
        if self.is_zero_as_known and other.is_zero_as_known:
            return LaurentSeries.zero(self.field, self.ram, prec, exact)
        lead = min(
            la if not self.is_zero_as_known else lb,
            lb if not other.is_zero_as_known else la,
        )
        top = max(la + self.coeffs.shape[0], lb + other.coeffs.shape[0])
        out = np.zeros((top - lead, self.field.r), dtype=np.int64)
        if self.coeffs.shape[0]:
            out[la - lead : la - lead + self.coeffs.shape[0]] += self.coeffs
        if other.coeffs.shape[0]:
            out[lb - lead : lb - lead + other.coeffs.shape[0]] += other.coeffs
        out %= self.field.p
        return LaurentSeries._of(self.field, self.ram, lead, out, prec, exact)

    def __neg__(self):
        out = np.negative(self.coeffs)
        out %= self.field.p
        return LaurentSeries._of(self.field, self.ram, self.lead, out, self.prec, self.exact)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FqElement):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(self.field.element(other))
        self._check(other)
        if self.is_exact_zero or other.is_exact_zero:
            return LaurentSeries.zero(self.field, self.ram, 0, exact=True)
        # each factor's horizon, shifted by the other's lead
        mine, theirs = self.prec + other.lead, other.prec + self.lead
        if self.exact and other.exact:
            prec, exact = max(mine, theirs), True
        else:  # the least horizon of an inexact factor
            prec = min(theirs if self.exact else mine, mine if other.exact else theirs)
            exact = False
        if self.is_zero_as_known or other.is_zero_as_known:
            return LaurentSeries.zero(self.field, self.ram, prec)
        # an inexact product keeps only the rows below its horizon
        keep = None if exact else prec - self.lead - other.lead
        conv = _convolve(self.field, self.coeffs, other.coeffs, keep)
        return LaurentSeries._of(
            self.field, self.ram, self.lead + other.lead, conv, prec, exact
        )

    __rmul__ = __mul__

    def scale(self, coeff):
        """Multiply by a field scalar: a convolution by one row."""
        coeff = self.field.element(coeff)
        if coeff.is_zero or self.is_zero_as_known:
            return LaurentSeries.zero(self.field, self.ram, self.prec, self.exact)
        row = np.array([coeff.coeffs], dtype=np.int64)
        out = _convolve(self.field, self.coeffs, row)
        return LaurentSeries._of(self.field, self.ram, self.lead, out, self.prec, self.exact)

    def shift(self, exponent):
        """Multiply by U^exponent."""
        return LaurentSeries._of(
            self.field,
            self.ram,
            self.lead + exponent,
            self.coeffs,
            self.prec + exponent,
            self.exact,
        )

    def inverse(self):
        """Multiplicative inverse modulo the justified horizon."""
        if self.is_zero_as_known:
            if self.exact:
                raise ZeroDivisionFieldError("inversion of the exact zero series")
            raise PrecisionError(
                f"inversion of a series that is zero to precision O(U^{self.prec})"
            )
        digits = self.prec - self.lead
        if self.exact:
            digits = max(digits, self.coeffs.shape[0], 1)
        unit = self.coeffs[:digits]
        inv_unit = _invert_unit(self.field, unit, digits)
        return LaurentSeries._of(
            self.field, self.ram, -self.lead, inv_unit, digits - self.lead, False
        )

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        """x^n (n < 0: (1/x)^|n|, x^0 the exact 1 at x's horizon).  For
        n = p^s·u, p ∤ u, x not zero as known: y = x^u by square-and-
        multiply from x (as ``FieldParams.pow_rows``), then x^n = Frob^s(y),
        as (Σ c_t U^t)^(p^s) = Σ c_t^(p^s) U^(t·p^s) in characteristic p.

        Frob^s(y) is known to p^s·P_y, P_y = P + (u − 1)·L for x's lead
        L and horizon P, but is cut at the horizon of the product chain
        x·…·x, P + (n − 1)·L, exact or not: the same digits, so no
        result's bytes depend on the route.  The cut gives up digits that
        a refined report could keep."""
        if n < 0:
            return self.inverse() ** (-n)
        if not n:
            return LaurentSeries.constant(self.field, 1, self.ram, prec=self.prec)
        field, s = self.field, 0
        if not self.is_zero_as_known:
            s, n = p_split(n, field.p)
        q, L = field.p**s, self.lead
        prec = self.prec + (q * n - 1) * L
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        if not s:
            return result
        lead, rows = result.lead * q, result.coeffs
        if not self.exact:  # only the rows that land below the horizon
            rows = rows[: -(-(prec - lead) // q)]
        out = np.zeros(((rows.shape[0] - 1) * q + 1, field.r), dtype=np.int64)
        out[::q] = field.frobenius_rows(rows, s)
        return LaurentSeries._of(field, self.ram, lead, out, prec, self.exact)

    # -- residue and ramification ----------------------------------------------

    def residue(self):
        """Image of the constant term in the residue field F_q."""
        if self.is_zero_as_known:
            if not self.exact and self.prec <= 0:
                raise PrecisionError("constant term is beyond the justified horizon")
            return self.field.zero()
        if self.lead < 0:
            raise NotIntegralError(
                f"negative valuation {Fraction(self.lead, self.ram)}: not integral"
            )
        if self.lead > 0:
            return self.field.zero()
        return FqElement(self.field, list(self.coeffs[0]))

    def ramify(self, e):
        """Reinterpret in the tower with U^e = T, for any multiple e of the
        series' own index ram: row i goes to row i·e/ram.  Any other e
        raises IncompatibleFieldError."""
        if e < 1 or e % self.ram:
            raise IncompatibleFieldError(f"cannot ramify from index {self.ram} to {e}")
        step = e // self.ram
        out = np.zeros((self.coeffs.shape[0] * step, self.field.r), dtype=np.int64)
        out[::step] = self.coeffs
        return LaurentSeries(self.field, e, self.lead * step, out, self.prec * step, self.exact)

    def extend_residue_field(self, target):
        """Re-coefficient over a residue extension.  Only the canonical
        embedding of a prime field (r = 1) and the identity are supported."""
        if target == self.field:
            return self
        if self.field.r != 1 or target.p != self.field.p:
            raise IncompatibleFieldError(
                "only prime-field coefficients embed into a residue extension"
            )
        out = np.zeros((self.coeffs.shape[0], target.r), dtype=np.int64)
        out[:, 0] = self.coeffs[:, 0]
        return LaurentSeries(target, self.ram, self.lead, out, self.prec, self.exact)

    # -- comparison and rendering -----------------------------------------------

    def agrees_with(self, other):
        """True when the two series coincide on their common horizon."""
        return (self - other).is_zero_as_known

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.ram == other.ram
            and self.lead == other.lead
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return f"LaurentSeries({self})"

    def __str__(self):
        return self.render()

    def render(self):
        var = "T" if self.ram == 1 else "U"
        terms = []
        for j in range(self.coeffs.shape[0]):
            row = self.coeffs[j]
            if not _any(row):
                continue
            c = FqElement(self.field, list(row))
            terms.append(_render_term(c, self.lead + j, var))
        # past an exact series's last term, so the text parses back to it
        top = max(self.prec, self.lead + self.coeffs.shape[0]) if self.exact else self.prec
        terms.append(f"O({var}^{top})")
        return " + ".join(terms)


def _render_term(coeff, exponent, var):
    cs = str(coeff)
    needs_parens = "+" in cs or "-" in cs
    if needs_parens:
        cs = f"({cs})"
    if exponent == 0:
        return cs
    vs = var if exponent == 1 else f"{var}^{exponent}"
    if cs == "1":
        return vs
    return f"{cs}*{vs}"


def _invert_unit(params, units, digits):
    """Inverses of a stack (..., L, r) of unit-part coefficient arrays to
    the given number of digits, by Newton doubling: the error 1 - u*v
    squares each step.  Each unit starts from its own c^(q-2) = 1/c, and
    the products pair each unit with its own inverse (``_convolve``
    caps each chunk of the stack)."""
    p, r = params.p, params.r
    batch = units.shape[:-2]
    v = params.pow_rows(units[..., 0, :].reshape(-1, r), params.q - 2)
    v = v.reshape(batch + (1, r))
    k = 1
    while k < digits:
        k = min(2 * k, digits)
        uv = _convolve(params, units, v, k)
        correction = _convolve(params, uv, v, k)  # windows of the shorter v
        out = np.zeros(batch + (k, r), dtype=np.int64)
        out[..., : v.shape[-2], :] += 2 * v
        out[..., : correction.shape[-2], :] -= correction
        v = out % p
    return v[..., :digits, :]


# -- parsing ---------------------------------------------------------------------

# largest |n| of a literal's T^n, U^n or O(T^n): an exact literal stores
# a row for every exponent between its lowest and its highest
MAX_EXPONENT = 4096

# one series term (see field's literal grammar): a coefficient, which is a
# parenthesised element literal or an element term, and/or V^n; or O(V^n)
_SERIES_TERM = re.compile(
    r"(?:O\s*\(\s*(?P<O>)(?=[TU])"
    rf"|(?:\((?P<paren>[^()]*)\)|{_ELEMENT_TERM.pattern})(?:\s*\*?\s*(?=[TU]))?)?"
    r"(?:(?P<var>[TU])(?:\s*\^\s*(?P<exp>-?[0-9]+))?)?(?(O)\s*\))"
)


def parse_series(text, field, ram=1, prec=16):
    """Parse a series literal such as ``1+T``, ``T^-1+1``, ``(b+1)*T^2``
    (field's literal grammar).  Exponents of ``T`` are in T-units, of
    ``U`` (ram > 1 only) in U-units; |n| <= MAX_EXPONENT.  At most one
    ``O(V^n)`` term, signed or not, declares the horizon; without one
    the result is exact with horizon ``prec`` T-units.
    """
    rows, horizon = {}, None
    for sign, term, pos in _split_terms(text):
        m = _SERIES_TERM.fullmatch(term)
        if m is None:
            raise ParseError(f"cannot parse term {term!r}", pos)
        exponent = _exponent(m, ram, pos)
        if m["O"] is not None:
            if horizon is not None:
                raise ParseError("a series literal takes at most one O-term", pos)
            horizon = exponent
            continue
        row = rows.setdefault(exponent, [0] * field.r)
        if m["paren"] is None:
            field._add_term(row, sign, m, pos)
        else:
            field._add_element(row, sign, m["paren"], pos + m.start("paren"))
    # an explicit O(...) term declares an unknown tail; otherwise the
    # literal is a finite table known in full
    lead = min(rows, default=0)
    arr = np.zeros((max(rows, default=lead - 1) - lead + 1, field.r), dtype=np.int64)
    for e, row in rows.items():
        arr[e - lead] = row
    prec_u = prec * ram if horizon is None else horizon
    return LaurentSeries(field, ram, lead, arr, prec_u, exact=horizon is None)


def _exponent(m, ram, pos):
    """The exponent in U-units of the V^n that a series term or an O-term
    matched (0 for no V): n, times ram when V = T."""
    if m["var"] is None:
        return 0
    n = 1 if m["exp"] is None else _integer(m["exp"], pos)
    if abs(n) > MAX_EXPONENT:
        raise ParseError(f"exponent {n} is above MAX_EXPONENT = {MAX_EXPONENT}", pos)
    if m["var"] == "T":
        return n * ram
    if ram == 1:
        raise ParseError("U is only valid in a ramified tower (ram > 1)", pos)
    return n
