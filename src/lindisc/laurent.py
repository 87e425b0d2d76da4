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
"""

import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    IncompatibleFieldError,
    NotIntegralError,
    ParseError,
    PrecisionError,
    ZeroDivisionFieldError,
)
from .field import _ELEMENT_TERM, FqElement, _integer, _split_terms


def format_valuation(v):
    """The report text of a valuation: ``num/den``, so ``1/1`` for an
    integer."""
    return f"{v.numerator}/{v.denominator}"


# most bytes of temporaries that one chunk of ``_convolve``'s batched
# path holds; a larger stack goes in chunks
_STACK_BYTES = 32 << 20


def _convolve(params, a, b):
    """Convolution of coefficient arrays of shape (..., La, r) and
    (Lb, r) or (..., Lb, r), multiplying coefficients in F_{p^r}; the
    result has shape (..., La + Lb - 1, r).

    Two paths.  Without leading axes: one ``np.convolve`` per pair of
    nonzero coordinate columns.  With them, the leading axes of ``a``
    are a stack, and ``b`` is one array for the whole stack or a stack
    of the same shape, multiplied slice by slice.  Each slice of ``a``,
    padded by Lb - 1 zero rows at both ends, is read as its sliding
    windows of Lb rows, a strided view, and one matrix product of the
    windows by ``b`` reversed gives every r × r coordinate product:
    window i against ``b`` reversed is row i of the product.  A second,
    by the 0/1 matrix ``_coordinate_sums``, adds them up into the 2r - 1
    raw coordinates of each row.  A 2-D ``b`` enters the first matrix
    product as a stack of one and broadcasts over the slices, so a stack
    times one array needs no path of its own and ``b`` is never copied
    per slice.

    Per slice of R = La + Lb - 1 rows, the path holds the padded slice
    ((La + 2Lb - 2)·r integers), the matrix product (R·r²), the 2r - 1
    raw coordinates (R·(2r - 1)) and the folded result (R·r).  A stack
    whose temporaries would exceed ``_STACK_BYTES`` is convolved in
    chunks within it (at least one slice each), written into one result;
    a stack that fits is one matrix product, returned without a copy.

    Both paths accumulate in int64.  An entry sums at most r·min(La, Lb)
    products < p² before the fold below, so W·r·p² < 2^63 bounds the
    width W of the operands: W < 2^30 at p < 2^16 and q < 2^32.
    """
    p, r = params.p, params.r
    if a.ndim == 2:
        if r == 1:
            raw = np.convolve(a[:, 0], b[:, 0]).reshape(-1, 1)
        else:
            raw = np.zeros((a.shape[0] + b.shape[0] - 1, 2 * r - 1), dtype=np.int64)
            for s1 in range(r):
                col = a[:, s1]
                if not col.any():
                    continue
                for s2 in range(r):
                    if not b[:, s2].any():
                        continue
                    raw[:, s1 + s2] += np.convolve(col, b[:, s2])
            low, high = raw[:, :r], raw[:, r:]
    else:
        batch, la, lb = a.shape[:-2], a.shape[-2], b.shape[-2]
        rows = la + lb - 1
        a = a.reshape(-1, la, r)
        if b.ndim > 2:
            b = b.reshape(-1, lb, r)
        n = a.shape[0]
        slice_bytes = 8 * ((la + 2 * lb - 2) * r + rows * (r * r + 3 * r - 1))
        chunk = max(1, _STACK_BYTES // slice_bytes)
        if n > chunk:
            out = np.empty((n, rows, r), dtype=np.int64)
            for c in range(0, n, chunk):
                part = b if b.ndim == 2 else b[c : c + chunk]
                out[c : c + chunk] = _convolve(params, a[c : c + chunk], part)
            return out.reshape(batch + (rows, r))
        padded = np.zeros((n, la + 2 * (lb - 1), r), dtype=np.int64)
        padded[:, lb - 1 : lb - 1 + la] = a
        slab, row, coordinate = padded.strides
        # [.., i, s, :] (at r = 1, [.., 0, i, :]) is coordinate s of
        # a[i-lb+1 .. i].  At r = 1 the rows are the matrix product's rows,
        # one product per slice; at r > 1 each row's r × r products come
        # out contiguous for the sum below.  A view built by the ndarray
        # constructor, which checks it
        # against the buffer; ``as_strided`` goes through
        # ``__array_interface__``, whose dict keys churn the interpreter's
        # table of interned strings
        if r == 1:
            view = (n, 1, rows, lb), (slab, coordinate, row, row)
        else:
            view = (n, rows, r, lb), (slab, row, coordinate, row)
        windows = np.ndarray(view[0], np.int64, padded, 0, view[1])
        # (..., rows, r·r): [.., i, s1·r + s2] is the product of coordinate
        # s1 of a by coordinate s2 of b at row i
        pairs = (windows @ b[..., None, ::-1, :]).reshape(batch + (rows, r * r))
        if r == 1:
            raw = pairs
        else:  # coordinates 0 .. r-1 and r .. 2r-2 of the raw product
            sums = _coordinate_sums(r)
            low, high = pairs @ sums[:, :r], pairs @ sums[:, r:]
    if r == 1:
        raw %= p
        return raw
    # in the batched path every operand below is contiguous, so no ufunc
    # copies one into a buffer that the chunk sizing does not count
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
            raise ValueError("ramification index must be >= 1")
        coeffs = np.asarray(coeffs, dtype=np.int64).reshape(-1, field.r) % field.p
        lead = int(lead)
        prec = int(prec)
        # drop rows at or beyond the horizon (unless the series is exact,
        # where the stored support is genuine knowledge)
        if not exact and lead + coeffs.shape[0] > prec:
            coeffs = coeffs[: max(prec - lead, 0)]
        # normalise: leading coefficient nonzero
        nz = np.flatnonzero(coeffs.any(axis=1))
        if nz.size == 0:
            coeffs = coeffs[:0]
            lead = prec
        else:
            first, last = int(nz[0]), int(nz[-1])
            lead += first
            coeffs = coeffs[first : last + 1]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ram", int(ram))
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "exact", bool(exact))
        self.coeffs.setflags(write=False)

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

    def with_prec(self, new_prec):
        """Re-declare the horizon.  Raising it requires exactness."""
        new_prec = int(new_prec)
        if new_prec > self.prec and not self.exact:
            raise PrecisionError(
                f"cannot raise horizon {self.prec} -> {new_prec} of inexact series"
            )
        exact = self.exact and new_prec >= self.lead + self.coeffs.shape[0]
        return LaurentSeries(self.field, self.ram, self.lead, self.coeffs, new_prec, exact)

    def truncate_relative(self, digits):
        """Declare exactly `digits` known coefficients past the lead.

        An exact series justifies any horizon, so this also *raises* the
        declared precision; that is what lets reciprocals of exact
        divisors be expanded to the full working width.
        """
        if self.is_zero_as_known:
            return self
        if self.exact:
            return self.with_prec(self.lead + digits)
        new_prec = min(self.prec, self.lead + digits)
        if new_prec >= self.prec:
            return self
        return LaurentSeries(
            self.field, self.ram, self.lead, self.coeffs, new_prec, exact=False
        )

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
        return LaurentSeries(self.field, self.ram, lead, out % self.field.p, prec, exact)

    def __neg__(self):
        return LaurentSeries(
            self.field,
            self.ram,
            self.lead,
            (-self.coeffs) % self.field.p,
            self.prec,
            self.exact,
        )

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
        conv = _convolve(self.field, self.coeffs, other.coeffs)
        return LaurentSeries(
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
        return LaurentSeries(self.field, self.ram, self.lead, out, self.prec, self.exact)

    def shift(self, exponent):
        """Multiply by U^exponent."""
        return LaurentSeries(
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
        return LaurentSeries(
            self.field, self.ram, -self.lead, inv_unit, digits - self.lead, False
        )

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentSeries.constant(self.field, 1, self.ram, prec=self.prec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
            if not row.any():
                continue
            c = FqElement(self.field, list(row))
            terms.append(_render_term(c, self.lead + j, var))
        terms.append(f"O({var}^{self.prec})")
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
    the products pair each unit with its own inverse (``_convolve``'s
    batched path, which caps each chunk of the stack).  A single (L, r)
    unit has no leading axes and takes ``_convolve``'s unbatched path."""
    p, r = params.p, params.r
    batch = units.shape[:-2]
    v = params.pow_rows(units[..., 0, :].reshape(-1, r), params.q - 2)
    v = v.reshape(batch + (1, r))
    k = 1
    while k < digits:
        k = min(2 * k, digits)
        uv = _convolve(params, units[..., :k, :], v)[..., :k, :]
        correction = _convolve(params, uv, v)[..., :k, :]  # windows of the shorter v
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
