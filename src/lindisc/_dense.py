"""Internal dense engine for polynomials in x with Laurent-series
coefficients, for the term-matching solver ``solve_sfe`` only
(``powerseries.table_compose`` composes coefficient tables).

A ``DensePoly`` holds, per x-degree d <= D, a window of W consecutive
U-coefficients from ``base[d]`` and the justified horizon ``prec[d]``.
The bulk operations convolve only the columns that hold data, in
batched ``laurent._convolve`` calls that form the W rows of each result
window in place, so the per-degree Python cost is constant; each batch
(grid rows or column pairs of ``mul``, data columns of ``add_scaled``)
is sized by ``laurent._per_batch``, and products are exact and sums mod
p, so no batch changes a result:

* ``mul``, the product of two exact-start powers (below), over the
  other's packed ``_factor``.  Its bases come from f's min-plus table
  (``_MinPlus``) below a cut when both are powers of one map f, else
  from the minimum of base[j] + base[i] over a grid of (live column i
  of the other) × (x-degree).  The data pass convolves the pairs of
  columns that both hold data, self's column j against the other's
  column i trimmed to its nonzero rows, into the window at x^(i+j).  A
  solve multiplies by f's columns, the stride f^p and the gap powers
  u^g it keeps, so each factor is formed once; its polynomial is
  read-only from then on.  ``mul_by_map`` multiplies by a map's exact
  coefficients, installed as columns by ``of_map`` once per chain: each
  product carries ``map_columns = (f, columns)``, and f's factor, to
  the next, and the solve's f^1, being f's columns, is marked so that
  its own products read it;
* ``add_scaled``, the accumulation of a scalar multiple of any
  polynomial: one convolution of its data columns with the scalar into
  the sum's windows, realigned where their base moves and masked where
  they took data or their horizon fell;
* ``column(d, by)``, b_k of the solve: one product, one series.

An exact-start power has ``prec = base + W`` on every finite column and
is an exact zero (base and horizon INF) elsewhere.  ``of_map``'s columns
are one, and so is a product of two: for full-window columns the
minimum rule's horizon at x^(i+j), min(prec[j] + base[i], base[j] +
prec[i]), is base[j] + base[i] + W, and the data pass forms W rows from
each base.  ``mul`` checks an operand that is not a power of a map: a
horizon below its window or a column zero only to precision raises
``CertificateError``.  Clamping a map coefficient to its first W digits
loses nothing: a digit at ``lead + W`` or beyond reaches x^(i+j) at or
past base[j] + lead + W.  From a map's exact coefficients, the bases of
f^k are the k-th min-plus power of the leads of f and the digits below
the horizon are the true digits of f^k; min-plus convolution is
associative, so every honest route to f^k (f^{k-1}·f or f^{k-p}·f^p,
the table or the grid) gives the same bases, horizons and data.  No
other shortcut moves a byte: sums mod p do not depend on their order; a
column of the sum that took no data keeps its digits below min(old
horizon, new base + W), so it needs no mask unless its horizon fell
below that; and zero rows padding the factors of a product of series
change none of its lead, horizon and digits.

The running sum is the one polynomial with general horizons.
``add_scaled`` keeps the pessimistic minimum rule of
:mod:`lindisc.laurent` (an operation's horizon is the minimum its
operands justify; entries at or past a horizon are zeroed), so a scalar
or a column known only to be O(U^h) adds no data but caps its horizons.
Every finite column has ``prec <= base + W``; untouched columns stay
exact zeros, and columns with an INF base hold zeros.  By the structural
zeros of p-divisible maps and the window W, most columns of f^k and of
the sum hold no data.  Both operations skip the leading exact-zero
columns of the polynomial they read.
"""

from functools import cached_property

import numpy as np

from .errors import CertificateError, PrecisionError
from .laurent import LaurentSeries, _any, _convolve, _per_batch

INF = np.int64(2**62)
_INF_CUT = np.int64(2**61)


def _clamp(values):
    values[values >= _INF_CUT] = INF
    return values


class _MinPlus:
    """``table[m]``, m <= D: the least sum of leads v(a_i) over multisets
    of shifts i - 1 of f's nonlinear degrees that add up to m (INF for
    none), one running minimum of table[r + js] - j·v(a_i) per shift s.
    As v(λ) = 0, f^k has base table[d - k] at x^d while d - k < (k + 1)·
    ``least``, the least shift: no more than k shifts fit."""

    def __init__(self, f, D):
        self.f = f
        shifts = sorted((i - 1, a.lead) for i, a in f.coeffs.items() if 2 <= i <= D)
        self.least = shifts[0][0] if shifts else D + 1
        # padded to whole rows of every grid: a sum past D reaches no m <= D
        table = np.empty(D + 1 + (shifts[-1][0] if shifts else 0), dtype=np.int64)
        table.fill(INF)
        table[0] = 0
        for s, cost in shifts:
            rows = -(-(D + 1) // s)
            grid = table[: rows * s].reshape(rows, s)
            ramp = np.arange(rows, dtype=np.int64)[:, None] * cost
            grid -= ramp
            np.minimum.accumulate(grid, axis=0, out=grid)
            grid += ramp
        self.table = _clamp(table[: D + 1])


class DensePoly:
    def __init__(self, field, ram, D, W):
        self.field = field
        self.ram = ram
        self.D = D
        self.W = W
        self.base, self.prec = bounds = np.empty((2, D + 1), dtype=np.int64)
        bounds.fill(INF)
        self.data = np.zeros((D + 1, W, field.r), dtype=np.int64)
        # (f, f's columns) when this polynomial is a product by the map f,
        # (f, None) when it is f's columns itself
        self.map_columns = None
        # (f's ``_MinPlus``, k) while this polynomial is the power f^k
        self.power = None

    @classmethod
    def of_map(cls, f, D, W):
        """The coefficients of a PowerSeriesMap ``f`` (exact, of degree >=
        1) as columns; its degrees above D only reach x-degrees above D."""
        poly = cls(f.field, f.ram, D, W)
        for i, a in f.coeffs.items():
            if i <= D:
                poly.set_column(i, a)
        poly.power = (_MinPlus(f, D), 1)
        return poly

    # -- column access ---------------------------------------------------------

    def set_column(self, d, series):
        """Install a series as the coefficient of x^d (window-clamped)."""
        self.power = None
        self.data[d] = 0
        if series.is_zero_as_known:
            self.base[d] = INF
            self.prec[d] = INF if series.exact else min(series.prec, INF)
            return
        lead = series.lead
        eff = lead + self.W if series.exact else min(series.prec, lead + self.W)
        self.base[d] = lead
        self.prec[d] = eff
        rows = series.coeffs[: self.W]
        self.data[d, : rows.shape[0]] = rows
        self.data[d][lead + np.arange(self.W) >= eff] = 0

    def column(self, d, by=None):
        """Coefficient of x^d as a LaurentSeries, or its product by ``by``
        = (lead, rows, prec), an inexact series whose first row is
        nonzero, formed as ``LaurentSeries.__mul__`` forms it."""
        base, prec = int(self.base[d]), int(self.prec[d])
        if prec >= _INF_CUT:
            if base < _INF_CUT:
                raise PrecisionError("column with finite base must carry finite horizon")
            return LaurentSeries.zero(self.field, self.ram, 0, exact=True)
        lead, rows, horizon = by or (0, None, None)
        nonzero = _any(self.data[d], axis=1)
        first = int(nonzero.argmax())
        if not nonzero[first]:  # zero as known: its lead is its horizon
            return LaurentSeries.zero(self.field, self.ram, prec + lead)
        if by is None:  # a copy: the polynomial's data stays writable
            return LaurentSeries._of(self.field, self.ram, base, self.data[d].copy(), prec)
        base += first
        prec = min(prec + lead, horizon + base)
        product = _convolve(self.field, self.data[d, first:], rows, prec - base - lead)
        return LaurentSeries._of(self.field, self.ram, base + lead, product, prec)

    def _live(self):
        """Index of the first column that is not an exact zero (D + 1 if
        there is none): x^k for the power f^k, as v(λ) = 0."""
        if self.power is not None:
            return min(self.power[1], self.D + 1)
        live = self.prec < _INF_CUT
        first = int(live.argmax())
        return first if live[first] else self.D + 1

    # -- bulk operations ---------------------------------------------------------

    def mul_by_map(self, f):
        """Return self * f, truncated to x-degree D.  The product carries
        the pair (f, columns of f) it was multiplied by, so a chain of
        products by one map installs f's columns and forms their factor
        once, at its first link, or never when self is f's columns, as
        the pair (f, None) marks (the pair of its product then holds
        self, and self holds no reference back)."""
        pair = self.map_columns
        if pair is None or pair[0] is not f:
            pair = (f, DensePoly.of_map(f, self.D, self.W))
        columns = self if pair[1] is None else pair[1]  # (f, None): self is f's columns
        out = self.mul(columns)
        out.map_columns = (f, columns)
        return out

    def _check_exact_start(self):
        """Raise unless self is an exact-start power, as ``mul`` needs."""
        if _any(self.prec != np.minimum(self.base + self.W, INF), axis=None):
            raise CertificateError("mul takes exact-start powers: a horizon is not base + W")

    @cached_property
    def _factor(self):
        """The right factor of ``mul``: live columns and their bases, and
        data columns trimmed to their nonzero rows with the exponent of
        the first kept row.  Forming it checks that self is an exact-start
        power and makes the arrays read-only."""
        self._check_exact_start()
        W = self.W
        cols = (self.base < _INF_CUT).nonzero()[0]
        nonzero = _any(self.data[cols], axis=2)
        held = _any(nonzero, axis=1)
        at, nonzero = cols[held], nonzero[held]
        first = nonzero.argmax(axis=1)
        length = W - nonzero[:, ::-1].argmax(axis=1) - first
        rows = first[:, None] + np.arange(np.maximum.reduce(length, initial=0))
        trimmed = self.data[at[:, None], np.minimum(rows, W - 1)]
        trimmed[rows >= W] = 0
        for array in (self.base, self.prec, self.data):
            array.flags.writeable = False
        return cols, self.base[cols], at, trimmed, self.base[at] + first

    def mul(self, other):
        """Return self * other, truncated to x-degree D, for exact-start
        powers (``CertificateError`` otherwise).

        The columns at x^j of self and x^i of other give the base at
        x^(i+j) base[j] + base[i] and, being full-window, the horizon
        min(prec[j] + base[i], base[j] + prec[i]) = base[j] + base[i] + W.
        Every live column counts in the bases; only pairs that both hold
        data are convolved.  Only x^(lo + i) .. x^D are reached, lo and i
        the first live columns.  A power of a map is exact-start as
        formed, so only another left operand is checked here.
        """
        if self.power is None:
            self._check_exact_start()
        D, W = self.D, self.W
        out = DensePoly(self.field, self.ram, D, W)
        lo = self._live()
        cols, col_bases, at, trimmed, starts = other._factor
        n = int(cols.searchsorted(D + 1 - lo))
        if not n:
            return out
        start = lo + int(cols[0])
        # bases: of f^k below the cut from f's table, then the grid
        cut, mine, theirs = start, self.power, other.power
        if mine is not None and theirs is not None and mine[0].f is theirs[0].f:
            k = mine[1] + theirs[1]  # = start: f^j's first live column is x^j
            out.power = mine[0], k
            cut = min(D + 1, k + (k + 1) * mine[0].least)
            out.base[start:cut] = mine[0].table[: cut - start]
        if cut <= D:
            # row c: other's column cols[c] against self's column d -
            # cols[c] >= lo (INF before) at x^d, d >= cut; a row holds its
            # indices and bases, a batch half the budget (the other half
            # is for the powers a solve keeps, ``schroder._GapPowers``)
            cols, col_bases = cols[:n, None], col_bases[:n, None]
            pad = int(cols[-1, 0] - cols[0, 0])
            bases = np.empty(pad + D + 1 - lo, dtype=np.int64)
            bases[:pad], bases[pad:] = INF, self.base[lo:]
            band = np.arange(cut, D + 1) + (pad - lo)
            out_base = out.base[cut:]
            step = _per_batch(2 * 8 * 2 * band.size)
            for c in range(0, n, step):
                sums = bases[band - cols[c : c + step]]
                sums += col_bases[c : c + step]
                np.minimum(out_base, np.minimum.reduce(sums), out=out_base)
                del sums  # not held through the next batch
            _clamp(out_base)
        out.prec[start:] = np.minimum(out.base[start:] + W, INF)
        # data pass: self's data columns j against other's data columns i,
        # trimmed, for every pair with i + j <= D
        js = _any(self.data[lo:], axis=(1, 2)).nonzero()[0] + lo
        if not js.size or not at.size:
            return out
        pj, pi = (js[:, None] + at[None, :] <= D).nonzero()
        pj = js[pj]
        at = at[pi] + pj
        # a product's first row, base[j] + starts[i], is >= out.base[i + j]
        shifts = self.base[pj] + starts[pi] - out.base[at]
        # a pair holds two columns (W + L rows of r coordinates, L the
        # longest trimmed), its shift and its product (W rows)
        step = _per_batch(8 * (self.field.r * (2 * W + trimmed.shape[1]) + 1))
        for c in range(0, pj.size, step):
            batch = slice(c, c + step)
            prod = _convolve(
                self.field, self.data[pj[batch]], trimmed[pi[batch]], W, shifts[batch]
            )
            np.add.at(out.data, at[batch], prod)
            del prod  # not held through the next batch
        took = np.zeros(D + 1, dtype=bool)  # the columns that took sums
        took[at] = True
        took = took.nonzero()[0]
        out.data[took] %= self.field.p
        return out

    def add_scaled(self, series, other):
        """self += series * other, series a scalar and other any polynomial.

        A zero-to-precision series contributes no data but still caps the
        horizons of the affected columns, and so does every live column
        of other; only the columns of other that hold data are convolved.
        """
        lo = other._live()
        if series.is_exact_zero or lo > self.D:
            return
        self.power = None
        base, prec = self.base[lo:], self.prec[lo:]
        o_base, o_prec = other.base[lo:], other.prec[lo:]
        new_base, new_prec = base, prec
        nonzero = _any(other.data[lo:], axis=2)  # one pass for leads and data
        has = _any(nonzero, axis=1)
        scaled = not series.is_zero_as_known
        if scaled:
            new_base = _clamp(np.minimum(base, o_base + series.lead))
            new_prec = np.minimum(prec, o_prec + series.lead)
        if not series.exact:
            # the scalar's unknown tail also caps the result horizon, past
            # each column's lead (its horizon where it holds no data)
            leads = np.where(has, o_base + nonzero.argmax(axis=1), o_prec)
            new_prec = np.minimum(new_prec, leads + series.prec)
        p, r, W = self.field.p, self.field.r, self.W
        new_prec = _clamp(new_prec)
        # a column that took no data keeps digits below min(prec, new base
        # + W): only one whose horizon fell below that needs a mask, and
        # the data added is masked as it is added
        lowered = new_prec < np.minimum(prec, new_base + W)
        if scaled:
            lowered &= ~has
            data = self.data[lo:]
            # a column whose base moves down by d keeps its rows, d later
            moved = ((new_base < base) & (base < _INF_CUT)).nonzero()[0]
            if moved.size:
                rows = np.arange(W) - (base - new_base)[moved, None]
                kept = data[moved[:, None], np.maximum(rows, 0)]
                kept[rows < 0] = 0
                data[moved] = kept
            cols = has.nonzero()[0]
            shifts = o_base[cols] + series.lead - new_base[cols]
            # a column holds its data, its shift, its product and its sum
            step = _per_batch(8 * (3 * W * r + 1))
            ramp = np.arange(W)
            for c in range(0, cols.size, step):
                at = cols[c : c + step]
                prod = _convolve(
                    self.field, other.data[lo + at], series.coeffs, W, shifts[c : c + step]
                )
                prod += data[at]
                prod[new_base[at, None] + ramp >= new_prec[at, None]] = 0
                prod %= p
                data[at] = prod
                del prod  # not held through the next batch
        self.base[lo:], self.prec[lo:] = new_base, new_prec
        self._mask_all(lowered.nonzero()[0] + lo)

    def _mask_all(self, cols):
        """Zero the entries at or beyond each horizon in the columns
        ``cols``."""
        if cols.size:
            beyond = self.base[cols, None] + np.arange(self.W) >= self.prec[cols, None]
            self.data[cols] = np.where(beyond[:, :, None], 0, self.data[cols])
