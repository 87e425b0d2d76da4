"""Internal dense engine for polynomials in x with Laurent-series
coefficients.  It serves the term-matching solver ``solve_sfe`` only;
composition of coefficient tables is ``powerseries.table_compose``.

A ``DensePoly`` holds, per x-degree d <= D, a window of W consecutive
U-coefficients starting at ``base[d]`` together with the justified horizon
``prec[d]``.  Both bulk operations convolve only the columns that hold
data, in batched ``laurent._convolve`` calls that form only the W rows
of each result window, shifted into place, so the per-degree Python
cost is constant.
``laurent._per_batch`` sizes each batch (grid rows or column pairs of
``mul``, data columns of ``add_scaled``) from the bytes one item holds;
products are exact and sums are taken mod p, so no batch changes a result:

* ``mul``, the product of two exact-start powers (below), makes two
  passes over the other's packed ``_factor``.  The base pass takes one
  broadcast minimum of base[j] + base[i] over a grid of (live column i
  of the other) × (x-degree) on the band the product can reach, and
  writes the product's horizons from it.  The data pass convolves the
  pairs of columns that both hold data, self's column j against the
  other's column i trimmed to its nonzero rows, into the window at
  x^(i+j).  A solve multiplies by f's columns, the stride f^p and the
  gap powers u^g it keeps, so each factor is formed once; its
  polynomial is read-only from then on, so no factor goes stale.
  ``mul_by_map`` multiplies by a map's exact coefficients, installed as
  columns by ``of_map`` once per chain of products: each product
  carries ``map_columns = (f, columns)``, and f's factor with it, to
  the next (installing them per product made the sweep workload 5%
  slower), and the solve's f^1, being f's columns, is marked so that
  its own products read it;
* ``add_scaled``, the accumulation of a scalar multiple of any
  polynomial: one convolution of its data columns with the scalar into
  the sum's windows, whose columns are realigned where their base moves.

An exact-start power has ``prec = base + W`` on every finite column and
is an exact zero (base and horizon INF) elsewhere.  ``of_map``'s columns
are one, and so is a product of two: for full-window columns the minimum
rule's horizon at x^(i+j), min(prec[j] + base[i], base[j] + prec[i]), is
base[j] + base[i] + W, and the data pass forms only W rows from each
base.  ``mul`` checks both operands: a horizon below its window or a
column zero only to precision raises ``CertificateError``.  Clamping a
map coefficient to its first W digits loses nothing: a digit at
``lead + W`` or beyond reaches x^(i+j) at or past base[j] + lead + W.
Started from a map's exact coefficients, the bases of f^k are the k-th
min-plus power of the leads of f and the digits below the horizon are
the true digits of f^k; min-plus convolution is associative, so every
honest route to f^k (f^{k-1}·f or f^{k-p}·f^p) gives the same bases,
horizons and data.

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


class DensePoly:
    def __init__(self, field, ram, D, W):
        self.field = field
        self.ram = ram
        self.D = D
        self.W = W
        self.base, self.prec = np.full((2, D + 1), INF, dtype=np.int64)
        self.data = np.zeros((D + 1, W, field.r), dtype=np.int64)
        # (f, f's columns) when this polynomial is a product by the map f,
        # (f, None) when it is f's columns itself
        self.map_columns = None

    @classmethod
    def of_map(cls, f, D, W):
        """The coefficients of a PowerSeriesMap ``f`` (exact, of degree >=
        1) as columns; its degrees above D only reach x-degrees above D."""
        poly = cls(f.field, f.ram, D, W)
        for i, a in f.coeffs.items():
            if i <= D:
                poly.set_column(i, a)
        return poly

    # -- column access ---------------------------------------------------------

    def set_column(self, d, series):
        """Install a series as the coefficient of x^d (window-clamped)."""
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

    def column(self, d):
        """Coefficient of x^d as a LaurentSeries."""
        if self.base[d] >= _INF_CUT:
            if self.prec[d] >= _INF_CUT:
                return LaurentSeries.zero(self.field, self.ram, 0, exact=True)
            return LaurentSeries.zero(self.field, self.ram, int(self.prec[d]))
        if self.prec[d] >= _INF_CUT:
            raise PrecisionError("column with finite base must carry finite horizon")
        # a copy: the polynomial's data stays writable
        return LaurentSeries._of(
            self.field, self.ram, int(self.base[d]), self.data[d].copy(), int(self.prec[d])
        )

    def _live(self):
        """Index of the first column that is not an exact zero (D + 1 if
        there is none)."""
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
        min(prec[j] + base[i], base[j] + prec[i]) = base[j] + base[i] + W:
        the product's horizon is its base + W.  Every live column counts
        in the base pass; only pairs that both hold data are convolved.
        Self's columns below its first live one, lo, are exact zeros, so
        only x^(lo + i) .. x^D are reached, i other's first live column.
        """
        self._check_exact_start()
        D, W = self.D, self.W
        out = DensePoly(self.field, self.ram, D, W)
        lo = self._live()
        cols, col_bases, at, trimmed, starts = other._factor
        n = int(cols.searchsorted(D + 1 - lo))
        if not n:
            return out
        cols, col_bases = cols[:n, None], col_bases[:n, None]
        start = lo + int(cols[0, 0])
        # base pass: row c of the grid is other's column cols[c] against
        # self's column d - cols[c] >= lo (INF before) at x^d, d >= start; a
        # row holds its indices and the bases it gathers, and a batch half
        # the budget: the other half is for the powers a solve keeps
        # (``schroder._GapPowers``)
        pad = int(cols[-1, 0] - cols[0, 0])
        bases = np.empty(pad + D + 1 - lo, dtype=np.int64)
        bases[:pad], bases[pad:] = INF, self.base[lo:]
        band = np.arange(start, D + 1) + (pad - lo)
        out_base = out.base[start:]
        step = _per_batch(2 * 8 * 2 * band.size)
        for c in range(0, n, step):
            sums = bases[band - cols[c : c + step]]
            sums += col_bases[c : c + step]
            np.minimum(out_base, np.minimum.reduce(sums), out=out_base)
            del sums  # not held through the next batch
        _clamp(out_base)
        out.prec[start:] = np.minimum(out_base + W, INF)
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
        out.data[start:] %= self.field.p
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
        base, prec = self.base[lo:], self.prec[lo:]
        new_base, new_prec = base, prec
        nonzero = _any(other.data[lo:], axis=2)  # one pass for leads and data
        has = _any(nonzero, axis=1)
        if not series.is_zero_as_known:
            new_base = _clamp(np.minimum(base, other.base[lo:] + series.lead))
            new_prec = np.minimum(prec, other.prec[lo:] + series.lead)
        if not series.exact:
            # the scalar's unknown tail also caps the result horizon, past
            # each column's lead (its horizon where it holds no data)
            leads = np.where(has, other.base[lo:] + nonzero.argmax(axis=1), other.prec[lo:])
            new_prec = np.minimum(new_prec, np.minimum(leads, INF) + series.prec)
        if not series.is_zero_as_known:
            p, r, W = self.field.p, self.field.r, self.W
            data = self.data[lo:]
            # a column whose base moves down by d keeps its rows, d later
            moved = ((new_base < base) & (base < _INF_CUT)).nonzero()[0]
            if moved.size:
                rows = np.arange(W) - (base - new_base)[moved, None]
                kept = data[moved[:, None], np.maximum(rows, 0)]
                kept[rows < 0] = 0
                data[moved] = kept
            cols = has.nonzero()[0]
            shifts = other.base[lo + cols] + series.lead - new_base[cols]
            # a column holds its data, its shift, its product and its sum
            step = _per_batch(8 * (3 * W * r + 1))
            for c in range(0, cols.size, step):
                at = cols[c : c + step]
                prod = _convolve(
                    self.field, other.data[lo + at], series.coeffs, W, shifts[c : c + step]
                )
                data[at] = (data[at] + prod) % p
                del prod  # not held through the next batch
            self.base[lo:] = new_base
        self.prec[lo:] = _clamp(new_prec)
        self._mask_all(lo)

    def _mask_all(self, lo):
        """Zero the entries at or beyond each horizon in the columns lo ..
        D, those a sum wrote.  Only a column whose horizon falls
        inside its window can hold any."""
        base, prec = self.base[lo:], self.prec[lo:]
        rows = ((prec < base + self.W) & (base < _INF_CUT)).nonzero()[0] + lo
        if rows.size:
            beyond = self.base[rows, None] + np.arange(self.W) >= self.prec[rows, None]
            self.data[rows] = np.where(beyond[:, :, None], 0, self.data[rows])
