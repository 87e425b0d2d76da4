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

* ``mul``, the product by another ``DensePoly``, makes two passes over
  the other's packed ``_factor``.  The horizon pass takes one broadcast
  minimum over a grid of (live column of the other) × (x-degree) for the
  bases and horizons, on the band of degrees the product can reach.  The
  data pass stacks the pairs of columns that both hold data, self's
  column j against the other's column i trimmed to its nonzero rows,
  convolves each pair into the window at x^(i+j) and adds it there.
  A solve multiplies by f's columns and the stride f^p only,
  so each factor is formed once; its polynomial is read-only from then
  on, so no factor goes stale.  ``mul_by_map`` multiplies by a map's
  exact coefficients, installed as columns by ``of_map`` once per chain
  of products: each product carries ``map_columns = (f, columns)``, and
  f's factor with it, to the next (installing them per product made the
  sweep workload 5% slower);
* ``add_scaled``, the accumulation of a scalar multiple of another
  polynomial: one convolution of its data columns with the scalar into
  the sum's windows, whose columns are realigned where their base moves.

A column without data still counts in the horizon pass and in the
horizons of ``add_scaled``.  If it is zero only to precision, O(U^h),
its product with anything is known only below that horizon, so it caps
the horizons of the columns it reaches; only its convolution, which
would add zeros, is skipped.  By the structural zeros of p-divisible
maps and the window W, most columns of f^k and of the running sum hold
no data.

``set_column`` clamps a map coefficient to its first W digits, and that
loses nothing.  A digit of f at ``lead + W`` or beyond reaches the
product at x^(i+j) at ``base[j] + lead + W`` or beyond, which is at or
past that column's horizon ``prec[j] + lead``, because ``prec[j] <=
base[j] + W``; so is the horizon ``lead + W`` the clamped column carries,
which therefore never lowers a product's horizon.

Both skip the leading exact-zero columns (base and horizon INF) of the
polynomial they read.  A column that is zero only to precision is live.

Precision bookkeeping is the pessimistic minimum rule of
:mod:`lindisc.laurent`: an operation's horizon is the minimum horizon its
operands justify, and entries at or beyond a column's horizon are zeroed.
Columns never touched by any contribution stay exactly zero (sentinel
horizon INF).  Every finite column has ``prec <= base + W``, and columns
with an INF base hold zeros.

Started from exact coefficients, as in the solver, the bases of f^k are
the k-th min-plus power of the leads of f, every finite column has
``prec = base + W``, and the digits below the horizon are the true digits
of f^k.  Min-plus convolution is associative and true digits do not
depend on how they were computed, so every honest route to f^k (f^{k-1}·f
or f^{k-p}·f^p) gives the same bases, horizons and data.
"""

from functools import cached_property

import numpy as np

from .errors import PrecisionError
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
        # (f, f's columns) when this polynomial is a product by the map f
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
        once, at its first link."""
        pair = self.map_columns
        if pair is None or pair[0] is not f:
            pair = (f, DensePoly.of_map(f, self.D, self.W))
        out = self.mul(pair[1])
        out.map_columns = pair
        return out

    @cached_property
    def _factor(self):
        """The right factor of ``mul``: live columns, their v and h, and
        data columns trimmed to their nonzero rows with the exponent of
        the first kept row.  Forming it makes the arrays read-only."""
        W = self.W
        cols = (self.prec < _INF_CUT).nonzero()[0]
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
        v = np.minimum(self.base[cols], self.prec[cols])
        return cols, v, self.prec[cols], at, trimmed, self.base[at] + first

    def mul(self, other):
        """Return self * other, truncated to x-degree D.

        The columns at x^j of self and at x^i of other contribute
        ``base[j] + v`` to the base at x^(i+j) and ``min(prec[j] + v,
        b + h)`` to its horizon: v = min(base[i], prec[i]) bounds the
        valuation of other's column and h = prec[i] is its horizon;
        b = min(base[j], prec[j]) bounds the valuation of self's column.
        Every live column counts there; only the pairs of columns that
        both hold data are convolved.  Self's columns below its first live
        one, lo, are exact zeros, so only x^(lo + i) .. x^D are reached, i
        other's first live column.
        """
        D, W = self.D, self.W
        out = DensePoly(self.field, self.ram, D, W)
        lo = self._live()
        cols, v, h, at, trimmed, starts = other._factor
        n = int(cols.searchsorted(D + 1 - lo))
        if not n:
            return out
        cols, v, h = cols[:n, None], v[:n, None], h[:n, None]
        start = lo + int(cols[0, 0])
        # horizon pass: row c of the grid is other's column cols[c] against
        # self's column d - cols[c] >= lo (INF before) at x^d, d >= start; a
        # row holds its indices and up to three temporaries of the band
        pad = int(cols[-1, 0] - cols[0, 0])
        bases = np.empty(pad + D + 1 - lo, dtype=np.int64)
        precs = np.empty_like(bases)
        bases[:pad] = precs[:pad] = INF
        bases[pad:], precs[pad:] = self.base[lo:], self.prec[lo:]
        bounds = np.minimum(bases, precs)
        band = np.arange(start, D + 1) + (pad - lo)
        out_base, out_prec = out.base[start:], out.prec[start:]
        step = _per_batch(8 * 4 * band.size)
        for c in range(0, n, step):
            grid = band - cols[c : c + step]
            vc = v[c : c + step]
            np.minimum(out_base, np.minimum.reduce(bases[grid] + vc), out=out_base)
            cap = np.minimum(precs[grid] + vc, bounds[grid] + h[c : c + step])
            np.minimum(out_prec, np.minimum.reduce(cap), out=out_prec)
            del grid, cap  # not held through the next batch
        _clamp(out_base)
        _clamp(out_prec)
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
        out._mask_all(start)
        return out

    def add_scaled(self, series, other):
        """self += series * other (series is a scalar Laurent series).

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
        D, those a product or sum wrote.  Only a column whose horizon falls
        inside its window can hold any."""
        base, prec = self.base[lo:], self.prec[lo:]
        rows = ((prec < base + self.W) & (base < _INF_CUT)).nonzero()[0] + lo
        if rows.size:
            beyond = self.base[rows, None] + np.arange(self.W) >= self.prec[rows, None]
            self.data[rows] = np.where(beyond[:, :, None], 0, self.data[rows])
