"""Internal dense engine for polynomials in x with Laurent-series
coefficients.  It serves the term-matching solver ``solve_sfe`` only;
composition of coefficient tables is ``powerseries.table_compose``.

A ``DensePoly`` holds, per x-degree d <= D, a window of W consecutive
U-coefficients starting at ``base[d]`` together with the justified horizon
``prec[d]``.  Both bulk operations are realignment gathers over whole
column ranges, so the per-degree Python cost is constant:

* the product by a *factor table*, one row ``(degree, valuation bound,
  horizon, nonzero terms)`` per nonzero coefficient of the other factor.
  ``mul_by_map`` builds the table from a map's exact coefficients,
  ``factors`` from the columns of another ``DensePoly``, where a
  column's base (or its horizon, where that is lower) bounds its
  valuation;
* ``add_scaled``, the accumulation of a scalar multiple of another
  polynomial.

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

import numpy as np

from .errors import PrecisionError
from .field import FqElement
from .laurent import LaurentSeries

INF = np.int64(2**62)
_INF_CUT = np.int64(2**61)


def _terms(field, lead, rows):
    """(U-exponent, coefficient) per nonzero row of coefficient rows
    starting at U^lead, the coefficient ready for vectorised scaling: an
    int for r = 1, a multiplication matrix for r > 1."""
    out = []
    for j in np.flatnonzero(rows.any(axis=1)):
        row = rows[j]
        if field.r == 1:
            out.append((int(lead) + int(j), int(row[0])))
        else:
            out.append((int(lead) + int(j), FqElement(field, list(row)).mul_matrix()))
    return out


def _realigned(data, base, new_base):
    """Column windows of ``data`` starting at ``base``, re-read from
    ``new_base``: entries shifted out of the window, and columns where
    either base is INF, read as zero."""
    W = data.shape[1]
    idx = np.arange(W)[None, :] - (base - new_base)[:, None]
    finite = (base < _INF_CUT) & (new_base < _INF_CUT)
    valid = (idx >= 0) & (idx < W) & finite[:, None]
    gathered = np.take_along_axis(data, np.clip(idx, 0, W - 1)[:, :, None], axis=1)
    return np.where(valid[:, :, None], gathered, 0)


def _accumulate(acc, field, terms, data, base, new_base):
    """acc += Σ c·U^s · (data, base) over the terms (s, c), each product
    re-read from new_base."""
    for s, op in terms:
        gathered = _realigned(data, base + s, new_base)
        if field.r == 1:
            acc += gathered * op
        else:
            acc += gathered @ op.T


def _clamp(values):
    values[values >= _INF_CUT] = INF
    return values


class DensePoly:
    def __init__(self, field, ram, D, W):
        self.field = field
        self.ram = ram
        self.D = D
        self.W = W
        self.base = np.full(D + 1, INF, dtype=np.int64)
        self.prec = np.full(D + 1, INF, dtype=np.int64)
        self.data = np.zeros((D + 1, W, field.r), dtype=np.int64)

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
        return LaurentSeries(
            self.field, self.ram, int(self.base[d]), self.data[d], int(self.prec[d])
        )

    def _live(self):
        """Index of the first column that is not an exact zero (D + 1 if
        there is none)."""
        live = self.prec < _INF_CUT
        return int(np.argmax(live)) if live.any() else self.D + 1

    def _leads(self, lo):
        """Valuation bound per column from ``lo`` on: the true lead, or
        the horizon where no nonzero data is known (INF for an exact zero)."""
        nonzero = self.data[lo:].any(axis=2)
        has = nonzero.any(axis=1)
        first = np.argmax(nonzero, axis=1)
        leads = np.where(has, self.base[lo:] + first, self.prec[lo:])
        return np.minimum(leads, INF)

    def factors(self):
        """This polynomial as a factor table for ``mul_factors``."""
        return [
            (
                int(d),
                int(min(self.base[d], self.prec[d])),
                int(self.prec[d]),
                _terms(self.field, self.base[d], self.data[d]),
            )
            for d in np.flatnonzero(self.prec < _INF_CUT)
        ]

    # -- bulk operations ---------------------------------------------------------

    def mul_by_map(self, f):
        """Return self * f, truncated to x-degree D.

        ``f`` is a PowerSeriesMap with exact coefficients of degree >= 1;
        its degrees above D only reach x-degrees above D.
        """
        return self.mul_factors(
            [
                (i, a.lead, INF, _terms(self.field, a.lead, a.coeffs))
                for i, a in sorted(f.coeffs.items())
                if i <= self.D
            ]
        )

    def mul_factors(self, factors):
        """Return self times the polynomial of a factor table, truncated
        to x-degree D.

        The columns at x^j of self and at x^i of the factor contribute
        ``base[j] + v`` to the base at x^(i+j) and ``min(prec[j] + v,
        b + h)`` to its horizon: v and h are the factor column's
        valuation bound and horizon, b = min(base[j], prec[j]) bounds the
        valuation of self's column.
        """
        D, W = self.D, self.W
        out = DensePoly(self.field, self.ram, D, W)
        lo = self._live()
        factors = [row for row in factors if lo + row[0] <= D]
        if not factors:
            return out
        bounds = np.minimum(self.base, self.prec)
        for i, v, h, _ in factors:
            n = D + 1 - i
            out.base[lo + i :] = np.minimum(out.base[lo + i :], self.base[lo:n] + v)
            cap = self.prec[lo:n] + v
            if h < _INF_CUT:
                cap = np.minimum(cap, bounds[lo:n] + h)
            out.prec[lo + i :] = np.minimum(out.prec[lo + i :], cap)
        _clamp(out.base)
        _clamp(out.prec)
        start = lo + min(row[0] for row in factors)
        acc = np.zeros_like(out.data[start:])
        for i, _, _, terms in factors:
            n = D + 1 - i
            _accumulate(
                acc[lo + i - start :], self.field, terms,
                self.data[lo:n], self.base[lo:n], out.base[lo + i :],
            )
        out.data[start:] = acc % self.field.p
        out._mask_all()
        return out

    def add_scaled(self, series, other):
        """self += series * other (series is a scalar Laurent series).

        A zero-to-precision series contributes no data but still caps the
        horizons of the affected columns.
        """
        lo = other._live()
        if series.is_exact_zero or lo > self.D:
            return
        base, prec = self.base[lo:], self.prec[lo:]
        new_base, new_prec = base, prec
        if not series.is_zero_as_known:
            new_base = _clamp(np.minimum(base, other.base[lo:] + series.lead))
            new_prec = np.minimum(prec, other.prec[lo:] + series.lead)
        if not series.exact:
            # the scalar's unknown tail also caps the result horizon
            new_prec = np.minimum(new_prec, other._leads(lo) + series.prec)
        terms = _terms(self.field, series.lead, series.coeffs)
        if terms:
            data = self.data[lo:]
            moved = (base != new_base) & (base < _INF_CUT) & (new_base < _INF_CUT)
            if moved.any():
                data = _realigned(data, base, new_base)
            acc = data.astype(np.int64)
            _accumulate(acc, self.field, terms, other.data[lo:], other.base[lo:], new_base)
            self.data[lo:] = acc % self.field.p
            self.base[lo:] = new_base
        self.prec[lo:] = _clamp(new_prec)
        self._mask_all()

    def _mask_all(self):
        """Zero the entries at or beyond each horizon.  Only a column whose
        horizon falls inside its window can hold any."""
        rows = np.flatnonzero((self.prec < self.base + self.W) & (self.base < _INF_CUT))
        if rows.size:
            beyond = self.base[rows, None] + np.arange(self.W) >= self.prec[rows, None]
            self.data[rows] = np.where(beyond[:, :, None], 0, self.data[rows])
