"""Internal dense engine for polynomials in x with Laurent-series
coefficients.  It serves the term-matching solver ``solve_sfe`` only;
composition of coefficient tables is ``powerseries.table_compose``.

A ``DensePoly`` holds, per x-degree d <= D, a window of W consecutive
U-coefficients starting at ``base[d]`` together with the justified horizon
``prec[d]``.  All bulk operations (multiplication by a power-series map,
accumulation of a scalar multiple of another polynomial) are realignment
gathers over the whole (D+1, W, r) array, so the per-degree Python cost is
constant.

Precision bookkeeping is the pessimistic minimum rule of
:mod:`lindisc.laurent`: an operation's horizon is the minimum horizon its
operands justify, and entries at or beyond a column's horizon are zeroed.
Columns never touched by any contribution stay exactly zero (sentinel
horizon INF).  Every finite column has ``prec <= base + W``, and columns
with an INF base hold zeros.
"""

import numpy as np

from .errors import PrecisionError
from .field import FqElement
from .laurent import LaurentSeries

INF = np.int64(2**62)
_INF_CUT = np.int64(2**61)


def _terms(field, series):
    """(U-exponent, coefficient) per nonzero row of a series, the
    coefficient ready for vectorised scaling: an int for r = 1, a
    multiplication matrix for r > 1."""
    for j in np.flatnonzero(series.coeffs.any(axis=1)):
        row = series.coeffs[j]
        if field.r == 1:
            yield series.lead + int(j), int(row[0])
        else:
            yield series.lead + int(j), FqElement(field, list(row)).mul_matrix()


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


def _accumulate(acc, field, series, data, base, new_base):
    """acc += series * (data, base), each term re-read from new_base."""
    for s, op in _terms(field, series):
        gathered = _realigned(data, base + s, new_base)
        if field.r == 1:
            acc += gathered * op
        else:
            acc += gathered @ op.T


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

    def _leads(self):
        """Valuation bound per column: the true lead, or the horizon where
        no nonzero data is known (INF for an exact zero)."""
        nonzero = self.data.any(axis=2)
        has = nonzero.any(axis=1)
        first = np.argmax(nonzero, axis=1)
        leads = np.where(has, self.base + first, self.prec)
        return np.minimum(leads, INF)

    # -- bulk operations ---------------------------------------------------------

    def mul_by_map(self, f):
        """Return self * f, truncated to x-degree D.

        ``f`` is a PowerSeriesMap with exact coefficients of degree >= 1.
        """
        D, W = self.D, self.W
        out = DensePoly(self.field, self.ram, D, W)
        # degrees above D only contribute above x^D
        degs = [
            (i, a)
            for i, a in sorted(f.coeffs.items())
            if i <= D and not a.is_zero_as_known
        ]
        # window bases and horizons by the minimum rule
        for i, a in degs:
            out.base[i:] = np.minimum(out.base[i:], self.base[: D + 1 - i] + a.lead)
            out.prec[i:] = np.minimum(out.prec[i:], self.prec[: D + 1 - i] + a.lead)
        out.base[out.base >= _INF_CUT] = INF
        out.prec[out.prec >= _INF_CUT] = INF
        acc = np.zeros_like(out.data)
        for i, a in degs:
            n = D + 1 - i
            _accumulate(acc[i:], self.field, a, self.data[:n], self.base[:n], out.base[i:])
        out.data = acc % self.field.p
        out._mask_all()
        return out

    def add_scaled(self, series, other):
        """self += series * other (series is a scalar Laurent series).

        A zero-to-precision series contributes no data but still caps the
        horizons of the affected columns.
        """
        other_leads = other._leads()
        if series.is_zero_as_known:
            if series.exact:
                return
            cap = np.minimum(other_leads + series.prec, INF)
            self.prec = np.minimum(self.prec, cap)
            self.prec[self.prec >= _INF_CUT] = INF
            self._mask_all()
            return
        lead_b = series.lead
        new_base = np.minimum(self.base, np.minimum(other.base + lead_b, INF))
        new_prec = np.minimum(self.prec, np.minimum(other.prec + lead_b, INF))
        if not series.exact:
            # the scalar's unknown tail also caps the result horizon
            new_prec = np.minimum(new_prec, np.minimum(other_leads + series.prec, INF))
        new_base[new_base >= _INF_CUT] = INF
        new_prec[new_prec >= _INF_CUT] = INF
        self._realign(new_base)
        acc = self.data.astype(np.int64)
        _accumulate(acc, self.field, series, other.data, other.base, new_base)
        self.data = acc % self.field.p
        self.prec = new_prec
        self._mask_all()

    def _realign(self, new_base):
        """Shift every column window to start at new_base (<= base)."""
        moved = (self.base != new_base) & (self.base < _INF_CUT) & (new_base < _INF_CUT)
        if moved.any():
            self.data = _realigned(self.data, self.base, new_base)
        self.base = new_base

    def _mask_all(self):
        finite = self.base < _INF_CUT
        if not finite.any():
            return
        exps = self.base[:, None] + np.arange(self.W)[None, :]
        self.data[(exps >= self.prec[:, None]) & finite[:, None]] = 0
