"""Internal dense engine for polynomials in x with Laurent-series
coefficients, used by composition and the conjugacy solver.

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
horizon INF).
"""

import numpy as np

from .errors import PrecisionError
from .laurent import LaurentSeries

INF = np.int64(2**62)
_INF_CUT = np.int64(2**61)


def _series_terms(series):
    """(U-exponent, coefficient) pairs of the known support of a series."""
    terms = []
    for j in range(series.coeffs.shape[0]):
        row = series.coeffs[j]
        if row.any():
            terms.append((series.lead + j, row.copy()))
    return terms


def _coeff_op(field, row):
    """Prepare a coefficient for vectorised scaling: an int for r = 1,
    a multiplication matrix for r > 1."""
    if field.r == 1:
        return int(row[0])
    from .field import FqElement

    return FqElement(field, list(row)).mul_matrix()


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
        if series.is_zero_as_known:
            self.base[d] = INF
            self.prec[d] = INF if series.exact else min(series.prec, INF)
            self.data[d] = 0
            return
        lead = series.lead
        eff = lead + self.W if series.exact else min(series.prec, lead + self.W)
        self.base[d] = lead
        self.prec[d] = eff
        rows = series.coeffs[: self.W]
        self.data[d] = 0
        self.data[d, : rows.shape[0]] = rows
        self._mask_column(d)

    def _mask_column(self, d):
        if self.base[d] >= _INF_CUT:
            return
        exps = self.base[d] + np.arange(self.W)
        self.data[d][exps >= self.prec[d]] = 0

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
        """True lead per column (INF where no nonzero data)."""
        nonzero = self.data.any(axis=2)
        has = nonzero.any(axis=1)
        first = np.argmax(nonzero, axis=1)
        leads = np.where(has, self.base + first, INF)
        return np.minimum(leads, INF)

    # -- bulk operations ---------------------------------------------------------

    def mul_by_map(self, f):
        """Return self * f, truncated to x-degree D.

        ``f`` is a PowerSeriesMap with exact coefficients of degree >= 1.
        """
        D, W, r = self.D, self.W, self.field.r
        out = DensePoly(self.field, self.ram, D, W)
        degs = [(i, a) for i, a in sorted(f.coeffs.items()) if not a.is_zero_as_known]
        # window bases and horizons by the minimum rule
        for i, a in degs:
            lead_i = a.lead
            shifted_base = np.full(D + 1, INF, dtype=np.int64)
            shifted_prec = np.full(D + 1, INF, dtype=np.int64)
            shifted_base[i:] = np.minimum(self.base[: D + 1 - i] + lead_i, INF)
            shifted_prec[i:] = np.minimum(self.prec[: D + 1 - i] + lead_i, INF)
            out.base = np.minimum(out.base, shifted_base)
            out.prec = np.minimum(out.prec, shifted_prec)
        out.base[out.base >= _INF_CUT] = INF
        out.prec[out.prec >= _INF_CUT] = INF
        acc = np.zeros_like(out.data)
        arange_w = np.arange(W)
        for i, a in degs:
            for s, row in _series_terms(a):
                src = self.data[: D + 1 - i]
                src_base = self.base[: D + 1 - i]
                off = src_base + s - out.base[i:]
                idx = arange_w[None, :] - off[:, None]
                valid = (
                    (idx >= 0)
                    & (idx < W)
                    & (src_base[:, None] < _INF_CUT)
                    & (out.base[i:, None] < _INF_CUT)
                )
                idxc = np.clip(idx, 0, W - 1)
                gathered = np.take_along_axis(src, idxc[:, :, None], axis=1)
                gathered = np.where(valid[:, :, None], gathered, 0)
                op = _coeff_op(self.field, row)
                if r == 1:
                    acc[i:] += gathered * op
                else:
                    acc[i:] += gathered @ op.T
        out.data = acc % self.field.p
        out._mask_all()
        return out

    def add_scaled(self, series, other):
        """self += series * other (series is a scalar Laurent series).

        A zero-to-precision series contributes no data but still caps the
        horizons of the affected columns.
        """
        D, W = self.D, self.W
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
        arange_w = np.arange(W)
        acc = self.data.astype(np.int64)
        for s, row in _series_terms(series):
            off = other.base + s - new_base
            idx = arange_w[None, :] - off[:, None]
            valid = (
                (idx >= 0)
                & (idx < W)
                & (other.base[:, None] < _INF_CUT)
                & (new_base[:, None] < _INF_CUT)
            )
            idxc = np.clip(idx, 0, W - 1)
            gathered = np.take_along_axis(other.data, idxc[:, :, None], axis=1)
            gathered = np.where(valid[:, :, None], gathered, 0)
            op = _coeff_op(self.field, row)
            if self.field.r == 1:
                acc += gathered * op
            else:
                acc += gathered @ op.T
        self.data = acc % self.field.p
        self.prec = new_prec
        self._mask_all()

    def _realign(self, new_base):
        """Shift every column window to start at new_base (<= base)."""
        W = self.W
        off = self.base - new_base
        moved = (off != 0) & (self.base < _INF_CUT) & (new_base < _INF_CUT)
        if not moved.any():
            self.base = new_base
            return
        idx = np.arange(W)[None, :] - off[:, None]
        valid = (idx >= 0) & (idx < W) & moved[:, None]
        idxc = np.clip(idx, 0, W - 1)
        gathered = np.take_along_axis(self.data, idxc[:, :, None], axis=1)
        self.data = np.where(
            moved[:, None, None], np.where(valid[:, :, None], gathered, 0), self.data
        )
        self.base = new_base

    def _mask_all(self):
        finite = self.base < _INF_CUT
        if not finite.any():
            return
        exps = self.base[:, None] + np.arange(self.W)[None, :]
        self.data[(exps >= self.prec[:, None]) & finite[:, None]] = 0
