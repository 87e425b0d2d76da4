"""Property tests, drawn by ``hypothesis`` with a fixed seed and no
example database, so every run draws the same maps."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lindisc import (  # noqa: E402
    FieldParams,
    LaurentSeries,
    PowerSeriesMap,
    solve_sfe,
    solve_specialized_p_plus_1,
)
from oracles import solve_sfe_chain  # noqa: E402


def _series(draw, field, ram, lead, length, W, tail=False):
    """An exact series of ``length`` rows from U^lead with a unit first
    row, and with ``tail`` a nonzero later row, known to W T-units as a
    literal is (``parse_series``)."""
    rows = np.array(
        draw(st.lists(
            st.lists(st.integers(0, field.p - 1), min_size=field.r, max_size=field.r),
            min_size=length, max_size=length,
        )),
        dtype=np.int64,
    ).reshape(length, field.r)
    if not rows[0].any():
        rows[0, 0] = 1
    if tail and not rows[1:].any():
        rows[-1, 0] = 1
    return LaurentSeries(field, ram, lead, rows, W * ram, exact=True)


@st.composite
def binomial_maps(draw):
    """(f, N, D, W): f = λx + a·x^N over F_{p^r}((T)) with U^e = T,
    p ∈ {2, 3, 5, 7}, r <= 3 (the built-in moduli), e <= 3,
    N ∈ {p + 1, p, 2p}, 2 <= D <= (Jtop + 1)(N − 1) with
    Jtop = max(2p + 3, ⌊39/(N − 1)⌋), so every D <= 40 can be drawn and
    the recurrence reaches J = 2p + 3, two full Lucas blocks of p and
    more, at every p, and W ∈ {8, 16, 32}.  λ is a unit with a nonzero
    tail, so no root of unity; a has lead −e .. 2e."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    field = FieldParams(p, draw(st.integers(1, 3)))
    e = draw(st.integers(1, 3))
    W = draw(st.sampled_from((8, 16, 32)))
    lam = _series(draw, field, e, 0, draw(st.integers(2, 4)), W, tail=True)
    a = _series(draw, field, e, draw(st.integers(-e, 2 * e)), draw(st.integers(1, 3)), W)
    N = draw(st.sampled_from((p + 1, p, 2 * p)))
    # J = 0 .. Jtop, counted down: the draws favour small integers
    top = max(2 * p + 3, 39 // (N - 1))
    J = top - draw(st.integers(0, top))
    D = max(2, 1 + J * (N - 1) + draw(st.integers(0, N - 2)))
    return PowerSeriesMap({1: lam, N: a}), N, D, W


@hypothesis.settings(
    derandomize=True, database=None, max_examples=150, deadline=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
@hypothesis.given(binomial_maps())
def test_binomial_recurrence_equals_the_chain_of_every_power(case):
    """Every b_k of the binomial recurrence, through the p+1 solver
    (N = p + 1, to D = Jmax·p + 1) or ``solve_sfe`` (p | N), equals the
    chain of every power f^k (``oracles.solve_sfe_chain``) in lead,
    horizon, exactness and rows, and so does its valuation table."""
    f, N, D, W = case
    p = f.field.p
    if N == p + 1:
        D = max(1, (D - 1) // p) * p + 1
        g = solve_specialized_p_plus_1(f, (D - 1) // p, W)
    else:
        g = solve_sfe(f, D, W)
    oracle = solve_sfe_chain(f, D, W)
    assert g.D == oracle.D == D
    for k in range(1, D + 1):
        x, y = g.coefficient(k), oracle.coefficient(k)
        assert (x.lead, x.prec, x.exact) == (y.lead, y.prec, y.exact), k
        assert x.coeffs.tobytes() == y.coeffs.tobytes(), k
    for got, expected in zip(
        (g.valuations.lead, g.valuations.prec, g.valuations.kind),
        (oracle.valuations.lead, oracle.valuations.prec, oracle.valuations.kind),
    ):
        assert got.tolist() == expected.tolist()
