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


@st.composite
def dense_maps(draw):
    """(f, D, W) for the dense engine over F_{p^r}((T)), U^e = T: p ∈
    {2, 3, 5}, r <= 2, e <= 2, W ∈ {4, 8}, 8 <= D <= 64; λ a unit with a
    nonzero tail and one to three nonlinear terms whose leads run from
    −2e to 2e.  Half the maps are p-divisible, of degrees 2p .. 8p,
    whose supports leave gaps of several strides f^p."""
    p = draw(st.sampled_from((2, 3, 5)))
    field = FieldParams(p, draw(st.integers(1, 2)))
    e = draw(st.integers(1, 2))
    W = draw(st.sampled_from((4, 8)))
    lam = _series(draw, field, e, 0, draw(st.integers(2, 3)), W, tail=True)
    pool = [p * m for m in range(2, 9)] if draw(st.booleans()) else list(range(2, 13))
    coeffs = {1: lam}
    for d in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)):
        lead = draw(st.integers(-2 * e, 2 * e))
        coeffs[d] = _series(draw, field, e, lead, draw(st.integers(1, 3)), W)
    return PowerSeriesMap(coeffs), draw(st.integers(8, 64)), W


def powers_have_min_plus_bases(f, D, W):
    """Run the dense solve of f and check every power it forms, f^k with
    k its first live column: its bases are the k-th min-plus power of
    f's leads and the min-plus product of its factors' bases, and its
    horizons base + W.  Returns the gaps g of the kept powers u^g."""
    import lindisc.schroder
    from lindisc._dense import _INF_CUT, INF, DensePoly
    from oracles import min_plus_powers, min_plus_product

    powers, kept = min_plus_powers(f, D), set()
    real_mul, real_times = DensePoly.mul, lindisc.schroder._GapPowers.times

    def mul(self, other):
        out = real_mul(self, other)
        live = np.flatnonzero(out.base < _INF_CUT)
        if live.size:
            assert out.base.tolist() == powers[live[0]].tolist(), live[0]
        assert out.base.tolist() == min_plus_product(self.base, other.base).tolist()
        assert out.prec.tolist() == np.minimum(out.base + W, INF).tolist()
        return out

    def times(self, x, g):
        out = real_times(self, x, g)
        kept.update(self.kept)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DensePoly, "mul", mul)
        patch.setattr(lindisc.schroder._GapPowers, "times", times)
        lindisc.schroder._solve_dense(f, D, W)
    return kept


@hypothesis.settings(
    derandomize=True, database=None, max_examples=100, deadline=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
@hypothesis.given(dense_maps())
def test_every_power_a_dense_solve_forms_has_the_min_plus_bases(case):
    """Bases from f's min-plus table (below each power's cut) and from
    the grid (past it) are the min-plus power of f's leads, on maps with
    negative leads, over prime and extension fields, ramified or not."""
    powers_have_min_plus_bases(*case)


def test_a_kept_gap_power_has_the_min_plus_bases():
    """F_2, λ = 1+T, degrees 6, 16, 20 (negative leads among them): the
    solve keeps gap powers u^g with g >= 2, u = f^2, and every power it
    forms, the kept ones too, has the min-plus bases."""
    F2 = FieldParams(2)
    rows = [[1], [1]]
    f = PowerSeriesMap({
        1: LaurentSeries(F2, 1, 0, rows, 2, exact=True),
        6: LaurentSeries(F2, 1, -1, rows, 1, exact=True),
        16: LaurentSeries(F2, 1, 2, rows, 4, exact=True),
        20: LaurentSeries(F2, 1, -2, rows[:1], -1, exact=True),
    })
    kept = powers_have_min_plus_bases(f, 64, 8)
    assert max(kept) >= 2, kept
