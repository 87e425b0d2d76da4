"""Discs, Weierstrass degrees, linearization-disc classification, and
boundary periodic points.

The Weierstrass degree of h on a closed disc of radius r is the largest
k minimizing v(c_k) + k·v_r (the valuation of max|c_k| r^k); on the open
disc it is the smallest minimizer.  Tail certification beyond the
computed degrees uses a caller-supplied lower bound that is affine along
an arithmetic progression, so positivity of one period's increment
certifies the whole tail.

Periodic points on a sphere are found by scaling the sphere to the unit
circle in a ramified tower F_{p^r}((T^{1/e})), reducing to the residue
field, and Hensel-lifting simple residue roots by Newton iteration.
One walk along the lifted orbit (``verify_indifferent``) both certifies
the point periodic to its horizon and gives its multiplier.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CertificateError, HypothesisError, PrecisionError
from .field import BUILTIN_MODULI, FieldParams
from .laurent import LaurentSeries, format_valuation
from .multiplier import disc_profile, lemma_bound, mult_profile
from .powerseries import (
    PowerSeriesMap,
    _table_derivative,
    newton_root,
    ps_derivative_at,
    ps_eval,
    ps_gauge,
    table_compose,
)
from .schroder import (
    NONZERO,
    check_coefficient_bound,
    check_structural_zeros,
    solve_sfe,
)

LEVEL_GENERIC = "GENERIC-SIGMA"
LEVEL_EXTENDED = "EXTENDED-RHO"
LEVEL_EXACT = "EXACT-SIGMA"


@dataclass(frozen=True)
class Disc:
    v_radius: Fraction
    boundary: str  # "open" | "closed"
    rationality: str

    def report_dict(self):
        return {
            "v_radius": format_valuation(self.v_radius),
            "boundary": self.boundary,
            "rationality": self.rationality,
        }


def make_disc(v_radius, boundary):
    """Disc with rationality read off the denominator of its radius
    valuation: denominator e > 1 means the radius is attained only in
    the tower with uniformizer T^(1/e)."""
    if not isinstance(v_radius, Fraction):
        raise HypothesisError(f"a disc needs a Fraction radius valuation, got {v_radius!r}")
    den = v_radius.denominator
    rationality = "rational-in-K" if den == 1 else f"rational-in-extension({den})"
    return Disc(v_radius, boundary, rationality)


@dataclass(frozen=True)
class WeierstrassData:
    v_s: Fraction
    d: int
    d_prime: int
    certified_tail: bool


def weierstrass_data(coeffs, v_r, tail_bound=None):
    """Exact minimization of v(c_k) + k·v_r over the computed degrees.

    ``tail_bound`` is an optional pair (fn, period): fn(k) is a lower
    bound on v(c_k) for k beyond the table, and fn(k) + k·v_r has a
    constant increment over each ``period`` once k exceeds the table.
    Without it the result is flagged best-effort (certified_tail False).
    """
    D = max(coeffs)
    best = None
    minimizers = []
    for k in sorted(coeffs):
        c = coeffs[k]
        if c.is_zero_as_known:
            continue
        t = Fraction(c.lead, c.ram) + k * v_r
        if best is None or t < best:
            best, minimizers = t, [k]
        elif t == best:
            minimizers.append(k)
    if best is None:
        raise HypothesisError("all coefficients vanish; no Weierstrass data")
    for k, c in coeffs.items():
        # a coefficient that vanishes only to precision must provably sit
        # above the minimum, or the minimizers are not justified
        if c.is_zero_as_known and not c.exact:
            if Fraction(c.prec, c.ram) + k * v_r <= best:
                raise PrecisionError(
                    f"coefficient {k} is zero only to precision and could "
                    f"attain the Weierstrass minimum"
                )
    certified = False
    if tail_bound is not None:
        fn, period = tail_bound
        window = [fn(k) + k * v_r for k in range(D + 1, D + period + 1)]
        increment = (fn(D + period + 1) + (D + period + 1) * v_r) - window[0]
        certified = all(t > best for t in window) and increment > 0
    return WeierstrassData(best, max(minimizers), min(minimizers), certified)


def _bound_tail(profile, gauge):
    """Lemma bound on v(b_k) as a tail-bound pair for weierstrass_data."""
    return (lambda k: lemma_bound(profile, gauge.A, k)), profile.m * profile.p


def degree_on_sigma(g, dp, gauge):
    """Weierstrass degree of the conjugacy on the open and closed discs
    of radius σ: (1, k') exactly when v(b_{k'}) attains the Lemma bound,
    (1, 1) otherwise."""
    profile = g.profile
    if g.D < profile.k_prime:
        raise HypothesisError(
            f"conjugacy solved to degree {g.D} < k' = {profile.k_prime}"
        )
    wd = weierstrass_data(dict(g.coeffs), dp.v_sigma, _bound_tail(profile, gauge))
    if not wd.certified_tail:
        raise CertificateError("sigma-disc tail bound failed to certify")
    deg_open, deg_closed = wd.d_prime, wd.d
    # cross-check against the coefficient criterion at k'
    kp = profile.k_prime
    b_kp = g.coeffs[kp]
    saturated = (
        not b_kp.is_zero_as_known
        and Fraction(b_kp.lead, b_kp.ram) == lemma_bound(profile, gauge.A, kp)
    )
    expected_closed = kp if saturated else 1
    if (deg_open, deg_closed) != (1, expected_closed):
        raise CertificateError(
            f"degree pattern ({deg_open}, {deg_closed}) contradicts the "
            f"coefficient criterion (expected (1, {expected_closed}))"
        )
    return deg_open, deg_closed


@dataclass(frozen=True)
class ExtensionVerdict:
    applicable: bool
    holds: bool
    checked_through: int
    first_resonant_after: int


def check_bkprime_zero_extension(g, dp):
    """When b_{k'} vanishes, the one-to-one radius of g extends from σ to
    ρ if v(b_k) + k·v_ρ > v_ρ for every computed k >= 2.  b_1 = 1 gives
    v_ρ, so that holds exactly when 1 is the only minimiser of
    ``weierstrass_data`` at v_ρ: its largest minimiser d is 1.  A
    coefficient zero only to precision that could reach the minimum
    raises PrecisionError there."""
    profile = g.profile
    kp = profile.k_prime
    k_second = kp + profile.m * profile.p
    if kp > g.D or not g.coeffs[kp].is_zero_as_known:
        return ExtensionVerdict(False, False, g.D, k_second)
    holds = weierstrass_data(g.coeffs, dp.v_rho).d == 1
    return ExtensionVerdict(True, holds, g.D, k_second)


@dataclass(frozen=True)
class PeriodicPoint:
    point: LaurentSeries
    kappa: int
    multiplier: LaurentSeries
    tower: tuple  # (r, e)

    def report_dict(self):
        return {
            "point": self.point.render(),
            "kappa": self.kappa,
            "multiplier": self.multiplier.render(),
            "tower_r": self.tower[0],
            "tower_e": self.tower[1],
        }


@dataclass(frozen=True)
class LinearizationReport:
    level: str
    disc: Disc
    degree_open: int
    degree_closed: int
    periodic_point: object  # PeriodicPoint | None
    notes: tuple
    profile: object
    disc_profile: object

    def report_dict(self):
        out = {
            "certificate": self.level,
            "disc": self.disc.report_dict(),
            "degree_open_sigma": self.degree_open,
            "degree_closed_sigma": self.degree_closed,
        }
        out.update(self.profile.report_dict())
        out.update(self.disc_profile.report_dict())
        if self.periodic_point is not None:
            out["periodic_point"] = self.periodic_point.report_dict()
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _embed_map(f, target_field, e):
    """Re-coefficient f into the tower F_{p^r}((T^(1/e))) (series ram e),
    for any multiple e of f.ram: ``ramify``, then ``extend_residue_field``."""
    return PowerSeriesMap(
        {i: a.ramify(e).extend_residue_field(target_field) for i, a in f.coeffs.items()}
    )


# largest residue extension degree the periodic-point search tries
_R_MAX = 4
# largest degree of f^∘κ the periodic-point search composes
_DEG_CAP = 4096


def _tower_fields(base):
    """Residue fields searched: F_{p^r} for r <= _R_MAX over a prime
    field, or the map's own field alone when it is an extension."""
    if base.r != 1:
        return [base]
    return [base] + [
        FieldParams(base.p, r) for r in range(2, _R_MAX + 1) if (base.p, r) in BUILTIN_MODULI
    ]


def find_periodic_point(f, kappa_max, sphere, e=1, horizon=128):
    """Search the sphere for a periodic point of period κ <= kappa_max.

    The residue fields are those of ``_tower_fields`` and ``e``, a multiple
    of f.ram, fixes the ramification; the sphere radius is integral there.
    Returns a PeriodicPoint or None (not-found-in-tower: existence in
    the completed algebraic closure is not decided by this search).
    A lifted root that is not κ-periodic to its horizon is a
    CertificateError; the multiplier is not checked, since off the
    p-divisible family the point may be attracting.

    The tower fields, f in each and π are built once per search, and
    f^∘κ(π·u) once per κ over f's own field: its coefficients are exact,
    so extending them into a tower field composes over that field.
    """
    exponent = sphere.v_radius * e
    if exponent.denominator != 1:
        raise HypothesisError(
            f"sphere radius valuation {sphere.v_radius} is not integral in a tower with e = {e}"
        )
    exponent = int(exponent)
    towers = [
        (field_, _embed_map(f, field_, e), LaurentSeries.monomial(field_, exponent, 1, ram=e))
        for field_ in _tower_fields(f.field)
    ]
    _, f_e, pi = towers[0]  # the map's own residue field comes first
    x_table = {1: pi}
    for kappa in range(1, kappa_max + 1):
        deg = f.degree_bound**kappa
        if deg > _DEG_CAP:
            break
        # x_κ = f^∘κ(π u) = f(x_{κ-1}) has degree <= deg, so nothing is truncated
        x_table = table_compose(f_e.coeffs, x_table, deg)
        # G(u) = f^∘κ(π u) − π u as a polynomial in u with exact coefficients
        g_table = {**x_table, 1: x_table[1] - pi}
        g_table = {d: s for d, s in g_table.items() if not s.is_zero_as_known}
        if not g_table:
            continue
        # G/T^μ, μ the least coefficient valuation: its residues are not
        # all zero, and a simple residue root has a unit derivative there
        mu = min(s.lead for s in g_table.values())
        g_table = {d: s.shift(-mu) for d, s in g_table.items()}
        dtable = _table_derivative(g_table, f.field.p)
        for field_, f_tower, pi_tower in towers:
            u_hat = _periodic_in_tower(field_, g_table, dtable, e, horizon * e)
            if u_hat is not None:
                x_hat = pi_tower * u_hat
                residual, mult = verify_indifferent(f_tower, x_hat, kappa)
                if not residual.is_zero_as_known:
                    raise CertificateError(f"lifted root is not {kappa}-periodic: {residual}")
                return PeriodicPoint(x_hat, kappa, mult, (field_.r, e))
    return None


def _periodic_in_tower(field_, g_table, dtable, ram, horizon):
    """Unit root u over ``field_`` of G(u) = f^∘κ(π·u) − π·u, or None.

    ``g_table`` is G/T^μ with its least coefficient valuation μ divided
    out and ``dtable`` its derivative, both with integral coefficients
    in the map's field.  Their residue polynomials are evaluated on the
    blocks of ``field_.element_blocks()``, in ``elements()`` order; the
    simple roots (nonzero u, residue value 0, derivative value nonzero)
    are Newton-lifted in that order and the first lift that succeeds is
    returned.
    """
    g_rows = _residue_rows(field_, g_table)
    d_rows = _residue_rows(field_, dtable)
    lift_tables = None
    for xs in field_.element_blocks():
        roots = xs[xs.any(axis=1) & ~_eval_rows(field_, g_rows, xs).any(axis=1)]
        # a multiple residue root is skipped: lifting it is not certified
        simple = roots[_eval_rows(field_, d_rows, roots).any(axis=1)]
        for row in simple:
            if lift_tables is None:
                lift_tables = [
                    {d: s.extend_residue_field(field_) for d, s in table.items()}
                    for table in (g_table, dtable)
                ]
            u_bar = field_.element(row)
            u = LaurentSeries.constant(field_, u_bar, ram, prec=horizon, exact=False)
            lifted = newton_root(*lift_tables, u)
            if lifted is not None:
                return lifted
    return None


def _residue_rows(field_, table):
    """Nonzero residues of a table of integral series over a subfield of
    ``field_``, as coordinate rows of ``field_`` (the canonical embedding)."""
    rows = {}
    for d, s in table.items():
        if s.lead == 0 and not s.is_zero_as_known:
            rows[d] = np.zeros(field_.r, dtype=np.int64)
            rows[d][: s.field.r] = s.coeffs[0]
    return rows


def _eval_rows(field_, poly, xs):
    """Values of a residue polynomial {degree: row} at each row of xs by
    sparse Horner; each power x^gap is formed once, by square-and-multiply."""
    degs = sorted(poly, reverse=True)
    if not degs:
        return np.zeros_like(xs)
    powers = {}

    def power(n):
        if n not in powers:
            powers[n] = field_.pow_rows(xs, n)
        return powers[n]

    acc = np.broadcast_to(poly[degs[0]], xs.shape)
    for prev, nxt in zip(degs, degs[1:]):
        acc = (field_.mul_rows(acc, power(prev - nxt)) + poly[nxt]) % field_.p
    if degs[-1]:
        acc = field_.mul_rows(acc, power(degs[-1]))
    return acc


def verify_indifferent(f, point, kappa):
    """The periodicity residual f^∘κ(x) − x, a series, and the orbit
    multiplier (f^∘κ)'(x) = Π f'(f^∘i(x)), from one walk along the orbit."""
    mult = None
    x = point
    for _ in range(kappa):
        d = ps_derivative_at(f, x)
        mult = d if mult is None else mult * d
        x = ps_eval(f, x)
    return x - point, mult


def default_degree(f, profile):
    """The solve degree of ``classify_linearization_disc`` when none is
    given: four resonance steps mp past k', at least 4k', 2·deg f and 16."""
    kp = profile.k_prime
    return max(4 * kp, kp + 4 * profile.m * profile.p, 2 * f.degree_bound, 16)


def classify_linearization_disc(f, D=None, window=32, kappa_max=None):
    """Full certification pipeline for a p-divisible map.  The conjugacy
    is solved at the working precision ``window``; a boundary periodic
    point is lifted to the horizon 4·window.

    GENERIC-SIGMA: full conjugacy certified on the open disc of radius σ.
    EXTENDED-RHO:  b_{k'} proven zero and v(b_k) + k·v_ρ > v_ρ checked
                   for every computed k >= 2 (``check_bkprime_zero_extension``):
                   the one-to-one radius extends to ρ.
    EXACT-SIGMA:   deg(g, closed σ-disc) = k'; D_σ is the linearization
                   disc and the boundary sphere is searched for a
                   periodic point of period κ <= k', which the search
                   certifies periodic and this checks indifferent.  The
                   search runs in the least tower holding both the map
                   and the sphere: e = lcm(denominator of v_σ, f.ram).
    """
    if not f.divisible_degrees():
        raise HypothesisError(
            "classification requires every nonlinear degree divisible by p"
        )
    profile = mult_profile(f.multiplier)
    gauge = ps_gauge(f)
    dp = disc_profile(profile, gauge)
    kp = profile.k_prime
    if D is None:
        D = default_degree(f, profile)
    g = solve_sfe(f, D, window)
    notes = []
    zeros = check_structural_zeros(g, f)
    if zeros.violations:
        raise CertificateError(f"structural zero violations at {zeros.violations}")
    bounds = check_coefficient_bound(g, gauge, f)
    if bounds.violations:
        raise CertificateError(f"coefficient bound violations at {bounds.violations}")
    deg_open, deg_closed = degree_on_sigma(g, dp, gauge)
    b_kp = g.coeffs[kp]
    periodic = None
    if deg_closed == kp and kp > 1:
        level = LEVEL_EXACT
        disc = make_disc(dp.v_sigma, "open")
        e = math.lcm(dp.v_sigma.denominator, f.ram)
        sphere = make_disc(dp.v_sigma, "closed")
        periodic = find_periodic_point(
            f, kappa_max or kp, sphere, e=e, horizon=4 * window
        )
        if periodic is None:
            notes.append(
                "periodic point exists in the completed algebraic closure "
                f"but was not found in towers up to r={_R_MAX}, e={e}"
            )
        elif periodic.multiplier.valuation() != 0:
            raise CertificateError("boundary periodic point is not indifferent")
    elif b_kp.is_exact_zero:
        if not check_bkprime_zero_extension(g, dp).holds:
            raise CertificateError(
                "b_{k'} = 0 but v(b_k) + k*v_rho > v_rho fails: no extension to rho"
            )
        level = LEVEL_EXTENDED
        disc = make_disc(dp.v_rho, "open")
        notes.append("b_{k'} = 0: full conjugacy extends to the semi-disc")
    else:
        level = LEVEL_GENERIC
        disc = make_disc(dp.v_sigma, "open")
        if g.zero_kind[kp] != NONZERO:
            notes.append(
                "b_{k'} vanishes only to the working precision; extension "
                "to the semi-disc is not certified"
            )
    return LinearizationReport(
        level, disc, deg_open, deg_closed, periodic, tuple(notes), profile, dp
    )

