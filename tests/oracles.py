"""Reference implementations that only tests run.

Each one is the straightforward form of a computation the package does
faster; tests require the package's results to equal them exactly.
"""

from lindisc.laurent import LaurentSeries
from lindisc.multiplier import mult_profile
from lindisc.powerseries import binomial_mod_p
from lindisc.schroder import Conjugacy, _divisor_series, _p_plus_1_shape


def solve_specialized_per_term(f, Jmax, window=32):
    """The p+1 recurrence of ``solve_specialized_p_plus_1`` with every
    term formed as ``LaurentSeries``: b_i·C(ip+1, j-i)·λ^e·a^n, each
    product and sum normalised by ``laurent``'s own precision rules."""
    a = _p_plus_1_shape(f)
    lam = f.multiplier
    profile = mult_profile(lam)
    field_, ram = f.field, f.ram
    p = field_.p
    D = Jmax * p + 1
    one = LaurentSeries.constant(field_, 1, ram)
    exact_zero = LaurentSeries.zero(field_, ram, 0, exact=True)

    lam_powers = [one]  # λ^n, built incrementally as needed
    def lam_power(n):
        while len(lam_powers) <= n:
            lam_powers.append(lam_powers[-1] * lam)
        return lam_powers[n]

    a_powers = [one]
    def a_power(n):
        while len(a_powers) <= n:
            a_powers.append(a_powers[-1] * a)
        return a_powers[n]

    b = {0: one}  # indexed by j: b[j] = b_{jp+1}
    for j in range(1, Jmax + 1):
        total = None
        for i in range((j - 1 + p) // (p + 1), j):
            c = binomial_mod_p(i * p + 1, j - i, p)
            if c == 0:
                continue
            term = b[i].scale(c) * lam_power(i * p + 1 - (j - i)) * a_power(j - i)
            total = term if total is None else total + term
        if total is None:
            b[j] = exact_zero
            continue
        div = _divisor_series(lam_power(j * p), lam, profile, j * p + 1, ram)
        b[j] = total * div.truncate_relative(window).inverse()
    coeffs = {
        k: b[(k - 1) // p] if (k - 1) % p == 0 else exact_zero for k in range(1, D + 1)
    }
    return Conjugacy(coeffs, profile, "specialized", D)
