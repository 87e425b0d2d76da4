"""Exact linearization discs, Schröder conjugacies, and divergence
certificates for power-series dynamics over Laurent series fields of
prime characteristic."""

from .errors import (
    CertificateError,
    FieldConstructionError,
    HypothesisError,
    IncompatibleFieldError,
    LindiscError,
    NotIntegralError,
    ParseError,
    PrecisionError,
    RootOfUnityError,
    ZeroDivisionFieldError,
)
from .field import FieldParams, FqElement
from .laurent import LaurentSeries, parse_series
from .powerseries import (
    Gauge,
    PowerSeriesMap,
    binomial_mod_p,
    eval_table,
    ps_derivative_at,
    ps_eval,
    ps_gauge,
    table_compose,
)
from .multiplier import (
    DiscProfile,
    MultiplierProfile,
    count_resonant,
    disc_profile,
    mult_profile,
    product_small_divisors,
)
from .schroder import (
    Conjugacy,
    DivergenceCertificate,
    certify_divergence,
    check_coefficient_bound,
    check_structural_zeros,
    solve_sfe,
    solve_sfe_multinomial,
    solve_specialized_p_plus_1,
)
from .discs import (
    Disc,
    LinearizationReport,
    PeriodicPoint,
    WeierstrassData,
    check_bkprime_zero_extension,
    classify_linearization_disc,
    degree_on_sigma,
    find_periodic_point,
    make_disc,
    verify_indifferent,
    weierstrass_data,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
