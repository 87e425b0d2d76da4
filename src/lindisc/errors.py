"""Exception hierarchy shared by all lindisc modules."""


class LindiscError(Exception):
    """Base class for all errors raised by this package."""


class IncompatibleFieldError(LindiscError):
    """Operands live in different fields or different ramified towers."""


class FieldConstructionError(LindiscError):
    """Invalid field parameters (non-prime p, reducible modulus, ...)."""


class ZeroDivisionFieldError(LindiscError):
    """Inversion of the zero element of a finite field."""


class ParseError(LindiscError):
    """Syntax error in a series / element / job literal.

    Carries the offending position when known.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotIntegralError(LindiscError):
    """Residue reduction requested for an element of negative valuation."""


class PrecisionError(LindiscError):
    """A result would rest on coefficients beyond the justified horizon."""


class RootOfUnityError(LindiscError):
    """The multiplier is (or cannot be distinguished from) a root of unity."""

    def __init__(self, message, undetermined=False):
        super().__init__(message)
        self.undetermined = undetermined


class HypothesisError(LindiscError):
    """A lemma-specific operation was invoked outside its hypotheses."""


class CertificateError(LindiscError):
    """An internal self-check or certified bound failed on computed data:
    a bug in the package, never a property of the input."""
