"""Exception hierarchy shared across the package.

Each class declares the CLI exit code it ends a command with as ``exit_code``
(1 unless it says otherwise; see cli.py for the contract); the CLI only reads it.
"""


class EtaformsError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class PrecisionExceeded(EtaformsError):
    """A coefficient beyond the known precision of a series was requested."""

    exit_code = 4

    def __init__(self, exponent, prec):
        super().__init__(f"coefficient of q^{exponent} unknown: series precision is O(q^{prec})")
        self.exponent = exponent
        self.prec = prec


class InsufficientPrecision(EtaformsError):
    """A verification window could not be covered at the working precision.

    ``needed`` carries the minimum precision that would suffice when it is
    cheap to compute, else None.
    """

    exit_code = 4

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed


class ZeroLeadingTerm(EtaformsError):
    """Reciprocal or negative power of a series that is zero to precision."""


class FractionalValuation(EtaformsError):
    """An eta-quotient term has a non-integral q-exponent offset."""

    exit_code = 3

    def __init__(self, term, offset):
        super().__init__(f"term {term} has fractional q-offset {offset}")
        self.term = term
        self.offset = offset


class MixedWeight(EtaformsError):
    """Terms of an eta combination do not share a single weight."""

    exit_code = 3


class InvalidCusp(EtaformsError):
    """Cusp denominator does not divide the level, or a factor dilation does not."""


class UnsupportedLevel(EtaformsError):
    """Level outside the supported set {6, 10, 12, 18}."""

    exit_code = 2

    def __init__(self, level):
        super().__init__(f"unsupported level {level}: expected one of 6, 10, 12, 18")
        self.level = level


class IndexBelowRange(EtaformsError):
    """Basis index m below the minimal pole order of the space."""

    exit_code = 2


class IntegralityViolation(EtaformsError):
    """A basis coefficient failed to be an integer; signals corrupted data."""

    exit_code = 3


class UnsupportedPair(EtaformsError):
    """No involution machinery is available for the requested (level, prime)."""

    exit_code = 2


class NoConsistentSign(EtaformsError):
    """Neither sign choice makes the involution identity hold; fixture data is wrong."""

    exit_code = 3
