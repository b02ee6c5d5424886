"""Exception types shared across the package."""


class SparkforgeError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(SparkforgeError):
    """Inversion or division where the divisor is the zero scalar."""


class SideLimitExceeded(SparkforgeError):
    """Square matrix side exceeds the configured elimination limit."""


class ShapeError(SparkforgeError):
    """Operands have incompatible or unsupported dimensions."""


class NonFiniteEntry(SparkforgeError):
    """A floating-point input contains NaN or infinity."""


class BudgetExceeded(SparkforgeError):
    """Subset enumeration would pass the allowed budget.

    ``k_reached`` records the subset size whose level could not be
    completed (or started) within budget.
    """

    def __init__(self, message, k_reached=None):
        super().__init__(message)
        self.k_reached = k_reached


class CapExceeded(SparkforgeError):
    """A size parameter exceeds its cap and capping was forbidden."""


class EmptyBases(SparkforgeError):
    """A Vandermonde construction received no base points."""


class IndexOutOfRange(SparkforgeError):
    """An index lies outside the valid residue range."""


class NotPrime(SparkforgeError):
    """The modulus was required to be prime and is not."""


class NotPrimePower(SparkforgeError):
    """The order was required to be a prime power and is not."""


class BadModulus(SparkforgeError):
    """The modulus fails an arithmetic precondition."""


class RankDeficient(SparkforgeError):
    """A numerically full-rank matrix was required."""


class ZeroColumn(SparkforgeError):
    """A zero column makes the requested normalization impossible."""


class NotADivisor(SparkforgeError):
    """The argument must divide the ambient order."""


class DegenerateSet(SparkforgeError):
    """The index set is empty or the full residue ring."""


class BadK(SparkforgeError):
    """The clique size parameter is outside the supported range."""
