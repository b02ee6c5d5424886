"""Exception types shared across the package, and the one set of rules for
refusing outside input.

The fields, integers and lists of matrix, rows and graph files are read
by the JSON value readers here, which raise ShapeError; every error that
names a value from outside (a command-line token, a JSON value, or a
number computed from one) names it through _quoted, so that an `error:`
line stays short whatever the input.
"""


class SparkforgeError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(SparkforgeError):
    """Inversion or division where the divisor is the zero scalar."""


class SideLimitExceeded(SparkforgeError):
    """Square matrix side exceeds the configured elimination limit."""


class ShapeError(SparkforgeError):
    """Operands have incompatible or unsupported dimensions."""


class NonFiniteEntry(SparkforgeError):
    """A floating-point input contains NaN or infinity, or an exact entry
    lies beyond float range where floats are needed."""


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


# An outside value is named whole up to _QUOTED_CHARS characters, else by that
# prefix and its length.  repr spends at most 10 bytes on a character
# ('\U0010ffff'), so every such error line stays under 200 bytes.
_QUOTED_CHARS = 10


def _quoted(value) -> str:
    """value as an error names it: a string by its repr, anything else by its
    repr's text, each cut to its first _QUOTED_CHARS characters and its length."""
    text, show = (value, repr) if isinstance(value, str) else (repr(value), str)
    if len(text) <= _QUOTED_CHARS:
        return show(text)
    return f"{show(text[:_QUOTED_CHARS])}... ({len(text)} characters)"


def json_field(doc, key: str, what: str):
    """doc[key], once doc is a JSON object that has it; what names the document."""
    if not isinstance(doc, dict) or key not in doc:
        raise ShapeError(f"{what} missing field {key!r}")
    return doc[key]


def json_int(value, what: str) -> int:
    # bool is an int subclass, and int() would truncate floats silently.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ShapeError(f"{what} must be an integer, got {_quoted(value)}")
    return value


def json_count(value, what: str) -> int:
    if json_int(value, what) < 0:
        raise ShapeError(f"{what} must be non-negative, got {_quoted(value)}")
    return value


def json_list(value, what: str, length: int | None = None) -> list:
    """value, once it is a JSON list (of length items, when given): a dict or
    string would iterate as keys or characters, or as nothing."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        shape = "a JSON list" if length is None else f"a JSON list of {length}"
        raise ShapeError(f"{what} must be {shape}, got {_quoted(value)}")
    return value
