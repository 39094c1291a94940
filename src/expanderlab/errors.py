"""Exception types shared across the package."""


class ExpanderLabError(Exception):
    """Base class for all errors raised by expanderlab."""


class ParseError(ExpanderLabError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DenominatorOutsideS(ExpanderLabError):
    """An entry denominator has a prime factor outside the declared prime set."""


class BadPrime(ExpanderLabError):
    """A modulus that is not prime, or a prime that divides an entry denominator."""


class NotSquareFree(ExpanderLabError):
    """Modulus has a repeated prime factor."""


class SingularMatrix(ExpanderLabError):
    """Inverse of a non-invertible matrix requested."""


class NotInGroup(ExpanderLabError, KeyError):
    """An element looked up in a group table is not in the group."""

    __str__ = Exception.__str__


class SizeCapExceeded(ExpanderLabError):
    """A closure or solver exceeded its configured size cap."""


class TableMismatch(ExpanderLabError):
    """Operands live on different group tables."""


class NotComposite(ExpanderLabError):
    """Product decomposition requested for a single-prime modulus."""


class NotNormal(ExpanderLabError):
    """Operation requires a normal subgroup."""


class NotPGroup(ExpanderLabError):
    """Operation requires a group of prime-power order."""


class HypothesisViolated(ExpanderLabError):
    """A precondition taken from a structural lemma failed its check."""


class FixedVectorExists(ExpanderLabError):
    """The module action has a nonzero fixed vector."""


class ZeroVector(ExpanderLabError):
    """A nonzero vector argument was required."""
