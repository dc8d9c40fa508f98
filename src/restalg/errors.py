"""Exception types shared across the package."""


class RestalgError(Exception):
    """Base class for every error raised by this package."""


class WitnessedError(RestalgError):
    """An error that carries a concrete counterexample.

    ``witness`` is a small tuple of element indices (or similar) pinning
    down the first violation found.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SizeLimit(RestalgError):
    """A structure above MAX_ORDER elements, or a size parameter below 1."""


class InvalidGroupTable(WitnessedError):
    """A table supplied as a group is not a group (not Latin, not
    associative, or has no identity)."""


class NotAssociative(WitnessedError):
    """Multiplication table fails associativity; witness is a triple."""


class NotInverse(WitnessedError):
    """Table is not an inverse semigroup: an element with zero or more
    than one generalized inverse, or a pair of non-commuting idempotents."""


class StarMismatch(WitnessedError):
    """A user-supplied involution fails one of its axioms or disagrees
    with the derived one."""


class BaseMismatch(RestalgError):
    """Two operands live over different semigroups."""


class VerificationFailure(WitnessedError):
    """A property that should hold for every valid input failed; the
    witness identifies the failing input."""


class ParseError(RestalgError):
    """Malformed JSON or a schema violation in an input file."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column

