"""Exception types shared across the package."""


class FinsemiError(Exception):
    pass


class NonAssociative(FinsemiError):
    """A multiplication table violates (xy)z = x(yz); carries a witness triple."""

    def __init__(self, x, y, z):
        self.witness = (x, y, z)
        super().__init__(f"not associative at ({x}, {y}, {z})")


class OutOfRangeEntry(FinsemiError):
    pass


class IncompatiblePartition(FinsemiError):
    pass


class NotIdempotent(FinsemiError):
    pass


class BudgetExceeded(FinsemiError):
    pass


class UnknownName(FinsemiError):
    pass


class UnboundLetter(FinsemiError):
    pass


class WrongAlphabet(FinsemiError):
    pass


class TermSyntaxError(FinsemiError):
    """Raised by the term parser; carries the offending position."""

    def __init__(self, message, pos):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class RegexSyntaxError(FinsemiError):
    pass


class UnsupportedShape(FinsemiError):
    """Term surgery or window lifting could not normalize the input shape."""


class UnsupportedZ(FinsemiError):
    pass


class PreconditionViolated(FinsemiError):
    pass
