"""Exception hierarchy shared by all locring modules."""


class LocringError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LocringError):
    """Input text could not be parsed; the message names the offending token."""


class InvalidArgument(LocringError, ValueError):
    """An argument lies outside its domain: a composite characteristic, a
    power below 1, a negative Frobenius exponent."""


class DivisionByZero(LocringError):
    pass


class DescriptorMismatch(LocringError):
    """Operands belong to different fields."""


class UnsupportedAutomorphism(LocringError):
    """Automorphism not available for this field (e.g. Frobenius on Q)."""


class UnsupportedField(LocringError):
    """Operation requires a finite field (or otherwise unsupported base)."""


class NotIrreducible(LocringError):
    pass


class NotMonic(LocringError):
    pass


class NotSeparable(LocringError):
    """The defining polynomial has zero derivative."""


class InexactDivision(LocringError):
    """A division that is mathematically exact left a remainder: arithmetic bug."""


class RingMismatch(LocringError):
    """Elements or morphisms from incompatible quotient rings were combined."""


class NotAUnit(LocringError):
    pass


class BadTarget(LocringError):
    """Invalid projection level."""


class NotWellDefined(LocringError):
    """Morphism certificate failed; carries the nonzero residue as witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAMorphism(LocringError):
    """Candidate X-image does not induce a morphism between the given rings."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegreeMismatch(LocringError):
    pass


class CriterionDisagreement(LocringError):
    """The cofactor-gcd and derivative criteria disagreed: arithmetic bug."""


class TooLarge(LocringError):
    """Exhaustive check refused: ring exceeds the enumeration budget."""
