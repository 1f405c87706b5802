"""Exception hierarchy shared by all modules."""


class DividedOpsError(Exception):
    """Base class for every library-specific error."""


class MismatchError(DividedOpsError):
    """Operands disagree on prime, variable count, or shape."""


class PrecisionMismatch(MismatchError):
    """Truncated p-adic operands carry different precisions.

    Precision mismatches are always hard errors; values are never
    silently truncated to the smaller precision.
    """


class InsufficientPrecision(DividedOpsError):
    """A computation needs p-adic digits beyond the stored precision."""


class InvalidAutomorphism(DividedOpsError):
    """Base class for inputs that fail to describe a valid automorphism."""


class NotAUnit(InvalidAutomorphism):
    """The Laurent polynomial is not a nonzero scalar times a monomial."""


class NotGL(InvalidAutomorphism):
    """The integer matrix read off from the generator images is not
    invertible over the integers (determinant not +-1)."""


class NotInStabilizer(InvalidAutomorphism):
    """Digit extraction requires images that fix every x_i exactly."""


class NotSigmaForm(InvalidAutomorphism):
    """A perturbation of a divided power is not a scalar multiple of the
    expected inverse monomial, so the images are not a shift automorphism."""


class InconsistentAction(InvalidAutomorphism):
    """A black-box action contradicts the operator recovered from it."""


class ParseError(DividedOpsError):
    """Syntax error in an operator expression or an input file, with the
    character offset of the fault in the text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.reason = message


class WindowTooLarge(DividedOpsError):
    """An exponent window holds more monomials than the size budget
    (oracles.MAX_WINDOW_MONOMIALS)."""
