"""Exception types shared across the package."""


class AinfError(Exception):
    """Base class for all library errors."""


class IncompatibleRingError(AinfError):
    """Operands live in different Novikov rings (flavor or cutoff mismatch)."""


class NotInvertibleError(AinfError):
    pass


class UnknownBasisError(AinfError):
    pass


class NotAComplexError(AinfError):
    """A supposed differential does not square to zero."""


class DegreeError(AinfError):
    """A table entry violates its role's degree shift."""


class GappedViolationError(AinfError):
    pass


class NotInMonoidError(AinfError):
    pass


class MonoidTooLargeError(AinfError):
    """Enumerating the monoid up to the asked energy exceeds the size limit."""


class MalformedMorphismError(AinfError):
    pass


class DivergentTwistError(AinfError):
    """Twisting element has valuation 0; the insertion sum would diverge."""


class MissingDataError(AinfError):
    """Geometric input tables lack a key inside the declared budget."""


class UndefinedSignError(AinfError):
    """Sign query hits a case the orientation conventions leave undefined."""


class DegeneratePhaseError(AinfError):
    """Phase difference lies in pi*Z; transversality fails."""


class DocumentError(AinfError):
    """Presentation file is malformed; carries field context."""

    def __init__(self, message, context=None):
        super().__init__(message if context is None else f"{context}: {message}")
        self.context = context
