"""Shared exception types.

Everything raised on purpose by this package derives from SingerlabError,
so callers can catch one base class at API boundaries. Verdict values
(Injective/Collision, Match/Mismatch, ...) are not errors and live with
the operations that produce them.
"""


class SingerlabError(Exception):
    """Base class for all errors raised by singerlab."""


class DivisionByZero(SingerlabError):
    """Division or inversion by the zero element of a field."""


class InvalidInput(SingerlabError):
    """An argument violates a documented precondition."""


class FieldMismatch(InvalidInput):
    """Operands belong to different fields."""


class ShapeMismatch(InvalidInput):
    """Matrix dimensions incompatible with the requested operation."""


class SingularMatrix(SingerlabError):
    """Inverse requested for a matrix with zero determinant."""


class NotInSubgroup(SingerlabError):
    """Discrete log target is not a power of the given base."""


class CapacityExceeded(SingerlabError):
    """Requested computation exceeds the configured desk-scale budget."""


class NotPrimitive(SingerlabError):
    """An element required to generate the full multiplicative group does not."""


class UnsupportedFactor(SingerlabError):
    """A tensor factor outside the supported family (or outside validity, e.g. Sym(k) with k >= p)."""


class ConstraintViolation(SingerlabError):
    """A module specification fails the structural preconditions of the pipeline."""
