"""Exception hierarchy.

Everything mathematical that can go wrong derives from ``HypermoebiusError``
so the CLI can map the whole family onto one "domain error" exit code.
"""

from __future__ import annotations


class HypermoebiusError(Exception):
    """Base class for all errors raised by this package."""


class KindMismatchError(HypermoebiusError):
    """Operands live in different algebras."""


class InvalidLiteralError(HypermoebiusError, ValueError):
    """A textual literal does not match the accepted grammar."""


class DomainError(HypermoebiusError):
    """An operation was applied outside its mathematical domain."""


class NotInvertibleError(DomainError):
    """Attempt to invert a non-unit. Carries the element's classification."""

    def __init__(self, element_class, message: str = ""):
        self.element_class = element_class
        super().__init__(message or f"element is not invertible ({element_class})")


class SingularMatrixError(DomainError):
    """Matrix determinant is not a unit. Carries the determinant's class."""

    def __init__(self, det_class, message: str = ""):
        self.det_class = det_class
        super().__init__(message or f"matrix is singular (det class {det_class})")


class NotNormalizableError(DomainError):
    """Determinant has no invertible square root, so no det-1 rescaling exists."""


class InvalidPointError(HypermoebiusError):
    """Both homogeneous coordinates vanish."""


class NotAdmissibleError(DomainError):
    """The point cannot be extended to an invertible matrix."""


class FixesEverythingError(DomainError):
    """Fixed-point search on an identity map: every point is fixed."""


class NotInCentralizerError(DomainError):
    """Matrix does not commute with the given rotation family."""
