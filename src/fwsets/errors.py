"""Exception types shared across the package."""

from __future__ import annotations


class FwsetsError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(FwsetsError):
    """Operands live in incompatible ambient spaces."""


class SizeCapError(FwsetsError):
    """An input exceeds the documented desk-scale size caps."""


class InvalidParameterError(FwsetsError):
    """A numeric parameter lies outside its valid range."""


class EmptySetError(FwsetsError):
    """An operation that requires a nonempty set received an empty one.

    Carries the Farkas certificate of infeasibility when one is available:
    a nonnegative row combination ``lam`` with ``lam @ A == 0`` and
    ``lam @ b < 0`` for the system ``A x <= b``.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotInDomainError(FwsetsError):
    """A linear term lies outside the domain of the cone value function.

    ``certificate`` is a ray of the cone along which the objective
    decreases without bound.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class UnsupportedKindError(FwsetsError):
    """The operation is not defined for this combination of set kinds."""


def require_kind(value, kind, takes: str) -> None:
    """Refuse a value that is not a ``kind`` (a class or a tuple of them)
    with UnsupportedKindError, whose message is ``takes``, such as
    "decompose takes an HPolyhedron", and the value's type."""
    if not isinstance(value, kind):
        raise UnsupportedKindError(f"{takes}, not {type(value).__name__}")


class DocumentError(FwsetsError):
    """A document failed to parse or validate.

    ``line``/``column`` locate the defect when the failure happened at the
    JSON level; semantic failures carry ``path`` (a dotted field path).
    """

    def __init__(self, message, line=None, column=None, path=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.path = path
