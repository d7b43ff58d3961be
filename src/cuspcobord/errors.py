"""Exception types shared across the package."""

__all__ = ["CuspCobordError", "SchemaError", "PreconditionError"]


class CuspCobordError(Exception):
    """Base class for all package errors."""


class SchemaError(CuspCobordError):
    """Raised when a JSON document does not match the expected wire format."""


class PreconditionError(CuspCobordError):
    """Raised when an operation is called on data violating its contract."""
