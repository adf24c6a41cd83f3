"""Exception types shared across the package."""

from __future__ import annotations


class ShiftLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ShiftLabError, ValueError):
    """Operands have incompatible shapes, or a square matrix was required."""


class ConditioningError(ShiftLabError, ArithmeticError):
    """A matrix that must be invertible fails the conditioning threshold."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class PreconditionError(ShiftLabError, ValueError):
    """A documented precondition was violated.

    Carries the offending residual and, where meaningful, the sequence
    index or pair of indices that triggered the violation.
    """

    def __init__(self, message: str, residual: float | None = None,
                 index=None):
        super().__init__(message)
        self.residual = residual
        self.index = index


class WindowAccessError(ShiftLabError, IndexError):
    """Access to a windowed sequence outside its stored index range."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SpecFormatError(ShiftLabError, ValueError):
    """A shift-specification document failed to parse or resolve.

    ``line``/``column`` are set for syntax errors, ``path`` for semantic
    errors (a dotted JSON path into the document).
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, path: str | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}, column {column})"
        elif path:
            loc = f" (at {path})"
        super().__init__(message + loc)
        self.line = line
        self.column = column
        self.path = path
