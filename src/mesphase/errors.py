"""Exception types shared across the package."""

__all__ = [
    "MesphaseError",
    "DimMismatch",
    "NotOrthonormal",
    "NotBijective",
    "WordParseError",
    "FactorizationFailed",
    "InvalidDimension",
    "InvalidLabel",
    "InvalidTolerance",
]


class MesphaseError(Exception):
    """Base class for all package-specific errors."""


class DimMismatch(MesphaseError, ValueError):
    """Operands live in incompatible Hilbert spaces."""


class NotOrthonormal(MesphaseError, ValueError):
    """A supplied set of vectors is not an orthonormal basis."""


class NotBijective(MesphaseError, ValueError):
    """Relabeling targets do not form a bijection onto 0..d-1."""


class WordParseError(MesphaseError, ValueError):
    """An operator word does not match the `Name^power` grammar."""


class FactorizationFailed(MesphaseError, RuntimeError):
    """A state expected to be a product state has Schmidt rank > 1."""


class InvalidDimension(MesphaseError, ValueError):
    """Dimension is not an odd prime."""


class InvalidLabel(MesphaseError, ValueError):
    """Basis label is neither 'cb' nor an integer in 0..d-1."""


class InvalidTolerance(MesphaseError, ValueError):
    """Tolerance is not a finite number strictly between 0 and 1."""
