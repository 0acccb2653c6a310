"""Exception types shared across the package."""

__all__ = [
    "VolumeFormatError",
    "NumericalError",
    "DegenerateImageError",
]


class VolumeFormatError(Exception):
    """Raised when a volume file or its sidecar cannot be parsed."""


class NumericalError(Exception):
    """Raised when a numerical result is outside its guaranteed range."""


class DegenerateImageError(Exception):
    """Raised when an image carries no interface information."""
