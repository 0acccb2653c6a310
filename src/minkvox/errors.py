"""Exception types shared across the package."""

__all__ = [
    "VolumeFormatError",
    "NumericalError",
    "DegenerateImageError",
    "KernelSupportError",
]


class VolumeFormatError(Exception):
    """Raised when a volume file or its sidecar cannot be parsed."""


class NumericalError(Exception):
    """Raised when a numerical result is outside its guaranteed range."""


class DegenerateImageError(Exception):
    """Raised when an image carries no interface information."""


class KernelSupportError(ValueError):
    """Raised when a filter kernel does not fit into the grid."""
