"""Smoothing kernels and periodic FFT convolution.

Kernels are defined in physical units on the voxel lattice: a Gaussian with
standard deviation h*sigma truncated at 3*h*sigma, and an indicator ball of
radius h*sigma.  Both are sampled at the voxel centers in wrap-around layout
(peak at index (0, 0, 0)) and renormalized so that the discrete sum times h^3
is exactly one, which makes the convolution mean-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelSupportError, NumericalError
from .voxelgrid import VoxelGrid

__all__ = [
    "GaussianKernel",
    "BallKernel",
    "Kernel",
    "kernel_name",
    "support_radius",
    "sample_kernel",
    "kernel_transfer",
    "apply_transfer",
    "fft_convolve",
]

GAUSSIAN_TRUNCATION_SIGMAS = 3.0


@dataclass(frozen=True)
class _SigmaKernel:
    """Kernel of width h * sigma; instances of different subclasses never compare equal."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


class GaussianKernel(_SigmaKernel):
    pass


class BallKernel(_SigmaKernel):
    pass


Kernel = GaussianKernel | BallKernel | None


def kernel_name(kernel: Kernel) -> str:
    if kernel is None:
        return "none"
    return "gaussian" if isinstance(kernel, GaussianKernel) else "ball"


def support_radius(kernel: Kernel, spacing: float) -> float:
    """Physical radius beyond which the sampled kernel is identically zero."""
    if kernel is None:
        return 0.0
    if isinstance(kernel, GaussianKernel):
        return GAUSSIAN_TRUNCATION_SIGMAS * spacing * kernel.sigma
    return spacing * kernel.sigma


def _squared_offsets(dims) -> np.ndarray:
    """Integer squared lattice distance to the origin in wrap-around layout.

    Summing the integer squares before scaling keeps the sampled kernel
    bitwise invariant under all 48 cube symmetries.
    """
    axes = []
    for n in dims:
        idx = np.arange(n)
        off = np.where(idx <= n // 2, idx, idx - n)
        axes.append(off * off)
    return (
        axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :]
    )


def sample_kernel(kernel: Kernel, dims, spacing: float) -> np.ndarray:
    """Sample a kernel at the voxel centers of a periodic grid.

    Returns the raw kernel values in wrap-around layout, renormalized so that
    ``values.sum() * spacing**3 == 1`` up to round-off.  Raises
    KernelSupportError if the kernel support does not fit into half the box,
    or if (h sigma)^3 or its reciprocal is not a finite nonzero float.
    """
    if kernel is None:
        raise ValueError("cannot sample the identity kernel (None)")
    dims = tuple(int(n) for n in dims)
    h = spacing
    radius = support_radius(kernel, h)
    if not radius < min(dims) * h / 2:
        raise KernelSupportError(
            f"kernel support radius {radius} does not fit into half the box "
            f"{min(dims) * h / 2}"
        )
    hs = h * kernel.sigma
    try:
        # a float power raises OverflowError where a product would give inf
        in_range = 0 < hs**3 < np.inf and 1 / hs**3 < np.inf
    except OverflowError:
        in_range = False
    if not in_range:
        raise KernelSupportError(
            f"kernel width h*sigma = {hs} is out of range: (h*sigma)^3 and its "
            f"reciprocal must be finite and nonzero"
        )
    r2 = _squared_offsets(dims) * (h * h)
    if isinstance(kernel, GaussianKernel):
        vals = np.exp(-r2 / (2 * hs * hs)) / (hs**3 * (2 * np.pi) ** 1.5)
        vals[r2 > radius * radius] = 0.0
    else:
        vals = np.where(r2 <= hs * hs, 3.0 / (4 * np.pi * hs**3), 0.0)
    total = vals.sum() * h**3
    if total <= 0:
        raise NumericalError("sampled kernel has no mass")
    return vals / total


def kernel_transfer(kernel: Kernel, dims, spacing: float) -> np.ndarray:
    """Fourier transfer function of the sampled kernel, including the h^3 weight."""
    vals = sample_kernel(kernel, dims, spacing)
    return np.fft.rfftn(vals) * spacing**3


def apply_transfer(values: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """Periodic convolution of a raw value array with a precomputed transfer."""
    return np.fft.irfftn(np.fft.rfftn(values) * transfer, s=values.shape,
                         axes=(0, 1, 2))


def fft_convolve(image: VoxelGrid, kernel: Kernel) -> VoxelGrid:
    """Convolve a gray-value image with a kernel, treating the grid as periodic.

    Returns the image unchanged for ``kernel=None``.  The output is clipped
    to [0, 1] to absorb FFT round-off; values outside [-1e-6, 1 + 1e-6]
    indicate a normalization bug and raise NumericalError.  The result is
    marked as continuous regardless of the input depth.
    """
    if kernel is None:
        return image
    transfer = kernel_transfer(kernel, image.dims, image.spacing)
    out = apply_transfer(image.values, transfer)
    lo, hi = float(out.min()), float(out.max())
    if lo < -1e-6 or hi > 1 + 1e-6:
        raise NumericalError(
            f"convolution output range [{lo}, {hi}] exceeds [0, 1] beyond round-off"
        )
    np.clip(out, 0.0, 1.0, out=out)
    return VoxelGrid(out, image.spacing, depth=None)
