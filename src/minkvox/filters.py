"""Smoothing kernels and periodic FFT convolution.

Kernels are defined in physical units on the voxel lattice: a Gaussian with
standard deviation h*sigma truncated at 3*h*sigma, and an indicator ball of
radius h*sigma.  Both are sampled at the voxel centers in wrap-around layout
(peak at index (0, 0, 0)) and renormalized so that the discrete sum times h^3
is exactly one, which makes the convolution mean-preserving.  The profile is
evaluated on the support's bounding box of offsets only.  The transfer
function runs numpy's rfftn passes (z, then y, then x) on the rows that box
reaches, since all-zero rows transform to exact zeros.  A convolution runs them
and their inverses in one buffer whose z-rows are padded to hold the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

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
    "field_buffer",
    "apply_transfer",
    "fft_convolve",
]

GAUSSIAN_TRUNCATION_SIGMAS = 3.0
_SLAB = 4  # x-layers per z pass; numpy copies a slab that overlaps its output


@dataclass(frozen=True)
class _SigmaKernel:
    """Kernel of width h * sigma; instances of different subclasses never compare equal."""

    sigma: float
    name: ClassVar[str]  # the label of reports, flags and sweeps
    reach: ClassVar[float]  # support radius over sigma

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


class GaussianKernel(_SigmaKernel):
    name = "gaussian"
    reach = GAUSSIAN_TRUNCATION_SIGMAS


class BallKernel(_SigmaKernel):
    name = "ball"
    reach = 1.0


Kernel = GaussianKernel | BallKernel | None


def kernel_name(kernel: Kernel) -> str:
    return "none" if kernel is None else kernel.name


def support_radius(kernel: Kernel, spacing: float) -> float:
    """Physical radius beyond which the sampled kernel is identically zero."""
    return 0.0 if kernel is None else kernel.reach * spacing * kernel.sigma


def _box_samples(kernel: Kernel, dims, spacing: float):
    """Normalized samples on the support box and, per axis, their grid indices.

    The box offsets run 0..r, -r..-1 with r = int(reach).  Summing the integer
    squares before scaling keeps the samples bitwise invariant under all 48
    cube symmetries.
    """
    if kernel is None:
        raise ValueError("cannot sample the identity kernel (None)")
    dims = tuple(int(n) for n in dims)
    h = spacing
    reach = kernel.reach * kernel.sigma  # support radius in voxels
    if not reach < min(dims) / 2:
        raise KernelSupportError(
            f"kernel support radius {support_radius(kernel, h)} does not fit into "
            f"half the box {min(dims) * h / 2}"
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
    off = np.r_[0:int(reach) + 1, -int(reach):0]  # 2 r + 1 <= n on every axis
    sq = off * off
    off2 = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
    if isinstance(kernel, GaussianKernel):
        profile = np.exp(-(off2 * (h * h)) / (2 * hs * hs)) / (hs**3 * (2 * np.pi) ** 1.5)
    else:
        profile = 3.0 / (4 * np.pi * hs**3)
    vals = np.where(off2 <= reach * reach, profile, 0.0)
    total = vals.sum() * h**3
    if total <= 0:
        raise NumericalError("sampled kernel has no mass")
    return vals / total, [off % n for n in dims]


def sample_kernel(kernel: Kernel, dims, spacing: float) -> np.ndarray:
    """Sample a kernel at the voxel centers of a periodic grid.

    Returns the raw kernel values in wrap-around layout, renormalized so that
    ``values.sum() * spacing**3 == 1`` up to round-off.  A voxel center is
    in the support when its integer squared offset from the origin, in
    voxels, is at most ``(kernel.reach * kernel.sigma)**2``, so the same
    points are kept at every h; they are sampled on the support's bounding
    box and scattered into zeros.  Raises KernelSupportError if that radius,
    in voxels, is not below half the shortest edge, or if (h sigma)^3 or its
    reciprocal is not a finite nonzero float.
    """
    box, index = _box_samples(kernel, dims, spacing)
    vals = np.zeros(tuple(int(n) for n in dims))
    vals[np.ix_(*index)] = box
    return vals


def kernel_transfer(kernel: Kernel, dims, spacing: float) -> np.ndarray:
    """Fourier transfer function of the sampled kernel, including the h^3 weight."""
    box, (ix, iy, iz) = _box_samples(kernel, dims, spacing)
    nx, ny, nz = (int(n) for n in dims)
    rows = np.zeros(box.shape[:2] + (nz,))
    rows[:, :, iz] = box
    part = np.zeros((len(ix), ny, nz // 2 + 1), complex)
    part[:, iy] = np.fft.rfft(rows, axis=2)
    spec = np.zeros((nx, ny, nz // 2 + 1), complex)
    spec[ix] = np.fft.fft(part, axis=1)
    np.fft.fft(spec, axis=0, out=spec)
    spec *= spacing**3
    return spec


def field_buffer(dims, lead=()) -> np.ndarray:
    """Floats for ``lead`` fields of ``dims``, each z-row padded to hold its half spectrum."""
    return np.empty(tuple(lead) + (dims[0] * dims[1] * 2 * (dims[2] // 2 + 1),))


def apply_transfer(values: np.ndarray, transfer: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Periodic convolution of a raw value array with a precomputed transfer.

    ``irfftn(rfftn(values) * transfer)`` by the same numpy passes inside
    ``buf = field_buffer(values.shape)``; returns its C-ordered front, the
    field, which ``values`` may be.
    """
    spec = buf.view(complex).reshape(transfer.shape)
    field = buf[:values.size].reshape(values.shape)
    slabs = [slice(x, x + _SLAB) for x in range(0, len(values), _SLAB)]
    for s in reversed(slabs):  # downward: spectrum slab x starts at or after field slab x
        np.fft.rfft(values[s], axis=2, out=spec[s])
    for axis in (1, 0):
        np.fft.fft(spec, axis=axis, out=spec)
    spec *= transfer
    for axis in (0, 1):
        np.fft.ifft(spec, axis=axis, out=spec)
    for s in slabs:  # upward, so that no unread spectrum is overwritten
        np.fft.irfft(spec[s], values.shape[2], axis=2, out=field[s])
    return field


def fft_convolve(image: VoxelGrid, kernel: Kernel) -> np.ndarray:
    """Convolve a gray-value image with a kernel, treating the grid as periodic.

    Returns the field, the front of its padded buffer, or ``image.values``
    for ``kernel=None``.  The output is clipped to [0, 1] to absorb FFT
    round-off; values outside [-1e-6, 1 + 1e-6] indicate a normalization bug
    and raise NumericalError.
    """
    if kernel is None:
        return image.values
    transfer = kernel_transfer(kernel, image.dims, image.spacing)
    out = apply_transfer(image.values, transfer, field_buffer(image.dims))
    lo, hi = float(out.min()), float(out.max())
    if lo < -1e-6 or hi > 1 + 1e-6:
        raise NumericalError(
            f"convolution output range [{lo}, {hi}] exceeds [0, 1] beyond round-off"
        )
    np.clip(out, 0.0, 1.0, out=out)
    return out
