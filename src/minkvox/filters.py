"""Smoothing kernels and periodic convolution.

Kernels are defined in lattice units: a Gaussian with standard deviation
sigma voxels truncated at 3 sigma, and an indicator ball of radius sigma
voxels.  Both are sampled at the voxel centers in wrap-around layout (peak at
index (0, 0, 0)) and renormalized so that the samples sum to one, which makes
the convolution mean-preserving; the voxel spacing h enters only the range
check of the physical width h*sigma, so the samples and every filtered field
are the same at any h.  The profile is evaluated on the support's bounding box
of offsets only.  A one-point support (a ball of sigma below 1, a Gaussian below
1/3) is the identity.  The 7-point cross is summed directly from the grid's own
numbers (``gradient.cross``), exact integers at depth p, and scaled once: flat
regions stay exactly flat, and a shifted image gives the shifted field bitwise.
Larger supports go by FFT, which spreads round-off over every voxel.  Its
transfer function runs numpy's rfftn passes on the rows that box reaches, as
all-zero rows transform to exact zeros: z and y at once, x a block of y-rows at
a time inside a convolution, which runs in one buffer per field whose z-rows
are padded to hold the spectrum; no whole-grid transfer is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import NumericalError
from .gradient import cross
from .voxelgrid import VoxelGrid, color_steps

__all__ = [
    "GaussianKernel",
    "BallKernel",
    "Kernel",
    "kernel_transfer",
    "field_buffer",
    "apply_transfer",
    "route",
    "fft_convolve",
]

GAUSSIAN_TRUNCATION_SIGMAS = 3.0
_SLAB = 4  # x-layers per z pass; numpy copies a slab that overlaps its output
_YBLOCK = 8  # y-rows per transfer block; on a 128^3 orientation 4-16 tie, 32 and 128 are slower
_DIRECT_POINTS = 7  # the cross, summed directly; 19 points (Gaussian 0.5) tie with FFT


@dataclass(frozen=True)
class _SigmaKernel:
    """Kernel of width sigma voxels; instances of different subclasses never compare equal."""

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


def _box_samples(kernel: Kernel, dims, h: float):
    """Samples on the support box, summing to one, and, per axis, their grid indices.

    The box offsets run 0..r, -r..-1 with r = int(reach).  A voxel center is
    in the support when its integer squared offset, in voxels, is at most
    ``(kernel.reach * kernel.sigma)**2``, and the profile is taken of that
    integer too, so the samples are the same at every h and bitwise invariant
    under all 48 cube symmetries.  Raises ValueError if the radius in voxels
    is not below half the shortest edge, or if (h sigma)^3 or its reciprocal
    is not a finite nonzero float; as h <= 1e20, sigma^2 is then normal.
    """
    if kernel is None:
        raise ValueError("cannot sample the identity kernel (None)")
    dims = tuple(int(n) for n in dims)
    reach = kernel.reach * kernel.sigma  # support radius in voxels
    if not reach < min(dims) / 2:
        raise ValueError(
            f"kernel support radius {kernel.reach * h * kernel.sigma} does not fit into "
            f"half the box {min(dims) * h / 2}"
        )
    hs = h * kernel.sigma
    try:
        # a float power raises OverflowError where a product would give inf
        in_range = 0 < hs**3 < np.inf and 1 / hs**3 < np.inf
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError(
            f"kernel width h*sigma = {hs} is out of range: (h*sigma)^3 and its "
            f"reciprocal must be finite and nonzero"
        )
    off = np.r_[0:int(reach) + 1, -int(reach):0]  # 2 r + 1 <= n on every axis
    sq = off * off
    off2 = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
    s2 = kernel.sigma * kernel.sigma
    profile = np.exp(-off2 / (2 * s2)) if isinstance(kernel, GaussianKernel) else 1.0
    vals = np.where(off2 <= reach * reach, profile, 0.0)  # the center's 1 included
    return vals / vals.sum(), [off % n for n in dims]


def route(kernel: Kernel, dims, spacing: float):
    """How ``fft_convolve`` filters, and by what samples (``_box_samples``'): "identity"
    for no kernel or a one-point support, whose lone sample is 1, "direct" for the
    7-point cross, "fft" for larger supports."""
    box = np.ones((1, 1, 1)) if kernel is None else _box_samples(kernel, dims, spacing)[0]
    points = np.count_nonzero(box)
    return ("identity" if points == 1 else "direct" if points <= _DIRECT_POINTS else "fft"), box


def kernel_transfer(kernel: Kernel, dims, spacing: float):
    """The transfer as ``(rows, ix)``: the support box's x-rows ``ix`` after the
    z and y passes, (bx, ny, nz // 2 + 1); ``_transfer_block`` ends the x pass."""
    box, (ix, iy, iz) = _box_samples(kernel, dims, spacing)
    ny, nz = (int(n) for n in dims[1:])
    rows = np.zeros(box.shape[:2] + (nz,))
    rows[:, :, iz] = box
    part = np.zeros((len(ix), ny, nz // 2 + 1), complex)
    part[:, iy] = np.fft.rfft(rows, axis=2)
    return np.fft.fft(part, axis=1, out=part), ix


def _transfer_block(transfer, nx: int, ys: slice) -> np.ndarray:
    """y-rows ``ys`` of the whole-grid transfer, (nx, len(ys), nz // 2 + 1)."""
    rows, ix = transfer
    part = rows[:, ys]
    block = np.zeros((nx,) + part.shape[1:], complex)
    block[ix] = part
    return np.fft.fft(block, axis=0, out=block)


def field_buffer(dims, lead=()) -> np.ndarray:
    """Floats for ``lead`` fields of ``dims``, each z-row padded to hold its half spectrum."""
    return np.empty(tuple(lead) + (dims[0] * dims[1] * 2 * (dims[2] // 2 + 1),))


def apply_transfer(values: np.ndarray, transfer, buf: np.ndarray) -> np.ndarray:
    """Periodic convolution of raw value fields with a kernel transfer.

    ``irfftn(rfftn(v) * T)`` for each field v of ``values`` (lead + dims) by
    the same numpy passes inside ``buf = field_buffer(dims, lead)``; T is
    built ``_YBLOCK`` y-rows at a time, once for all fields.  Returns the
    fields, the C-ordered fronts of the buffer rows, which ``values`` may be.
    """
    dims = values.shape[-3:]
    bufs = buf.reshape(-1, buf.shape[-1])
    specs = bufs.view(complex).reshape((-1,) + dims[:2] + (dims[2] // 2 + 1,))
    fields = bufs[:, :np.prod(dims)].reshape((-1,) + dims)
    slabs = [slice(x, x + _SLAB) for x in range(0, dims[0], _SLAB)]
    for vals, spec in zip(values.reshape(fields.shape), specs):
        for s in reversed(slabs):  # downward: spectrum slab x starts at or after field slab x
            np.fft.rfft(vals[s], axis=2, out=spec[s])
            np.fft.fft(spec[s], axis=1, out=spec[s])
    for y0 in range(0, dims[1], _YBLOCK):
        ys = slice(y0, y0 + _YBLOCK)
        block = _transfer_block(transfer, dims[0], ys)
        for spec in specs:
            part = spec[:, ys]
            np.fft.fft(part, axis=0, out=part)
            part *= block
            np.fft.ifft(part, axis=0, out=part)
    for spec, field in zip(specs, fields):
        for s in slabs:  # upward, so that no unread spectrum is overwritten
            np.fft.ifft(spec[s], axis=1, out=spec[s])
            np.fft.irfft(spec[s], dims[2], axis=2, out=field[s])
    return fields.reshape(values.shape)


def fft_convolve(image: VoxelGrid, kernel: Kernel, out: np.ndarray | None = None) -> np.ndarray:
    """Convolve a gray-value image with a kernel, treating the grid as periodic.

    A router (``route``) reading the image by ``VoxelGrid.slabs``: the identity copies
    the values, the direct route scales the 7-point cross of each slab's stored numbers
    (exact integers at depth p) once, larger supports go through apply_transfer.
    Returns the field, a new array or, given ``out`` (a ``field_buffer(dims)`` row), a
    view of its front, so that no grid of its own is allocated.  A filtered output is
    clipped to [0, 1] to absorb round-off; values outside [-1e-6, 1 + 1e-6] indicate a
    normalization bug and raise NumericalError.
    """
    dims = image.dims
    way, box = route(kernel, dims, image.spacing)
    if out is None:  # the direct route's field holds no spectrum
        out = np.empty(np.prod(dims)) if way == "direct" else field_buffer(dims)
    field = out[:np.prod(dims)].reshape(dims)
    m = 1 if image.depth is None else color_steps(image.depth)
    c = box.flat[0]  # the center's weight; the faces' is box[1, 0, 0]
    for x0, x1, s in image.slabs(int(way == "direct")):
        if way == "direct":
            np.multiply(cross(s, box[1, 0, 0] / c), c / m, out=field[x0:x1])
        else:  # the values, which the FFT filters in place
            np.divide(s, m, out=field[x0:x1])
    if way == "identity":
        return field
    if way == "fft":
        field = apply_transfer(field, kernel_transfer(kernel, dims, image.spacing), out)
    lo, hi = float(field.min()), float(field.max())
    if lo < -1e-6 or hi > 1 + 1e-6:
        raise NumericalError(
            f"convolution output range [{lo}, {hi}] exceeds [0, 1] beyond round-off"
        )
    np.clip(field, 0.0, 1.0, out=field)
    return field
