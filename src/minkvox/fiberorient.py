"""Fiber orientation estimation from the gray-value structure tensor.

The local structure tensor is the outer product of the image gradient with
itself, blurred componentwise by a second filter (Krause et al., J. Mater.
Sci. 45, 2010).  Its eigenvector for the smallest eigenvalue is the direction
of least gray-value variation, which for fibrous structures is the local
fiber axis.  Averaging the outer products of these eigenvectors over all
sufficiently structured voxels and normalizing by the trace yields an
estimate of the second-order orientation tensor A = <p p^T>.  Each x-slab's
products g_i g_j go straight into six padded field buffers, in which each
component is then blurred with its spectrum; the whole gradient is never held.

The eigen stage runs in closed form on the six tensor components, chunk by
chunk (Kopp, "Efficient numerical diagonalization of hermitian 3x3
matrices", arXiv:physics/0610206): the trigonometric formula gives the
eigenvalues, one Rayleigh-quotient step sharpens the smallest one, and the
largest cross product of two rows of A - lambda_min I is the minor
eigenvector.  No per-voxel 3x3 array is formed: a chunk's projectors are
summed by one (3, n) x (n, 3) product.  The closed form degrades as the two
smallest eigenvalues meet, so voxels whose bottom gap lambda_mid - lambda_min
is below CLOSED_FORM_GAP_REL times the spectral radius, whose deviator is
zero, or whose cross products all vanish go through np.linalg.eigh and the
tie rule instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateImageError
from .filters import Kernel, apply_transfer, fft_convolve, field_buffer, kernel_transfer
from .gradient import stencil
from .minkowski import _SLAB, SymTensor3, unit_trace
from .voxelgrid import VoxelGrid

__all__ = ["OrientationResult", "structure_tensor_orientation"]

DEFAULT_MASK_THRESHOLD_REL = 1e-3
EIGENVALUE_TIE_REL = 1e-12
# Below this bottom gap, relative to the spectral radius, the closed-form
# eigenvector is no longer as accurate as eigh's (its error grows like
# eps * radius / gap once the Rayleigh step has run), so eigh takes over.
CLOSED_FORM_GAP_REL = 1e-4
# grid voxels per eigen-stage chunk; keeps the per-voxel temporaries in cache
_CHUNK = 1 << 14
# component order of the structure tensor: xx, yy, zz, xy, xz, yz
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class OrientationResult:
    """Estimated orientation tensor and the count of voxels that entered it."""

    a_est: SymTensor3
    masked_voxels: int
    total_voxels: int


def structure_tensor_orientation(
    image: VoxelGrid,
    first_kernel: Kernel,
    second_kernel: Kernel,
    scheme: str = "central",
    mask_threshold_rel: float = DEFAULT_MASK_THRESHOLD_REL,
) -> OrientationResult:
    """Estimate the second-order fiber orientation tensor of an image.

    Parameters
    ----------
    image : VoxelGrid
        Gray-value image of a fibrous structure.
    first_kernel : Kernel
        Optional smoothing applied to the image before taking the gradient
        (None for no smoothing).
    second_kernel : Kernel
        Blur applied to each of the six structure-tensor components.  This
        spreads interface information into the fiber interior and is
        mandatory; passing None raises ValueError.
    scheme : str
        Finite-difference scheme for the gradient.
    mask_threshold_rel : float
        Voxels whose blurred structure-tensor trace falls below this fraction
        of the maximum trace are ignored.  A non-positive value disables the
        mask, i.e. every voxel contributes; a non-finite one raises
        ValueError.

    Voxels where the two smallest eigenvalues coincide (within 1e-12 of the
    largest one) have no unique fiber axis; they contribute the normalized
    projector onto the tied eigenspace instead, so the result stays
    deterministic and equivariant.
    """
    if second_kernel is None:
        raise ValueError("the structure tensor requires a second blur kernel")
    if not math.isfinite(mask_threshold_rel):
        raise ValueError(f"mask threshold must be finite, got {mask_threshold_rel}")

    # values in [0, 1] and h >= 1e-20 give |g| <= 1e20: every product is finite
    dims, spacing = image.dims, image.spacing
    f = fft_convolve(image, first_kernel)
    del image  # a caller that handed its grid over frees it here
    buf = field_buffer(dims, (6,))
    blurred = buf[:, :f.size].reshape((6,) + dims)  # the six fields, spectra behind
    for x0 in range(0, len(f), _SLAB):
        g = stencil(f, x0, x0 + _SLAB, spacing, scheme)
        for slot, (i, j) in enumerate(_PAIRS):
            np.multiply(g[i], g[j], out=blurred[slot, x0:x0 + _SLAB])
    del f
    transfer = kernel_transfer(second_kernel, dims, spacing)
    for field, slot in zip(blurred, buf):
        apply_transfer(field, transfer, slot)
    del transfer

    trace = blurred[0] + blurred[1]
    trace += blurred[2]
    if mask_threshold_rel > 0:
        mask = trace >= mask_threshold_rel * trace.max()
    else:
        mask = np.ones(dims, dtype=bool)
    count = int(mask.sum())
    if count == 0 or trace.max() <= 0:
        raise DegenerateImageError("no voxel carries structure-tensor signal")

    flat = blurred.reshape(6, -1)
    keep = mask.ravel()
    a_mat = np.zeros((3, 3))
    for lo in range(0, keep.size, _CHUNK):
        chunk = np.compress(keep[lo:lo + _CHUNK], flat[:, lo:lo + _CHUNK], axis=1)
        a_mat += minor_projector_sum(chunk)
    a_mat = (a_mat + a_mat.T) / 2
    return OrientationResult(a_est=SymTensor3(unit_trace(a_mat)), masked_voxels=count,
                             total_voxels=int(np.prod(dims)))


def minor_projector_sum(comps: np.ndarray) -> np.ndarray:
    """Sum of the minor-eigenvector projectors of symmetric 3x3 tensors.

    ``comps`` has shape (6, n) and holds the components xx, yy, zz, xy, xz,
    yz of n tensors.  Each tensor contributes v v^T for its unit eigenvector
    v of the smallest eigenvalue.  Where the two smallest eigenvalues tie
    within EIGENVALUE_TIE_REL of the largest one there is no unique v; the
    tensor contributes the normalized projector onto the tied eigenspace
    instead, (I - w w^T) / 2 for a two-fold and I / 3 for a three-fold tie.
    """
    # C order for callers that pass strided views; an exact power-of-two scale to a
    # largest entry in [1/2, 1) keeps the degree-4 and -5 terms below normal floats
    comps = np.ascontiguousarray(comps)
    comps = np.ldexp(comps, -np.frexp(np.abs(comps).max(axis=0))[1])
    a, b, c, d, e, f = comps
    q = (a + b + c) / 3
    da, db, dc = a - q, b - q, c - q
    p = np.sqrt((da * da + db * db + dc * dc + 2 * (d * d + e * e + f * f)) / 6)
    det = da * (db * dc - f * f) - d * (d * dc - e * f) + e * (d * f - db * e)
    with np.errstate(divide="ignore", invalid="ignore"):
        # p == 0 (a multiple of I) makes every eigenvalue NaN, which the
        # gap test below sends to eigh
        phi = np.arccos(np.clip(det / (2 * p**3), -1.0, 1.0)) / 3
        lam_max = q + 2 * p * np.cos(phi)
        lam_min = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
        lam_mid = 3 * q - lam_max - lam_min
        # The trigonometric lambda_min errs by about eps p^2 / gap, which the
        # cross product turns into an eigenvector error of eps (p / gap)^2.
        # Its Rayleigh quotient is accurate to eps * radius, and the cross
        # product taken with it errs by eps * radius / gap, as eigh does.
        (x, y, z), norm2 = _minor_cross(comps, lam_min)
        rayleigh = (x * (a * x + d * y + e * z) + y * (d * x + b * y + f * z)
                    + z * (e * x + f * y + c * z)) / norm2
        (x, y, z), norm2 = _minor_cross(comps, rayleigh)
    radius = np.maximum(np.abs(lam_max), np.abs(lam_min))
    fallback = ~(lam_mid - lam_min >= CLOSED_FORM_GAP_REL * radius) | ~(norm2 > 0)

    total = np.zeros((3, 3))
    if fallback.any():
        total += _eigh_projector_sum(comps[:, fallback])
        keep = ~fallback
        x, y, z, norm2 = x[keep], y[keep], z[keep], norm2[keep]
    v = np.stack((x, y, z))
    return total + (v / norm2) @ v.T


def _minor_cross(comps, lam):
    """The largest row cross product of A - lam I, and its squared norm."""
    a, b, c, d, e, f = comps
    al, bl, cl = a - lam, b - lam, c - lam
    best = (d * f - e * bl, d * e - al * f, al * bl - d * d)  # row 0 x row 1
    best_norm2 = best[0] ** 2 + best[1] ** 2 + best[2] ** 2
    for cross in ((d * cl - e * f, e * e - al * cl, al * f - d * e),  # row 0 x row 2
                  (bl * cl - f * f, e * f - d * cl, d * f - bl * e)):  # row 1 x row 2
        norm2 = cross[0] ** 2 + cross[1] ** 2 + cross[2] ** 2
        take = norm2 > best_norm2
        best = tuple(np.where(take, new, old) for new, old in zip(cross, best))
        best_norm2 = np.where(take, norm2, best_norm2)
    return best, best_norm2


def _eigh_projector_sum(comps):
    """minor_projector_sum by a batched np.linalg.eigh, for the voxels the
    closed form cannot resolve; this is where the tie rule applies."""
    tensors = np.empty((comps.shape[1], 3, 3))
    for slot, (i, j) in enumerate(_PAIRS):
        tensors[:, i, j] = comps[slot]
        tensors[:, j, i] = comps[slot]

    vals, vecs = np.linalg.eigh(tensors)  # ascending eigenvalues
    scale = np.abs(vals[:, 2])
    tied_low = vals[:, 1] - vals[:, 0] <= EIGENVALUE_TIE_REL * scale
    tied_all = tied_low & (vals[:, 2] - vals[:, 1] <= EIGENVALUE_TIE_REL * scale)

    v1 = vecs[:, :, 0]
    contrib = np.einsum("ni,nj->nij", v1, v1)
    if tied_low.any():
        # two-fold tie: average projector onto the bottom eigenspace
        v3 = vecs[tied_low, :, 2]
        contrib[tied_low] = (np.eye(3) - np.einsum("ni,nj->nij", v3, v3)) / 2
    if tied_all.any():
        contrib[tied_all] = np.eye(3) / 3
    return contrib.sum(axis=0)
