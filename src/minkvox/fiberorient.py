"""Fiber orientation estimation from the gray-value structure tensor.

The local structure tensor is the outer product of the image gradient with
itself, blurred componentwise by a second filter (Krause et al., J. Mater.
Sci. 45, 2010).  Its eigenvector for the smallest eigenvalue is the direction
of least gray-value variation, which for fibrous structures is the local
fiber axis.  Averaging the outer products of these eigenvectors over all
sufficiently structured voxels and normalizing by the trace yields an
estimate of the second-order orientation tensor A = <p p^T>.  Beyond six
padded field buffers, in which one call blurs all six components, only slab
and chunk scratch is held: the first filter writes into the yz buffer, each
x-slab's products g_i g_j go straight into the buffers, and the mask is
applied chunk by chunk.

The eigen stage runs in closed form on the six tensor components, chunk by
chunk (Kopp, "Efficient numerical diagonalization of hermitian 3x3
matrices", arXiv:physics/0610206): the trigonometric formula gives the
eigenvalues, and the squared adjugate B^2 / tr(B^2) of B = adj(A - lambda_min I)
is the minor projector, in which the error of lambda_min enters only squared.
No per-voxel 3x3 array is formed: a chunk's projectors are summed by one
(6, n) x (n,) product.  The closed form degrades as the two smallest
eigenvalues meet, so voxels whose bottom gap lambda_mid - lambda_min is below
CLOSED_FORM_GAP_REL times the spectral radius, whose deviator is zero, or
whose B vanishes go through np.linalg.eigh and the tie rule instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateImageError
from .filters import Kernel, apply_transfer, fft_convolve, field_buffer, kernel_transfer
from .gradient import SLAB, stencil
from .minkowski import SymTensor3, unit_trace
from .voxelgrid import VoxelGrid

__all__ = [
    "OrientationResult",
    "structure_tensor_orientation",
    "DEFAULT_MASK_THRESHOLD_REL",
]

DEFAULT_MASK_THRESHOLD_REL = 1e-3
EIGENVALUE_TIE_REL = 1e-12
# Below this bottom gap, relative to the spectral radius, the closed-form
# projector is no longer as accurate as eigh's (its error grows like
# eps * radius / gap, from the round-off of B's entries), so eigh takes over.
CLOSED_FORM_GAP_REL = 1e-4
# grid voxels per eigen-stage chunk; keeps the per-voxel temporaries in cache
_CHUNK = 1 << 14
# component order of the structure tensor: xx, yy, zz, xy, xz, yz
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# those components in the row-major order of the full 3x3 tensor
_FULL = [0, 3, 4, 3, 1, 5, 4, 5, 2]


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
    buf = field_buffer(dims, (6,))
    f = fft_convolve(image, first_kernel, buf[5])
    del image  # a caller that handed its grid over frees it here
    blurred = buf[:, :f.size].reshape((6,) + dims)  # the six fields, spectra behind
    # f is the yz field: a slab's yz product overwrites its f layers once the next
    # slab's stencil has run, and slab 0's at the end, as the last slab reads layer 0
    held = []
    for x0 in range(0, len(f), SLAB):
        g = stencil(f, x0, x0 + SLAB, spacing, scheme)
        for slot, (i, j) in enumerate(_PAIRS[:5]):
            np.multiply(g[i], g[j], out=blurred[slot, x0:x0 + SLAB])
        held.append((x0, g))
        if len(held) == 3:
            x, g = held.pop(1)
            np.multiply(g[1], g[2], out=blurred[5, x:x + SLAB])
    for x, g in held:
        np.multiply(g[1], g[2], out=blurred[5, x:x + SLAB])
    apply_transfer(blurred, kernel_transfer(second_kernel, dims, spacing), buf)

    # two sweeps over the same chunks, so no whole-grid trace or mask is held
    flat = blurred.reshape(6, -1)
    chunks = [slice(lo, lo + _CHUNK) for lo in range(0, flat.shape[1], _CHUNK)]
    peak = max(flat[:3, s].sum(axis=0).max() for s in chunks)  # the largest trace
    if peak <= 0:
        raise DegenerateImageError("no voxel carries structure-tensor signal")
    threshold = mask_threshold_rel * peak if mask_threshold_rel > 0 else -np.inf
    count, a_mat = 0, np.zeros((3, 3))
    for s in chunks:
        keep = flat[:3, s].sum(axis=0) >= threshold
        count += int(keep.sum())
        a_mat += minor_projector_sum(np.compress(keep, flat[:, s], axis=1))
    if count == 0:
        raise DegenerateImageError("no voxel carries structure-tensor signal")
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
    # an exact power-of-two scale to a largest entry in [1/2, 1) keeps det (degree 3)
    # and B^2 (degree 4) normal floats
    scaled = np.abs(comps)
    comps = np.ldexp(comps, -np.frexp(scaled.max(axis=0))[1], out=scaled)
    # every per-voxel value is a row of one scratch block written through out=;
    # a fresh array for each step makes the stage about twice as slow
    n = comps.shape[1]
    block = np.empty((25, n))
    mat, adj = block[:18].reshape(2, 3, 3, n)
    diag = block[:9:4]  # mat[0, 0], mat[1, 1] and mat[2, 2]
    q, p, det, lam_max, lam_min, t, u = block[18:]
    for slot, (i, j) in enumerate(_PAIRS[3:], 3):
        mat[i, j] = mat[j, i] = comps[slot]
    np.mean(comps[:3], axis=0, out=q)
    np.subtract(comps[:3], q, out=diag)  # the deviator D = A - q I
    np.sqrt(np.einsum("ijn,ijn->n", mat, mat, out=p) / 6, out=p)  # tr D^2 = 6 p^2
    _cofactors(mat, ((0, 0), (0, 1), (0, 2)), adj, t)
    np.einsum("kn,kn->n", mat[0], adj[0], out=det)  # det D along the first row
    with np.errstate(divide="ignore", invalid="ignore"):
        # p == 0 (a multiple of I) makes every eigenvalue NaN, which the
        # gap test below sends to eigh
        np.multiply(p, p, out=t)
        t *= p
        t *= 2
        np.clip(np.divide(det, t, out=t), -1.0, 1.0, out=t)
        np.arccos(t, out=t)
        t /= 3  # phi in [0, pi / 3], where sin(phi) = sqrt(1 - cos(phi)^2) holds in sign
        np.multiply(np.cos(t, out=u), p, out=lam_max)
        np.add(q, np.multiply(lam_max, 2, out=lam_max), out=lam_max)
        # 2 cos(phi + 2 pi / 3) = -(cos(phi) + sqrt(3) sin(phi)), with one np.cos fewer
        np.sqrt(np.subtract(1, np.multiply(u, u, out=t), out=t), out=t)
        np.multiply(np.add(np.multiply(t, np.sqrt(3), out=t), u, out=t), p, out=lam_min)
        np.subtract(q, lam_min, out=lam_min)
        np.multiply(q, 3, out=u)  # the gap lam_mid - lam_min, lam_mid = 3 q - lam_max - lam_min
        u -= lam_max
        u -= lam_min
        u -= lam_min
        np.maximum(np.abs(lam_max, out=lam_max), np.abs(lam_min, out=t), out=t)
        fallback = ~(u >= np.multiply(t, CLOSED_FORM_GAP_REL, out=t))
    # B = adj(A - lam_min I) is about g1 g2 v v^T plus an error of order
    # delta * gap across v, where delta is the error of lam_min and g1, g2
    # are the gaps above it; B^2 / tr(B^2) is v v^T up to (delta / g1)^2
    np.subtract(comps[:3], lam_min, out=diag)
    _cofactors(mat, _PAIRS, adj, t)
    sq = block[:6]
    for row, (i, j) in zip(sq, _PAIRS):
        np.einsum("kn,kn->n", adj[i], adj[j], out=row)
    tr = np.sum(sq[:3], axis=0, out=t)
    fallback |= ~(tr > 0)

    total = np.zeros((3, 3))
    if fallback.any():
        total += _eigh_projector_sum(comps[:, fallback])
        keep = ~fallback
        sq, tr = sq[:, keep], tr[keep]
    return total + (sq @ np.divide(1, tr, out=tr))[_FULL].reshape(3, 3)


def _cofactors(mat, pairs, out, t):
    """Write cofactor (i, j) of the symmetric 3x3 tensors ``mat`` (3, 3, n) to
    out[i, j] and out[j, i] for each pair; ``t`` is a scratch row."""
    for i, j in pairs:
        i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        np.multiply(mat[i1, j1], mat[i2, j2], out=out[i, j])
        out[i, j] -= np.multiply(mat[i1, j2], mat[i2, j1], out=t)
        if i != j:
            out[j, i] = out[i, j]


def _eigh_projector_sum(comps):
    """minor_projector_sum by a batched np.linalg.eigh, for the voxels the
    closed form cannot resolve; this is where the tie rule applies."""
    tensors = comps[_FULL].T.reshape(-1, 3, 3)
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
