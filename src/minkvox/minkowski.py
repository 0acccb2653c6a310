"""Minkowski functional and tensor estimators for gray-value images.

The estimators follow the gradient-based discretization: the volume is the
sum of gray values times the voxel volume, the surface area the sum of
gradient magnitudes, and the translation-invariant interface tensor the sum
of normalized gradient outer products,

    V  ~ sum_x f(x) h^3
    S  ~ sum_x |g(x)| h^3
    W  ~ 1/3 sum_x g(x) (x) g(x) h^3 / (|g(x)| + eps)

with a relative regularization eps = eps_rel * max |g|.  Voxels with exactly
zero gradient are skipped.  The quadratic normal tensor is W normalized to
unit trace.  ``analyze`` computes all of them, and beta, in one call.

S and W are sums of per-voxel terms (Svane, Image Anal. Stereol. 34, 2015),
taken over x-slabs of gradient.SLAB layers in two passes (max |g|^2, then |g|
and the outer products of nonzero gradients); no whole-grid gradient is held.
The W sum carries a power-of-two scale 2^k that keeps its weights out of the
subnormal range; the QNT is normalized before that scale is taken back off,
so it and beta are exact under a power-of-two change of spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .filters import Kernel, fft_convolve
from .gradient import SLAB, stencil
from .voxelgrid import VoxelGrid

__all__ = [
    "COMPONENTS",
    "FULL",
    "SymTensor3",
    "MinkowskiSummary",
    "unit_trace",
    "eigenvalue_ratio",
    "relative_tensor_error",
    "analyze",
    "DEFAULT_EPS_REL",
]

DEFAULT_EPS_REL = 1e-12
# the six (i, j) components of a symmetric tensor, in the order xx, yy, zz, xy, xz, yz
COMPONENTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# for each row-major entry of the 3x3 matrix, the index of its component
FULL = [0, 3, 4, 3, 1, 5, 4, 5, 2]


@dataclass(frozen=True)
class SymTensor3:
    """Exactly symmetric 3x3 tensor, held as a read-only C float64 copy of ``mat``, with
    a deterministic eigendecomposition.  Asymmetry in any bit raises ValueError; a
    caller with round-off asymmetry symmetrizes first, as ``np.triu(m) + np.triu(m, 1).T``."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.float64, order="C")
        if mat.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():  # first, as NaN also fails the symmetry test
            raise ValueError("tensor entries must be finite")
        if not np.array_equal(mat, mat.T):
            raise ValueError("matrix is not exactly symmetric")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (descending) and matching orthonormal eigenvectors.

        Column ``vecs[:, k]`` belongs to ``vals[k]``.  Each eigenvector is
        sign-fixed so that its largest-magnitude component is positive.
        """
        vals, vecs = np.linalg.eigh(self.mat)
        vals = vals[::-1].copy()
        vecs = vecs[:, ::-1].copy()
        for k in range(3):
            lead = np.argmax(np.abs(vecs[:, k]))
            if vecs[lead, k] < 0:
                vecs[:, k] = -vecs[:, k]
        return vals, vecs


def unit_trace(mat: np.ndarray) -> np.ndarray:
    """Divide by the trace so that np.trace of the result is exactly 1.0.

    Plain division already lands on 1.0 for most inputs; otherwise the last
    diagonal entry is moved by one ulp, which makes the rounded trace exact
    (Sterbenz: 1 - s is computed without error for s in [1/2, 2]).
    """
    out = np.array(mat, dtype=np.float64) / np.trace(mat)
    if np.trace(out) != 1.0:
        out[2, 2] = 1.0 - (out[0, 0] + out[1, 1])
    return out


def eigenvalue_ratio(tensor: SymTensor3) -> float:
    """Degree of anisotropy: smallest to largest eigenvalue magnitude."""
    vals = np.abs(tensor.eigensystem()[0])
    top = float(vals.max())
    if top == 0.0:
        raise ValueError("eigenvalue ratio undefined for the zero tensor")
    return float(vals.min()) / top


def relative_tensor_error(estimate: SymTensor3, reference: SymTensor3) -> float:
    """Relative Frobenius deviation |ref - est|_F / |ref|_F, of matrices scaled to
    entries below 1 by powers of two, which is exact: no entry overflows or squares
    to zero.  An error beyond the float range raises ValueError."""
    e_ref, e_est = (int(np.frexp(np.abs(t.mat).max())[1]) for t in (reference, estimate))
    e = max(e_ref, e_est)
    denom = float(np.linalg.norm(np.ldexp(reference.mat, -e_ref)))
    if denom == 0.0:
        raise ValueError("reference tensor must be nonzero")
    num = float(np.linalg.norm(np.ldexp(reference.mat, -e) - np.ldexp(estimate.mat, -e)))
    try:
        return math.ldexp(num / denom, e - e_ref)
    except OverflowError:
        raise ValueError("relative tensor error exceeds the float range") from None


@dataclass(frozen=True)
class MinkowskiSummary:
    """Estimates of one image; the caller knows the configuration that made them.

    ``qnt`` and ``beta`` are None for degenerate images: those whose filtered
    field has no voxel of nonzero gradient, such as any constant image
    (all-solid, all-void or all-0.5).
    """

    volume: float
    surface_area: float
    normal_tensor: SymTensor3
    qnt: SymTensor3 | None
    beta: float | None


def analyze(
    image: VoxelGrid,
    kernel: Kernel = None,
    scheme: str = "central",
    eps_rel: float = DEFAULT_EPS_REL,
) -> MinkowskiSummary:
    """Volume, surface area, interface tensor, QNT and anisotropy of one image.

    The volume is taken from the unfiltered image.  S and W come from the
    gradient g of ``image`` filtered by ``kernel``, with eps = ``eps_rel``
    (checked before the filter runs) times max |g|; voxels with zero gradient
    are skipped, so an image without interfaces yields S = 0, W = 0 and is
    degenerate.
    """
    if not 0 <= eps_rel < np.inf:
        raise ValueError(f"eps_rel must be non-negative and finite, got {eps_rel}")
    f, h = fft_convolve(image, kernel), image.spacing
    starts = range(0, f.shape[0], SLAB)

    def slab(x0):
        g = stencil(f, x0, x0 + SLAB, h, scheme).reshape(3, -1)
        return g, np.einsum("ij,ij->j", g, g)

    gmax = math.sqrt(max(float(sq.max()) for _, sq in map(slab, starts)))  # bitwise max |g|
    if not math.isfinite(eps := eps_rel * gmax):
        raise ValueError(f"eps_rel * max|g| = {eps_rel} * {gmax} overflows; lower eps_rel")
    # the weights h^3 / (|g| + eps) go subnormal when eps dwarfs h^3, so they are
    # summed times 2^k, k even (so exact under the square root), and scaled back
    k = 2 * max(0, (math.frexp(eps)[1] - math.frexp(h**3)[1]) // 2) if eps > 0 else 0
    total, w = 0.0, np.zeros(6)
    for x0 in starts:
        g, norms = slab(x0)
        total += float(np.sqrt(norms, out=norms).sum())
        keep = norms > 0.0
        # the weighted sum is g sqrt(w) times its transpose, by six dot products
        # (BLAS ddot), about 6x faster than g @ g.T on a slab of 4 x 192^2 voxels
        g = np.compress(keep, g, axis=1)
        g *= np.sqrt(math.ldexp(h**3, k) / (np.compress(keep, norms) + eps))
        for slot, (i, j) in enumerate(COMPONENTS):
            w[slot] += g[i] @ g[j]
    mat = w[FULL].reshape(3, 3)  # exactly symmetric
    # S > 0 implies tr W > 0 in exact arithmetic; a subnormal tr W of fewer than 2^40
    # steps of 2^-1074 has lost the 1e-12 precision of the exact identities
    if total > 0 and not np.trace(np.ldexp(mat, -k)) >= 2.0**-1034:
        raise NumericalError("the interface tensor underflowed; lower eps_rel")
    mat /= 3.0
    q = beta = None
    if total > 0:  # normalized before the scale-back, so a subnormal W costs it no bits
        q = SymTensor3(unit_trace(mat))
        beta = eigenvalue_ratio(q)
    return MinkowskiSummary(volume=float(image.values.sum()) * h**3, surface_area=total * h**3,
                            normal_tensor=SymTensor3(np.ldexp(mat, -k)), qnt=q, beta=beta)
