"""Minkowski functional and tensor estimators for gray-value images.

The estimators follow the gradient-based discretization, as sums of per-voxel
lattice terms scaled once by the voxel spacing h (Svane, Image Anal. Stereol.
34, 2015).  With the gradient g = d / (c h), d the differences of the filtered
image and c = div (2 central, 1 one-sided) on the float route,

    V  = h^3 sum_x f(x)                                          = sum f h^3
    S  = h^2 / c sum_x |d(x)|                                    = sum |g| h^3
    W  = h^2 / (3 c) sum_x d(x) (x) d(x) / (|d(x)| + eps_rel max |d|)

which is 1/3 sum g g^T h^3 / (|g| + eps_rel max |g|).  Voxels with d = 0 are
skipped.  The quadratic normal tensor is W normalized to unit trace.
``analyze`` computes all of them, and beta, in one call and alone applies c
and h: the QNT, beta and the interface voxels are the same at any spacing, and
V, S, W (where its entries are normal) and gmax = max |d| / (c h) scale
exactly as h^3, h h, h h and 1/h.

The sums are taken over x-slabs of gradient.SLAB layers; no whole-grid gradient
is held.  ``analyze`` routes an image by its sampled filter support.  A depth-p
image (m = color_steps(p)) with no kernel, a one-point support or 7 points of
equal weight (a ball of sigma in [1, sqrt 2), ball 1.2 included) takes the
integer route.  Its filtered values are N / (K m), with N the integer color
index or its 7-point sum, so d is the integer vector of N's differences and
c = K m div.  S and W then depend on the image only through the voxel count
and the integer sums M of d_i d_j of each class q = |d|^2 > 0, a histogram
filled in one pass (the gray-value analogue of the configuration histograms
of Ohser and Muecklich, 2000).  The histogram is exact and the same in any
slab or voxel order, and the final sums over the classes are correctly
rounded, so S and W are bitwise invariant under periodic shifts, the 48 cube
symmetries (W permuted and sign-flipped exactly) and the complement
k -> m - k.  On either route a depth-p image's V is h^3 (sum k) / m, an exact
integer sum divided once, so it too is the same in any voxel order; a
continuous image's V is the float sum of its values.  Inputs of _BINS or more
classes (3 (K m)^2 + 1), and all others, take the float route: the filtered
field, a first pass for max |d|^2 and a second for |d| and the outer products.
On either route the W sum carries a power-of-two scale 2^k, by one rule, that
keeps its weights out of the subnormal range; the QNT is normalized before that
scale is taken back off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .filters import Kernel, fft_convolve, route
from .gradient import SLAB, cross, differences
from .voxelgrid import VoxelGrid, color_steps

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
# the integer route's bound on its 3 (K m)^2 + 1 classes q = |d|^2: below it, its
# histogram beats the float route on packed balls and ties on uniform noise
_BINS = 2**17


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
    (all-solid, all-void or all-0.5).  ``interface_voxels`` counts the voxels
    of nonzero gradient; after an FFT filter that count includes the round-off
    floor, nearly every voxel (6.77 M of 7.08 M for a Gaussian 1.2 on a 192^3
    packing of balls), so it is a trust figure on the other routes only.
    ``gmax`` is the largest |g| (per um), and ``route`` the way the sums were
    taken: "integer", or the filter's route ("identity", "direct" or "fft").
    """

    volume: float
    surface_area: float
    normal_tensor: SymTensor3
    qnt: SymTensor3 | None
    beta: float | None
    interface_voxels: int
    gmax: float
    route: str


def _weights(norms: np.ndarray, eps_rel: float, top: float):
    """The weights 2^k / (|d| + eps_rel max|d|) of W's sum, for ``norms`` |d| > 0 and
    ``top`` = max|d|, and k.  With 2^-k eps_rel top in [1/4, 1) where that is at least
    1, they stay normal for any eps_rel; eps_rel top itself may exceed the float range."""
    k = max(0, math.frexp(eps_rel)[1] + math.frexp(top)[1])
    return 1.0 / (np.ldexp(norms, -k) + math.ldexp(eps_rel, -k) * top), k


def _float_sums(image: VoxelGrid, kernel: Kernel, scheme: str, eps_rel: float):
    """The lattice sums of ``_integer_sums`` from the differences d of the filtered
    image, with c = div, over x-slabs in two passes: max |d|^2, then |d| and the
    weighted outer products."""
    f = None if kernel is None else fft_convolve(image, kernel)
    m = image.depth and color_steps(image.depth)  # None for a continuous image

    def slab(v, x0, x1):  # d, |d|^2 and div of x-layers x0:x1 of v
        d, div = differences(v, x0, x1, scheme)
        d = d.reshape(3, -1)
        return d, np.einsum("ij,ij->j", d, d), div

    def slabs():  # no filter: the image's slabs with their halo, no grid of values
        if f is None:
            return (slab(s / m if m else s, 1, len(s) - 1) for _, _, s in image.slabs(1))
        return (slab(f, x0, x0 + SLAB) for x0 in range(0, len(f), SLAB))

    top = math.sqrt(max(float(sq.max()) for _, sq, _ in slabs()))  # bitwise max |d|
    total, count, w = 0.0, 0, np.zeros(6)
    for d, norms, div in slabs():
        total += float(np.sqrt(norms, out=norms).sum())
        keep = norms > 0.0
        count += int(np.count_nonzero(keep))
        # the weighted sum is d sqrt(w) times its transpose, by six dot products
        # (BLAS ddot), about 6x faster than d @ d.T on a slab of 4 x 192^2 voxels
        d = np.compress(keep, d, axis=1)
        # rebound to norms: weights held beside them into the next slab's differences
        # raised the peak of a Gaussian analyze at 192^3 by 1.2 MB
        norms, k = _weights(np.compress(keep, norms), eps_rel, top)
        d *= np.sqrt(norms, out=norms)
        for slot, (i, j) in enumerate(COMPONENTS):
            w[slot] += d[i] @ d[j]
    return total, w, k, count, top, div


def _integer_sums(image: VoxelGrid, points: int, scheme: str, eps_rel: float):
    """(sum |d|, 2^k sum d d^T / (|d| + eps_rel max|d|) in COMPONENTS order, k,
    interface voxels, max|d|, c) in lattice units, the gradient being d / (c h), from
    the class histogram of a depth-p image: d is the integer vector of differences of
    N (the color index, or its sum over the cross of 7 points), c = K m div.  One
    pass over x-slabs fills, per class q = |d|^2, the voxel count and the six sums
    M[q] of d_i d_j in COMPONENTS order, over 3 (K m)^2 + 1 classes; class 0, the
    voxels without gradient, stays empty.  Then

        sum |d| = sum_q count[q] sqrt q,   sum_q M[q] 2^k / (sqrt q + eps_rel sqrt(max q)),

    each a correctly rounded sum (math.fsum) over the classes."""
    m = color_steps(image.depth)
    bins = 3 * (points * m) ** 2 + 1
    counts, sums = np.zeros(bins, np.int64), np.zeros((6, bins))
    for _, _, s in image.slabs(1 + (points == 7)):  # no grid of indices
        n = s if points == 1 else cross(s)  # N, with a halo of one layer
        d, div = differences(n, 1, len(n) - 1, scheme)
        d = d.reshape(3, -1)
        d = np.compress(d.any(axis=0), d, axis=1)
        sq = np.square(d, dtype=np.intp)
        q = sq.sum(axis=0)
        part = np.bincount(q)  # as long as the slab's largest q needs
        counts[:len(part)] += part
        # float64 sums of integers below 2^53 are exact: a class sum is below V q, and
        # q < _BINS, so for any grid of V < 2^36 (6.9e10) voxels
        for slot, (i, j) in enumerate(COMPONENTS):
            if slot != 2:
                weights = sq[i] if i == j else np.multiply(d[i], d[j], dtype=np.float64)
                part = np.bincount(q, weights)
                sums[slot, :len(part)] += part
    sums[2] = np.arange(bins) * counts - sums[0] - sums[1]  # d_z^2 = q - d_x^2 - d_y^2
    q = np.flatnonzero(counts)  # the classes present, ascending
    root = np.sqrt(q)
    top = math.sqrt(q[-1]) if q.size else 0.0
    weights, k = _weights(root, eps_rel, top)
    w = np.array([math.fsum(sums[slot, q] * weights) for slot in range(6)])
    return math.fsum(counts[q] * root), w, k, int(counts.sum()), top, points * m * div


def analyze(
    image: VoxelGrid,
    kernel: Kernel = None,
    scheme: str = "central",
    eps_rel: float = DEFAULT_EPS_REL,
) -> MinkowskiSummary:
    """Volume, surface area, interface tensor, QNT and anisotropy of one image.

    The volume is taken from the unfiltered image, for a depth-p image as
    h^3 (sum k) / m of its color indices, exactly summed.  S and W come from the
    gradient g of ``image`` filtered by ``kernel``, with eps = ``eps_rel``
    (its range checked before the filter runs) times max |g|; voxels with zero gradient
    are skipped, so an image without interfaces yields S = 0, W = 0 and is
    degenerate.  A router: a depth-p image with no kernel or a support of 1 or
    7 equal-weight points takes the integer route (below _BINS classes), any
    other image the float route.
    """
    if not 0 <= eps_rel < np.inf:
        raise ValueError(f"eps_rel must be non-negative and finite, got {eps_rel}")
    # the support decides, as in fft_convolve: N / (K m) for K = 1 or 7 points of one weight
    way, box = route(kernel, image.dims, image.spacing)
    points = int(np.count_nonzero(box)) if np.ptp(box[box != 0]) == 0 else None
    if image.depth and points in (1, 7) and 3 * (points * color_steps(image.depth))**2 < _BINS:
        way = "integer"
        total, sums, k, count, top, c = _integer_sums(image, points, scheme, eps_rel)
    else:
        kernel = None if way == "identity" else kernel  # no whole-grid field of the values
        total, sums, k, count, top, c = _float_sums(image, kernel, scheme, eps_rel)
    h = image.spacing
    gmax = top / c / h
    if not math.isfinite(eps_rel * gmax):
        raise ValueError(f"eps_rel * max|g| = {eps_rel} * {gmax} overflows; lower eps_rel")
    mat = sums[FULL].reshape(3, 3)
    w = np.ldexp(mat / (3 * c) * (h * h), -k)
    # an interface voxel implies tr W > 0 in exact arithmetic; a subnormal tr W of fewer
    # than 2^40 steps of 2^-1074 has lost the 1e-12 precision of the exact identities
    if count > 0 and not np.trace(w) >= 2.0**-1034:
        raise NumericalError("the interface tensor underflowed; lower eps_rel")
    q = beta = None
    if count > 0:  # from the lattice sums: the same at any h, and unrounded by a subnormal W
        q = SymTensor3(unit_trace(mat))
        beta = eigenvalue_ratio(q)
    # a depth-p V: one int64 sum of indices below 2^24, exact below 2^39 voxels, divided once
    volume = (int(image.index.sum(dtype=np.int64)) / color_steps(image.depth) if image.depth
              else float(image.values.sum()))
    return MinkowskiSummary(volume=volume * h**3, surface_area=total / c * (h * h),
                            normal_tensor=SymTensor3(w), qnt=q, beta=beta,
                            interface_voxels=count, gmax=gmax, route=way)
