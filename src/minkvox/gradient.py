"""Periodic finite differences and 7-point sums over x-slabs of a field, in lattice units.

``differences`` returns f(x + up e_i) - f(x + down e_i), undivided, and the
scheme's divisor div in voxels; ``cross`` sums f over a voxel and its six faces.
The gradient at spacing h is the differences over div * h: ``minkowski.analyze``
applies that scale once, to its sums, and the fiber orientation, which no scale
changes, never does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SCHEMES", "SLAB", "cross", "differences", "wrap_pieces"]

SLAB = 4  # x-layers per slab of VoxelGrid.slabs and of differences calls; bounds temporaries
# per scheme: f(x + up) - f(x + down) and div, offsets in voxels along the axis
_STENCILS = {"central": (1, -1, 2), "forward": (1, 0, 1), "backward": (0, -1, 1)}
SCHEMES = tuple(_STENCILS)


class VectorField:
    """A bare name: the benchmark's tracer imports it and skips its missing ``norms``."""


def differences(f: np.ndarray, x0: int, x1: int, scheme: str) -> tuple[np.ndarray, int]:
    """Undivided differences, shape (3, len(f[x0:x1]), ny, nz) in f's dtype, of x-layers
    x0:x1 of the periodic array f, and the scheme's divisor in voxels.

    ``central`` takes f(x + e_i) - f(x - e_i) with divisor 2, ``forward`` and
    ``backward`` the one-sided differences with divisor 1.  Neighbors across
    the boundary are read by slicing f in place, bitwise as the difference of
    np.roll copies.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    up, down, div = _STENCILS[scheme]
    slab = f[x0:x1]
    out = np.empty((3,) + slab.shape, f.dtype)
    for axis, (src, lo) in enumerate(((f, x0), (slab, 0), (slab, 0))):
        src, dst = np.moveaxis(src, axis, 0), np.moveaxis(out[axis], axis, 0)  # axis first
        for piece, (i, j) in wrap_pieces(len(src), lo, lo + len(dst), up, down):
            np.subtract(src[i], src[j], out=dst[piece])
    return out, div


def cross(f: np.ndarray, ratio: float = 1.0) -> np.ndarray:
    """f(x) + ratio sum_i (f(x + e_i) + f(x - e_i)) over the x-layers f[1:-1], whose x
    neighbors are the layers beside them, read periodically in y and z as ``differences``
    reads: the faces are added in one order for every voxel, in f's dtype (exact for
    integers), and scaled once where the ratio is not 1."""
    slab = f[1:-1]
    faces = np.add(f[:-2], f[2:])
    for axis in (1, 2):
        src, dst = np.moveaxis(slab, axis, 0), np.moveaxis(faces, axis, 0)
        for piece, reads in wrap_pieces(len(src), 0, len(src), 1, -1):
            for r in reads:
                dst[piece] += src[r]
    faces = faces * ratio if ratio != 1 else faces
    return np.add(faces, slab, out=faces)


def wrap_pieces(n: int, lo: int, hi: int, *shifts: int):
    """The periodic shifted read: split lo:hi (at most n long) of a periodic axis of
    length n into pieces over which index + d wraps for no d in ``shifts``.  Yields
    ``(piece, reads)``: the piece counted from lo, and per shift the slice it reads."""
    cuts = sorted({lo, hi} | {c for c in (-d % n for d in shifts) if lo < c < hi})
    for a, b in zip(cuts, cuts[1:]):
        yield slice(a - lo, b - lo), [slice((a + d) % n, (a + d) % n + b - a) for d in shifts]
