"""Periodic finite-difference stencil over x-slabs of a gray-value field."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SCHEMES", "stencil"]

SCHEMES = ("central", "forward", "backward")
# per scheme: f(x + up) - f(x + down) over div * h, offsets in voxels along the axis
_STENCILS = {"central": (1, -1, 2), "forward": (1, 0, 1), "backward": (0, -1, 1)}


@dataclass(frozen=True)
class VectorField:  # kept only because perfbench/tracer.py imports it to patch norms
    """Per-voxel 3-vectors on the same periodic lattice as a VoxelGrid."""

    data: np.ndarray  # (nx, ny, nz, 3)
    spacing: float
    scheme: str

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 4 or data.shape[3] != 3:
            raise ValueError(f"expected shape (nx, ny, nz, 3), got {data.shape}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not np.isfinite(data).all():
            raise ValueError("vector field contains non-finite entries")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    def norms(self) -> np.ndarray:
        """Euclidean norm per voxel."""
        return np.sqrt(np.einsum("...i,...i->...", self.data, self.data))


def stencil(f: np.ndarray, x0: int, x1: int, h: float, scheme: str) -> np.ndarray:
    """Gradient, shape (3, x1 - x0, ny, nz), of x-layers x0:x1 of the periodic array f.

    ``central`` uses (f(x + h e_i) - f(x - h e_i)) / 2h, ``forward`` and
    ``backward`` the corresponding one-sided differences.  Neighbors across
    the boundary are read by slicing f in place, bitwise as the difference of
    np.roll copies.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    up, down, div = _STENCILS[scheme]
    slab = f[x0:x1]
    out = np.empty((3,) + slab.shape)
    for axis, (src, lo) in enumerate(((f, x0), (slab, 0), (slab, 0))):
        src, dst = np.moveaxis(src, axis, 0), np.moveaxis(out[axis], axis, 0)  # axis first
        n, hi = len(src), lo + len(dst)
        cuts = sorted({lo, hi} | {c for c in (1, n - 1) if lo < c < hi})  # pieces without wrap
        for a, b in zip(cuts, cuts[1:]):
            i, j = (a + up) % n, (a + down) % n
            np.subtract(src[i:i + b - a], src[j:j + b - a], out=dst[a - lo:b - lo])
        out[axis] /= div * h
    return out
