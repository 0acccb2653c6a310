"""Periodic gray-value voxel grids, analytic shapes, and sub-voxel voxelization."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .gradient import SLAB

__all__ = [
    "VoxelGrid",
    "ValueCheck",
    "Ball",
    "Cylinder",
    "Laminate",
    "ShapeUnion",
    "color_steps",
    "shape_in_box",
    "voxelize",
    "check_cylinder",
    "check_spacing",
    "SPACING_RANGE_UM",
]

# voxel edge lengths (um) for which h^3, h^-3 and the estimator sums stay far
# from float overflow and underflow
SPACING_RANGE_UM = (1e-20, 1e20)


def check_spacing(spacing: float) -> None:
    """Raise ValueError unless ``SPACING_RANGE_UM`` holds the spacing (NaN never)."""
    lo, hi = SPACING_RANGE_UM
    if not lo <= spacing <= hi:
        raise ValueError(f"spacing must lie in [{lo:g}, {hi:g}] um, got {spacing}")


def color_steps(depth: int) -> int:
    """Number of gray-value steps of a depth-p image: 1 for binary, p^3 - 1 otherwise.
    From 2^53 steps on, the colors k / m are no longer distinct doubles."""
    if depth < 1 or depth**3 > 2**53:
        raise ValueError(f"depth must lie in [1, 208063] (p^3 - 1 < 2^53), got {depth}")
    return 1 if depth == 1 else depth**3 - 1


class ValueCheck:
    """The one check of gray values, layer by layer: a call takes one layer and, for
    a depth p, writes its color indices k = rint(m v) to ``out``; ``raise_`` raises
    ValueError for a value outside [0, 1] (NaN too) anywhere before one off the
    colors, whose float32 images pass, as one check of the whole grid would."""

    def __init__(self, depth: int | None):
        self.depth, self.m = depth, depth and color_steps(depth)
        self.lo, self.hi, self.off = np.float64(np.inf), np.float64(-np.inf), False

    def __call__(self, v: np.ndarray, out: np.ndarray | None = None) -> None:
        self.lo, self.hi = np.minimum(self.lo, v.min()), np.maximum(self.hi, v.max())
        # negated, so that NaN, which fails every comparison, is out of range
        if self.depth is None or not (self.lo >= 0.0 and self.hi <= 1.0):
            return
        s = np.multiply(v, self.m, dtype=np.float64)
        out[...] = np.rint(s, out=s)
        s /= self.m
        i = np.flatnonzero(s != v)
        self.off |= not np.array_equal(s.take(i).astype(np.float32), v.take(i))

    def raise_(self) -> None:
        if not (self.lo >= 0.0 and self.hi <= 1.0):
            raise ValueError(f"gray values must lie in [0, 1], got range [{self.lo}, {self.hi}]")
        if self.off:
            raise ValueError(f"values are not members of the depth-{self.depth} color set")


@dataclass(frozen=True, init=False)
class VoxelGrid:
    """Scalar gray values on a periodic regular grid.

    ``values[ix, iy, iz]`` is the gray value of the voxel centered at
    ``((ix + 0.5) h, (iy + 0.5) h, (iz + 0.5) h)`` with ``h = spacing``.
    All operations treat the grid as periodic in every direction.  On disk
    the values are linearized x-fastest (Fortran ravel of this layout); see
    :mod:`minkvox.volio`.

    ``depth=None`` marks a continuous gray-value range in [0, 1], stored as the
    grid's read-only C float64 ``values``; ``index`` is None.  ``depth=p`` allows
    only the colors k/m, m = color_steps(p) ({0, 1} for p = 1, multiples of
    1/(p^3 - 1) otherwise), and the grid stores only ``index``, the read-only C
    array of the k in np.min_scalar_type(m): 1 B/voxel up to depth 6, 2 up to
    depth 40.  Its ``values``, index / m, are made anew on each read (8 B/voxel);
    the program reads ``index`` or ``slabs``.  Grids are frozen and can be shared
    freely.  A caller's array is never written or frozen: depth-p values, or their
    float32 images, are checked into the index by x-layers, continuous ones copied
    once.
    """

    _data: np.ndarray
    spacing: float
    depth: int | None = None

    def __init__(self, values, spacing: float, depth: int | None = None):
        self.__dict__.update(_data=values, spacing=spacing, depth=depth)
        self.__post_init__()

    def __post_init__(self):
        vals = np.asarray(self._data)
        if vals.ndim != 3:
            raise ValueError(f"expected a 3D value array, got ndim={vals.ndim}")
        if min(vals.shape) < 2:
            raise ValueError(f"grid dims must all be >= 2, got {vals.shape}")
        check_spacing(self.spacing)
        check = ValueCheck(self.depth)
        if self.depth is None:  # the one copy
            data = vals = np.array(vals, dtype=np.float64, order="C")
        else:
            data = np.empty(vals.shape, np.min_scalar_type(check.m))
        for v, k in zip(vals, data):
            check(v, k)
        check.raise_()
        data.setflags(write=False)
        object.__setattr__(self, "_data", data)

    @classmethod
    def owning(cls, data: np.ndarray, spacing: float, depth: int | None) -> VoxelGrid:
        """The grid of ``data``, a checked C index (depth p) or C float64 values
        (continuous) that its producer made for this grid alone."""
        grid = cls.__new__(cls)
        grid.__dict__.update(_data=data, spacing=spacing, depth=depth)
        data.setflags(write=False)
        return grid

    @property
    def index(self) -> np.ndarray | None:
        return None if self.depth is None else self._data

    @property
    def dims(self) -> tuple[int, int, int]:
        return self._data.shape

    def slabs(self, halo: int):
        """Yield ``(x0, x1, s)`` over the x-slabs x0:x1 of gradient.SLAB layers: ``s``
        holds layers x0 - halo to x1 + halo of the stored numbers, read periodically,
        each converted once, a depth-p grid's color indices to np.min_scalar_type(-7 m),
        which holds 7-point sums and their differences, a continuous grid's values read
        in place where the layers lie in the grid."""
        data, depth, nx = self._data, self.depth, len(self._data)
        dtype = np.float64 if depth is None else np.min_scalar_type(-7 * color_steps(depth))
        for x0 in range(0, nx, SLAB):
            x1 = min(x0 + SLAB, nx)
            lo, hi = x0 - halo, x1 + halo
            s = data[lo:hi] if 0 <= lo and hi <= nx else data.take(range(lo, hi), 0, mode="wrap")
            yield x0, x1, s.astype(dtype, copy=False)

    @property
    def values(self) -> np.ndarray:
        """The gray values, read-only C float64; new for a depth-p grid on each read."""
        if self.depth is None:
            return self._data
        vals = self._data / color_steps(self.depth)
        vals.setflags(write=False)
        return vals


# ---------------------------------------------------------------------------
# analytic shapes

@dataclass(frozen=True)
class Ball:
    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        if not np.isfinite(self.center).all():  # shape_in_box passes non-finite bounds
            raise ValueError(f"ball center {list(map(float, self.center))} is not finite")
        if not 0 < self.radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    def contains(self, x, y, z):
        cx, cy, cz = self.center
        r2 = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
        return r2 <= self.radius**2

    def bounds(self):
        c = np.asarray(self.center, dtype=float)
        r = self.radius
        return c - r, c + r


def check_cylinder(kind: str, axis, length: float, diameter: float) -> None:
    """Raise ValueError, naming the ``kind`` of body, unless length and diameter
    are positive and finite (infinite ones make NaN bounds) and the axis is a
    unit vector; the negated test rejects a NaN axis too."""
    if not (0 < length < np.inf and 0 < diameter < np.inf):
        raise ValueError(f"{kind} length and diameter must be positive and finite")
    n = float(np.linalg.norm(axis))
    if not abs(n - 1.0) <= 1e-12:
        raise ValueError(f"{kind} axis must be a unit vector, |axis| = {n}")


@dataclass(frozen=True)
class Cylinder:
    """Flat-capped solid cylinder given by center, unit axis, length and diameter."""

    center: tuple[float, float, float]
    axis: tuple[float, float, float]
    length: float
    diameter: float

    def __post_init__(self):
        if not np.isfinite(self.center).all():  # as for Ball
            raise ValueError(f"cylinder center {list(map(float, self.center))} is not finite")
        check_cylinder("cylinder", self.axis, self.length, self.diameter)

    def contains(self, x, y, z):
        cx, cy, cz = self.center
        ax, ay, az = self.axis
        dx, dy, dz = x - cx, y - cy, z - cz
        t = dx * ax + dy * ay + dz * az
        rad2 = dx**2 + dy**2 + dz**2 - t**2
        return (np.abs(t) <= self.length / 2) & (rad2 <= (self.diameter / 2) ** 2)

    def bounds(self):
        c = np.asarray(self.center, dtype=float)
        a = np.asarray(self.axis, dtype=float)
        # exact axis-aligned extent of a capped cylinder
        ext = (self.length / 2) * np.abs(a) + (self.diameter / 2) * np.sqrt(
            np.clip(1.0 - a**2, 0.0, None)
        )
        return c - ext, c + ext


@dataclass(frozen=True)
class Laminate:
    """Slabs perpendicular to one coordinate axis; solid inside the closed intervals."""

    axis: int
    slabs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError(f"laminate axis must be 0, 1 or 2, got {self.axis}")
        for lo, hi in self.slabs:
            if not lo < hi:
                raise ValueError(f"slab interval must satisfy lo < hi, got ({lo}, {hi})")

    def contains(self, x, y, z):
        coord = (x, y, z)[self.axis]
        out = np.zeros(np.broadcast(x, y, z).shape, dtype=bool)
        for lo, hi in self.slabs:
            out |= (coord >= lo) & (coord <= hi)
        return out

    def bounds(self):
        lo = np.full(3, -np.inf)
        hi = np.full(3, np.inf)
        lo[self.axis] = min(s[0] for s in self.slabs)
        hi[self.axis] = max(s[1] for s in self.slabs)
        return lo, hi


@dataclass(frozen=True)
class ShapeUnion:
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("union needs at least one member shape")

    def contains(self, x, y, z):
        out = np.zeros(np.broadcast(x, y, z).shape, dtype=bool)
        for m in self.members:
            out |= m.contains(x, y, z)
        return out

    def bounds(self):
        los, his = zip(*(m.bounds() for m in self.members))
        return np.min(los, axis=0), np.max(his, axis=0)


# ---------------------------------------------------------------------------
# voxelization

def voxelize(shape, dims, spacing: float, depth: int = 1) -> VoxelGrid:
    """Rasterize an analytic shape into a periodic gray-value grid.

    Parameters
    ----------
    shape : Ball | Cylinder | Laminate | ShapeUnion
        Body to rasterize.  Only sample points inside the box
        ``[0, dims * spacing]`` are evaluated; shapes are never wrapped
        across the periodic boundary, so keeping the body interior (or
        letting it cover the whole box) is the caller's responsibility.
        Use :func:`shape_in_box` to validate beforehand.  Each member of a
        ``ShapeUnion`` (a plain shape is its only member) is evaluated only
        under its bounding box padded by one voxel, and the members are
        OR-ed, so they may overlap.
    dims : tuple of int
        Grid dimensions (nx, ny, nz).
    spacing : float
        Voxel edge length h, within ``SPACING_RANGE_UM``.
    depth : int
        Gray-value depth p.  For p = 1 a voxel is solid iff its center lies
        inside the shape (boundary counts as inside).  For p > 1 the solid
        sub-voxel centers are counted under the member boxes only, and each
        count out of p^3 is snapped to the depth-p color set by a table.

    Returns
    -------
    VoxelGrid with ``depth=p``.  The fine sample block is built in z-chunks
    of at most nx ny nz booleans (or one voxel layer, if larger), which bounds
    the memory beyond the output to about 1 B/voxel.  A voxel layer of more
    than 2^26 samples, nx ny p^3, raises ValueError before anything is allocated.
    """
    dims = tuple(int(n) for n in dims)
    if len(dims) != 3 or min(dims) < 2:
        raise ValueError(f"dims must be three integers >= 2, got {dims}")
    check_spacing(spacing)
    m = color_steps(depth)

    p = depth
    nx, ny, nz = dims
    layer = nx * ny * p**3  # sub-samples in one voxel layer, the smallest z-chunk
    if layer > 1 << 26:  # its shape tests take 8-32 B per sample
        count = Decimal(layer)  # beyond the float range for absurd dims
        raise ValueError(f"depth {p} needs {count:.3g} sub-samples per voxel layer, above 2^26")
    fine = spacing / p
    coords = [(np.arange(n * p) + 0.5) * fine for n in dims]
    boxes = []
    for member in shape.members if isinstance(shape, ShapeUnion) else (shape,):
        lo, hi = member.bounds()
        # voxels under the bounds, padded by one against rounding; fmax and
        # fmin send infinite and NaN bounds to the whole axis
        first = np.minimum(np.fmax(np.floor(lo / spacing) - 1, 0), dims).astype(int)
        last = np.maximum(np.fmin(np.ceil(hi / spacing) + 1, dims), 0).astype(int)
        if (first < last).all():
            boxes.append((member, first, last))

    # solid sub-samples per voxel; outside every box the block is all False
    counts = np.zeros(dims, dtype=np.min_scalar_type(p**3))
    # chunk along z so that the fine boolean block holds at most one byte per
    # output voxel, or one voxel layer where that is larger
    zstep = max(layer, nx * ny * nz) // layer
    for z0 in range(0, nz, zstep):
        z1 = min(z0 + zstep, nz)
        block = np.zeros((nx * p, ny * p, (z1 - z0) * p), dtype=bool)
        for member, (x0, y0, za), (x1, y1, zb) in boxes:
            za, zb = max(za, z0), min(zb, z1)
            if za < zb:
                sub = np.s_[x0 * p : x1 * p, y0 * p : y1 * p, (za - z0) * p : (zb - z0) * p]
                block[sub] |= member.contains(
                    coords[0][sub[0], None, None],
                    coords[1][None, sub[1], None],
                    coords[2][None, None, za * p : zb * p],
                )
                # exact for overlapping members too: the last box over a voxel
                # counts it after every member before it is OR-ed in
                c = block[sub].astype(counts.dtype)
                c = sum(c[i::p] for i in range(p))
                c = sum(c[:, i::p] for i in range(p))
                counts[x0:x1, y0:y1, za:zb] = sum(c[:, :, i::p] for i in range(p))
    del block

    # each count out of p^3 to its color index
    lut = np.floor(np.arange(p**3 + 1) / p**3 * m + 0.5).astype(np.min_scalar_type(m))
    return VoxelGrid.owning(lut[counts], spacing, p)


def shape_in_box(shape, dims, spacing: float) -> bool:
    """Whether the shape's bounding box fits into ``[0, dims * spacing]``."""
    box = np.asarray(dims, dtype=np.float64) * spacing
    lo, hi = shape.bounds()
    tol = 1e-9 * float(box.max())
    finite_lo = np.where(np.isfinite(lo), lo, 0.0)
    finite_hi = np.where(np.isfinite(hi), hi, box)
    return bool((finite_lo >= -tol).all() and (finite_hi <= box + tol).all())
