"""Shared image builders and lattice tools for the test suite.

Expensive voxelizations are cached so the property tests and the acceptance
tests can reuse the same grids.  All builders are deterministic.  The
quantization, periodic shifts and cube symmetries are what the invariance and
equivariance tests apply to the grids.
"""

import itertools
from functools import lru_cache

import numpy as np

from minkvox import (
    Ball,
    Cylinder,
    ShapeUnion,
    VoxelGrid,
    color_steps,
    voxelize,
)
from minkvox.filters import _box_samples, _transfer_block, kernel_transfer

# Sub-voxel ball displacement, in micrometers.  Breaks all lattice mirror
# symmetries so that discretization errors do not cancel by accident; at
# h = 4 um this is (0.37h, 0.21h, 0.11h).
BALL_SHIFT_UM = (1.48, 0.84, 0.44)


@lru_cache(maxsize=None)
def displaced_ball(res: int, depth: int, box_factor: float = 1.5,
                   diameter: float = 16.0) -> VoxelGrid:
    """Ball of fixed physical diameter at D/h = res, center off the lattice."""
    h = diameter / res
    n = int(round(box_factor * res))
    dims = (n, n, n)
    center = tuple(n * h / 2 + d for d in BALL_SHIFT_UM)
    shape = Ball(center=center, radius=diameter / 2)
    return voxelize(shape, dims, h, depth)


@lru_cache(maxsize=None)
def single_voxel(n: int = 8, h: float = 1.0, at: tuple = (3, 4, 2)) -> VoxelGrid:
    vals = np.zeros((n, n, n))
    vals[at] = 1.0
    return VoxelGrid(vals, spacing=h, depth=1)


@lru_cache(maxsize=None)
def binary_laminate(axis: int = 0, n: int = 24, h: float = 1.0,
                    lo: int = 6, hi: int = 14) -> VoxelGrid:
    """One solid slab [lo*h, hi*h) along the given axis, periodic elsewhere."""
    vals = np.zeros((n, n, n))
    idx = [slice(None)] * 3
    idx[axis] = slice(lo, hi)
    vals[tuple(idx)] = 1.0
    return VoxelGrid(vals, spacing=h, depth=1)


@lru_cache(maxsize=None)
def centered_cylinder(aspect: float = 10.0, res: int = 12, depth: int = 3,
                      diameter: float = 12.0) -> VoxelGrid:
    """Axis-aligned capped cylinder, box-centered, axis e_x."""
    h = diameter / res
    L = aspect * diameter
    dims = (int(round((aspect + 1) * res)), 2 * res, 2 * res)
    center = tuple(d * h / 2 for d in dims)
    shape = Cylinder(center=center, axis=(1.0, 0.0, 0.0),
                     length=L, diameter=diameter)
    return voxelize(shape, dims, h, depth)


# Unidirectional array: 20 parallel fibers (4 x 5 square grid), axis e_x,
# L/D = 25 at D/h = 8.  Pitch 13 leaves a 5-voxel gap between surfaces.
FIBER_ARRAY_DIMS = (216, 52, 65)
FIBER_ARRAY_D = 8.0
FIBER_ARRAY_L = 200.0


@lru_cache(maxsize=None)
def fiber_array(depth: int = 2) -> VoxelGrid:
    h = 1.0
    fibers = []
    for j in range(4):
        for k in range(5):
            center = (FIBER_ARRAY_DIMS[0] * h / 2,
                      13.0 * (j + 0.5), 13.0 * (k + 0.5))
            fibers.append(Cylinder(center=center, axis=(1.0, 0.0, 0.0),
                                   length=FIBER_ARRAY_L,
                                   diameter=FIBER_ARRAY_D))
    return voxelize(ShapeUnion(tuple(fibers)), FIBER_ARRAY_DIMS, h, depth)


def fiber_lattice_64() -> ShapeUnion:
    """16 slightly tilted fibers (D = 5, L = 40) on a 4 x 4 lattice in a 64^3
    box at h = 1; they fill about 5 % of it, so most voxels lie outside every
    fiber's bounding box."""
    fibers = []
    for j in range(4):
        for k in range(4):
            axis = np.array([1.0, 0.05 * (j - 1.5), 0.04 * (k - 1.5)])
            fibers.append(Cylinder(center=(32.0, 16.0 * j + 8.0, 16.0 * k + 8.0),
                                   axis=tuple(axis / np.linalg.norm(axis)),
                                   length=40.0, diameter=5.0))
    return ShapeUnion(tuple(fibers))


@lru_cache(maxsize=None)
def axis_triple_fibers(depth: int = 2) -> VoxelGrid:
    """Three orthogonal fibers of equal size, mutually disjoint."""
    h = 1.0
    n = 48
    L, D = 32.0, 6.0
    shapes = (
        Cylinder(center=(24.0, 10.0, 10.0), axis=(1.0, 0.0, 0.0), length=L, diameter=D),
        Cylinder(center=(10.0, 24.0, 38.0), axis=(0.0, 1.0, 0.0), length=L, diameter=D),
        Cylinder(center=(38.0, 38.0, 24.0), axis=(0.0, 0.0, 1.0), length=L, diameter=D),
    )
    return voxelize(ShapeUnion(shapes), (n, n, n), h, depth)


def random_grid(rng: np.random.Generator, dims=(12, 12, 12), h: float = 1.0,
                depth=None) -> VoxelGrid:
    """Uniform random gray values, optionally snapped to a color set."""
    g = VoxelGrid(rng.random(dims), spacing=h, depth=None)
    if depth is not None:
        return quantize(g, depth)
    return g


def roll_gradient(vals: np.ndarray, h: float, scheme: str) -> np.ndarray:
    """Whole-grid reference gradient, shape vals.shape + (3,), from np.roll copies."""
    out = np.empty(vals.shape + (3,))
    for i in range(3):
        up, down = np.roll(vals, -1, axis=i), np.roll(vals, 1, axis=i)
        if scheme == "central":
            out[..., i] = (up - down) / (2 * h)
        elif scheme == "forward":
            out[..., i] = (up - vals) / h
        else:
            out[..., i] = (vals - down) / h
    return out


def sampled_kernel(kernel, dims, h: float) -> np.ndarray:
    """The normalized kernel samples scattered into a zero grid, peak at index (0, 0, 0)."""
    box, index = _box_samples(kernel, dims, h)
    vals = np.zeros(tuple(int(n) for n in dims))
    vals[np.ix_(*index)] = box
    return vals


def whole_transfer(kernel, dims, h: float) -> np.ndarray:
    """The whole-grid transfer of a kernel: the block builder's one block of ny y-rows."""
    return _transfer_block(kernel_transfer(kernel, dims, h), dims[0], slice(0, dims[1]))


def color_set(depth: int) -> np.ndarray:
    """All admissible gray values of a depth-p image, ascending."""
    m = color_steps(depth)
    return np.arange(m + 1) / m


def quantize(grid: VoxelGrid, depth: int) -> VoxelGrid:
    """Snap each gray value to the nearest member of the depth-p color set.

    Ties round toward the larger value.  Idempotent for matching depth.
    """
    m = color_steps(depth)
    vals = np.floor(grid.values * m + 0.5) / m
    return VoxelGrid(vals, grid.spacing, depth=depth)


def shift(grid: VoxelGrid, offset) -> VoxelGrid:
    """Translate the image periodically by a whole number of voxels per axis."""
    off = tuple(int(o) for o in offset)
    if len(off) != 3:
        raise ValueError(f"offset must have three components, got {offset}")
    vals = np.roll(grid.values, off, axis=(0, 1, 2))
    return VoxelGrid(vals, grid.spacing, grid.depth)


# ---------------------------------------------------------------------------
# lattice symmetries

def cube_symmetries():
    """All 48 axis-aligned symmetries of a cubic grid.

    Yields pairs ``(R, apply)`` where ``R`` is the orthogonal 3x3 matrix and
    ``apply`` maps a cubic value array onto its transformed copy.  The pair is
    consistent in the sense that voxel-center coordinates relative to the box
    center transform with ``R`` when the array is transformed with ``apply``.
    """
    for perm in itertools.permutations(range(3)):
        for flips in itertools.product((False, True), repeat=3):
            mat = np.zeros((3, 3))
            for k in range(3):
                mat[k, perm[k]] = -1.0 if flips[k] else 1.0

            def apply(arr, perm=perm, flips=flips):
                out = np.transpose(arr, perm + tuple(range(3, arr.ndim)))
                ax = tuple(i for i, f in enumerate(flips) if f)
                return np.flip(out, axis=ax).copy() if ax else out.copy()

            yield mat, apply
