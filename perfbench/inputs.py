"""Seeded benchmark inputs: ball packings, fiber systems and their rasterization.

Every generator draws only from the ``numpy.random.Generator`` it is given,
so the same seed yields the same shapes.  Bodies never overlap and keep a
margin to the box faces, because ``minkvox`` does not wrap shapes across the
periodic boundary and the analytic references assume disjoint bodies.

``rasterize`` evaluates each body only on the fine sub-voxel block under its
bounding box.  For disjoint bodies this gives, bit for bit, what
``minkvox.voxelize`` writes for their union, at a fraction of the cost, which
keeps today's voxelizer out of the benchmark's set-up time.
"""

from __future__ import annotations

import math

import numpy as np

from minkvox import Ball, Cylinder, color_steps

__all__ = [
    "ball_packing",
    "fiber_lattice",
    "rasterize",
]

PLACEMENT_TRIES = 20000


def ball_packing(rng, n: int, volume_fraction: float, r_min: float, r_max: float,
                 gap: float, margin: float) -> list[Ball]:
    """Random sequential packing of disjoint balls in the box [0, n]^3 (h = 1).

    Radii are drawn uniformly from [r_min, r_max] until their total volume
    reaches ``volume_fraction`` of the box, then placed largest first.  Two
    surfaces stay at least ``gap`` apart and every ball at least ``margin``
    from the box faces.
    """
    target = volume_fraction * n**3
    radii, total = [], 0.0
    while total < target:
        r = float(rng.uniform(r_min, r_max))
        radii.append(r)
        total += 4.0 * math.pi * r**3 / 3.0
    radii.sort(reverse=True)

    centers = np.empty((0, 3))
    placed = np.empty(0)
    for r in radii:
        for _ in range(PLACEMENT_TRIES):
            c = rng.uniform(r + margin, n - r - margin, size=3)
            dist = np.sqrt(((centers - c) ** 2).sum(axis=1))
            if (dist >= placed + r + gap).all():
                centers = np.vstack([centers, c])
                placed = np.append(placed, r)
                break
        else:
            raise RuntimeError(f"could not place ball {len(placed)} of {len(radii)}")
    return [Ball(tuple(float(v) for v in c), float(r)) for c, r in zip(centers, placed)]


def fiber_lattice(rng, n: int, cells, diameter: float, length: float,
                  spread: float, margin: float) -> list[Cylinder]:
    """One capped cylinder in each cell of a ``cells`` grid over the box [0, n]^3 (h = 1).

    Axes scatter around e_x: each is ``e_x + spread * N(0, I)``, normalized,
    redrawn until the fiber fits into its cell.  The center is uniform over
    the positions that keep the fiber's bounding box ``margin / 2`` inside
    the cell, so fibers stay ``margin`` apart, also across the periodic
    boundary.  One fiber per cell keeps the spacing of the fibers, and with
    it the work and the accuracy of an orientation estimate, alike across
    seeds.
    """
    size = n / np.asarray(cells, dtype=float)
    fibers = []
    for cell in np.ndindex(*cells):
        lo = np.asarray(cell) * size
        while True:
            v = np.array([1.0, 0.0, 0.0]) + spread * rng.standard_normal(3)
            axis = v / np.linalg.norm(v)
            if axis[0] < 0:
                axis = -axis
            ext = (length / 2) * np.abs(axis) + (diameter / 2) * np.sqrt(
                np.clip(1.0 - axis**2, 0.0, None))
            if (2 * ext + margin < size).all():
                break
        center = rng.uniform(lo + ext + margin / 2, lo + size - ext - margin / 2)
        fibers.append(Cylinder(tuple(float(x) for x in center),
                               tuple(float(x) for x in axis), length, diameter))
    return fibers


def rasterize(shapes, dims, spacing: float, depth: int) -> np.ndarray:
    """Depth-p gray values of a union of disjoint shapes.

    Uses the sample points, the ``contains`` tests and the rounding of
    ``minkvox.voxelize``, so the result equals ``voxelize(ShapeUnion(shapes),
    dims, spacing, depth).values`` bit for bit when the shapes are disjoint.
    Raises ValueError when overlapping shapes push a voxel past full.
    """
    p = depth
    fine = spacing / p
    coords = [(np.arange(n * p) + 0.5) * fine for n in dims]
    counts = np.zeros(dims, dtype=np.int32)
    for shape in shapes:
        lo, hi = shape.bounds()
        box = []
        for k in range(3):
            c0 = max(0, int(math.floor(lo[k] / spacing)) - 1)
            c1 = min(dims[k], int(math.ceil(hi[k] / spacing)) + 1)
            box.append((c0, c1))
        (x0, x1), (y0, y1), (z0, z1) = box
        if x1 <= x0 or y1 <= y0 or z1 <= z0:
            continue
        inside = shape.contains(
            coords[0][x0 * p : x1 * p, None, None],
            coords[1][None, y0 * p : y1 * p, None],
            coords[2][None, None, z0 * p : z1 * p],
        )
        counts[x0:x1, y0:y1, z0:z1] += inside.reshape(
            x1 - x0, p, y1 - y0, p, z1 - z0, p).sum(axis=(1, 3, 5), dtype=np.int32)
    if counts.max() > p**3:
        raise ValueError("shapes overlap; the union needs disjoint shapes")
    m = color_steps(p)
    return np.floor(counts / p**3 * m + 0.5) / m
