"""Closed-form reference values: one ``BodyQuantities`` record (V, S, W, QNT) per
ball or cylinder and the tensors of fiber systems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minkowski import SymTensor3, unit_trace
from .voxelgrid import check_cylinder

__all__ = [
    "BodyQuantities",
    "FiberSpec",
    "ball_quantities",
    "cylinder_quantities",
    "fiber_system_tensors",
]


@dataclass(frozen=True)
class BodyQuantities:
    """Volume, surface area, interface tensor W and QNT of a reference body."""

    volume: float
    surface_area: float
    normal_tensor: SymTensor3
    qnt: SymTensor3


def ball_quantities(radius: float) -> BodyQuantities:
    """Exact quantities of a ball: V = 4 pi R^3 / 3, S = 4 pi R^2, W = S/9 * Id."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    r = float(radius)
    surface = 4 * np.pi * r**2
    return BodyQuantities(
        volume=4 * np.pi * r**3 / 3,
        surface_area=surface,
        normal_tensor=SymTensor3(np.eye(3) * (surface / 9)),
        qnt=SymTensor3(np.eye(3) / 3),
    )


@dataclass(frozen=True)
class FiberSpec:
    """Straight flat-capped cylindrical fiber with unit axis p."""

    axis: tuple[float, float, float]
    length: float
    diameter: float

    def __post_init__(self):
        check_cylinder("fiber", self.axis, self.length, self.diameter)


def cylinder_quantities(fiber: FiberSpec) -> BodyQuantities:
    """Exact quantities of a capped cylinder: V = pi (D/2)^2 L, S = pi D L + pi D^2 / 2.

    W = (pi D^2 / 6) [ p p^T + (L/D) (Id - p p^T) ]: the two flat caps, then the
    lateral surface.  The QNT is the bracket over its trace 1 + 2 L/D; its
    eigenvalue ratio D/L (L >= D) makes long thin fibers strongly anisotropic.
    """
    d, length = fiber.diameter, fiber.length
    p = np.asarray(fiber.axis, dtype=np.float64)
    pp = np.outer(p, p)
    shape = pp + length / d * (np.eye(3) - pp)
    return BodyQuantities(
        volume=np.pi * (d / 2) ** 2 * length,
        surface_area=np.pi * d * length + np.pi * d**2 / 2,
        normal_tensor=SymTensor3(np.pi * d**2 / 6 * shape),
        qnt=SymTensor3(unit_trace(shape)),
    )


def fiber_system_tensors(fibers) -> tuple[SymTensor3, SymTensor3, SymTensor3]:
    """Orientation and interface tensors of a straight-fiber system.

    Returns ``(A, W, qnt)`` with the orientation average A = <p p^T>, the
    summed interface tensor W = sum_i W(fiber_i) and its unit-trace
    normalization.  Fibers are summed in a canonical order, so the result is
    exactly invariant under input permutations.
    """
    fibers = list(fibers)
    if not fibers:
        raise ValueError("fiber system must contain at least one fiber")
    fibers.sort(key=lambda f: (tuple(f.axis), f.length, f.diameter))

    a_mat = np.zeros((3, 3))
    w_mat = np.zeros((3, 3))
    for f in fibers:
        p = np.asarray(f.axis, dtype=np.float64)
        a_mat += np.outer(p, p)
        w_mat += cylinder_quantities(f).normal_tensor.mat
    n = len(fibers)
    w = SymTensor3(w_mat)
    qnt = SymTensor3(unit_trace(w_mat))
    return SymTensor3(a_mat / n), w, qnt
