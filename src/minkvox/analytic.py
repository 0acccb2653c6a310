"""Closed-form reference values for balls, cylinders and fiber systems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .minkowski import SymTensor3, unit_trace
from .voxelgrid import check_cylinder

__all__ = [
    "BallQuantities",
    "FiberSpec",
    "ball_quantities",
    "steiner_volume",
    "cylinder_normal_tensor",
    "cylinder_qnt",
    "fiber_system_tensors",
]


@dataclass(frozen=True)
class BallQuantities:
    """Intrinsic volumes and interface tensor of a solid ball."""

    volume: float
    surface_area: float
    normal_tensor: SymTensor3
    qnt: SymTensor3
    mean_width_integral: float  # V_1 in the Steiner expansion
    euler: float  # V_0


def ball_quantities(radius: float) -> BallQuantities:
    """Exact quantities of a ball: V = 4 pi R^3 / 3, S = 4 pi R^2, W = S/9 * Id."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    r = float(radius)
    surface = 4 * np.pi * r**2
    return BallQuantities(
        volume=4 * np.pi * r**3 / 3,
        surface_area=surface,
        normal_tensor=SymTensor3(np.eye(3) * (surface / 9)),
        qnt=SymTensor3(np.eye(3) / 3),
        mean_width_integral=4 * r,
        euler=1.0,
    )


def steiner_volume(radius: float, epsilon: float) -> float:
    """Volume of the parallel body of a ball at distance epsilon.

    V(K_eps) = V + eps S + pi eps^2 V_1 + (4 pi / 3) eps^3 V_0, which for a
    ball collapses to (4 pi / 3)(R + eps)^3.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    q = ball_quantities(radius)
    return (
        q.volume
        + epsilon * q.surface_area
        + np.pi * epsilon**2 * q.mean_width_integral
        + (4 * np.pi / 3) * epsilon**3 * q.euler
    )


@dataclass(frozen=True)
class FiberSpec:
    """Straight flat-capped cylindrical fiber with unit axis p."""

    axis: tuple[float, float, float]
    length: float
    diameter: float

    def __post_init__(self):
        check_cylinder("fiber", self.axis, self.length, self.diameter)


def _cylinder_shape(fiber: FiberSpec) -> np.ndarray:
    """p p^T + (L/D) (Id - p p^T), the interface tensor of a capped cylinder up to scale."""
    p = np.asarray(fiber.axis, dtype=np.float64)
    pp = np.outer(p, p)
    return pp + fiber.length / fiber.diameter * (np.eye(3) - pp)


def cylinder_normal_tensor(fiber: FiberSpec) -> SymTensor3:
    """Interface tensor of a capped cylinder.

    W = (pi D^2 / 6) [ p p^T + (L/D) (Id - p p^T) ]; the first term collects
    the two flat caps, the second the lateral surface.
    """
    return SymTensor3(np.pi * fiber.diameter**2 / 6 * _cylinder_shape(fiber))


def cylinder_qnt(fiber: FiberSpec) -> SymTensor3:
    """Unit-trace interface tensor of a capped cylinder.

    QNT = 1/(1 + 2 L/D) [ p p^T + (L/D)(Id - p p^T) ]; its eigenvalue ratio
    is D/L for L >= D, so long thin fibers are strongly anisotropic.
    """
    return SymTensor3(unit_trace(_cylinder_shape(fiber)))


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
        w_mat += cylinder_normal_tensor(f).mat
    n = len(fibers)
    w = SymTensor3(w_mat)
    qnt = SymTensor3(unit_trace(w_mat))
    return SymTensor3(a_mat / n), w, qnt
