"""Multigrid convergence sweeps of the estimators against analytic bodies."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import FiberSpec, ball_quantities, cylinder_quantities
from .errors import DegenerateImageError
from .minkowski import DEFAULT_EPS_REL, analyze, relative_tensor_error
from .voxelgrid import SPACING_RANGE_UM, Ball, Cylinder, voxelize

__all__ = ["ConvergenceRow", "run_convergence"]


@dataclass(frozen=True)
class ConvergenceRow:
    """One sweep entry; *_err are signed relative deviations from the analytic value."""

    d_over_h: float
    depth: int
    kernel: str
    sigma: float | None
    scheme: str
    volume: float
    surface_area: float
    volume_err: float
    surface_err: float
    tensor_err: float
    qnt_err: float
    beta: float
    seconds: float


def run_convergence(
    shape: str,
    diameter: float,
    resolutions,
    depths,
    kernels,
    scheme: str = "central",
    eps_rel: float = DEFAULT_EPS_REL,
    box_factor: float = 1.5,
    displacement=(0.0, 0.0, 0.0),
    aspect: float = 10.0,
) -> list[ConvergenceRow]:
    """Voxelize and analyze one body over a resolution/depth/kernel sweep.

    ``shape`` is "ball" or "cylinder" (axis e_x, aspect L/D); resolutions are
    D/h values.  The ball box is ``box_factor * D`` per axis, the cylinder box
    ``(L + D, 2D, 2D)``.  ``displacement`` shifts the body center away from
    the box center, in physical units, so sub-voxel placement effects can be
    probed.  Rows come back sorted by (D/h, depth, kernel).  Raises
    ValueError for a diameter, a box factor, an aspect or a resolution that is not
    positive and finite or a voxel size D/(D/h) outside ``SPACING_RANGE_UM``, and
    DegenerateImageError when a sweep point voxelizes to an image without
    interfaces.
    """
    if shape not in ("ball", "cylinder"):
        raise ValueError(f"shape must be 'ball' or 'cylinder', got {shape!r}")
    if not 0 < diameter < np.inf:
        raise ValueError(f"diameter D must be positive and finite, got {diameter}")
    if not 0 < box_factor < np.inf:
        raise ValueError(f"box factor must be positive and finite, got {box_factor}")
    if not 0 < aspect < np.inf:  # for a ball too, which does not use it
        raise ValueError(f"aspect (L/D) must be positive and finite, got {aspect}")
    disp = np.asarray(displacement, dtype=float).tolist()  # floats: inf - inf is NaN, unwarned
    lo, hi = SPACING_RANGE_UM
    if shape == "ball":
        box = (box_factor,) * 3
        fiber = None
        body_at = partial(Ball, radius=diameter / 2)
    else:
        box = (aspect + 1, 2, 2)
        fiber = FiberSpec((1.0, 0.0, 0.0), aspect * diameter, diameter)
        body_at = partial(Cylinder, axis=fiber.axis, length=fiber.length, diameter=diameter)
    rows = []
    for res in resolutions:
        if not (0 < res < np.inf):
            raise ValueError(f"resolutions (D/h) must be positive and finite, got {res}")
        h = diameter / res
        # before the references: a ball volume overflows long before h does
        if not lo <= h <= hi:
            raise ValueError(f"voxel size D/(D/h) = {h} um is outside [{lo:g}, {hi:g}] um")
        dims = tuple(int(round(b * res)) for b in box)
        body = body_at(tuple(n * h / 2 + x for n, x in zip(dims, disp)))
        for p in depths:
            # voxelized first: its layer check refuses a box whose references overflow
            grid = voxelize(body, dims, h, depth=p)
            ref = ball_quantities(diameter / 2) if fiber is None else cylinder_quantities(fiber)
            for kernel in kernels:
                start = time.perf_counter()
                summary = analyze(grid, kernel=kernel, scheme=scheme, eps_rel=eps_rel)
                elapsed = time.perf_counter() - start
                if summary.qnt is None:
                    raise DegenerateImageError(
                        f"degenerate image at D/h = {float(res):.17g} (depth {p}): "
                        f"no interfaces, so the QNT is undefined"
                    )
                rows.append(
                    ConvergenceRow(
                        d_over_h=float(res),
                        depth=p,
                        kernel="none" if kernel is None else kernel.name,
                        sigma=None if kernel is None else kernel.sigma,
                        scheme=scheme,
                        volume=summary.volume,
                        surface_area=summary.surface_area,
                        volume_err=(summary.volume - ref.volume) / ref.volume,
                        surface_err=(summary.surface_area - ref.surface_area) / ref.surface_area,
                        tensor_err=relative_tensor_error(summary.normal_tensor, ref.normal_tensor),
                        qnt_err=relative_tensor_error(summary.qnt, ref.qnt),
                        beta=summary.beta,
                        seconds=elapsed,
                    )
                )
    rows.sort(key=lambda r: (r.d_over_h, r.depth, r.kernel, r.sigma or 0.0))
    return rows
