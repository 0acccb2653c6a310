"""Command line interface: generate, analyze, convergence, fiber-orient.

Exit codes: 0 success (degenerate-image warnings included), 1 usage error,
2 I/O or format error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .analytic import (
    FiberSpec,
    ball_quantities,
    cylinder_normal_tensor,
    cylinder_qnt,
)
from .errors import (
    DegenerateImageError,
    KernelSupportError,
    NumericalError,
    VolumeFormatError,
)
from .filters import BallKernel, GaussianKernel, Kernel
from .minkowski import (
    DEFAULT_EPS_REL,
    MinkowskiSummary,
    analyze,
    relative_tensor_error,
)
from .fiberorient import (
    DEFAULT_MASK_THRESHOLD_REL,
    OrientationResult,
    structure_tensor_orientation,
)
from .minkowski import SymTensor3
from .volio import load_volume, store_volume
from .voxelgrid import Ball, Cylinder, Laminate, ShapeUnion, shape_in_box, voxelize

__all__ = ["main", "ConvergenceRow", "run_convergence", "make_kernel"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; we reserve 2 for I/O errors
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _tensor_rows(t: SymTensor3 | None):
    if t is None:
        return None
    return [[float(v) for v in row] for row in t.mat]


def make_kernel(name: str, sigma: float) -> Kernel:
    if name == "none":
        return None
    if name == "ball":
        return BallKernel(sigma)
    if name == "gaussian":
        return GaussianKernel(sigma)
    raise _UsageError(f"unknown kernel {name!r}")


def _parse_kernel_label(label: str) -> Kernel:
    """Parse a sweep kernel label: 'none', 'ball:SIGMA' or 'gaussian:SIGMA'."""
    if label == "none":
        return None
    name, sep, sig = label.partition(":")
    if not sep or name not in ("ball", "gaussian"):
        raise _UsageError(
            f"invalid kernel label {label!r}, expected none, ball:SIGMA or gaussian:SIGMA"
        )
    try:
        sigma = float(sig)
    except ValueError:
        raise _UsageError(f"invalid sigma in kernel label {label!r}") from None
    return make_kernel(name, sigma)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# generate

def _shape_from_args(args, box):
    center = tuple(args.center) if args.center else tuple(box / 2)
    if args.shape == "ball":
        if args.diameter is None:
            raise _UsageError("--shape ball requires --diameter")
        return Ball(center, args.diameter / 2)
    if args.shape == "cylinder":
        if args.diameter is None or args.length is None:
            raise _UsageError("--shape cylinder requires --diameter and --length")
        return Cylinder(center, tuple(args.axis), args.length, args.diameter)
    if args.shape == "laminate":
        if not args.slab:
            raise _UsageError("--shape laminate requires at least one --slab LO HI")
        return Laminate(args.axis_index, tuple(tuple(s) for s in args.slab))
    if args.shape == "fiber-array":
        if not args.fiber:
            raise _UsageError(
                "--shape fiber-array requires at least one --fiber AX AY AZ CX CY CZ"
            )
        if args.diameter is None or args.length is None:
            raise _UsageError("--shape fiber-array requires --diameter and --length")
        members = []
        for spec in args.fiber:
            axis, cen = tuple(spec[:3]), tuple(spec[3:])
            members.append(Cylinder(cen, axis, args.length, args.diameter))
        return ShapeUnion(tuple(members))
    raise _UsageError(f"unknown shape {args.shape!r}")


def _cmd_generate(args) -> int:
    box = np.asarray(args.dims) * args.spacing
    shape = _shape_from_args(args, box)
    if not shape_in_box(shape, args.dims, args.spacing):
        raise _UsageError(
            f"shape does not fit into the box [0, {box[0]}]x[0, {box[1]}]"
            f"x[0, {box[2]}] um; shapes are not wrapped periodically"
        )
    try:
        grid = voxelize(shape, tuple(args.dims), args.spacing, depth=args.depth)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    dtype = None if args.dtype == "auto" else args.dtype
    store_volume(grid, args.out, dtype=dtype)
    return 0


# ---------------------------------------------------------------------------
# analyze

def _summary_report(summary: MinkowskiSummary) -> dict:
    qnt_eigs = None if summary.qnt is None else [float(v) for v in summary.qnt.eigenvalues()]
    return {
        "volume": summary.volume,
        "surface_area": summary.surface_area,
        "normal_tensor": _tensor_rows(summary.normal_tensor),
        "qnt": _tensor_rows(summary.qnt),
        "qnt_eigenvalues": qnt_eigs,
        "beta": summary.beta,
        "degenerate": summary.degenerate,
        "config": {
            "scheme": summary.scheme,
            "kernel": summary.kernel,
            "sigma": summary.sigma,
            "eps_rel": summary.eps_rel,
            "depth": summary.depth,
            "spacing_um": summary.spacing,
            "dims": list(summary.dims),
        },
    }


_SUMMARY_COLUMNS = (
    "volume,surface_area,"
    "w_xx,w_yy,w_zz,w_xy,w_xz,w_yz,"
    "qnt_xx,qnt_yy,qnt_zz,qnt_xy,qnt_xz,qnt_yz,"
    "beta,degenerate,scheme,kernel,sigma,eps_rel,depth,spacing_um,nx,ny,nz"
)


def _six(t: SymTensor3 | None):
    if t is None:
        return [None] * 6
    m = t.mat
    return [m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2]]


def _summary_csv(summary: MinkowskiSummary) -> str:
    cells = (
        [summary.volume, summary.surface_area]
        + _six(summary.normal_tensor)
        + _six(summary.qnt)
        + [
            summary.beta,
            summary.degenerate,
            summary.scheme,
            summary.kernel,
            summary.sigma,
            summary.eps_rel,
            summary.depth,
            summary.spacing,
            summary.dims[0],
            summary.dims[1],
            summary.dims[2],
        ]
    )
    return _SUMMARY_COLUMNS + "\n" + ",".join(_fmt(c) for c in cells) + "\n"


def _cmd_analyze(args) -> int:
    grid = load_volume(args.infile)
    kernel = make_kernel(args.kernel, args.sigma)
    summary = analyze(grid, kernel=kernel, scheme=args.scheme, eps_rel=args.eps_rel)
    if summary.degenerate:
        print(
            "warning: degenerate image (no interfaces); qnt and beta are undefined",
            file=sys.stderr,
        )
    if args.format == "json":
        text = json.dumps(_summary_report(summary), sort_keys=True, indent=2) + "\n"
    else:
        text = _summary_csv(summary)
    _write_text(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# convergence

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
    ValueError for a resolution that is not positive and finite, and
    DegenerateImageError when a sweep point voxelizes to an image without
    interfaces.
    """
    if shape not in ("ball", "cylinder"):
        raise ValueError(f"shape must be 'ball' or 'cylinder', got {shape!r}")
    disp = np.asarray(displacement, dtype=float)
    rows = []
    for res in resolutions:
        if not (0 < res < np.inf):
            raise ValueError(f"resolutions (D/h) must be positive and finite, got {res}")
        h = diameter / res
        if shape == "ball":
            n = int(round(box_factor * res))
            dims = (n, n, n)
            refs = ball_quantities(diameter / 2)
            v_ref, s_ref = refs.volume, refs.surface_area
            w_ref, q_ref = refs.normal_tensor, refs.qnt
        else:
            length = aspect * diameter
            dims = (int(round((aspect + 1) * res)), int(round(2 * res)), int(round(2 * res)))
            fiber = FiberSpec((1.0, 0.0, 0.0), length, diameter)
            v_ref = np.pi * (diameter / 2) ** 2 * length
            s_ref = np.pi * diameter * length + np.pi * diameter**2 / 2
            w_ref, q_ref = cylinder_normal_tensor(fiber), cylinder_qnt(fiber)
        center = np.asarray(dims) * h / 2 + disp
        if shape == "ball":
            body = Ball(tuple(center), diameter / 2)
        else:
            body = Cylinder(tuple(center), (1.0, 0.0, 0.0), length, diameter)
        for p in depths:
            grid = voxelize(body, dims, h, depth=p)
            for kernel in kernels:
                start = time.perf_counter()
                summary = analyze(grid, kernel=kernel, scheme=scheme, eps_rel=eps_rel)
                elapsed = time.perf_counter() - start
                if summary.degenerate:
                    raise DegenerateImageError(
                        f"degenerate image at D/h = {_fmt(float(res))} (depth {p}): "
                        f"no interfaces, so the QNT is undefined"
                    )
                rows.append(
                    ConvergenceRow(
                        d_over_h=float(res),
                        depth=p,
                        kernel=summary.kernel,
                        sigma=summary.sigma,
                        scheme=scheme,
                        volume=summary.volume,
                        surface_area=summary.surface_area,
                        volume_err=(summary.volume - v_ref) / v_ref,
                        surface_err=(summary.surface_area - s_ref) / s_ref,
                        tensor_err=relative_tensor_error(summary.normal_tensor, w_ref),
                        qnt_err=relative_tensor_error(summary.qnt, q_ref),
                        beta=summary.beta,
                        seconds=elapsed,
                    )
                )
    rows.sort(key=lambda r: (r.d_over_h, r.depth, r.kernel, r.sigma or 0.0))
    return rows


_SWEEP_COLUMNS = (
    "d_over_h,depth,kernel,sigma,scheme,volume,surface_area,"
    "volume_err,surface_err,tensor_err,qnt_err,beta,seconds"
)


def sweep_csv(rows) -> str:
    lines = [_SWEEP_COLUMNS]
    for r in rows:
        lines.append(
            ",".join(
                _fmt(c)
                for c in (
                    r.d_over_h, r.depth, r.kernel, r.sigma, r.scheme,
                    r.volume, r.surface_area, r.volume_err, r.surface_err,
                    r.tensor_err, r.qnt_err, r.beta, r.seconds,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_convergence(args) -> int:
    kernels = [_parse_kernel_label(label) for label in args.kernels]
    try:
        rows = run_convergence(
            shape=args.shape,
            diameter=args.diameter,
            resolutions=args.resolutions,
            depths=args.depths,
            kernels=kernels,
            scheme=args.scheme,
            eps_rel=args.eps_rel,
            box_factor=args.box_factor,
            displacement=tuple(args.displacement),
            aspect=args.aspect,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _write_text(sweep_csv(rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# fiber-orient

def _orientation_report(result: OrientationResult, err: float | None) -> dict:
    vals, vecs = result.a_est.eigensystem()
    report = {
        "orientation_tensor": _tensor_rows(result.a_est),
        "eigenvalues": [float(v) for v in vals],
        "eigenvectors": [[float(x) for x in vecs[:, k]] for k in range(3)],
        "masked_voxels": result.masked_voxels,
        "total_voxels": result.total_voxels,
        "config": {
            "first_kernel": result.first_kernel,
            "first_sigma": result.first_sigma,
            "second_kernel": result.second_kernel,
            "second_sigma": result.second_sigma,
            "scheme": result.scheme,
            "mask_threshold_rel": result.mask_threshold_rel,
        },
    }
    if err is not None:
        report["reference_error"] = err
    return report


_ORIENT_COLUMNS = (
    "a_xx,a_yy,a_zz,a_xy,a_xz,a_yz,eig_1,eig_2,eig_3,masked_voxels,total_voxels,"
    "reference_error,first_kernel,first_sigma,second_kernel,second_sigma,"
    "scheme,mask_threshold_rel"
)


def _orientation_csv(result: OrientationResult, err: float | None) -> str:
    vals = result.a_est.eigenvalues()
    cells = (
        _six(result.a_est)
        + [vals[0], vals[1], vals[2], result.masked_voxels, result.total_voxels, err]
        + [
            result.first_kernel,
            result.first_sigma,
            result.second_kernel,
            result.second_sigma,
            result.scheme,
            result.mask_threshold_rel,
        ]
    )
    return _ORIENT_COLUMNS + "\n" + ",".join(_fmt(c) for c in cells) + "\n"


def _cmd_fiber_orient(args) -> int:
    grid = load_volume(args.infile)
    first = make_kernel(args.first_kernel, args.first_sigma)
    second = make_kernel(args.second_kernel, args.second_sigma)
    if second is None:
        raise _UsageError("--second-kernel none is not allowed; the blur is mandatory")
    result = structure_tensor_orientation(
        grid,
        first_kernel=first,
        second_kernel=second,
        scheme=args.scheme,
        mask_threshold_rel=args.mask_threshold,
    )
    err = None
    if args.reference is not None:
        xx, yy, zz, xy, xz, yz = args.reference
        ref = SymTensor3(np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]]))
        err = relative_tensor_error(result.a_est, ref)
    if args.format == "json":
        text = json.dumps(_orientation_report(result, err), sort_keys=True, indent=2) + "\n"
    else:
        text = _orientation_csv(result, err)
    _write_text(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minkvox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="voxelize an analytic shape into a volume file")
    gen.add_argument("--shape", required=True,
                     choices=("ball", "cylinder", "laminate", "fiber-array"))
    gen.add_argument("--dims", required=True, type=int, nargs=3, metavar=("NX", "NY", "NZ"))
    gen.add_argument("--spacing", type=float, default=1.0, help="voxel edge length in um")
    gen.add_argument("--depth", type=int, default=1, help="gray-value depth p")
    gen.add_argument("--diameter", type=float, default=None)
    gen.add_argument("--length", type=float, default=None)
    gen.add_argument("--axis", type=float, nargs=3, default=(1.0, 0.0, 0.0),
                     metavar=("AX", "AY", "AZ"), help="cylinder axis (unit vector)")
    gen.add_argument("--center", type=float, nargs=3, default=None,
                     metavar=("CX", "CY", "CZ"), help="shape center, default box center")
    gen.add_argument("--axis-index", type=int, default=2, choices=(0, 1, 2),
                     help="laminate normal axis")
    gen.add_argument("--slab", type=float, nargs=2, action="append", default=[],
                     metavar=("LO", "HI"), help="laminate slab interval, repeatable")
    gen.add_argument("--fiber", type=float, nargs=6, action="append", default=[],
                     metavar=("AX", "AY", "AZ", "CX", "CY", "CZ"),
                     help="fiber axis and center, repeatable")
    gen.add_argument("--dtype", choices=("auto", "u8", "u16", "f32"), default="auto")
    gen.add_argument("--out", required=True, help="payload path; sidecar gets .json appended")
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="Minkowski functionals and tensors of a volume")
    ana.add_argument("--in", dest="infile", required=True)
    ana.add_argument("--kernel", choices=("none", "ball", "gaussian"), default="ball")
    ana.add_argument("--sigma", type=float, default=1.2)
    ana.add_argument("--scheme", choices=("central", "forward", "backward"),
                     default="central")
    ana.add_argument("--eps-rel", type=float, default=DEFAULT_EPS_REL)
    ana.add_argument("--format", choices=("json", "csv"), default="json")
    ana.add_argument("--out", default=None, help="report path, default stdout")
    ana.set_defaults(func=_cmd_analyze)

    conv = sub.add_parser("convergence", help="resolution sweep against analytic references")
    conv.add_argument("--shape", choices=("ball", "cylinder"), default="ball")
    conv.add_argument("--diameter", type=float, required=True)
    conv.add_argument("--aspect", type=float, default=10.0, help="cylinder L/D")
    conv.add_argument("--box-factor", type=float, default=1.5, help="ball box edge over D")
    conv.add_argument("--displacement", type=float, nargs=3, default=(0.0, 0.0, 0.0),
                      metavar=("DX", "DY", "DZ"),
                      help="center offset from the box center, in um")
    conv.add_argument("--resolutions", type=float, nargs="+", required=True,
                      metavar="D_OVER_H")
    conv.add_argument("--depths", type=int, nargs="+", default=[1])
    conv.add_argument("--kernels", nargs="+", default=["none"],
                      help="kernel labels: none, ball:SIGMA, gaussian:SIGMA")
    conv.add_argument("--scheme", choices=("central", "forward", "backward"),
                      default="central")
    conv.add_argument("--eps-rel", type=float, default=DEFAULT_EPS_REL)
    conv.add_argument("--out", default=None, help="CSV path, default stdout")
    conv.set_defaults(func=_cmd_convergence)

    fib = sub.add_parser("fiber-orient", help="structure-tensor fiber orientation")
    fib.add_argument("--in", dest="infile", required=True)
    fib.add_argument("--first-kernel", choices=("none", "ball", "gaussian"),
                     default="ball")
    fib.add_argument("--first-sigma", type=float, default=1.2)
    fib.add_argument("--second-kernel", choices=("ball", "gaussian"), default="gaussian")
    fib.add_argument("--second-sigma", type=float, required=True)
    fib.add_argument("--scheme", choices=("central", "forward", "backward"),
                     default="central")
    fib.add_argument("--mask-threshold", type=float, default=DEFAULT_MASK_THRESHOLD_REL,
                     help="relative structure-tensor trace cutoff; <= 0 keeps all voxels")
    fib.add_argument("--reference", type=float, nargs=6, default=None,
                     metavar=("XX", "YY", "ZZ", "XY", "XZ", "YZ"),
                     help="reference orientation tensor for the error report")
    fib.add_argument("--format", choices=("json", "csv"), default="json")
    fib.add_argument("--out", default=None)
    fib.set_defaults(func=_cmd_fiber_orient)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"minkvox: error: {exc}", file=sys.stderr)
        return 1
    except KernelSupportError as exc:
        print(f"minkvox: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"minkvox: error: {exc}", file=sys.stderr)
        return 1
    except (VolumeFormatError, OSError) as exc:
        print(f"minkvox: error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, DegenerateImageError) as exc:
        print(f"minkvox: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
