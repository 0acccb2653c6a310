"""Command line interface: generate, analyze, convergence, fiber-orient.

Exit codes: 0 success (degenerate-image warnings included), 1 usage error,
2 I/O or format error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import convergence
from .errors import DegenerateImageError, NumericalError, VolumeFormatError
from .filters import BallKernel, GaussianKernel, Kernel
from .minkowski import (COMPONENTS, DEFAULT_EPS_REL, FULL, SymTensor3, analyze,
                        relative_tensor_error)
from .fiberorient import DEFAULT_MASK_THRESHOLD_REL, structure_tensor_orientation
from .gradient import SCHEMES
from .volio import load_volume, store_volume
from .voxelgrid import Ball, Cylinder, Laminate, ShapeUnion, shape_in_box, voxelize

__all__ = ["main", "make_kernel"]


# the first class an exception is an instance of gives the exit code; usage errors are
# ValueErrors; a MemoryError is a job too big for the host
_EXIT_CODES = {ValueError: 1, MemoryError: 1, VolumeFormatError: 2,
               OSError: 2, NumericalError: 3, DegenerateImageError: 3}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; we reserve 2 for I/O errors
    def error(self, message):
        raise ValueError(message)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# kernel names of the flags and sweep labels; the keys are the argparse choices
_KERNELS = {"none": None, **{k.name: k for k in (BallKernel, GaussianKernel)}}


def make_kernel(spec: str, sigma: float | None = None) -> Kernel:
    """Kernel from a name in _KERNELS and its sigma or, without a sigma, from a
    sweep label: 'none', 'ball:SIGMA' or 'gaussian:SIGMA'."""
    name, sep, text = spec.partition(":") if sigma is None else (spec, ":", sigma)
    if spec != "none" and not (sep and _KERNELS.get(name)):
        raise ValueError(
            f"invalid kernel label {spec!r}, expected none, ball:SIGMA or gaussian:SIGMA"
        )
    if spec == "none":
        return None
    try:
        sigma = float(text)
    except ValueError:
        raise ValueError(f"invalid sigma in kernel label {spec!r}") from None
    return _KERNELS[name](sigma)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# reports: a JSON dict holds every value; a CSV column is (name, path into it)

def _tensor(t: SymTensor3 | None):
    return None if t is None else [[float(v) for v in row] for row in t.mat]


def _tensor_columns(prefix: str, key: str):
    return [(f"{prefix}_{'xyz'[i]}{'xyz'[j]}", (key, i, j)) for i, j in COMPONENTS]


def _keys(*names, under=()):
    return [(name, under + (name,)) for name in names]


def _cell(report, path) -> str:
    """Format the value at ``path``; a missing key or a None on the way is empty."""
    for key in path:
        if report is None:
            break
        report = report.get(key) if isinstance(key, str) else report[key]
    return _fmt(report)


def _csv(records, columns) -> str:
    lines = [",".join(name for name, _ in columns)]
    lines += [",".join(_cell(r, path) for _, path in columns) for r in records]
    return "\n".join(lines) + "\n"


def _render(report: dict, columns, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return _csv([report], columns)


# ---------------------------------------------------------------------------
# generate

def _shape_from_args(args, box):
    center = tuple(args.center) if args.center else tuple(box / 2)
    if args.shape == "ball":
        if args.diameter is None:
            raise ValueError("--shape ball requires --diameter")
        return Ball(center, args.diameter / 2)
    if args.shape == "cylinder":
        if args.diameter is None or args.length is None:
            raise ValueError("--shape cylinder requires --diameter and --length")
        return Cylinder(center, tuple(args.axis), args.length, args.diameter)
    if args.shape == "laminate":
        if not args.slab:
            raise ValueError("--shape laminate requires at least one --slab LO HI")
        return Laminate(args.axis_index, tuple(tuple(s) for s in args.slab))
    if args.shape == "fiber-array":
        if not args.fiber:
            raise ValueError(
                "--shape fiber-array requires at least one --fiber AX AY AZ CX CY CZ"
            )
        if args.diameter is None or args.length is None:
            raise ValueError("--shape fiber-array requires --diameter and --length")
        members = []
        for spec in args.fiber:
            axis, cen = tuple(spec[:3]), tuple(spec[3:])
            members.append(Cylinder(cen, axis, args.length, args.diameter))
        return ShapeUnion(tuple(members))


def _cmd_generate(args) -> int:
    box = np.asarray(args.dims) * args.spacing
    shape = _shape_from_args(args, box)
    if not shape_in_box(shape, args.dims, args.spacing):
        raise ValueError(
            f"shape does not fit into the box [0, {box[0]}]x[0, {box[1]}]"
            f"x[0, {box[2]}] um; shapes are not wrapped periodically"
        )
    grid = voxelize(shape, tuple(args.dims), args.spacing, depth=args.depth)
    if not grid.index.any():
        raise ValueError(f"shape covers no sample point at --depth {args.depth}")
    dtype = None if args.dtype == "auto" else args.dtype
    store_volume(grid, args.out, dtype=dtype)
    return 0


# ---------------------------------------------------------------------------
# analyze

_SUMMARY_COLUMNS = (
    _keys("volume", "surface_area")
    + _tensor_columns("w", "normal_tensor")
    + _tensor_columns("qnt", "qnt")
    + _keys("beta", "degenerate")
    + _keys("scheme", "kernel", "sigma", "eps_rel", "depth", "spacing_um", under=("config",))
    + [(name, ("config", "dims", i)) for i, name in enumerate(("nx", "ny", "nz"))]
)


def _cmd_analyze(args) -> int:
    grid = load_volume(args.infile)
    kernel = make_kernel(args.kernel, args.sigma)
    summary = analyze(grid, kernel=kernel, scheme=args.scheme, eps_rel=args.eps_rel)
    if summary.qnt is None:
        print(
            "warning: degenerate image (no interfaces); qnt and beta are undefined",
            file=sys.stderr,
        )
    qnt_eigs = None if summary.qnt is None else [float(v) for v in summary.qnt.eigensystem()[0]]
    report = {
        "volume": summary.volume,
        "surface_area": summary.surface_area,
        "normal_tensor": _tensor(summary.normal_tensor),
        "qnt": _tensor(summary.qnt),
        "qnt_eigenvalues": qnt_eigs,
        "beta": summary.beta,
        "degenerate": summary.qnt is None,
        "interface_voxels": summary.interface_voxels,
        "gmax": summary.gmax,
        "route": summary.route,
        "config": {
            "scheme": args.scheme,
            "kernel": args.kernel,
            "sigma": None if kernel is None else kernel.sigma,
            "eps_rel": args.eps_rel,
            "depth": grid.depth,
            "spacing_um": grid.spacing,
            "dims": list(grid.dims),
        },
    }
    _write_text(_render(report, _SUMMARY_COLUMNS, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# convergence

def _cmd_convergence(args) -> int:
    rows = convergence.run_convergence(
        shape=args.shape,
        diameter=args.diameter,
        resolutions=args.resolutions,
        depths=args.depths,
        kernels=[make_kernel(label) for label in args.kernels],
        scheme=args.scheme,
        eps_rel=args.eps_rel,
        box_factor=args.box_factor,
        displacement=tuple(args.displacement),
        aspect=args.aspect,
    )
    columns = _keys(*(f.name for f in dataclasses.fields(convergence.ConvergenceRow)))
    _write_text(_csv([dataclasses.asdict(r) for r in rows], columns), args.out)
    return 0


# ---------------------------------------------------------------------------
# fiber-orient

_ORIENT_COLUMNS = (
    _tensor_columns("a", "orientation_tensor")
    + [(f"eig_{k + 1}", ("eigenvalues", k)) for k in range(3)]
    + _keys("masked_voxels", "total_voxels", "reference_error")
    + _keys("first_kernel", "first_sigma", "second_kernel", "second_sigma", "scheme",
            "mask_threshold_rel", under=("config",))
)


def _cmd_fiber_orient(args) -> int:
    ref = None
    if args.reference is not None:
        ref = SymTensor3(np.array(args.reference)[FULL].reshape(3, 3))
    first = make_kernel(args.first_kernel, args.first_sigma)
    second = make_kernel(args.second_kernel, args.second_sigma)
    result = structure_tensor_orientation(
        load_volume(args.infile), first, second,  # the only reference, freed once filtered
        scheme=args.scheme, mask_threshold_rel=args.mask_threshold)
    vals, vecs = result.a_est.eigensystem()
    report = {
        "orientation_tensor": _tensor(result.a_est),
        "eigenvalues": [float(v) for v in vals],
        "eigenvectors": [[float(x) for x in vecs[:, k]] for k in range(3)],
        "masked_voxels": result.masked_voxels,
        "total_voxels": result.total_voxels,
        "config": {
            "first_kernel": args.first_kernel,
            "first_sigma": None if first is None else first.sigma,
            "second_kernel": args.second_kernel,
            "second_sigma": second.sigma,
            "scheme": args.scheme,
            "mask_threshold_rel": args.mask_threshold,
        },
    }
    if ref is not None:
        report["reference_error"] = relative_tensor_error(result.a_est, ref)
    _write_text(_render(report, _ORIENT_COLUMNS, args.format), args.out)
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
    ana.add_argument("--kernel", choices=tuple(_KERNELS), default="ball")
    ana.add_argument("--sigma", type=float, default=1.2)
    ana.add_argument("--scheme", choices=SCHEMES, default="central")
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
    conv.add_argument("--scheme", choices=SCHEMES, default="central")
    conv.add_argument("--eps-rel", type=float, default=DEFAULT_EPS_REL)
    conv.add_argument("--out", default=None, help="CSV path, default stdout")
    conv.set_defaults(func=_cmd_convergence)

    fib = sub.add_parser("fiber-orient", help="structure-tensor fiber orientation")
    fib.add_argument("--in", dest="infile", required=True)
    fib.add_argument("--first-kernel", choices=tuple(_KERNELS), default="ball")
    fib.add_argument("--first-sigma", type=float, default=1.2)
    fib.add_argument("--second-kernel", choices=[k for k in _KERNELS if _KERNELS[k]],
                     default="gaussian")
    fib.add_argument("--second-sigma", type=float, required=True)
    fib.add_argument("--scheme", choices=SCHEMES, default="central")
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
    except tuple(_EXIT_CODES) as exc:
        print(f"minkvox: error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
