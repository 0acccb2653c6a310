"""The three benchmark workloads: inputs, op command lines and reference checks.

Each workload is a closed loop of ``minkvox`` command lines that repeats in
cycles of ``len(kinds)`` ops.  ``prepare`` writes the seeded input volume
(run in a child process, see ``python -m perfbench.workloads``), ``op``
builds the i-th command line together with the check of its output against
``minkvox.analytic``.  Checks run after the op, outside the timed interval.

Bands are the largest relative deviation from the analytic reference that a
correct op may show; they sit at two to four times the deviation measured at
the seed commit, so a clear accuracy regression fails ops.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from minkvox import FiberSpec, VoxelGrid, ball_quantities, fiber_system_tensors, store_volume

from .inputs import ball_packing, fiber_lattice, rasterize

__all__ = ["Op", "CheckFailed", "AnalyzeBalls", "OrientFibers", "GenerateFibers",
           "WORKLOADS", "read_volume"]

INPUT = "input.raw"
SPEC = "spec.json"


class CheckFailed(Exception):
    """An op's output is missing, malformed or outside its reference band."""


@dataclass(frozen=True)
class Op:
    kind: str
    argv: list
    voxels: int
    check: object  # check(stdout) -> relative reference error; raises on malformed output
    band: float  # largest reference error of a correct op


def _rel(est: float, ref: float) -> float:
    return abs(est - ref) / abs(ref)


def _rel_fro(est, ref) -> float:
    ref = np.asarray(ref, dtype=float)
    return float(np.linalg.norm(np.asarray(est, dtype=float) - ref) / np.linalg.norm(ref))


def _report(text: str) -> dict:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"unparseable report: {exc}") from None
    if not isinstance(report, dict):
        raise CheckFailed("report is not a JSON object")
    return report


def read_volume(path):
    """Gray values and sidecar of a volume file, read without minkvox."""
    meta = json.loads(Path(str(path) + ".json").read_text())
    dtype = {"u8": "<u1", "u16": "<u2", "f32": "<f4"}[meta["dtype"]]
    vals = np.fromfile(path, dtype=dtype).reshape(meta["dims"], order="F").astype(float)
    if meta["dtype"] != "f32":
        vals /= np.iinfo(dtype).max
    return vals, meta


def _arg(value: float) -> str:
    """A float as an exact positional literal; argparse reads "-1e-05" as a flag."""
    return np.format_float_positional(float(value), unique=True, trim="0")


def _generator(seed, *stream):
    return np.random.default_rng([seed, *stream])


@dataclass(frozen=True)
class AnalyzeBalls:
    """Disjoint balls; ``minkvox analyze`` cycling the none, ball and gaussian kernels."""

    n: int = 192
    depth: int = 2
    volume_fraction: float = 0.2
    r_min: float = 8.0
    r_max: float = 16.0
    gap: float = 3.0
    margin: float = 2.0
    sigma: float = 1.2
    kinds: tuple = ("none", "ball", "gaussian")
    bands: tuple = (("none", 0.05), ("ball", 0.02), ("gaussian", 0.03))

    def prepare(self, seed: int, workdir: Path) -> dict:
        balls = ball_packing(_generator(seed), self.n, self.volume_fraction,
                             self.r_min, self.r_max, self.gap, self.margin)
        dims = (self.n,) * 3
        vals = rasterize(balls, dims, 1.0, self.depth)
        store_volume(VoxelGrid(vals, 1.0, self.depth), workdir / INPUT)
        return {"radii": [b.radius for b in balls]}

    def op(self, i: int, spec: dict, workdir: Path) -> Op:
        kind = self.kinds[i % len(self.kinds)]
        refs = [ball_quantities(r) for r in spec["radii"]]
        volume = sum(q.volume for q in refs)
        surface = sum(q.surface_area for q in refs)
        normal = sum(q.normal_tensor.mat for q in refs)

        def check(text: str) -> float:
            report = _report(text)
            if report["degenerate"] or report["config"]["kernel"] != kind:
                raise CheckFailed(f"unexpected analyze report for kernel {kind}")
            return max(
                _rel(report["volume"], volume),
                _rel(report["surface_area"], surface),
                _rel_fro(report["normal_tensor"], normal),
                _rel_fro(report["qnt"], np.eye(3) / 3),
            )

        argv = ["analyze", "--in", str(workdir / INPUT), "--kernel", kind,
                "--sigma", _arg(self.sigma), "--format", "json"]
        return Op(kind, argv, self.n**3, check, dict(self.bands)[kind])


@dataclass(frozen=True)
class OrientFibers:
    """A lattice of fibers around e_x; ``minkvox fiber-orient`` with a reference tensor."""

    n: int = 128
    depth: int = 2
    cells: tuple = (2, 4, 3)
    diameter: float = 6.0
    length: float = 48.0
    spread: float = 0.1
    margin: float = 2.0
    first_sigma: float = 1.2
    second_sigma: float = 6.0
    kinds: tuple = ("orient",)
    band: float = 0.2

    def prepare(self, seed: int, workdir: Path) -> dict:
        fibers = fiber_lattice(_generator(seed), self.n, self.cells, self.diameter,
                               self.length, self.spread, self.margin)
        vals = rasterize(fibers, (self.n,) * 3, 1.0, self.depth)
        store_volume(VoxelGrid(vals, 1.0, self.depth), workdir / INPUT)
        return {"axes": [list(f.axis) for f in fibers]}

    def op(self, i: int, spec: dict, workdir: Path) -> Op:
        specs = [FiberSpec(tuple(a), self.length, self.diameter) for a in spec["axes"]]
        a_ref = fiber_system_tensors(specs)[0].mat
        six = [a_ref[0, 0], a_ref[1, 1], a_ref[2, 2], a_ref[0, 1], a_ref[0, 2], a_ref[1, 2]]

        def check(text: str) -> float:
            report = _report(text)
            err = _rel_fro(report["orientation_tensor"], a_ref)
            if not abs(report["reference_error"] - err) <= 1e-9 * max(err, 1.0):
                raise CheckFailed(f"reported reference_error {report['reference_error']} "
                                  f"differs from the recomputed {err}")
            return err

        argv = ["fiber-orient", "--in", str(workdir / INPUT),
                "--first-kernel", "ball", "--first-sigma", _arg(self.first_sigma),
                "--second-kernel", "gaussian", "--second-sigma", _arg(self.second_sigma),
                "--reference", *map(_arg, six)]
        return Op("orient", argv, self.n**3, check, self.band)


@dataclass(frozen=True)
class GenerateFibers:
    """A fresh fiber lattice per op; ``minkvox generate`` alternating depth 1 and 2.

    Cells of 32 voxels in y and z keep every fiber inside one z-chunk of the
    depth-2 voxelizer, so each op does the same work.
    """

    n: int = 128
    cells: tuple = (1, 4, 4)
    diameter: float = 8.0
    length: float = 64.0
    spread: float = 0.2
    margin: float = 2.0
    kinds: tuple = ("depth1", "depth2")
    band: float = 0.02

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {}

    def op(self, i: int, spec: dict, workdir: Path) -> Op:
        depth = i % len(self.kinds) + 1
        fibers = fiber_lattice(_generator(spec["seed"], i), self.n, self.cells,
                               self.diameter, self.length, self.spread, self.margin)
        out = workdir / f"generated-{i}.raw"
        volume = len(fibers) * math.pi * (self.diameter / 2) ** 2 * self.length

        def check(text: str) -> float:
            try:
                vals, meta = read_volume(out)
            except (OSError, ValueError, KeyError) as exc:
                raise CheckFailed(f"unreadable generated volume: {exc}") from None
            finally:
                for path in (out, Path(str(out) + ".json")):
                    path.unlink(missing_ok=True)
            want = {"dims": [self.n] * 3, "depth": depth,
                    "dtype": "u8" if depth == 1 else "f32"}
            if any(meta.get(k) != v for k, v in want.items()):
                raise CheckFailed(f"generated sidecar {meta} does not match {want}")
            return _rel(float(vals.sum()), volume)

        argv = ["generate", "--shape", "fiber-array", "--dims", *[str(self.n)] * 3,
                "--spacing", "1", "--depth", str(depth),
                "--diameter", _arg(self.diameter), "--length", _arg(self.length),
                "--out", str(out)]
        for f in fibers:
            argv += ["--fiber", *map(_arg, f.axis + f.center)]
        return Op(self.kinds[depth - 1], argv, self.n**3, check, self.band)


WORKLOADS = {
    "analyze-balls": AnalyzeBalls(),
    "orient-fibers": OrientFibers(),
    "generate-fibers": GenerateFibers(),
}


def main(argv=None) -> int:
    """Prepare one workload's input in ``--out`` and print the seconds it took."""
    parser = argparse.ArgumentParser(prog="python -m perfbench.workloads")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.out)
    start = time.perf_counter()
    spec = WORKLOADS[args.workload].prepare(args.seed, workdir)
    seconds = time.perf_counter() - start
    spec["seed"] = args.seed
    (workdir / SPEC).write_text(json.dumps(spec))
    print(json.dumps({"seconds": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
