"""Spans around the public functions at minkvox's module boundaries.

The tracer wraps functions from the benchmark's side: each wrapper is put
where the caller looks the name up (``minkvox.cli.load_volume``,
``minkvox.fiberorient.apply_transfer``, ``Cylinder.contains``, ...), so the
program itself is unchanged.  A span records its name, start, end, parent,
op id, an error flag, per-call counts and, while ``tracemalloc`` is tracing,
the peak of traced memory above its start (tracemalloc sees numpy buffers).
Spans stay in memory; ``write_spans`` saves them when the run ends.

Untraced runs never construct the patches, so every minkvox attribute stays
the original object.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "Span",
    "Patch",
    "Tracer",
    "minkvox_patches",
    "self_times",
    "layer_metrics",
    "LAYERS",
    "PER_LAYER_METRICS",
]

LAYERS = ("cli", "volio", "voxelgrid", "filters", "gradient", "minkowski", "fiberorient")


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = math.nan
    peak_bytes: int = 0
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Patch:
    """Replace ``owner.attr`` by a traced wrapper that records span ``name``.

    ``count(args, kwargs, result)`` returns the span's counts; it runs after
    the span has ended, so its cost lands in the parent's self time.
    """

    owner: object
    attr: str
    name: str
    count: object = None


class Tracer:
    """Span recorder; spans are recorded only inside ``op_scope``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[list] = []  # [span index, traced bytes at start, peak seen]
        self._op: int | None = None

    @contextlib.contextmanager
    def op_scope(self, op: int):
        self._op = op
        try:
            yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def installed(self, patches):
        """Install the wrappers for the duration of the block, then restore."""
        originals = []
        try:
            for p in patches:
                original = vars(p.owner).get(p.attr)
                if original is None:
                    continue  # a boundary the program no longer has reads 0
                originals.append((p.owner, p.attr, original))
                setattr(p.owner, p.attr, self.wrap(p.name, original, p.count))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx].error = True
                raise
            finally:
                self._exit(idx)
            if count is not None:
                self.spans[idx].counts.update(count(args, kwargs, result))
            return result

        return traced

    def _enter(self, name: str) -> int:
        cur = 0
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], peak)
            tracemalloc.reset_peak()
        parent = self._open[-1][0] if self._open else None
        self.spans.append(Span(name, self._op, parent, 0.0))
        idx = len(self.spans) - 1
        self._open.append([idx, cur, cur])
        self.spans[idx].start = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        _, start_bytes, seen = self._open.pop()
        span = self.spans[idx]
        span.end = end
        if tracemalloc.is_tracing():
            seen = max(seen, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = seen - start_bytes
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], seen)
            tracemalloc.reset_peak()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


# ---------------------------------------------------------------------------
# the boundaries of minkvox that the benchmark traces

def _argument(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(path) -> int:
    return os.path.getsize(path) + os.path.getsize(str(path) + ".json")


def _load_counts(args, kwargs, grid):
    return {"bytes": _file_bytes(_argument(args, kwargs, 0, "path")),
            "voxels": int(np.prod(grid.dims))}


def _store_counts(args, kwargs, result):
    return {"bytes": _file_bytes(_argument(args, kwargs, 1, "path"))}


def _contains_counts(args, kwargs, inside):
    return {"points": int(inside.size), "inside": int(np.count_nonzero(inside))}


def _transfer_counts(args, kwargs, transfer):
    return {"fft_points": int(np.prod(_argument(args, kwargs, 1, "dims")))}


def _apply_counts(args, kwargs, out):
    return {"fft_points": 2 * int(out.size)}


def _norms_counts(args, kwargs, norms):
    return {"points": int(norms.size), "nonzero": int(np.count_nonzero(norms))}


def _orientation_counts(args, kwargs, result):
    return {"masked": result.masked_voxels, "total": result.total_voxels}


def minkvox_patches() -> list[Patch]:
    """Every traced boundary, keyed where its caller looks it up."""
    from minkvox import cli, fiberorient, filters, minkowski
    from minkvox.gradient import VectorField
    from minkvox.voxelgrid import Ball, Cylinder, VoxelGrid

    return [
        Patch(cli, "main", "cli.main"),
        Patch(cli, "load_volume", "volio.load", _load_counts),
        Patch(cli, "store_volume", "volio.store", _store_counts),
        Patch(cli, "voxelize", "voxelgrid.voxelize"),
        Patch(Cylinder, "contains", "voxelgrid.contains", _contains_counts),
        Patch(Ball, "contains", "voxelgrid.contains", _contains_counts),
        Patch(VoxelGrid, "__post_init__", "voxelgrid.grid_init"),
        Patch(cli, "analyze", "minkowski.analyze"),
        Patch(minkowski, "estimate_surface", "minkowski.estimate_surface"),
        Patch(minkowski, "estimate_normal_tensor", "minkowski.estimate_normal_tensor"),
        Patch(cli, "structure_tensor_orientation", "fiberorient.orientation",
              _orientation_counts),
        Patch(minkowski, "fft_convolve", "filters.fft_convolve"),
        Patch(fiberorient, "fft_convolve", "filters.fft_convolve"),
        Patch(filters, "kernel_transfer", "filters.kernel_transfer", _transfer_counts),
        Patch(fiberorient, "kernel_transfer", "filters.kernel_transfer", _transfer_counts),
        Patch(filters, "apply_transfer", "filters.apply_transfer", _apply_counts),
        Patch(fiberorient, "apply_transfer", "filters.apply_transfer", _apply_counts),
        Patch(filters, "sample_kernel", "filters.sample_kernel"),
        Patch(minkowski, "gradient", "gradient.gradient"),
        Patch(fiberorient, "gradient", "gradient.gradient"),
        Patch(VectorField, "norms", "gradient.norms", _norms_counts),
    ]


# (metric, unit, better); the order is the order of the report
PER_LAYER_METRICS = (
    [
        ("voxelgrid.voxelize_s", "s", "lower"),
        ("voxelgrid.contains_s", "s", "lower"),
        ("voxelgrid.contains_points", "count", "lower"),
        ("voxelgrid.contains_hit_ratio", "fraction", "higher"),
        ("voxelgrid.grid_init_s", "s", "lower"),
        ("voxelgrid.grid_init_calls", "count", "lower"),
        ("volio.load_s", "s", "lower"),
        ("volio.load_bytes", "B", "lower"),
        ("volio.load_peak_b_per_voxel", "B/voxel", "lower"),
        ("volio.store_s", "s", "lower"),
        ("volio.store_bytes", "B", "lower"),
        ("filters.fft_convolve_s", "s", "lower"),
        ("filters.self_s", "s", "lower"),
        ("filters.apply_transfer_s", "s", "lower"),
        ("filters.apply_transfer_calls", "count", "lower"),
        ("filters.fft_points", "count", "lower"),
        ("filters.kernel_transfer_s", "s", "lower"),
        ("filters.kernel_transfer_calls", "count", "lower"),
        ("filters.sample_kernel_s", "s", "lower"),
        ("filters.sample_kernel_calls", "count", "lower"),
        ("gradient.gradient_s", "s", "lower"),
        ("gradient.norms_s", "s", "lower"),
        ("gradient.norms_calls", "count", "lower"),
        ("minkowski.analyze_s", "s", "lower"),
        ("minkowski.estimate_surface_s", "s", "lower"),
        ("minkowski.estimate_normal_tensor_s", "s", "lower"),
        ("minkowski.self_s", "s", "lower"),
        ("minkowski.interface_frac", "fraction", "lower"),
        ("fiberorient.orientation_s", "s", "lower"),
        ("fiberorient.self_s", "s", "lower"),
        ("fiberorient.mask_frac", "fraction", "lower"),
        ("fiberorient.blur_calls", "count", "lower"),
    ]
    + [(f"{layer}.peak_b_per_voxel", "B/voxel", "lower")
       for layer in ("filters", "gradient", "minkowski", "fiberorient")]
    + [
        ("cli.main_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.report_bytes", "B", "lower"),
    ]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [("trace.overhead_frac", "fraction", "lower")]
)


def layer_metrics(spans, op_voxels: dict) -> dict:
    """Per-layer metrics of the traced ops, as averages per op.

    ``op_voxels`` maps each traced op id to its input voxel count; peaks
    per voxel are the largest over the ops.  ``trace.overhead_frac`` is not
    computed here because it needs the untraced run.
    """
    n_ops = len(op_voxels)
    selfs = self_times(spans)
    total = defaultdict(float)
    for s, own in zip(spans, selfs):
        total[s.name + "#s"] += s.duration
        total[s.name + "#calls"] += 1
        total[s.layer + "#self"] += own
        total[s.layer + "#errors"] += s.error
        for key, val in s.counts.items():
            total[f"{s.name}#{key}"] += val
        if s.name == "filters.apply_transfer" and s.parent is not None \
                and spans[s.parent].layer == "fiberorient":
            total["fiberorient#blurs"] += 1

    def peak(pred):
        return max((s.peak_bytes / op_voxels[s.op] for s in spans if pred(s)), default=0.0)

    def ratio(num, den):
        return total[num] / total[den] if total[den] else 0.0

    per_op = {
        "voxelgrid.voxelize_s": "voxelgrid.voxelize#s",
        "voxelgrid.contains_s": "voxelgrid.contains#s",
        "voxelgrid.contains_points": "voxelgrid.contains#points",
        "voxelgrid.grid_init_s": "voxelgrid.grid_init#s",
        "voxelgrid.grid_init_calls": "voxelgrid.grid_init#calls",
        "volio.load_s": "volio.load#s",
        "volio.load_bytes": "volio.load#bytes",
        "volio.store_s": "volio.store#s",
        "volio.store_bytes": "volio.store#bytes",
        "filters.fft_convolve_s": "filters.fft_convolve#s",
        "filters.self_s": "filters#self",
        "filters.apply_transfer_s": "filters.apply_transfer#s",
        "filters.apply_transfer_calls": "filters.apply_transfer#calls",
        "filters.kernel_transfer_s": "filters.kernel_transfer#s",
        "filters.kernel_transfer_calls": "filters.kernel_transfer#calls",
        "filters.sample_kernel_s": "filters.sample_kernel#s",
        "filters.sample_kernel_calls": "filters.sample_kernel#calls",
        "gradient.gradient_s": "gradient.gradient#s",
        "gradient.norms_s": "gradient.norms#s",
        "gradient.norms_calls": "gradient.norms#calls",
        "minkowski.analyze_s": "minkowski.analyze#s",
        "minkowski.estimate_surface_s": "minkowski.estimate_surface#s",
        "minkowski.estimate_normal_tensor_s": "minkowski.estimate_normal_tensor#s",
        "minkowski.self_s": "minkowski#self",
        "fiberorient.orientation_s": "fiberorient.orientation#s",
        "fiberorient.self_s": "fiberorient#self",
        "fiberorient.blur_calls": "fiberorient#blurs",
        "cli.main_s": "cli.main#s",
        "cli.self_s": "cli#self",
        "cli.report_bytes": "cli.main#report_bytes",
    }
    out = {name: total[key] / n_ops for name, key in per_op.items()}
    out["filters.fft_points"] = (total["filters.kernel_transfer#fft_points"]
                                 + total["filters.apply_transfer#fft_points"]) / n_ops
    out["voxelgrid.contains_hit_ratio"] = ratio("voxelgrid.contains#inside",
                                                "voxelgrid.contains#points")
    out["minkowski.interface_frac"] = ratio("gradient.norms#nonzero", "gradient.norms#points")
    out["fiberorient.mask_frac"] = ratio("fiberorient.orientation#masked",
                                         "fiberorient.orientation#total")
    out["volio.load_peak_b_per_voxel"] = peak(lambda s: s.name == "volio.load")
    for layer in ("filters", "gradient", "minkowski", "fiberorient"):
        out[f"{layer}.peak_b_per_voxel"] = peak(lambda s, layer=layer: s.layer == layer)
    for layer in LAYERS:
        out[f"{layer}.errors"] = total[layer + "#errors"] / n_ops
    return out
