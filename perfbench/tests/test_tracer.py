"""Span arithmetic, repeatable counts, and the restore of every patched name."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import minkvox
from perfbench import bench
from perfbench import tracer as tr
from perfbench.workloads import SPEC, AnalyzeBalls, GenerateFibers, OrientFibers

ROOT = bench.ROOT

# small versions of the three workloads; the bands only need to admit them
SMALL = {
    "analyze-balls": AnalyzeBalls(n=40, volume_fraction=0.08, r_min=3.0, r_max=6.0,
                                  gap=2.0, bands=(("none", 1.0), ("ball", 1.0),
                                                  ("gaussian", 1.0))),
    "orient-fibers": OrientFibers(n=48, cells=(2, 2, 2), diameter=4.0, length=16.0, band=1.0),
    "generate-fibers": GenerateFibers(n=32, cells=(1, 2, 2), diameter=4.0, length=12.0,
                                      band=1.0),
}


def _span(name, parent, start, end, op=0):
    return tr.Span(name, op, parent, start, end)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("cli.main", None, 0.0, 10.0),
        _span("volio.load", 0, 1.0, 4.0),
        _span("voxelgrid.grid_init", 1, 2.0, 3.0),
        _span("filters.fft_convolve", 0, 5.0, 9.0),
        _span("filters.apply_transfer", 3, 5.5, 7.0),
        _span("filters.apply_transfer", 3, 7.0, 8.5),
    ]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.5, 1.5]
    assert sum(tr.self_times(spans)) == spans[0].duration
    assert bench._self_times_add_up(spans)


def test_self_times_count_overlapping_and_overhanging_children_once():
    spans = [
        _span("cli.main", None, 0.0, 10.0),
        _span("a.x", 0, 1.0, 4.0),
        _span("a.y", 0, 3.0, 6.0),  # overlaps a.x
        _span("a.z", 0, 8.0, 12.0),  # runs past the parent's end
    ]
    assert tr.self_times(spans)[0] == 10.0 - 5.0 - 2.0
    assert not bench._self_times_add_up(spans)


def test_layer_metrics_average_per_op_and_take_peak_per_voxel():
    spans = [
        _span("cli.main", None, 0.0, 4.0, op=1),
        _span("filters.apply_transfer", 0, 1.0, 2.0, op=1),
        _span("cli.main", None, 10.0, 12.0, op=2),
        _span("fiberorient.orientation", 2, 10.5, 11.5, op=2),
        _span("filters.apply_transfer", 3, 10.6, 10.8, op=2),
    ]
    spans[1].counts["fft_points"] = 16
    spans[1].peak_bytes = 800
    spans[4].counts["fft_points"] = 16
    spans[4].peak_bytes = 100
    spans[4].error = True
    m = tr.layer_metrics(spans, {1: 8, 2: 8})
    assert m["cli.main_s"] == 3.0
    assert m["filters.apply_transfer_calls"] == 1.0
    assert m["filters.fft_points"] == 16.0
    assert m["fiberorient.blur_calls"] == 0.5
    assert m["filters.peak_b_per_voxel"] == 100.0
    assert m["filters.errors"] == 0.5
    assert m["cli.self_s"] == pytest.approx((3.0 + 1.0) / 2)
    names = {name for name, _, _ in tr.PER_LAYER_METRICS}
    assert set(m) | {"trace.overhead_frac"} == names


def _prepared(name, seed, tmp_path):
    wl = SMALL[name]
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir()
    spec = dict(wl.prepare(seed, workdir), seed=seed)
    (workdir / SPEC).write_text(json.dumps(spec))
    return wl, spec, workdir


def _snapshot():
    """Every attribute of every minkvox module and of the classes they define."""
    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "minkvox" and not mod_name.startswith("minkvox."):
            continue
        for attr, obj in vars(mod).items():
            seen[(mod_name, attr)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("minkvox"):
                for cattr, cobj in vars(obj).items():
                    seen[(mod_name, attr, cattr)] = cobj
    return seen


def _assert_same(before, after):
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


COUNT_METRICS = [name for name, unit, _ in tr.PER_LAYER_METRICS
                 if name.endswith("_calls") or name in ("filters.fft_points",
                                                        "voxelgrid.contains_points")]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_and_patches_are_restored(name, tmp_path):
    wl, spec, workdir = _prepared(name, 5, tmp_path)
    before = _snapshot()
    runs = []
    for _ in range(2):
        tracer, results = bench.traced_cycles(wl, spec, workdir, seconds=0.0)
        assert all(r.ok for r in results)
        assert bench._self_times_add_up(tracer.spans)
        runs.append(tr.layer_metrics(tracer.spans, {r.index: r.voxels for r in results}))
    _assert_same(before, _snapshot())
    assert {k: runs[0][k] for k in COUNT_METRICS} == {k: runs[1][k] for k in COUNT_METRICS}
    assert runs[0]["cli.main_s"] > 0
    layer_of_op = {"analyze-balls": "minkowski.analyze_s",
                   "orient-fibers": "fiberorient.orientation_s",
                   "generate-fibers": "voxelgrid.voxelize_s"}
    assert runs[0][layer_of_op[name]] > 0


def test_untraced_run_leaves_minkvox_untouched(tmp_path, monkeypatch):
    wl, spec, workdir = _prepared("analyze-balls", 5, tmp_path)
    before = _snapshot()
    installed = []
    monkeypatch.setattr(tr.Tracer, "installed", lambda *a: installed.append(a))
    results = bench.run_cycles(wl, spec, workdir, len(wl.kinds), 0.0)
    assert [r.ok for r in results] == [True] * len(wl.kinds)
    assert installed == []
    _assert_same(before, _snapshot())


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-balls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_malformed_or_failing_ops_count_as_failed(tmp_path):
    wl, spec, workdir = _prepared("analyze-balls", 5, tmp_path)
    op = wl.op(0, spec, workdir)
    assert bench.run_op(0, op).ok
    bad_band = dataclasses.replace(op, band=0.0)
    result = bench.run_op(0, bad_band)
    assert not result.ok and result.ref_err > 0
    for check in (lambda text: json.loads(text)["missing"], lambda text: float("x")):
        assert not bench.run_op(0, dataclasses.replace(op, check=check)).ok
    missing = dataclasses.replace(op, argv=["analyze", "--in", str(tmp_path / "nope.raw")])
    result = bench.run_op(0, missing)
    assert not result.ok and result.ref_err is None


def test_span_memory_peaks_nest():
    import tracemalloc

    import numpy as np

    tracer = tr.Tracer()
    child = tracer.wrap("b.child", lambda: float(np.ones(1 << 20).sum()))

    def parent():
        kept = np.zeros(1 << 19)
        return child() + kept.sum()

    traced_parent = tracer.wrap("a.parent", parent)
    tracemalloc.start()
    try:
        with tracer.op_scope(1):
            traced_parent()
    finally:
        tracemalloc.stop()
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert 8 << 20 <= inner.peak_bytes < 9 << 20
    assert 12 << 20 <= outer.peak_bytes < 13 << 20
