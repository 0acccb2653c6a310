"""Seeded input generators: determinism, disjointness, bitwise rasterization."""

import itertools
import json

import numpy as np
import pytest

from minkvox import Cylinder, ShapeUnion, voxelize
from perfbench.inputs import ball_packing, fiber_lattice, rasterize
from perfbench.workloads import (
    INPUT,
    SPEC,
    WORKLOADS,
    AnalyzeBalls,
    OrientFibers,
)

SMALL_BALLS = AnalyzeBalls(n=40, volume_fraction=0.08, r_min=3.0, r_max=6.0, gap=2.0)
SMALL_FIBERS = OrientFibers(n=48, cells=(2, 2, 2), diameter=4.0, length=16.0)


def _prepare(workload, seed, path):
    path.mkdir()
    spec = workload.prepare(seed, path)
    (path / SPEC).write_text(json.dumps(spec))
    return [(path / name).read_bytes() for name in (INPUT, INPUT + ".json", SPEC)]


@pytest.mark.parametrize("workload", [SMALL_BALLS, SMALL_FIBERS])
def test_same_seed_gives_identical_files(workload, tmp_path):
    first = _prepare(workload, 7, tmp_path / "a")
    again = _prepare(workload, 7, tmp_path / "b")
    other = _prepare(workload, 8, tmp_path / "c")
    assert first == again
    assert first[0] != other[0]


def test_generate_ops_repeat_per_seed(tmp_path):
    wl = WORKLOADS["generate-fibers"]
    argv = [wl.op(i, {"seed": 3}, tmp_path).argv for i in range(3)]
    assert argv == [wl.op(i, {"seed": 3}, tmp_path).argv for i in range(3)]
    assert argv[0] != argv[2]  # a fresh fiber set per op
    assert argv[0] != wl.op(0, {"seed": 4}, tmp_path).argv
    assert [a[a.index("--depth") + 1] for a in argv] == ["1", "2", "1"]


@pytest.mark.parametrize("seed", range(4))
def test_benchmark_balls_are_disjoint_and_inside(seed):
    wl = WORKLOADS["analyze-balls"]
    balls = ball_packing(np.random.default_rng([seed]), wl.n, wl.volume_fraction,
                         wl.r_min, wl.r_max, wl.gap, wl.margin)
    centers = np.array([b.center for b in balls])
    radii = np.array([b.radius for b in balls])
    assert radii.min() >= wl.r_min and radii.max() <= wl.r_max
    assert (centers - radii[:, None] >= wl.margin).all()
    assert (centers + radii[:, None] <= wl.n - wl.margin).all()
    for i, j in itertools.combinations(range(len(balls)), 2):
        assert np.linalg.norm(centers[i] - centers[j]) >= radii[i] + radii[j] + wl.gap
    fraction = (4 * np.pi / 3 * radii**3).sum() / wl.n**3
    assert wl.volume_fraction <= fraction < wl.volume_fraction + 0.01


@pytest.mark.parametrize("name", ["orient-fibers", "generate-fibers"])
@pytest.mark.parametrize("seed", range(3))
def test_benchmark_fibers_are_disjoint_and_inside(name, seed):
    wl = WORKLOADS[name]
    fibers = fiber_lattice(np.random.default_rng([seed]), wl.n, wl.cells, wl.diameter,
                           wl.length, wl.spread, wl.margin)
    assert len(fibers) == np.prod(wl.cells)
    boxes = [f.bounds() for f in fibers]
    for lo, hi in boxes:
        assert (lo >= wl.margin / 2).all() and (hi <= wl.n - wl.margin / 2).all()
    for (lo1, hi1), (lo2, hi2) in itertools.combinations(boxes, 2):
        # bounding boxes apart by the margin along at least one axis
        assert ((lo2 - hi1 >= wl.margin) | (lo1 - hi2 >= wl.margin)).any()
    axes = np.array([f.axis for f in fibers])
    assert len({tuple(a) for a in axes}) == len(fibers)
    assert (axes[:, 0] > 0.5).all()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_rasterize_matches_voxelize_for_balls(depth):
    wl = SMALL_BALLS
    balls = ball_packing(np.random.default_rng([1]), wl.n, wl.volume_fraction,
                         wl.r_min, wl.r_max, wl.gap, wl.margin)
    dims = (wl.n,) * 3
    fast = rasterize(balls, dims, 1.0, depth)
    ref = voxelize(ShapeUnion(tuple(balls)), dims, 1.0, depth).values
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("depth", [1, 2])
def test_rasterize_matches_voxelize_for_fibers(depth):
    wl = SMALL_FIBERS
    fibers = fiber_lattice(np.random.default_rng([2]), wl.n, wl.cells, wl.diameter,
                           wl.length, wl.spread, wl.margin)
    # a non-unit spacing and a non-cubic box exercise the index arithmetic
    dims = (48, 50, 52)
    fast = rasterize(fibers, dims, 1.0, depth)
    ref = voxelize(ShapeUnion(tuple(fibers)), dims, 1.0, depth).values
    assert np.array_equal(fast, ref)
    assert 0 < fast.mean() < 0.1
    scaled = [Cylinder(tuple(0.5 * v for v in f.center), f.axis, f.length / 2,
                       f.diameter / 2) for f in fibers]
    fast = rasterize(scaled, dims, 0.5, depth)
    ref = voxelize(ShapeUnion(tuple(scaled)), dims, 0.5, depth).values
    assert np.array_equal(fast, ref)


def test_rasterize_refuses_overlapping_shapes():
    shapes = [Cylinder((8.0, 8.0, 8.0), (1.0, 0.0, 0.0), 8.0, 4.0),
              Cylinder((8.0, 8.0, 8.0), (0.0, 1.0, 0.0), 8.0, 4.0)]
    with pytest.raises(ValueError, match="overlap"):
        rasterize(shapes, (16, 16, 16), 1.0, 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_arguments_parse_back_exactly(name, tmp_path):
    from minkvox.cli import build_parser

    wl = WORKLOADS[name]
    parser = build_parser()
    for seed in range(6):
        spec = {"seed": seed}
        if name == "orient-fibers":
            fibers = fiber_lattice(np.random.default_rng([seed]), wl.n, wl.cells,
                                   wl.diameter, wl.length, wl.spread, wl.margin)
            spec["axes"] = [list(f.axis) for f in fibers]
        elif name == "analyze-balls":
            spec["radii"] = [8.0]
        for i in range(4):
            args = parser.parse_args(wl.op(i, spec, tmp_path).argv)
            if name == "generate-fibers":
                fibers = fiber_lattice(np.random.default_rng([seed, i]), wl.n, wl.cells,
                                       wl.diameter, wl.length, wl.spread, wl.margin)
                assert [tuple(f) for f in args.fiber] == [f.axis + f.center for f in fibers]


@pytest.mark.parametrize("value", [-5.2e-05, 1e-20, -0.1, 6.0, 0.1 + 0.2, 123456.789])
def test_float_arguments_are_exact_and_never_look_like_flags(value):
    import argparse

    from perfbench.workloads import _arg

    text = _arg(value)
    assert float(text) == value and "e" not in text
    parser = argparse.ArgumentParser()
    parser.add_argument("--v", type=float, nargs=2)
    assert parser.parse_args(["--v", text, text]).v == [value, value]
