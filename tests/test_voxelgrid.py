import copy
import pickle

import numpy as np
import pytest

from minkvox import (
    Ball,
    BallKernel,
    Cylinder,
    GaussianKernel,
    Laminate,
    ShapeUnion,
    VoxelGrid,
    analyze,
    color_steps,
    load_volume,
    shape_in_box,
    store_volume,
    structure_tensor_orientation,
    voxelize,
)

from minkvox.gradient import SLAB

from gridmakers import (
    color_set,
    cube_symmetries,
    displaced_ball,
    fiber_lattice_64,
    quantize,
    random_grid,
    shift,
    traced_peak,
)


def test_color_set_sizes():
    assert color_steps(1) == 1
    assert color_steps(2) == 7
    assert color_steps(4) == 63
    assert np.array_equal(color_set(1), [0.0, 1.0])
    cs = color_set(2)
    assert len(cs) == 8
    assert np.allclose(np.diff(cs), 1 / 7)
    assert cs[0] == 0.0 and cs[-1] == 1.0


def test_grid_invariants_enforced():
    ok = VoxelGrid(np.zeros((2, 2, 2)), spacing=1.0, depth=1)
    assert ok.dims == (2, 2, 2)
    with pytest.raises(ValueError, match="expected a 3D value array"):
        VoxelGrid(np.zeros((2, 2)), spacing=1.0, depth=1)
    with pytest.raises(ValueError):
        VoxelGrid(np.zeros((1, 2, 2)), spacing=1.0, depth=1)
    with pytest.raises(ValueError):
        VoxelGrid(np.full((2, 2, 2), 1.5), spacing=1.0, depth=None)
    with pytest.raises(ValueError):
        VoxelGrid(np.full((2, 2, 2), -0.1), spacing=1.0, depth=None)
    # NaN fails every range comparison, so it needs its own check
    with pytest.raises(ValueError):
        VoxelGrid(np.full((2, 2, 2), np.nan), spacing=1.0, depth=None)
    vals = np.full((2, 2, 2), 0.5)
    vals[1, 0, 1] = np.nan
    with pytest.raises(ValueError):
        VoxelGrid(vals, spacing=1.0, depth=None)
    # 0.5 is not in the p=1 color set {0, 1}
    with pytest.raises(ValueError):
        VoxelGrid(np.full((2, 2, 2), 0.5), spacing=1.0, depth=1)
    with pytest.raises(ValueError):
        VoxelGrid(np.zeros((2, 2, 2)), spacing=0.0, depth=1)


def test_float32_color_images_stored_as_colors():
    # an f32 payload holds each color k/m as its float32 image; the grid keeps k/m
    for depth in (1, 2, 3, 4):
        colors = color_set(depth)
        g = VoxelGrid(np.tile(colors.astype(np.float32), (2, 2, 1)), spacing=1.0,
                      depth=depth)
        assert g.values.dtype == np.float64
        for row in g.values.reshape(-1, len(colors)):
            assert np.array_equal(row, np.arange(len(colors)) / color_steps(depth))


def test_grid_values_are_readonly():
    g = VoxelGrid(np.zeros((3, 3, 3)), spacing=1.0, depth=1)
    with pytest.raises(ValueError):
        g.values[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        g.index[0, 0, 0] = 1
    for name in ("spacing", "depth", "index", "values"):  # a grid is frozen
        with pytest.raises(AttributeError):
            setattr(g, name, None)


def test_grids_pickle_and_copy():
    # a frozen dataclass: pickle and copy restore its fields through __dict__, so a
    # grid can go to a worker process
    for g in (displaced_ball(4, 2), VoxelGrid(np.full((3, 3, 3), 0.25), 0.5, None)):
        for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert (twin.dims, twin.spacing, twin.depth) == (g.dims, g.spacing, g.depth)
            assert twin.values.tobytes() == g.values.tobytes()
            assert (twin.index is None) == (g.index is None), g.depth
            with pytest.raises(AttributeError):
                twin.spacing = 1.0
        assert repr(g).startswith("VoxelGrid(_data=array(")


def test_grid_freezes_its_own_copy_not_the_callers_array():
    # a C-contiguous float64 array (or a view of one) would pass through as is
    for depth in (None, 1):
        a = np.zeros((2, 3, 4))
        grids = [VoxelGrid(a, 1.0, depth), VoxelGrid(a[:, :, :], 1.0, depth)]
        a[0, 0, 0] = 1.0
        for g in grids:
            assert not g.values.flags.writeable
            assert not g.values.any(), depth


def test_grid_owns_its_values_for_every_input_layout():
    # whatever the input's layout, dtype or flags, the grid holds the same bits
    # in its own C float64 array; the caller's array is never written or frozen
    rng = np.random.default_rng(15)
    dims = (3, 20, 70)  # more than one copy block along y and z
    colors = rng.integers(0, 8, dims) / 7
    exact = rng.random(dims).astype(np.float32).astype(np.float64)
    for depth, want in ((2, colors), (None, exact)):
        image = want.astype(np.float32).astype(np.float64)  # as an f32 payload holds it
        big = np.zeros((3, 40, 140))
        big[:, ::2, ::2] = image
        inputs = {
            "C float64": image.copy(),
            "F float32 view": image.astype(np.float32).ravel(order="F").reshape(dims, order="F"),
            "read-only buffer": np.frombuffer(image.tobytes(), np.float64).reshape(dims),
            "strided view": big[:, ::2, ::2],
        }
        grids = []  # all kept, so that no grid reuses a freed one's memory
        for name, a in inputs.items():
            before, writeable = a.copy(), a.flags.writeable
            g = VoxelGrid(a, 1.0, depth)
            grids.append(g)
            case = (depth, name)
            assert g.values.tobytes() == want.tobytes(), case
            assert a.tobytes() == before.tobytes() and a.flags.writeable == writeable, case
            assert g.values.flags.c_contiguous and g.values.dtype == np.float64, case
            assert not g.values.flags.writeable, case
            assert not np.may_share_memory(g.values, a), case


def test_grid_copies_a_callers_array_once():
    # one grid-sized allocation per construction from a caller's array, whatever
    # its layout and dtype: the u8 index of a depth-2 grid beside one x-layer of
    # check scratch (1.15 B/voxel; 1.45 for the strided layers of an F-ordered
    # float32 view), a seventh and a sixth of the 8.15 and 8.48 that a float64 copy
    # took, and a continuous grid's float64 copy (8.0); a float64 copy beside the
    # index would peak at 9 B/voxel or more, a second copy at 16
    rng = np.random.default_rng(16)
    dims = (64, 64, 64)
    colors = rng.integers(0, 8, dims) / 7
    inputs = {
        "C float64 colors": (colors, 2, 1.4),
        "F float32 view": (colors.astype(np.float32).ravel(order="F").reshape(dims, order="F"),
                           2, 2.1),
        "continuous": (rng.random(dims), None, 9.6),
    }
    for name, (a, depth, bound) in inputs.items():
        peak = traced_peak(VoxelGrid, a, 1.0, depth)
        assert peak / a.size <= bound, (name, peak / a.size)


def test_slabs_read_the_stored_numbers_periodically():
    # every reader's one slab iterator: each s is the stored numbers of layers
    # x0 - halo .. x1 + halo taken with wrap, the slabs tile 0..nx, and a depth-p
    # grid's indices come signed, room for the 7-point sums of ±7 m; nx runs below
    # the slab and below 2 halo, and depth 41 has a u32 index
    rng = np.random.default_rng(17)
    for depth in (1, 2, 3, 41, None):
        for nx in (2, 3, SLAB + 1, 2 * SLAB + 3):
            dims = (nx,) + tuple(int(n) for n in rng.integers(2, 7, size=2))
            g = random_grid(rng, dims, depth=depth)
            stored = g.values if depth is None else g.index
            for halo in (0, 1, 2):
                ends = []
                for x0, x1, s in g.slabs(halo):
                    ref = np.take(stored, range(x0 - halo, x1 + halo), axis=0, mode="wrap")
                    assert np.array_equal(s, ref) and s.shape == ref.shape, (depth, nx, halo)
                    assert 0 < x1 - x0 <= SLAB
                    if depth is None:
                        assert s.dtype == np.float64
                        inside = 0 <= x0 - halo and x1 + halo <= nx
                        assert np.shares_memory(s, stored) == inside, (nx, halo, x0)
                    else:
                        m, info = color_steps(depth), np.iinfo(s.dtype)
                        assert info.min <= -7 * m and 7 * m <= info.max, (depth, s.dtype)
                    ends.append((x0, x1))
                assert [x for x0, x1 in ends for x in range(x0, x1)] == list(range(nx))
    assert next(random_grid(rng, (3, 3, 3), depth=2).slabs(1))[2].dtype == np.int8
    assert next(random_grid(rng, (3, 3, 3), depth=3).slabs(1))[2].dtype == np.int16


def test_depth_p_grids_run_without_their_float_values(tmp_path, monkeypatch):
    # the program reads a depth-p grid's index: with ``values`` raising, analyze on
    # each route, fiber-orient, store and load give what they gave before, bitwise
    grid = displaced_ball(8, 2)  # 12^3, room for the 3-sigma Gaussian 1.2
    binary = displaced_ball(8, 1)
    kernels = (None, BallKernel(1.2), GaussianKernel(1.2))

    def run(tag):
        reports = [analyze(grid, k) for k in kernels]
        reports += [structure_tensor_orientation(grid, k, GaussianKernel(1.5))
                    for k in (None, BallKernel(1.2))]
        payloads = []
        for depth, g, dtype in ((2, grid, "f32"), (1, binary, "u8")):
            store_volume(g, tmp_path / f"{tag}{depth}.raw", dtype=dtype)
            payloads.append((tmp_path / f"{tag}{depth}.raw").read_bytes())
            assert np.array_equal(load_volume(tmp_path / f"{tag}{depth}.raw").index, g.index)
        return reports, payloads

    expected = run("a")
    floats = VoxelGrid.values

    def raising(self):
        if self.depth is not None:
            raise AssertionError("a depth-p grid's float values were read")
        return floats.fget(self)

    monkeypatch.setattr(VoxelGrid, "values", property(raising))
    got = run("b")
    assert got[1] == expected[1]
    for a, b in zip(got[0][:3], expected[0][:3]):
        assert (a.volume, a.surface_area, a.route) == (b.volume, b.surface_area, b.route)
        assert np.array_equal(a.normal_tensor.mat, b.normal_tensor.mat)
    for a, b in zip(got[0][3:], expected[0][3:]):
        assert np.array_equal(a.a_est.mat, b.a_est.mat)
    assert [r.route for r in got[0][:3]] == ["integer", "integer", "fft"]


def test_voxelize_covering_ball_all_ones():
    # radius >= box diagonal: every sample point is inside, any depth
    n = 6
    for p in (1, 3):
        g = voxelize(Ball(center=(3.0, 3.0, 3.0), radius=11.0), (n, n, n),
                     1.0, depth=p)
        assert np.all(g.values == 1.0), p


def test_voxelize_ball_volume_fraction():
    # D = 16 um ball centered in a 24 um box at h = D/8: the solid occupies
    # about 15.5% of the box
    g = voxelize(Ball(center=(12.0, 12.0, 12.0), radius=8.0), (12, 12, 12),
                 2.0, depth=4)
    frac = g.values.mean()
    assert abs(frac - 0.155) <= 0.005


def test_voxelize_subvoxel_displacement_richer_colors():
    center = (4.3, 4.1, 4.2)
    g1 = voxelize(Ball(center=center, radius=2.0), (9, 9, 9), 1.0, depth=1)
    g4 = voxelize(Ball(center=center, radius=2.0), (9, 9, 9), 1.0, depth=4)
    assert set(np.unique(g1.values)) == {0.0, 1.0}
    assert len(np.unique(g4.values)) > 2
    assert g4.depth == 4


def test_shape_in_box_predicate():
    assert shape_in_box(Ball(center=(2.0, 2.0, 2.0), radius=1.5), (4, 4, 4), 1.0)
    assert not shape_in_box(Ball(center=(2.0, 2.0, 2.0), radius=3.0), (4, 4, 4), 1.0)
    assert not shape_in_box(Ball(center=(8.0, 8.0, 8.0), radius=1.0), (4, 4, 4), 1.0)
    # laminates are unbounded transversally but still box-checkable
    assert shape_in_box(Laminate(axis=0, slabs=((1.0, 3.0),)), (4, 4, 4), 1.0)
    assert not shape_in_box(Laminate(axis=0, slabs=((1.0, 5.0),)), (4, 4, 4), 1.0)


def test_voxelize_argument_validation():
    ball = Ball(center=(2.0, 2.0, 2.0), radius=1.0)
    with pytest.raises(ValueError):
        voxelize(ball, (0, 4, 4), 1.0, 1)
    with pytest.raises(ValueError):
        voxelize(ball, (4, 4, 4), -1.0, 1)
    with pytest.raises(ValueError):
        voxelize(ball, (4, 4, 4), 1.0, 0)
    # one voxel layer at depth 400 holds 4.1e9 sub-samples; refused up front
    def refused():
        with pytest.raises(ValueError, match="sub-samples per voxel layer"):
            voxelize(Ball(center=(4.0,) * 3, radius=2.0), (8, 8, 8), 1.0, 400)

    peak = traced_peak(refused)
    assert peak < 1 << 20


def test_voxelize_mean_error_improves_with_depth():
    # sub-voxel sampling beats binary sampling for the volume fraction of a
    # ball at these resolutions (at isolated resolutions binary sampling can
    # win by a lucky cancellation, so the set is fixed, not exhaustive)
    exact = 4 / 3 * np.pi * 8.0**3
    for res in (4, 6, 12, 16):
        errs = {}
        for p in (1, 4):
            g = displaced_ball(res, p)
            errs[p] = abs(g.values.mean() - exact / float(np.prod(np.asarray(g.dims) * g.spacing)))
        assert errs[4] <= errs[1], (res, errs)


def test_shape_validation():
    with pytest.raises(ValueError):
        Ball(center=(0.0, 0.0, 0.0), radius=-1.0)
    with pytest.raises(ValueError):
        Cylinder(center=(0.0,) * 3, axis=(2.0, 0.0, 0.0), length=1.0,
                 diameter=1.0)
    with pytest.raises(ValueError):
        Cylinder(center=(0.0,) * 3, axis=(1.0, 0.0, 0.0), length=-1.0,
                 diameter=1.0)
    with pytest.raises(ValueError, match="unit vector"):
        Cylinder(center=(0.0,) * 3, axis=(np.nan, 0.0, 0.0), length=1.0,
                 diameter=1.0)
    # shape_in_box passes non-finite bounds, so the shapes refuse them
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="center .* is not finite"):
            Ball(center=(1.0, bad, 1.0), radius=1.0)
        with pytest.raises(ValueError, match="center .* is not finite"):
            Cylinder(center=(bad, 1.0, 1.0), axis=(0.0, 0.0, 1.0), length=1.0,
                     diameter=1.0)
    with pytest.raises(ValueError):
        Laminate(axis=3, slabs=((0.0, 1.0),))
    with pytest.raises(ValueError):
        ShapeUnion(())


def _brute_force_voxelize(shape, dims, spacing, depth):
    # every sample point of the full fine grid, no chunking, no bounding boxes
    p = depth
    fine = spacing / p
    cx, cy, cz = [(np.arange(n * p) + 0.5) * fine for n in dims]
    inside = shape.contains(cx[:, None, None], cy[None, :, None], cz[None, None, :])
    nx, ny, nz = dims
    frac = inside.reshape(nx, p, ny, p, nz, p).mean(axis=(1, 3, 5))
    m = color_steps(p)
    return np.floor(frac * m + 0.5) / m


_BITWISE_CASES = {
    "overlapping-balls": (
        ShapeUnion((Ball((5.0, 6.0, 6.0), 3.5), Ball((7.5, 6.0, 6.5), 3.0))),
        (13, 12, 12), 1.0, 3,
    ),
    "laminate-and-nested-union": (
        ShapeUnion((
            Laminate(axis=1, slabs=((1.2, 3.7), (8.0, 9.1))),
            ShapeUnion((Ball((4.0, 5.0, 5.0), 2.2),
                        Cylinder((6.0, 5.5, 5.0), (0.0, 0.6, 0.8), 6.0, 2.0))),
        )),
        (11, 11, 10), 1.0, 2,
    ),
    "spacing-0.7": (
        ShapeUnion((Ball((3.1, 3.3, 3.6), 1.9),
                    Cylinder((4.0, 4.2, 4.1), (0.6, 0.0, 0.8), 4.5, 1.4))),
        (12, 12, 12), 0.7, 4,
    ),
    # the sample points (4.5 +- 2, 4.5, 4.5) etc. lie exactly on the surface
    "surface-through-samples-depth1": (Ball((4.5, 4.5, 4.5), 2.0), (9, 9, 9), 1.0, 1),
    "surface-through-samples-depth2": (Ball((4.25, 4.25, 4.25), 1.5), (9, 9, 9), 1.0, 2),
    "touching-box-faces": (
        ShapeUnion((Ball((3.0, 5.0, 5.0), 3.0),
                    Cylinder((5.0, 5.0, 8.0), (0.0, 0.0, 1.0), 4.0, 3.0))),
        (10, 10, 10), 1.0, 3,
    ),
    "outside-the-grid": (
        ShapeUnion((Ball((30.0, 3.0, 3.0), 2.0), Ball((3.0, 3.0, 3.0), 1.5))),
        (6, 6, 6), 1.0, 2,
    ),
    # 69^3 at depth 4 splits into z-chunks of 55 and 14 layers
    "several-z-chunks": (
        ShapeUnion((Ball((34.0, 34.0, 50.0), 12.0), Ball((20.0, 20.0, 62.0), 5.5),
                    Ball((40.0, 30.0, 20.0), 9.3))),
        (69, 69, 69), 1.0, 4,
    ),
    # p^3 = 343 solid sub-samples do not fit into one byte
    "depth-7": (Ball((3.1, 3.4, 2.9), 2.2), (6, 6, 7), 1.0, 7),
    # four crossing pairs whose boxes overlap; most voxels lie outside every box
    "sparse-crossing-cylinders": (
        ShapeUnion(tuple(
            Cylinder((cx, cy, cz), axis, 7.0, 1.3)
            for cx, cy, cz in ((5.0, 5.0, 5.0), (18.5, 6.0, 17.0),
                               (6.5, 18.0, 12.0), (17.0, 17.5, 5.5))
            for axis in ((0.8, 0.6, 0.0), (0.0, 0.6, -0.8))
        )),
        (24, 24, 24), 1.0, 2,
    ),
    # the slab's box covers the whole y and z axes; 64 x 64 at depth 4 makes
    # z-chunks of 64 and 2 layers; the ball crosses between them and into the slab
    "laminate-across-z-chunks": (
        ShapeUnion((Laminate(axis=0, slabs=((10.3, 20.6),)), Ball((22.0, 40.0, 61.0), 4.5))),
        (64, 64, 66), 1.0, 4,
    ),
}


@pytest.mark.parametrize("case", sorted(_BITWISE_CASES))
def test_voxelize_bitwise_equals_brute_force(case):
    shape, dims, spacing, depth = _BITWISE_CASES[case]
    g = voxelize(shape, dims, spacing, depth)
    assert np.array_equal(g.values, _brute_force_voxelize(shape, dims, spacing, depth))
    assert 0.0 < g.values.mean() < 1.0


def test_voxelize_memory_peak():
    # counts 1 B/voxel, the fine block of one z-chunk at most 1 (nx ny nz
    # booleans) and the shape tests of a member's box, then the u8 index beside
    # the counts: 4.22 at depth 2 and 4.82 at depth 3, with 0.28 of margin, half
    # of the 9.32 and 9.31 that a float64 output took.  A block of 2^24 booleans
    # took 12.5 and 39.4, a second, snapped copy of a float64 output 17.2, a mean
    # over the whole fine block into a float64 fraction grid 33
    shape = fiber_lattice_64()
    for depth in (2, 3):
        peak = traced_peak(voxelize, shape, (64, 64, 64), 1.0, depth)
        assert peak / 64**3 <= 5.1, (depth, peak / 64**3)


def test_laminate_voxelization_binary():
    lam = Laminate(axis=2, slabs=((2.0, 5.0),))
    g = voxelize(lam, (4, 4, 8), 1.0, depth=1)
    # voxel centers at z + 0.5: inside for z in {2, 3, 4}
    expect = np.zeros((4, 4, 8))
    expect[:, :, 2:5] = 1.0
    assert np.array_equal(g.values, expect)


def test_quantize_rules():
    g = VoxelGrid(np.full((2, 2, 2), 0.49), spacing=1.0, depth=None)
    assert np.all(quantize(g, 1).values == 0.0)
    g = VoxelGrid(np.full((2, 2, 2), 0.5), spacing=1.0, depth=None)
    assert np.all(quantize(g, 1).values == 1.0)  # tie rounds up
    g = VoxelGrid(np.full((2, 2, 2), 0.30), spacing=1.0, depth=None)
    q = quantize(g, 2)
    assert np.all(q.values == 2 / 7)
    assert q.depth == 2


def test_quantize_idempotent():
    rng = np.random.default_rng(101)
    for _ in range(20):
        g = VoxelGrid(rng.random((6, 6, 6)), spacing=1.0, depth=None)
        p = int(rng.integers(1, 6))
        q1 = quantize(g, p)
        q2 = quantize(q1, p)
        assert np.array_equal(q1.values, q2.values)


def test_shift_identity_and_periodicity():
    rng = np.random.default_rng(7)
    g = VoxelGrid(rng.random((5, 6, 7)), spacing=1.0, depth=None)
    assert np.array_equal(shift(g, (0, 0, 0)).values, g.values)
    assert np.array_equal(shift(g, (5, 6, 7)).values, g.values)
    assert np.array_equal(shift(g, (-5, 12, 70)).values, g.values)


def test_shift_moves_single_voxel():
    vals = np.zeros((6, 6, 6))
    vals[1, 2, 3] = 1.0
    g = VoxelGrid(vals, spacing=1.0, depth=1)
    s = shift(g, (2, 0, 0))
    assert s.values[3, 2, 3] == 1.0
    assert s.values.sum() == 1.0


def test_shift_composes_and_preserves_values():
    rng = np.random.default_rng(21)
    g = VoxelGrid(rng.random((5, 4, 6)), spacing=1.0, depth=None)
    for _ in range(10):
        a = tuple(int(v) for v in rng.integers(-7, 8, size=3))
        b = tuple(int(v) for v in rng.integers(-7, 8, size=3))
        lhs = shift(shift(g, a), b)
        rhs = shift(g, tuple(x + y for x, y in zip(a, b)))
        assert np.array_equal(lhs.values, rhs.values)
        assert np.array_equal(np.sort(lhs.values, axis=None),
                              np.sort(g.values, axis=None))


def test_cube_symmetries_group():
    syms = list(cube_symmetries())
    assert len(syms) == 48
    mats = [m for m, _ in syms]
    seen = {m.tobytes() for m in mats}
    assert len(seen) == 48
    for m in mats:
        assert np.array_equal(m @ m.T, np.eye(3))  # signed permutation
        assert abs(np.linalg.det(m)) == 1.0
        for o in mats:
            assert (m @ o).tobytes() in seen  # closure
    assert np.eye(3).tobytes() in seen


def test_cube_symmetries_act_consistently():
    # the array op realizes (rho . f)(x) = f(rho^T x) for rho = mat, so the
    # coordinate fields transform with the transposed matrix
    n = 4
    idx = np.indices((n, n, n)).astype(float)
    centered = idx - (n - 1) / 2  # symmetric about the grid center
    for mat, apply in cube_symmetries():
        moved = np.stack([apply(c) for c in centered])
        expect = np.einsum("ji,jxyz->ixyz", mat, centered)
        assert np.array_equal(moved, expect), mat


def test_cube_symmetries_apply_handles_vector_fields():
    rng = np.random.default_rng(5)
    field = rng.random((4, 4, 4, 3))
    for mat, apply in cube_symmetries():
        out = apply(field)
        assert out.shape == field.shape
        assert np.array_equal(np.sort(out, axis=None),
                              np.sort(field, axis=None))
