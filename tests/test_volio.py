import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkvox import (
    Ball,
    VolumeFormatError,
    VoxelGrid,
    analyze,
    color_steps,
    load_volume,
    store_volume,
    voxelize,
)
from minkvox import volio
from minkvox.cli import main
from minkvox.voxelgrid import SPACING_RANGE_UM

from gridmakers import color_set, displaced_ball, fiber_lattice_64, random_grid, traced_peak


def test_u8_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(30)
    vals = (rng.random((4, 4, 4)) < 0.5).astype(float)
    g = VoxelGrid(vals, spacing=0.7, depth=1)
    f = tmp_path / "vol.raw"
    store_volume(g, f)
    back = load_volume(f)
    assert np.array_equal(back.values, g.values)
    assert back.spacing == 0.7
    assert back.depth == 1


def test_u8_scale_rule(tmp_path):
    f = tmp_path / "v.raw"
    f.write_bytes(bytes([255, 0, 128] + [0] * 5))
    (tmp_path / "v.raw.json").write_text(json.dumps({
        "dims": [2, 2, 2], "spacing_um": 1.0, "depth": "continuous",
        "dtype": "u8", "order": "x-fastest"}))
    g = load_volume(f)
    assert g.values[0, 0, 0] == 1.0
    assert g.values[1, 0, 0] == 0.0
    assert g.values[0, 1, 0] == 128 / 255


def test_payload_is_x_fastest(tmp_path):
    vals = np.zeros((3, 2, 2))
    vals[1, 0, 0] = 1.0  # neighbor along x must sit at byte offset 1
    vals[0, 1, 0] = 1.0  # y neighbor at offset nx
    vals[0, 0, 1] = 1.0  # z neighbor at offset nx*ny
    g = VoxelGrid(vals, spacing=1.0, depth=1)
    f = tmp_path / "o.raw"
    store_volume(g, f)
    raw = f.read_bytes()
    assert len(raw) == 12
    assert raw[1] == 255 and raw[3] == 255 and raw[6] == 255
    assert sum(raw) == 3 * 255


def test_u16_round_trip(tmp_path):
    vals = np.arange(8.0).reshape(2, 2, 2) / 65535 * 9362
    g = VoxelGrid(vals, spacing=1.0, depth=None)
    f = tmp_path / "w.raw"
    store_volume(g, f, dtype="u16")
    back = load_volume(f)
    assert np.array_equal(back.values, g.values)
    assert back.depth is None
    assert (tmp_path / "w.raw.json").exists()
    meta = json.loads((tmp_path / "w.raw.json").read_text())
    assert meta["dtype"] == "u16" and meta["depth"] == "continuous"


def test_integer_dtype_refuses_lossy_store(tmp_path):
    g = displaced_ball(4, 2)  # values k/7: not representable in 8 or 16 bits
    before = g.values.copy()
    with pytest.raises(VolumeFormatError):
        store_volume(g, tmp_path / "x.raw", dtype="u8")
    with pytest.raises(VolumeFormatError):
        store_volume(g, tmp_path / "x.raw", dtype="u16")
    assert np.array_equal(g.values, before)
    assert not (tmp_path / "x.raw").exists()


def test_payload_bytes(tmp_path):
    # the payload of each dtype, formed as rint(values * top) and a Fortran ravel
    rng = np.random.default_rng(32)
    for dtype, top, np_dtype in (("u8", 255, "<u1"), ("u16", 65535, "<u2"),
                                 ("f32", None, "<f4")):
        if top is None:
            g = random_grid(rng, (5, 6, 7))
            expected = g.values.astype(np_dtype)
        else:
            g = VoxelGrid(rng.integers(0, top + 1, (5, 6, 7)) / top, spacing=1.0)
            expected = np.rint(g.values * top).astype(np_dtype)
        f = tmp_path / f"{dtype}.raw"
        store_volume(g, f, dtype=dtype)
        assert f.read_bytes() == expected.ravel(order="F").tobytes(), dtype


def test_store_memory_peak(tmp_path):
    # a u8 store of a 64 x 16 x 256 depth-1 grid, whose z-slab is a quarter of the
    # payload: the 0.25 B/voxel slab buffer and one 8 y-row block of k/m (1 B/voxel
    # here), scaled in place, and its u8 cast measure 1.53, where a float64 grid's
    # block scaled into a copy took 1.65; the bound leaves 0.27 of margin.
    # Whole-grid scaled and check copies plus the payload and its bytes took 17
    lattice = voxelize(fiber_lattice_64(), (64, 64, 64), 1.0, 1)
    grid = VoxelGrid(lattice.values.reshape(64, 16, 256), 1.0, 1)
    peak = traced_peak(store_volume, grid, tmp_path / "f.raw", dtype="u8")
    assert peak / 64**3 <= 1.8, peak / 64**3


def test_f32_round_trip_restores_color_set(tmp_path):
    # 1/7 is not an f32 number, but the grid stores a color's float32 image as
    # the color; auto dtype is f32 for p > 1
    f = tmp_path / "b.raw"
    for depth, dtype in ((2, None), (1, "f32"), (3, None), (4, None)):
        g = displaced_ball(4, depth)
        store_volume(g, f, dtype=dtype)
        back = load_volume(f)
        assert np.array_equal(back.values, g.values), depth
        assert back.depth == depth
        assert json.loads((tmp_path / "b.raw.json").read_text())["dtype"] == "f32"


def test_value_one_ulp_off_color_image_rejected(tmp_path):
    # the grid and the loader alike: the loader used to snap it to the color
    f = tmp_path / "u.raw"
    for depth in (1, 2, 3, 4):
        (tmp_path / "u.raw.json").write_text(json.dumps({
            "dims": [2, 2, 2], "spacing_um": 1.0, "depth": depth,
            "dtype": "f32", "order": "x-fastest"}))
        for image in color_set(depth).astype(np.float32):
            for toward in (0.0, 1.0):
                off = np.nextafter(image, np.float32(toward))
                if off == image:  # no float32 below 0 or above 1 in [0, 1]
                    continue
                payload = np.zeros(8, dtype="<f4")
                payload[5] = off
                with pytest.raises(ValueError, match=f"depth-{depth} color set"):
                    VoxelGrid(payload.reshape(2, 2, 2), spacing=1.0, depth=depth)
                payload.tofile(f)
                with pytest.raises(VolumeFormatError, match=f"depth-{depth} color set"):
                    load_volume(f)


def test_load_memory_peak(tmp_path):
    # f32 loads of 64 x 16 x 256 grids, whose z-slab is a quarter of the payload:
    # the grid's u8 index (1 B/voxel), the 1 B/voxel slab buffer and the slab's
    # indices in payload order (0.25) measure 2.35 and 2.38, a quarter of the 10.03
    # that a float64 grid took; the check's z-layer scratch (1/256 of the grid each)
    # stays below that, also with every voxel off its color.  The bound leaves 0.27
    # of margin.  A float64 grid beside the index, or a whole payload, adds 8 or 3
    dims = (64, 16, 256)
    lattice = voxelize(fiber_lattice_64(), (64, 64, 64), 1.0, 2)
    store_volume(VoxelGrid(lattice.values.reshape(dims), 1.0, 2), tmp_path / "f.raw")
    store_volume(random_grid(np.random.default_rng(3), dims, depth=2), tmp_path / "r.raw")
    for name in ("f.raw", "r.raw"):
        peak = traced_peak(load_volume, tmp_path / name)
        assert peak / 64**3 <= 2.65, (name, peak / 64**3)


def test_wide_color_indices_round_trip_and_sum_exactly(tmp_path):
    # depths 41 (m = 68,920) and 256 (m = 2^24 - 1, the last) hold a u32 index, which
    # store writes to f32 from its values rather than a table of m + 1 colors.  At
    # depth 256 the float32 image of each color k / m lies less than half a step 1 / m
    # from it, 2^23 / m the closest at 0.49999994 steps, so the file loads back the
    # same indices; at depth 257, 98,688 of the colors would not.  No depth has a u64
    # index: depth 1700 is refused
    rng = np.random.default_rng(40)
    for depth in (41, 256):
        m = color_steps(depth)
        k = rng.integers(0, m + 1, (20, 16, 12))
        k.flat[:5] = (0, 1, m // 2 + 1, m - 1, m)
        g = VoxelGrid(k / m, 0.5, depth)
        assert g.index.dtype == np.uint32 and np.array_equal(g.index, k), depth
        store_volume(g, tmp_path / "w.raw")
        back = load_volume(tmp_path / "w.raw")
        assert back.index.dtype == np.uint32 and np.array_equal(back.index, k), depth
        assert analyze(back).volume == int(k.sum()) / m * 0.125, depth
    with pytest.raises(ValueError, match="depth must lie in"):
        VoxelGrid(np.zeros((3, 4, 5)), 0.5, 1700)


def test_f32_continuous_round_trip_close(tmp_path):
    rng = np.random.default_rng(31)
    g = random_grid(rng, (5, 5, 5))
    f = tmp_path / "c.raw"
    store_volume(g, f)
    back = load_volume(f)
    assert back.depth is None
    assert np.abs(back.values - g.values).max() <= 1e-7


def test_unknown_dtype_rejected(tmp_path):
    g = displaced_ball(4, 1)
    with pytest.raises(VolumeFormatError):
        store_volume(g, tmp_path / "y.raw", dtype="u32")


def test_short_payload_reports_lengths(tmp_path):
    g = VoxelGrid(np.zeros((3, 3, 3)), spacing=1.0, depth=1)
    f = tmp_path / "s.raw"
    store_volume(g, f)
    f.write_bytes(f.read_bytes()[:-1])
    with pytest.raises(VolumeFormatError, match="26 bytes, expected 27"):
        load_volume(f)


def test_depth_beyond_distinct_colors_is_a_format_error(tmp_path):
    # from p = 257 on, m = p^3 - 1 >= 2^24 and the colors k / m no longer have distinct
    # float32 images, so an f32 file could load back other indices; p = 208064 (m >=
    # 2^53), 10**110 and 10**400 (an m that overflows a float conversion) lie beyond
    f = tmp_path / "d.raw"
    store_volume(VoxelGrid(np.zeros((2, 2, 2)), spacing=1.0, depth=2), f)
    meta = json.loads((tmp_path / "d.raw.json").read_text())
    for depth in (257, 208064, 10**110, 10**400):
        (tmp_path / "d.raw.json").write_text(json.dumps(dict(meta, depth=depth)))
        with pytest.raises(VolumeFormatError, match="depth must lie in"):
            load_volume(f)
        with pytest.raises(ValueError, match="depth must lie in"):
            VoxelGrid(np.zeros((2, 2, 2)), spacing=1.0, depth=depth)
        assert main(["analyze", "--in", str(f)]) == 2
    assert color_steps(256) == 2**24 - 1


def test_malformed_sidecar_reports_position(tmp_path):
    f = tmp_path / "m.raw"
    f.write_bytes(bytes(8))
    (tmp_path / "m.raw.json").write_text('{"dims": [2, 2, 2],, }')
    with pytest.raises(VolumeFormatError, match="byte"):
        load_volume(f)


def test_malformed_sidecar_position_counts_bytes(tmp_path):
    # the decoder counts the 3 two-byte characters once each
    f = tmp_path / "u.raw"
    f.write_bytes(bytes(8))
    (tmp_path / "u.raw.json").write_text('{"äää": 1,, }', encoding="utf-8")
    with pytest.raises(VolumeFormatError, match="at byte 13:"):
        load_volume(f)


def test_undecodable_or_deeply_nested_sidecar_is_a_format_error(tmp_path):
    f = tmp_path / "n.raw"
    f.write_bytes(bytes(8))
    for text, why in ((b"\xff\xfe{}", "utf-8"), (b"[" * 100_000, "recursion")):
        (tmp_path / "n.raw.json").write_bytes(text)
        with pytest.raises(VolumeFormatError, match=why):
            load_volume(f)


def test_volume_file_that_is_no_regular_file_is_refused_unopened(tmp_path):
    # opening a FIFO to read blocks until a writer comes, and /dev/zero never ends
    f = tmp_path / "p.raw"
    store_volume(VoxelGrid(np.zeros((2, 2, 2)), spacing=1.0, depth=1), f)
    for fifo in (f, tmp_path / "p.raw.json"):
        fifo.rename(tmp_path / "kept")
        os.mkfifo(fifo)
        errors = []

        def load():
            try:
                load_volume(f)
            except VolumeFormatError as exc:
                errors.append(str(exc))

        reader = threading.Thread(target=load, daemon=True)
        reader.start()
        reader.join(10)
        if reader.is_alive():
            os.close(os.open(fifo, os.O_WRONLY))  # release the blocked reader
        assert errors and "not a regular file" in errors[0], fifo
        fifo.unlink()
        (tmp_path / "kept").rename(fifo)
    if os.path.exists("/dev/zero"):
        f.unlink()
        f.symlink_to("/dev/zero")
        with pytest.raises(VolumeFormatError, match="not a regular file"):
            load_volume(f)


def test_oversized_payload_is_refused_unread(tmp_path):
    f = tmp_path / "o.raw"
    store_volume(VoxelGrid(np.zeros((4, 4, 4)), spacing=1.0, depth=1), f)
    f.write_bytes(bytes(8 << 20))
    def refused():
        with pytest.raises(VolumeFormatError, match=f"{8 << 20} bytes, expected 64"):
            load_volume(f)

    peak = traced_peak(refused)
    assert peak < 1 << 20, peak


def test_payload_that_changes_after_its_size_check_is_refused(tmp_path, monkeypatch, capsys):
    # the size check passes, so only the reads of the slab loop see the change
    dims = (3, 2, 2 * volio._SLAB)
    f = tmp_path / "c.raw"
    store_volume(VoxelGrid(np.zeros(dims), spacing=1.0, depth=1), f)
    expected = f.stat().st_size
    stat_size = volio._regular_size
    monkeypatch.setattr(volio, "_regular_size",
                        lambda path: expected if str(path) == str(f) else stat_size(path))
    layer = dims[0] * dims[1]
    for size in (expected - 1, expected - volio._SLAB * layer, expected + 1):
        f.write_bytes(bytes(size))
        rc = main(["analyze", "--in", str(f)])
        err = capsys.readouterr().err
        assert rc == 2 and f"has {size} bytes, expected {expected}" in err, (size, err)


@pytest.mark.parametrize("nz", [2, 5, 2 * volio._SLAB + 3])
def test_round_trips_across_slab_boundaries(tmp_path, nz):
    # one layer pair, less than a slab, and a last slab that is partly filled
    rng = np.random.default_rng(nz)
    dims = (3, 5, nz)
    cases = [
        ("u8", VoxelGrid(rng.integers(0, 2, dims) * 1.0, 1.0, 1)),
        ("u16", VoxelGrid(rng.integers(0, 65536, dims) / 65535, 1.0)),
        ("f32", random_grid(rng, dims)),
        ("f32", random_grid(rng, dims, depth=3)),
    ]
    for dtype, g in cases:
        f = tmp_path / f"{dtype}-{g.depth}.raw"
        store_volume(g, f, dtype=dtype)
        top = {"u8": 255, "u16": 65535}.get(dtype)
        payload = g.values if top is None else np.rint(g.values * top)
        payload = payload.astype(volio._DTYPES[dtype])
        assert f.read_bytes() == payload.ravel(order="F").tobytes(), (dtype, g.depth)
        want = g.values  # continuous f32 payloads load their float32 rounding
        if dtype == "f32" and g.depth is None:
            want = want.astype(np.float32).astype(np.float64)
        back = load_volume(f)
        assert back.values.tobytes() == want.tobytes(), (dtype, g.depth)
        assert back.values.flags.c_contiguous and not back.values.flags.writeable
        assert (back.dims, back.depth) == (g.dims, g.depth)


@settings(max_examples=100, database=None, deadline=None)
@given(dims=st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(2, 70)),
       depth=st.one_of(st.none(), st.integers(1, 5)),
       dtype=st.sampled_from(["u8", "u16", "f32"]),
       spacing=st.floats(*SPACING_RANGE_UM),
       seed=st.integers(0, 2**32 - 1))
def test_store_then_load_is_the_identity(tmp_path_factory, dims, depth, dtype, spacing, seed):
    # nz up to 70 crosses the 64-layer slab; integer payloads only where every value
    # is one of their steps, f32 otherwise
    if depth is not None and depth > 1:
        dtype = "f32"
    rng = np.random.default_rng(seed)
    if depth is None and dtype != "f32":
        top = {"u8": 255, "u16": 65535}[dtype]
        vals = rng.integers(0, top + 1, dims) / top
    elif depth is None:
        vals = rng.random(dims)
    else:
        vals = rng.integers(0, color_steps(depth) + 1, dims) / color_steps(depth)
    g = VoxelGrid(vals, spacing, depth)
    f = tmp_path_factory.mktemp("roundtrip") / "v.raw"
    store_volume(g, f, dtype=dtype)
    back = load_volume(f)
    want = g.values  # continuous f32 payloads load their float32 rounding
    if dtype == "f32" and depth is None:
        want = want.astype(np.float32).astype(np.float64)
    assert back.values.tobytes() == want.tobytes()
    assert (back.dims, back.spacing, back.depth) == (g.dims, g.spacing, g.depth)


def test_refused_store_leaves_no_files(tmp_path):
    # 26 steps do not divide 65535: the check runs before either file is opened
    f = tmp_path / "d3.raw"
    with pytest.raises(VolumeFormatError, match="not exactly representable as u16"):
        store_volume(displaced_ball(4, 3), f, dtype="u16")
    assert list(tmp_path.iterdir()) == []


def test_sidecar_key_errors(tmp_path):
    f = tmp_path / "k.raw"
    f.write_bytes(bytes(8))
    base = {"dims": [2, 2, 2], "spacing_um": 1.0, "depth": 1,
            "dtype": "u8", "order": "x-fastest"}

    missing = dict(base)
    del missing["depth"]
    (tmp_path / "k.raw.json").write_text(json.dumps(missing))
    with pytest.raises(VolumeFormatError, match="depth"):
        load_volume(f)

    extra = dict(base, endian="little")
    (tmp_path / "k.raw.json").write_text(json.dumps(extra))
    with pytest.raises(VolumeFormatError, match="endian"):
        load_volume(f)

    # JSON booleans are neither depths nor spacings, although bool subclasses int
    for key, bad in (("order", "z-fastest"), ("dtype", "i8"), ("dtype", ["u8"]),
                     ("dims", [2, 2]), ("dims", [2, 2, 0]), ("depth", 0),
                     ("depth", True), ("depth", "2"), ("depth", 2.0),
                     ("spacing_um", [1]), ("spacing_um", "1"), ("spacing_um", True),
                     ("spacing_um", None), ("spacing_um", float("inf")),
                     ("spacing_um", float("nan")), ("spacing_um", 10**400),
                     ("spacing_um", 1e110), ("spacing_um", 1e-110), ("spacing_um", 1e80),
                     ("spacing_um", 2e20), ("spacing_um", 1e-21), ("spacing_um", 0),
                     ("spacing_um", -1.0)):
        broken = dict(base)
        broken[key] = bad
        (tmp_path / "k.raw.json").write_text(json.dumps(broken))
        with pytest.raises(VolumeFormatError, match=key):
            load_volume(f)


def test_sidecar_integer_values(tmp_path):
    base = {"dims": [2, 2, 2], "spacing_um": 2, "depth": "continuous",
            "dtype": "u8", "order": "x-fastest"}
    # dims whose product wraps to 0 in int64 must not match an empty payload
    empty = tmp_path / "e.raw"
    empty.write_bytes(b"")
    (tmp_path / "e.raw.json").write_text(json.dumps(dict(base, dims=[2**40] * 3)))
    with pytest.raises(VolumeFormatError, match="0 bytes"):
        load_volume(empty)

    # a JSON integer is a valid spacing
    f = tmp_path / "i.raw"
    f.write_bytes(bytes(8))
    (tmp_path / "i.raw.json").write_text(json.dumps(base))
    g = load_volume(f)
    assert g.spacing == 2.0 and isinstance(g.spacing, float) and g.depth is None


def test_spacing_range_ends(tmp_path):
    lo, hi = SPACING_RANGE_UM
    assert lo <= 1e-20 and hi >= 1e20
    f = tmp_path / "s.raw"
    f.write_bytes(bytes(8))
    for spacing in (lo, hi):
        (tmp_path / "s.raw.json").write_text(json.dumps({
            "dims": [2, 2, 2], "spacing_um": spacing, "depth": 1,
            "dtype": "u8", "order": "x-fastest"}))
        assert load_volume(f).spacing == spacing
    for spacing in (lo / 2, hi * 2, float("inf"), 0.0):
        with pytest.raises(ValueError, match="spacing"):
            VoxelGrid(np.zeros((2, 2, 2)), spacing)
        with pytest.raises(ValueError, match="spacing"):
            voxelize(Ball((1.0, 1.0, 1.0), 0.5), (2, 2, 2), spacing)


def test_missing_files_rejected(tmp_path):
    with pytest.raises(VolumeFormatError):
        load_volume(tmp_path / "nope.raw")
    f = tmp_path / "p.raw"
    (tmp_path / "p.raw.json").write_text(json.dumps({
        "dims": [2, 2, 2], "spacing_um": 1.0, "depth": 1,
        "dtype": "u8", "order": "x-fastest"}))
    with pytest.raises(VolumeFormatError):
        load_volume(f)


def test_out_of_range_payload_rejected(tmp_path):
    # f32 payload with values outside [0, 1] must not produce a grid
    f = tmp_path / "r.raw"
    np.full(8, 2.5, dtype="<f4").tofile(f)
    (tmp_path / "r.raw.json").write_text(json.dumps({
        "dims": [2, 2, 2], "spacing_um": 1.0, "depth": "continuous",
        "dtype": "f32", "order": "x-fastest"}))
    with pytest.raises(VolumeFormatError, match="invariant"):
        load_volume(f)
    # NaN is out of range as well, not a later usage error
    payload = np.full(8, 0.5, dtype="<f4")
    payload[3] = np.nan
    payload.tofile(f)
    with pytest.raises(VolumeFormatError, match="invariant"):
        load_volume(f)


def test_range_is_checked_before_the_color_set(tmp_path):
    # the grid snaps its own copy in place, so the whole-grid range check must
    # come first: NaN in the last x-layer, an off-color value in the first
    f = tmp_path / "n.raw"
    (tmp_path / "n.raw.json").write_text(json.dumps({
        "dims": [2, 2, 2], "spacing_um": 1.0, "depth": 2,
        "dtype": "f32", "order": "x-fastest"}))
    payload = np.zeros(8, dtype="<f4")
    payload[0], payload[7] = 0.5, np.nan  # x-fastest: voxels (0, 0, 0) and (1, 1, 1)
    payload.tofile(f)
    with pytest.raises(VolumeFormatError, match=r"must lie in \[0, 1\]"):
        load_volume(f)
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        VoxelGrid(payload.reshape((2, 2, 2), order="F"), 1.0, depth=2)
