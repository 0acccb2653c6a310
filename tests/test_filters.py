
import numpy as np
import pytest

from minkvox import (
    BallKernel,
    GaussianKernel,
    VoxelGrid,
    analyze,
    color_steps,
    fft_convolve,
    voxelize,
)
from minkvox import filters
from minkvox.filters import (
    _DIRECT_POINTS,
    _YBLOCK,
    GAUSSIAN_TRUNCATION_SIGMAS,
    apply_transfer,
    field_buffer,
    kernel_transfer,
)

from gridmakers import (
    binary_laminate,
    cube_symmetries,
    fiber_lattice_64,
    random_grid,
    sampled_kernel,
    shift,
    whole_transfer,
    traced_peak,
)

KERNELS = (GaussianKernel(1.2), GaussianKernel(2.0), BallKernel(1.2),
           BallKernel(2.5))
# every kernel of the direct route: supports of 1 and 7 points, one weight or two
DIRECT_KERNELS = (BallKernel(0.4), BallKernel(1.0), BallKernel(1.2), GaussianKernel(0.3),
                  GaussianKernel(0.4))


def test_kernel_validation_and_names():
    with pytest.raises(ValueError):
        GaussianKernel(0.0)
    with pytest.raises(ValueError):
        BallKernel(-1.0)
    assert GaussianKernel(1.0).name == "gaussian"
    assert BallKernel(1.0).name == "ball"
    assert GaussianKernel(1.5).reach == GAUSSIAN_TRUNCATION_SIGMAS
    assert BallKernel(1.5).reach == 1.0


def test_sample_kernel_normalization():
    for kern in KERNELS:
        for h in (0.5, 1.0, 2.0):
            vals = sampled_kernel(kern, (24, 20, 22), h)
            assert abs(vals.sum() - 1.0) <= 1e-12, (kern, h)
            assert vals.min() >= 0.0


def test_ball_kernel_support_sigma_1_2():
    # radius 1.2 contains exactly the origin and the six face neighbors
    vals = sampled_kernel(BallKernel(1.2), (32, 32, 32), 1.0)
    nz = np.argwhere(vals > 0)
    assert len(nz) == 7
    offs = {tuple(np.where(i > 16, i - 32, i)) for i in nz}
    assert offs == {(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                    (0, 0, 1), (0, 0, -1)}
    assert np.unique(vals[vals > 0]).size == 1  # indicator: all equal
    assert vals[0, 0, 0] == pytest.approx(1 / 7)


def test_ball_kernel_subvoxel_degenerates_to_identity():
    vals = sampled_kernel(BallKernel(0.4), (16, 16, 16), 1.0)
    assert vals[0, 0, 0] == 1.0
    assert np.count_nonzero(vals) == 1


def test_sample_kernel_support_errors():
    with pytest.raises(ValueError, match="does not fit"):
        sampled_kernel(GaussianKernel(2.0), (8, 32, 32), 1.0)  # 3*2 >= 4
    with pytest.raises(ValueError, match="does not fit"):
        sampled_kernel(BallKernel(4.0), (8, 32, 32), 1.0)
    # fits: radius strictly below half the shortest edge
    sampled_kernel(BallKernel(3.9), (8, 32, 32), 1.0)
    # decided in voxels: 3 * 1.5 = 9 / 2 used to fit at h = 0.7 by round-off
    for h in (0.3, 0.7, 1e-20, 1e20):
        with pytest.raises(ValueError, match="does not fit"):
            sampled_kernel(GaussianKernel(1.5), (9, 9, 9), h)


def test_sample_kernel_width_out_of_float_range(recwarn):
    # (h sigma)^3 underflows to zero or to a subnormal whose reciprocal is inf
    for kern, h in ((BallKernel(1e-110), 1.0), (GaussianKernel(1e-160), 1.0),
                    (GaussianKernel(1e-90), 1e-20), (BallKernel(1e-103), 1.0)):
        with pytest.raises(ValueError, match="h\\*sigma"):
            sampled_kernel(kern, (8, 8, 8), h)
    assert not recwarn.list
    # narrow but in range: the ball degenerates to the identity, unchanged
    for sigma in (1e-30, 1e-100):
        vals = sampled_kernel(BallKernel(sigma), (8, 8, 8), 1.0)
        assert vals[0, 0, 0] == 1.0 and np.count_nonzero(vals) == 1


def test_sample_kernel_support_independent_of_spacing():
    # 6^2 = 36 and 3^2 = 9 are sums of three integer squares, so lattice
    # points lie exactly on both truncation spheres; decided on the physical
    # r^2 = off^2 h^2, they used to drop out at h = 0.3, 0.7 and 1e-20
    for kern, count in ((GaussianKernel(2.0), 925), (BallKernel(3.0), 123)):
        ref = sampled_kernel(kern, (24, 24, 24), 1.0)
        for h in (0.3, 0.7, 1.0, 3.0, 1e-20, 1e20):
            vals = sampled_kernel(kern, (24, 24, 24), h)
            assert np.count_nonzero(vals) == count, (kern, h)
            assert np.array_equal(vals, ref), (kern, h)


def test_sampled_kernels_invariant_under_cube_group():
    # origin-centered action: transpose axes, then reverse indices about the
    # periodic origin (i -> -i mod n); sampled kernels must be bitwise fixed
    dims = (16, 16, 16)
    for kern in KERNELS:
        vals = sampled_kernel(kern, dims, 1.0)
        rev = (16 - np.arange(16)) % 16
        for mat, _ in cube_symmetries():
            perm = [int(np.argmax(np.abs(mat[k]))) for k in range(3)]
            out = np.transpose(vals, perm)
            for ax in range(3):
                if mat[ax, perm[ax]] < 0:
                    out = out[tuple(rev if a == ax else slice(None)
                                    for a in range(3))]
            assert np.array_equal(out, vals), (kern, mat)


def test_kernel_transfer_matches_whole_grid_rfftn():
    # the staged transform skips the rows outside the support box; those are
    # zero, so the result is the whole-grid rfftn of the sampled kernel.
    # Ball 0.4 is a one-voxel support, radius 4 fills the 9-voxel axis (2 r + 1 = n)
    cases = [(kern, dims) for dims in ((24, 20, 22), (9, 11, 13))
             for kern in (BallKernel(0.4), BallKernel(2.5), BallKernel(4.2),
                          GaussianKernel(1.2), GaussianKernel(1.45))]
    for kern, dims in cases:
        for h in (0.7, 2.3):
            transfer = whole_transfer(kern, dims, h)
            ref = np.fft.rfftn(sampled_kernel(kern, dims, h))
            assert transfer.shape == ref.shape, (kern, dims, h)
            assert np.abs(transfer - ref).max() <= 1e-15, (kern, dims, h)
            assert abs(transfer[0, 0, 0] - 1.0) <= 1e-15, (kern, dims, h)
            if isinstance(kern, BallKernel):
                assert np.array_equal(transfer, ref), (kern, dims, h)


def _irfftn_reference(values, transfer):
    return np.fft.irfftn(np.fft.rfftn(values) * transfer, s=values.shape, axes=(0, 1, 2))


# odd nz, and x not a multiple of the 4-layer z-pass slab or below it
_TRANSFER_DIMS = ((24, 20, 22), (9, 11, 13), (17, 9, 31), (10, 16, 7), (3, 12, 10))


def test_apply_transfer_matches_irfftn():
    # a separate input: the field lands in the buffer's front, inputs untouched
    rng = np.random.default_rng(46)
    for dims in _TRANSFER_DIMS:
        values = rng.random(dims)
        for kern in (BallKernel(1.2), GaussianKernel(1.45 if min(dims) > 8 else 0.45)):
            transfer = kernel_transfer(kern, dims, 0.7)
            before_values, before_rows = values.copy(), transfer[0].copy()
            buf = field_buffer(dims)
            out = apply_transfer(values, transfer, buf)
            ref = _irfftn_reference(values, whole_transfer(kern, dims, 0.7))
            assert np.array_equal(out, ref), (dims, kern)
            assert out.shape == dims and out.flags.c_contiguous
            assert np.shares_memory(out, buf)
            assert np.array_equal(values, before_values)
            assert np.array_equal(transfer[0], before_rows)


def test_apply_transfer_into_its_input():
    # values is the buffer's own field; its spectrum overwrites it slab by slab
    rng = np.random.default_rng(47)
    for dims in _TRANSFER_DIMS:
        values = rng.random(dims)
        transfer = kernel_transfer(BallKernel(1.2), dims, 0.7)
        before_rows = transfer[0].copy()
        bufs = field_buffer(dims, (2,))
        field = bufs[1, :values.size].reshape(dims)
        field[...] = values
        got = apply_transfer(field, transfer, bufs[1])
        ref = _irfftn_reference(values, whole_transfer(BallKernel(1.2), dims, 0.7))
        assert np.shares_memory(got, field) and got.flags.c_contiguous
        assert np.array_equal(got, ref), dims
        assert np.array_equal(transfer[0], before_rows)


def test_stacked_fields_equal_one_field_calls():
    # one k-field call builds each transfer block once for all fields; ny
    # below, equal to and not a multiple of the y-block
    rng = np.random.default_rng(48)
    for dims in ((9, _YBLOCK - 3, 13), (6, _YBLOCK, 7), (5, 2 * _YBLOCK + 3, 10)):
        for kern in (BallKernel(1.2), GaussianKernel(0.45)):
            transfer = kernel_transfer(kern, dims, 0.7)
            values = rng.random((3,) + dims)
            got = apply_transfer(values, transfer, field_buffer(dims, (3,)))
            assert got.shape == values.shape
            for v, g in zip(values, got):
                one = apply_transfer(v, transfer, field_buffer(dims))
                assert np.array_equal(g, one), (dims, kern)


def test_fft_convolve_memory_peak():
    # the 7-point ball is the cross sum of each slab's int8 indices with their
    # one-layer x halo, scaled into one plain array, 8 B/voxel, plus the slab's
    # float64 cross sum (8.54; 9.21 when the slab and its halo were read as float64
    # values into a 6-layer buffer and summed point by point).  The Gaussian goes
    # through the FFT: the padded buffer, 8 (nz + 2) / nz = 8.25 B/voxel at nz = 64,
    # plus the support rows, one transfer block and numpy's copy of a z-pass slab
    # that overlaps its output, as the values are transformed in place (11.79; 11.72
    # before the values were filled from int8 slabs); a whole-grid transfer adds 8.25
    # more, and so does a separate spectrum or the grid's float64 values
    grid = voxelize(fiber_lattice_64(), (64, 64, 64), 1.0, 2)
    for kern, bound in ((BallKernel(1.2), 9.5), (GaussianKernel(1.2), 12.5)):
        peak = traced_peak(fft_convolve, grid, kern)
        assert peak / 64**3 <= bound, (kern, peak / 64**3)


def test_filtered_analyze_memory_peak():
    # the caller's grid is not counted.  On the float route (the same values as a
    # continuous grid) the filtered field (8 B/voxel) and then the 4-layer slab pass
    # of S and W (4.5 at 64^3, as without a filter) read 10.94 (10.97 when the direct
    # filter summed a 6-layer float64 buffer point by point); a whole-grid transfer
    # held through the filter reads 17.5.  The depth-2 grid takes the integer route,
    # whose slab scratch of int8 indices and their cross sums reads 3.21 (3.49 with
    # int16 slabs, 3.6 with float64 values); a whole-grid int16 index would add 2,
    # the grid's float64 values 8.  A depth-6 grid has too many classes for the
    # integer route; with no kernel its differences come from x-slabs of k/m with
    # their halo, and the slab passes read 5.43 (5.15 before the slab iterator held
    # its int16 slab beside them), where a float64 grid of its values held through
    # them added 8
    grid = voxelize(fiber_lattice_64(), (64, 64, 64), 1.0, 2)
    depth6 = random_grid(np.random.default_rng(52), (64, 64, 64), depth=6)
    for g, kernel, bound in ((VoxelGrid(grid.values, 1.0, None), BallKernel(1.2), 15),
                             (grid, BallKernel(1.2), 3.8), (depth6, None, 6)):
        peak = traced_peak(analyze, g, kernel)
        assert peak / 64**3 <= bound, (g.depth, peak / 64**3)


def test_kernels_route_by_support_point_count(monkeypatch):
    # supports of 1 and 7 points are summed directly; 19 (ball 1.5, Gaussian
    # 0.5 with three distinct weights) and 33 (ball 2.0) points go by FFT
    calls = []
    monkeypatch.setattr(filters, "apply_transfer",
                        lambda *a: calls.append(1) or apply_transfer(*a))
    g = random_grid(np.random.default_rng(49), (12, 12, 12))
    for kern in DIRECT_KERNELS:
        assert np.count_nonzero(sampled_kernel(kern, g.dims, 1.0)) <= _DIRECT_POINTS
        fft_convolve(g, kern)
    assert not calls
    for kern in (BallKernel(1.5), GaussianKernel(0.5), BallKernel(2.0)):
        fft_convolve(g, kern)
    assert len(calls) == 3


def test_direct_route_matches_transfer():
    # dims (3, 4, 5) and its rotations make every wrap piece one layer wide;
    # x is below, at and above the 4-layer slab
    rng = np.random.default_rng(50)
    for dims in ((3, 4, 5), (5, 3, 4), (4, 5, 3), (9, 11, 13)):
        values = rng.random(dims)
        for kern in DIRECT_KERNELS:
            for h in (1.0, 0.7):
                got = fft_convolve(VoxelGrid(values, h, None), kern)
                ref = apply_transfer(values, kernel_transfer(kern, dims, h), field_buffer(dims))
                assert np.abs(got - np.clip(ref, 0.0, 1.0)).max() <= 1e-14, (dims, kern, h)


def test_direct_route_is_bitwise_shift_equivariant():
    # each voxel adds the same points in the same order; the FFT is exact
    # under shifts only up to round-off
    rng = np.random.default_rng(51)
    g = random_grid(rng, (12, 10, 9))
    for kern in (BallKernel(1.0), BallKernel(1.2)):
        out = fft_convolve(g, kern)
        for _ in range(8):
            d = tuple(int(v) for v in rng.integers(-12, 13, size=3))
            a = fft_convolve(shift(g, d), kern)
            assert np.array_equal(a, np.roll(out, d, axis=(0, 1, 2))), (kern, d)


def test_direct_route_sums_a_depth_p_grids_indices_exactly():
    # the 7-point sum of the color indices is an exact integer, scaled once by the
    # ball's one weight over m: equal integer sums give bitwise equal values
    rng = np.random.default_rng(53)
    for depth, dims in ((2, (12, 10, 9)), (3, (3, 5, 4))):
        g = random_grid(rng, dims, depth=depth)
        k = g.index.astype(np.int64)
        n = k + sum(np.roll(k, s, axis) for axis in range(3) for s in (1, -1))
        scale = sampled_kernel(BallKernel(1.2), dims, 1.0)[0, 0, 0] / color_steps(depth)
        got = fft_convolve(g, BallKernel(1.2))
        assert np.array_equal(got, np.clip(n * scale, 0.0, 1.0)), depth


def test_direct_route_keeps_flat_regions_exact():
    # the solid slab covers layers 6..13; ball 1.2 reaches one layer across,
    # so layers 5, 6, 13 and 14 are mixed and every other one is flat
    for axis in range(3):
        out = np.moveaxis(fft_convolve(binary_laminate(axis=axis), BallKernel(1.2)), axis, 0)
        assert (out[7:13] == 1.0).all(), axis
        assert (out[:5] == 0.0).all() and (out[15:] == 0.0).all(), axis


def test_convolution_preserves_constants():
    for kern in KERNELS:
        g = VoxelGrid(np.full((18, 18, 18), 0.37), spacing=1.0, depth=None)
        out = fft_convolve(g, kern)
        assert np.max(np.abs(out - 0.37)) <= 1e-12, kern


def test_convolution_none_is_identity():
    # a new field holds a bitwise copy of the values: a continuous grid's stored
    # floats, a depth-p grid's colors made from its index.  A one-point support,
    # whose only sample is exactly 1, is routed as no kernel
    rng = np.random.default_rng(3)
    g = random_grid(rng, (10, 11, 12))
    d2 = random_grid(rng, (10, 11, 12), depth=2)
    for kern in (None, BallKernel(0.4), GaussianKernel(0.3)):
        assert filters.route(kern, g.dims, 1.0)[0] == "identity", kern
        assert fft_convolve(g, kern).tobytes() == g.values.tobytes(), kern
        assert fft_convolve(d2, kern).tobytes() == (d2.index / 7).tobytes() == d2.values.tobytes()


def test_convolution_preserves_mean():
    rng = np.random.default_rng(44)
    for kern in KERNELS:
        for _ in range(3):
            g = random_grid(rng, (16, 18, 20))
            out = fft_convolve(g, kern)
            assert abs(out.mean() - g.values.mean()) <= 1e-12, kern


def test_convolution_commutes_with_shifts():
    rng = np.random.default_rng(45)
    g = random_grid(rng, (16, 16, 16))
    for kern in KERNELS:
        for _ in range(3):
            d = tuple(int(v) for v in rng.integers(-8, 9, size=3))
            a = fft_convolve(shift(g, d), kern)
            b = np.roll(fft_convolve(g, kern), d, axis=(0, 1, 2))
            assert np.max(np.abs(a - b)) <= 1e-12, (kern, d)


def test_convolution_output_stays_in_unit_interval():
    g = binary_laminate()
    for kern in KERNELS:
        out = fft_convolve(g, kern)
        assert out.min() >= 0.0
        assert out.max() <= 1.0


def test_ball_filter_laminate_profile_is_linear_ramp():
    # slab edges fall on voxel boundaries; with sigma = 2.5 the discrete ball
    # kernel turns the step into a straight ramp of width 2*sigma
    sigma = 2.5
    g = binary_laminate(axis=0, n=24, lo=6, hi=14)
    out = fft_convolve(g, BallKernel(sigma))
    profile = out[:, 0, 0]
    assert np.max(np.abs(out - profile[:, None, None])) <= 1e-12

    diffs = np.diff(profile)
    rising = diffs[np.abs(diffs) > 1e-9]
    # two symmetric transitions, each 2*sigma = 5 cells wide
    assert len(rising) == 10
    # saturated plateaus away from the interfaces
    assert profile[9] == pytest.approx(1.0, abs=1e-12)
    assert profile[1] == pytest.approx(0.0, abs=1e-12)
    # interior slope cells of each ramp are constant...
    up = rising[:5]
    assert np.max(np.abs(up[1:4] - up[2])) <= 1e-12
    # ...and the net slope across the ramp is 1/(2 h sigma)
    net = up.sum() / (len(up) * g.spacing)
    assert net == pytest.approx(1 / (2 * g.spacing * sigma), rel=0.02)


def test_gaussian_truncation_tail_is_zero():
    vals = sampled_kernel(GaussianKernel(1.0), (32, 32, 32), 1.0)
    # offset (4, 0, 0) lies beyond the 3-sigma cut
    assert vals[4, 0, 0] == 0.0
    assert vals[3, 0, 0] > 0.0
