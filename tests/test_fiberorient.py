import weakref

import numpy as np
import pytest

from minkvox import (
    BallKernel,
    DegenerateImageError,
    GaussianKernel,
    SymTensor3,
    VoxelGrid,
    relative_tensor_error,
    structure_tensor_orientation,
)
from minkvox import fiberorient
from minkvox.fiberorient import CLOSED_FORM_GAP_REL, minor_projector_sum
from minkvox.filters import fft_convolve
from minkvox.minkowski import unit_trace

from gridmakers import (
    axis_triple_fibers,
    binary_laminate,
    cube_symmetries,
    quantize,
    random_grid,
    roll_gradient,
    shift,
    whole_transfer,
    traced_peak,
)


def test_second_kernel_is_mandatory():
    g = binary_laminate()
    with pytest.raises(ValueError):
        structure_tensor_orientation(g, None, None)


def test_laminate_orientation_is_transverse():
    # slabs perpendicular to e_z: all gradients point along e_z, so the local
    # fiber direction is degenerate in the x-y plane and the tie rule spreads
    # the contribution evenly over it
    g = binary_laminate(axis=2, n=24)
    res = structure_tensor_orientation(g, None, GaussianKernel(2.0))
    a = res.a_est
    assert np.abs(a.mat - np.diag([0.5, 0.5, 0.0])).max() <= 1e-9
    lam, q = a.eigensystem()
    assert abs(abs(q[2, 2]) - 1.0) <= 1e-9  # smallest eigenvalue along e_z
    assert lam[2] <= 1e-12


def test_isotropic_fiber_triple():
    g = axis_triple_fibers(2)
    res = structure_tensor_orientation(g, BallKernel(1.2), GaussianKernel(3.0))
    err = relative_tensor_error(res.a_est, SymTensor3(np.eye(3) / 3))
    assert err <= 0.05, err


def test_result_invariants_and_metadata():
    g = axis_triple_fibers(2)
    res = structure_tensor_orientation(g, BallKernel(1.2), GaussianKernel(3.0))
    assert np.trace(res.a_est.mat) == 1.0
    assert res.a_est.eigensystem()[0][-1] >= -1e-10
    assert 0 < res.masked_voxels <= res.total_voxels
    assert res.total_voxels == 48**3


def test_orientation_shift_invariant():
    rng = np.random.default_rng(80)
    g = axis_triple_fibers(2)
    base = structure_tensor_orientation(g, BallKernel(1.2), GaussianKernel(3.0))
    for _ in range(3):
        d = tuple(int(v) for v in rng.integers(-20, 21, size=3))
        res = structure_tensor_orientation(shift(g, d), BallKernel(1.2),
                                           GaussianKernel(3.0))
        assert np.abs(res.a_est.mat - base.a_est.mat).max() <= 1e-10
        assert res.masked_voxels == base.masked_voxels


def test_orientation_cube_equivariant():
    rng = np.random.default_rng(81)
    g = quantize(random_grid(rng, (16, 16, 16)), 2)
    base = structure_tensor_orientation(g, None, GaussianKernel(2.0))
    for mat, apply in cube_symmetries():
        moved = VoxelGrid(np.ascontiguousarray(apply(g.values)),
                          spacing=g.spacing, depth=g.depth)
        res = structure_tensor_orientation(moved, None, GaussianKernel(2.0))
        expect = mat @ base.a_est.mat @ mat.T
        assert np.abs(res.a_est.mat - expect).max() <= 1e-8, mat


def test_orientation_gray_scale_invariant():
    g = axis_triple_fibers(2)
    base = structure_tensor_orientation(g, None, GaussianKernel(2.0))
    for c in (0.5, 0.125):
        scaled = VoxelGrid(g.values * c, spacing=g.spacing, depth=None)
        res = structure_tensor_orientation(scaled, None, GaussianKernel(2.0))
        assert np.abs(res.a_est.mat - base.a_est.mat).max() <= 1e-10
        assert res.masked_voxels == base.masked_voxels


def test_mask_threshold_modes():
    g = axis_triple_fibers(2)
    masked = structure_tensor_orientation(g, None, GaussianKernel(2.0))
    assert masked.masked_voxels < masked.total_voxels
    literal = structure_tensor_orientation(g, None, GaussianKernel(2.0),
                                           mask_threshold_rel=0.0)
    assert literal.masked_voxels == literal.total_voxels
    # the literal algorithm dilutes the estimate with background voxels
    assert not np.allclose(literal.a_est.mat, masked.a_est.mat, atol=1e-6)
    with pytest.raises(DegenerateImageError):
        structure_tensor_orientation(g, None, GaussianKernel(2.0),
                                     mask_threshold_rel=1.5)
    # NaN compares false against 0 and would disable the mask silently
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            structure_tensor_orientation(g, None, GaussianKernel(2.0),
                                         mask_threshold_rel=bad)


def test_structureless_image_rejected():
    g = VoxelGrid(np.full((12, 12, 12), 3 / 7), spacing=1.0, depth=2)
    with pytest.raises(DegenerateImageError):
        structure_tensor_orientation(g, None, GaussianKernel(1.5))


def test_orientation_error_examples():
    # fiber-orient --reference reports this error of the orientation tensor
    est = SymTensor3(np.diag([0.5, 0.5, 0.0]))
    ref = SymTensor3(np.diag([0.49, 0.49, 0.02]))
    expect = np.linalg.norm([0.01, 0.01, -0.02]) / np.linalg.norm(ref.mat)
    got = relative_tensor_error(est, ref)
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(0.0353, abs=5e-4)
    iso = relative_tensor_error(SymTensor3(np.eye(3) / 3),
                                SymTensor3(np.diag([1.0, 0.0, 0.0])))
    assert iso == pytest.approx(np.sqrt(6) / 3, rel=1e-12)
    assert iso == pytest.approx(0.8165, abs=5e-5)
    assert relative_tensor_error(ref, ref) == 0.0
    with pytest.raises(ValueError):
        relative_tensor_error(ref, SymTensor3(np.zeros((3, 3))))
    # a non-finite reference (fiber-orient --reference nan ...) is no tensor
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SymTensor3(np.diag([bad, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# eigen stage: closed form against a batched np.linalg.eigh reference

def _eigh_reference(comps):
    """Projector sum by a batched eigh with the tie rule, tensor by tensor."""
    tensors = np.empty((comps.shape[1], 3, 3))
    for slot, (i, j) in enumerate(((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))):
        tensors[:, i, j] = tensors[:, j, i] = comps[slot]
    vals, vecs = np.linalg.eigh(tensors)
    scale = np.abs(vals[:, 2])
    tied_low = vals[:, 1] - vals[:, 0] <= 1e-12 * scale
    tied_all = tied_low & (vals[:, 2] - vals[:, 1] <= 1e-12 * scale)
    out = np.einsum("ni,nj->nij", vecs[:, :, 0], vecs[:, :, 0])
    top = vecs[tied_low, :, 2]
    out[tied_low] = (np.eye(3) - np.einsum("ni,nj->nij", top, top)) / 2
    out[tied_all] = np.eye(3) / 3
    return out.sum(axis=0)


def _rotated(rng, eigvals):
    """Components xx, yy, zz, xy, xz, yz of Q diag(eigvals) Q^T, random Q."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigvals), 3, 3)))
    t = np.einsum("nij,nj,nkj->nik", q, eigvals, q)
    return np.stack([t[:, 0, 0], t[:, 1, 1], t[:, 2, 2],
                     t[:, 0, 1], t[:, 0, 2], t[:, 1, 2]])


def _assert_matches_reference(comps):
    """Compare with the eigh reference to 1e-12 relative; return the batch
    sizes of the np.linalg.eigh calls the closed form made."""
    ref = _eigh_reference(comps)
    sizes, eigh = [], np.linalg.eigh

    def counted(a):
        sizes.append(len(a))
        return eigh(a)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.linalg, "eigh", counted)
        got = minor_projector_sum(comps)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    return sizes


def test_closed_form_matches_eigh_on_random_tensors():
    rng = np.random.default_rng(90)
    n = 3000
    # separated spectra (gaps of at least 0.01): the closed form takes all
    spd = np.sort(rng.uniform(0.0, 1.0, (n, 3)), axis=1) + [0.0, 0.01, 0.02]
    rank2 = spd * [0.0, 1.0, 1.0]
    rank1 = spd * [0.0, 0.0, 1.0]  # tied bottom pair: eigh and the tie rule
    for eigvals, eigh_count in ((spd, 0), (rank2, 0), (rank1, n)):
        comps = _rotated(rng, eigvals)
        assert sum(_assert_matches_reference(comps)) == eigh_count
        # the stage is elementwise: strided and F-ordered inputs give the same bits
        want = minor_projector_sum(comps)
        for view in (np.repeat(comps, 2, axis=1)[:, ::2], np.asfortranarray(comps)):
            assert np.array_equal(minor_projector_sum(view), want)
        # scale invariance, down to tensors at FFT round-off level and out
        # to where the unscaled degree-4 and -5 terms went subnormal (1e-78)
        # or overflowed (1e76)
        for scale in (1e-17, 1e-78, 1e76, 1e-150, 1e150):
            _assert_matches_reference(comps * scale)


def test_closed_form_bottom_gap_sweep():
    rng = np.random.default_rng(91)
    n = 200
    for gap in 2.0 * 10.0 ** -np.arange(2, 14):  # 2e-2 ... 2e-13 of lambda_max
        low = rng.uniform(0.0, 0.5, n)
        comps = _rotated(rng, np.stack([low, low + gap, np.ones(n)], axis=1))
        # eigh sees exactly the tensors below the fallback gap, no others
        sizes = _assert_matches_reference(comps)
        assert sizes == ([n] if gap < CLOSED_FORM_GAP_REL else []), gap
        if gap <= 1e-12:
            # within the tie rule: each tensor shares its weight over the
            # bottom plane, (I - w w^T) / 2
            for k in range(5):
                lam = np.linalg.eigvalsh(minor_projector_sum(comps[:, [k]]))
                assert np.abs(lam - [0.0, 0.5, 0.5]).max() <= 1e-12


def test_closed_form_projectors_just_above_the_hand_over():
    # the closed form's error peaks at the smallest gap it keeps; each
    # tensor's projector, not only their sum, must stay near eigh's there
    rng = np.random.default_rng(96)
    n = 2000
    gap = np.linspace(2e-4, 1e-4, n, endpoint=False)  # (1e-4, 2e-4] of lambda_max
    comps = _rotated(rng, np.stack([np.zeros(n), gap, np.ones(n)], axis=1)
                     + rng.uniform(0.0, 0.5, (n, 1)) * [1.0, 1.0, 0.0])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.linalg, "eigh", None)  # the closed form takes every tensor
        got = [minor_projector_sum(comps[:, [k]]) for k in range(n)]
    for k in range(n):
        ref = _eigh_reference(comps[:, [k]])
        assert np.linalg.norm(got[k] - ref) <= 1e-11 * np.linalg.norm(ref), k


def test_closed_form_exact_ties():
    n, c = 7, 2.5
    zero = np.zeros((6, n))
    # diag(0, 0, c): the tied x-y plane shares the weight
    planar = zero.copy()
    planar[2] = c
    expect = n * np.diag([0.5, 0.5, 0.0])
    assert np.abs(minor_projector_sum(planar) - expect).max() <= 1e-15
    # c * I and the all-zero tensor (no mask): no preferred direction at all
    iso = zero.copy()
    iso[:3] = c
    for comps in (iso, zero):
        assert np.abs(minor_projector_sum(comps) - n * np.eye(3) / 3).max() <= 1e-15
    rng = np.random.default_rng(92)
    _assert_matches_reference(np.concatenate([planar, iso, zero, _rotated(
        rng, np.tile([0.0, 0.0, c], (n, 1)))], axis=1))


def test_orientation_matches_eigh_pipeline(monkeypatch):
    # the whole pipeline, background voxels at round-off level included
    g = axis_triple_fibers(2)
    for threshold in (fiberorient.DEFAULT_MASK_THRESHOLD_REL, 0.0):
        got = structure_tensor_orientation(g, None, GaussianKernel(2.0),
                                           mask_threshold_rel=threshold)
        with monkeypatch.context() as m:
            m.setattr(fiberorient, "minor_projector_sum", _eigh_reference)
            ref = structure_tensor_orientation(g, None, GaussianKernel(2.0),
                                               mask_threshold_rel=threshold)
        assert np.abs(got.a_est.mat - ref.a_est.mat).max() <= 1e-12


def _whole_grid_orientation(image, first, second, scheme):
    """The orientation with the whole gradient, one product and one irfftn per
    component, written out in full."""
    g = roll_gradient(fft_convolve(image, first), 1.0, scheme)
    transfer = whole_transfer(second, image.dims, image.spacing)
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    blurred = np.empty((6,) + image.dims)
    for slot, (i, j) in enumerate(pairs):
        blurred[slot] = np.fft.irfftn(np.fft.rfftn(g[..., i] * g[..., j]) * transfer,
                                      s=image.dims, axes=(0, 1, 2))
    trace = blurred[0] + blurred[1] + blurred[2]
    keep = (trace >= fiberorient.DEFAULT_MASK_THRESHOLD_REL * trace.max()).ravel()
    flat, chunk = blurred.reshape(6, -1), fiberorient._CHUNK
    a_mat = np.zeros((3, 3))
    for lo in range(0, keep.size, chunk):
        a_mat += minor_projector_sum(flat[:, lo:lo + chunk][:, keep[lo:lo + chunk]])
    return unit_trace((a_mat + a_mat.T) / 2), int(keep.sum())


def test_slab_products_bitwise_equal_whole_grid_formula():
    # x = 9 is not a multiple of the slab height, x = 3 is less than one slab;
    # the first kernels take each route of fft_convolve: none, direct sum and FFT
    rng = np.random.default_rng(93)
    cases = (((9, 11, 13), 0.7, BallKernel(1.2), GaussianKernel(1.45)),
             ((9, 11, 13), 1.3, None, BallKernel(2.5)),
             ((9, 11, 13), 0.7, GaussianKernel(1.0), BallKernel(2.5)),
             ((3, 12, 10), 1.0, None, GaussianKernel(0.45)),
             ((3, 12, 10), 0.7, BallKernel(1.2), BallKernel(1.2)))
    for dims, h, first, second in cases:
        image = random_grid(rng, dims, h)
        for scheme in ("central", "forward", "backward"):
            got = structure_tensor_orientation(image, first, second, scheme)
            a_ref, count = _whole_grid_orientation(image, first, second, scheme)
            assert np.array_equal(got.a_est.mat, a_ref), (dims, first, second, scheme)
            assert got.masked_voxels == count


def test_orientation_memory_peak():
    # the caller's image (8 B/voxel) and six components padded for their
    # spectra (6 x 8.25), the first filter's field in the last of them; beside
    # these, slab and chunk scratch only: the blur's support rows and one
    # transfer block (under 2 at 64^3), or the eigen stage's chunk temporaries
    # (about 12; peak 68.64, 68.69 when the direct filter summed a 6-layer float64
    # buffer point by point).  A whole-grid trace and mask beside the chunks
    # add 9 (79.6), a whole-grid transfer held through the blurs 8.25, and a
    # whole-grid gradient and per-component temporaries reached about 108.  A
    # depth-2 image is read by slabs of the first filter from its index (68.64
    # with the direct filter's int8 cross sums, as when it summed float64 values)
    for depth in (None, 2):
        image = random_grid(np.random.default_rng(94), (64, 64, 64), depth=depth)
        peak = traced_peak(structure_tensor_orientation, image, BallKernel(1.2), GaussianKernel(2.0))
        assert peak / 64**3 <= 72, (depth, peak / 64**3)


def _handed_over_grid(refs):
    """A fresh grid that only the caller's call expression holds; ``refs``
    receives weak references to it and to its values."""
    image = random_grid(np.random.default_rng(95), (16, 12, 14))
    refs += [weakref.ref(image), weakref.ref(image.values)]
    return image


def test_orientation_frees_a_handed_over_grid(monkeypatch):
    # the first filter leaves its field in the blur buffer, so the grid is gone
    # before the first differences of the products are taken, also without a filter
    refs = []
    differences = fiberorient.differences

    def in_products(*args):
        assert [ref() is None for ref in refs] == [True, True]
        return differences(*args)

    for first in (None, BallKernel(1.2), GaussianKernel(1.0)):
        expected = structure_tensor_orientation(_handed_over_grid([]), first,
                                                GaussianKernel(1.5))
        refs.clear()
        with monkeypatch.context() as m:
            m.setattr(fiberorient, "differences", in_products)
            got = structure_tensor_orientation(_handed_over_grid(refs), first,
                                               GaussianKernel(1.5))
        assert np.array_equal(got.a_est.mat, expected.a_est.mat), first
        assert got.masked_voxels == expected.masked_voxels


def test_orientation_at_extreme_spacings():
    # the kernels and the products are taken in lattice units, so no spacing,
    # a power of two or not, moves the result by a bit
    vals = np.random.default_rng(95).random((12, 13, 14))
    kernels = (BallKernel(1.2), GaussianKernel(1.5))
    base = structure_tensor_orientation(VoxelGrid(vals, 1.0), *kernels)
    for h in (1e-20, 0.7, 3.3, 1e20):
        got = structure_tensor_orientation(VoxelGrid(vals, h), *kernels)
        assert np.array_equal(got.a_est.mat, base.a_est.mat), h
        assert got.masked_voxels == base.masked_voxels, h
