import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkvox import minkowski
from minkvox.filters import fft_convolve
from minkvox.gradient import SLAB, differences
from minkvox import (
    Ball,
    BallKernel,
    GaussianKernel,
    NumericalError,
    ShapeUnion,
    SymTensor3,
    VoxelGrid,
    analyze,
    ball_quantities,
    color_steps,
    eigenvalue_ratio,
    relative_tensor_error,
    unit_trace,
    voxelize,
)

from gridmakers import (
    binary_laminate,
    cube_symmetries,
    displaced_ball,
    quantize,
    random_grid,
    roll_gradient,
    shift,
    single_voxel,
)

BALL_REF = ball_quantities(8.0)


# ---------------------------------------------------------------------------
# SymTensor3

def test_tensor_construction_and_symmetry():
    t = SymTensor3(np.diag([3.0, 2.0, 1.0]))
    assert np.trace(t.mat) == 6.0
    assert np.linalg.norm(t.mat) == pytest.approx(np.sqrt(14.0))
    with pytest.raises(ValueError):
        SymTensor3(np.zeros((2, 2)))
    # symmetry is exact at every scale: gross asymmetry and one flipped last bit
    # are refused alike, also far below unit scale
    for scale in (1.0, 1e-10, 1e-300):
        with pytest.raises(ValueError, match="symmetric"):
            SymTensor3(np.arange(9.0).reshape(3, 3) * scale)  # grossly asymmetric
        m = np.eye(3) * scale
        m[0, 1], m[1, 0] = scale, np.nextafter(scale, 0.0)
        with pytest.raises(ValueError, match="symmetric"):
            SymTensor3(m)
        m[1, 0] = m[0, 1]  # a mirrored matrix is taken as is
        assert np.array_equal(SymTensor3(m).mat, m)


def test_symmetric_tensor_keeps_its_smallest_bits():
    # halving 2^-1022 + 2^-1074 or an odd subnormal and doubling back rounds it
    m = np.diag([2.0**-1022 + 2.0**-1074, 1.0, 3 * 2.0**-1074])
    m[0, 1] = m[1, 0] = -(2.0**-1021 + 2.0**-1073)
    t = SymTensor3(m)
    assert np.array_equal(t.mat, m)
    assert not t.mat.flags.writeable and m.flags.writeable  # a read-only copy
    m[0, 1] = 0.0
    assert t.mat[0, 1] != 0.0


def test_tensor_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            SymTensor3(m)
        with pytest.raises(ValueError, match="finite"):
            SymTensor3(np.diag([bad, 1.0, 1.0]))


def test_normal_tensor_eps_rel_must_be_finite(monkeypatch):
    def no_filter(*args):
        raise AssertionError("eps_rel must be checked before the filter runs")

    monkeypatch.setattr(minkowski, "fft_convolve", no_filter)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="eps_rel"):
            analyze(single_voxel(), None, "central", bad)
        with pytest.raises(ValueError, match="non-negative and finite"):
            analyze(single_voxel(), kernel=BallKernel(1.2), eps_rel=bad)


def test_huge_eps_fails_loudly_rather_than_reporting_no_interfaces():
    # S > 0 implies tr W > 0; an overflowing eps is a usage error, a W that
    # underflows to zero a numerical one, and neither warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h, eps_rel in ((0.1, 1e308), (1e-20, 1e300)):
            with pytest.raises(ValueError, match="overflows"):
                analyze(single_voxel(h=h), kernel=None, eps_rel=eps_rel)
        with pytest.raises(NumericalError, match="underflowed"):
            analyze(single_voxel(h=1e-8), kernel=None, eps_rel=1e300)


def test_tensor_eigensystem_deterministic():
    rng = np.random.default_rng(50)
    for _ in range(30):
        a = rng.normal(size=(3, 3))
        t = SymTensor3(a + a.T)
        lam = t.eigensystem()[0]
        assert lam[0] >= lam[1] >= lam[2]
        lam2, q = t.eigensystem()
        assert np.array_equal(lam, lam2)
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-10
        assert np.abs(q @ np.diag(lam) @ q.T - t.mat).max() <= 1e-10
        for k in range(3):
            col = q[:, k]
            assert col[np.argmax(np.abs(col))] > 0  # fixed sign convention


def test_unit_trace_is_exact():
    rng = np.random.default_rng(51)
    for _ in range(200):
        a = rng.normal(size=(3, 3))
        m = a @ a.T + 1e-6 * np.eye(3)
        u = unit_trace(m)
        assert np.trace(u) == 1.0


# ---------------------------------------------------------------------------
# scalar estimators

def test_volume_is_plain_sum():
    rng = np.random.default_rng(60)
    g = random_grid(rng, (6, 7, 8), h=0.5)
    assert analyze(g).volume == pytest.approx(g.values.sum() * 0.125, rel=1e-15)
    ones = VoxelGrid(np.ones((4, 4, 4)), spacing=2.0, depth=1)
    assert analyze(ones).volume == 4**3 * 2.0**3
    assert analyze(single_voxel(h=1.0)).volume == 1.0


def test_ball_volume_accurate_at_low_resolution():
    g = displaced_ball(8, 4)  # D = 16 um in a 24 um box, h = 2
    err = abs(analyze(g).volume - BALL_REF.volume) / BALL_REF.volume
    assert err < 0.005


def test_laminate_surface_exact():
    for axis in range(3):
        g = binary_laminate(axis=axis, n=24, h=0.75)
        area = 2 * 24 * 24 * 0.75**2  # two interfaces
        s = analyze(g, None, "central").surface_area
        assert s == pytest.approx(area, rel=1e-12)


def test_single_voxel_surface_and_tensor():
    g = single_voxel(n=8, h=0.5)
    r = analyze(g, None, "central")
    s, w = r.surface_area, r.normal_tensor
    assert s == pytest.approx(3 * 0.5**2, rel=1e-12)
    assert np.abs(w.mat - (0.5**2 / 3) * np.eye(3)).max() <= 1e-9 * 0.5**2


def test_zero_field_gives_zero_tensor():
    g = VoxelGrid(np.zeros((4, 4, 4)), spacing=1.0, depth=1)
    w = analyze(g, None, "central").normal_tensor
    assert np.all(w.mat == 0.0)
    # any constant image, over one or several slabs, in every scheme
    for nx in (2, 3 * SLAB + 1):
        g = VoxelGrid(np.full((nx, 5, 6), 0.3), spacing=0.7, depth=None)
        for scheme in ("central", "forward", "backward"):
            r = analyze(g, None, scheme)
            s, w = r.surface_area, r.normal_tensor
            assert s == 0.0
            assert np.all(w.mat == 0.0)


def test_surface_consistency_with_tensor_trace():
    # 3 tr(W) telescopes back to S when eps_rel is tiny
    rng = np.random.default_rng(61)
    for _ in range(5):
        g = random_grid(rng, (10, 10, 10), depth=3)
        r = analyze(g, None, "central", eps_rel=1e-12)
        s, w = r.surface_area, r.normal_tensor
        assert abs(3 * np.trace(w.mat) - s) / s <= 1e-9


def _whole_grid_sums(vals, h, scheme, eps_rel):
    # the estimator's formula on the whole np.roll gradient at once
    g = roll_gradient(vals, h, scheme)
    norms = np.sqrt((g * g).sum(axis=-1))
    keep = norms > 0
    w = h**3 / (norms[keep] + eps_rel * norms.max())
    return norms.sum() * h**3, np.einsum("ni,nj,n->ij", g[keep], g[keep], w) / 3


def test_slab_sums_match_whole_grid_reference():
    slab = SLAB
    rng = np.random.default_rng(62)
    # nx = 2 (both x-neighbors are one layer), below one slab, one slab,
    # not a multiple of the slab height, several slabs
    for nx in (2, slab - 1, slab, slab + 1, 2 * slab + 3):
        for dims in ((nx, 7, 3), (nx, 5, 6)):
            binary = np.floor(rng.random(dims) + 0.3)  # zero gradients where it is flat
            for vals in (rng.random(dims), binary):
                for h in (0.7, 1.0):
                    g = VoxelGrid(vals, spacing=h, depth=None)
                    for scheme in ("central", "forward", "backward"):
                        for eps_rel in (1e-12, 0.0, 1e-3):
                            r = analyze(g, None, scheme, eps_rel)
                            s, w = r.surface_area, r.normal_tensor
                            s_ref, w_ref = _whole_grid_sums(vals, h, scheme, eps_rel)
                            case = (dims, h, scheme, eps_rel)
                            assert abs(s - s_ref) <= 1e-13 * s_ref, case
                            scale = np.abs(w_ref).max()
                            assert np.abs(w.mat - w_ref).max() <= 1e-13 * scale, case


def test_filtered_sums_with_large_eps_match_whole_grid_stencil():
    # at eps_rel = 0.5 every weight depends on max |g| at first order, so a
    # wrong gmax from the first slab pass moves W far beyond the tolerance
    rng = np.random.default_rng(15)
    cases = ((displaced_ball(8, 2), BallKernel(1.2)),
             (random_grid(rng, (2 * SLAB + 3, 6, 5), h=0.7), GaussianKernel(0.8)))
    for g, kernel in cases:
        f, h = fft_convolve(g, kernel), g.spacing
        d, div = differences(f, 0, f.shape[0], "central")
        grad = (d / (div * h)).reshape(3, -1)
        norms = np.sqrt(np.einsum("ij,ij->j", grad, grad))
        keep = grad[:, norms > 0]
        weights = h**3 / (norms[norms > 0] + 0.5 * norms.max())
        w_ref = (keep * weights) @ keep.T / 3
        r = analyze(g, kernel, "central", eps_rel=0.5)
        s, w = r.surface_area, r.normal_tensor
        assert abs(s - norms.sum() * h**3) <= 1e-12 * s, kernel
        assert np.abs(w.mat - w_ref).max() <= 1e-12 * np.abs(w_ref).max(), kernel


def test_ball_tensor_error_band():
    # no filter, central; the 6% band holds from D/h = 6 upward (at D/h = 4
    # the discretization error still overshoots it)
    for res, p in ((6, 2), (8, 2), (8, 3), (16, 3)):
        s = analyze(displaced_ball(res, p), kernel=None)
        E = relative_tensor_error(s.normal_tensor, BALL_REF.normal_tensor)
        assert E < 0.06, (res, p, E)


# ---------------------------------------------------------------------------
# qnt / beta / errors

def test_eigenvalue_ratio_examples():
    assert eigenvalue_ratio(SymTensor3(np.eye(3) / 3)) == pytest.approx(1.0)
    beta = eigenvalue_ratio(SymTensor3(np.diag([0.048, 0.476, 0.476])))
    assert beta == pytest.approx(0.048 / 0.476, rel=1e-12)
    assert beta == pytest.approx(0.1008, abs=5e-5)
    assert eigenvalue_ratio(SymTensor3(np.diag([1.0, 0.0, 0.0]))) == 0.0
    with pytest.raises(ValueError):
        eigenvalue_ratio(SymTensor3(np.zeros((3, 3))))


def test_relative_tensor_error_examples():
    ref = SymTensor3(np.eye(3) / 3)
    assert relative_tensor_error(ref, ref) == 0.0
    assert relative_tensor_error(SymTensor3(2.0 * ref.mat), ref) == pytest.approx(1.0)
    est = SymTensor3(np.diag([0.35, 0.35, 0.30]))
    assert relative_tensor_error(est, ref) == pytest.approx(np.sqrt(2) / 20,
                                                            rel=1e-12)
    with pytest.raises(ValueError):
        relative_tensor_error(ref, SymTensor3(np.zeros((3, 3))))


def test_tensors_and_their_error_near_the_ends_of_the_float_range():
    ref = SymTensor3(np.eye(3) / 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = SymTensor3(np.full((3, 3), 1e308))
        assert np.all(huge.mat == 1e308)
        assert relative_tensor_error(ref, huge) == pytest.approx(1.0)
        assert relative_tensor_error(ref, SymTensor3(np.diag([1e300, 0, 0]))) == 1.0
        tiny = SymTensor3(np.diag([1e-300, 0, 0]))
        assert relative_tensor_error(ref, tiny) == pytest.approx(np.sqrt(1 / 3) / 1e-300)
        with pytest.raises(ValueError, match="float range"):
            relative_tensor_error(ref, SymTensor3(np.diag([1e-320, 0, 0])))
    # in the normal range, bitwise the plain quotient of norms
    est = SymTensor3(np.diag([0.35, 0.33, 0.32]))
    for r in (ref, SymTensor3(2.0 * ref.mat), SymTensor3(np.diag([5.0, 1e-3, 0.0]))):
        plain = np.linalg.norm(r.mat - est.mat) / np.linalg.norm(r.mat)
        assert relative_tensor_error(est, r) == plain


# ---------------------------------------------------------------------------
# analyze

def test_analyze_degenerate_images():
    # a constant image has no interface voxel, whether solid, void or gray
    for vals, depth in ((np.zeros((6, 6, 6)), 1), (np.ones((6, 6, 6)), 1),
                        (np.full((6, 6, 6), 0.5), None)):
        g = VoxelGrid(vals, spacing=1.0, depth=depth)
        s = analyze(g, kernel=None)
        assert s.qnt is None and s.beta is None
        assert s.surface_area == 0.0
        assert np.all(s.normal_tensor.mat == 0.0)
        assert s.volume == pytest.approx(vals.sum() * 1.0)


def test_analyze_volume_ignores_filter():
    g = displaced_ball(16, 2)  # 24^3 at h = 1, room for the 3-sigma support
    v_none = analyze(g, kernel=None).volume
    v_ball = analyze(g, kernel=BallKernel(1.2)).volume
    v_gauss = analyze(g, kernel=GaussianKernel(2.0)).volume
    assert v_none == v_ball == v_gauss == _exact_volume(g)


def _exact_volume(g: VoxelGrid) -> float:
    """h^3 (sum k) / m of a depth-p grid, the sum of its color indices k exact."""
    return int(g.index.sum(dtype=np.int64)) / color_steps(g.depth) * g.spacing**3


def test_analyze_metadata_and_invariants():
    g = displaced_ball(8, 2)
    s = analyze(g, kernel=BallKernel(1.2), scheme="central")
    assert s.qnt is not None
    assert np.trace(s.qnt.mat) == 1.0
    assert s.qnt.eigensystem()[0][-1] >= -1e-10  # PSD
    assert 0.0 <= s.beta <= 1.0
    # a ball is isotropic: beta near one, QNT near I/3
    assert s.beta > 0.9
    assert relative_tensor_error(s.qnt, BALL_REF.qnt) < 0.02


def test_analyze_translation_invariant():
    rng = np.random.default_rng(70)
    g = displaced_ball(6, 2)
    for kern in (None, BallKernel(1.2)):
        base = analyze(g, kernel=kern)
        for _ in range(3):
            d = tuple(int(v) for v in rng.integers(-6, 7, size=3))
            s = analyze(shift(g, d), kernel=kern)
            assert abs(s.volume - base.volume) <= 1e-10 * base.volume
            assert abs(s.surface_area - base.surface_area) <= 1e-10 * base.surface_area
            scale = np.linalg.norm(base.normal_tensor.mat)
            assert np.abs(s.normal_tensor.mat - base.normal_tensor.mat).max() \
                <= 1e-10 * scale


def test_analyze_cube_equivariant():
    rng = np.random.default_rng(71)
    g = quantize(random_grid(rng, (8, 8, 8)), 3)
    for kern in (None, GaussianKernel(1.2), BallKernel(1.2)):
        base = analyze(g, kernel=kern)
        scale = np.linalg.norm(base.normal_tensor.mat)
        for mat, apply in cube_symmetries():
            moved = VoxelGrid(np.ascontiguousarray(apply(g.values)),
                              spacing=g.spacing, depth=g.depth)
            s = analyze(moved, kernel=kern)
            expect = mat @ base.normal_tensor.mat @ mat.T
            assert np.abs(s.normal_tensor.mat - expect).max() <= 1e-10 * scale
            assert abs(s.surface_area - base.surface_area) \
                <= 1e-10 * base.surface_area


def test_analyze_additive_for_separated_balls():
    dims, h = (40, 20, 20), 1.0
    a = Ball(center=(10.37, 10.21, 10.11), radius=6.0)
    b = Ball(center=(30.11, 10.37, 10.21), radius=6.0)
    ga = voxelize(a, dims, h, 2)
    gb = voxelize(b, dims, h, 2)
    gu = voxelize(ShapeUnion((a, b)), dims, h, 2)
    for kern in (None, BallKernel(1.2)):
        sa, sb, su = (analyze(x, kernel=kern) for x in (ga, gb, gu))
        scale = np.linalg.norm(su.normal_tensor.mat)
        assert abs(su.surface_area - sa.surface_area - sb.surface_area) \
            <= 1e-10 * su.surface_area
        assert np.abs(su.normal_tensor.mat - sa.normal_tensor.mat
                      - sb.normal_tensor.mat).max() <= 1e-10 * scale
        assert su.volume == pytest.approx(sa.volume + sb.volume, rel=1e-12)


def test_qnt_invariant_under_gray_scaling():
    rng = np.random.default_rng(72)
    g = displaced_ball(6, 2)
    base = analyze(g, kernel=None)
    for c in (0.5, 0.125, 0.9):
        scaled = VoxelGrid(g.values * c, spacing=g.spacing, depth=None)
        s = analyze(scaled, kernel=None)
        assert np.abs(s.qnt.mat - base.qnt.mat).max() <= 1e-10
        assert abs(s.beta - base.beta) <= 1e-10
    del rng


def test_beta_one_iff_isotropic():
    assert eigenvalue_ratio(SymTensor3(7.3 * np.eye(3))) == 1.0
    t = SymTensor3(np.diag([1.0, 1.0, 1.0 + 1e-6]))
    assert eigenvalue_ratio(t) < 1.0


@st.composite
def _small_volumes(draw):
    """Noise or smoothed-noise blobs on 6-12^3 voxels, snapped to depth 1-4."""
    dims = tuple(draw(st.integers(6, 12)) for _ in range(3))
    depth = draw(st.integers(1, 4))
    vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(dims)
    if draw(st.booleans()):
        for axis in range(3):
            vals = vals + np.roll(vals, 1, axis) + np.roll(vals, -1, axis)
        vals = (vals - vals.min()) / (vals.max() - vals.min())
    return quantize(VoxelGrid(vals, 1.0, None), depth).values, depth


def _normal_entries(t: SymTensor3) -> bool:
    # the scale-back to a subnormal W rounds it, so only normal entries compare
    return not ((t.mat != 0) & (np.abs(t.mat) < 2.0**-1022)).any()


@settings(max_examples=200, database=None, deadline=None)
@given(volume=_small_volumes(),
       kernel=st.one_of(st.none(), st.builds(BallKernel, st.floats(0.5, 1.4)),
                        st.builds(GaussianKernel, st.floats(0.3, 0.9))),
       eps_rel=st.sampled_from([1e-12, 0.5, 1e100, 1e300]),
       h=st.sampled_from([1.0, 0.7, 3.0]),
       k=st.sampled_from([-30, -17, -1, 1, 20, 40]))
def test_power_of_two_spacing_scales_the_estimates_exactly(volume, kernel, eps_rel, h, k):
    # V, S and W scale by 2^3k, 2^2k and 2^2k bitwise; the QNT and beta do not move,
    # also where eps dwarfs h^3 and W itself is subnormal
    vals, depth = volume

    def run(spacing):
        try:
            return analyze(VoxelGrid(vals, spacing, depth), kernel, "central", eps_rel)
        except (ValueError, NumericalError) as exc:
            assert "overflows" in str(exc) or "underflowed" in str(exc)
            return None

    base, scaled = run(h), run(math.ldexp(h, k))
    if base is None or scaled is None:
        return
    assert scaled.volume == math.ldexp(base.volume, 3 * k)
    assert scaled.surface_area == math.ldexp(base.surface_area, 2 * k)
    if _normal_entries(base.normal_tensor) and _normal_entries(scaled.normal_tensor):
        assert np.array_equal(scaled.normal_tensor.mat, np.ldexp(base.normal_tensor.mat, 2 * k))
    assert (scaled.qnt is None) == (base.qnt is None)
    if base.qnt is not None:
        assert np.array_equal(scaled.qnt.mat, base.qnt.mat)
        assert scaled.beta == base.beta


def test_power_of_two_spacing_keeps_w_entries_just_above_the_normal_floor():
    # the property above does not reach W entries in [2^-1022, 2^-1021): here one with
    # an odd last bit, which halving and doubling back, (m / 2 + m.T / 2), would round
    vals = quantize(VoxelGrid(np.random.default_rng(1).random((7, 7, 7)), 1.0, None), 2).values
    base, scaled = (analyze(VoxelGrid(vals, h, 2), None, "central", 4e306) for h in (1.0, 2.0))
    w = base.normal_tensor.mat
    low = (np.abs(w) >= 2.0**-1022) & (np.abs(w) < 2.0**-1021) & (w.view(np.int64) % 2 == 1)
    assert low.any()
    assert np.array_equal(scaled.normal_tensor.mat, np.ldexp(w, 2))
    assert np.array_equal(scaled.qnt.mat, base.qnt.mat) and scaled.beta == base.beta


@settings(max_examples=300, database=None, deadline=None)
@given(volume=_small_volumes(),
       kernel=st.one_of(st.none(), st.builds(BallKernel, st.floats(0.5, 1.4)),
                        st.builds(GaussianKernel, st.floats(0.3, 0.9))),
       scheme=st.sampled_from(("central", "forward", "backward")),
       eps_rel=st.sampled_from([0.0, 1e-12, 0.5, 1e100, 1e300]),
       continuous=st.booleans())
def test_any_spacing_scales_the_estimates_exactly(volume, kernel, scheme, eps_rel, continuous):
    # the sums are taken in lattice units and h is applied once, so at spacings that
    # are no power of two V, S, W and gmax scale as h^3, h h, h h and 1/h bitwise, and
    # the QNT, beta and the interface voxels do not move; a continuous grid takes the
    # float route, a depth-p one the integer route where its support allows
    vals, depth = volume

    def run(h):
        try:
            return analyze(VoxelGrid(vals, h, None if continuous else depth),
                           kernel, scheme, eps_rel)
        except (ValueError, NumericalError) as exc:
            assert "overflows" in str(exc) or "underflowed" in str(exc)
            return None

    base = run(1.0)
    for h in (0.7, 3.1, 1e-5, 123.4):
        scaled = run(h)
        if base is None or scaled is None:
            continue
        assert scaled.volume == base.volume * h**3, h
        assert scaled.surface_area == base.surface_area * (h * h), h
        assert scaled.gmax == base.gmax / h, h
        if _normal_entries(base.normal_tensor) and _normal_entries(scaled.normal_tensor):
            assert np.array_equal(scaled.normal_tensor.mat, base.normal_tensor.mat * (h * h)), h
        assert scaled.interface_voxels == base.interface_voxels, h
        assert (scaled.qnt is None) == (base.qnt is None), h
        if base.qnt is not None:
            assert np.array_equal(scaled.qnt.mat, base.qnt.mat), h
            assert scaled.beta == base.beta, h


# ---------------------------------------------------------------------------
# the integer route: depth-p images with no kernel or 1 or 7 equal-weight points

def _float_route(g: VoxelGrid, *args):
    """analyze of the same grid on the float route, with the class bound at 0."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(minkowski, "_BINS", 0)
        return analyze(g, *args)


def _assert_routes_agree(a, b, case, tol=1e-14):
    assert a.volume == b.volume, case
    assert abs(a.surface_area - b.surface_area) <= tol * b.surface_area, case
    scale = np.abs(b.normal_tensor.mat).max()
    assert np.abs(a.normal_tensor.mat - b.normal_tensor.mat).max() <= tol * scale, case
    assert np.abs(a.qnt.mat - b.qnt.mat).max() <= tol, case
    assert abs(a.gmax - b.gmax) <= tol * b.gmax, case


def _counting_filter(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fft_convolve(*args, **kwargs)

    monkeypatch.setattr(minkowski, "fft_convolve", counted)
    return calls


def test_integer_route_edges_agree_with_the_float_route(monkeypatch):
    calls = _counting_filter(monkeypatch)
    rng = np.random.default_rng(80)
    ball = displaced_ball(8, 2)
    noise = random_grid(rng, (9, 7, 8), h=0.7, depth=3)
    binary = random_grid(rng, (7, 9, 6), h=1.3, depth=1)  # m = 1
    cases = [(g, kernel, scheme, eps_rel)
             for g in (ball, noise, binary)
             for kernel in (None, BallKernel(1.2))
             for scheme in ("central", "forward", "backward")
             for eps_rel in (1e-12, 0.5)]
    # one-point supports: a ball below sigma 1 and a Gaussian of 3 sigma below 1
    cases += [(g, kernel, "central", 1e-12) for g in (ball, noise)
              for kernel in (BallKernel(0.9), GaussianKernel(0.33))]
    for g, kernel, scheme, eps_rel in cases:
        case = (g.dims, g.depth, kernel, scheme, eps_rel)
        calls.clear()
        r = analyze(g, kernel, scheme, eps_rel)
        assert not calls, case  # no filter ran
        _assert_routes_agree(r, _float_route(g, kernel, scheme, eps_rel), case)
        if kernel is None or kernel.sigma < 1:  # N = k: one support point is no kernel
            none = analyze(g, None, scheme, eps_rel)
            assert (r.surface_area, r.gmax) == (none.surface_area, none.gmax), case
            assert np.array_equal(r.normal_tensor.mat, none.normal_tensor.mat), case
        if kernel is None:
            assert r.interface_voxels == _float_route(g, kernel, scheme).interface_voxels


def test_one_point_supports_are_no_kernel(monkeypatch):
    # a one-point support's only sample is exactly 1: on either route, analyze runs
    # no filter and gives bitwise what no kernel gives, route included
    calls = _counting_filter(monkeypatch)
    rng = np.random.default_rng(82)
    for g in (random_grid(rng, (9, 7, 8)), random_grid(rng, (7, 9, 6), depth=2)):
        none = analyze(g, None)
        for kernel in (BallKernel(0.4), GaussianKernel(0.3)):
            r = analyze(g, kernel)
            assert not calls, (g.depth, kernel)
            assert r.route == none.route == ("identity" if g.depth is None else "integer")
            for field in ("volume", "surface_area", "beta", "interface_voxels", "gmax"):
                assert getattr(r, field) == getattr(none, field), (g.depth, kernel, field)
            assert np.array_equal(r.normal_tensor.mat, none.normal_tensor.mat)
            assert np.array_equal(r.qnt.mat, none.qnt.mat)


def test_inputs_above_the_class_bound_take_the_float_route(monkeypatch):
    # no kernel: 3 m^2 + 1 classes are 46,129 at depth 5 and 138,676 at depth 6;
    # ball 1.2: 99,373 at depth 3 and 583,444 at depth 4; the bound is 2^17
    calls = _counting_filter(monkeypatch)
    rng = np.random.default_rng(81)
    for depth, kernel, integer in ((5, None, True), (6, None, False),
                                   (3, BallKernel(1.2), True), (4, BallKernel(1.2), False),
                                   (2, GaussianKernel(1.2), False)):
        g = random_grid(rng, (8, 9, 10), depth=depth)
        calls.clear()
        r = analyze(g, kernel)
        assert (r.route == "integer") == integer, (depth, kernel)
        assert (not calls) == (integer or kernel is None), (depth, kernel)  # no kernel, no filter
        f = _float_route(g, kernel)
        if integer:
            _assert_routes_agree(r, f, (depth, kernel))
        else:  # the same float code on the same values
            assert (r.surface_area, r.gmax, r.interface_voxels) == \
                (f.surface_area, f.gmax, f.interface_voxels)
            assert np.array_equal(r.normal_tensor.mat, f.normal_tensor.mat)
            assert np.array_equal(r.qnt.mat, f.qnt.mat)


def test_huge_eps_errors_agree_between_routes():
    # the cases of test_huge_eps_fails_loudly_rather_than_reporting_no_interfaces,
    # whose binary single voxel takes the integer route, raise alike on the float route
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h, eps_rel, error, match in ((0.1, 1e308, ValueError, "overflows"),
                                         (1e-20, 1e300, ValueError, "overflows"),
                                         (1e-8, 1e300, NumericalError, "underflowed")):
            g = single_voxel(h=h)
            messages = []
            for run in (analyze, _float_route):
                with pytest.raises(error, match=match) as info:
                    run(g, None, "central", eps_rel)
                messages.append(str(info.value))
            assert messages[0] == messages[1]


@st.composite
def _depth_cubes(draw):
    """Noise or smoothed-noise blobs on an n^3 cube, n in 5-9, snapped to depth 1-3."""
    n = draw(st.integers(5, 9))
    depth = draw(st.integers(1, 3))
    vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, n, n))
    if draw(st.booleans()):
        for axis in range(3):
            vals = vals + np.roll(vals, 1, axis) + np.roll(vals, -1, axis)
        vals = (vals - vals.min()) / (vals.max() - vals.min())
    return quantize(VoxelGrid(vals, 1.0, None), depth)


_KERNELS = st.sampled_from([None, BallKernel(1.2)])


def _same_s_and_w(a, b, mat=np.eye(3)):
    return a.surface_area == b.surface_area and \
        np.array_equal(a.normal_tensor.mat, mat @ b.normal_tensor.mat @ mat.T)


@settings(max_examples=60, database=None, deadline=None)
@given(g=_depth_cubes(), kernel=_KERNELS, data=st.data())
def test_integer_route_is_exactly_shift_invariant(g, kernel, data):
    n = g.dims[0]
    offset = data.draw(st.tuples(*[st.integers(-n, n)] * 3))
    base, moved = analyze(g, kernel), analyze(shift(g, offset), kernel)
    assert _same_s_and_w(moved, base)
    assert base.volume == _exact_volume(g)
    assert moved.volume == base.volume  # an integer sum: the same in any order
    assert (moved.qnt is None) == (base.qnt is None)
    if base.qnt is not None:
        assert np.array_equal(moved.qnt.mat, base.qnt.mat)


@settings(max_examples=15, database=None, deadline=None)
@given(g=_depth_cubes(), kernel=_KERNELS)
def test_integer_route_is_exactly_cube_equivariant(g, kernel):
    base = analyze(g, kernel)
    for mat, apply in cube_symmetries():
        moved = analyze(VoxelGrid(apply(g.values), g.spacing, g.depth), kernel)
        assert _same_s_and_w(moved, base, mat)  # W permuted and sign-flipped exactly
        assert moved.volume == base.volume


@settings(max_examples=60, database=None, deadline=None)
@given(g=_depth_cubes(), kernel=_KERNELS)
def test_integer_route_is_exactly_complement_invariant(g, kernel):
    m = color_steps(g.depth)
    k = np.rint(g.values * m)
    complement = VoxelGrid((m - k) / m, g.spacing, g.depth)
    c = analyze(complement, kernel)
    assert _same_s_and_w(c, analyze(g, kernel))
    assert c.volume == (k.size * m - int(k.sum())) / m * g.spacing**3  # sum m - k exactly


@settings(max_examples=100, database=None, deadline=None)
@given(g=_depth_cubes(), kernel=_KERNELS, eps_rel=st.sampled_from([1e-12, 0.0, 0.5, 1e3]))
def test_integer_and_float_routes_agree(g, kernel, eps_rel):
    r, f = analyze(g, kernel, "central", eps_rel), _float_route(g, kernel, "central", eps_rel)
    if f.qnt is None:
        assert r.qnt is None and r.surface_area == f.surface_area == 0.0
    else:
        _assert_routes_agree(r, f, (g.dims, g.depth, kernel, eps_rel))
