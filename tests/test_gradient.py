import numpy as np
import pytest

from minkvox import BallKernel, SCHEMES, VoxelGrid, fft_convolve
from minkvox.gradient import VectorField, stencil

from gridmakers import BALL_SHIFT_UM, displaced_ball, roll_gradient, single_voxel


def gradient(v: np.ndarray, h: float, scheme: str) -> np.ndarray:
    """The slab stencil over the whole grid, shape v.shape + (3,)."""
    return np.moveaxis(stencil(v, 0, len(v), h, scheme), 0, -1)


def sin_grid(n: int, h: float = 1.0) -> VoxelGrid:
    x = (np.arange(n) + 0.5) * h
    vals = 0.5 + 0.4 * np.sin(2 * np.pi * x / (n * h))
    return VoxelGrid(np.broadcast_to(vals[:, None, None], (n, 4, 4)).copy(),
                     spacing=h, depth=None)


def test_schemes_tuple():
    assert SCHEMES == ("central", "forward", "backward")
    with pytest.raises(ValueError):
        gradient(single_voxel().values, 1.0, "sobel")


def test_constant_image_zero_gradient():
    g = VoxelGrid(np.full((5, 5, 5), 3 / 7), spacing=2.0, depth=2)
    for scheme in SCHEMES:
        f = gradient(g.values, g.spacing, scheme)
        assert np.all(f == 0.0)


def test_central_difference_converges_quadratically():
    # quadrupling the resolution should cut the max error by ~16x; 12x is
    # asserted to leave room for the prefactor
    errs = {}
    for n in (16, 64):
        h = 64.0 / n
        g = sin_grid(n, h)
        f = gradient(g.values, g.spacing, "central")
        x = (np.arange(n) + 0.5) * h
        exact = 0.4 * (2 * np.pi / 64.0) * np.cos(2 * np.pi * x / 64.0)
        errs[n] = np.max(np.abs(f[:, 0, 0, 0] - exact))
    assert errs[16] / errs[64] >= 12.0


def test_single_voxel_central_stencil():
    g = single_voxel(n=8, h=0.5, at=(3, 4, 2))
    f = gradient(g.values, g.spacing, "central")
    norms = np.linalg.norm(f, axis=-1)
    nz = np.argwhere(norms > 0)
    assert len(nz) == 6  # only the six face neighbors see the voxel
    assert np.allclose(norms[norms > 0], 1 / (2 * 0.5))
    # sign: the neighbor at +x sees a backward jump
    assert f[4, 4, 2, 0] == -1 / (2 * 0.5)
    assert f[2, 4, 2, 0] == +1 / (2 * 0.5)


def test_central_gradient_sums_to_zero():
    rng = np.random.default_rng(11)
    for _ in range(5):
        h = float(rng.uniform(0.3, 3.0))
        vals = rng.random((9, 7, 8))
        f = gradient(vals, h, "central")
        tol = vals.size * 1e-12 / h
        for c in range(3):
            assert abs(f[..., c].sum()) <= tol


def test_mirror_flips_one_component():
    rng = np.random.default_rng(12)
    vals = rng.random((6, 7, 8))
    f = gradient(vals, 1.0, "central")
    for ax in range(3):
        fm = gradient(np.flip(vals, axis=ax).copy(), 1.0, "central")
        for c in range(3):
            expect = np.flip(f[..., c], axis=ax)
            if c == ax:
                expect = -expect
            assert np.array_equal(fm[..., c], expect), (ax, c)


def test_forward_backward_are_shifts():
    rng = np.random.default_rng(13)
    vals = rng.random((6, 6, 6))
    fwd = gradient(vals, 1.3, "forward")
    bwd = gradient(vals, 1.3, "backward")
    for c in range(3):
        assert np.array_equal(bwd[..., c], np.roll(fwd[..., c], 1, axis=c))


def test_gradient_bitwise_equals_roll_reference():
    # the sliced stencil reads the periodic neighbors in place; fiber-orient
    # depends on it matching np.roll copies bit for bit
    rng = np.random.default_rng(14)
    for dims in ((2, 5, 3), (5, 7, 3), (9, 6, 2), (3, 2, 8)):
        vals = rng.random(dims)
        for h in (0.7, 1.0, 1.3):
            for scheme in SCHEMES:
                assert np.array_equal(gradient(vals, h, scheme),
                                      roll_gradient(vals, h, scheme)), (dims, h, scheme)


def test_vector_field_validation():
    with pytest.raises(ValueError):
        VectorField(np.zeros((4, 4, 4)), spacing=1.0, scheme="central")
    bad = np.zeros((4, 4, 4, 3))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        VectorField(bad, spacing=1.0, scheme="central")


def test_ball_pole_normal_points_outward():
    # at the +x pole of a smoothed ball the estimated outward normal should
    # be within 10 degrees of e_x
    for res, p in ((8, 2), (16, 2)):
        g = displaced_ball(res, p)
        h = g.spacing
        f = gradient(fft_convolve(g, BallKernel(1.2)), h, "central")
        center = np.array(g.dims) * h / 2 + np.array(BALL_SHIFT_UM)
        pole = center + np.array([8.0, 0.0, 0.0])
        idx = tuple(int(round(c / h - 0.5)) for c in pole)
        n = -f[idx] / np.linalg.norm(f[idx])  # outward unit normal
        cosang = float(n @ np.array([1.0, 0.0, 0.0]))
        assert cosang >= np.cos(np.radians(10.0)), (res, p, cosang)
