import numpy as np
import pytest

from minkvox import (
    BallKernel,
    Cylinder,
    FiberSpec,
    SymTensor3,
    analyze,
    ball_quantities,
    cylinder_quantities,
    eigenvalue_ratio,
    fiber_system_tensors,
    relative_tensor_error,
    run_convergence,
    voxelize,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def fiber(axis, aspect, diameter=1.0):
    return FiberSpec(axis=np.asarray(axis, dtype=float),
                     length=aspect * diameter, diameter=diameter)


# ---------------------------------------------------------------------------
# ball

def test_ball_quantities_closed_forms():
    q = ball_quantities(1.0)
    assert q.volume == pytest.approx(4 * np.pi / 3, rel=1e-15)
    assert q.surface_area == pytest.approx(4 * np.pi, rel=1e-15)
    assert np.allclose(q.normal_tensor.mat, 4 * np.pi / 9 * np.eye(3),
                       rtol=1e-15)
    assert np.array_equal(q.qnt.mat, np.eye(3) / 3)
    with pytest.raises(ValueError):
        ball_quantities(0.0)


# ---------------------------------------------------------------------------
# single cylinder

def test_fiberspec_validation():
    with pytest.raises(ValueError):
        FiberSpec(axis=np.array([1.0, 1.0, 0.0]), length=1.0, diameter=1.0)
    with pytest.raises(ValueError):
        FiberSpec(axis=EX, length=0.0, diameter=1.0)
    with pytest.raises(ValueError):
        FiberSpec(axis=EX, length=1.0, diameter=-1.0)
    with pytest.raises(ValueError, match="unit vector"):
        FiberSpec(axis=np.array([np.nan, 0.0, 0.0]), length=1.0, diameter=1.0)
    with pytest.raises(ValueError, match="finite"):
        FiberSpec(axis=EX, length=np.inf, diameter=1.0)


def test_cylinder_volume_and_surface_closed_forms():
    # D = 2, L = 10: V = pi * 1^2 * 10, S = pi * 2 * 10 + 2 * pi * 1^2
    oblique = np.array([1.0, -2.0, 2.0]) / 3
    for axis in (EX, oblique):
        q = cylinder_quantities(FiberSpec(axis=axis, length=10.0, diameter=2.0))
        assert q.volume == pytest.approx(10 * np.pi, rel=1e-15)
        assert q.surface_area == pytest.approx(22 * np.pi, rel=1e-15)


def test_cylinder_convergence_rows_use_cylinder_references():
    rows = run_convergence("cylinder", 4.0, (4, 8), (2,), [None, BallKernel(1.2)], aspect=4.0)
    assert len(rows) == 4
    fiber = FiberSpec(axis=(1.0, 0.0, 0.0), length=16.0, diameter=4.0)
    ref = cylinder_quantities(fiber)
    volume_err = {4.0: 0.046, 8.0: 0.035}  # measured when this test was written
    for r in rows:
        # the sweep's own setup: box (L + D, 2D, 2D), centered, voxel size D/(D/h)
        dims = tuple(int(round(b * r.d_over_h)) for b in (5, 2, 2))
        h = 4.0 / r.d_over_h
        body = Cylinder(tuple(n * h / 2 for n in dims), fiber.axis, 16.0, 4.0)
        kernel = None if r.kernel == "none" else BallKernel(1.2)
        s = analyze(voxelize(body, dims, h, depth=2), kernel=kernel)
        assert (r.volume, r.surface_area) == (s.volume, s.surface_area)
        assert r.volume_err == (s.volume - ref.volume) / ref.volume
        assert r.surface_err == (s.surface_area - ref.surface_area) / ref.surface_area
        assert r.tensor_err == relative_tensor_error(s.normal_tensor, ref.normal_tensor)
        assert r.qnt_err == relative_tensor_error(s.qnt, ref.qnt)
        # within 3x of the errors measured when this test was written
        assert 0 < r.volume_err <= 3 * volume_err[r.d_over_h], r
        assert abs(r.surface_err) <= 3 * 0.081, r
        assert r.tensor_err <= 3 * 0.074, r
        assert r.qnt_err <= 3 * 0.030, r


def test_cylinder_tensor_unit_aspect_is_isotropic():
    w = cylinder_quantities(fiber(EZ, 1.0, diameter=2.0)).normal_tensor
    assert np.allclose(w.mat, np.pi * 4.0 / 6 * np.eye(3), rtol=1e-15)
    q = cylinder_quantities(fiber(EX, 1.0)).qnt
    assert np.abs(q.mat - np.eye(3) / 3).max() <= 1e-15


def test_cylinder_tensor_matches_axis_aligned_form():
    R, L = 1.5, 9.0
    w = cylinder_quantities(
        FiberSpec(axis=EZ, length=L, diameter=2 * R)).normal_tensor
    expect = 2 * np.pi / 3 * R**2 * (
        np.outer(EZ, EZ) + L / (2 * R) * (np.eye(3) - np.outer(EZ, EZ)))
    assert np.array_equal(w.mat, expect)


def test_cylinder_spectrum_rotation_invariant():
    diag_axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
    for aspect in (2.0, 10.0, 25.0):
        lam_axis = cylinder_quantities(
            fiber(EZ, aspect)).normal_tensor.eigensystem()[0]
        lam_diag = cylinder_quantities(
            fiber(diag_axis, aspect)).normal_tensor.eigensystem()[0]
        assert np.abs(lam_axis - lam_diag).max() <= 1e-12 * lam_axis[0]


def test_fiber_qnt_reference_values():
    q10 = cylinder_quantities(fiber(EX, 10.0)).qnt
    d10 = np.diag(q10.mat)
    assert np.abs(d10 - [1 / 21, 10 / 21, 10 / 21]).max() <= 1e-15
    assert np.trace(q10.mat) == 1.0
    q50 = cylinder_quantities(fiber(EX, 50.0)).qnt
    assert np.diag(q50.mat) == pytest.approx([1 / 101, 50 / 101, 50 / 101],
                                             rel=1e-14)
    # digits quoted to 3-4 places
    assert q50.mat[0, 0] == pytest.approx(0.0099, abs=5e-5)


def test_fiber_qnt_trace_exactly_one():
    rng = np.random.default_rng(90)
    for _ in range(100):
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        q = cylinder_quantities(FiberSpec(axis=ax,
                                          length=float(rng.uniform(1, 60)),
                                          diameter=float(rng.uniform(0.2, 3)))).qnt
        assert np.trace(q.mat) == 1.0


def test_fiber_qnt_has_double_eigenvalue():
    rng = np.random.default_rng(91)
    for _ in range(50):
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        q = cylinder_quantities(FiberSpec(axis=ax, length=12.0, diameter=1.5)).qnt
        lam = q.eigensystem()[0]
        # transverse isotropy about the axis
        assert abs(lam[0] - lam[1]) <= 1e-12 * lam[0]
        assert lam[2] < lam[1]


def test_fiber_beta_is_inverse_aspect():
    # exact identity: beta = D/L for every aspect; the 0.1003 reference value
    # carries its own ~0.3% rounding, hence the loose band below
    for aspect in (10.0, 25.0, 50.0):
        beta = eigenvalue_ratio(cylinder_quantities(fiber(EZ, aspect)).qnt)
        assert beta == pytest.approx(1 / aspect, rel=1e-12)
    beta10 = eigenvalue_ratio(cylinder_quantities(fiber(EY, 10.0)).qnt)
    assert abs(beta10 - 0.1003) <= 0.01 * 0.1003


# ---------------------------------------------------------------------------
# fiber systems

def test_unidirectional_system():
    fibers = [fiber(EX, 10.0) for _ in range(7)]
    a, w, qnt = fiber_system_tensors(fibers)
    assert np.array_equal(a.mat, np.diag([1.0, 0.0, 0.0]))
    single = cylinder_quantities(fibers[0]).normal_tensor.mat
    # summed tensor: repeated addition rounds differently than one multiply
    assert np.abs(w.mat - 7 * single).max() <= 1e-14 * np.abs(single).max()
    assert np.abs(qnt.mat - cylinder_quantities(fibers[0]).qnt.mat).max() <= 1e-15


def test_orthogonal_triple_system_is_isotropic():
    fibers = [fiber(EX, 10.0), fiber(EY, 10.0), fiber(EZ, 10.0)]
    a, w, qnt = fiber_system_tensors(fibers)
    assert np.abs(a.mat - np.eye(3) / 3).max() <= 1e-15
    assert np.abs(qnt.mat - np.eye(3) / 3).max() <= 1e-15


def test_two_fiber_system_qnt():
    fibers = [fiber(EX, 10.0), fiber(EY, 10.0)]
    _, _, qnt = fiber_system_tensors(fibers)
    d = np.diag(qnt.mat)
    assert d[0] == 11 / 42 and d[1] == 11 / 42
    assert abs(d[2] - 20 / 42) <= 1e-15
    assert np.trace(qnt.mat) == 1.0


def test_system_permutation_invariant():
    rng = np.random.default_rng(92)
    fibers = []
    for _ in range(12):
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        fibers.append(FiberSpec(axis=ax, length=float(rng.uniform(5, 30)),
                                diameter=float(rng.uniform(0.5, 2))))
    ref = fiber_system_tensors(fibers)
    for seed in range(4):
        shuffled = list(fibers)
        np.random.default_rng(seed).shuffle(shuffled)
        got = fiber_system_tensors(shuffled)
        assert np.array_equal(ref[0].mat, got[0].mat)
        assert np.array_equal(ref[1].mat, got[1].mat)
        assert np.array_equal(ref[2].mat, got[2].mat)


def test_empty_system_rejected():
    with pytest.raises(ValueError):
        fiber_system_tensors([])
