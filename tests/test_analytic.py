import numpy as np
import pytest

from minkvox import (
    FiberSpec,
    SymTensor3,
    ball_quantities,
    cylinder_normal_tensor,
    cylinder_qnt,
    eigenvalue_ratio,
    fiber_system_tensors,
    steiner_volume,
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
    assert q.mean_width_integral == 4.0
    assert q.euler == 1.0
    q2 = ball_quantities(2.0)
    assert q2.mean_width_integral == 8.0
    assert q2.euler == 1.0
    with pytest.raises(ValueError):
        ball_quantities(0.0)


def test_steiner_examples():
    assert steiner_volume(1.0, 0.0) == pytest.approx(4 * np.pi / 3, rel=1e-15)
    assert steiner_volume(1.0, 1.0) == pytest.approx(32 * np.pi / 3, rel=1e-15)
    assert steiner_volume(1.0, 0.5) == pytest.approx(4.5 * np.pi, rel=1e-15)


def test_steiner_matches_grown_ball():
    for R in (0.5, 1.0, 3.0):
        for eps in (0.0, 0.1, 1.0, 10.0):
            direct = 4 * np.pi / 3 * (R + eps) ** 3
            assert abs(steiner_volume(R, eps) - direct) <= 1e-12 * direct


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


def test_cylinder_tensor_unit_aspect_is_isotropic():
    w = cylinder_normal_tensor(fiber(EZ, 1.0, diameter=2.0))
    assert np.allclose(w.mat, np.pi * 4.0 / 6 * np.eye(3), rtol=1e-15)
    q = cylinder_qnt(fiber(EX, 1.0))
    assert np.abs(q.mat - np.eye(3) / 3).max() <= 1e-15


def test_cylinder_tensor_matches_axis_aligned_form():
    R, L = 1.5, 9.0
    w = cylinder_normal_tensor(
        FiberSpec(axis=EZ, length=L, diameter=2 * R))
    expect = 2 * np.pi / 3 * R**2 * (
        np.outer(EZ, EZ) + L / (2 * R) * (np.eye(3) - np.outer(EZ, EZ)))
    assert np.array_equal(w.mat, expect)


def test_cylinder_spectrum_rotation_invariant():
    diag_axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
    for aspect in (2.0, 10.0, 25.0):
        lam_axis = cylinder_normal_tensor(fiber(EZ, aspect)).eigenvalues()
        lam_diag = cylinder_normal_tensor(
            fiber(diag_axis, aspect)).eigenvalues()
        assert np.abs(lam_axis - lam_diag).max() <= 1e-12 * lam_axis[0]


def test_fiber_qnt_reference_values():
    q10 = cylinder_qnt(fiber(EX, 10.0))
    d10 = np.diag(q10.mat)
    assert np.abs(d10 - [1 / 21, 10 / 21, 10 / 21]).max() <= 1e-15
    assert np.trace(q10.mat) == 1.0
    q50 = cylinder_qnt(fiber(EX, 50.0))
    assert np.diag(q50.mat) == pytest.approx([1 / 101, 50 / 101, 50 / 101],
                                             rel=1e-14)
    # digits quoted to 3-4 places
    assert q50.mat[0, 0] == pytest.approx(0.0099, abs=5e-5)


def test_fiber_qnt_trace_exactly_one():
    rng = np.random.default_rng(90)
    for _ in range(100):
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        q = cylinder_qnt(FiberSpec(axis=ax,
                                   length=float(rng.uniform(1, 60)),
                                   diameter=float(rng.uniform(0.2, 3))))
        assert np.trace(q.mat) == 1.0


def test_fiber_qnt_has_double_eigenvalue():
    rng = np.random.default_rng(91)
    for _ in range(50):
        ax = rng.normal(size=3)
        ax /= np.linalg.norm(ax)
        q = cylinder_qnt(FiberSpec(axis=ax, length=12.0, diameter=1.5))
        lam = q.eigenvalues()
        # transverse isotropy about the axis
        assert abs(lam[0] - lam[1]) <= 1e-12 * lam[0]
        assert lam[2] < lam[1]


def test_fiber_beta_is_inverse_aspect():
    # exact identity: beta = D/L for every aspect; the 0.1003 reference value
    # carries its own ~0.3% rounding, hence the loose band below
    for aspect in (10.0, 25.0, 50.0):
        beta = eigenvalue_ratio(cylinder_qnt(fiber(EZ, aspect)))
        assert beta == pytest.approx(1 / aspect, rel=1e-12)
    beta10 = eigenvalue_ratio(cylinder_qnt(fiber(EY, 10.0)))
    assert abs(beta10 - 0.1003) <= 0.01 * 0.1003


# ---------------------------------------------------------------------------
# fiber systems

def test_unidirectional_system():
    fibers = [fiber(EX, 10.0) for _ in range(7)]
    a, w, qnt = fiber_system_tensors(fibers)
    assert np.array_equal(a.mat, np.diag([1.0, 0.0, 0.0]))
    single = cylinder_normal_tensor(fibers[0]).mat
    # summed tensor: repeated addition rounds differently than one multiply
    assert np.abs(w.mat - 7 * single).max() <= 1e-14 * np.abs(single).max()
    assert np.abs(qnt.mat - cylinder_qnt(fibers[0]).mat).max() <= 1e-15


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
