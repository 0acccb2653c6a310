"""End-to-end acceptance checks against analytic references.

Each test prints one summary line (bypassing capture, so it shows up in plain
pytest output) and then asserts.  Tolerances are the known accuracy bands of
this estimator family; the geometric setups live in gridmakers.
"""

import time

import numpy as np

from conftest import record_acceptance
from gridmakers import (
    BALL_SHIFT_UM,
    FIBER_ARRAY_D,
    FIBER_ARRAY_L,
    binary_laminate,
    centered_cylinder,
    cube_symmetries,
    displaced_ball,
    fiber_array,
    random_grid,
    shift,
    single_voxel,
)
from minkvox import (
    BallKernel,
    FiberSpec,
    GaussianKernel,
    SymTensor3,
    analyze,
    ball_quantities,
    fft_convolve,
    fiber_system_tensors,
    relative_tensor_error,
    run_convergence,
    structure_tensor_orientation,
)
from minkvox.voxelgrid import Ball, VoxelGrid, voxelize


def _report(label: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_acceptance(line)
    print(line)
    assert ok, line


def test_ball_agreement_at_fine_resolution():
    # D/h = 16 ball on a 128^3 grid, depth 3, unfiltered central differences
    grid = displaced_ball(16, 3, box_factor=8.0)
    assert grid.values.shape == (128, 128, 128)
    refs = ball_quantities(8.0)
    start = time.perf_counter()
    summary = analyze(grid, kernel=None)
    elapsed = time.perf_counter() - start
    e_w = relative_tensor_error(summary.normal_tensor, refs.normal_tensor)
    e_q = relative_tensor_error(summary.qnt, refs.qnt)
    ok = e_q < 0.05 and e_w < 0.06 and elapsed < 10.0
    _report(
        "ball analytic agreement",
        ok,
        f"tensor err {e_w:.2%} < 6%, qnt err {e_q:.2%} < 5%, {elapsed:.2f} s < 10 s",
    )


def test_qnt_multigrid_convergence():
    rows = run_convergence(
        "ball", 16.0, (4, 6, 8, 12, 16), (1, 2, 3, 4), [None],
        displacement=BALL_SHIFT_UM,
    )
    details = []
    ok = True
    for depth in (1, 2, 3, 4):
        err = {r.d_over_h: r.qnt_err for r in rows if r.depth == depth}
        ok = ok and err[16.0] < err[4.0]
        details.append(f"p={depth}: {err[4.0]:.2%} -> {err[16.0]:.2%}")
    _report("qnt multigrid convergence", ok, "; ".join(details))


def test_surface_bias_and_filter_convergence():
    rows = run_convergence(
        "ball", 16.0, (8, 10, 12, 16), (3,), [None, BallKernel(1.2)],
        displacement=BALL_SHIFT_UM,
    )
    raw = {r.d_over_h: r.surface_err for r in rows if r.kernel == "none"}
    smoothed = [abs(r.surface_err) for r in sorted(
        (r for r in rows if r.kernel == "ball"), key=lambda r: r.d_over_h)]

    # unfiltered: persistent overestimate in the 1-4% band from D/h = 10 on
    biased = all(0.01 <= raw[res] <= 0.04 for res in (10.0, 12.0, 16.0))
    not_converging = raw[16.0] >= 0.01
    # ball filter sigma 1.2: error decreases monotonically with resolution
    monotone = all(a > b for a, b in zip(smoothed, smoothed[1:]))
    ok = biased and not_converging and monotone
    _report(
        "surface bias and filter convergence",
        ok,
        "raw " + "/".join(f"{raw[res]:+.2%}" for res in (10.0, 12.0, 16.0))
        + " in [1%,4%]; ball 1.2 "
        + " > ".join(f"{e:.2%}" for e in smoothed),
    )


def test_cylinder_reference_values():
    summary = analyze(centered_cylinder(), kernel=BallKernel(1.2))
    q_ref = SymTensor3(np.diag([1 / 21, 10 / 21, 10 / 21]))
    e_q = relative_tensor_error(summary.qnt, q_ref)
    beta_ok = abs(summary.beta - 0.1003) <= 0.1 * 0.1003
    ok = e_q < 0.03 and beta_ok
    _report(
        "cylinder reference values",
        ok,
        f"qnt err {e_q:.2%} < 3%, beta {summary.beta:.4f} within 10% of 0.1003",
    )


def test_exact_discrete_identities():
    worst_lam = 0.0
    for axis in range(3):
        grid = binary_laminate(axis=axis, n=24, h=0.75)
        s_exact = 2 * (24 * 0.75) ** 2
        s_est = analyze(grid, kernel=None).surface_area
        worst_lam = max(worst_lam, abs(s_est - s_exact) / s_exact)

    h = 0.5
    grid = single_voxel(n=8, h=h)
    summary = analyze(grid, kernel=None)
    s_err = abs(summary.surface_area - 3 * h**2) / (3 * h**2)
    w_err = np.abs(summary.normal_tensor.mat - h**2 / 3 * np.eye(3)).max()

    ok = worst_lam <= 1e-12 and s_err <= 1e-9 and w_err <= 1e-9 * h**2
    _report(
        "exact discrete identities",
        ok,
        f"laminate surface rel err {worst_lam:.1e} <= 1e-12, "
        f"single voxel S err {s_err:.1e} and W err {w_err:.1e}",
    )


def test_fiber_array_orientation_and_qnt_band():
    grid = fiber_array(2)
    orient = structure_tensor_orientation(
        grid, first_kernel=BallKernel(1.2), second_kernel=GaussianKernel(6.0)
    )
    e_a = relative_tensor_error(orient.a_est, SymTensor3(np.diag([1.0, 0.0, 0.0])))

    specs = [FiberSpec((1.0, 0.0, 0.0), FIBER_ARRAY_L, FIBER_ARRAY_D)] * 20
    _, _, q_ref = fiber_system_tensors(specs)
    e_none = relative_tensor_error(analyze(grid, kernel=None).qnt, q_ref)
    e_ball = relative_tensor_error(analyze(grid, kernel=BallKernel(1.2)).qnt, q_ref)

    ok = e_a <= 0.09 and e_none <= 0.04 and e_ball <= 0.02
    _report(
        "fiber array orientation and qnt band",
        ok,
        f"orientation err {e_a:.2%} <= 9%, qnt err {e_none:.2%} <= 4% raw, "
        f"{e_ball:.2%} <= 2% filtered",
    )


def test_property_bundle_within_time_budget():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    failures = []

    # translation invariance of the full summary
    base = displaced_ball(8, 2)
    rolled = shift(base, (3, 5, 2))
    a, b = analyze(base, kernel=None), analyze(rolled, kernel=None)
    scale = np.abs(a.normal_tensor.mat).max()
    if not (
        abs(a.volume - b.volume) <= 1e-10 * a.volume
        and abs(a.surface_area - b.surface_area) <= 1e-10 * a.surface_area
        and np.abs(a.normal_tensor.mat - b.normal_tensor.mat).max() <= 1e-10 * scale
    ):
        failures.append("translation")

    # cube-symmetry equivariance of the normal tensor
    grid = random_grid(rng, (12, 12, 12), depth=2)
    w = analyze(grid, kernel=None).normal_tensor.mat
    wscale = np.abs(w).max()
    for mat, apply in cube_symmetries():
        mapped = analyze(
            VoxelGrid(apply(grid.values), spacing=1.0, depth=2), kernel=None
        ).normal_tensor.mat
        if np.abs(mapped - mat @ w @ mat.T).max() > 1e-10 * wscale:
            failures.append("cube symmetry")
            break

    # additivity for well-separated bodies: the two balls sit at different
    # sub-voxel offsets, so sum two separately analyzed singles
    dims, h = (40, 20, 20), 1.0
    balls = (Ball((10.37, 10.21, 10.11), 6.0), Ball((30.11, 10.37, 10.21), 6.0))
    singles = [voxelize(b, dims, h, depth=2) for b in balls]
    union = VoxelGrid(np.clip(singles[0].values + singles[1].values, 0.0, 1.0),
                      spacing=h, depth=None)
    w_union = analyze(union, kernel=None).normal_tensor.mat
    w_sum = sum(analyze(g, kernel=None).normal_tensor.mat for g in singles)
    if np.abs(w_union - w_sum).max() > 1e-10 * np.abs(w_sum).max():
        failures.append("additivity")

    # trace normalization and beta range on random images
    for _ in range(5):
        summary = analyze(random_grid(rng, (10, 10, 10), depth=3), kernel=None)
        if np.trace(summary.qnt.mat) != 1.0:
            failures.append("qnt trace")
            break
        if not 0.0 <= summary.beta <= 1.0:
            failures.append("beta range")
            break

    # filter mean preservation
    g = VoxelGrid(rng.random((16, 16, 16)), spacing=0.5, depth=None)
    for kernel in (GaussianKernel(1.2), BallKernel(1.2)):
        blurred = fft_convolve(g, kernel)
        if abs(blurred.mean() - g.values.mean()) > 1e-12:
            failures.append("mean preservation")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(
        "property bundle",
        ok,
        f"{elapsed:.2f} s < 60 s"
        + ("" if not failures else "; failed: " + ", ".join(sorted(set(failures)))),
    )
