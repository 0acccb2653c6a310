"""CLI behavior: exit codes, report schemas, and agreement with the library calls.

All tests but the import guard drive minkvox.cli.main() in process; the
console script is the same function behind a sys.exit wrapper.
"""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import minkvox
from minkvox import ConvergenceRow, VoxelGrid, analyze, load_volume, store_volume
from minkvox import convergence, filters
from minkvox.cli import main, make_kernel
from minkvox.filters import BallKernel


def _run(capsys, *args):
    rc = main([str(a) for a in args])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _gen_ball(capsys, tmp_path, name="ball.raw", depth=3):
    path = tmp_path / name
    rc, _, err = _run(
        capsys, "generate", "--shape", "ball", "--dims", 16, 16, 16,
        "--spacing", 1, "--diameter", 10, "--depth", depth, "--out", path,
    )
    assert rc == 0, err
    return path


def test_cli_import_loads_no_scipy():
    # importing scipy.fft costs about 0.3 s and 25 MB in every minkvox process
    code = "import sys, minkvox.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = dict(os.environ, PYTHONPATH=str(Path(minkvox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_1(capsys, tmp_path):
    rc, _, err = _run(capsys, "analyze", "--in", "x.raw", "--kernel", "prism")
    assert rc == 1 and "invalid choice" in err

    rc, _, err = _run(capsys, "frobnicate")
    assert rc == 1

    rc, _, err = _run(capsys, "fiber-orient", "--in", "x.raw")
    assert rc == 1 and "--second-sigma" in err

    rc, _, err = _run(capsys, "generate", "--shape", "ball", "--dims", 8, 8, 8,
                      "--out", tmp_path / "b.raw")
    assert rc == 1 and "--diameter" in err

    for size in (("--diameter", 2), ("--length", 4)):
        rc, _, err = _run(capsys, "generate", "--shape", "fiber-array", "--dims", 8, 8, 8,
                          "--fiber", 1, 0, 0, 4, 4, 4, *size, "--out", tmp_path / "f.raw")
        assert rc == 1 and "requires --diameter and --length" in err


def test_usage_error_line_has_one_prefix(capsys):
    for args, message in (
        ((), "the following arguments are required: command"),
        (("analyze", "--in", "x", "--sigma", "q"), "argument --sigma: invalid float value: 'q'"),
    ):
        assert _run(capsys, *args) == (1, "", f"minkvox: error: {message}\n")


def test_generate_out_of_box_exits_1(capsys, tmp_path):
    rc, _, err = _run(
        capsys, "generate", "--shape", "ball", "--dims", 8, 8, 8,
        "--spacing", 1, "--diameter", 10, "--out", tmp_path / "b.raw",
    )
    assert rc == 1
    assert "does not fit into the box" in err
    assert "not wrapped periodically" in err


def test_io_errors_exit_2(capsys, tmp_path):
    rc, _, err = _run(capsys, "analyze", "--in", tmp_path / "missing.raw")
    assert rc == 2

    # payload present, sidecar unparseable
    path = tmp_path / "bad.raw"
    path.write_bytes(b"\x00" * 8)
    (tmp_path / "bad.raw.json").write_text("{not json")
    rc, _, err = _run(capsys, "analyze", "--in", path)
    assert rc == 2

    # continuous f32 payload holding a NaN is a format error
    nan_path = tmp_path / "nan.raw"
    grid = VoxelGrid(np.full((4, 4, 4), 0.5), spacing=1.0)
    store_volume(grid, str(nan_path))
    payload = np.fromfile(nan_path, dtype="<f4")
    payload[5] = np.nan
    payload.tofile(nan_path)
    for args in (["analyze"], ["fiber-orient", "--second-kernel", "gaussian",
                               "--second-sigma", 1]):
        rc, out, err = _run(capsys, *args, "--in", nan_path)
        assert rc == 2 and out == ""
        assert err.startswith("minkvox: error:") and err.count("\n") == 1

    # sidecar values of the wrong JSON type, and a sidecar that is a JSON array (bad
    # None), are format errors, not tracebacks
    side = tmp_path / "nan.raw.json"
    meta = json.loads(side.read_text())
    for key, bad in (("spacing_um", [1]), ("spacing_um", "1"), ("depth", True),
                     ("JSON object", None)):
        side.write_text(json.dumps([meta] if bad is None else dict(meta, **{key: bad})))
        rc, out, err = _run(capsys, "analyze", "--in", nan_path)
        assert rc == 2 and out == "", (key, bad)
        assert err.startswith("minkvox: error:") and err.count("\n") == 1
        assert key in err


def test_kernel_too_wide_exits_1(capsys, tmp_path):
    path = _gen_ball(capsys, tmp_path)
    rc, _, err = _run(capsys, "analyze", "--in", path,
                      "--kernel", "gaussian", "--sigma", 4)
    assert rc == 1 and "support" in err


def test_structureless_image_exits_3(capsys, tmp_path):
    grid = VoxelGrid(np.ones((24, 24, 24)), spacing=1.0, depth=1)
    path = tmp_path / "uniform.raw"
    store_volume(grid, str(path))
    rc, _, err = _run(capsys, "fiber-orient", "--in", path,
                      "--second-kernel", "gaussian", "--second-sigma", 2)
    assert rc == 3
    assert "structure-tensor signal" in err


def test_filter_output_out_of_range_exits_3(capsys, tmp_path, monkeypatch):
    # samples that sum to two instead of one push the filtered field above 1 on the
    # direct route (Gaussian 0.4, 7 points of two weights) and on the FFT route
    samples = filters._box_samples

    def doubled(*args):
        box, idx = samples(*args)
        return 2 * box, idx

    monkeypatch.setattr(filters, "_box_samples", doubled)
    path = _gen_ball(capsys, tmp_path)
    for sigma in (0.4, 1.2):
        rc, out, err = _run(capsys, "analyze", "--in", path,
                            "--kernel", "gaussian", "--sigma", sigma)
        _assert_one_error_line(rc, out, err, 3)
        assert "exceeds [0, 1] beyond round-off" in err, sigma


def test_degenerate_analyze_warns_but_exits_0(capsys, tmp_path):
    grid = VoxelGrid(np.zeros((8, 8, 8)), spacing=1.0, depth=1)
    path = tmp_path / "empty.raw"
    store_volume(grid, str(path))
    rc, out, err = _run(capsys, "analyze", "--in", path, "--format", "csv")
    assert rc == 0
    assert "degenerate image" in err
    row = out.splitlines()[1].split(",")
    assert row[0] == "0"        # volume
    assert row[14] == ""        # beta undefined
    assert row[15] == "true"


# ---------------------------------------------------------------------------
# generate

def test_generate_ball_volume_fraction(capsys, tmp_path):
    path = tmp_path / "frac.raw"
    rc, _, err = _run(
        capsys, "generate", "--shape", "ball", "--dims", 12, 12, 12,
        "--spacing", 2, "--diameter", 16, "--depth", 4, "--out", path,
    )
    assert rc == 0, err
    grid = load_volume(str(path))
    frac = grid.values.mean()
    assert abs(frac - 0.155) <= 0.005


def test_generate_laminate_is_exact(capsys, tmp_path):
    path = tmp_path / "lam.raw"
    rc, _, _ = _run(
        capsys, "generate", "--shape", "laminate", "--dims", 24, 24, 24,
        "--axis-index", 2, "--slab", 6, 18, "--out", path,
    )
    assert rc == 0
    grid = load_volume(str(path))
    assert grid.values.mean() == 0.5
    assert set(np.unique(grid.values)) == {0.0, 1.0}


def test_generate_fiber_array(capsys, tmp_path):
    path = tmp_path / "fibers.raw"
    rc, _, err = _run(
        capsys, "generate", "--shape", "fiber-array", "--dims", 24, 24, 24,
        "--diameter", 4, "--length", 16, "--depth", 2,
        "--fiber", 1, 0, 0, 12, 8, 12,
        "--fiber", 1, 0, 0, 12, 16, 12,
        "--out", path,
    )
    assert rc == 0, err
    grid = load_volume(str(path))
    v_ref = 2 * np.pi * 2.0**2 * 16.0
    v_est = grid.values.sum() * grid.spacing**3
    assert abs(v_est - v_ref) / v_ref < 0.05


# ---------------------------------------------------------------------------
# analyze

def test_analyze_json_matches_library(capsys, tmp_path):
    path = _gen_ball(capsys, tmp_path)
    rc, out, _ = _run(capsys, "analyze", "--in", path,
                      "--kernel", "ball", "--sigma", 1.2)
    assert rc == 0
    report = json.loads(out)

    summary = analyze(load_volume(str(path)), kernel=BallKernel(1.2))
    # json round-trips floats through repr, so equality is exact
    assert report["volume"] == summary.volume
    assert report["surface_area"] == summary.surface_area
    assert report["beta"] == summary.beta
    assert np.array_equal(np.array(report["qnt"]), summary.qnt.mat)
    assert np.array_equal(np.array(report["normal_tensor"]),
                          summary.normal_tensor.mat)
    assert report["degenerate"] is False
    assert report["config"] == {
        "scheme": "central", "kernel": "ball", "sigma": 1.2,
        "eps_rel": 1e-12, "depth": 3, "spacing_um": 1.0, "dims": [16, 16, 16],
    }


def test_analyze_csv_schema(capsys, tmp_path):
    path = _gen_ball(capsys, tmp_path)
    rc, out, _ = _run(capsys, "analyze", "--in", path, "--format", "csv")
    header, row = out.splitlines()
    assert header == (
        "volume,surface_area,"
        "w_xx,w_yy,w_zz,w_xy,w_xz,w_yz,"
        "qnt_xx,qnt_yy,qnt_zz,qnt_xy,qnt_xz,qnt_yz,"
        "beta,degenerate,scheme,kernel,sigma,eps_rel,depth,spacing_um,nx,ny,nz"
    )
    cells = row.split(",")
    assert len(cells) == 25
    assert cells[15] == "false"
    assert cells[16] == "central"
    assert cells[17] == "ball"
    assert cells[22:] == ["16", "16", "16"]
    # .17g cells round-trip to the library floats
    summary = analyze(load_volume(str(path)), kernel=BallKernel(1.2))
    assert float(cells[0]) == summary.volume
    assert float(cells[14]) == summary.beta


def test_analyze_output_is_deterministic(capsys, tmp_path):
    path = _gen_ball(capsys, tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        rc, stdout, _ = _run(capsys, "analyze", "--in", path, "--out", out)
        assert rc == 0
        assert stdout == ""  # report went to the file
    assert out_a.read_bytes() == out_b.read_bytes()


def test_analyze_of_shifted_volume_is_identical(capsys, tmp_path):
    # the integer route sums a class histogram, which no periodic shift changes:
    # S, W and the QNT are bitwise those of the unshifted volume, by construction
    path = _gen_ball(capsys, tmp_path)
    grid = load_volume(str(path))
    shifts = [s for s in itertools.product((-1, 0, 1), repeat=3) if any(s)] + [(5, 2, 7)]
    assert len(shifts) == 27
    kernels = ((), ("--kernel", "none"))  # the default, ball 1.2, and none

    def reports(p):
        outs = []
        for kernel in kernels:
            rc, out, _ = _run(capsys, "analyze", "--in", p, *kernel)
            assert rc == 0
            outs.append(json.loads(out))
        return outs

    base = reports(path)
    shifted = tmp_path / "shifted.raw"
    for offset in shifts:
        rolled = VoxelGrid(np.roll(grid.values, offset, axis=(0, 1, 2)),
                           spacing=grid.spacing, depth=grid.depth)
        store_volume(rolled, str(shifted))
        for kernel, ref, out in zip(kernels, base, reports(shifted)):
            case = (offset, kernel)
            # V, h^3 (sum k) / m of the depth-3 volume, is an exact integer sum divided
            # once, so it too is shift-invariant by construction
            assert out["volume"] == ref["volume"], case
            assert out["surface_area"] == ref["surface_area"], case
            assert out["normal_tensor"] == ref["normal_tensor"], case
            assert out["qnt"] == ref["qnt"], case
            assert (out["interface_voxels"], out["gmax"]) == (ref["interface_voxels"],
                                                              ref["gmax"]), case


def test_analyze_json_reports_interface_voxels_and_gmax(capsys, tmp_path):
    # both routes fill the three keys; config and the CSV columns do not change
    one = tmp_path / "one.raw"
    vals = np.zeros((8, 8, 8))
    vals[3, 4, 2] = 1.0
    for depth, route in ((1, "integer"), (None, "identity")):
        store_volume(VoxelGrid(vals, spacing=0.5, depth=depth), str(one))
        rc, out, _ = _run(capsys, "analyze", "--in", one, "--kernel", "none")
        assert rc == 0
        report = json.loads(out)
        # only the six face neighbors see the voxel, each with |g| = 1 / (2 h)
        assert report["interface_voxels"] == 6, depth
        assert report["gmax"] == 1.0, depth
        assert report["route"] == route, depth
        assert set(report["config"]) == {"scheme", "kernel", "sigma", "eps_rel", "depth",
                                         "spacing_um", "dims"}
    rc, out, _ = _run(capsys, "analyze", "--in", one, "--kernel", "ball")
    assert rc == 0 and json.loads(out)["route"] == "direct"  # the continuous grid
    rc, out, _ = _run(capsys, "analyze", "--in", one, "--kernel", "ball", "--sigma", 0.4)
    assert rc == 0 and json.loads(out)["route"] == "identity"  # a one-point support
    path = _gen_ball(capsys, tmp_path)  # depth 3: 99,373 classes with the ball
    for kernel, route in (("none", "integer"), ("ball", "integer"), ("gaussian", "fft")):
        rc, out, _ = _run(capsys, "analyze", "--in", path, "--kernel", kernel)
        assert rc == 0
        report = json.loads(out)
        summary = analyze(load_volume(str(path)), make_kernel(kernel, 1.2))
        assert report["interface_voxels"] == summary.interface_voxels > 0, kernel
        assert report["gmax"] == summary.gmax > 0, kernel
        assert report["route"] == summary.route == route, kernel
        rc, out, _ = _run(capsys, "analyze", "--in", path, "--kernel", kernel, "--format", "csv")
        header = out.splitlines()[0]
        assert not {"interface_voxels", "gmax", "route"} & set(header.split(","))


# ---------------------------------------------------------------------------
# convergence

def test_convergence_csv_schema_and_sorting(capsys, tmp_path):
    rc, out, err = _run(
        capsys, "convergence", "--shape", "ball", "--diameter", 8,
        "--resolutions", 4, 6, "--depths", 2, 1, "--kernels", "none", "ball:1.2",
    )
    assert rc == 0, err
    lines = out.splitlines()
    assert lines[0] == (
        "d_over_h,depth,kernel,sigma,scheme,volume,surface_area,"
        "volume_err,surface_err,tensor_err,qnt_err,beta,seconds"
    )
    assert len(lines) == 1 + 2 * 2 * 2
    rows = [ln.split(",") for ln in lines[1:]]
    keys = [(float(r[0]), int(r[1]), r[2]) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r[2] in ("none", "ball")
        assert r[3] == ("" if r[2] == "none" else "1.2")
        assert r[4] == "central"
        assert abs(float(r[7])) < 0.2   # volume_err
        assert abs(float(r[8])) < 0.3   # surface_err
        assert float(r[12]) >= 0        # seconds


def test_convergence_errors_shrink_with_resolution(capsys, tmp_path):
    rc, out, _ = _run(
        capsys, "convergence", "--shape", "ball", "--diameter", 8,
        "--displacement", 1.48, 0.84, 0.44,
        "--resolutions", 4, 12, "--depths", 3, "--kernels", "none",
    )
    assert rc == 0
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    err = {float(r[0]): abs(float(r[9])) for r in rows}  # tensor_err
    assert err[12.0] < err[4.0]


def test_convergence_rows_reproducible_modulo_timing(capsys, tmp_path):
    args = ("convergence", "--shape", "ball", "--diameter", 6,
            "--resolutions", 4, "--depths", 2, "--kernels", "ball:1.2")
    bodies = []
    for _ in range(2):
        rc, out, _ = _run(capsys, *args)
        assert rc == 0
        lines = out.splitlines()
        bodies.append([ln.rsplit(",", 1)[0] for ln in lines])  # drop seconds
    assert bodies[0] == bodies[1]


def test_convergence_kernel_label_errors(capsys):
    for label in ("ball", "ball:x", "prism:1.0", "gaussian:"):
        rc, _, err = _run(
            capsys, "convergence", "--diameter", 8, "--resolutions", 4,
            "--kernels", label,
        )
        assert rc == 1, label
        assert "kernel label" in err


def test_convergence_non_positive_resolution_exits_1(capsys):
    for res in (0, -2, "nan", "inf"):
        rc, out, err = _run(capsys, "convergence", "--diameter", 8,
                            "--resolutions", 4, res)
        assert rc == 1 and out == "", res
        assert err.startswith("minkvox: error:") and err.count("\n") == 1
        assert "resolutions" in err


@pytest.mark.parametrize("shape, aspect", [("ball", "-1"), ("cylinder", "nan"),
                                           ("ball", "inf"), ("cylinder", "0")])
def test_convergence_bad_aspect_exits_1(capsys, monkeypatch, shape, aspect):
    # refused for either shape before anything is voxelized, naming the flag's value
    def no_voxelize(*args, **kwargs):
        raise AssertionError("the aspect is checked before anything is voxelized")

    monkeypatch.setattr(convergence, "voxelize", no_voxelize)
    rc, out, err = _run(capsys, "convergence", "--shape", shape, "--diameter", 8,
                        "--resolutions", 4, "--aspect", aspect)
    assert rc == 1 and out == "", err
    assert err.startswith("minkvox: error:") and err.count("\n") == 1
    assert "aspect" in err and err.rstrip().endswith(f"got {float(aspect)}"), err


@pytest.mark.parametrize("shape", ["ball", "cylinder"])
@pytest.mark.parametrize("diameter", ["nan", "0", "-4", "inf"])
def test_convergence_bad_diameter_exits_1(capsys, monkeypatch, shape, diameter):
    # refused for either shape before anything is voxelized, naming the diameter
    # rather than the ball center or radius it would make
    def no_voxelize(*args, **kwargs):
        raise AssertionError("the diameter is checked before anything is voxelized")

    monkeypatch.setattr(convergence, "voxelize", no_voxelize)
    rc, out, err = _run(capsys, "convergence", "--shape", shape, f"--diameter={diameter}",
                        "--resolutions", 4)
    assert rc == 1 and out == "", err
    assert err.startswith("minkvox: error:") and err.count("\n") == 1
    assert "diameter" in err and err.rstrip().endswith(f"got {float(diameter)}"), err


@pytest.mark.parametrize("argv", [
    ("--diameter", 8, "--resolutions", 4, "--box-factor", "inf"),
    ("--diameter", 8, "--resolutions", 4, "--box-factor", "nan"),
    ("--diameter", "1e200", "--resolutions", "1e185", "--shape", "ball"),
    ("--diameter", "1e200", "--resolutions", "1e185", "--shape", "cylinder"),
])
def test_convergence_out_of_range_box_exits_1(capsys, argv):
    # the box factor is checked up front; an oversized box is refused by
    # voxelize before the references, whose squares would overflow
    rc, out, err = _run(capsys, "convergence", *argv)
    assert rc == 1 and out == "", err
    assert err.startswith("minkvox: error:") and err.count("\n") == 1
    if "--box-factor" in argv:
        assert "box factor" in err


def test_convergence_oversized_box_error_line_is_short(capsys):
    # the refused layer holds about 2e370 sub-samples; the count prints in
    # three digits, not as the whole integer
    rc, out, err = _run(capsys, "convergence", "--diameter", "1e200",
                        "--resolutions", "1e185")
    assert rc == 1 and out == "", err
    assert err.startswith("minkvox: error:") and err.count("\n") == 1
    assert len(err) < 200, err


def test_convergence_degenerate_sweep_point_exits_3(capsys):
    # D/h = 1 gives a 2^3 box whose voxel centers all miss the ball
    rc, out, err = _run(capsys, "convergence", "--diameter", 8, "--resolutions", 1)
    assert rc == 3 and out == ""
    assert err.startswith("minkvox: error:") and err.count("\n") == 1
    assert "D/h = 1" in err and "degenerate" in err


# ---------------------------------------------------------------------------
# fiber-orient

def _gen_laminate(capsys, tmp_path):
    path = tmp_path / "lam.raw"
    rc, _, _ = _run(
        capsys, "generate", "--shape", "laminate", "--dims", 24, 24, 24,
        "--axis-index", 2, "--slab", 6, 18, "--out", path,
    )
    assert rc == 0
    return path


def test_fiber_orient_json_report(capsys, tmp_path):
    path = _gen_laminate(capsys, tmp_path)
    rc, out, _ = _run(
        capsys, "fiber-orient", "--in", path,
        "--second-kernel", "gaussian", "--second-sigma", 2,
        "--reference", 0.5, 0.5, 0, 0, 0, 0,
    )
    assert rc == 0
    report = json.loads(out)
    a = np.array(report["orientation_tensor"])
    # in-plane isotropic: fibers in the slab plane have no preferred direction
    assert np.allclose(a, np.diag([0.5, 0.5, 0.0]), atol=1e-9)
    assert report["reference_error"] <= 1e-9
    assert report["masked_voxels"] <= report["total_voxels"] == 24**3
    assert report["config"] == {
        "first_kernel": "ball", "first_sigma": 1.2, "second_kernel": "gaussian",
        "second_sigma": 2.0, "scheme": "central", "mask_threshold_rel": 1e-3,
    }
    vals = report["eigenvalues"]
    assert vals == sorted(vals, reverse=True)


def test_fiber_orient_reference_takes_xx_yy_zz_xy_xz_yz(capsys, tmp_path):
    # an oblique fiber's tensor has three distinct off-diagonals, so its own six
    # components given back as --reference pin their order
    path = tmp_path / "fiber.raw"
    rc, _, err = _run(capsys, "generate", "--shape", "cylinder", "--dims", 24, 24, 24,
                      "--axis", 0.48, 0.6, 0.64, "--diameter", 5, "--length", 14,
                      "--depth", 2, "--out", path)
    assert rc == 0, err
    args = ("fiber-orient", "--in", path, "--second-sigma", 2)
    a = np.array(json.loads(_run(capsys, *args)[1])["orientation_tensor"])
    six = [a[0, 0], a[1, 1], a[2, 2], a[0, 1], a[0, 2], a[1, 2]]
    xy_xz_swapped = six[:3] + [six[4], six[3], six[5]]
    errors = [json.loads(_run(capsys, *args, "--reference", *ref)[1])["reference_error"]
              for ref in (six, xy_xz_swapped)]
    assert errors[0] == 0.0
    assert errors[1] > 0.01


def test_fiber_orient_csv_schema(capsys, tmp_path):
    path = _gen_laminate(capsys, tmp_path)
    rc, out, _ = _run(
        capsys, "fiber-orient", "--in", path, "--format", "csv",
        "--second-kernel", "gaussian", "--second-sigma", 2,
    )
    header, row = out.splitlines()
    assert header == (
        "a_xx,a_yy,a_zz,a_xy,a_xz,a_yz,eig_1,eig_2,eig_3,"
        "masked_voxels,total_voxels,reference_error,first_kernel,first_sigma,"
        "second_kernel,second_sigma,scheme,mask_threshold_rel"
    )
    cells = row.split(",")
    assert len(cells) == 18
    assert cells[11] == ""  # no reference given
    assert cells[12] == "ball"
    assert cells[14] == "gaussian"


def test_fiber_orient_non_finite_mask_threshold_exits_1(capsys, tmp_path):
    # nan > 0 is False, which used to switch the mask off silently
    path = _gen_laminate(capsys, tmp_path)
    for value in ("nan", "inf", "-inf"):
        rc, out, err = _run(capsys, "fiber-orient", "--in", path,
                            "--second-kernel", "gaussian", "--second-sigma", 2,
                            f"--mask-threshold={value}")
        assert rc == 1 and out == ""
        assert err.startswith("minkvox: error:") and err.count("\n") == 1
        assert "mask threshold must be finite" in err


def test_fiber_orient_second_kernel_none_rejected(capsys, tmp_path):
    path = _gen_laminate(capsys, tmp_path)
    rc, _, err = _run(
        capsys, "fiber-orient", "--in", path,
        "--second-kernel", "none", "--second-sigma", 2,
    )
    assert rc == 1
    assert "invalid choice" in err


# ---------------------------------------------------------------------------
# CSV and JSON reports agree

_TENSOR_KEYS = {"w": "normal_tensor", "qnt": "qnt", "a": "orientation_tensor"}
_COMPONENTS = {"xx": (0, 0), "yy": (1, 1), "zz": (2, 2),
               "xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


def _json_value(report, column):
    """The JSON report value that a CSV column stands for."""
    prefix, _, comp = column.rpartition("_")
    if prefix in _TENSOR_KEYS and comp in _COMPONENTS:
        rows = report[_TENSOR_KEYS[prefix]]
        i, j = _COMPONENTS[comp]
        return None if rows is None else rows[i][j]
    if column in ("nx", "ny", "nz"):
        return report["config"]["dims"]["xyz".index(column[1])]
    if column.startswith("eig_"):
        return report["eigenvalues"][int(column[4:]) - 1]
    if column in report:
        return report[column]
    return report["config"].get(column)


def _assert_csv_matches_json(capsys, args):
    rc, out, _ = _run(capsys, *args, "--format", "json")
    assert rc == 0
    report = json.loads(out)
    rc, out, _ = _run(capsys, *args, "--format", "csv")
    assert rc == 0
    header, row = out.splitlines()
    columns, cells = header.split(","), row.split(",")
    assert len(columns) == len(cells)
    for column, cell in zip(columns, cells):
        value = _json_value(report, column)
        if value is None:
            assert cell == "", column
        elif isinstance(value, bool):
            assert cell == ("true" if value else "false"), column
        elif isinstance(value, float):
            assert float(cell) == value, column
        else:
            assert cell == str(value), column


def test_csv_cells_match_json_report(capsys, tmp_path):
    ball = _gen_ball(capsys, tmp_path)
    _assert_csv_matches_json(capsys, ("analyze", "--in", ball, "--kernel", "ball"))

    empty = tmp_path / "empty.raw"
    store_volume(VoxelGrid(np.zeros((8, 8, 8)), spacing=1.0, depth=1), str(empty))
    _assert_csv_matches_json(capsys, ("analyze", "--in", empty, "--kernel", "none"))

    lam = _gen_laminate(capsys, tmp_path)
    orient = ("fiber-orient", "--in", lam, "--second-kernel", "gaussian", "--second-sigma", 2)
    _assert_csv_matches_json(capsys, orient)
    _assert_csv_matches_json(capsys, orient + ("--reference", 0.5, 0.5, 0, 0, 0, 0))

    rc, out, _ = _run(capsys, "convergence", "--diameter", 8, "--resolutions", 4)
    assert rc == 0
    assert out.splitlines()[0].split(",") == [
        f.name for f in dataclasses.fields(ConvergenceRow)]


# ---------------------------------------------------------------------------
# extreme scales and non-finite values

def _assert_one_error_line(rc, out, err, code):
    assert rc == code and out == ""
    assert err.startswith("minkvox: error:") and err.count("\n") == 1


def test_spacing_outside_range_exits_2(capsys, tmp_path):
    path = _gen_ball(capsys, tmp_path)
    side = tmp_path / "ball.raw.json"
    meta = json.loads(side.read_text())
    commands = [("analyze", "--kernel", k) for k in ("none", "ball", "gaussian")]
    commands.append(("fiber-orient", "--second-kernel", "gaussian", "--second-sigma", 2))
    for spacing in (1e110, 1e-110, 1e80, 1e-21, 2e20):
        side.write_text(json.dumps(dict(meta, spacing_um=spacing)))
        for args in commands:
            rc, out, err = _run(capsys, *args, "--in", path)
            _assert_one_error_line(rc, out, err, 2)
            assert "spacing_um" in err, (spacing, args)

    # at both ends of the range every value scales exactly with h
    side.write_text(json.dumps(dict(meta, spacing_um=1.0)))
    rc, out, _ = _run(capsys, "analyze", "--in", path)
    unit = json.loads(out)
    for spacing in (1e-20, 1e20):
        side.write_text(json.dumps(dict(meta, spacing_um=spacing)))
        rc, out, err = _run(capsys, "analyze", "--in", path)
        assert rc == 0, err
        report = json.loads(out)
        assert report["volume"] / spacing**3 == pytest.approx(unit["volume"], rel=1e-14)
        assert report["surface_area"] / spacing**2 == pytest.approx(unit["surface_area"],
                                                                    rel=1e-14)
        assert np.allclose(report["qnt"], unit["qnt"], rtol=0, atol=1e-14)


def test_off_color_payload_exits_2(capsys, tmp_path):
    # a value that is neither a color nor its float32 image is a format error,
    # not a grid silently rewritten to the nearest color
    commands = (["analyze"], ["fiber-orient", "--second-kernel", "gaussian",
                              "--second-sigma", 1])
    path = tmp_path / "off.raw"
    for depth, dtype, payload in ((1, "u8", np.full(64, 128, "<u1")),
                                  (2, "f32", np.full(64, 0.5, "<f4"))):
        payload.tofile(path)
        (tmp_path / "off.raw.json").write_text(json.dumps({
            "dims": [4, 4, 4], "spacing_um": 1.0, "depth": depth,
            "dtype": dtype, "order": "x-fastest"}))
        for args in commands:
            rc, out, err = _run(capsys, *args, "--in", path)
            _assert_one_error_line(rc, out, err, 2)
            assert f"depth-{depth} color set" in err, (dtype, args)


def test_generate_spacing_outside_range_exits_1(capsys, tmp_path):
    out_path = tmp_path / "lam.raw"
    for spacing in ("inf", "1e110", "1e-110", "1e21"):
        rc, out, err = _run(capsys, "generate", "--shape", "laminate", "--dims", 8, 8, 8,
                            "--slab", 1, 3, "--spacing", spacing, "--out", out_path)
        _assert_one_error_line(rc, out, err, 1)
        assert not out_path.exists()


def test_generate_nan_axis_exits_1(capsys, tmp_path):
    # abs(nan - 1) > 1e-12 is False, so a NaN axis wrote an all-zero volume
    out_path = tmp_path / "cyl.raw"
    rc, out, err = _run(capsys, "generate", "--shape", "cylinder", "--dims", 12, 12, 12,
                        "--diameter", 4, "--length", 8, "--axis", "nan", 0, 0,
                        "--out", out_path)
    _assert_one_error_line(rc, out, err, 1)
    assert "unit vector" in err
    assert not out_path.exists()


def test_generate_shape_between_sample_points_exits_1(capsys, tmp_path):
    # a shape no sample point falls into wrote an all-zero volume with exit 0
    out_path = tmp_path / "shape.raw"
    for shape, depth in ((("ball", "--diameter", 0.5), 1), (("ball", "--diameter", 1), 1),
                         (("ball", "--diameter", "1e-110"), 2),
                         (("cylinder", "--diameter", 0.5, "--length", 0.5), 2),
                         (("laminate", "--slab", 3.1, 3.2), 2)):
        rc, out, err = _run(capsys, "generate", "--shape", *shape, "--dims", 12, 12, 12,
                            "--depth", depth, "--out", out_path)
        _assert_one_error_line(rc, out, err, 1)
        assert "covers no sample point" in err
        assert not out_path.exists()
    # one sub-sample of depth 2 lies within 0.5 of the center (6, 6, 6)
    rc, _, err = _run(capsys, "generate", "--shape", "ball", "--diameter", 1, "--dims",
                      12, 12, 12, "--depth", 2, "--out", out_path)
    assert rc == 0, err
    assert load_volume(out_path).values.sum() > 0


def test_generate_non_finite_center_exits_1(capsys, tmp_path):
    # a non-finite center passed shape_in_box and wrote an all-zero volume
    out_path = tmp_path / "shape.raw"
    shapes = (("ball",), ("cylinder", "--length", 8))
    for shape in shapes:
        for value in ("nan", "inf"):
            rc, out, err = _run(capsys, "generate", "--shape", *shape, "--dims", 12, 12, 12,
                                "--diameter", 4, "--center", value, 6, 6, "--out", out_path)
            _assert_one_error_line(rc, out, err, 1)
            assert "center" in err and "is not finite" in err
            assert not out_path.exists()
        # argparse reads "-inf" as a flag, so it never reaches the shape
        rc, out, err = _run(capsys, "generate", "--shape", *shape, "--dims", 12, 12, 12,
                            "--diameter", 4, "--center", 6, 6, "-inf", "--out", out_path)
        _assert_one_error_line(rc, out, err, 1)
        assert not out_path.exists()


def test_generate_out_of_memory_exits_1(capsys, tmp_path, monkeypatch):
    # stands in for a grid too large for the host, such as --dims 4096 4096
    # 4096; a real allocation that size may succeed lazily and then be killed
    def voxelize(*args, **kwargs):
        raise MemoryError("Unable to allocate 512. GiB for an array")

    monkeypatch.setattr("minkvox.cli.voxelize", voxelize)
    out_path = tmp_path / "ball.raw"
    rc, out, err = _run(capsys, "generate", "--shape", "ball", "--dims", 12, 12, 12,
                        "--diameter", 4, "--out", out_path)
    _assert_one_error_line(rc, out, err, 1)
    assert "Unable to allocate" in err
    assert not out_path.exists()


def test_narrow_kernel_exits_1(capsys, tmp_path):
    path = _gen_ball(capsys, tmp_path)
    for kernel, sigma in (("ball", "1e-110"), ("gaussian", "1e-160"), ("gaussian", "1e-110")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = _run(capsys, "analyze", "--in", path,
                                "--kernel", kernel, "--sigma", sigma)
        _assert_one_error_line(rc, out, err, 1)
        assert "h*sigma" in err


def test_non_finite_reference_and_eps_rel_exit_1(capsys, tmp_path):
    lam = _gen_laminate(capsys, tmp_path)
    for value in ("nan", "inf"):
        rc, out, err = _run(capsys, "fiber-orient", "--in", lam, "--second-kernel",
                            "gaussian", "--second-sigma", 2, "--reference", 0.5, 0.5,
                            value, 0, 0, 0)
        _assert_one_error_line(rc, out, err, 1)
        assert "finite" in err

    ball = _gen_ball(capsys, tmp_path)
    for value in ("nan", "inf"):
        rc, out, err = _run(capsys, "analyze", "--in", ball, f"--eps-rel={value}")
        _assert_one_error_line(rc, out, err, 1)
        assert "eps_rel" in err


def test_huge_eps_keeps_the_interface_tensor_of_a_fine_spacing(capsys, tmp_path):
    # at spacing 1e-5 and eps_rel 1e295 or 1e300 the weights h^3 / (|g| + eps) are
    # subnormal; W is h^2 times the spacing-1 W in exact arithmetic, and summed
    # at a power-of-two scale it stays so to 1e-12 (parent: 1e-9 and 5e-5 off).
    # At spacing 2^-17 the QNT, normalized before that scale is taken off, and
    # beta are the spacing-1 ones exactly, although W itself is subnormal.
    reports = {}
    for h, diameter in (("1", "8"), ("1e-5", "8e-5"), (2.0**-17, 8 * 2.0**-17)):
        path = tmp_path / f"ball-{h}.raw"
        rc, _, err = _run(capsys, "generate", "--shape", "ball", "--dims", 12, 12, 12,
                          "--diameter", diameter, "--spacing", h, "--depth", 2,
                          "--out", path)
        assert rc == 0, err
        for eps_rel in (1e295, 1e300):
            rc, out, err = _run(capsys, "analyze", "--in", path, "--kernel", "none",
                                "--eps-rel", eps_rel)
            assert rc == 0, err
            reports[h, eps_rel] = json.loads(out)
    for eps_rel in (1e295, 1e300):
        one, fine = reports["1", eps_rel], reports["1e-5", eps_rel]
        assert abs(fine["beta"] - one["beta"]) <= 1e-12, eps_rel
        ratio = np.trace(fine["normal_tensor"]) / 1e-10 / np.trace(one["normal_tensor"])
        assert abs(ratio - 1) <= 1e-12, (eps_rel, ratio)
        exact = reports[2.0**-17, eps_rel]
        assert (exact["qnt"], exact["beta"]) == (one["qnt"], one["beta"]), eps_rel
