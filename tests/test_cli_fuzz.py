"""Fuzz the CLI boundary: every input ends in exit code 0-3, never in a traceback.

Drives minkvox.cli.main() in process over malformed sidecars, truncated and
over-long payloads, and extreme float flags.  A nonzero exit must print
nothing on stdout and exactly one ``minkvox: error:`` line on stderr; a zero
exit must raise no RuntimeWarning and report finite numbers only.  The
flags that size arrays (--dims, --depth, --resolutions, --aspect,
--box-factor) stay small and fixed, so every example runs on a 12^3 input.
"""

import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkvox import Ball, load_volume, store_volume, voxelize
from minkvox.cli import main

EXTREMES = (0.0, -1.0, 1e-110, -1e-110, 1e110, -1e110,
            float("nan"), float("inf"), float("-inf"))
# ordinary values too, so that a draw can get past one check to the next
FLOATS = st.sampled_from(EXTREMES + (0.5, 1.0, 2.0, 5.0))
# reference tensor entries whose squares overflow or vanish
REFERENCE = st.sampled_from(EXTREMES + (0.5, 1.0, 1e300, -1e300, 1e-320))
FUZZ = settings(max_examples=40, database=None, deadline=None)


def _text(x: float) -> str:
    # positional notation: argparse takes "-1e-110" for a flag, "-0.000...1" for a number
    return np.format_float_positional(x, trim="-")


def _flag(name: str, x: float) -> str:
    # "--flag=-inf" reaches the float parser whatever the sign
    return f"{name}={_text(x)}"


def _floats(n: int):
    return st.lists(FLOATS, min_size=n, max_size=n).map(lambda xs: [_text(x) for x in xs])


def _optional(strategy):
    return st.one_of(st.just([]), strategy)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([str(a) for a in argv])
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return rc, out.getvalue(), stderr


def _not_finite(name):
    raise AssertionError(f"report holds {name}")


def _check(argv):
    rc, out, err = _run(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert "Traceback" not in err, argv
    if rc != 0:
        assert out == "", argv
        assert err.startswith("minkvox: error:") and err.count("\n") == 1, (argv, err)
    else:
        assert "RuntimeWarning" not in err, (argv, err)
        if out.startswith("{"):
            report = json.loads(out, parse_constant=_not_finite)
            # S > 0 implies interfaces, so such a report is never degenerate
            assert not (report.get("degenerate") and report["surface_area"] > 0), argv
        else:
            assert not re.search(r"(^|,)-?(nan|inf)(,|$)", out, re.M), (argv, out)
    return rc


@pytest.fixture(scope="module")
def volume(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ball.raw"
    store_volume(voxelize(Ball((6.0, 6.0, 6.0), 3.5), (12, 12, 12), 1.0, depth=2), path)
    return path


# ---------------------------------------------------------------------------
# flags

@FUZZ
@given(kernel=st.sampled_from(("none", "ball", "gaussian")),
       sigma=_optional(FLOATS.map(lambda x: [_flag("--sigma", x)])),
       eps=_optional(FLOATS.map(lambda x: [_flag("--eps-rel", x)])),
       fmt=st.sampled_from(("json", "csv")))
def test_analyze_flags(volume, kernel, sigma, eps, fmt):
    _check(["analyze", "--in", volume, "--kernel", kernel, "--format", fmt] + sigma + eps)


@FUZZ
@given(first=st.sampled_from(("none", "ball", "gaussian")),
       second=st.sampled_from(("ball", "gaussian")),
       first_sigma=_optional(FLOATS.map(lambda x: [_flag("--first-sigma", x)])),
       second_sigma=FLOATS.map(lambda x: _flag("--second-sigma", x)),
       mask=_optional(FLOATS.map(lambda x: [_flag("--mask-threshold", x)])),
       reference=_optional(st.lists(REFERENCE, min_size=6, max_size=6).map(
           lambda xs: ["--reference"] + [_text(x) for x in xs])),
       fmt=st.sampled_from(("json", "csv")))
@example(first="ball", second="gaussian", first_sigma=[], second_sigma="--second-sigma=2",
         mask=[], reference=["--reference"] + [_text(1e300)] + ["0"] * 5, fmt="json")
@example(first="ball", second="gaussian", first_sigma=[], second_sigma="--second-sigma=2",
         mask=[], reference=["--reference"] + [_text(1e-320)] + ["0"] * 5, fmt="json")
@example(first="none", second="ball", first_sigma=[], second_sigma="--second-sigma=2",
         mask=[], reference=["--reference"] + [_text(-1e300)] * 6, fmt="csv")
def test_fiber_orient_flags(volume, first, second, first_sigma, second_sigma, mask,
                            reference, fmt):
    _check(["fiber-orient", "--in", volume, "--first-kernel", first, "--second-kernel",
            second, second_sigma, "--format", fmt] + first_sigma + mask + reference)


@FUZZ
@given(shape=st.sampled_from(("ball", "cylinder", "laminate", "fiber-array")),
       spacing=_optional(FLOATS.map(lambda x: [_flag("--spacing", x)])),
       diameter=_optional(FLOATS.map(lambda x: [_flag("--diameter", x)])),
       length=_optional(FLOATS.map(lambda x: [_flag("--length", x)])),
       center=_optional(_floats(3).map(lambda xs: ["--center"] + xs)),
       axis=_optional(_floats(3).map(lambda xs: ["--axis"] + xs)),
       slab=_optional(_floats(2).map(lambda xs: ["--slab"] + xs)),
       fiber=_optional(_floats(6).map(lambda xs: ["--fiber"] + xs)),
       depth=st.sampled_from((1, 2)))
def test_generate_flags(tmp_path_factory, shape, spacing, diameter, length, center, axis,
                        slab, fiber, depth):
    out = tmp_path_factory.getbasetemp() / "fuzz-generate.raw"
    out.unlink(missing_ok=True)
    rc = _check(["generate", "--shape", shape, "--dims", 12, 12, 12, "--depth", depth,
                 "--out", out] + spacing + diameter + length + center + axis + slab + fiber)
    if rc == 0 and shape in ("ball", "cylinder"):
        assert load_volume(out).values.sum() > 0, "empty volume written"


@FUZZ
@given(shape=st.sampled_from(("ball", "cylinder")),
       diameter=FLOATS.map(lambda x: _flag("--diameter", x)),
       displacement=_optional(_floats(3).map(lambda xs: ["--displacement"] + xs)),
       labels=st.lists(st.one_of(st.just("none"), st.tuples(
           st.sampled_from(("ball", "gaussian")), FLOATS).map(
           lambda t: f"{t[0]}:{_text(t[1])}")), min_size=1, max_size=2),
       eps=_optional(FLOATS.map(lambda x: [_flag("--eps-rel", x)])))
@example(shape="ball", diameter="--diameter=-inf",  # -inf + inf in the center, unwarned
         displacement=["--displacement", "0", "0", "inf"], labels=["none"], eps=[])
def test_convergence_flags(shape, diameter, displacement, labels, eps):
    _check(["convergence", "--shape", shape, diameter, "--resolutions", 4, "--depths", 1,
            "--aspect", 2, "--box-factor", 1.5, "--kernels"] + labels + displacement + eps)


# ---------------------------------------------------------------------------
# files

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from((0, -1, 1, 2, 3, 12, 10**400)), FLOATS,
    st.sampled_from(("u8", "f32", "continuous", "x-fastest", "", "1")),
    st.lists(st.sampled_from((0, 2, 12, 1.5, -12, 10**20)), max_size=4),
    st.just({}),
)
SIDECAR_KEYS = ("dims", "spacing_um", "depth", "dtype", "order", "extra")


@FUZZ
@given(edits=st.dictionaries(st.sampled_from(SIDECAR_KEYS), JSON_VALUES, max_size=3),
       drop=st.sets(st.sampled_from(SIDECAR_KEYS[:5]), max_size=1),
       cut=st.one_of(st.none(), st.integers(0, 200)),
       grow=st.binary(max_size=16),
       garble=st.one_of(st.none(), st.integers(0, 80)),
       command=st.sampled_from(("analyze", "fiber-orient")))
@example(edits={"depth": 10**400}, drop=set(), cut=None, grow=b"", garble=None,
         command="analyze")
@example(edits={"depth": 10**400}, drop=set(), cut=None, grow=b"", garble=None,
         command="fiber-orient")
def test_malformed_volume_files(volume, tmp_path_factory, edits, drop, cut, grow, garble,
                                command):
    path = tmp_path_factory.getbasetemp() / "fuzz-volume.raw"
    meta = json.loads(volume.with_name(volume.name + ".json").read_text())
    meta.update(edits)
    for key in drop:
        meta.pop(key, None)
    sidecar = json.dumps(meta)  # NaN and Infinity are written as such
    if garble is not None:
        sidecar = sidecar[:garble]  # truncated JSON text
    payload = volume.read_bytes()
    if cut is not None:
        payload = payload[:len(payload) - cut]
    path.write_bytes(payload + grow)
    path.with_name(path.name + ".json").write_text(sidecar)
    args = ["--second-sigma", 2] if command == "fiber-orient" else []
    _check([command, "--in", path] + args)


@FUZZ
@given(head=st.sampled_from((b"", b"\xff\xfe", b"\xfe\xff\x00{", b"\xef\xbb\xbf{}",
                             b"\x80", b"[" * 100_000, b'{"dims": ' * 50_000,
                             b'{"dims": [' + b"1" * 5000 + b"]}")),
       tail=st.binary(max_size=32),
       command=st.sampled_from(("analyze", "fiber-orient")))
def test_sidecar_bytes(volume, tmp_path_factory, head, tail, command):
    # not UTF-8, nested beyond the parser's recursion limit, or an integer
    # longer than int() converts
    path = tmp_path_factory.getbasetemp() / "fuzz-sidecar.raw"
    path.write_bytes(volume.read_bytes())
    path.with_name(path.name + ".json").write_bytes(head + tail)
    args = ["--second-sigma", 2] if command == "fiber-orient" else []
    assert _check([command, "--in", path] + args) == 2


@FUZZ
@given(spacing=st.sampled_from((1.0, 0.1, 1e-8, 1e-20, 1e20)),
       eps=st.sampled_from((1e308, 1e300, 1e100, 1e-300, 0.5)),
       kernel=st.sampled_from(("none", "ball", "gaussian")),
       fmt=st.sampled_from(("json", "csv")))
@example(spacing=0.1, eps=1e308, kernel="ball", fmt="json")
@example(spacing=1e-20, eps=1e300, kernel="ball", fmt="json")
@example(spacing=1e-8, eps=1e300, kernel="none", fmt="json")
def test_analyze_eps_at_extreme_spacings(volume, tmp_path_factory, spacing, eps, kernel, fmt):
    # eps_rel * max |g| can overflow, and h^3 / (|g| + eps) underflow to zero
    path = tmp_path_factory.getbasetemp() / "fuzz-spacing.raw"
    meta = json.loads(volume.with_name(volume.name + ".json").read_text())
    path.write_bytes(volume.read_bytes())
    path.with_name(path.name + ".json").write_text(json.dumps(dict(meta, spacing_um=spacing)))
    _check(["analyze", "--in", path, "--kernel", kernel, "--format", fmt,
            _flag("--eps-rel", eps)])
