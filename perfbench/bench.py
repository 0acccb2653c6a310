"""Set-up, the closed op loop, and the end-to-end and per-layer metrics.

One op is one in-process ``minkvox.cli.main(argv)`` call.  Ops run one at a
time in whole cycles of the workload's op kinds (analyze: none, ball,
gaussian; generate: depth 1, depth 2), and a run stops starting cycles once
its time is used, so every reported figure mixes the kinds in the same
proportion.  Set-up writes the input in child processes, so the high-water
mark of this process's RSS belongs to the op phase alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import minkvox.cli

from . import tracer as tr
from .run import THREAD_VARS
from .workloads import INPUT, SPEC, CheckFailed, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "throughput_mvox_s": "Mvox/s",
    "op_p50_s": "s",
    "peak_rss_b_per_voxel": "B/voxel",
    "setup_s": "s",
    "ref_err_max": "fraction",
}


@dataclass
class OpResult:
    index: int
    kind: str
    voxels: int
    seconds: float
    ok: bool
    ref_err: float | None


def run_op(index: int, op, tracer: tr.Tracer | None = None) -> OpResult:
    """Time one CLI call, then check its output outside the timed interval."""
    out, err = io.StringIO(), io.StringIO()
    scope = tracer.op_scope(index) if tracer else contextlib.nullcontext()
    rc = None
    with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = minkvox.cli.main(op.argv)
        except Exception:
            traceback.print_exc()
        seconds = time.perf_counter() - start
    text = out.getvalue()
    ref_err = None
    try:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        ref_err = op.check(text)
        if not ref_err <= op.band:
            raise CheckFailed(f"reference error {ref_err:.3g} outside band {op.band}")
        ok = True
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:  # malformed output
        ok = False
        print(f"perfbench: op {index} ({op.kind}) failed: {exc}\n{err.getvalue()}",
              file=sys.stderr)
    if tracer:
        roots = [s for s in tracer.spans if s.op == index and s.parent is None]
        roots[0].counts["report_bytes"] = len(text.encode())
    return OpResult(index, op.kind, op.voxels, seconds, ok, ref_err)


def run_cycles(workload, spec, workdir, first: int, seconds: float,
               tracer: tr.Tracer | None = None) -> list[OpResult]:
    """Run whole op cycles from op ``first`` until ``seconds`` have passed (at least one)."""
    cycle = len(workload.kinds)
    results = []
    deadline = time.perf_counter() + seconds
    index = first
    while True:
        for _ in range(cycle):
            results.append(run_op(index, workload.op(index, spec, workdir), tracer))
            index += 1
        if time.perf_counter() >= deadline:
            return results


def traced_cycles(workload, spec, workdir, seconds: float):
    """``run_cycles`` with the tracer installed and tracemalloc on, from op one cycle in.

    The traced ops repeat the first timed ops, so the two phases compare like for like.
    """
    tracer = tr.Tracer()
    tracemalloc.start()
    try:
        with tracer.installed(tr.minkvox_patches()):
            results = run_cycles(workload, spec, workdir, len(workload.kinds), seconds, tracer)
    finally:
        tracemalloc.stop()
    return tracer, results


def kind_p50(results) -> float:
    """Mean over the op kinds of each kind's median op time."""
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def prepare_input(name: str, seed: int, workdir: Path) -> float:
    """Write the workload input in a child process; returns its own timing."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.workloads", "--workload", name,
         "--seed", str(seed), "--out", str(workdir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"input preparation failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["seconds"])


def current_rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def environment(workdir: Path) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    inputs = [p for p in (workdir / INPUT, workdir / (INPUT + ".json")) if p.exists()]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft": f"numpy.fft ({'pocketfft' if hasattr(np.fft, '_pocketfft') else 'unknown'})",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "l3_bytes": _l3_bytes(),
        "input_bytes": sum(p.stat().st_size for p in inputs),
    }


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        record=None) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    workload = WORKLOADS[name]
    baseline_rss = current_rss()
    setup = [prepare_input(name, seed, workdir) for _ in range(SETUP_REPEATS)]
    spec = json.loads((workdir / SPEC).read_text())

    cycle = len(workload.kinds)
    warm_start = time.perf_counter()
    results = [run_op(0, workload.op(0, spec, workdir))]
    setup_s = statistics.median(setup) + (time.perf_counter() - warm_start)

    budget = seconds / 2 if trace else seconds
    timed = run_cycles(workload, spec, workdir, cycle, budget)
    results += timed
    if trace:
        tracer, traced = traced_cycles(workload, spec, workdir, budget)
        results += traced

    failed = sum(not r.ok for r in results)
    if trace:
        metrics = tr.layer_metrics(tracer.spans, {r.index: r.voxels for r in traced})
        metrics["trace.overhead_frac"] = kind_p50(traced) / kind_p50(timed) - 1
        consistent = _self_times_add_up(tracer.spans)
        units = {m: u for m, u, _ in tr.PER_LAYER_METRICS}
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - baseline_rss
        errs = [r.ref_err for r in results if r.ref_err is not None]
        op_p50 = kind_p50(timed)
        metrics = {
            # from the median op time, so that one slow op does not move it
            "throughput_mvox_s": statistics.fmean(r.voxels for r in timed) / 1e6 / op_p50,
            "op_p50_s": op_p50,
            "peak_rss_b_per_voxel": peak_rss / max(r.voxels for r in results),
            "setup_s": setup_s,
            # a run where no op produced a checkable output reports 100 %
            "ref_err_max": max(errs, default=1.0),
        }
        consistent = True
        units = END_TO_END_UNITS
    if record is not None:
        record(environment(workdir), results, setup, tracer if trace else None)
    return {
        "correct": failed == 0 and consistent,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def _self_times_add_up(spans) -> bool:
    """Every op's span self times sum to its root span's duration."""
    by_op = {}
    for s, own in zip(spans, tr.self_times(spans)):
        by_op.setdefault(s.op, []).append((s, own))
    for items in by_op.values():
        root = [s for s, _ in items if s.parent is None]
        if len(root) != 1 or abs(sum(own for _, own in items) - root[0].duration) > 1e-9:
            return False
    return True
