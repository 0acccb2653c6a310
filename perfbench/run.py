"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of the
checkout this file sits in; without those sources the run fails with exit
code 2 and prints no result.  Inputs and per-run records go to
``.perfbench_work/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("analyze-balls", "orient-fibers", "generate-fibers")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MINKVOX_THREADS")


def _limit_threads() -> None:
    """Keep every thread-count variable at or below nproc; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "minkvox" / "__init__.py").is_file():
        print(f"perfbench: error: no minkvox sources under {SRC}", file=sys.stderr)
        return 2
    _limit_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import minkvox

    if Path(minkvox.__file__).resolve().parent != SRC / "minkvox":
        print(f"perfbench: error: imported minkvox from {minkvox.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import bench

    records = ROOT / ".perfbench_work"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = records / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)

    def record(env, results, setup, tracer):
        print("# env " + json.dumps(env, sort_keys=True))
        (records / f"{tag}.json").write_text(json.dumps(
            {"env": env, "setup_prepare_s": setup,
             "ops": [vars(r) for r in results]}, indent=1))
        if tracer is not None:
            tracer.write_spans(records / f"{tag}-spans.json")

    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
