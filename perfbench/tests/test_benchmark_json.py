"""BENCHMARK.json names what the code measures, with the same units."""

import json

from perfbench import bench, run
from perfbench import tracer as tr
from perfbench.workloads import WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(tr.PER_LAYER_METRICS)
