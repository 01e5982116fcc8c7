"""The benchmark records at the root of the repo, BENCH_*.json, name only
what BENCHMARK.json declares.

A record holds before-and-after numbers of one change.  Its ``benchmark``
section gives end-to-end metrics per workload, its ``trace`` section
per-layer metrics, per workload or for one traced command, and its
``claim``, if any, names one end-to-end metric on one workload.  A name
that BENCHMARK.json does not list is a typo or a metric the benchmark no
longer measures, and the record could not be checked against a rerun.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
END_TO_END = {m["name"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text())
    assert {"what", "machine", "benchmark"} <= set(record), sorted(record)
    for workload, section in record["benchmark"].items():
        assert workload in WORKLOADS, workload
        assert set(section["metrics"]) <= END_TO_END, (workload, sorted(section["metrics"]))
    trace = record.get("trace", {})
    assert set(trace.get("metrics", {})) <= PER_LAYER, sorted(trace["metrics"])
    for workload, section in trace.get("workloads", {}).items():
        assert workload in WORKLOADS, workload
        assert set(section["metrics"]) <= PER_LAYER, (workload, sorted(section["metrics"]))
    if "claim" in record:
        metric, workload = record["claim"]["metric"].split(" on ")
        assert metric in END_TO_END and workload in WORKLOADS, record["claim"]["metric"]
