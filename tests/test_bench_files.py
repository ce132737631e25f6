"""The committed BENCH_*.json files, as bench/record.py writes them.

Each file must parse and hold, for every workload of BENCHMARK.json, the
runs of every seed and a summary (median and [Q1, Q3]) of each of the
six end-to-end metrics, plus one traced run with every per-layer metric.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def test_bench_files_are_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_bench_file_holds_every_metric_of_every_workload(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    assert os.path.basename(path) == f"BENCH_{record['label']}.json"
    for workload in BENCHMARK["workloads"]:
        entry = record["workloads"][workload["name"]]
        runs = entry["runs"]
        assert [run["seed"] for run in runs] == record["seeds"]
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            summary = entry["summary"][name]
            assert summary["unit"] == metric["unit"]
            assert summary["n"] == len(runs)
            q1, q3 = summary["iqr"]
            assert q1 <= summary["median"] <= q3
            assert all(isinstance(run["result"]["metrics"][name]["value"], (int, float))
                       for run in runs)
        traced = entry["traced"]["result"]["metrics"]
        assert all(metric["name"] in traced for metric in BENCHMARK["per_layer"])
