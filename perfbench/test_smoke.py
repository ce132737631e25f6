"""Smoke test of the benchmark at a tiny size; it has no timing gate.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def run_bench(*args, flags=()):
    cmd = [sys.executable, *flags, os.path.join(ROOT, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    result, meta = json.loads(result_line), json.loads(meta_line)["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 and meta["fail_ratio"] == 0
    wanted = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_optimized_interpreter():
    proc = run_bench("--workload", "reguli-gf3", "--seconds", "1", flags=("-O",))
    assert proc.returncode == 2 and proc.stdout == ""
