"""The committed BENCH_*.json files, as bench/record.py writes them.

Each file must parse and hold, for every workload of BENCHMARK.json, the
runs of every seed and a summary (median and [Q1, Q3]) of each of the
six end-to-end metrics, plus one traced run with every per-layer metric.
Files written since bench/record.py began to record it also hold the
median and [Q1, Q3] of ``samples``, the job count of every run; the files
in RECORDED_WITHOUT_SAMPLES predate it.  Files written since it began to
record ``src_lines``, the line count of the checkout's src/complaff/*.py,
hold that too; the files in RECORDED_WITHOUT_SRC_LINES predate it.  Files
written since it began to record ``src_code_lines``, the lines of that
library that are not blank, comments or docstrings, hold that as well, at
most ``src_lines``; the files in RECORDED_WITHOUT_SRC_CODE_LINES predate it.
Files written since it began to record ``src_public_names``, the public
names that library defines outside ``__init__.py``, hold that too; the
files in RECORDED_WITHOUT_SRC_PUBLIC_NAMES predate it.
A change's file BENCH_prN<suffix>.json comes with the file of its parent,
BENCH_prN-parent<suffix>.json, recorded in the same alternating pairs: the
same seeds, the same run length and the same workloads.
"""

import glob
import importlib.util
import json
import os
import re
import shlex
import statistics
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

RECORDED_WITHOUT_SAMPLES = frozenset([
    "BENCH_2326915.json",
    "BENCH_73185dd.json",
    "BENCH_88cd087.json",
    "BENCH_99b2dc5.json",
    "BENCH_e4284a5.json",
    "BENCH_pr6-parent-seeds11-12.json",
    "BENCH_pr6-parent.json",
    "BENCH_pr6-seeds11-12.json",
    "BENCH_pr6.json",
    "BENCH_pr7-parent.json",
    "BENCH_pr7.json",
    "BENCH_pr8-parent-seeds11-12.json",
    "BENCH_pr8-parent.json",
    "BENCH_pr8-seeds11-12.json",
    "BENCH_pr8.json",
    "BENCH_pr9-parent.json",
    "BENCH_pr9.json",
])

RECORDED_WITHOUT_SRC_LINES = RECORDED_WITHOUT_SAMPLES | {
    "BENCH_pr11-parent.json",
    "BENCH_pr11.json",
}

RECORDED_WITHOUT_SRC_CODE_LINES = RECORDED_WITHOUT_SRC_LINES | {
    "BENCH_pr12-parent.json",
    "BENCH_pr12.json",
    "BENCH_pr13-parent.json",
    "BENCH_pr13.json",
}

RECORDED_WITHOUT_SRC_PUBLIC_NAMES = RECORDED_WITHOUT_SRC_CODE_LINES | {
    "BENCH_pr14-parent.json",
    "BENCH_pr14.json",
    "BENCH_pr15-parent.json",
    "BENCH_pr15.json",
    "BENCH_pr16-parent-seeds11-12.json",
    "BENCH_pr16-parent.json",
    "BENCH_pr16-seeds11-12.json",
    "BENCH_pr16.json",
    "BENCH_pr17-parent.json",
    "BENCH_pr17.json",
}


def test_src_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "bench", "record.py"))
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    package = tmp_path / "src" / "complaff"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nX = """not a\ndocstring"""\n\n\n'
        'class C:\n    """Class docstring."""\n\n    def f(self):\n'
        '        """Function\n        docstring."""\n        return 1  # comment\n')
    assert record.src_lines(str(tmp_path)) == 15
    assert record.src_code_lines(str(tmp_path)) == 5    # X = ... (2), class, def, return


def test_src_public_names_counts_top_level_names_and_public_methods(tmp_path):
    record = _bench_module("record")
    package = tmp_path / "src" / "complaff"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .a import f\nPUBLIC = 1\n")
    (package / "a.py").write_text(
        "X = 1\n_Y = 2\nZ: int = 3\n\n"
        "def f():\n    def inner():\n        pass\n\n"
        "def _g():\n    pass\n\n"
        "class C:\n    attr = 1\n\n    def m(self):\n        pass\n\n"
        "    @property\n    def p(self):\n        return 1\n\n"
        "    def _private(self):\n        pass\n\n"
        "    def __eq__(self, other):\n        return True\n\n"
        "class _Hidden:\n    def m(self):\n        pass\n")
    # X, Z, f, C, C.m, C.p; not _Y, inner, _g, C.attr, C._private,
    # C.__eq__, _Hidden, _Hidden.m or anything in __init__.py
    assert record.src_public_names(str(tmp_path)) == 6


def test_bench_files_are_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_bench_file_holds_every_metric_of_every_workload(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    assert os.path.basename(path) == f"BENCH_{record['label']}.json"
    if os.path.basename(path) not in RECORDED_WITHOUT_SRC_LINES:
        assert type(record["src_lines"]) is int and record["src_lines"] > 0
    if os.path.basename(path) not in RECORDED_WITHOUT_SRC_CODE_LINES:
        code_lines = record["src_code_lines"]
        assert type(code_lines) is int and 0 < code_lines <= record["src_lines"]
    if os.path.basename(path) not in RECORDED_WITHOUT_SRC_PUBLIC_NAMES:
        assert type(record["src_public_names"]) is int and record["src_public_names"] > 0
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
        if os.path.basename(path) not in RECORDED_WITHOUT_SAMPLES:
            samples = entry["summary"]["samples"]
            jobs = [run["meta"]["samples"] for run in runs]
            assert samples["unit"] == "jobs" and samples["n"] == len(runs)
            assert samples["median"] == statistics.median(jobs)
            q1, q3 = samples["iqr"]
            assert min(jobs) <= q1 <= samples["median"] <= q3 <= max(jobs)


CHANGE_FILES = [path for path in FILES
                if re.fullmatch(r"BENCH_pr\d+(?!\d|-parent).*\.json", os.path.basename(path))]


def test_change_files_are_found():
    assert CHANGE_FILES


@pytest.mark.parametrize("path", CHANGE_FILES, ids=os.path.basename)
def test_change_file_has_a_parent_file_of_the_same_runs(path):
    pr, suffix = re.fullmatch(r"BENCH_(pr\d+)(.*)\.json", os.path.basename(path)).groups()
    parent_path = os.path.join(ROOT, f"BENCH_{pr}-parent{suffix}.json")
    assert os.path.isfile(parent_path)
    with open(path, encoding="utf-8") as fh:
        change = json.load(fh)
    with open(parent_path, encoding="utf-8") as fh:
        parent = json.load(fh)
    assert change["seeds"] == parent["seeds"]
    assert change["seconds"] == parent["seconds"]
    assert change["workloads"].keys() == parent["workloads"].keys()


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(ROOT, "bench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compared(parent, change):
    compare = _bench_module("compare")
    rows = compare.compare(compare.load(os.path.join(ROOT, parent)),
                           compare.load(os.path.join(ROOT, change)), BENCHMARK)
    return {(row["workload"], row["metric"]): row for row in rows}


@pytest.mark.parametrize("pr, workload, won", [("pr13", "quat-sampled", 10),
                                               ("pr14", "quat-sampled", 1),
                                               ("pr15", "reguli-gf3", 10)])
def test_comparator_counts_the_pairs_won(pr, workload, won):
    rows = _compared(f"BENCH_{pr}-parent.json", f"BENCH_{pr}.json")
    row = rows[workload, "jobs_per_s"]
    assert (row["won"], row["pairs"]) == (won, 10)
    assert row["ratio"] == row["change"][0] / row["parent"][0]
    assert all(r["verdict"] == "ok" for r in rows.values())


def test_comparator_reports_a_median_past_its_bound():
    """reguli-gf3 job_tail_ms of the two-seed PR 6 runs: 5.72 -> 7.96 ms."""
    rows = _compared("BENCH_pr6-parent-seeds11-12.json", "BENCH_pr6-seeds11-12.json")
    row = rows["reguli-gf3", "job_tail_ms"]
    assert row["verdict"] == "worse" and row["bound"] == 0.2
    assert 1.38 < row["ratio"] < 1.40 and (row["won"], row["pairs"]) == (0, 2)
    assert [key for key, r in rows.items() if r["verdict"] == "worse"] == [
        ("reguli-gf3", "job_tail_ms")]


def test_comparator_compares_unpaired_files_by_median_only():
    compare = _bench_module("compare")
    rows = _compared("BENCH_pr9.json", "BENCH_pr15.json")
    assert all(r["won"] is None and r["pairs"] is None for r in rows.values())
    text = compare.report(os.path.join(ROOT, "BENCH_pr9.json"),
                          os.path.join(ROOT, "BENCH_pr15.json"), BENCHMARK)
    assert "unpaired" in text and "won" not in text


def test_comparator_reports_samples_and_src_sizes():
    """The pr16 pair: spreads-cli-gf4 ran 15003 -> 17298 jobs (medians),
    and src/ went from 3417 lines (2141 of code) to 3493 (2183)."""
    compare = _bench_module("compare")
    parent, change = (os.path.join(ROOT, f"BENCH_{label}.json")
                      for label in ("pr16-parent", "pr16"))
    jobs = compare.samples(compare.load(parent), compare.load(change), "spreads-cli-gf4")
    assert jobs == ((15003, 13707, 16132.5), (17298, 16614, 18027))
    text = compare.report(parent, change, BENCHMARK)
    assert "src lines/code lines 3417/2141 -> 3493/2183" in text.splitlines()
    rows = [line.split() for line in text.splitlines() if line.startswith("  samples ")]
    assert len(rows) == len(BENCHMARK["workloads"])
    assert rows[1] == ["samples", "15003", "[13707,", "16132.5]", "->",
                       "17298", "[16614,", "18027]", "jobs"]
    # files recorded before the job counts and line counts have neither
    old = compare.load(os.path.join(ROOT, "BENCH_pr9.json"))
    assert compare.samples(old, compare.load(change), "quat-sampled") is None
    assert compare.src_sizes(old) == "-/-"
    assert "src public names - -> -" in text.splitlines()


def test_comparator_prints_the_traced_per_layer_metrics_side_by_side():
    """The pr18 pair on reguli-gf3: one chart per reconstruction, so the
    traced run built 180 -> 100 charts and ran 420 -> 340 rrefs."""
    compare = _bench_module("compare")
    parent, change = (os.path.join(ROOT, f"BENCH_{label}.json")
                      for label in ("pr18-parent", "pr18"))
    layers = {name: (p, c) for name, _, p, c in compare.traced(
        compare.load(parent), compare.load(change), "reguli-gf3", BENCHMARK)}
    assert list(layers) == [metric["name"] for metric in BENCHMARK["per_layer"]]
    assert layers["chart.charts_built"] == (180, 100)
    assert layers["linalg.rref_calls"] == (420, 340)
    lines = compare.report(parent, change, BENCHMARK).splitlines()
    block = lines[lines.index("reguli-gf3"):lines.index("spreads-cli-gf4")]
    assert ["chart.charts_built", "180", "->", "100", "count"] in [
        line.split() for line in block]
    assert ["linalg.rref_calls", "420", "->", "340", "count"] in [
        line.split() for line in block]
    traced_lines = [line for line in lines if line.startswith("    ")]
    assert len(traced_lines) == len(BENCHMARK["per_layer"]) * len(BENCHMARK["workloads"])
    assert not any(word in line for line in traced_lines for word in ("ok", "worse"))


def _compare_command():
    return [sys.executable, os.path.join(ROOT, "bench", "compare.py"),
            os.path.join(ROOT, "BENCH_pr16-parent.json"),
            os.path.join(ROOT, "BENCH_pr16.json")]


def test_comparator_ends_quietly_when_its_reader_closes_the_pipe():
    head = subprocess.run(shlex.join(_compare_command()) + " | head -1", shell=True,
                          capture_output=True, text=True)
    assert head.stdout.startswith("parent BENCH_pr16-parent.json")
    assert "Traceback" not in head.stderr
    # the reader gone before the first write: the write itself fails
    proc = subprocess.Popen(_compare_command(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1 and err == ""


def test_mutator_enumerates_each_operator_at_its_site():
    """bench/mutate.py mutates the named functions' bodies only: not their
    signatures, not f-strings and not other functions."""
    mutate = _bench_module("mutate")
    source = ("def f(a, b):\n"
              "    if a == b and not a:\n"
              "        return all(x + 1 for x in a)\n"
              "    for y in b:\n"
              "        break\n"
              "    return f'{a == b}'\n"
              "\n"
              "class C:\n"
              "    def g(self, n=3):\n"
              "        return n is None\n"
              "\n"
              "def h():\n"
              "    return 1 < 2\n")
    found = mutate.mutants(source, ["f", "C.g"])
    assert [(m.function, m.line, m.col, m.operator) for m in found] == [
        ("C.g", 10, 15, "is -> is not"),
        ("f", 2, 7, "== -> !="), ("f", 2, 7, "and -> or"), ("f", 2, 18, "drop not"),
        ("f", 3, 15, "all -> any"), ("f", 3, 19, "+ -> -"),
        ("f", 3, 23, "1 -> 0"), ("f", 3, 23, "1 -> 2"),
        ("f", 5, 8, "break -> pass")]
    lines = source.splitlines()
    for m in found:
        changed = m.source.splitlines()
        assert [i for i, (a, b) in enumerate(zip(lines, changed)) if a != b] == [m.line - 1]
        compile(m.source, "<mutant>", "exec")
    assert found[2].source.splitlines()[1] == "    if (a == b or not a):"
    with pytest.raises(ValueError, match="no such function: g"):
        mutate.mutants(source, ["g"])
