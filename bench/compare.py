#!/usr/bin/env python3
"""Compare two BENCH_<label>.json files, a parent's and a change's.

Run from the repository root:

    python3 bench/compare.py BENCH_pr16-parent.json BENCH_pr16.json

For every workload and every end-to-end metric of BENCHMARK.json it
prints the median [Q1, Q3] on each side, the ratio of the medians
(change / parent), the pairs of runs the change won, and the verdict on
the metric's bound: ``worse`` when the change's median is worse than the
parent's by more than the bound, else ``ok``.  A pair is the parent's and
the change's run of one seed, and the change wins it when its value is
better in the metric's direction; ties count for neither side.  The
``fail_ratio`` line has no bound: its verdict is ``worse`` when the
change's median exceeds the parent's.  ``beyond IQR`` says whether the
medians differ, in the change's favour, by more than the parent's
[Q1, Q3] spread.  Each workload also gets a ``samples`` row, the median
[Q1, Q3] of the jobs run on each side, with no verdict: a faster program
runs more jobs in the same time.  The header gives each checkout's
``src_lines``/``src_code_lines`` and, on the next line, its
``src_public_names``; files recorded before those counts existed show
``-`` there and no ``samples`` row.  Last, each workload lists the
per-layer metrics of BENCHMARK.json from the two traced runs side by
side, parent -> change, with no verdict: they have no bound, and each
side is one run (``-`` where a file lacks the metric).

Two files are paired when bench/record.py wrote them in one alternating
run: the same ``started`` time, seeds and run length.  Unpaired files,
say two changes far apart, are compared by their medians only, and the
output says so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def paired(parent: dict, change: dict) -> bool:
    """Written by one alternating run of bench/record.py."""
    return (parent.get("started") is not None
            and all(parent.get(key) == change.get(key)
                    for key in ("started", "seeds", "seconds")))


def _values(entry: dict, name: str) -> dict:
    """seed -> the run's value of the metric (fail_ratio from the meta)."""
    if name == "fail_ratio":
        return {run["seed"]: run["meta"]["fail_ratio"] for run in entry["runs"]}
    return {run["seed"]: run["result"]["metrics"][name]["value"] for run in entry["runs"]}


def compare(parent: dict, change: dict, benchmark: dict) -> list:
    """One row per workload and metric: medians, quartiles, ratio, pairs
    won (None when unpaired) and the verdict."""
    metrics = [(m["name"], m["better"], m["bound"]) for m in benchmark["end_to_end"]]
    metrics.append(("fail_ratio", "lower", None))
    with_pairs = paired(parent, change)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        p_entry, c_entry = parent["workloads"][workload], change["workloads"][workload]
        for name, better, bound in metrics:
            p_sum, c_sum = p_entry["summary"][name], c_entry["summary"][name]
            p_med, c_med = p_sum["median"], c_sum["median"]
            sign = 1 if better == "higher" else -1     # sign * (c - p) > 0: the change is better
            gain = sign * (c_med - p_med)
            if bound is None:
                worse = gain < 0
            else:
                worse = -gain > bound * abs(p_med)
            won = None
            if with_pairs:
                p_runs, c_runs = _values(p_entry, name), _values(c_entry, name)
                won = sum(sign * (c_runs[s] - p_runs[s]) > 0 for s in p_runs)
            rows.append({
                "workload": workload, "metric": name, "unit": p_sum["unit"],
                "parent": (p_med, *p_sum["iqr"]), "change": (c_med, *c_sum["iqr"]),
                "ratio": c_med / p_med if p_med else None,
                "won": won, "pairs": len(p_entry["runs"]) if with_pairs else None,
                "beyond_iqr": gain > p_sum["iqr"][1] - p_sum["iqr"][0],
                "bound": bound, "verdict": "worse" if worse else "ok"})
    return rows


def samples(parent: dict, change: dict, workload: str):
    """(median, Q1, Q3) of the job counts on each side, or None when either
    file predates them."""
    sides = [record["workloads"][workload]["summary"].get("samples")
             for record in (parent, change)]
    return None if None in sides else tuple((s["median"], *s["iqr"]) for s in sides)


def src_sizes(record: dict) -> str:
    """src_lines/src_code_lines of the recorded checkout, '-' where absent."""
    return "/".join(str(record.get(key, "-")) for key in ("src_lines", "src_code_lines"))


def traced(parent: dict, change: dict, workload: str, benchmark: dict) -> list:
    """(name, unit, parent value, change value) of every per-layer metric
    in the two traced runs of the workload, None where a file lacks it."""
    sides = [record["workloads"][workload].get("traced", {}).get("result", {})
             .get("metrics", {}) for record in (parent, change)]
    return [(m["name"], m["unit"], *(side.get(m["name"], {}).get("value") for side in sides))
            for m in benchmark["per_layer"]]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _fmt_traced(x) -> str:
    """A count in full, a time or ratio to 4 digits, '-' when absent."""
    return "-" if x is None else str(x) if isinstance(x, int) else _fmt(x)


def report(parent_path: str, change_path: str, benchmark: dict) -> str:
    parent, change = load(parent_path), load(change_path)
    rows = compare(parent, change, benchmark)
    lines = [f"parent {os.path.basename(parent_path)} ({parent.get('commit')})  "
             f"change {os.path.basename(change_path)} ({change.get('commit')})",
             f"src lines/code lines {src_sizes(parent)} -> {src_sizes(change)}",
             f"src public names {parent.get('src_public_names', '-')} -> "
             f"{change.get('src_public_names', '-')}"]
    if not paired(parent, change):
        lines.append("unpaired files (not one alternating run): medians only, no pairs")
    for workload in [w["name"] for w in benchmark["workloads"]]:
        lines.append(f"\n{workload}")
        jobs = samples(parent, change, workload)
        if jobs is not None:
            p_jobs, c_jobs = ("{:.10g} [{:.10g}, {:.10g}]".format(*side) for side in jobs)
            lines.append(f"  {'samples':<15} {p_jobs} -> {c_jobs} jobs")
        lines.extend(_metric_line(row) for row in rows if row["workload"] == workload)
        lines.append("  traced run, per layer (one run each, no bound)")
        lines.extend(f"    {name:<34} {_fmt_traced(p)} -> {_fmt_traced(c)} {unit}"
                     for name, unit, p, c in traced(parent, change, workload, benchmark))
    return "\n".join(lines)


def _metric_line(row: dict) -> str:
    """The report line of one end-to-end metric (or fail_ratio)."""
    p_med, p_q1, p_q3 = row["parent"]
    c_med, c_q1, c_q3 = row["change"]
    ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}x"
    won = "" if row["won"] is None else f"  won {row['won']}/{row['pairs']}"
    bound = "" if row["bound"] is None else f" (bound {row['bound']:.0%})"
    return (f"  {row['metric']:<15} {_fmt(p_med)} [{_fmt(p_q1)}, {_fmt(p_q3)}] -> "
            f"{_fmt(c_med)} [{_fmt(c_q1)}, {_fmt(c_q3)}] {row['unit']}  {ratio}{won}  "
            f"beyond IQR: {'yes' if row['beyond_iqr'] else 'no'}  "
            f"{row['verdict']}{bound}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent's BENCH_<label>.json")
    parser.add_argument("change", help="the change's BENCH_<label>.json")
    args = parser.parse_args(argv)
    text = report(args.parent, args.change, load(os.path.join(REPO, "BENCHMARK.json")))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so that the
        # flush at exit fails no more (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
