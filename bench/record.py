#!/usr/bin/env python3
"""Record the benchmark of one or more checkouts into BENCH_<label>.json files.

Run from the repository root:

    python3 bench/record.py mychange=.
    python3 bench/record.py mychange=. parent=../parent-checkout

Each argument LABEL=DIR names a checkout.  For every workload of
BENCHMARK.json, ``perfbench/run.py`` of each checkout runs once per seed
(1-10 by default) with ``--trace 0`` for the ``run_seconds`` that
BENCHMARK.json fixes, then once with ``--trace 1`` on the first seed.
With several checkouts the runs of one seed form a group whose order
alternates from seed to seed, so a parent/change comparison gets
alternating pairs.  Every run is a fresh subprocess inside its checkout,
so the program measured is that checkout's ``src/``.  Each
BENCH_<label>.json, written to the root of this repository, holds per
workload the metadata and result line of every run, the traced run, and
the median and [Q1, Q3] (inclusive quartiles) over the seeds of every
end-to-end metric, of the failure ratio and of ``samples``, the number of
jobs each run completed: peak_rss_mb grows with it, so a reader can tell
an RSS rise that comes from more jobs from one that comes from the
program.  Its ``commit`` is what
``git describe`` says of the checkout (null outside a git checkout), and
its ``src_lines`` the size of the checkout's library, the line count of
``wc -l src/complaff/*.py``, ``src_code_lines`` the lines of code in
it: those that are not blank, not comments and not inside a docstring,
and ``src_public_names`` the number of public names the library defines
outside ``__init__.py`` (see ``src_public_names``).
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    """'1-10' or '1,3,5' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_side(text: str) -> tuple:
    """LABEL=DIR as (label, absolute checkout path)."""
    label, sep, root = text.partition("=")
    if not sep or not re.fullmatch(r"[A-Za-z0-9._-]+", label):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    root = os.path.abspath(root)
    if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
        raise argparse.ArgumentTypeError(f"{root} has no perfbench/run.py")
    return label, root


def git_commit(root: str) -> str | None:
    """The checkout's commit, marked -dirty when tracked files differ from it."""
    proc = subprocess.run(["git", "-C", root, "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines(root: str) -> int:
    """The lines of the checkout's src/complaff/*.py, as wc -l counts them."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "complaff", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def src_code_lines(root: str) -> int:
    """The lines of the checkout's src/complaff/*.py that are not blank, not
    comments and not inside a docstring (of a module, class or function,
    as ast finds them)."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    total = 0
    for path in glob.glob(os.path.join(root, "src", "complaff", "*.py")):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                docstrings.update(range(doc.lineno, doc.end_lineno + 1))
        total += sum(1 for i, line in enumerate(text.splitlines(), 1)
                     if i not in docstrings and line.strip()
                     and not line.lstrip().startswith("#"))
    return total


def src_public_names(root: str) -> int:
    """The names of the checkout's src/complaff/*.py, ``__init__.py`` left
    out, that do not start with ``_``: the top-level functions, classes and
    assigned names, and the methods and properties of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = []
    for path in glob.glob(os.path.join(root, "src", "complaff", "*.py")):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                names += [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.append(node.target.id)
            elif isinstance(node, (*defs, ast.ClassDef)):
                names.append(node.name)
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    names += [d.name for d in node.body if isinstance(d, defs)]
    return sum(not name.startswith("_") for name in names)


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its metadata and result lines, and the exit code."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} without a "
                           f"result: {proc.stderr.strip()}")
    return {"seed": seed, "exit_code": proc.returncode,
            "meta": json.loads(lines[-2])["meta"], "result": json.loads(lines[-1])}


def summarize(runs: list) -> dict:
    """Median and [Q1, Q3] of every metric, plus the failure ratio and the
    number of jobs run (``samples``)."""
    columns = {}
    for run in runs:
        for name, entry in run["result"]["metrics"].items():
            columns.setdefault(name, (entry["unit"], []))[1].append(entry["value"])
        columns.setdefault("fail_ratio", ("ratio", []))[1].append(run["meta"]["fail_ratio"])
        columns.setdefault("samples", ("jobs", []))[1].append(run["meta"]["samples"])
    out = {}
    for name, (unit, values) in columns.items():
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[name] = {"unit": unit, "median": median, "iqr": [q1, q3], "n": len(values)}
    return out


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="+", type=parse_side, metavar="LABEL=DIR",
                        help="checkout to measure, written to BENCH_<LABEL>.json")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="seeds as 1-10 or 1,3,5 (default 1-10)")
    args = parser.parse_args(argv)
    if len({label for label, _ in args.sides}) != len(args.sides):
        parser.error("labels must differ")

    benchmark = load_benchmark(args.sides[0][1])
    seconds = benchmark["run_seconds"]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    records = {label: {"label": label, "commit": git_commit(root), "seeds": args.seeds,
                       "seconds": seconds, "started": started,
                       "src_lines": src_lines(root),
                       "src_code_lines": src_code_lines(root),
                       "src_public_names": src_public_names(root), "workloads": {}}
               for label, root in args.sides}
    for name in [w["name"] for w in benchmark["workloads"]]:
        runs = {label: [] for label, _ in args.sides}
        for i, seed in enumerate(args.seeds):
            for label, root in args.sides[::-1] if i % 2 else args.sides:
                run = run_once(root, name, seed, seconds, 0)
                runs[label].append(run)
                print(f"{label} {name} seed {seed}: "
                      f"{run['result']['metrics']['jobs_per_s']['value']:.1f} jobs/s",
                      file=sys.stderr, flush=True)
        for label, root in args.sides:
            records[label]["workloads"][name] = {
                "summary": summarize(runs[label]), "runs": runs[label],
                "traced": run_once(root, name, args.seeds[0], seconds, 1)}
    for label, record in records.items():
        path = os.path.join(REPO, f"BENCH_{label}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(path + ".tmp", path)
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
