#!/usr/bin/env python3
"""Mutation-test functions of the library against named test files.

Run from the repository root:

    python3 bench/mutate.py pr20 \\
        --target src/complaff/reguli.py:TransversalSet.contains \\
        --tests tests/test_reguli.py tests/test_geometry_oracle.py

Each mutant changes one site of one target function (``PATH:QUALNAME``)
by one operator:

- a comparison flipped: ``==``/``!=``, ``<``/``>=``, ``>``/``<=``,
  ``is``/``is not``, ``in``/``not in``;
- ``and``/``or`` swapped;
- ``all``/``any`` swapped;
- a ``not`` dropped;
- ``+``/``-`` swapped;
- a small int constant (at most 8 in size) moved by +1 and by -1;
- a ``break`` or ``continue`` replaced by ``pass``.

Only the function's body is mutated, not its signature, and sites
inside f-strings are left alone.  Every mutant is written into one
temporary copy of the repository (``src/``, ``tests/``, ``bench/``,
``perfbench/`` and the files at the root), where the named test files
run against it with ``-x`` and a timeout of TIMEOUT_S seconds.  A
mutant that survives them runs again against the whole suite under
``tests/``.  MUTANTS_<label>.json, written to the root of this
repository, lists per mutant its key (``QUALNAME/i``, the i-th mutant of
that function), the site ``PATH:LINE:COL``, the operator and the status:
``killed`` with the test file that failed first (``timeout`` when the run
ran out of time), ``survived``, or ``equivalent`` with the one-line
reason that ``--equivalent KEY=REASON`` gives for a survivor.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

FLIPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
         ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">",
           ast.LtE: "<=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in", ast.And: "and", ast.Or: "or", ast.Add: "+",
           ast.Sub: "-"}
SWAPS = {ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add}
SMALL_INT = 8
TIMEOUT_S = 600.0


class Mutant(NamedTuple):
    function: str       # qualified name of the target function
    line: int
    col: int
    operator: str       # e.g. "== -> !="
    source: str         # the whole mutated module


def _functions(tree: ast.Module):
    """(qualified name, node) of every function and method in the module."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            stack.extend((name + ".", child) for child in node.body)


def _edits(node: ast.AST):
    """(span node, replacement text, operator) of every mutation at node."""
    def changed(make):
        new = copy.deepcopy(node)
        make(new)
        return f"({ast.unparse(new)})"

    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            flipped = FLIPS[type(op)]

            def flip(n, i=i, flipped=flipped):
                n.ops[i] = flipped()
            yield node, changed(flip), f"{SYMBOLS[type(op)]} -> {SYMBOLS[flipped]}"
    elif isinstance(node, (ast.BoolOp, ast.BinOp)) and type(node.op) in SWAPS:
        swapped = SWAPS[type(node.op)]

        def swap(n):
            n.op = swapped()
        yield node, changed(swap), f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[swapped]}"
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node, f"({ast.unparse(node.operand)})", "drop not"
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in ("all", "any")):
        other = "any" if node.func.id == "all" else "all"
        yield node.func, other, f"{node.func.id} -> {other}"
    elif (isinstance(node, ast.Constant) and type(node.value) is int
          and abs(node.value) <= SMALL_INT):
        for moved in (node.value + 1, node.value - 1):
            yield node, f"({moved})", f"{node.value} -> {moved}"
    elif isinstance(node, (ast.Break, ast.Continue)):
        yield node, "pass", f"{type(node).__name__.lower()} -> pass"


def _inside_fstrings(tree: ast.AST) -> set:
    return {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
            for inner in ast.walk(node)}


def mutants(source: str, functions) -> list:
    """Every mutant of the named functions (qualified names) of a module
    source, in the order of their sites and operators."""
    tree = ast.parse(source)
    data = source.encode("utf-8")
    starts = [0]                      # byte offset of each line's start
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    skip = _inside_fstrings(tree)
    wanted = set(functions)
    found = []
    for name, func in _functions(tree):
        if name not in wanted:
            continue
        wanted.discard(name)
        for node in (n for stmt in func.body for n in ast.walk(stmt)):
            if id(node) in skip:
                continue
            for span, text, operator in _edits(node):
                lo = starts[span.lineno - 1] + span.col_offset
                hi = starts[span.end_lineno - 1] + span.end_col_offset
                mutated = (data[:lo] + text.encode("utf-8") + data[hi:]).decode("utf-8")
                found.append(Mutant(name, span.lineno, span.col_offset, operator, mutated))
    if wanted:
        raise ValueError(f"no such function: {', '.join(sorted(wanted))}")
    return sorted(found, key=lambda m: (m.function, m.line, m.col, m.operator))


def _copy_repository(dest: str):
    for entry in os.listdir(REPO):
        path = os.path.join(REPO, entry)
        if os.path.isdir(path):
            if entry in ("src", "tests", "bench", "perfbench"):
                shutil.copytree(path, os.path.join(dest, entry), ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(path, dest)


def run_tests(root: str, tests) -> str | None:
    """None when the tests pass in the checkout, else the first failing
    test file (or ``timeout``, or the exit status when none is named)."""
    # no .pyc is written, so a mutant of the same size written within the
    # same second as the last one is never read from a stale cache
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) ([^\s:]+)", proc.stdout, re.M)
    return failed.group(1) if failed else f"exit {proc.returncode}"


def parse_target(text: str) -> tuple:
    path, sep, name = text.partition(":")
    if not sep or not name or not os.path.isfile(os.path.join(REPO, path)):
        raise argparse.ArgumentTypeError(f"expected PATH:QUALNAME, got {text!r}")
    return path, name


def parse_equivalent(text: str) -> tuple:
    key, sep, reason = text.partition("=")
    if not sep or not reason.strip():
        raise argparse.ArgumentTypeError(f"expected KEY=REASON, got {text!r}")
    return key, reason.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="the result goes to MUTANTS_<label>.json")
    parser.add_argument("--target", type=parse_target, action="append", required=True,
                        metavar="PATH:QUALNAME", help="a function to mutate")
    parser.add_argument("--tests", nargs="+", required=True, help="test files to run")
    parser.add_argument("--equivalent", type=parse_equivalent, action="append",
                        default=[], metavar="KEY=REASON",
                        help="why the survivor KEY is an equivalent mutant")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"bad label {args.label!r}")
    reasons = dict(args.equivalent)

    by_path = {}
    for path, name in args.target:
        by_path.setdefault(path, []).append(name)
    results = []
    with tempfile.TemporaryDirectory() as root:
        _copy_repository(root)
        for path, names in by_path.items():
            target = os.path.join(root, path)
            with open(target, encoding="utf-8") as fh:
                original = fh.read()
            ordinal = {}
            for mutant in mutants(original, names):
                i = ordinal[mutant.function] = ordinal.get(mutant.function, -1) + 1
                key = f"{mutant.function}/{i}"
                started = time.monotonic()
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(mutant.source)
                try:
                    killer = run_tests(root, args.tests)
                    if killer is None:
                        killer = run_tests(root, ["tests"])
                finally:
                    with open(target, "w", encoding="utf-8") as fh:
                        fh.write(original)
                entry = {"key": key, "site": f"{path}:{mutant.line}:{mutant.col}",
                         "operator": mutant.operator}
                if killer is not None:
                    entry.update(status="killed", killed_by=killer)
                elif key in reasons:
                    entry.update(status="equivalent", reason=reasons[key])
                else:
                    entry["status"] = "survived"
                entry["seconds"] = round(time.monotonic() - started, 1)
                results.append(entry)
                print(f"{key} {entry['site']} {mutant.operator}: {entry['status']} "
                      f"{entry.get('killed_by', '')}", file=sys.stderr, flush=True)
    counts = {}
    for entry in results:
        counts[entry["status"]] = counts.get(entry["status"], 0) + 1
    record = {"label": args.label, "targets": [f"{p}:{n}" for p, n in args.target],
              "tests": args.tests, "timeout_s": TIMEOUT_S, "counts": counts,
              "mutants": results}
    path = os.path.join(REPO, f"MUTANTS_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
