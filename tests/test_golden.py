"""Replay the golden CLI cases and compare stdout byte for byte.

The cases, their inputs and their recorded outputs live in
tests/golden/; tests/golden/make_golden.py regenerates them.
"""

import contextlib
import io
import json
import os

import pytest

from complaff import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as _fh:
    CASES = json.load(_fh)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(case["argv"])
    with open(os.path.join(GOLDEN, "out", case["name"] + ".stdout"), "rb") as fh:
        expected = fh.read()
    assert code == case["exit"]
    assert buf.getvalue().encode("utf-8") == expected
