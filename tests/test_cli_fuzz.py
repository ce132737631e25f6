"""Derandomized fuzz of the CLI on mutated golden inputs.

Each example takes one golden case, mutates one of the files it reads
(its config or a data file) and runs the case in process through
``cli.main``.  The mutations drop a key, swap the JSON type of a value,
change a dimension ("n", "k" or "ambient") or truncate the file text.
Whatever the input, the CLI must exit 0, 1 or 2, print exactly one line
to stderr when it exits 2, and never raise.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from complaff import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as _fh:
    CASES = json.load(_fh)

# values of every JSON type, and dimensions on both sides of the limits
SWAPS = [None, True, False, 0, 1, -1, 2.5, 1.0000000000000001, "", "x", "1/0",
         [], [0], [[0]], {}, {"ambient": 4}, 10 ** 30]
DIMENSIONS = [-1, 0, 1, 2, 3, 4, 5, 65, 2000]
_DROP = object()                         # marks a key or item to remove


def _paths(node, prefix=()):
    """Every path of keys and indices into a JSON document, the root first."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _replaced(node, path, value):
    """A copy of node with the value at path replaced, or removed when value
    is the _DROP marker."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        out = dict(node)
    else:
        out = list(node)
    if not rest and value is _DROP:
        del out[head]
    else:
        out[head] = _replaced(node[head], rest, value)
    return out


@st.composite
def mutated_cases(draw):
    """(argv, path of the mutated file, its new text) for one golden case."""
    case = draw(st.sampled_from(CASES))
    files = [a for a in case["argv"] if a.startswith("inputs/")]
    target = draw(st.sampled_from(files))
    with open(os.path.join(GOLDEN, target), encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    how = draw(st.sampled_from(["drop", "swap", "dimension", "truncate"]))
    if how == "truncate":
        new_text = text[:draw(st.integers(0, len(text) - 1))]
    else:
        paths = list(_paths(doc))
        if how == "drop":
            paths = [p for p in paths if p]
        elif how == "dimension":
            paths = [p for p in paths if p and p[-1] in ("n", "k", "ambient")] or paths
        path = draw(st.sampled_from(paths))
        value = {"drop": st.just(_DROP), "swap": st.sampled_from(SWAPS),
                 "dimension": st.sampled_from(DIMENSIONS)}[how]
        new_text = json.dumps(_replaced(doc, path, draw(value)))
    return case["argv"], target, new_text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_cases())
def test_mutated_golden_inputs_exit_cleanly(workdir, mutated):
    argv, target, text = mutated
    mutated_path = workdir / "mutated.json"
    mutated_path.write_text(text, encoding="utf-8")
    argv = [str(mutated_path) if a == target
            else os.path.join(GOLDEN, a) if a.startswith("inputs/") else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
