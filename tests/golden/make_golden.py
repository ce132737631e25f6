"""Regenerate the golden CLI inputs and outputs in this directory.

    PYTHONPATH=src python tests/golden/make_golden.py

Writes the configs and data files under inputs/, runs every case in
process through ``complaff.cli.main`` and stores its stdout under out/
and its exit code in cases.json.  ``tests/test_golden.py`` replays the
cases and compares stdout byte for byte, so only run this when a change
of the CLI output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from complaff import cli
from complaff.algebra import ExtensionField, PrimeField, Quaternions
from complaff.jsonio import matrix_to_json
from complaff.linalg import MatrixK

HERE = os.path.dirname(os.path.abspath(__file__))

FIELDS = {
    "gf2": "gf(2)",
    "gf3": "gf(3)",
    "gf4": "gf(2^2; modulus=[1,1,1])",
    "quat": "quat(Q)",
}


def _write(rel, obj):
    path = os.path.join(HERE, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _run(argv):
    buf = io.StringIO()
    old = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(old)
    return code, buf.getvalue()


def _regular_spread(domain, j):
    """{a*I + b*J : a, b in K} for a 2x2 J without eigenvalues in K."""
    one, zero = domain.one(), domain.zero()
    ident = MatrixK(domain, [[one, zero], [zero, one]])
    jm = MatrixK(domain, j)
    out = []
    for a in domain.elements():
        for b in domain.elements():
            out.append(matrix_to_json(ident.scale_left(a) + jm.scale_left(b)))
    return out


def make_inputs():
    for name, spec in FIELDS.items():
        _write(f"inputs/{name}.json", {"field": spec, "n": 4, "k": 2})
    _write("inputs/gamma_zero.json", {"gamma": [[0, 0], [0, 0]]})
    _write("inputs/gamma_id.json", {"gamma": [[1, 0], [0, 1]]})
    _write("inputs/gamma_skew.json", {"gamma": [[0, 1], [1, 1]]})
    _write("inputs/gamma_rank1.json", {"gamma": [[1, 0], [0, 0]]})

    gf2_spread = [[[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 1], [1, 0]],
                  [[0, 1], [1, 1]]]
    _write("inputs/gf2_spread.json", {"kind": "dual-spread", "gammas": gf2_spread})
    _write("inputs/gf2_spread_dup.json",
           {"kind": "dual-spread", "gammas": [gf2_spread[0]] * 2 + gf2_spread[2:]})
    _write("inputs/gf2_spread_short.json",
           {"kind": "dual-spread", "gammas": gf2_spread[:3]})
    _write("inputs/gf2_spread_clash.json",
           {"kind": "dual-spread",
            "gammas": [gf2_spread[0], [[0, 0], [1, 1]]]})
    _write("inputs/gf2_family_bad.json",
           {"kind": "family",
            "entries": [{"u": [0, 0], "images": [[0, 0], [0, 0]]},
                        {"u": [1, 0], "images": [[0, 0], [0, 0]]}]})

    gf3 = PrimeField(3)
    _write("inputs/gf3_spread.json",
           {"kind": "dual-spread",
            "gammas": _regular_spread(gf3, [[0, 1], [2, 0]])})
    gf4 = ExtensionField(2, (1, 1, 1))
    _write("inputs/gf4_spread.json",
           {"kind": "dual-spread",
            "gammas": _regular_spread(gf4, [[0, 1], [(0, 1), 1]])})

    q = Quaternions()
    i = matrix_to_json(MatrixK(q, [[q.i, 0], [0, q.i]]))
    _write("inputs/quat_spread.json",
           {"kind": "dual-spread",
            "gammas": [[[0, 0], [0, 0]], [[1, 0], [0, 1]], i]})
    _write("inputs/quat_family_bad.json",
           {"kind": "family",
            "entries": [{"u": [0, 0], "images": [[0, 0], [0, 0]]},
                        {"u": [1, 0], "images": [[1, 0], [0, 0]]}]})

    # files derived from the output of other commands
    for name in ("gf2", "gf3", "gf4"):
        code, out = _run(["regulus", "--through", "inputs/gamma_zero.json",
                          "inputs/gamma_id.json", "--config",
                          f"inputs/{name}.json", "--json"])
        if code != 0:
            raise SystemExit(f"regulus on {name} exited {code}")
        _write(f"inputs/{name}_transversals.json", json.loads(out)["transversals"])
        code, out = _run(["extract-family", f"inputs/{name}_spread.json",
                          "--config", f"inputs/{name}.json", "--json"])
        if code != 0:
            raise SystemExit(f"extract-family on {name} exited {code}")
        _write(f"inputs/{name}_family.json", json.loads(out))
    code, out = _run(["extract-family", "inputs/quat_spread.json",
                      "--config", "inputs/quat.json", "--json"])
    _write("inputs/quat_family.json", json.loads(out))
    with open(os.path.join(HERE, "inputs/gf3_transversals.json"),
              encoding="utf-8") as fh:
        bad = json.load(fh)
    bad["subspaces"][1] = bad["subspaces"][0]
    _write("inputs/gf3_transversals_dup.json", bad)


def cases():
    out = []

    def add(name, *argv):
        out.append({"name": name, "argv": list(argv) + ["--json"]})

    for f in ("gf2", "gf3", "gf4"):
        cfg = ("--config", f"inputs/{f}.json")
        add(f"{f}-enumerate", "enumerate", *cfg)
        add(f"{f}-classify-lines", "classify-lines", *cfg)
        add(f"{f}-regulus", "regulus", "--through", "inputs/gamma_zero.json",
            "inputs/gamma_id.json", *cfg)
        add(f"{f}-regulus-skew", "regulus", "--through", "inputs/gamma_id.json",
            "inputs/gamma_skew.json", *cfg)
        add(f"{f}-regulus-fail", "regulus", "--through", "inputs/gamma_zero.json",
            "inputs/gamma_rank1.json", *cfg)
        add(f"{f}-reconstruct", "reconstruct", "--transversals",
            f"inputs/{f}_transversals.json", *cfg)
        add(f"{f}-check-dual-spread", "check-dual-spread",
            f"inputs/{f}_spread.json", *cfg)
        add(f"{f}-build-dual-spread", "build-dual-spread",
            f"inputs/{f}_family.json", *cfg)
        add(f"{f}-extract-family", "extract-family", f"inputs/{f}_spread.json", *cfg)
        add(f"{f}-extract-family-1", "extract-family", f"inputs/{f}_spread.json",
            "--index", "1", *cfg)
    cfg = ("--config", "inputs/gf2.json")
    add("gf2-check-dual-spread-ds1", "check-dual-spread",
        "inputs/gf2_spread_dup.json", *cfg)
    add("gf2-check-dual-spread-ds2", "check-dual-spread",
        "inputs/gf2_spread_short.json", *cfg)
    add("gf2-build-dual-spread-fail", "build-dual-spread",
        "inputs/gf2_family_bad.json", *cfg)
    add("gf2-extract-family-fail", "extract-family",
        "inputs/gf2_spread_clash.json", *cfg)
    add("gf3-reconstruct-fail", "reconstruct", "--transversals",
        "inputs/gf3_transversals_dup.json", "--config", "inputs/gf3.json")
    cfg = ("--config", "inputs/quat.json")
    add("quat-regulus", "regulus", "--through", "inputs/gamma_zero.json",
        "inputs/gamma_id.json", *cfg)
    add("quat-regulus-skew", "regulus", "--through", "inputs/gamma_id.json",
        "inputs/gamma_skew.json", *cfg)
    add("quat-regulus-fail", "regulus", "--through", "inputs/gamma_zero.json",
        "inputs/gamma_rank1.json", *cfg)
    add("quat-extract-family", "extract-family", "inputs/quat_spread.json", *cfg)
    add("quat-build-dual-spread", "build-dual-spread",
        "inputs/quat_family.json", *cfg)
    add("quat-build-dual-spread-fail", "build-dual-spread",
        "inputs/quat_family_bad.json", *cfg)
    return out


def main():
    make_inputs()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    recorded = []
    for case in cases():
        code, out = _run(case["argv"])
        with open(os.path.join(HERE, "out", case["name"] + ".stdout"), "wb") as fh:
            fh.write(out.encode("utf-8"))
        recorded.append({**case, "exit": code})
    with open(os.path.join(HERE, "cases.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
