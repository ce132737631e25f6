import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from complaff import cli
from complaff.algebra import ExtensionField, PrimeField, Quaternions
from complaff.chart import symmetric_chart
from complaff.config import chart_from_config, load_config, parse_field
from complaff.errors import ConfigError
from complaff.jsonio import regulus_to_json, subspace_from_json, transversals_to_json
from complaff.projective import Subspace, ZStructure
from complaff.reguli import regulus_through, transversals_of

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

GF2 = PrimeField(2)
GF4 = ExtensionField(2, (1, 1, 1))


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "complaff.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.fixture
def cfg2(tmp_path):
    path = tmp_path / "gf2.json"
    path.write_text(json.dumps({"field": "gf(2)", "n": 4, "k": 2}))
    return str(path)


@pytest.fixture
def cfg3(tmp_path):
    path = tmp_path / "gf3.json"
    path.write_text(json.dumps({"field": "gf(3)", "n": 4, "k": 2}))
    return str(path)


@pytest.fixture
def cfgq(tmp_path):
    path = tmp_path / "quat.json"
    path.write_text(json.dumps({"field": "quat(Q)", "n": 4, "k": 2}))
    return str(path)


def spread_gammas():
    return [[[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 1], [1, 0]], [[0, 1], [1, 1]]]


@pytest.fixture
def spread_file(tmp_path):
    path = tmp_path / "spread.json"
    path.write_text(json.dumps({"kind": "dual-spread", "gammas": spread_gammas()}))
    return str(path)


def test_enumerate_counts(cfg2, cfg3):
    out = run_cli("enumerate", "--config", cfg2, "--json")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["count"] == 16 and len(report["complements"]) == 16
    out3 = run_cli("enumerate", "--config", cfg3, "--json")
    assert json.loads(out3.stdout)["count"] == 81


def test_enumerate_refuses_quaternions(cfgq):
    out = run_cli("enumerate", "--config", cfgq, "--json")
    assert out.returncode == 2
    assert "finite" in out.stderr


def test_enumerate_human_output(cfg2):
    out = run_cli("enumerate", "--config", cfg2)
    assert out.returncode == 0
    assert "|S| = 16" in out.stdout


def test_classify_lines_counts(cfg2, cfg3):
    report = json.loads(run_cli("classify-lines", "--config", cfg2,
                                "--json").stdout)
    assert report["total"] == 15
    # |GL_2(GF(2))| = 6 invertible alpha, one canonical rep each
    assert report["counts"] == {"regular": 6, "cone_exact": 9,
                                "cone_nonexact": 0}
    report3 = json.loads(run_cli("classify-lines", "--config", cfg3,
                                 "--json").stdout)
    assert report3["total"] == 40
    # 48 invertible / (q-1) = 24 regular lines, 32 rank-1 / (q-1) = 16 cones
    assert report3["counts"] == {"regular": 24, "cone_exact": 16,
                                 "cone_nonexact": 0}
    assert sum(report3["counts"].values()) == report3["total"]


def test_classify_lines_asymmetric_note(tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"field": "gf(2)", "n": 4, "k": 1}))
    report = json.loads(run_cli("classify-lines", "--config", str(path),
                                "--json").stdout)
    assert report["counts"]["regular"] == 0
    assert "note" in report


def test_regulus_through_files(cfg3, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"gamma": [[0, 0], [0, 0]]}))
    b.write_text(json.dumps({"gamma": [[1, 0], [0, 1]]}))
    out = run_cli("regulus", "--through", str(a), str(b), "--config", cfg3,
                  "--json")
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["result"] == "PASS"
    assert report["regulus"]["kind"] == "regulus"
    assert len(report["regulus"]["subspaces"]) == 4
    assert report["transversals"]["kind"] == "transversals"
    assert len(report["transversals"]["subspaces"]) == 4
    assert report["w_trace_matches_z"] is True


def test_seed_reaches_the_sampled_regulus_enumerations():
    """Over Quat(Q) --seed picks the sampled members and transversals that
    regulus lists, not only the seed echoed in the report."""
    inputs = os.path.join(REPO, "tests", "golden", "inputs")
    config = os.path.join(inputs, "quat.json")

    def run(seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["regulus", "--through", os.path.join(inputs, "gamma_zero.json"),
                             os.path.join(inputs, "gamma_id.json"), "--config", config,
                             "--seed", str(seed), "--json"])
        assert code == 0
        return json.loads(out.getvalue())

    chart = chart_from_config(load_config(config))
    reg = regulus_through(chart.coord([[0, 0], [0, 0]]), chart.coord([[1, 0], [0, 1]]))
    expected = {"transversals": transversals_to_json(transversals_of(reg).lines(3)),
                "regulus": regulus_to_json(reg.members(3))}
    seeded, default = run(3), run(0)
    for key, doc in expected.items():
        assert seeded[key] == json.loads(json.dumps(doc))
        assert seeded[key] != default[key]
    assert seeded["w_trace_matches_z"] is True


def test_regulus_rejects_non_complementary(cfg3, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"gamma": [[0, 0], [0, 0]]}))
    b.write_text(json.dumps({"gamma": [[1, 0], [0, 0]]}))
    out = run_cli("regulus", "--through", str(a), str(b), "--config", cfg3,
                  "--json")
    assert out.returncode == 1
    assert json.loads(out.stdout)["result"] == "FAIL"


def test_regulus_accepts_subspace_files(cfg2, tmp_path):
    ch = symmetric_chart(GF2, 2)
    coords = ch.all_coords()
    from complaff.jsonio import subspace_to_json
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(subspace_to_json(ch.complement(coords[0]))))
    ident = ch.coord([[1, 0], [0, 1]])
    b.write_text(json.dumps(subspace_to_json(ch.complement(ident))))
    out = run_cli("regulus", "--through", str(a), str(b), "--config", cfg2,
                  "--json")
    assert out.returncode == 0


def test_reconstruct_round_trip(cfg3, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"gamma": [[0, 0], [0, 0]]}))
    b.write_text(json.dumps({"gamma": [[1, 0], [0, 1]]}))
    reg = json.loads(run_cli("regulus", "--through", str(a), str(b),
                             "--config", cfg3, "--json").stdout)
    tfile = tmp_path / "transversals.json"
    tfile.write_text(json.dumps(reg["transversals"]))   # already a valid file
    out = run_cli("reconstruct", "--transversals", str(tfile), "--config",
                  cfg3, "--json")
    assert out.returncode == 0
    rebuilt = json.loads(out.stdout)
    assert rebuilt["result"] == "PASS"
    mine = rebuilt["regulus"]["subspaces"]
    theirs = reg["regulus"]["subspaces"]
    assert sorted(json.dumps(m, sort_keys=True) for m in mine) \
        == sorted(json.dumps(m, sort_keys=True) for m in theirs)


def test_reconstruct_rejects_bad_file(cfg3, tmp_path):
    from complaff.jsonio import subspace_to_json
    GF3 = PrimeField(3)
    junk = {"kind": "transversals",
            "subspaces": [subspace_to_json(Subspace.from_rows(
                GF3, 4, [[1 if i == j else 0 for i in range(4)]]))
                for j in [0, 1, 2]]}
    tfile = tmp_path / "bad.json"
    tfile.write_text(json.dumps(junk))
    out = run_cli("reconstruct", "--transversals", str(tfile), "--config",
                  cfg3, "--json")
    assert out.returncode == 1


def test_reconstruct_fails_on_skew_lines_of_no_regulus(cfg3, tmp_path):
    """Three transversals of the standard regulus and a fourth line skew to
    all three that is no transversal: the skew pre-check passes, the
    incidence test fails."""
    rows = ([[1, 0, 0, 0], [0, 0, 1, 0]], [[0, 1, 0, 0], [0, 0, 0, 1]],
            [[1, 1, 0, 0], [0, 0, 1, 1]], [[1, 2, 0, 1], [0, 0, 1, 2]])
    tfile = tmp_path / "skew.json"
    tfile.write_text(json.dumps({"kind": "transversals", "subspaces": [
        {"ambient": 4, "rows": r} for r in rows]}))
    out = run_cli("reconstruct", "--transversals", str(tfile), "--config", cfg3)
    assert (out.returncode, out.stderr) == (1, "")
    assert len(out.stdout.splitlines()) == 1
    assert out.stdout.startswith("FAIL: the lines are not the transversals")
    out = run_cli("reconstruct", "--transversals", str(tfile), "--config", cfg3,
                  "--json")
    assert out.returncode == 1
    assert json.loads(out.stdout)["result"] == "FAIL"


def test_check_dual_spread_pass(cfg2, spread_file):
    out = run_cli("check-dual-spread", spread_file, "--config", cfg2, "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["result"] == "PASS"


def test_check_dual_spread_repeated_member_fails(cfg2, tmp_path):
    gammas = spread_gammas()
    gammas[1] = gammas[0]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"kind": "dual-spread", "gammas": gammas}))
    out = run_cli("check-dual-spread", str(path), "--config", cfg2, "--json")
    assert out.returncode == 1
    report = json.loads(out.stdout)
    assert report["violation"]["kind"] == "DS1"


def test_check_dual_spread_over_the_quaternions_reports_ds1_and_ds2(cfgq, tmp_path):
    i = ["0", "1", "0", "0"]
    j = ["0", "0", "1", "0"]
    zero, skew = [[0, 0], [0, 0]], [[i, 0], [0, j]]
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps({"kind": "dual-spread", "gammas": [zero, skew, zero]}))
    out = run_cli("check-dual-spread", str(repeated), "--config", cfgq, "--json")
    assert out.returncode == 1 and out.stderr == ""
    violation = json.loads(out.stdout)["violation"]
    assert (violation["kind"], violation["pair"]) == ("DS1", [0, 2])
    regular = tmp_path / "regular.json"
    regular.write_text(json.dumps({"kind": "dual-spread", "gammas": [zero, skew]}))
    out = run_cli("check-dual-spread", str(regular), "--config", cfgq, "--json")
    assert out.returncode == 1 and out.stderr == ""
    violation = json.loads(out.stdout)["violation"]
    # members 0 and diag(i, j) leave c_U = (0, 1) uncovered at c_W = e_1:
    # the witness is ker (1, 0, 0, 1)
    assert violation["kind"] == "DS2"
    witness = subspace_from_json(Quaternions(), violation["hyperplane"])
    assert witness == Subspace.from_rows(Quaternions(), 4, [[0, 1, 0, 0], [0, 0, 1, 0],
                                                            [1, 0, 0, -1]])


def test_check_dual_spread_missing_member_fails_ds2(cfg2, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"kind": "dual-spread",
                                "gammas": spread_gammas()[:3]}))
    out = run_cli("check-dual-spread", str(path), "--config", cfg2, "--json")
    assert out.returncode == 1
    report = json.loads(out.stdout)
    assert report["violation"]["kind"] == "DS2"
    assert "hyperplane" in report["violation"]


def test_extract_build_round_trip(cfg2, spread_file, tmp_path):
    fam_out = run_cli("extract-family", spread_file, "--index", "0",
                      "--config", cfg2, "--json")
    assert fam_out.returncode == 0
    fam_file = tmp_path / "family.json"
    fam_file.write_text(fam_out.stdout)
    built = run_cli("build-dual-spread", str(fam_file), "--config", cfg2,
                    "--json")
    assert built.returncode == 0
    spread = json.loads(built.stdout)
    assert spread["kind"] == "dual-spread"
    original = {json.dumps(g) for g in spread_gammas()}
    rebuilt = {json.dumps(g) for g in spread["gammas"]}
    assert rebuilt == original
    check = tmp_path / "rebuilt.json"
    check.write_text(built.stdout)
    again = run_cli("check-dual-spread", str(check), "--config", cfg2, "--json")
    assert again.returncode == 0


def test_build_dual_spread_rejects_bad_family(cfg2, tmp_path):
    fam = {"kind": "family",
           "entries": [{"u": [0, 0], "images": [[0, 0], [0, 0]]},
                       {"u": [1, 0], "images": [[0, 0], [0, 0]]}]}
    path = tmp_path / "bad_family.json"
    path.write_text(json.dumps(fam))
    out = run_cli("build-dual-spread", str(path), "--config", cfg2, "--json")
    assert out.returncode == 1


def test_usage_errors_exit_2(cfg2, tmp_path):
    assert run_cli("enumerate", "--json").returncode == 2          # no config
    missing = str(tmp_path / "missing.json")
    assert run_cli("enumerate", "--config", missing).returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": "gf(6)", "n": 4, "k": 2}))
    assert run_cli("enumerate", "--config", str(bad)).returncode == 2
    assert run_cli("no-such-command").returncode == 2


def test_extension_field_config(tmp_path):
    path = tmp_path / "gf4.json"
    path.write_text(json.dumps({"field": "gf(2^2; modulus=[1,1,1])",
                                "n": 2, "k": 1}))
    report = json.loads(run_cli("enumerate", "--config", str(path),
                                "--json").stdout)
    assert report["count"] == 4


def test_every_command_is_deterministic(cfg2, spread_file, tmp_path):
    a = tmp_path / "pa.json"
    b = tmp_path / "pb.json"
    a.write_text(json.dumps({"gamma": [[0, 0], [0, 0]]}))
    b.write_text(json.dumps({"gamma": [[1, 0], [0, 1]]}))
    fam_text = run_cli("extract-family", spread_file, "--config", cfg2,
                       "--json").stdout
    fam_file = tmp_path / "family.json"
    fam_file.write_text(fam_text)
    invocations = [
        ("enumerate", "--config", cfg2, "--json"),
        ("classify-lines", "--config", cfg2, "--json"),
        ("regulus", "--through", str(a), str(b), "--config", cfg2, "--json"),
        ("check-dual-spread", spread_file, "--config", cfg2, "--json"),
        ("build-dual-spread", str(fam_file), "--config", cfg2, "--json"),
        ("extract-family", spread_file, "--config", cfg2, "--json"),
    ]
    for argv in invocations:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode



def gamma_pair(field: str, entry) -> tuple:
    """regulus --through two gamma files, the first with `entry` at [0][0]."""
    zero, one = (0, 1) if field != "gf(2^2; modulus=[1,1,1])" else ([0, 0], [1, 0])
    return ("regulus", "--through",
            ("a.json", {"gamma": [[entry, zero], [zero, zero]]}),
            ("b.json", {"gamma": [[one, zero], [zero, one]]}),
            "--config", ("cfg.json", {"field": field, "n": 4, "k": 2}))


MALFORMED = {
    "non-integer-n": ("enumerate", "--config",
                      ("cfg.json", {"field": "gf(3)", "n": "abc", "k": 2})),
    "W-not-a-list": ("enumerate", "--config",
                     ("cfg.json", {"field": "gf(3)", "n": 4, "k": 2, "W": 5})),
    "family-entry-without-u": ("build-dual-spread",
                               ("family.json", {"kind": "family", "entries": [
                                   {"images": [[0, 0], [0, 0]]}]})),
    "ragged-gamma": ("check-dual-spread",
                     ("spread.json", {"kind": "dual-spread",
                                      "gammas": [[[0, 0], [0]], [[1, 0], [0, 1]]]})),
    "point-not-a-complement": ("regulus", "--through",
                               ("a.json", {"ambient": 4, "rows": [[1, 0, 0, 0]]}),
                               ("b.json", {"gamma": [[1, 0], [0, 1]]})),
    "non-integer-seed": ("enumerate", "--config",
                         ("cfg.json", {"field": "gf(2)", "n": 4, "k": 2, "seed": "abc"})),
    "list-seed": ("enumerate", "--config",
                  ("cfg.json", {"field": "gf(2)", "n": 4, "k": 2, "seed": [1]})),
    "25-digit-modulus": ("enumerate", "--config",
                         ("cfg.json", {"field": "gf(9999999999999999999999991)",
                                       "n": 4, "k": 2})),
    "quaternion-over-zero": ("regulus", "--through",
                             ("a.json", {"gamma": [[0, 0], [0, 0]]}),
                             ("b.json", {"gamma": [[1, 0], [0, 1]]}),
                             "--config",
                             ("cfg.json", {"field": "quat(Q)", "n": 4, "k": 2,
                                           "W": [[["1", "0", "0", "1/0"], 0, 0, 0],
                                                 [0, 1, 0, 0]]})),
    "index-negative": ("extract-family", "--index", "-1",
                       ("spread.json", {"kind": "dual-spread", "gammas": spread_gammas()})),
    "index-too-large": ("extract-family", "--index", "7",
                        ("spread.json", {"kind": "dual-spread", "gammas": spread_gammas()})),
    "fractional-ambient": ("regulus", "--through",
                           ("a.json", {"ambient": 4.5, "rows": [[1, 0, 1, 0], [0, 1, 0, 1]]}),
                           ("b.json", {"gamma": [[1, 0], [0, 1]]})),
    "fractional-k": ("enumerate", "--config",
                     ("cfg.json", {"field": "gf(2)", "n": 4, "k": 2.5})),
    "string-n": ("enumerate", "--config",
                 ("cfg.json", {"field": "gf(2)", "n": "4", "k": 2})),
    "boolean-seed": ("enumerate", "--config",
                     ("cfg.json", {"field": "gf(2)", "n": 4, "k": 2, "seed": True})),
    "fractional-seed": ("enumerate", "--config",
                        ("cfg.json", {"field": "gf(2)", "n": 4, "k": 2, "seed": 1.5})),
    "gf3-fractional-scalar": gamma_pair("gf(3)", 2.5),
    "gf3-boolean-scalar": gamma_pair("gf(3)", True),
    "gf3-string-scalar": gamma_pair("gf(3)", "2"),
    "gf4-fractional-boolean-component": gamma_pair("gf(2^2; modulus=[1,1,1])",
                                                   [1.9, True]),
    # json.load reads 1.0000000000000001 as the float 1.0
    "quaternion-float-component": gamma_pair("quat(Q)",
                                             [1.0000000000000001, "0", "0", "0"]),
    "quaternion-boolean-component": gamma_pair("quat(Q)", ["1", True, "0", "0"]),
    # iterating an empty JSON object as components would give zero
    "gf4-object-scalar": gamma_pair("gf(2^2; modulus=[1,1,1])", {}),
    # int() refuses a string of more than 4300 digits
    "huge-modulus-coefficient": ("enumerate", "--config",
                                 ("cfg.json", {"field": "gf(2^2; modulus=[1,1,1" + "0" * 5000
                                               + "])", "n": 4, "k": 2})),
    "huge-degree": ("enumerate", "--config",
                    ("cfg.json", {"field": "gf(2^" + "1" * 5000 + "; modulus=[1,1,1])",
                                  "n": 4, "k": 2})),
    "5000-digit-modulus-coefficient": ("enumerate", "--config",
                                       ("cfg.json", {"field": "gf(2^2; modulus=[1,1,"
                                                     + "7" * 5000 + "])", "n": 4, "k": 2})),
    # int() reads 4000 digits, and the primality test refuses the number
    "4000-digit-prime": ("enumerate", "--config",
                         ("cfg.json", {"field": "gf(" + "9" * 4000 + ")", "n": 4, "k": 2})),
    "extract-family-non-symmetric-chart": (
        "extract-family", ("spread.json", {"kind": "dual-spread", "gammas": []}),
        "--config", ("cfg.json", {"field": "gf(2)", "n": 5, "k": 2})),
    "transversals-outside-the-chart": (
        "reconstruct", "--transversals",
        ("t.json", {"kind": "transversals", "subspaces": [
            {"ambient": 4, "rows": rows}
            for rows in ([[1, 0, 0, 0], [0, 0, 1, 0]], [[1, 1, 0, 0], [0, 0, 1, 1]],
                         [[0, 1, 0, 0], [0, 0, 0, 1]])]}),
        "--config", ("cfg.json", {"field": "gf(2)", "n": 3, "k": 1})),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_exits_2_with_one_line(name, cfg2, tmp_path):
    argv = []
    for arg in MALFORMED[name]:
        if isinstance(arg, tuple):
            path = tmp_path / arg[0]
            path.write_text(json.dumps(arg[1]))
            arg = str(path)
        argv.append(arg)
    if "--config" not in argv:
        argv += ["--config", cfg2]
    out = run_cli(*argv, "--json")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("config error: ")
    assert out.stdout == ""


ADDRESS_SPACE_CAP = 1 << 30


def _capped():
    """Cap the child's address space, so unbounded work fails fast."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, hard))


@pytest.mark.parametrize("component", ["1e-10000000", "1E10000000", "-2.5e+4301"])
def test_a_quaternion_component_with_a_huge_exponent_exits_2_with_one_line(component,
                                                                           tmp_path):
    """The decoder refuses a decimal exponent past ±4300 before Fraction
    expands it to a power of ten (10^10^7 is a 33-Mbit integer), so the
    command ends at once with exit 2 and one line.  Run in a child under
    an address-space cap and a timeout, since the expansion is unbounded."""
    inputs = os.path.join(REPO, "tests", "golden", "inputs")
    with open(os.path.join(inputs, "quat_spread.json"), encoding="utf-8") as fh:
        spread = json.load(fh)
    spread["gammas"][0][0][0] = [component, "0", "0", "0"]
    path = tmp_path / "quat_spread.json"
    path.write_text(json.dumps(spread))
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-m", "complaff.cli", "check-dual-spread", str(path),
                          "--config", os.path.join(inputs, "quat.json"), "--json"],
                         capture_output=True, text=True, env=env, preexec_fn=_capped,
                         timeout=60)
    assert (out.returncode, out.stdout) == (2, "")
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("config error: bad scalar ")
    assert "exponent" in out.stderr


@pytest.mark.parametrize("name", ["5000-digit-modulus-coefficient", "4000-digit-prime",
                                  "huge-modulus-coefficient", "huge-degree"])
def test_a_long_field_spec_is_echoed_clipped(name, tmp_path):
    """The error echoes at most 80 characters of the spec and of the reason."""
    command, _, (filename, cfg) = MALFORMED[name]
    path = tmp_path / filename
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main([command, "--config", str(path)]) == 2
    line = err.getvalue()
    assert len(line.splitlines()) == 1 and len(line.encode()) <= 200
    assert line.startswith("config error: bad field spec '" + cfg["field"][:80] + "…': ")


def test_an_unparsable_long_field_spec_is_echoed_clipped():
    with pytest.raises(ConfigError) as info:
        parse_field("nonsense" * 100)
    assert str(info.value) == ("cannot parse field spec '" + "nonsense" * 10 + "…'; "
                               "expected gf(p), gf(p^k; modulus=[...]) or quat(Q)")


@pytest.mark.parametrize("which", ["config", "input"])
def test_a_file_that_is_not_utf8_exits_2_with_one_line(which, cfg2, tmp_path):
    """Config and input files are read by one reader, which refuses bytes
    that are not UTF-8 like any other unreadable file."""
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"field": "gf(2)", "n": 4, "k": 2, "note": "caf\xe9"}')
    argv = (["enumerate", "--config", str(bad)] if which == "config"
            else ["check-dual-spread", str(bad), "--config", cfg2])
    out = run_cli(*argv)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("config error: cannot read ")


OVERSIZED = {
    # 3^16 complements and (3^16 - 1)/2 lines through U
    "enumerate-gf3-n8-k4": ("enumerate", {"field": "gf(3)", "n": 8, "k": 4}),
    "classify-lines-gf3-n8-k4": ("classify-lines", {"field": "gf(3)", "n": 8, "k": 4}),
    # the default chart alone reduces a 2000 x 4000 matrix
    "check-dual-spread-gf2-n2000": ("check-dual-spread", {"field": "gf(2)", "n": 2000,
                                                          "k": 1000}),
    # Rabin's test of a dense degree-32 modulus over the largest accepted
    # prime would take seconds
    "enumerate-degree-32": ("enumerate", {
        "field": "gf(3317044064679887385961813^32; modulus=["
                 + ",".join(str(c) for c in range(2, 34)) + ",1])",
        "n": 4, "k": 2}),
    # q + 1 = 2^61 regulus members, before any member is listed
    "regulus-gf-2^61-1": ("regulus", {"field": "gf(2305843009213693951)", "n": 2, "k": 1}),
    "reconstruct-gf-2^61-1": ("reconstruct", {"field": "gf(2305843009213693951)",
                                              "n": 2, "k": 1}),
}


@pytest.mark.parametrize("name", OVERSIZED)
def test_oversized_work_is_refused_before_it_starts(name, tmp_path):
    command, cfg = OVERSIZED[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path)]
    if command == "check-dual-spread":
        spread = tmp_path / "spread.json"
        spread.write_text(json.dumps({"kind": "dual-spread", "gammas": []}))
        argv.append(str(spread))
    elif command == "regulus":
        for name, gamma in (("zero.json", [[0]]), ("one.json", [[1]])):
            (tmp_path / name).write_text(json.dumps({"gamma": gamma}))
        argv += ["--through", str(tmp_path / "zero.json"), str(tmp_path / "one.json")]
    elif command == "reconstruct":
        lines = tmp_path / "lines.json"
        lines.write_text(json.dumps({"kind": "transversals", "subspaces": [
            {"ambient": 2, "rows": [[1, 0], [0, 1]]}] * 3}))
        argv += ["--transversals", str(lines)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("config error: ") and "limit" in err.getvalue()


def test_check_dual_spread_builds_no_z_structure(cfg2, spread_file, monkeypatch):
    """A chart builds its Z-structure on first use, and the DS1/DS2 check
    never reads it."""
    built = []
    init = ZStructure.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ZStructure, "__init__", counting_init)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["check-dual-spread", spread_file, "--config", cfg2])
    monkeypatch.undo()
    assert code == 0 and out.getvalue().startswith("PASS")
    assert built == []
