import contextlib
import io
import json
import os
from fractions import Fraction

import pytest

from complaff import chart as chart_module
from complaff import cli, linalg
from complaff.algebra import ExtensionField, PrimeField, Quaternions, Scalar
from complaff.chart import symmetric_chart
from complaff.config import chart_from_config
from complaff.dualspread import (
    TransversalFamily,
    family_from_dual_spread,
    family_to_dual_spread,
)
from complaff.errors import ConfigError
from complaff.jsonio import (
    dual_spread_from_json,
    dual_spread_to_json,
    family_from_json,
    family_to_json,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    scalar_to_json,
    subspace_from_json,
    subspace_to_json,
)
from complaff.linalg import MatrixK
from complaff.projective import Subspace

GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "golden", "inputs")

GF3 = PrimeField(3)
GF4 = ExtensionField(2, (1, 1, 1))
Q = Quaternions()


def test_scalar_round_trips_all_domains():
    from fractions import Fraction

    cases = [
        (GF3, GF3.scalar(2)),
        (GF4, GF4.generator() + GF4.one()),
        (Q, Q.scalar((Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 5)))),
    ]
    for domain, s in cases:
        encoded = scalar_to_json(s)
        json.dumps(encoded)                       # must be JSON-serialisable
        assert scalar_from_json(domain, encoded) == s


def test_quaternion_scalar_json_is_fraction_strings():
    from fractions import Fraction

    encoded = scalar_to_json(Q.i)
    assert encoded == ["0", "1", "0", "0"]
    s = scalar_from_json(Q, ["1/2", "0", "-1", "0"])
    assert s.payload == (Fraction(1, 2), Fraction(0), Fraction(-1), Fraction(0))


def test_subspace_round_trip_quaternions():
    s = Subspace.from_rows(Q, 4, [(Q.i, Q.one(), Q.zero(), Q.zero()),
                                  (Q.zero(), Q.zero(), Q.j, Q.one())])
    blob = json.dumps(subspace_to_json(s))
    assert subspace_from_json(Q, json.loads(blob)) == s


def test_matrix_round_trip():
    m = MatrixK(GF4, [[GF4.generator(), 0], [1, GF4.generator() + 1]])
    assert matrix_from_json(GF4, matrix_to_json(m)) == m


def test_dual_spread_file_accepts_subspaces_and_gammas():
    ch = symmetric_chart(PrimeField(2), 2)
    gammas = [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]
    by_gamma = dual_spread_from_json(ch, {"gammas": gammas})
    subs = [subspace_to_json(m.subspace()) for m in by_gamma.members]
    by_subspace = dual_spread_from_json(ch, {"subspaces": subs})
    assert [m.gamma for m in by_gamma.members] \
        == [m.gamma for m in by_subspace.members]
    # a bare list is read as gammas; W among the subspaces is dropped
    assert [m.gamma for m in dual_spread_from_json(ch, gammas).members] \
        == [m.gamma for m in by_gamma.members]
    with_w = {"subspaces": [subspace_to_json(ch.w)] + subs}
    assert len(dual_spread_from_json(ch, with_w).members) == 2
    assert dual_spread_to_json(by_gamma)["kind"] == "dual-spread"


def test_family_file_round_trip():
    ch = symmetric_chart(PrimeField(2), 2)
    fam = TransversalFamily(ch, [((0, 0), ((0, 0), (0, 0))),
                                 ((1, 0), ((1, 0), (0, 1)))])
    blob = json.dumps(family_to_json(fam))
    again = family_from_json(ch, json.loads(blob))
    assert again.entries == fam.entries


def test_bad_payloads_raise_config_error():
    with pytest.raises(ConfigError):
        subspace_from_json(GF3, {"rows": [[1]]})
    with pytest.raises(ConfigError):
        scalar_from_json(Q, ["x", "0", "0", "0"])
    ch = symmetric_chart(PrimeField(2), 2)
    with pytest.raises(ConfigError):
        dual_spread_from_json(ch, {"nothing": []})


@pytest.mark.parametrize("component", [1.0000000000000001, 0.5, True, None, [1]])
def test_quaternion_components_must_be_strings_or_integers(component):
    # json.load has already rounded 1.0000000000000001 to 1.0: a float
    # component would be read as a number the file does not hold
    with pytest.raises(ConfigError, match="each a string or an integer"):
        scalar_from_json(Q, [component, "0", "0", "0"])


def test_quaternion_components_read_exactly():
    s = scalar_from_json(Q, [1, "1.0000000000000001", "-1/3", 0])
    assert s.payload == (1, Fraction(10 ** 16 + 1, 10 ** 16), Fraction(-1, 3), 0)


def _golden(name):
    with open(os.path.join(GOLDEN_INPUTS, name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("field", ["gf4", "quat"])
def test_json_and_family_paths_build_no_scalar(field, monkeypatch):
    """Files are decoded to payload rows, families are held as payload rows
    and encoded from them: no Scalar is built from file to file."""
    chart = chart_from_config(_golden(f"{field}.json"))
    spread_doc, family_doc = _golden(f"{field}_spread.json"), _golden(f"{field}_family.json")
    built = []
    init = Scalar.__init__

    def counting_init(self, domain, raw):
        built.append(raw)
        init(self, domain, raw)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    spread = dual_spread_from_json(chart, spread_doc)
    family = family_from_json(chart, family_doc)
    extracted = family_from_dual_spread(spread, 0)
    rebuilt = family_to_dual_spread(family)
    docs = [family_to_json(extracted), family_to_json(family),
            dual_spread_to_json(rebuilt), dual_spread_to_json(spread)]
    monkeypatch.undo()
    assert built == []
    assert docs[2]["gammas"] == [m["images"] for m in docs[1]["entries"]]
    assert len(spread.members) == len(extracted.entries) > 1


@pytest.mark.parametrize("component", [True, 1.0], ids=["true", "1.0"])
def test_gf4_entries_equal_to_a_canonical_payload_are_still_refused(component, tmp_path):
    """A dict finds the canonical (1, 0) under (True, 0) or (1.0, 0), so
    the JSON types must be checked before _canon reads its table."""
    assert GF4._canon((1, 0)) == (1, 0)                 # (1, 0) is in the table
    with pytest.raises(ConfigError, match="integer"):
        scalar_from_json(GF4, [component, 0])
    doc = _golden("gf4_spread.json")
    doc["gammas"][1][1][0] = [component, 0]
    spread = tmp_path / "spread.json"
    spread.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        code = cli.main(["check-dual-spread", str(spread), "--config",
                         os.path.join(GOLDEN_INPUTS, "gf4.json")])
    assert code == 2 and out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("config error: ")


def _scalar_count(doc) -> int:
    """The GF(p^k) scalars of a spread or family document: its lists of ints."""
    if isinstance(doc, dict):
        return sum(_scalar_count(v) for v in doc.values())
    if isinstance(doc, list):
        if doc and all(type(x) is int for x in doc):
            return 1
        return sum(_scalar_count(x) for x in doc)
    return 0


def _counting(monkeypatch):
    """Record every ``ExtensionField._canon`` and ``payload_of`` argument."""
    canon, unwrapped = [], []
    real_canon, real_payload_of = ExtensionField._canon, linalg.payload_of
    monkeypatch.setattr(ExtensionField, "_canon",
                        lambda self, x: canon.append(x) or real_canon(self, x))
    for module in (linalg, chart_module):
        monkeypatch.setattr(module, "payload_of",
                            lambda d, x: unwrapped.append(x) or real_payload_of(d, x))
    return canon, unwrapped


def test_gf4_files_are_canonicalized_once_per_value(monkeypatch):
    """Decoding reads each scalar of a file through _canon once, and the
    conversions between spreads and families read none again."""
    chart = chart_from_config(_golden("gf4.json"))
    spread_doc, family_doc = _golden("gf4_spread.json"), _golden("gf4_family.json")
    values = _scalar_count(spread_doc), _scalar_count(family_doc)
    assert values == (64, 96)
    canon, unwrapped = _counting(monkeypatch)
    spread = dual_spread_from_json(chart, spread_doc)
    assert len(canon) == values[0]
    family = family_from_json(chart, family_doc)
    assert len(canon) == sum(values)
    family_from_dual_spread(spread, 0)
    family_to_dual_spread(family)
    monkeypatch.undo()
    assert len(canon) == sum(values) and unwrapped == []


def test_extract_family_reads_its_points_from_the_decoded_spread(monkeypatch):
    spread = os.path.join(GOLDEN_INPUTS, "gf4_spread.json")
    canon, unwrapped = _counting(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["extract-family", spread, "--index", "0",
                         "--config", os.path.join(GOLDEN_INPUTS, "gf4.json")])
    monkeypatch.undo()
    assert code == 0
    assert len(canon) == _scalar_count(_golden("gf4_spread.json"))
    assert unwrapped == []


@pytest.mark.parametrize("obj, raw", [([1, 0, 1], (0, 1)), ([], (0, 0)), (3, (1, 0))],
                         ids=["x^2+1", "empty", "bare-3"])
def test_gf4_scalars_of_another_form_read_as_before(obj, raw):
    """1 + x^2 reduces modulo x^2 + x + 1 to x, [] is 0 and 3 is 1."""
    assert scalar_from_json(GF4, obj).raw == raw
    assert matrix_from_json(GF4, [[obj, 1]]).payload == ((raw, (1, 0)),)


def _check_spread(tmp_path, doc, command="check-dual-spread"):
    """The exit code and stderr of the command on the document over GF(4)."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), "--config",
                         os.path.join(GOLDEN_INPUTS, "gf4.json")])
    return code, err.getvalue()


@pytest.mark.parametrize("component, text", [
    ([1, True], "[1, True] for GF(2^2): a component must be an integer, not True"),
    ([1.0, 0], "[1.0, 0] for GF(2^2): a component must be an integer, not 1.0"),
    (["1", 0], "['1', 0] for GF(2^2): a component must be an integer, not '1'"),
    ([[1], 0], "[[1], 0] for GF(2^2): a component must be an integer, not [1]"),
], ids=["true", "float", "string", "list"])
def test_gf4_components_of_a_wrong_type_are_refused_with_one_line(component, text, tmp_path):
    doc = _golden("gf4_spread.json")
    doc["gammas"][1][1][0] = component
    assert _check_spread(tmp_path, doc) == (2, f"config error: bad scalar {text}\n")


def test_rows_of_a_wrong_width_are_refused_as_before(tmp_path):
    doc = _golden("gf4_spread.json")
    doc["gammas"][1][1].append([0, 0])
    assert _check_spread(tmp_path, doc) == (2, "config error: bad matrix: ragged rows\n")
    zero = [0, 0]
    for rows, text in [([[[1, 0], zero, zero]], "rows have 3 columns, not 4"),
                       ([[[1, 0], zero, zero, zero], [[1, 0]]], "ragged rows")]:
        doc = {"subspaces": [{"ambient": 4, "rows": rows}]}
        assert _check_spread(tmp_path, doc) == (2, f"config error: bad subspace: {text}\n")
    doc = _golden("gf4_family.json")
    doc["entries"][1]["images"][0].append(zero)
    assert _check_spread(tmp_path, doc, "build-dual-spread") == (
        2, "config error: bad family: entries must be length-m coordinate tuples\n")
