import contextlib
import copy
import io
import json
import os
import random
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
    subspace_from_json,
    subspace_to_json,
    vector_from_json,
    vector_to_json,
)
from complaff.linalg import MatrixK
from complaff.projective import Subspace

from boxed_reference import (
    ref_dual_spread_from_json,
    ref_family_from_json,
    ref_subspace_from_json,
)

GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "golden", "inputs")

GF3 = PrimeField(3)
GF4 = ExtensionField(2, (1, 1, 1))
Q = Quaternions()


def test_scalar_round_trips_all_domains():
    from fractions import Fraction

    cases = [
        (GF3, GF3.scalar(2)),
        (GF4, GF4.scalar((0, 1)) + GF4.one()),
        (Q, Q.scalar((Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 5)))),
    ]
    for domain, s in cases:
        encoded = vector_to_json(domain, [s.raw])
        json.dumps(encoded)                       # must be JSON-serialisable
        assert vector_from_json(domain, encoded) == (s.raw,)


def test_quaternion_scalar_json_is_fraction_strings():
    from fractions import Fraction

    encoded = vector_to_json(Q, [Q.i.raw])
    assert encoded == [["0", "1", "0", "0"]]
    (raw,) = vector_from_json(Q, [["1/2", "0", "-1", "0"]])
    assert Scalar(Q, raw).payload == (Fraction(1, 2), Fraction(0), Fraction(-1), Fraction(0))


def test_subspace_round_trip_quaternions():
    s = Subspace.from_rows(Q, 4, [(Q.i, Q.one(), Q.zero(), Q.zero()),
                                  (Q.zero(), Q.zero(), Q.j, Q.one())])
    blob = json.dumps(subspace_to_json(s))
    assert subspace_from_json(Q, json.loads(blob)) == s


def test_matrix_round_trip():
    m = MatrixK(GF4, [[GF4.scalar((0, 1)), 0], [1, GF4.scalar((0, 1)) + 1]])
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
        vector_from_json(Q, [["x", "0", "0", "0"]])
    ch = symmetric_chart(PrimeField(2), 2)
    with pytest.raises(ConfigError):
        dual_spread_from_json(ch, {"nothing": []})


@pytest.mark.parametrize("component", [1.0000000000000001, 0.5, True, None, [1]])
def test_quaternion_components_must_be_strings_or_integers(component):
    # json.load has already rounded 1.0000000000000001 to 1.0: a float
    # component would be read as a number the file does not hold
    with pytest.raises(ConfigError, match="each a string or an integer"):
        vector_from_json(Q, [[component, "0", "0", "0"]])


def test_quaternion_components_read_exactly():
    (raw,) = vector_from_json(Q, [[1, "1.0000000000000001", "-1/3", 0]])
    assert Scalar(Q, raw).payload == (1, Fraction(10 ** 16 + 1, 10 ** 16), Fraction(-1, 3), 0)


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
    assert GF4._public(GF4._canon((1, 0))) == (1, 0)    # (1, 0) is in the table
    with pytest.raises(ConfigError, match="integer"):
        vector_from_json(GF4, [[component, 0]])
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
    public = GF4._public
    assert tuple(map(public, vector_from_json(GF4, [obj]))) == (raw,)
    assert [tuple(map(public, row)) for row in
            matrix_from_json(GF4, [[obj, 1]]).payload] == [(raw, (1, 0))]


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


# ---------------------------------------------------------------------------
# the one-call document decoder against the former row-by-row decoder
# ---------------------------------------------------------------------------

GF8 = ExtensionField(2, (1, 1, 0, 1))
DECODE_DOMAINS = [GF3, GF4, GF8, Q]


def _value(rng, domain):
    """A JSON scalar of the domain, in any of the forms the decoder reads."""
    if isinstance(domain, PrimeField) or rng.random() < 0.15:
        return rng.randint(-4, 9)                        # a bare int
    if isinstance(domain, ExtensionField):
        return rng.choice([
            [rng.randrange(2) for _ in range(domain.k)],  # the written form
            [rng.randrange(2) for _ in range(domain.k)],
            [1, 0, 1], [], [rng.randint(-3, 3)]])
    return [rng.choice(["0", "1", "-1/2", "3/7", 2, -1]) for _ in range(4)]


def _bad_value(rng, domain):
    """A JSON value that is no scalar of the domain."""
    if isinstance(domain, PrimeField):
        return rng.choice([2.5, 1.0, "1", True, None, [1]])
    if isinstance(domain, ExtensionField):
        return rng.choice([[1, True], [1.0, 0], ["1", 0], [[1], 0], "x", None, 2.5])
    return rng.choice([["x", "0", "0", "0"], [1.5, 0, 0, 0], ["1", "0", "0"],
                       [True, 0, 0, 0], ["1/0", 0, 0, 0], "1"])


def _matrix(rng, domain, rows, cols):
    return [[_value(rng, domain) for _ in range(cols)] for _ in range(rows)]


def _matrices(doc, kind):
    """The list of matrices of a document, each a list of rows."""
    if kind == "spread":
        return doc["gammas"] if isinstance(doc, dict) else doc
    if kind == "family":
        return [e["images"] for e in doc["entries"]]
    return [doc["rows"]]


FAULT_KINDS = ["value", "ragged", "width", "count", "row"]


def _break(rng, domain, doc, kind, fault) -> bool:
    """Apply one fault of the given kind to a random matrix of the document;
    False when the document has no matrix with a row left to break."""
    matrices = [g for g in _matrices(doc, kind)
                if isinstance(g, list) and g and all(type(r) is list for r in g)]
    if not matrices:
        return False
    g = rng.choice(matrices)
    if kind == "family" and fault in ("value", "ragged") and rng.random() < 0.3:
        g = [rng.choice(doc["entries"])["u"]]          # the fault goes into a u
    if fault == "value":
        row = rng.choice(g)
        row[rng.randrange(len(row))] = _bad_value(rng, domain) if row else None
    elif fault == "ragged":
        rng.choice(g).append(_value(rng, domain))
    elif fault == "width":
        for row in g:
            row.append(_value(rng, domain))
    elif fault == "count":
        if rng.random() < 0.5:
            g.pop()
        else:
            g.append([_value(rng, domain) for _ in range(len(g[0]))])
    else:
        g[rng.randrange(len(g))] = rng.choice([5, "row", None, {"u": []}])
    return True


def _document(rng, domain, kind):
    m = 2
    if kind == "spread":
        gammas = [_matrix(rng, domain, m, m) for _ in range(rng.randint(1, 5))]
        return gammas if rng.random() < 0.2 else {"kind": "dual-spread", "gammas": gammas}
    if kind == "family":
        return {"kind": "family", "entries": [
            {"u": [_value(rng, domain) for _ in range(m)],
             "images": _matrix(rng, domain, m, m)} for _ in range(rng.randint(1, 4))]}
    return {"ambient": 4, "rows": _matrix(rng, domain, rng.randint(0, 3), 4)}


def _decoded(domain, kind, doc, reference: bool):
    """What the library (or the reference) decoder makes of the document, as
    plain payload rows, or the text of its ConfigError."""
    chart = symmetric_chart(domain, 2)
    try:
        if kind == "spread":
            decode = ref_dual_spread_from_json if reference else dual_spread_from_json
            return [c.gamma.payload for c in decode(chart, doc).members]
        if kind == "family":
            decode = ref_family_from_json if reference else family_from_json
            f = decode(chart, doc)
            return f._points, [images.payload for images in f._images]
        decode = ref_subspace_from_json if reference else subspace_from_json
        return decode(domain, doc).basis.payload
    except ConfigError as exc:
        return f"config error: {exc}"


@pytest.mark.parametrize("kind", ["spread", "family", "subspace"])
@pytest.mark.parametrize("domain", DECODE_DOMAINS, ids=repr)
def test_document_decoders_match_the_row_by_row_reference(domain, kind):
    """Equal payload rows, or the same ConfigError text, as the former
    decoder: with no fault and with one; with two faults both refuse."""
    rng = random.Random(f"{domain}-{kind}")
    texts = set()
    for case in range(150):
        doc = _document(rng, domain, kind)
        faults = [fault for fault in (rng.choice(FAULT_KINDS) for _ in range(case % 3))
                  if _break(rng, domain, doc, kind, fault)]
        new = _decoded(domain, kind, copy.deepcopy(doc), reference=False)
        old = _decoded(domain, kind, copy.deepcopy(doc), reference=True)
        if len(faults) < 2:
            assert new == old, (doc, faults)
        else:
            assert isinstance(new, str) == isinstance(old, str), (doc, faults)
        if isinstance(new, str):
            texts.add(new.split(":")[1])
    assert len(texts) >= 3                   # the faults reach several checks


# ---------------------------------------------------------------------------
# every single fault of the GF(4) goldens gets the former line, byte for byte
# ---------------------------------------------------------------------------

SPREAD_FAULTS = {
    "value-bool": (lambda d: d["gammas"][1][1].__setitem__(0, [1, True]),
                   "bad scalar [1, True] for GF(2^2): a component must be an integer, not True"),
    "value-string": (lambda d: d["gammas"][1][1].__setitem__(0, "x"),
                     "bad scalar 'x' for GF(2^2): a scalar must be an integer or a list"),
    "ragged-row": (lambda d: d["gammas"][1][1].append([0, 0]), "bad matrix: ragged rows"),
    "wrong-width": (lambda d: [row.append([0, 0]) for row in d["gammas"][1]],
                    "bad matrix: rows have 3 columns, not 2"),
    "extra-row": (lambda d: d["gammas"][1].append([[0, 0], [0, 0]]),
                  "bad dual-spread member: gamma has the wrong shape for this chart"),
    "missing-row": (lambda d: d["gammas"][1].pop(),
                    "bad dual-spread member: gamma has the wrong shape for this chart"),
    "non-list-row": (lambda d: d["gammas"][1].__setitem__(0, 5), "expected a list of scalars"),
    "non-list-gamma": (lambda d: d["gammas"].__setitem__(1, 5), "expected a list of rows"),
}

FAMILY_FAULTS = {
    "value-bool": (lambda d: d["entries"][1]["images"][1].__setitem__(0, [1, True]),
                   "bad scalar [1, True] for GF(2^2): a component must be an integer, not True"),
    "value-in-u": (lambda d: d["entries"][1]["u"].__setitem__(0, [1.0, 0]),
                   "bad scalar [1.0, 0] for GF(2^2): a component must be an integer, not 1.0"),
    "ragged-row": (lambda d: d["entries"][1]["images"][1].append([0, 0]),
                   "bad family: entries must be length-m coordinate tuples"),
    "wrong-width": (lambda d: [row.append([0, 0]) for row in d["entries"][1]["images"]],
                    "bad family: entries must be length-m coordinate tuples"),
    "extra-row": (lambda d: d["entries"][1]["images"].append([[0, 0], [0, 0]]),
                  "bad family: entries must be length-m coordinate tuples"),
    "short-u": (lambda d: d["entries"][1]["u"].pop(),
                "bad family: entries must be length-m coordinate tuples"),
    "non-list-row": (lambda d: d["entries"][1]["images"].__setitem__(0, 5),
                     "expected a list of scalars"),
    "non-list-u": (lambda d: d["entries"][1].__setitem__("u", 5), "expected a list of scalars"),
}


@pytest.mark.parametrize("command", ["check-dual-spread", "extract-family"])
@pytest.mark.parametrize("fault", SPREAD_FAULTS)
def test_single_spread_faults_keep_their_line(command, fault, tmp_path):
    change, text = SPREAD_FAULTS[fault]
    doc = _golden("gf4_spread.json")
    change(doc)
    assert _check_spread(tmp_path, doc, command) == (2, f"config error: {text}\n")


@pytest.mark.parametrize("fault", FAMILY_FAULTS)
def test_single_family_faults_keep_their_line(fault, tmp_path):
    change, text = FAMILY_FAULTS[fault]
    doc = _golden("gf4_family.json")
    change(doc)
    assert _check_spread(tmp_path, doc, "build-dual-spread") == (2, f"config error: {text}\n")


def test_a_row_that_is_no_list_is_reported_before_an_earlier_bad_scalar():
    """The precedence the module docstring states: list structure, then
    scalars, then shapes, whatever member holds each fault."""
    ch = symmetric_chart(GF4, 2)
    gammas = _golden("gf4_spread.json")["gammas"]
    gammas[0][0][0] = "x"
    gammas[2][1] = 5
    with pytest.raises(ConfigError, match="^expected a list of scalars$"):
        dual_spread_from_json(ch, gammas)
    gammas[2][1] = [[0, 0]]
    with pytest.raises(ConfigError, match="^bad scalar 'x'"):
        dual_spread_from_json(ch, gammas)
