"""JSON forms for scalars, subspaces, spreads and families.

Scalar encoding depends on the domain:

* prime field      -- plain int
* extension field  -- list of k ints, constant coefficient first (the
  public view of the int code the library works on)
* quaternions      -- list of four exact fraction strings "a", "-1/2", ...
  (or ints); a decimal exponent, as in "2.5e-3", must lie within ±4300,
  the default digit limit of CPython's int strings, and is refused past
  it before ``Fraction`` expands it (``algebra._fraction``, which
  ``Quaternions._canon`` shares); a plain int n reads as n in every
  domain

JSON goes payload to payload.  Every decoder hands all the rows of its
document to one call of `_rows_from_json`, which checks the JSON types and
returns rows of canonical working payloads, no ``Scalar``: it binds
``_canon`` once, calls it once per value, and nothing downstream reads the
value again.  Over GF(p^k) C-level type passes over all values and all
components decide whether every value is a list of ints, as the encoder
writes them; only otherwise is each value checked on its own.  Each list
becomes a coefficient tuple, which ``_canon`` turns into its int code.
The matrix, subspace, spread and family decoders build on those rows as
they are (``from_payloads``, ``Subspace.spanned``, ``ComplementCoord``, a
family's images as a ``MatrixK``).  The encoders bind the domain's row
writer once per document and write payload rows through
``domain._public``; over GF(p^k) the writer binds the field's code ->
coefficient tuple table itself, once per document.  Over Quat(Q) a
component whose numerator or denominator has more digits than CPython
writes as a string (4300 by default) is refused with a ``ConfigError``.

A document with one fault is refused with the same ``ConfigError`` text
as by a decoder that reads it row by row and member by member.  With
several faults, the fault reported is the first in this order: the
layout of the document (an object, a list of matrices or of entries),
then any row that is not a list, then any value that is no scalar of the
domain, then, member after member, each matrix's width and row count,
and last a family's own checks; within each class the first in document
order.  So a row that is not a list is reported before a bad scalar of
an earlier member.

Subspaces are ``{"ambient": n, "rows": [[scalar, ...], ...]}``.  Dual
spread candidates are ``{"kind": "dual-spread", "gammas": [...]}`` (or
``"subspaces"``), transversal sets ``{"kind": "transversals",
"subspaces": [...]}``, families ``{"kind": "family", "entries":
[{"u": [...], "images": [[...], ...]}]}``.
"""

from __future__ import annotations

import json
import sys
from itertools import chain, islice, repeat

from .algebra import ExtensionField, PrimeField, Quaternions, ScalarDomain, _fraction
from .chart import AffineChart, ComplementCoord
from .dualspread import DualSpreadCandidate, TransversalFamily
from .errors import ConfigError
from .linalg import MatrixK, _width, from_payloads
from .projective import Subspace


def _built(what: str, make, *args, **kwargs):
    """make(*args, **kwargs), reporting a ValueError from it as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _read_json(path: str):
    """The JSON document in the file at `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:      # ValueError: bad JSON or UTF-8
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _json_int(value, what: str) -> int:
    """value as a JSON integer: 2.5, "2" and true are refused, not cast."""
    if type(value) is not int:
        raise ConfigError(f"{what} must be an integer, not {value!r}")
    return value


def int_from_json(obj: dict, key: str, default=None) -> int:
    """obj[key] (or the default) as a JSON integer."""
    return _json_int(obj.get(key, default), f'"{key}"')


def _row_writer(domain: ScalarDomain):
    """The function that writes a working payload row as its JSON list."""
    public = domain._public
    if isinstance(domain, PrimeField):
        return lambda row: list(map(public, row))
    if isinstance(domain, ExtensionField):
        coefficients = domain._public_t.__getitem__        # code -> tuple
        return lambda row: list(map(list, map(coefficients, row)))
    if isinstance(domain, Quaternions):
        def write(row):
            try:
                return [[str(c) for c in public(x)] for x in row]
            except ValueError as exc:       # a numerator past the int-string limit
                raise ConfigError(
                    "a quaternion component exceeds the limit of "
                    f"{sys.get_int_max_str_digits()} digits for integer strings") from exc
        return write
    raise ConfigError(f"no JSON form for scalars of {domain}")


def vector_to_json(domain: ScalarDomain, row) -> list:
    """The JSON list of a working payload row."""
    return _row_writer(domain)(row)


def vector_from_json(domain: ScalarDomain, obj) -> tuple:
    """A JSON list of scalars as a row of canonical working payloads."""
    return _rows_from_json(domain, [obj])[0]


def _rows_from_json(domain: ScalarDomain, rows: list) -> list:
    """Every row of a document, each a JSON list of scalars, as a tuple of
    canonical working payloads: one ``_canon`` call per value.

    Every row is checked to be a list before any value is read.  Over
    GF(p^k), when every value is a list of ints (one type pass over all
    values and one over all components), each is read as its tuple, as
    `_payload_from_json` would read it; otherwise every value is read on
    its own, an int as it is and anything else by `_payload_from_json`,
    which refuses it with its ``bad scalar`` line."""
    if not all(map(isinstance, rows, repeat(list))):
        raise ConfigError("expected a list of scalars")
    canon = domain._canon
    if isinstance(domain, ExtensionField):
        values = [x for row in rows for x in row]
        if (set(map(type, values)) == {list}
                and set(map(type, chain.from_iterable(values))) == {int}):
            return [tuple([canon(tuple(x)) for x in row]) for row in rows]
    return [tuple([canon(x if type(x) is int else _payload_from_json(domain, x))
                   for x in row]) for row in rows]


def _payload_from_json(domain: ScalarDomain, obj):
    """A JSON scalar other than an int: the int components of a GF(p^k)
    element, or the four components (strings or ints) of a quaternion."""
    try:
        if type(obj) is list and isinstance(domain, ExtensionField):
            return tuple(_json_int(c, "a component") for c in obj)
        if type(obj) is list and isinstance(domain, Quaternions):
            if len(obj) != 4 or not all(type(c) in (str, int) for c in obj):
                raise ValueError("need 4 components, each a string or an integer")
            return tuple(map(_fraction, obj))
        raise ValueError("a scalar must be an integer" + (
            "" if isinstance(domain, PrimeField) else " or a list"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad scalar {obj!r} for {domain}: {exc}") from exc


def matrix_to_json(m: MatrixK):
    return list(map(_row_writer(m.domain), m.payload))


def matrix_from_json(domain: ScalarDomain, obj, cols: int | None = None) -> MatrixK:
    if not isinstance(obj, list):
        raise ConfigError("expected a list of rows")
    rows = _rows_from_json(domain, obj)
    return from_payloads(domain, rows, _built("matrix", _width, rows, cols))


def subspace_to_json(s: Subspace):
    return {"ambient": s.ambient, "rows": matrix_to_json(s.basis)}


def subspace_from_json(domain: ScalarDomain, obj) -> Subspace:
    if not isinstance(obj, dict) or "ambient" not in obj or "rows" not in obj:
        raise ConfigError('a subspace needs "ambient" and "rows"')
    ambient = int_from_json(obj, "ambient")
    if not isinstance(obj["rows"], list):
        raise ConfigError('subspace "rows" must be a list of rows')
    rows = _rows_from_json(domain, obj["rows"])
    _built("subspace", _width, rows, ambient)
    return Subspace.spanned(domain, ambient, rows)


def dual_spread_to_json(b: DualSpreadCandidate):
    write = _row_writer(b.chart.domain)
    return {"kind": "dual-spread",
            "gammas": [list(map(write, m.gamma.payload)) for m in b.members]}


def dual_spread_from_json(chart: AffineChart, obj) -> DualSpreadCandidate:
    if isinstance(obj, list):
        obj = {"gammas": obj}
    if not isinstance(obj, dict):
        raise ConfigError("expected a dual-spread object or a list of gammas")
    key = "gammas" if "gammas" in obj else "subspaces"
    if not isinstance(obj.get(key), list):
        raise ConfigError('a dual-spread file needs a "gammas" or "subspaces" list')
    if key == "subspaces":
        members = []
        for s in obj["subspaces"]:
            sub = subspace_from_json(chart.domain, s)
            if sub == chart.w:
                continue             # W is implicit
            members.append(_built("dual-spread member", chart.coordinate_of, sub))
        return DualSpreadCandidate(chart, members)
    gammas, dom, k, m = obj["gammas"], chart.domain, chart.k, chart.m
    if not all(map(isinstance, gammas, repeat(list))):
        raise ConfigError("expected a list of rows")
    rows = iter(_rows_from_json(dom, list(chain.from_iterable(gammas))))
    members = []
    for g in gammas:
        gamma = list(islice(rows, len(g)))
        if len(gamma) != m or set(map(len, gamma)) != {k}:
            _built("matrix", _width, gamma, k)       # a width fault comes first
            raise ConfigError("bad dual-spread member: "
                              "gamma has the wrong shape for this chart")
        members.append(ComplementCoord(chart, from_payloads(dom, gamma, k)))
    return DualSpreadCandidate(chart, members)


def regulus_to_json(members):
    return {"kind": "regulus",
            "subspaces": [subspace_to_json(s) for s in members]}


def transversals_to_json(lines):
    return {"kind": "transversals",
            "subspaces": [subspace_to_json(t) for t in lines]}


def transversals_from_json(domain: ScalarDomain, obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("subspaces"), list):
        raise ConfigError('a transversal file needs a "subspaces" list')
    return tuple(subspace_from_json(domain, s) for s in obj["subspaces"])


def family_to_json(f: TransversalFamily):
    write = _row_writer(f.chart.domain)
    return {"kind": "family",
            "entries": [{"u": write(u), "images": list(map(write, images.payload))}
                        for u, images in zip(f._points, f._images)]}


def family_from_json(chart: AffineChart, obj) -> TransversalFamily:
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise ConfigError('a family file needs an "entries" list')
    dom, m, records = chart.domain, chart.m, obj["entries"]
    for rec in records:
        if not (isinstance(rec, dict) and "u" in rec
                and isinstance(rec.get("images"), list)):
            raise ConfigError('a family entry needs "u" and an "images" list')
    rows = iter(_rows_from_json(dom, [row for rec in records
                                      for row in (rec["u"], *rec["images"])]))
    entries = []
    for rec in records:
        u = next(rows)
        images = list(islice(rows, len(rec["images"])))
        if all(len(row) == m for row in images):    # else the family refuses the shape
            images = from_payloads(dom, images, m)
        entries.append((u, images))
    return _built("family", TransversalFamily, chart, entries, _canonical=True)
