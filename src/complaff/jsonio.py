"""JSON forms for scalars, subspaces, spreads and families.

Scalar encoding depends on the domain:

* prime field      -- plain int
* extension field  -- list of k ints, constant coefficient first
* quaternions      -- list of four exact fraction strings "a", "-1/2", ...
  (or ints); a plain int n reads as n in every domain

JSON goes payload to payload.  `vector_from_json` checks the JSON types
and returns a row of canonical working payloads, no ``Scalar``: it calls
``_canon`` once per value, and nothing downstream reads the value again.
The matrix, subspace and family decoders build on those rows as they are
(``from_payloads``, ``Subspace.spanned``, a family's images as a
``MatrixK``).  `vector_to_json` writes payload rows through
``domain._public``.

Subspaces are ``{"ambient": n, "rows": [[scalar, ...], ...]}``.  Dual
spread candidates are ``{"kind": "dual-spread", "gammas": [...]}`` (or
``"subspaces"``), transversal sets ``{"kind": "transversals",
"subspaces": [...]}``, families ``{"kind": "family", "entries":
[{"u": [...], "images": [[...], ...]}]}``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import ExtensionField, PrimeField, Quaternions, Scalar, ScalarDomain
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


def scalar_to_json(s: Scalar):
    return vector_to_json(s.domain, [s.raw])[0]


def scalar_from_json(domain: ScalarDomain, obj) -> Scalar:
    return Scalar(domain, vector_from_json(domain, [obj])[0])


def vector_to_json(domain: ScalarDomain, row) -> list:
    """The JSON list of a working payload row."""
    public = domain._public
    if isinstance(domain, PrimeField):
        return [public(x) for x in row]
    if isinstance(domain, ExtensionField):
        return [list(public(x)) for x in row]
    if isinstance(domain, Quaternions):
        return [[str(c) for c in public(x)] for x in row]
    raise ConfigError(f"no JSON form for scalars of {domain}")


def vector_from_json(domain: ScalarDomain, obj) -> tuple:
    """A JSON list of scalars as a row of canonical working payloads."""
    if not isinstance(obj, list):
        raise ConfigError("expected a list of scalars")
    # a GF(p^k) list of k ints is checked at C speed; any other value is
    # checked (and refused, or read) component by component
    canon = domain._canon
    ints = (int,) * domain.k if isinstance(domain, ExtensionField) else None
    return tuple([canon(tuple(x)) if type(x) is list and tuple(map(type, x)) == ints
                  else canon(x if type(x) is int else _payload_from_json(domain, x))
                  for x in obj])


def _payload_from_json(domain: ScalarDomain, obj):
    """A JSON scalar other than an int: the int components of a GF(p^k)
    element, or the four components (strings or ints) of a quaternion."""
    try:
        if type(obj) is list and isinstance(domain, ExtensionField):
            return tuple(_json_int(c, "a component") for c in obj)
        if type(obj) is list and isinstance(domain, Quaternions):
            if len(obj) != 4 or not all(type(c) in (str, int) for c in obj):
                raise ValueError("need 4 components, each a string or an integer")
            return tuple(map(Fraction, obj))
        raise ValueError("a scalar must be an integer" + (
            "" if isinstance(domain, PrimeField) else " or a list"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad scalar {obj!r} for {domain}: {exc}") from exc


def matrix_to_json(m: MatrixK):
    return [vector_to_json(m.domain, row) for row in m.payload]


def matrix_from_json(domain: ScalarDomain, obj, cols: int | None = None) -> MatrixK:
    if not isinstance(obj, list):
        raise ConfigError("expected a list of rows")
    rows = [vector_from_json(domain, row) for row in obj]
    return from_payloads(domain, rows, _built("matrix", _width, rows, cols))


def subspace_to_json(s: Subspace):
    return {"ambient": s.ambient, "rows": matrix_to_json(s.basis)}


def subspace_from_json(domain: ScalarDomain, obj) -> Subspace:
    if not isinstance(obj, dict) or "ambient" not in obj or "rows" not in obj:
        raise ConfigError('a subspace needs "ambient" and "rows"')
    ambient = int_from_json(obj, "ambient")
    if not isinstance(obj["rows"], list):
        raise ConfigError('subspace "rows" must be a list of rows')
    rows = [vector_from_json(domain, row) for row in obj["rows"]]
    _built("subspace", _width, rows, ambient)
    return Subspace.spanned(domain, ambient, rows)


def dual_spread_to_json(b: DualSpreadCandidate):
    return {"kind": "dual-spread",
            "gammas": [matrix_to_json(m.gamma) for m in b.members]}


def dual_spread_from_json(chart: AffineChart, obj) -> DualSpreadCandidate:
    if isinstance(obj, list):
        obj = {"gammas": obj}
    if not isinstance(obj, dict):
        raise ConfigError("expected a dual-spread object or a list of gammas")
    key = "gammas" if "gammas" in obj else "subspaces"
    if not isinstance(obj.get(key), list):
        raise ConfigError('a dual-spread file needs a "gammas" or "subspaces" list')
    members = []
    if key == "gammas":
        for g in obj["gammas"]:
            members.append(_built("dual-spread member", ComplementCoord, chart,
                                  matrix_from_json(chart.domain, g, cols=chart.k)))
    else:
        for s in obj["subspaces"]:
            sub = subspace_from_json(chart.domain, s)
            if sub == chart.w:
                continue             # W is implicit
            members.append(_built("dual-spread member", chart.coordinate_of, sub))
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
    return {"kind": "family",
            "entries": [{"u": vector_to_json(f.chart.domain, u),
                         "images": matrix_to_json(images)}
                        for u, images in zip(f._points, f._images)]}


def family_from_json(chart: AffineChart, obj) -> TransversalFamily:
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise ConfigError('a family file needs an "entries" list')
    dom, m = chart.domain, chart.m
    entries = []
    for rec in obj["entries"]:
        if not (isinstance(rec, dict) and "u" in rec
                and isinstance(rec.get("images"), list)):
            raise ConfigError('a family entry needs "u" and an "images" list')
        u = vector_from_json(dom, rec["u"])
        images = [vector_from_json(dom, img) for img in rec["images"]]
        if all(len(row) == m for row in images):    # else the family refuses the shape
            images = from_payloads(dom, images, m)
        entries.append((u, images))
    return _built("family", TransversalFamily, chart, entries, _canonical=True)
