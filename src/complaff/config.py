"""Field-spec grammar and chart construction from a config mapping.

Field specs:  ``gf(p)``, ``gf(p^k; modulus=[c_0,...,c_k])``, ``quat(Q)``.
Config keys:  "field" (spec string), "n", "k", optional "W" and "U"
(row lists, used both as the subspaces and as their working bases),
optional "seed".  Defaults: W spanned by e_1..e_k, U by e_{k+1}..e_n.
"""

from __future__ import annotations

import re

from .algebra import ExtensionField, PrimeField, Quaternions, ScalarDomain
from .chart import AffineChart
from .errors import ConfigError
from .jsonio import _read_json, int_from_json, matrix_from_json
from .linalg import from_payloads
from .projective import Subspace

_GF_PRIME = re.compile(r"gf\(\s*(\d+)\s*\)\Z")
_GF_EXT = re.compile(
    r"gf\(\s*(\d+)\s*\^\s*(\d+)\s*;\s*modulus\s*=\s*\[([0-9,\s-]*)\]\s*\)\Z")
_QUAT = re.compile(r"quat\(\s*q\s*\)\Z")   # matched against lowercased input
_MAX_N = 64                                 # the largest ambient dimension n
_MAX_DEGREE = 16                            # the largest extension degree k
_ECHO = 80                                  # the characters of a text an error echoes


def _clip(text: str, limit: int = _ECHO) -> str:
    """text cut to its first `limit` characters, marked with … when cut."""
    return text if len(text) <= limit else text[:limit] + "…"


def _spec_int(text: str) -> int:
    """int(text), or a ValueError that echoes at most 20 characters of
    text, however long the digit string that int() refused."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"cannot read {_clip(text.strip(), 20)!r} as an integer") from None


def _bad_spec(spec: str, exc: ValueError) -> ConfigError:
    return ConfigError(f"bad field spec {_clip(spec)!r}: {_clip(str(exc))}")


def parse_field(spec: str) -> ScalarDomain:
    """The domain a field spec names.  A ConfigError echoes at most _ECHO
    characters of the spec and of the reason, so its line stays short."""
    text = spec.strip().lower()
    m = _GF_PRIME.match(text)
    if m:
        try:
            return PrimeField(_spec_int(m.group(1)))
        except ValueError as exc:
            raise _bad_spec(spec, exc) from exc
    m = _GF_EXT.match(text)
    if m:
        try:
            p, k = _spec_int(m.group(1)), _spec_int(m.group(2))
            coeffs = [_spec_int(c) for c in m.group(3).split(",") if c.strip()]
            # Rabin's test costs about k^3 log p: refuse a large k before it
            if k > _MAX_DEGREE:
                raise ValueError(f"degree k = {k} exceeds the limit of {_MAX_DEGREE}")
            if len(coeffs) != k + 1:
                raise ValueError(f"modulus needs {k + 1} coefficients c_0..c_k")
            return ExtensionField(p, coeffs)
        except ValueError as exc:
            raise _bad_spec(spec, exc) from exc
    if _QUAT.match(text):
        return Quaternions()
    raise ConfigError(f"cannot parse field spec {_clip(spec)!r}; expected gf(p), "
                      f"gf(p^k; modulus=[...]) or quat(Q)")


def field_spec_string(domain: ScalarDomain) -> str:
    if isinstance(domain, PrimeField):
        return f"gf({domain.p})"
    if isinstance(domain, ExtensionField):
        mods = ",".join(str(c) for c in domain.modulus)
        return f"gf({domain.p}^{domain.k}; modulus=[{mods}])"
    if isinstance(domain, Quaternions):
        return "quat(Q)"
    raise ConfigError(f"{domain} has no field spec")


def load_config(path: str) -> dict:
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def chart_from_config(cfg: dict) -> AffineChart:
    for key in ("field", "n", "k"):
        if key not in cfg:
            raise ConfigError(f'config is missing "{key}"')
    domain = parse_field(str(cfg["field"]))
    n, k = int_from_json(cfg, "n"), int_from_json(cfg, "k")
    int_from_json(cfg, "seed", 0)
    if not 0 < k < n:
        raise ConfigError("need 0 < k < n (trivial charts are excluded)")
    if n > _MAX_N:
        raise ConfigError(f"n = {n} exceeds the limit of {_MAX_N}")
    for key in ("W", "U"):
        if key in cfg and not isinstance(cfg[key], list):
            raise ConfigError(f'"{key}" must be a list of rows')
    try:
        full = Subspace.full(domain, n)
        w_rows = None
        if "W" in cfg:
            w_rows = matrix_from_json(domain, cfg["W"], cols=n)
            w = Subspace.spanned(domain, n, w_rows.payload)
        else:                        # e_1..e_k are their own echelon basis
            w = Subspace(domain, n, from_payloads(domain, full.basis.payload[:k], n))
        if w.dim != k:
            raise ConfigError(f"W has dimension {w.dim}, expected {k}")
        u = b_rows = None
        if "U" in cfg:
            b_rows = matrix_from_json(domain, cfg["U"], cols=n)
            u = Subspace.spanned(domain, n, b_rows.payload)
            if u.dim != n - k:
                raise ConfigError(f"U has dimension {u.dim}, expected {n - k}")
        return AffineChart(domain, n, w, u, b=b_rows, w_basis=w_rows, space=full)
    except ValueError as exc:             # a ConfigError keeps its message
        raise ConfigError(str(exc)) from exc
