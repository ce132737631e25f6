"""Batch command-line front end.

Exit codes: 0 = pass/success, 1 = a checked property is violated,
2 = usage or config error.  All output is deterministic for a fixed
config and seed; --json emits canonical JSON (sorted keys, no spaces).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import _projective_reps
from .chart import AffineLine, ComplementCoord
from .config import chart_from_config, field_spec_string, load_config
from .dualspread import (
    family_from_dual_spread,
    family_to_dual_spread,
    is_dual_spread,
    verify_family,
)
from .errors import ConfigError, InfiniteDomainError, ReconstructionError
from .jsonio import (
    _read_json,
    dual_spread_from_json,
    dual_spread_to_json,
    family_from_json,
    family_to_json,
    matrix_from_json,
    matrix_to_json,
    regulus_to_json,
    subspace_from_json,
    subspace_to_json,
    transversals_from_json,
    transversals_to_json,
)
from .linalg import MatrixK, from_payloads, is_invertible
from .reguli import (
    cone_decompose,
    reconstruct_from_transversals,
    regulus_through,
    transversals_of,
    w_plus_transversals,
    w_plus_z,
)

_MAX_LISTED = 10 ** 5            # complements or lines one command may list


def _emit(args, report: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        for line in human_lines:
            print(line)


def _chart(args):
    if not args.config:
        raise ConfigError("--config FILE is required for this command")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return chart_from_config(cfg), cfg


def _base_report(command: str, chart, cfg) -> dict:
    return {"command": command,
            "field": field_spec_string(chart.domain),
            "n": chart.ambient,
            "k": chart.k,
            "seed": int(cfg.get("seed", 0))}


def _fail(args, command: str, chart, cfg, exc: Exception) -> int:
    """Report a failed check by its error message; exit code 1."""
    report = _base_report(command, chart, cfg)
    report["result"] = "FAIL"
    report["error"] = str(exc)
    _emit(args, report, [f"FAIL: {exc}"])
    return 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    chart, cfg = _chart(args)
    if not chart.domain.is_finite:
        raise InfiniteDomainError(
            "the complements of W over an infinite field cannot be listed; "
            "enumerate needs a finite field")
    q, mk = chart.domain.order, chart.m * chart.k
    if q ** mk > _MAX_LISTED:
        raise ConfigError(f"{q}^{mk} complements exceed the limit {_MAX_LISTED}")
    coords = chart.all_coords()
    report = _base_report("enumerate", chart, cfg)
    report["chart"] = {"W": subspace_to_json(chart.w),
                       "U": subspace_to_json(chart.u),
                       "basis": matrix_to_json(chart.b_matrix)}
    report["count"] = len(coords)
    report["complements"] = [{"gamma": matrix_to_json(c.gamma),
                              "subspace": subspace_to_json(c.subspace())}
                             for c in coords]
    lines = [f"|S| = {len(coords)} complements of W "
             f"(field {report['field']}, n={chart.ambient}, k={chart.k})"]
    lines += [f"  gamma = {matrix_to_json(c.gamma)}" for c in coords]
    _emit(args, report, lines)
    return 0


def cmd_classify_lines(args) -> int:
    chart, cfg = _chart(args)
    if not chart.domain.is_finite:
        raise InfiniteDomainError("line classification needs a finite field")
    q, mk = chart.domain.order, chart.m * chart.k
    if (q ** mk - 1) // (q - 1) > _MAX_LISTED:
        raise ConfigError(f"({q}^{mk}-1)/({q}-1) lines exceed the limit {_MAX_LISTED}")
    counts = {"regular": 0, "cone_exact": 0, "cone_nonexact": 0}
    entries = []
    # nonzero alpha up to left scaling: first nonzero entry 1
    for flat in _projective_reps(chart.domain, mk):
        alpha = from_payloads(chart.domain, [flat[i * chart.k:(i + 1) * chart.k]
                                             for i in range(chart.m)], chart.k)
        if chart.is_symmetric and is_invertible(alpha):
            cls, kernel_dim, vertex_dim = "regular", 0, 0
        else:
            cone = cone_decompose(AffineLine(
                chart, alpha, MatrixK.zero(chart.domain, chart.m, chart.k)))
            cls = "cone_exact" if cone.exact else "cone_nonexact"
            kernel_dim, vertex_dim = cone.kernel.dim, cone.vertex.dim
        counts[cls] += 1
        entries.append({"alpha": matrix_to_json(alpha), "class": cls,
                        "kernel_dim": kernel_dim, "vertex_dim": vertex_dim})
    report = _base_report("classify-lines", chart, cfg)
    report["total"] = len(entries)
    report["counts"] = counts
    report["lines"] = entries
    if not chart.is_symmetric:
        report["note"] = ("dim W != dim U: no line is regular in a "
                          "non-symmetric chart")
    lines = [f"{len(entries)} lines through U: "
             f"{counts['regular']} regular, {counts['cone_exact']} exact cones, "
             f"{counts['cone_nonexact']} non-exact cones"]
    if "note" in report:
        lines.append(f"note: {report['note']}")
    _emit(args, report, lines)
    return 0


def _coord_from_file(chart, path: str) -> ComplementCoord:
    obj = _read_json(path)
    if isinstance(obj, dict) and "gamma" in obj:
        gamma = matrix_from_json(chart.domain, obj["gamma"], cols=chart.k)
        if gamma.rows != chart.m:
            raise ConfigError(f"{path}: gamma needs {chart.m} rows")
        return ComplementCoord(chart, gamma)
    if isinstance(obj, dict) and "rows" in obj:
        sub = subspace_from_json(chart.domain, obj)
        try:
            return chart.coordinate_of(sub)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f'{path}: expected {{"gamma": ...}} or a subspace object')


def _bound_regulus(chart, z_points: bool) -> None:
    """Refuse, before listing, a regulus of more than _MAX_LISTED members
    (q + 1) or, when `z_points`, a U of more Z-points ((q^m-1)/(q-1))."""
    if not chart.domain.is_finite:
        return                       # infinite families are seeded samples
    q, m = chart.domain.order, chart.m
    if q + 1 > _MAX_LISTED:
        raise ConfigError(f"{q}+1 regulus members exceed the limit {_MAX_LISTED}")
    if z_points and (q ** m - 1) // (q - 1) > _MAX_LISTED:
        raise ConfigError(f"({q}^{m}-1)/({q}-1) Z-points of U exceed the limit "
                          f"{_MAX_LISTED}")


def cmd_regulus(args) -> int:
    chart, cfg = _chart(args)
    _bound_regulus(chart, z_points=True)
    c1 = _coord_from_file(chart, args.through[0])
    c2 = _coord_from_file(chart, args.through[1])
    try:
        reg = regulus_through(c1, c2)
    except ValueError as exc:
        return _fail(args, "regulus", chart, cfg, exc)
    # both traces take the same seed: Sampled families compare in order
    seed = int(cfg.get("seed", 0))
    members = reg.members(seed)
    ts = transversals_of(reg).lines(seed)
    trace_ok = w_plus_transversals(reg, seed) == w_plus_z(chart, seed)
    report = _base_report("regulus", chart, cfg)
    report["result"] = "PASS"
    report["alpha"] = matrix_to_json(reg.alpha)
    report["beta"] = matrix_to_json(reg.beta)
    report["regulus"] = regulus_to_json(members)
    report["transversals"] = transversals_to_json(ts)
    report["w_trace_matches_z"] = trace_ok
    _emit(args, report, [
        f"regulus with {len(members)} members and {len(ts)} transversals",
        f"W+T trace equals W+Z(U): {trace_ok}"])
    return 0


def cmd_reconstruct(args) -> int:
    chart, cfg = _chart(args)
    _bound_regulus(chart, z_points=False)
    lines = transversals_from_json(chart.domain, _read_json(args.transversals))
    for line in lines:
        if line.ambient != chart.ambient:
            raise ConfigError(f"{args.transversals}: a line of K^{line.ambient} "
                              f"in a chart of K^{chart.ambient}")
    try:
        members = reconstruct_from_transversals(lines)
    except ReconstructionError as exc:
        return _fail(args, "reconstruct", chart, cfg, exc)
    report = _base_report("reconstruct", chart, cfg)
    report["result"] = "PASS"
    report["regulus"] = regulus_to_json(members)
    _emit(args, report, [f"reconstructed a regulus with {len(members)} members"])
    return 0


def cmd_check_dual_spread(args) -> int:
    chart, cfg = _chart(args)
    cand = dual_spread_from_json(chart, _read_json(args.file))
    result = is_dual_spread(cand)
    report = _base_report("check-dual-spread", chart, cfg)
    report["members"] = len(cand.members)
    if result.ok:
        report["result"] = "PASS"
        _emit(args, report, [f"PASS: {len(cand.members)} members plus W form "
                             f"a dual spread"])
        return 0
    v = result.violation
    report["result"] = "FAIL"
    report["violation"] = {"kind": v.kind, "detail": v.detail}
    if v.pair is not None:
        report["violation"]["pair"] = list(v.pair)
    if v.hyperplane is not None:
        report["violation"]["hyperplane"] = subspace_to_json(v.hyperplane)
    _emit(args, report, [f"FAIL ({v.kind}): {v.detail}"])
    return 1


def cmd_build_dual_spread(args) -> int:
    chart, cfg = _chart(args)
    family = family_from_json(chart, _read_json(args.family))
    result = verify_family(family)
    if not result.ok:
        v = result.violation
        report = _base_report("build-dual-spread", chart, cfg)
        report["result"] = "FAIL"
        report["violation"] = {"kind": v.kind, "detail": v.detail}
        _emit(args, report, [f"FAIL ({v.kind}): {v.detail}"])
        return 1
    spread = family_to_dual_spread(family)
    print(json.dumps(dual_spread_to_json(spread), sort_keys=True,
                     separators=(",", ":")))
    return 0


def cmd_extract_family(args) -> int:
    chart, cfg = _chart(args)
    if not chart.is_symmetric:
        raise ConfigError("transversal families live in symmetric charts")
    if not 0 <= args.index < chart.m:
        raise ConfigError(f"--index must lie in 0..{chart.m - 1}, not {args.index}")
    cand = dual_spread_from_json(chart, _read_json(args.file))
    try:
        family = family_from_dual_spread(cand, args.index)
    except ValueError as exc:
        return _fail(args, "extract-family", chart, cfg, exc)
    print(json.dumps(family_to_json(family), sort_keys=True,
                     separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config with field/n/k and bases")
    common.add_argument("--json", action="store_true",
                        help="emit one canonical JSON document")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for sampled enumerations (default 0)")

    parser = argparse.ArgumentParser(
        prog="complaff",
        description="exact affine geometry on the complements of a subspace")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list every complement of W with its gamma")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify-lines", parents=[common],
                       help="classify the lines through U")
    p.set_defaults(func=cmd_classify_lines)

    p = sub.add_parser("regulus", parents=[common],
                       help="the regulus through two complements")
    p.add_argument("--through", nargs=2, metavar=("A", "B"), required=True,
                   help="two JSON files, each a gamma or a subspace")
    p.set_defaults(func=cmd_regulus)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="rebuild a regulus from its transversal set")
    p.add_argument("--transversals", required=True, metavar="FILE")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("check-dual-spread", parents=[common],
                       help="test DS1/DS2 for a candidate file")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(func=cmd_check_dual_spread)

    p = sub.add_parser("build-dual-spread", parents=[common],
                       help="turn a verified family file into a dual spread")
    p.add_argument("family", metavar="FAMILY")
    p.set_defaults(func=cmd_build_dual_spread)

    p = sub.add_parser("extract-family", parents=[common],
                       help="tabulate the family of a dual spread")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--index", type=int, default=0,
                   help="coordinate index i0 (default 0)")
    p.set_defaults(func=cmd_extract_family)

    return parser


# parse_args leaves the parser as it was, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfiniteDomainError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
