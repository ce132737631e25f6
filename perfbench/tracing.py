"""Per-layer measurements for the traced run.

Two instruments, each used on its own pass over the same job list:

* ``SpanTracer`` wraps the public functions of each layer in timing
  spans (name, start, end, parent span, job id).  A function is patched
  in every module namespace that binds it and a method on its class, so
  calls between layers are caught.  Spans stay in memory until the
  caller writes them out.  A span's self time is its duration minus
  that of its direct children.
* ``cProfile`` gives the algebra layer, whose scalar operations are far
  too many for span wrappers: its self time grouped by source module
  and exact call counts.
"""

from __future__ import annotations

import cProfile
import gzip
import importlib
import io
import json
import pstats
import sys
import time

# layer -> public functions and methods wrapped in spans.  Helpers that
# are not listed (vector arithmetic, MatrixK construction, scalar
# operations) count in the self time of the listed caller.
SPAN_TARGETS = {
    "linalg": ["rref", "rank", "row_space", "kernel", "inverse", "is_invertible",
               "solve", "apply", "stack", "MatrixK.__mul__", "MatrixK.__add__",
               "MatrixK.__sub__", "MatrixK.scale_left"],
    "projective": ["Subspace.from_rows", "Subspace.__and__", "Subspace.__add__",
                   "Subspace.contains", "is_complement", "all_complements",
                   "hyperplane_forms", "hyperplanes", "hyperplanes_not_containing",
                   "ZStructure.__init__", "ZStructure.coords_of",
                   "ZStructure.from_coords", "ZStructure.zspan_contains",
                   "ZStructure.point_in_projective_z", "ZStructure.z_point_reps",
                   "ZStructure.z_point_samples", "ZStructure.maximal_central_subspace",
                   "ZStructure.central_complement"],
    "chart": ["AffineChart.__init__", "AffineChart.coords_split",
              "AffineChart.from_split", "AffineChart.complement",
              "AffineChart.coordinate_of", "AffineChart.all_coords",
              "symmetric_chart", "AffineLine.points", "AffineLine.parameter_of",
              "line_through", "are_complementary", "split_scalar_central",
              "charts_equal"],
    "reguli": ["Regulus.__init__", "Regulus.members", "Regulus.contains",
               "TransversalSet.lines", "TransversalSet.contains",
               "w_plus_transversals", "w_plus_z", "regular_line_regulus",
               "regulus_through", "reconstruct_from_transversals", "cone_decompose"],
    "dualspread": ["family_to_coord", "coord_to_family",
                   "DualSpreadCandidate.subspaces", "check_pairwise_regular",
                   "is_dual_spread", "family_to_dual_spread", "verify_family",
                   "family_from_dual_spread", "TransversalFamily.__init__"],
    "config": ["load_config", "parse_field", "chart_from_config",
               "field_spec_string"],
    "jsonio": ["vector_to_json", "vector_from_json", "matrix_to_json",
               "matrix_from_json", "subspace_to_json", "subspace_from_json",
               "dual_spread_to_json", "dual_spread_from_json", "regulus_to_json",
               "transversals_to_json", "transversals_from_json", "family_to_json",
               "family_from_json"],
    "cli": ["main"],
}

CHECKS = ("dualspread.is_dual_spread", "dualspread.verify_family")

# name -> (unit, better); the order is the order of the printed metrics
PER_LAYER = {
    "algebra.self_share": ("ratio", "lower"),
    "algebra.payload_share": ("ratio", "higher"),
    "algebra.scalar_objects": ("count", "lower"),
    "algebra.coerce_calls": ("count", "lower"),
    "algebra.payload_mul_calls": ("count", "lower"),
    "algebra.poly_divmod_calls": ("count", "lower"),
    "linalg.rref_calls": ("count", "lower"),
    "linalg.rref_us": ("us", "lower"),
    "linalg.self_s": ("s", "lower"),
    "linalg.matrix_builds": ("count", "lower"),
    "projective.meet_calls": ("count", "lower"),
    "projective.join_calls": ("count", "lower"),
    "projective.contains_calls": ("count", "lower"),
    "projective.self_s": ("s", "lower"),
    "projective.hyperplanes_enumerated": ("count", "lower"),
    "projective.hyperplane_enum_s": ("s", "lower"),
    "projective.zstructure_calls": ("count", "lower"),
    "projective.zstructure_s": ("s", "lower"),
    "dualspread.contains_per_check": ("contains/check", "lower"),
    "dualspread.ds1_s": ("s", "lower"),
    "dualspread.ds2_s": ("s", "lower"),
    "dualspread.verify_family_s": ("s", "lower"),
    "dualspread.checks": ("count", "lower"),
    "dualspread.failed_checks": ("count", "lower"),
    "chart.coordinate_of_calls": ("count", "lower"),
    "chart.coordinate_of_us": ("us", "lower"),
    "chart.complement_calls": ("count", "lower"),
    "chart.self_s": ("s", "lower"),
    "chart.charts_built": ("count", "lower"),
    "chart.chart_build_s": ("s", "lower"),
    "config.chart_from_config_s": ("s", "lower"),
    "reguli.regulus_through_s": ("s", "lower"),
    "reguli.reconstruct_calls": ("count", "lower"),
    "reguli.reconstruct_s": ("s", "lower"),
    "reguli.cone_decompose_calls": ("count", "lower"),
    "reguli.cone_decompose_s": ("s", "lower"),
    "reguli.transversal_lines": ("count", "lower"),
    "reguli.self_s": ("s", "lower"),
    "cli.commands": ("count", "lower"),
    "cli.main_s": ("s", "lower"),
    "jsonio.decode_s": ("s", "lower"),
    "jsonio.encode_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class SpanTracer:
    """Installs span wrappers, records spans in memory, removes them."""

    def __init__(self, extra_namespaces=()):
        self.names: list[str] = []
        self.spans: list = []       # (name id, start, end, parent index, job)
        self.job = -1
        self.hyperplanes = 0        # hyperplanes returned by hyperplanes()
        self.transversal_lines = 0  # lines returned by TransversalSet.lines()
        self.failed_checks = 0
        self._stack: list[int] = []
        self._undo: list = []
        self._extra = tuple(extra_namespaces)

    def _wrap(self, name, f, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf()
            try:
                out = f(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.job)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _on_result(self, name):
        if name == "projective.hyperplanes":
            def count(out):
                self.hyperplanes += len(out)
        elif name == "reguli.TransversalSet.lines":
            def count(out):
                self.transversal_lines += len(out)
        elif name in CHECKS:
            def count(out):
                self.failed_checks += not out.ok
        else:
            return None
        return count

    def install(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "complaff" or n.startswith("complaff.")]
        namespaces += self._extra
        for layer, targets in SPAN_TARGETS.items():
            mod = importlib.import_module(f"complaff.{layer}")
            for target in targets:
                name = f"{layer}.{target}"
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw, self._on_result(name))
                    self._undo.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                f = getattr(mod, target)
                wrapper = self._wrap(name, f, self._on_result(name))
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is f]:
                        self._undo.append((ns, key, f))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def write(self, path: str, start: float):
        doc = {"names": self.names,
               "fields": ["name", "start_s", "end_s", "parent", "job"],
               "spans": [[n, round(t0 - start, 9), round(t1 - start, 9), p, j]
                         for n, t0, t1, p, j in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def span_metrics(tracer: SpanTracer) -> dict:
    names, spans = tracer.names, tracer.spans
    n = len(spans)
    name = [names[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    self_t = dur[:]
    for i in range(n):
        if parent[i] >= 0:
            self_t[parent[i]] -= dur[i]

    def calls(full):
        return sum(1 for x in name if x == full)

    def total(full):
        return sum(d for x, d in zip(name, dur) if x == full)

    def mean_us(full):
        c = calls(full)
        return 1e6 * total(full) / c if c else 0.0

    def layer_self(layer):
        pre = layer + "."
        return sum(t for x, t in zip(name, self_t) if x.startswith(pre))

    def outer_time(pred):
        """Time inside spans matching pred, counting nested matches once."""
        inside = [False] * n
        acc = 0.0
        for i in range(n):          # spans are stored in start order
            p = parent[i]
            enclosed = p >= 0 and (inside[p] or pred(name[p]))
            inside[i] = enclosed
            if pred(name[i]) and not enclosed:
                acc += dur[i]
        return acc

    under_check = [False] * n
    contains_in_checks = 0
    for i in range(n):
        p = parent[i]
        under_check[i] = p >= 0 and (under_check[p] or name[p] in CHECKS)
        if under_check[i] and name[i] == "projective.Subspace.contains":
            contains_in_checks += 1
    checks = calls(CHECKS[0]) + calls(CHECKS[1])
    ds1 = total("dualspread.check_pairwise_regular")
    ds1_in_check = sum(dur[i] for i in range(n)
                       if name[i] == "dualspread.check_pairwise_regular"
                       and parent[i] >= 0 and name[parent[i]] == CHECKS[0])

    return {
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_us": mean_us("linalg.rref"),
        "linalg.self_s": layer_self("linalg"),
        "projective.meet_calls": calls("projective.Subspace.__and__"),
        "projective.join_calls": calls("projective.Subspace.__add__"),
        "projective.contains_calls": calls("projective.Subspace.contains"),
        "projective.self_s": layer_self("projective"),
        "projective.hyperplanes_enumerated": tracer.hyperplanes,
        "projective.hyperplane_enum_s": outer_time(
            lambda x: x in ("projective.hyperplanes", "projective.hyperplane_forms")),
        "projective.zstructure_calls": sum(
            1 for x in name if x.startswith("projective.ZStructure.")),
        "projective.zstructure_s": outer_time(
            lambda x: x.startswith("projective.ZStructure.")),
        "dualspread.contains_per_check": contains_in_checks / checks if checks else 0.0,
        "dualspread.ds1_s": ds1,
        "dualspread.ds2_s": total(CHECKS[0]) - ds1_in_check,
        "dualspread.verify_family_s": total(CHECKS[1]),
        "dualspread.checks": checks,
        "dualspread.failed_checks": tracer.failed_checks,
        "chart.coordinate_of_calls": calls("chart.AffineChart.coordinate_of"),
        "chart.coordinate_of_us": mean_us("chart.AffineChart.coordinate_of"),
        "chart.complement_calls": calls("chart.AffineChart.complement"),
        "chart.self_s": layer_self("chart"),
        "chart.charts_built": calls("chart.AffineChart.__init__"),
        "chart.chart_build_s": outer_time(lambda x: x == "chart.AffineChart.__init__"),
        "config.chart_from_config_s": total("config.chart_from_config"),
        "reguli.regulus_through_s": total("reguli.regulus_through"),
        "reguli.reconstruct_calls": calls("reguli.reconstruct_from_transversals"),
        "reguli.reconstruct_s": total("reguli.reconstruct_from_transversals"),
        "reguli.cone_decompose_calls": calls("reguli.cone_decompose"),
        "reguli.cone_decompose_s": total("reguli.cone_decompose"),
        "reguli.transversal_lines": tracer.transversal_lines,
        "reguli.self_s": layer_self("reguli"),
        "cli.commands": calls("cli.main"),
        "cli.main_s": total("cli.main"),
        "jsonio.decode_s": outer_time(
            lambda x: x.startswith("jsonio.") and x.endswith("_from_json")),
        "jsonio.encode_s": outer_time(
            lambda x: x.startswith("jsonio.") and x.endswith("_to_json")),
    }


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_metrics(profile: cProfile.Profile) -> dict:
    """Algebra-layer share of self time and exact call counts."""
    from complaff import algebra, linalg

    stats = pstats.Stats(profile, stream=io.StringIO()).stats
    algebra_file = algebra.__file__
    domains = (algebra.PrimeField, algebra.ExtensionField, algebra.Rationals,
               algebra.Quaternions)
    payload = {_key(cls.__dict__[m]) for cls in domains
               for m in ("_add", "_neg", "_mul", "_inv", "_canon")}
    payload |= {_key(f) for f in (algebra._poly_trim, algebra._poly_mul,
                                  algebra._poly_divmod)}
    muls = {_key(cls.__dict__["_mul"]) for cls in domains}

    def ncalls(keys):
        return sum(stats[k][1] for k in keys if k in stats)

    total_tt = sum(v[2] for v in stats.values())
    algebra_tt = sum(v[2] for k, v in stats.items() if k[0] == algebra_file)
    payload_tt = sum(v[2] for k, v in stats.items() if k in payload)
    return {
        "algebra.self_share": algebra_tt / total_tt if total_tt else 0.0,
        "algebra.payload_share": payload_tt / algebra_tt if algebra_tt else 0.0,
        "algebra.scalar_objects": ncalls([_key(algebra.Scalar.__init__)]),
        "algebra.coerce_calls": ncalls([_key(algebra.Scalar._coerce)]),
        "algebra.payload_mul_calls": ncalls(muls),
        "algebra.poly_divmod_calls": ncalls([_key(algebra._poly_divmod)]),
        "linalg.matrix_builds": ncalls([_key(linalg.MatrixK.__init__)]),
    }
