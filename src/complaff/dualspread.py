"""Dual spreads of complements and the families of maps generating them.

The chart identifies a complement with the family of its W-components
over the basis (b_i): the complement named by gamma is spanned by the
points K(w_i + b_i) with w_i the i-th row of gamma.  That bijection
turns hyperplanes X not containing W into the "singular sets"
{S complement : S <= X}, which are exactly the coset families
(c_i) + H^I for H = X intersect W.

A set of complements together with W is a dual spread iff
  (DS1) the members are pairwise complementary, and
  (DS2) every singular set contains a member
(hyperplanes through W are covered by W itself).  Families of maps
tau_i: D -> U with the basis-difference property (T1*) and the
coset-hitting property (T2*) produce dual spreads member-by-member, and
every dual spread containing W arises that way.

Both conditions are decided on chart coordinates, on any domain and any
chart.  DS1: over a finite field, with one table combination across all
members per step, by bucketing the rows u*gamma_i, read at each
projective point u of U by one left combination
(`check_pairwise_regular`, which takes one rank reduction per pair
instead when there are fewer pairs than points).  DS2, once DS1 holds:
over a finite field q^m members cover every hyperplane without W, and
short of that (always over an infinite domain) one witness is built
with no search, a form c with c_W = W*c = e_1 and c_U = B*c outside the
member values -gamma_i*c_W (`_uncovered_hyperplane`).
`is_dual_spread` and `verify_family` run one sequence
(`_ds1_then_ds2`).  `verify_family` only renames the violation: DS1
becomes T1* (the pair as domain points), DS2 T2*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import _projective_reps
from .chart import AffineChart, ComplementCoord
from .errors import ChartMismatchError, InfiniteDomainError
from .linalg import (
    MatrixK,
    boxed,
    from_payloads,
    is_invertible,
    payload_row,
    reduce_rows,
    rref,
    stack,
)
from .projective import Subspace, _hyperplane


# ---------------------------------------------------------------------------
# the coordinate bijection between W-vector families and complements
# ---------------------------------------------------------------------------

def family_to_coord(chart: AffineChart, w_vectors) -> ComplementCoord:
    """The complement spanned by the points K(w_i + b_i)."""
    ws = [payload_row(chart.domain, w) for w in w_vectors]
    if len(ws) != chart.m:
        raise ValueError(f"expected {chart.m} vectors of W")
    rows = []
    for w in ws:
        # a vector of W has the chart coordinates [W-coordinates | 0]
        full = chart._split(w)
        if full is None or any(x != chart.domain._zero for x in full[chart.k:]):
            raise ValueError("family entries must lie in W")
        rows.append(full[:chart.k])
    return ComplementCoord(chart, from_payloads(chart.domain, rows, chart.k))


def coord_to_family(c: ComplementCoord) -> tuple:
    """The W-vector family (b_i^gamma) of a complement."""
    return (c.gamma * c.chart.w_matrix).entries


# ---------------------------------------------------------------------------
# singular sets S(X)
# ---------------------------------------------------------------------------

class SingularSet:
    """{S complement of W : S <= X} for a hyperplane X with W not inside X.

    Parameterised as psi((c_i) + H^I) with H = X intersect W; the
    parameterisation is stored, enumeration needs a finite field.
    """

    def __init__(self, chart: AffineChart, x: Subspace):
        if x.domain != chart.domain or x.ambient != chart.ambient:
            raise ValueError("hyperplane lives in a different ambient space")
        if x.dim != chart.space.dim - 1 or not chart.space.contains(x):
            raise ValueError("expected a hyperplane of the chart's space")
        if x.contains(chart.w):
            raise ValueError("the hyperplane must not contain W")
        self.chart = chart
        self.hyperplane = x
        dom, k = chart.domain, chart.k
        # the W-coordinate rows of some (c_i) with all c_i + b_i inside X:
        # c_i = y*W for a solution (y, z) of y*W - z*X = -b_i.  One always
        # exists: X is a hyperplane of the chart's space without W, so
        # W + X is that space and holds every -b_i.
        ech = rref(stack(dom, [chart.w_matrix, -x.basis], cols=chart.ambient))
        sols = [ech.coordinates(b) for b in (-chart.b_matrix).payload]
        self._base = from_payloads(dom, [y[:k] for y in sols], k)
        # the null rows (y, z) of the transform have y*W = z*X, so their y
        # are the W-coordinates of a basis of H = X intersect W
        self._h = from_payloads(dom, [row[:k] for row in ech.transform.payload[ech.rank:]], k)
        self.h = Subspace.spanned(dom, chart.ambient, (self._h * chart.w_matrix).payload)

    def coords(self) -> tuple:
        """All members, via the coset family (c_i) + H^I, in W-coordinates."""
        ch = self.chart
        if not ch.domain.is_finite:
            raise InfiniteDomainError("singular-set enumeration needs a finite field")
        dom, k = ch.domain, ch.k
        hs = [dom._combine(coeffs, self._h.payload, k)
              for coeffs in itertools.product(dom._payloads(), repeat=self._h.rows)]
        return tuple(ComplementCoord(ch, self._base + from_payloads(dom, combo, k))
                     for combo in itertools.product(hs, repeat=ch.m))

    def contains(self, c: ComplementCoord) -> bool:
        if c.chart != self.chart:
            raise ChartMismatchError("coordinate from a different chart")
        return self.hyperplane.contains(c.subspace())


# ---------------------------------------------------------------------------
# dual spreads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str                      # "DS1" | "DS2" | "T1*" | "T2*"
    detail: str
    pair: tuple | None = None
    hyperplane: Subspace | None = None


@dataclass(frozen=True)
class Report:
    ok: bool
    violation: Violation | None = None

    def __bool__(self):
        return self.ok


class DualSpreadCandidate:
    """An ordered family of complements; W is implicitly a member."""

    def __init__(self, chart: AffineChart, members):
        members = tuple(members)
        for m in members:
            if m.chart != chart:
                raise ChartMismatchError("member from a different chart")
        self.chart = chart
        self.members = members

    def subspaces(self) -> tuple:
        return tuple(m.subspace() for m in self.members)


def check_pairwise_regular(b: DualSpreadCandidate) -> Violation | None:
    """DS1: distinct members joined by a regular line, i.e. gamma
    differences invertible.  Runs over any domain; duplicates fail.

    The reported pair is the first failing (i, j) in the order of
    `itertools.combinations`, whichever of two paths finds it.  The rank
    path tests each pair's difference in that order.  With dim U != dim W
    no two members are complementary (two m-dimensional complements need
    2m = n), and `is_invertible` refuses the non-square difference at
    (0, 1) with no reduction; over an infinite domain each pair gets a
    rank test.  Over a finite field with m = dim U = dim W the bucket path
    (`_least_singular_pair`) costs one combination per projective point of
    K^m, P = (q^m - 1)/(q - 1) of them, against N(N - 1)/2 reductions on
    the rank path for N members.  Both counts are known before any work,
    so the rank path is taken when it has fewer steps.
    """
    ch = b.chart
    dom, m = ch.domain, ch.m
    gammas = [c.gamma for c in b.members]
    n = len(gammas)
    if (dom.is_finite and m == ch.k
            and n * (n - 1) // 2 >= (dom.order ** m - 1) // (dom.order - 1)):
        pair = _least_singular_pair(dom, m, [g.payload for g in gammas])
    else:
        pair = next(((i, j) for i, j in itertools.combinations(range(n), 2)
                     if not is_invertible(gammas[i] - gammas[j])), None)
    if pair is None:
        return None
    i, j = pair
    return Violation("DS1", f"members {i} and {j} are not joined by a "
                     f"regular line", pair=pair)


def _least_singular_pair(domain, m: int, gammas) -> tuple | None:
    """The least (i, j), i < j, with gammas[i] - gammas[j] singular, for m x m
    payload matrices over a finite field.

    gamma_i - gamma_j is singular exactly when u*(gamma_i - gamma_j) = 0
    for some projective point u of K^m (a canonical representative kills
    it whenever any nonzero u does).  Row r of the table `rows` is row r of
    every gamma, member after member, so one left combination u*rows gives
    the rows u*gamma_i of all N members at once: no commutativity is used.
    Its N slices of width m are bucketed, one bucket dict per point, and
    every singular pair shares a bucket at some point.  A bucket's first
    index a is the least member with its key, so a singular pair (i, j)
    meets (a, j) <= (i, j), itself singular: the least (first, j) over
    every collision is the first singular pair in combinations order.
    Every collision counts: stopping at the first can name (3, 5) where
    (0, 15) is first.
    """
    rows = [[x for gamma in gammas for x in gamma[r]] for r in range(m)]
    width = len(gammas) * m
    best = None
    for u in _projective_reps(domain, m):
        first = {}
        # zip(*[it] * m) cuts the table into the members' rows u*gamma_j
        for j, row in enumerate(zip(*[iter(domain._combine(u, rows, width))] * m)):
            i = first.setdefault(row, j)
            if i != j and (best is None or (i, j) < best):
                best = (i, j)
    return best


def is_dual_spread(b: DualSpreadCandidate) -> Report:
    """DS1 plus DS2 over all hyperplanes X with W not inside X."""
    return _ds1_then_ds2(b)


def _ds1_then_ds2(b: DualSpreadCandidate) -> Report:
    """DS1, then DS2 once DS1 holds, on any domain and any chart."""
    bad = check_pairwise_regular(b)
    if bad is not None:
        return Report(False, bad)
    x = _uncovered_hyperplane(b)
    if x is not None:
        return Report(False, Violation(
            "DS2", "a maximal singular set contains no member", hyperplane=x))
    return Report(True)


def _uncovered_hyperplane(b: DualSpreadCandidate) -> Subspace | None:
    """A hyperplane of K^n without W that contains no member, or None when
    there is none.  Needs DS1: only `_ds1_then_ds2` calls it.

    DS1 makes the members pairwise complementary, so no hyperplane
    contains two of them: the sets of hyperplanes through the members are
    disjoint, and each has (q^k-1)/(q-1) elements, one per hyperplane of
    V/S.  The q^m (q^k-1)/(q-1) hyperplanes of the chart's space without
    W are therefore all covered exactly when there are q^m members
    (Dembowski, Finite Geometries, 1968).  An infinite domain has
    infinitely many complements, so finitely many members never cover.

    Short of the count, one witness is built, with no search.  With W and
    B the matrices of the chart's bases of W and U, a form c has
    c_W = W*c and c_U = B*c.  ker c contains W exactly when c_W = 0.  The
    member of gamma is spanned by the rows of gamma*W + B, and c takes the
    values gamma*c_W + c_U on them, so the member lies in ker c exactly
    when gamma*c_W = -c_U.  Fix c_W = e_1: then gamma*c_W is column 0 of
    gamma, and the N members cover the N values -(column 0 of gamma_i).
    The first N + 1 values of c_U in product order over K use only the
    first N + 1 scalars, so they are taken from those alone, and one of
    them is left out: the first payloads of a finite field in
    `_payloads()` order (a prime field's is a range, so the work does not
    grow with q), or 0, 1, ..., N over the library's infinite domains,
    which have characteristic 0.  The form is then a solution c of
    T*c = (c_W | c_U) for the chart matrix T = [W; B], which has full row
    rank: one left reduction of [T | d], which holds over a skew field
    too, with the free unknowns set to 0.  On a default chart T is the
    identity and c is (c_W | c_U), the first form in `hyperplanes` order
    that no member satisfies; on another chart the witness may be a
    different one.
    """
    ch = b.chart
    domain, k, m = ch.domain, ch.k, ch.m
    zero, n = domain._zero, len(b.members)
    if domain.is_finite and n == domain.order ** m:
        return None
    first = (itertools.islice(domain._payloads(), n + 1) if domain.is_finite
             else map(domain._canon, range(n + 1)))
    # -gamma*c_W at c_W = e_1: column 0 of gamma, negated
    covered = {tuple(domain._neg(row[0]) for row in c.gamma.payload) for c in b.members}
    c_u = next(u for u in itertools.product(first, repeat=m) if u not in covered)
    # [T | d] with d = (e_1 | c_U); T has a pivot in every row
    rows = [[*row, x] for row, x in zip(ch._t.payload, (domain._one, *[zero] * (k - 1), *c_u))]
    c = [zero] * ch.ambient
    for row, col in zip(rows, reduce_rows(domain, rows, ch.ambient)):
        c[col] = row[-1]
    return _hyperplane(domain, c)


# ---------------------------------------------------------------------------
# transversal families of maps (the symmetric case, W identified with U)
# ---------------------------------------------------------------------------

class TransversalFamily:
    """tau_i: D -> U, tabulated in b-coordinates.

    Built from pairs (u, (u^tau_0, ..., u^tau_{m-1})) of length-m
    coordinate tuples over the chart's U-basis, or (u, the m x m MatrixK
    of the images), kept as it is.  Holds each u as a payload row and its
    images as that matrix, the gamma of u's member.  The library's own
    callers pass canonical payload rows as u (``_canonical``), which are
    kept as they are too.
    """

    def __init__(self, chart: AffineChart, entries, *, _canonical: bool = False):
        if not chart.is_symmetric:
            raise ValueError("transversal families live in symmetric charts")
        self.chart = chart
        dom, m = chart.domain, chart.m
        shape = "entries must be length-m coordinate tuples"
        self._points, self._images = [], []
        for u, images in entries:
            if not _canonical:
                u = tuple(payload_row(dom, u))
            if not isinstance(images, MatrixK):
                rows = [payload_row(dom, img) for img in images]
                if any(len(r) != m for r in rows):
                    raise ValueError(shape)
                images = from_payloads(dom, rows, m)
            if (len(u), images.rows, images.cols) != (m, m, m):
                raise ValueError(shape)
            self._points.append(u)
            self._images.append(images)
        if len(set(self._points)) != len(self._points):
            raise ValueError("domain points must be distinct")

    @property
    def entries(self) -> tuple:
        """The pairs (u, (u^tau_0, ..., u^tau_{m-1})) as Scalar tuples."""
        dom = self.chart.domain
        return tuple((boxed(dom, u), images.entries)
                     for u, images in zip(self._points, self._images))


def family_to_dual_spread(f: TransversalFamily) -> DualSpreadCandidate:
    """psi image of the family: one member per domain point, plus W."""
    return DualSpreadCandidate(f.chart, [ComplementCoord(f.chart, gamma)
                                         for gamma in f._images])


def verify_family(f: TransversalFamily) -> Report:
    """(T1*) basis differences for every pair; (T2*) via the hyperplane
    correspondence: every singular set meets the psi image."""
    report = _ds1_then_ds2(family_to_dual_spread(f))
    bad = report.violation
    if bad is None:
        return report
    if bad.kind == "DS1":
        return Report(False, Violation(
            "T1*", "image differences of two domain points do not form "
            "a basis of U", pair=tuple(boxed(f.chart.domain, f._points[i])
                                       for i in bad.pair)))
    return Report(False, Violation(
        "T2*", "no domain point lands in the coset family of this "
        "hyperplane", hyperplane=bad.hyperplane))


def family_from_dual_spread(b: DualSpreadCandidate, index: int) -> TransversalFamily:
    """Tabulate tau_i over D = the index-th psi-coordinates of the members.

    Distinct members of a dual spread never agree in any coordinate
    (they would share a point), so the extraction is well defined; the
    resulting family has tau_index = inclusion.
    """
    ch = b.chart
    if not 0 <= index < ch.m:
        raise IndexError("coordinate index out of range")
    gammas = [member.gamma for member in b.members]
    points = [gamma.payload[index] for gamma in gammas]
    if len(set(points)) != len(points):
        raise ValueError("two members agree in a coordinate; "
                         "the candidate is not a dual spread")
    return TransversalFamily(ch, zip(points, gammas), _canonical=True)


def normalized_family(f: TransversalFamily, index: int) -> TransversalFamily:
    """Re-index the domain so that tau_index becomes the inclusion."""
    if not 0 <= index < f.chart.m:
        raise IndexError("coordinate index out of range")
    return TransversalFamily(f.chart, [(gamma.payload[index], gamma)
                                       for gamma in f._images], _canonical=True)
