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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import scalars
from .chart import AffineChart, ComplementCoord
from .errors import ChartMismatchError, InfiniteDomainError
from .linalg import (
    MatrixK,
    combine,
    from_payloads,
    is_invertible,
    payload_row,
    rref,
    stack,
)
from .projective import Subspace, hyperplanes_not_containing


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
        if full is None or not all(map(chart.domain._is_zero, full[chart.k:])):
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
        self.h = x & chart.w
        # the W-coordinate rows of some (c_i) with all c_i + b_i inside X:
        # c_i = y*W for a solution (y, z) of y*W - z*X = -b_i
        ech = rref(stack(chart.domain, [chart.w_matrix, -x.basis], cols=chart.ambient))
        sols = [ech.coordinates(b) for b in (-chart.b_matrix).payload]
        if None in sols:
            raise ValueError("hyperplane admits no complement of W")
        self._base = from_payloads(chart.domain, [y[:chart.k] for y in sols], chart.k)

    def coords(self) -> tuple:
        """All members, via the coset family (c_i) + H^I, in W-coordinates."""
        ch = self.chart
        if not ch.domain.is_finite:
            raise InfiniteDomainError("singular-set enumeration needs a finite field")
        dom, k = ch.domain, ch.k
        h_rows = [ch._split(row)[:k] for row in self.h.basis.payload]
        elems = [x.raw for x in scalars(dom)]
        hs = [combine(dom, coeffs, h_rows, k)
              for coeffs in itertools.product(elems, repeat=self.h.dim)]
        return tuple(ComplementCoord(ch, self._base + from_payloads(dom, combo, k))
                     for combo in itertools.product(hs, repeat=ch.m))

    def contains(self, c: ComplementCoord) -> bool:
        if c.chart != self.chart:
            raise ChartMismatchError("coordinate from a different chart")
        return self.hyperplane.contains(c.subspace())


def singular_subspace(chart: AffineChart, x: Subspace) -> SingularSet:
    return SingularSet(chart, x)


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
    differences invertible.  Runs over any domain; duplicates fail."""
    for i, j in itertools.combinations(range(len(b.members)), 2):
        if not is_invertible(b.members[i].gamma - b.members[j].gamma):
            return Violation("DS1", f"members {i} and {j} are not joined by a "
                             f"regular line", pair=(i, j))
    return None


def is_dual_spread(b: DualSpreadCandidate) -> Report:
    """DS1 plus DS2 over all hyperplanes X with W not inside X."""
    if not b.chart.domain.is_finite:
        raise InfiniteDomainError(
            "DS2 is checked by hyperplane enumeration; use check_pairwise_regular "
            "for the DS1 part over an infinite domain")
    bad = check_pairwise_regular(b)
    if bad is not None:
        return Report(False, bad)
    x = _uncovered_hyperplane(b)
    if x is not None:
        return Report(False, Violation(
            "DS2", "a maximal singular set contains no member", hyperplane=x))
    return Report(True)


def _uncovered_hyperplane(b: DualSpreadCandidate) -> Subspace | None:
    """The first hyperplane without W that contains no member, or None.
    Call it only once DS1 holds.

    DS1 makes the members pairwise complementary, so no hyperplane
    contains two of them: the sets of hyperplanes through the members are
    disjoint, and each has (q^k-1)/(q-1) elements, one per hyperplane of
    V/S.  The q^m (q^k-1)/(q-1) hyperplanes of the chart's space without
    W are therefore all covered exactly when there are q^m members
    (Dembowski, Finite Geometries, 1968), and the scan only runs to find
    the witness when the count falls short.  Hyperplanes of K^n without
    W meet a proper chart space in its hyperplanes without W, so the
    scan over K^n finds the same verdict.
    """
    if len(b.members) == b.chart.domain.order ** b.chart.m:
        return None
    members = b.subspaces()
    return next((x for x in hyperplanes_not_containing(b.chart.w)
                 if not any(x.contains(s) for s in members)), None)


# ---------------------------------------------------------------------------
# transversal families of maps (the symmetric case, W identified with U)
# ---------------------------------------------------------------------------

class TransversalFamily:
    """tau_i: D -> U, tabulated in b-coordinates.

    entries are pairs (u, (u^tau_0, ..., u^tau_{m-1})) with every vector
    a length-m coordinate tuple over the chart's U-basis.
    """

    def __init__(self, chart: AffineChart, entries):
        if not chart.is_symmetric:
            raise ValueError("transversal families live in symmetric charts")
        self.chart = chart
        canon = []
        scalar = chart.domain.scalar
        for u, images in entries:
            u = tuple(map(scalar, u))
            images = tuple(tuple(map(scalar, img)) for img in images)
            if len(u) != chart.m or len(images) != chart.m \
                    or any(len(img) != chart.m for img in images):
                raise ValueError("entries must be length-m coordinate tuples")
            canon.append((u, images))
        if len({u for u, _ in canon}) != len(canon):
            raise ValueError("domain points must be distinct")
        self.entries = tuple(canon)


def family_to_dual_spread(f: TransversalFamily) -> DualSpreadCandidate:
    """psi image of the family: one member per domain point, plus W."""
    members = []
    for _, images in f.entries:
        gamma = MatrixK(f.chart.domain, images, cols=f.chart.k)
        members.append(ComplementCoord(f.chart, gamma))
    return DualSpreadCandidate(f.chart, members)


def verify_family(f: TransversalFamily) -> Report:
    """(T1*) basis differences for every pair; (T2*) via the hyperplane
    correspondence: every singular set meets the psi image."""
    spread = family_to_dual_spread(f)
    bad = check_pairwise_regular(spread)
    if bad is not None:
        i, j = bad.pair
        return Report(False, Violation(
            "T1*", "image differences of two domain points do not form "
            "a basis of U", pair=(f.entries[i][0], f.entries[j][0])))
    if not f.chart.domain.is_finite:
        raise InfiniteDomainError("(T2*) is checked by hyperplane enumeration")
    x = _uncovered_hyperplane(spread)
    if x is not None:
        return Report(False, Violation(
            "T2*", "no domain point lands in the coset family of this "
            "hyperplane", hyperplane=x))
    return Report(True)


def family_from_dual_spread(b: DualSpreadCandidate, index: int) -> TransversalFamily:
    """Tabulate tau_i over D = the index-th psi-coordinates of the members.

    Distinct members of a dual spread never agree in any coordinate
    (they would share a point), so the extraction is well defined; the
    resulting family has tau_index = inclusion.
    """
    ch = b.chart
    if not 0 <= index < ch.m:
        raise IndexError("coordinate index out of range")
    entries = []
    seen = set()
    for member in b.members:
        rows = member.gamma.entries
        u = rows[index]
        if u in seen:
            raise ValueError("two members agree in a coordinate; "
                             "the candidate is not a dual spread")
        seen.add(u)
        entries.append((u, rows))
    return TransversalFamily(ch, entries)


def normalized_family(f: TransversalFamily, index: int) -> TransversalFamily:
    """Re-index the domain so that tau_index becomes the inclusion."""
    if not 0 <= index < f.chart.m:
        raise IndexError("coordinate index out of range")
    entries = [(images[index], images) for _, images in f.entries]
    return TransversalFamily(f.chart, entries)
