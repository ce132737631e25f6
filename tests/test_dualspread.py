import functools
import gc
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complaff import algebra, dualspread, linalg
from complaff.algebra import ExtensionField, PrimeField, Quaternions, Rationals
from complaff.chart import (
    AffineChart,
    ComplementCoord,
    Subchart,
    are_complementary,
    symmetric_chart,
)
from complaff.dualspread import (
    DualSpreadCandidate,
    SingularSet,
    TransversalFamily,
    _uncovered_hyperplane,
    check_pairwise_regular,
    coord_to_family,
    family_from_dual_spread,
    family_to_coord,
    family_to_dual_spread,
    is_dual_spread,
    normalized_family,
    verify_family,
)
from complaff.config import chart_from_config
from complaff.jsonio import subspace_from_json
from complaff.linalg import MatrixK, from_payloads, is_invertible
from complaff.projective import Subspace, _hyperplane, hyperplanes, hyperplanes_not_containing
from boxed_reference import (
    QuaternionAlgebra,
    ref_check_pairwise_regular,
    ref_is_dual_spread,
    ref_uncovered_hyperplane,
    ref_verify_family,
)
from vectors import unit_vector, vec_add

GF2 = PrimeField(2)
GF3 = PrimeField(3)
Q = Quaternions()


def e(domain, n, i):
    return unit_vector(domain, n, i)


# ---------------------------------------------------------------------------
# the psi bijection
# ---------------------------------------------------------------------------

def test_psi_zero_family_is_u():
    ch = symmetric_chart(GF2, 2)
    zero_family = [(GF2.zero(),) * 4, (GF2.zero(),) * 4]
    c = family_to_coord(ch, zero_family)
    assert c == ch.zero_coord()
    assert ch.complement(c) == ch.u


def test_psi_worked_example_gf2():
    ch = symmetric_chart(GF2, 2)
    c = family_to_coord(ch, [e(GF2, 4, 0), (GF2.zero(),) * 4])
    assert c.gamma == MatrixK(GF2, [[1, 0], [0, 0]])
    expected = Subspace.from_rows(GF2, 4, [vec_add(e(GF2, 4, 0), e(GF2, 4, 2)),
                                           e(GF2, 4, 3)])
    assert ch.complement(c) == expected


def test_psi_spans_the_marked_points():
    ch = symmetric_chart(GF3, 2)
    for c in ch.all_coords()[:27]:
        family = coord_to_family(c)
        span = Subspace.from_rows(GF3, 4,
                                  [vec_add(w, b) for w, b in zip(family, ch.b)])
        assert span == ch.complement(c)


def test_psi_is_linear_and_bijective_gf2():
    ch = symmetric_chart(GF2, 2)
    coords = ch.all_coords()
    families = {c: coord_to_family(c) for c in coords}
    # round trip both ways
    for c, fam in families.items():
        assert family_to_coord(ch, fam) == c
    assert len({fam for fam in map(tuple, families.values())}) == 16
    # additivity through the family representation
    for c1, c2 in itertools.product(coords, repeat=2):
        summed = tuple(vec_add(a, b)
                       for a, b in zip(families[c1], families[c2]))
        assert family_to_coord(ch, summed) == c1 + c2
    # homogeneity
    for k in GF2.sample():
        for c in coords:
            scaled = tuple(tuple(k * x for x in w) for w in families[c])
            assert family_to_coord(ch, scaled) == k * c


def test_psi_rejects_vectors_outside_w():
    ch = symmetric_chart(GF2, 2)
    with pytest.raises(ValueError):
        family_to_coord(ch, [e(GF2, 4, 2), (GF2.zero(),) * 4])


# ---------------------------------------------------------------------------
# singular sets and the hyperplane correspondence
# ---------------------------------------------------------------------------

def test_singular_sets_gf2():
    ch = symmetric_chart(GF2, 2)
    all_coords = ch.all_coords()
    subspaces = {c: ch.complement(c) for c in all_coords}
    valid = hyperplanes_not_containing(ch.w)
    assert len(valid) == 12
    member_sets = []
    for x in valid:
        sing = SingularSet(ch, x)
        members = sing.coords()
        assert len(members) == 4                    # |H|^2 with |H| = 2
        oracle = {c for c in all_coords if x.contains(subspaces[c])}
        assert set(members) == oracle
        assert all(sing.contains(c) for c in members)
        member_sets.append(frozenset(members))
    # distinct hyperplanes give distinct singular sets (the bijection)
    assert len(set(member_sets)) == 12


def test_singular_sets_have_no_regular_line():
    ch = symmetric_chart(GF2, 2)
    for x in hyperplanes_not_containing(ch.w):
        members = SingularSet(ch, x).coords()
        for c1, c2 in itertools.combinations(members, 2):
            assert not are_complementary(c1, c2)


def _affine_span_coords(ch, coords):
    """Affine span over GF(2): base point plus the linear span of differences."""
    base = coords[0]
    diffs = [c - base for c in coords[1:]]
    flat = [tuple(x for row in d.gamma.entries for x in row) for d in diffs]
    span = Subspace.from_rows(ch.domain, ch.m * ch.k, flat)
    out = []
    elems = ch.domain.sample()
    for combo in itertools.product(elems, repeat=span.dim):
        acc = base
        for coeff, row in zip(combo, span.basis.entries):
            gamma = MatrixK(ch.domain, [row[i * ch.k:(i + 1) * ch.k]
                                        for i in range(ch.m)], cols=ch.k)
            acc = acc + ch.coord(gamma.scale_left(coeff).entries)
        out.append(acc)
    return out


def test_singular_sets_are_maximal():
    ch = symmetric_chart(GF2, 2)
    for x in hyperplanes_not_containing(ch.w)[:4]:
        members = SingularSet(ch, x).coords()
        outside = [c for c in ch.all_coords() if c not in set(members)]
        for extra in outside:
            enlarged = _affine_span_coords(ch, list(members) + [extra])
            assert any(are_complementary(c1, c2)
                       for c1, c2 in itertools.combinations(enlarged, 2))


def test_singular_set_rejects_hyperplane_through_w():
    ch = symmetric_chart(GF2, 2)
    through_w = next(x for x in hyperplanes(GF2, 4) if x.contains(ch.w))
    with pytest.raises(ValueError):
        SingularSet(ch, through_w)


# ---------------------------------------------------------------------------
# the GF(4)-induced regular spread of PG(3,2)
# ---------------------------------------------------------------------------

GF4 = ExtensionField(2, (1, 1, 1))


def gf4_spread_subspaces():
    """Oracle: the five GF(4)-lines of GF(4)^2, written over GF(2)^4.

    Identification (a, b) = (x1 + w*x2, x3 + w*x4) <-> (x1, x2, x3, x4).
    """
    directions = [(GF4.one(), c) for c in GF4.sample()]
    directions.append((GF4.zero(), GF4.one()))
    members = []
    for d in directions:
        rows = []
        for s in GF4.sample():
            if s.is_zero():
                continue
            a, b = s * d[0], s * d[1]
            rows.append(tuple(GF2.scalar(x) for x in a.payload + b.payload))
        members.append(Subspace.from_rows(GF2, 4, rows))
    return members


def regular_spread_candidate(ch):
    members = gf4_spread_subspaces()
    non_w = [s for s in members if s != ch.w]
    assert len(non_w) == 4
    return DualSpreadCandidate(ch, [ch.coordinate_of(s) for s in non_w])


def test_gf4_spread_shape():
    ch = symmetric_chart(GF2, 2)
    members = gf4_spread_subspaces()
    assert len(set(members)) == 5
    assert ch.w in members
    covered = set()
    for s in members:
        assert s.dim == 2
        for v in itertools.product(GF2.sample(), repeat=2):
            pt = vec_add(tuple(v[0] * x for x in s.basis.entries[0]),
                         tuple(v[1] * x for x in s.basis.entries[1]))
            covered.add(pt)
    assert len(covered) == 16      # a spread covers every point once


def test_gf4_spread_gamma_matrices():
    ch = symmetric_chart(GF2, 2)
    cand = regular_spread_candidate(ch)
    gammas = {m.gamma for m in cand.members}
    expected = {MatrixK.zero(GF2, 2, 2), MatrixK.identity(GF2, 2),
                MatrixK(GF2, [[1, 1], [1, 0]]), MatrixK(GF2, [[0, 1], [1, 1]])}
    assert gammas == expected


def test_gf4_spread_is_dual_spread():
    ch = symmetric_chart(GF2, 2)
    report = is_dual_spread(regular_spread_candidate(ch))
    assert report.ok and report.violation is None


def test_dual_spread_violations():
    ch = symmetric_chart(GF2, 2)
    c0 = ch.zero_coord()
    rank1 = ch.coord([[1, 0], [0, 0]])
    bad = is_dual_spread(DualSpreadCandidate(ch, [c0, rank1]))
    assert not bad.ok and bad.violation.kind == "DS1"
    assert bad.violation.pair == (0, 1)

    empty = is_dual_spread(DualSpreadCandidate(ch, []))
    assert not empty.ok and empty.violation.kind == "DS2"
    assert empty.violation.hyperplane is not None

    repeated = is_dual_spread(DualSpreadCandidate(ch, [c0, c0]))
    assert not repeated.ok and repeated.violation.kind == "DS1"


def check_witness(cand, x):
    """The DS2 witness checked on its own: x is the kernel of a nonzero
    form of K^n, W is not inside it, and no member is."""
    ch = cand.chart
    assert (x.ambient, x.dim) == (ch.ambient, ch.ambient - 1)
    assert not x.contains(ch.w)
    assert not any(x.contains(s) for s in cand.subspaces())


def test_dual_spread_fails_ds2_over_the_quaternions():
    # members 0 and I cover the values (0, 0) and (-1, 0) of c_U at
    # c_W = e_1, so the witness is the form (1, 0 | 0, 1)
    ch = symmetric_chart(Q, 2)
    cand = DualSpreadCandidate(ch, [ch.zero_coord(),
                                    ch.coord([[1, 0], [0, 1]])])
    report = is_dual_spread(cand)
    assert not report.ok and report.violation.kind == "DS2"
    assert report.violation.hyperplane == _hyperplane(Q, [Q._canon(x) for x in (1, 0, 0, 1)])
    check_witness(cand, report.violation.hyperplane)
    clash = DualSpreadCandidate(ch, [ch.zero_coord(),
                                     ch.coord([[1, 0], [0, 0]])])
    assert check_pairwise_regular(clash).kind == "DS1"


def test_dual_spread_reports_ds1_over_the_quaternions():
    # DS1 runs first on any domain; a candidate that passes it fails DS2
    ch = symmetric_chart(Q, 2)
    c0, c1 = ch.zero_coord(), ch.coord([[Q.i, 0], [0, Q.j]])
    report = is_dual_spread(DualSpreadCandidate(ch, [c0, c1, c0]))
    assert not report.ok
    assert (report.violation.kind, report.violation.pair) == ("DS1", (0, 2))
    cand = DualSpreadCandidate(ch, [c0, c1])
    report = is_dual_spread(cand)
    assert report.violation.kind == "DS2"
    check_witness(cand, report.violation.hyperplane)


# ---------------------------------------------------------------------------
# transversal families and both theorem directions
# ---------------------------------------------------------------------------

def raw_coset_condition(f):
    """Independent (T2*) oracle: quantify over (c_i) in U^I and hyperplanes
    H of U directly, in b-coordinates."""
    ch = f.chart
    m = ch.m
    u_vectors = list(itertools.product(ch.domain.sample(), repeat=m))
    for h in hyperplanes(ch.domain, m):
        for cs in itertools.product(u_vectors, repeat=m):
            hit = False
            for _, images in f.entries:
                if all(h.coefficients_of(
                        tuple(a - b for a, b in
                              zip(images[i], (ch.domain.scalar(x) for x in cs[i]))))
                       is not None for i in range(m)):
                    hit = True
                    break
            if not hit:
                return False
    return True


def test_family_round_trip_on_spread():
    ch = symmetric_chart(GF2, 2)
    cand = regular_spread_candidate(ch)
    fam = family_from_dual_spread(cand, 0)
    report = verify_family(fam)
    assert report.ok
    rebuilt = family_to_dual_spread(fam)
    assert {m.gamma for m in rebuilt.members} == {m.gamma for m in cand.members}
    # extraction at the natural index is the inclusion
    for u, images in fam.entries:
        assert images[0] == u


def test_family_extraction_index_invariance():
    ch = symmetric_chart(GF2, 2)
    cand = regular_spread_candidate(ch)
    spreads = []
    for index in (0, 1):
        fam = family_from_dual_spread(cand, index)
        spreads.append({m.gamma for m in family_to_dual_spread(fam).members})
    assert spreads[0] == spreads[1]


def test_family_t1_failure():
    ch = symmetric_chart(GF2, 2)
    zero = (GF2.zero(), GF2.zero())
    one = (GF2.one(), GF2.zero())
    fam = TransversalFamily(ch, [(zero, (zero, zero)), (one, (zero, zero))])
    report = verify_family(fam)
    assert not report.ok and report.violation.kind == "T1*"


def test_family_t2_failure_and_raw_oracle_agreement():
    ch = symmetric_chart(GF2, 2)
    cand = regular_spread_candidate(ch)
    full = family_from_dual_spread(cand, 0)
    assert verify_family(full).ok
    assert raw_coset_condition(full)
    # dropping a member breaks (T2*) in both formulations
    partial = TransversalFamily(ch, full.entries[:-1])
    report = verify_family(partial)
    assert not report.ok and report.violation.kind == "T2*"
    assert not raw_coset_condition(partial)


def test_theorem_both_directions_exhaustive_gf2():
    # every dual spread containing W arises from a verified family, and
    # every verified family produces a dual spread: scan all 4-member
    # candidates built from spreads of PG(3,2) found by exhaustive search
    ch = symmetric_chart(GF2, 2)
    coords = ch.all_coords()
    complements_of_w = [c for c in coords]
    spreads_found = []
    for combo in itertools.combinations(complements_of_w, 4):
        cand = DualSpreadCandidate(ch, combo)
        if is_dual_spread(cand).ok:
            spreads_found.append(cand)
    assert spreads_found
    for cand in spreads_found:
        fam = family_from_dual_spread(cand, 0)
        assert verify_family(fam).ok
        rebuilt = family_to_dual_spread(fam)
        assert {m.gamma for m in rebuilt.members} == {m.gamma for m in cand.members}
        assert is_dual_spread(rebuilt).ok


def test_normalized_family():
    ch = symmetric_chart(GF2, 2)
    cand = regular_spread_candidate(ch)
    fam = family_from_dual_spread(cand, 1)
    normal = normalized_family(fam, 0)
    for u, images in normal.entries:
        assert images[0] == u
    assert ({m.gamma for m in family_to_dual_spread(normal).members}
            == {m.gamma for m in cand.members})


def test_family_from_non_dual_spread_collision():
    ch = symmetric_chart(GF2, 2)
    cand = DualSpreadCandidate(ch, [ch.zero_coord(), ch.coord([[0, 0], [1, 0]])])
    with pytest.raises(ValueError):
        family_from_dual_spread(cand, 0)


# ---------------------------------------------------------------------------
# DS2 by count against the full hyperplane scan
# ---------------------------------------------------------------------------

def regular_spread_gammas(domain):
    """The q^2 matrices x*I + y*C with C the companion matrix of a monic
    quadratic without roots: a field of 2x2 matrices, so any two differ
    by an invertible matrix."""
    elems = domain.elements()
    a, b = next((a, b) for a in elems for b in elems
                if all(not (t * t + a * t + b).is_zero() for t in elems))
    # C = [[0, 1], [-b, -a]] has characteristic polynomial t^2 + a*t + b
    return [MatrixK(domain, [[x, y], [-(y * b), x - y * a]])
            for x in elems for y in elems]


def gf8_spread_gammas():
    """GF(8) as the 3x3 matrices a*I + b*C + c*C^2 over GF(2), with C the
    companion matrix of x^3 + x + 1: 8 members, any two differing by an
    invertible matrix."""
    c = MatrixK(GF2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    powers = [MatrixK.identity(GF2, 3), c, c * c]
    return [functools.reduce(MatrixK.__add__, [p for p, bit in zip(powers, bits) if bit],
                             MatrixK.zero(GF2, 3, 3))
            for bits in itertools.product((0, 1), repeat=3)]


def first_uncovered(cand):
    """The full scan: the first hyperplane without W containing no member."""
    members = cand.subspaces()
    return next((x for x in hyperplanes_not_containing(cand.chart.w)
                 if not any(x.contains(s) for s in members)), None)


def _subchart_gf3():
    # K^5 = W (+) U with dim W = 2, dim U = 3; the subchart on (b_0, b_2)
    # lives in the proper subspace W (+) <b_0, b_2> of dimension 4
    w = Subspace.from_rows(GF3, 5, [e(GF3, 5, 0), e(GF3, 5, 1)])
    return Subchart(AffineChart(GF3, 5, w), (0, 2)).chart


COUNT_CHARTS = {"GF2": lambda: symmetric_chart(GF2, 2),
                "GF3": lambda: symmetric_chart(GF3, 2),
                "GF4": lambda: symmetric_chart(ExtensionField(2, (1, 1, 1)), 2),
                "GF3-subchart": _subchart_gf3}


@functools.lru_cache(maxsize=None)
def gamma_matrices(domain, m, k):
    """Every m x k matrix over a finite domain, in lexicographic order."""
    return [MatrixK(domain, [c[i * k:(i + 1) * k] for i in range(m)])
            for c in itertools.product(domain.elements(), repeat=m * k)]


@functools.lru_cache(maxsize=None)
def invertible_matrices(domain, m):
    return [g for g in gamma_matrices(domain, m, m) if is_invertible(g)]


def draw_gammas(data, ch):
    """The gammas of a candidate: a regular spread moved by gamma ->
    gamma*A + H, whole, with one member deleted or repeated, a subset of
    it, or random matrices, in a drawn order.  A chart with dim U !=
    dim W has no spread, so it gets random matrices only."""
    domain = ch.domain
    squares = gamma_matrices(domain, ch.m, ch.k)
    if ch.m != ch.k:
        return data.draw(st.lists(st.sampled_from(squares),
                                  max_size=domain.order ** ch.m + 1))
    # a regular spread moved by gamma -> gamma*A + H keeps DS1 and its size
    a = data.draw(st.sampled_from(invertible_matrices(domain, ch.m)))
    h = data.draw(st.sampled_from(squares))
    base = gf8_spread_gammas() if ch.m == 3 else regular_spread_gammas(domain)
    spread = [g * a + h for g in base]
    kind = data.draw(st.sampled_from(["spread", "deleted", "duplicate",
                                      "subset", "random"]))
    if kind == "spread":
        gammas = spread
    elif kind == "deleted":
        gammas = spread[:]
        del gammas[data.draw(st.integers(0, len(spread) - 1))]
    elif kind == "duplicate":
        gammas = spread + [data.draw(st.sampled_from(spread))]
    elif kind == "subset":
        keep = data.draw(st.lists(st.booleans(), min_size=len(spread),
                                  max_size=len(spread)))
        gammas = [g for g, k in zip(spread, keep) if k]
    else:
        gammas = data.draw(st.lists(st.sampled_from(squares),
                                    max_size=len(spread) + 1))
    return data.draw(st.permutations(gammas))


@pytest.mark.parametrize("name", list(COUNT_CHARTS))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_ds2_count_matches_hyperplane_scan(name, data):
    ch = COUNT_CHARTS[name]()
    gammas = draw_gammas(data, ch)
    cand = DualSpreadCandidate(ch, [ch.coord(g.entries) for g in gammas])
    report = is_dual_spread(cand)
    if check_pairwise_regular(cand) is not None:
        assert report.violation.kind == "DS1"
        return
    witness = first_uncovered(cand)
    assert report.ok == (witness is None) == (len(gammas) == ch.domain.order ** 2)
    if witness is not None:
        assert report.violation.kind == "DS2"
        assert report.violation.hyperplane == witness
    family = verify_family(family_from_dual_spread(cand, 0))
    assert family.ok == report.ok
    if witness is not None:
        assert family.violation.kind == "T2*"
        assert family.violation.hyperplane == witness


# ---------------------------------------------------------------------------
# the bucket and form tests against the rank path and the hyperplane scan
# ---------------------------------------------------------------------------

def _non_symmetric_gf2():
    # K^5 = W (+) U with dim W = 2 and dim U = 3: no difference is square
    return AffineChart(GF2, 5, Subspace.from_rows(GF2, 5, [e(GF2, 5, 0), e(GF2, 5, 1)]))


def _skew_bases_gf3():
    # bases of W and U that are no unit vectors, and a W that is no
    # coordinate subspace: c_W = W*c changes between consecutive forms, so
    # the scan builds the members' values afresh, not once per run
    w_rows, u_rows = [[1, 0, 0, 1], [0, 1, 2, 0]], [[0, 0, 1, 1], [1, 2, 0, 1]]
    w, u = (Subspace.from_rows(GF3, 4, rows) for rows in (w_rows, u_rows))
    return AffineChart(GF3, 4, w, u, b=MatrixK(GF3, u_rows), w_basis=MatrixK(GF3, w_rows))


ORACLE_CHARTS = {**COUNT_CHARTS,
                 "GF8": lambda: symmetric_chart(ExtensionField(2, (1, 1, 0, 1)), 2),
                 "GF9": lambda: symmetric_chart(ExtensionField(3, (1, 0, 1)), 2),
                 "GF2-m3-k2": _non_symmetric_gf2,
                 # 7 projective points and 3 columns per member
                 "GF2-m3-k3": lambda: symmetric_chart(GF2, 3),
                 "GF3-skew-bases": _skew_bases_gf3}


def _assert_matches(report, ref, cand, same_witness):
    """The report agrees with the reference's in verdict, kind and pair.  A
    DS2 or T2* witness is checked on its own, and equals the reference's
    where `same_witness` says the chart keeps the scan's order."""
    if same_witness:
        assert report == ref
    else:
        assert report.ok == ref.ok
        got, want = report.violation, ref.violation
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.kind, got.detail, got.pair) == (want.kind, want.detail, want.pair)
    if report.violation is not None and report.violation.hyperplane is not None:
        check_witness(cand, report.violation.hyperplane)


def _check_against_reference(ch, gammas, same_witness=True):
    cand = DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in gammas])
    assert check_pairwise_regular(cand) == ref_check_pairwise_regular(cand)
    _assert_matches(is_dual_spread(cand), ref_is_dual_spread(cand), cand, same_witness)
    points = list(itertools.product(ch.domain.elements(), repeat=ch.m))
    if ch.is_symmetric and len(gammas) <= len(points):
        family = TransversalFamily(ch, [(u, g.entries) for u, g in zip(points, gammas)])
        _assert_matches(verify_family(family), ref_verify_family(family), cand, same_witness)


@pytest.mark.parametrize("name", list(ORACLE_CHARTS))
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(data=st.data())
def test_dual_spread_checks_match_reference(name, data):
    """The verdict equals the boxed scan's on every chart.  The witness
    equals the scan's first uncovered hyperplane wherever the chart matrix
    keeps its order: on the default charts, and on the subchart, whose
    extra coordinate is free and set to 0.  On skew bases it may be a
    different hyperplane, checked on its own."""
    ch = ORACLE_CHARTS[name]()
    _check_against_reference(ch, draw_gammas(data, ch), name != "GF3-skew-bases")


# Over GF(5): gamma_0 - gamma_15 and gamma_3 - gamma_5 are the only singular
# differences, both killed by u = (1, 0), the first projective point.  Its
# buckets are {0, 15} and {3, 5}, and the first collision (at 5) is not the
# first pair in combinations order.
TWO_BUCKETS_GF5 = [
    [[0, 0], [0, 0]], [[0, 2], [1, 0]], [[0, 3], [4, 0]], [[0, 1], [3, 0]],
    [[0, 4], [2, 0]], [[0, 1], [3, 1]], [[1, 2], [1, 1]], [[1, 3], [4, 1]],
    [[1, 4], [2, 1]], [[2, 0], [0, 2]], [[2, 1], [3, 2]], [[3, 0], [0, 3]],
    [[3, 1], [3, 3]], [[3, 2], [1, 3]], [[3, 3], [4, 3]], [[0, 0], [0, 1]]]


def test_ds1_reports_the_least_pair_over_all_buckets():
    ch = symmetric_chart(PrimeField(5), 2)
    gammas = [MatrixK(ch.domain, g) for g in TWO_BUCKETS_GF5]
    singular = [(i, j) for i, j in itertools.combinations(range(16), 2)
                if not is_invertible(gammas[i] - gammas[j])]
    assert singular == [(0, 15), (3, 5)]
    cand = DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in gammas])
    assert check_pairwise_regular(cand).pair == (0, 15)
    assert is_dual_spread(cand).violation.pair == (0, 15)
    _check_against_reference(ch, gammas)


def _count_combines(check, cand):
    """check(cand) and the (coefficients, rows, width) of every GF(4)
    `_combine` call it makes."""
    calls = []
    combine = ExtensionField._combine
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExtensionField, "_combine",
                   lambda self, *args: calls.append(args) or combine(self, *args))
        return check(cand), calls


def test_ds1_combines_once_per_projective_point():
    """DS1 over GF(4) reads the rows u*gamma of every member at one of the
    5 points of K^2 with one combination: 5 calls, whatever the number of
    members."""
    gf4 = ExtensionField(2, (1, 1, 1))
    ch = symmetric_chart(gf4, 2)
    spread = regular_spread_gammas(gf4)
    for gammas in (spread + spread[:1], spread * 2 + spread[5:6]):
        cand = DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in gammas])
        bad, calls = _count_combines(check_pairwise_regular, cand)
        assert bad.pair == (0, 16)
        assert len(calls) == 5
        assert all(width == 2 * len(gammas) for _, _, width in calls)


def test_ds1_takes_the_rank_path_when_it_has_fewer_steps(monkeypatch):
    # GF(2)^16 as U x U: 255 projective points of U, one pair of members
    ch = symmetric_chart(GF2, 8)
    gammas = [MatrixK.identity(GF2, 8), MatrixK.identity(GF2, 8) + MatrixK.identity(GF2, 8)]
    cand = DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in gammas])
    reductions = []
    reduce_rows = linalg.reduce_rows
    monkeypatch.setattr(linalg, "reduce_rows",
                        lambda *args: reductions.append(args) or reduce_rows(*args))
    monkeypatch.setattr(dualspread, "_projective_reps", None)
    assert check_pairwise_regular(cand) is None
    monkeypatch.undo()
    assert len(reductions) == 1
    repeated = DualSpreadCandidate(ch, cand.members[:1] * 2)
    assert check_pairwise_regular(repeated).pair == (0, 1)


def test_ds1_takes_the_rank_path_past_the_listing_limit(monkeypatch):
    """With the limit below the P = 5 projective points of GF(4)^2, DS1 walks
    no point and tests pairs by rank, and reports what the bucket path
    reports: no pair, the first duplicate (0, 16), and (1, 3)."""
    gf4 = ExtensionField(2, (1, 1, 1))
    ch = symmetric_chart(gf4, 2)
    spread = regular_spread_gammas(gf4)
    cands = [DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in gammas])
             for gammas in (spread, spread + spread[:1], spread[:3] + spread[1:2])]
    bucket = [check_pairwise_regular(c) for c in cands]
    assert [v and v.pair for v in bucket] == [None, (0, 16), (1, 3)]
    walked = []
    monkeypatch.setattr(dualspread, "_least_singular_pair", lambda *args: walked.append(args))
    monkeypatch.setattr(dualspread, "_MAX_LISTED", 4)
    monkeypatch.setattr(algebra, "_MAX_LISTED", 4)
    assert [check_pairwise_regular(c) for c in cands] == bucket
    assert walked == []


# (q, m, N, path) on each side of N(N - 1)/2 >= P = (q^m - 1)/(q - 1),
# the tie (3 pairs, 3 points) included
PATHS = [(2, 2, 2, "rank"), (2, 2, 3, "bucket"), (3, 2, 3, "rank"),
         (3, 2, 4, "bucket"), (2, 3, 4, "rank"), (2, 3, 5, "bucket")]


@pytest.mark.parametrize("q, m, n, path", PATHS)
def test_ds1_path_follows_the_step_counts(monkeypatch, q, m, n, path):
    domain = PrimeField(q)
    ch = symmetric_chart(domain, m)
    spread = gf8_spread_gammas() if m == 3 else regular_spread_gammas(domain)
    # pairwise regular members, so the rank path reduces every pair
    cand = DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in spread[:n]])
    buckets, reductions = [], []
    bucket, reduce_rows = dualspread._least_singular_pair, linalg.reduce_rows
    monkeypatch.setattr(dualspread, "_least_singular_pair",
                        lambda *args: buckets.append(args) or bucket(*args))
    monkeypatch.setattr(linalg, "reduce_rows",
                        lambda *args: reductions.append(args) or reduce_rows(*args))
    assert check_pairwise_regular(cand) is None
    monkeypatch.undo()
    if path == "rank":
        assert (len(buckets), len(reductions)) == (0, n * (n - 1) // 2)
    else:
        assert (len(buckets), len(reductions)) == (1, 0)


def test_ds2_builds_the_member_values_once_per_c_w(monkeypatch):
    """DS2 fixes c_W = (1, 0), so the member values -gamma*c_W are column 0
    of every gamma, negated, read once with no combination.  On the
    default GF(4) chart a spread with one member dropped leaves exactly
    that member's value uncovered, and the witness form is
    (1, 0 | -column 0 of the dropped member)."""
    gf4 = ExtensionField(2, (1, 1, 1))
    ch = symmetric_chart(gf4, 2)
    gammas = regular_spread_gammas(gf4)
    one, zero = gf4._one, gf4._zero
    monkeypatch.setattr(dualspread, "_hyperplane", lambda domain, c: c)
    for drop in range(len(gammas)):
        members = gammas[:drop] + gammas[drop + 1:]
        cand = DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in members])
        form, calls = _count_combines(_uncovered_hyperplane, cand)
        assert calls == []
        assert form == [one, zero, *(gf4._neg(row[0]) for row in gammas[drop].payload)]


class _CountedHash(int):
    """A GF(2) payload that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        _CountedHash.hashes += 1
        return int.__hash__(self)


def test_ds2_builds_one_witness_on_a_chart_whose_first_forms_contain_w(monkeypatch):
    """GF(2)^16 with W = span(e_2, ..., e_9): the first 2^7 canonical forms
    (1, 0, ..., 0, t) all vanish on W.  Two members, 0 and the cyclic shift
    S, cover the first two values of c_U in product order, -(column 0 of
    0) = 0 and -(column 0 of S) = e_8, so the witness is the third, found
    after three lookups of an 8-tuple of payloads.  DS2 walks no forms of
    K^16 and makes one reduction, of [T | d]."""
    gf2 = PrimeField(2)
    units = MatrixK.identity(gf2, 16).entries
    w = Subspace.from_rows(gf2, 16, units[1:9])
    u = Subspace.from_rows(gf2, 16, units[:1] + units[9:])
    ch = AffineChart(gf2, 16, w, u)
    shift = MatrixK(gf2, [[int(j == (i + 1) % 8) for j in range(8)] for i in range(8)])
    cand = DualSpreadCandidate(ch, [ch.zero_coord(), ComplementCoord(ch, shift)])
    assert check_pairwise_regular(cand) is None
    reductions = []
    reduce_rows = linalg.reduce_rows

    def count(*args):
        reductions.append(args)
        return reduce_rows(*args)

    def walk(*args):
        raise AssertionError("DS2 walked the forms of K^n")

    monkeypatch.setattr(dualspread, "reduce_rows", count)
    monkeypatch.setattr(linalg, "reduce_rows", count)
    monkeypatch.setattr(dualspread, "_projective_reps", walk)
    monkeypatch.setattr(algebra, "_projective_reps", walk)
    monkeypatch.setattr(dualspread, "_hyperplane", lambda domain, c: c)
    monkeypatch.setattr(gf2, "_payloads", lambda: (_CountedHash(0), _CountedHash(1)))
    _CountedHash.hashes = 0
    form = _uncovered_hyperplane(cand)
    lookups = _CountedHash.hashes // ch.m
    monkeypatch.undo()
    assert len(reductions) == 1
    assert lookups == len(cand.members) + 1
    # T*c = (c_W | c_U) with c_W = e_1 and c_U = (0, ..., 0, 1, 0)
    assert [sum(a * b for a, b in zip(row, form)) % 2 for row in ch._t.payload] == [
        1, *[0] * 7, *[0] * 6, 1, 0]
    check_witness(cand, _hyperplane(gf2, form))


def test_gf8_spread_is_a_dual_spread_of_gf2_to_the_sixth():
    ch = symmetric_chart(GF2, 3)
    spread = gf8_spread_gammas()
    assert len(set(spread)) == 8
    cand = DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in spread])
    assert is_dual_spread(cand).ok and ref_is_dual_spread(cand).ok
    repeated = DualSpreadCandidate(ch, cand.members + cand.members[3:4])
    assert check_pairwise_regular(repeated).pair == (3, 8)


def test_checks_keep_no_memory_across_calls():
    gf4 = ExtensionField(2, (1, 1, 1))
    gammas = regular_spread_gammas(gf4)
    points = list(itertools.product(gf4.elements(), repeat=2))
    # one member dropped (the DS2 and T2* scans run) and one repeated (DS1)
    shapes = (gammas[1:], gammas + gammas[:1])
    units = MatrixK.identity(gf4, 4)
    w = Subspace.spanned(gf4, 4, units.payload[:2])
    u = Subspace.spanned(gf4, 4, units.payload[2:])
    w0, u0 = (from_payloads(gf4, rows, 4) for rows in (units.payload[:2], units.payload[2:]))
    # a new chart every round: its own bases A*W0 of W and B*U0 of U
    bases = itertools.product([g for g in gamma_matrices(gf4, 2, 2) if is_invertible(g)],
                              repeat=2)

    def run():
        a, b = next(bases)
        ch = AffineChart(gf4, 4, w, u, b=b * u0, w_basis=a * w0)
        for members in shapes:
            is_dual_spread(DualSpreadCandidate(ch, [ComplementCoord(ch, g)
                                                    for g in members]))
        verify_family(TransversalFamily(ch, [(p, g.entries)
                                             for p, g in zip(points, shapes[0])]))

    run()                       # fills the shared GF(4) tables
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            run()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 32 * 1024, f"{grown} bytes retained over 200 calls"


# Which path DS1 takes.  Two complements of W are complementary only if
# 2m = n = m + k, so with m != k every pair fails, the first at (0, 1);
# only m = k over a finite field may bucket.  Over GF(2) with n = 5 and
# k = 3 (m = 2) the difference [[1,0,0],[0,1,0]] of the two members below
# is injective on K^2: bucketing the rows u*gamma_i would find no common
# row and pass the pair.
def test_ds1_fails_every_pair_when_dim_u_differs_from_dim_w(monkeypatch):
    # two 2-dimensional complements of W in GF(2)^5 are never complementary:
    # the non-square difference fails at (0, 1) with no reduction
    ch = AffineChart(GF2, 5, Subspace.from_rows(GF2, 5, [e(GF2, 5, i) for i in range(3)]))
    assert (ch.m, ch.k) == (2, 3)
    gammas = [MatrixK.zero(GF2, 2, 3), MatrixK(GF2, [[1, 0, 0], [0, 1, 0]])]
    cand = DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in gammas])
    reductions = []
    reduce_rows = linalg.reduce_rows
    monkeypatch.setattr(linalg, "reduce_rows",
                        lambda *args: reductions.append(args) or reduce_rows(*args))
    assert check_pairwise_regular(cand).pair == (0, 1)
    monkeypatch.undo()
    assert reductions == []
    assert is_dual_spread(cand).violation.pair == (0, 1)


def test_ds1_over_the_quaternions_fails_at_the_first_repeated_member():
    # gamma_0 - gamma_1 is regular, and so are the sums gamma_i + gamma_j:
    # only the difference gamma_0 - gamma_2 = 0 names the pair
    i, j = Q.i, Q.j
    ch = symmetric_chart(Q, 2)
    gammas = [MatrixK.identity(Q, 2), MatrixK(Q, [[i, 0], [0, j]]),
              MatrixK.identity(Q, 2)]
    assert is_invertible(gammas[0] - gammas[1])
    assert all(is_invertible(a + b) for a, b in itertools.combinations(gammas, 2))
    cand = DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in gammas])
    bad = check_pairwise_regular(cand)
    assert (bad.kind, bad.pair) == ("DS1", (0, 2))


# ---------------------------------------------------------------------------
# DS2 over skew fields and characteristic 0
# ---------------------------------------------------------------------------

INFINITE_DOMAINS = [Q, QuaternionAlgebra(-1, -1), QuaternionAlgebra(-1, -3), Rationals()]
INFINITE_IDS = ["Quat(Q)", "(-1,-1)", "(-1,-3)", "QQ"]


def random_scalar(rng, d):
    """A small random element: a rational, or a quaternion of four."""
    parts = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
    return d.scalar(parts[0] if isinstance(d, Rationals) else parts)


def infinite_charts(d, rng):
    """The default symmetric chart of K^4, and one whose W is no coordinate
    subspace and whose bases have random, over a skew field mostly
    non-central, entries: T = [W; B] is unitriangular but not the
    identity, so the witness needs the left reduction of [T | d]."""
    a, b, c = (random_scalar(rng, d) for _ in range(3))
    zero, one = d.zero(), d.one()
    w_rows = [(one, zero, a, zero), (zero, one, zero, b)]
    u_rows = [(zero, zero, one, c), (zero, zero, zero, one)]
    w, u = (Subspace.from_rows(d, 4, rows) for rows in (w_rows, u_rows))
    return [symmetric_chart(d, 2),
            AffineChart(d, 4, w, u, b=MatrixK(d, u_rows), w_basis=MatrixK(d, w_rows))]


@pytest.mark.parametrize("d", INFINITE_DOMAINS, ids=INFINITE_IDS)
def test_candidates_passing_ds1_fail_ds2_with_a_checked_witness(d):
    """Finitely many members never cover an infinite domain's hyperplanes:
    a sampled candidate fails DS1 as the reference says, or else fails DS2
    (T2* for its family) with one witness, checked on its own."""
    rng = random.Random(7)
    verdicts = set()
    for ch in infinite_charts(d, rng):
        points = [(d.scalar(t), d.zero()) for t in range(6)]
        for size in (1, 2, 3, 4, 5, 3):
            gammas = [MatrixK(d, [[random_scalar(rng, d) for _ in range(2)]
                                  for _ in range(2)]) for _ in range(size)]
            if size == 5:
                gammas[4] = gammas[1]           # a repeated member fails DS1
            cand = DualSpreadCandidate(ch, [ComplementCoord(ch, g) for g in gammas])
            report = is_dual_spread(cand)
            ds1 = ref_check_pairwise_regular(cand)
            verdicts.add(ds1 is None)
            if ds1 is not None:
                assert report.violation == ds1
                continue
            assert report.violation.kind == "DS2"
            check_witness(cand, report.violation.hyperplane)
            family = verify_family(TransversalFamily(
                ch, [(u, g.entries) for u, g in zip(points, gammas)]))
            assert family.violation.kind == "T2*"
            assert family.violation.hyperplane == report.violation.hyperplane
    assert verdicts == {True, False}


@pytest.mark.parametrize("d", INFINITE_DOMAINS + [PrimeField(2 ** 61 - 1)],
                         ids=INFINITE_IDS + ["GF(2^61-1)"])
def test_ds2_tries_n_plus_one_values_of_c_u(d, monkeypatch):
    """The N members t*J, t < N, with J = [[0, 1], [-1, 0]], cover the
    first N values (0, t) of c_U in product order, so the witness on the
    default chart is the form (1, 0 | 0, N), found among the first N + 1
    scalars alone, which are all that DS2 takes of the domain: on a prime
    field of 2^61 - 1 elements too."""
    ch = symmetric_chart(d, 2)
    j = MatrixK(d, [[0, 1], [-1, 0]])
    taken = []
    # the scalars are the first payloads of a finite field, else 0, ..., N
    if d.is_finite:
        payloads = d._payloads
        monkeypatch.setattr(d, "_payloads", lambda: (taken.append(x) or x for x in payloads()))
    else:
        canon = d._canon
        monkeypatch.setattr(d, "_canon", lambda x: taken.append(x) or canon(x))
    for n in range(1, 5):
        cand = DualSpreadCandidate(ch, [ComplementCoord(ch, j.scale_left(d.scalar(t)))
                                        for t in range(n)])
        taken.clear()
        report = is_dual_spread(cand)
        assert len(taken) == n + 1
        assert report.violation.kind == "DS2"
        assert report.violation.hyperplane == _hyperplane(d, [d._canon(x) for x in (1, 0, 0, n)])
        check_witness(cand, report.violation.hyperplane)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ADDRESS_SPACE_CAP = 600 * 2 ** 20


def _capped():
    """Cap the child's address space, so a listing of the field fails fast."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, hard))


def test_ds2_over_a_large_extension_field_takes_n_plus_one_codes(tmp_path):
    """GF(p^2), p = 2^61 - 1, has q = p^2 codes; DS2 takes N + 1 of them
    from the lazy `_payloads` sequence, so `check-dual-spread` of two
    members answers DS2 within an address-space cap that a listing of the
    codes would exceed, with a witness checked on its own."""
    config = {"field": "gf(2305843009213693951^2; modulus=[1,0,1])", "n": 4, "k": 2}
    gammas = [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    (tmp_path / "spread.json").write_text(json.dumps({"kind": "dual-spread",
                                                      "gammas": gammas}))
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-m", "complaff.cli", "check-dual-spread",
                          str(tmp_path / "spread.json"), "--config", str(tmp_path / "cfg.json"),
                          "--json"], capture_output=True, text=True, env=env,
                         preexec_fn=_capped, timeout=60)
    assert (out.returncode, out.stderr) == (1, "")
    report = json.loads(out.stdout)
    assert report["result"] == "FAIL" and report["violation"]["kind"] == "DS2"
    ch = chart_from_config(config)
    cand = DualSpreadCandidate(ch, [ch.coord(g) for g in gammas])
    check_witness(cand, subspace_from_json(ch.domain, report["violation"]["hyperplane"]))
