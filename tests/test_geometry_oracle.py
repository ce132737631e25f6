"""Z-structures, transversals and cones against their boxed references.

The library computes maximal central subspaces, transversal membership
and cone decompositions on payload rows and matrix products.  The
references in boxed_reference.py are the former boxed versions: one
Scalar vector at a time, through coordinates and back, the quaternion
Z-system solved over Rationals.  Reconstruction from transversals is
compared with the former construction, which builds every member by
joins and meets and re-checks every incidence, and singular sets with the
former route through the meet X & W.  Hypothesis draws charts whose U-basis
is a random base change of the standard one, so the coordinates are not
the ambient entries.  Examples are derandomized.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from boxed_reference import (
    QuaternionAlgebra,
    ref_apply,
    ref_central_complement,
    ref_cone_decompose,
    ref_maximal_central_subspace,
    ref_rank,
    ref_reconstruct_from_transversals,
    ref_singular_set,
    ref_transversal_contains,
)
from complaff.algebra import ExtensionField, PrimeField, Quaternions
from complaff.chart import AffineChart, AffineLine, Subchart, symmetric_chart
from complaff.dualspread import SingularSet
from complaff.errors import ReconstructionError
from complaff.linalg import MatrixK, kernel
from complaff.projective import Subspace, ZStructure
from complaff.reguli import (
    cone_decompose,
    reconstruct_from_transversals,
    regulus_through,
    transversals_of,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, (1, 1, 1))
GF5 = PrimeField(5)
Q = Quaternions()

ORACLE = settings(derandomize=True, database=None, max_examples=40,
                  deadline=None, suppress_health_check=[HealthCheck.too_slow])

RATIONALS = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


def elements(domain):
    if domain.is_finite:
        return st.sampled_from(domain.elements())
    return st.tuples(*[st.sampled_from(RATIONALS)] * 4).map(domain.scalar)


def central_scalars(domain):
    """Elements of the center: all of a finite field, else rationals."""
    if domain.is_finite:
        return elements(domain)
    return st.sampled_from(RATIONALS).map(lambda c: domain.scalar((c, 0, 0, 0)))


rationals = central_scalars(Q)


def matrices(domain, rows, cols):
    entry = elements(domain)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda m: MatrixK(domain, m, cols=cols))


@st.composite
def invertible(draw, domain, n):
    m = draw(matrices(domain, n, n))
    assume(ref_rank(m) == n)
    return m


@st.composite
def charts(draw, domain, m):
    """The symmetric chart of K^(2m) with its U-basis changed by a random
    invertible m x m matrix."""
    sym = symmetric_chart(domain, m)
    b = MatrixK(domain, sym.b, cols=2 * m)
    rows = [ref_apply(row, b) for row in draw(invertible(domain, m)).entries]
    return AffineChart(domain, 2 * m, sym.w, sym.u, b=rows)


# ---------------------------------------------------------------------------
# central subspaces over the three skew fields and the finite fields
# ---------------------------------------------------------------------------

SKEW = [Q, QuaternionAlgebra(-1, -1), QuaternionAlgebra(-1, -3)]
SKEW_IDS = ["Quat", "(-1,-1)", "(-1,-3)"]


@st.composite
def coefficient_rows(draw, domain, dim):
    """Coefficient rows over a reference basis: a left multiple of a
    central row, a sum of two such with different multipliers, or random
    entries."""
    def central():
        k = draw(elements(domain).filter(lambda x: not x.is_zero()))
        return [k * c for c in draw(st.lists(central_scalars(domain),
                                             min_size=dim, max_size=dim))]

    kind = draw(st.sampled_from(["central", "central", "twisted", "random"]))
    if kind == "central":
        return central()
    if kind == "twisted":
        return [x + y for x, y in zip(central(), central())]
    return draw(st.lists(elements(domain), min_size=dim, max_size=dim))


@st.composite
def central_queries(draw, domain):
    """(Z-structure, its basis B, A): B of dimension 1-4 spanning a proper
    subspace of K^(dim + 1) or K^(dim + 2), and A <= span(B) of every
    dimension r from 0 to dim."""
    dim = draw(st.sampled_from([1, 2, 3, 4]))
    b = draw(matrices(domain, dim, dim + draw(st.integers(1, 2))))
    assume(ref_rank(b) == dim)
    r = draw(st.sampled_from(range(dim + 1)))
    rows = [ref_apply(draw(coefficient_rows(domain, dim)), b) for _ in range(r)]
    a = Subspace.from_rows(domain, b.cols, rows)
    assume(a.dim == r)
    return ZStructure(domain, b), b, a


@pytest.mark.parametrize("m", [2, 3])
@settings(ORACLE, max_examples=80)
@given(data=st.data())
def test_maximal_central_subspace_matches_boxed(m, data):
    """On charts whose U-basis is a random base change, over each skew field."""
    domain = data.draw(st.sampled_from(SKEW))
    ch = data.draw(charts(domain, m))
    b = MatrixK(domain, ch.b, cols=ch.ambient)
    coeffs = [data.draw(coefficient_rows(domain, m))
              for _ in range(data.draw(st.integers(1, m)))]
    a = Subspace.from_rows(domain, ch.ambient, [ref_apply(c, b) for c in coeffs])
    got = ch.z.maximal_central_subspace(a)
    assert got.basis == ref_maximal_central_subspace(b, a.basis)
    assert a.contains(got)


@pytest.mark.parametrize("domain", SKEW, ids=SKEW_IDS)
@settings(ORACLE, max_examples=60)
@given(data=st.data())
def test_central_subspace_queries_match_boxed(domain, data):
    z, b, a = data.draw(central_queries(domain))
    got = z.maximal_central_subspace(a)
    assert got.basis == ref_maximal_central_subspace(b, a.basis)
    assert a.contains(got)
    assert z.is_central_subspace(a) == (got == a)


@pytest.mark.parametrize("domain", [GF2, GF3, GF4, *SKEW],
                         ids=["GF2", "GF3", "GF4", *SKEW_IDS])
@settings(ORACLE, max_examples=40)
@given(data=st.data())
def test_central_complement_matches_boxed(domain, data):
    """The same basis, and b_i inside it exactly for the chosen indices."""
    z, b, a = data.draw(central_queries(domain))
    got = z.central_complement(a)
    basis, chosen = ref_central_complement(b, a.basis)
    assert got.basis == basis
    inside = [got.coefficients_of(row) is not None for row in b.entries]
    assert inside == [row in chosen for row in b.entries]
    assert z.is_central_subspace(got)
    assert z.is_central_subspace(a) == (z.maximal_central_subspace(a) == a)


# ---------------------------------------------------------------------------
# transversal membership
# ---------------------------------------------------------------------------

@st.composite
def reguli(draw, domain, m=2):
    ch = draw(charts(domain, m))
    g1 = draw(matrices(domain, m, m))
    alpha = draw(invertible(domain, m))
    return ch, regulus_through(ch.coord(g1.entries), ch.coord((g1 + alpha).entries))


@st.composite
def planes(draw, ch, reg, kind):
    """A 2-space of the given kind: a transversal; span{z^alpha, z^beta + z}
    for any nonzero z in U, a Z-point or not; a transversal with a W-vector
    added to its second row; a transversal with a random vector of itself,
    of W, of the chart's space or of K^n added to one of its rows; skew to
    W (a complement of W); meeting W in a point; inside W; or any 2-space."""
    dom, n, r = ch.domain, ch.ambient, ch.k          # dim U = dim W = r
    w = MatrixK(dom, ch.w_basis, cols=n)
    coeffs = st.lists(elements(dom), min_size=r, max_size=r)
    if kind == "transversal":
        return draw(st.sampled_from(transversals_of(reg).lines()))
    if kind in ("any_point", "perturbed"):
        z = draw(coeffs.filter(lambda v: not all(x.is_zero() for x in v)))
        b = MatrixK(dom, ch.b, cols=n)
        rows = [ref_apply(ref_apply(z, reg.alpha), w),
                [x + y for x, y in zip(ref_apply(ref_apply(z, reg.beta), w),
                                       ref_apply(z, b))]]
        if kind == "perturbed":
            rows[1] = [x + y for x, y in zip(rows[1], ref_apply(draw(coeffs), w))]
    elif kind == "row_perturbed":
        rows = list(draw(planes(ch, reg, "transversal")).basis.entries)
        source = MatrixK(dom, draw(st.sampled_from([
            rows, ch.w_basis, ch.w_basis + ch.b, MatrixK.identity(dom, n).entries])),
            cols=n)
        shift = ref_apply(draw(st.lists(elements(dom), min_size=source.rows,
                                        max_size=source.rows)), source)
        i = draw(st.integers(0, 1))
        rows[i] = [x + y for x, y in zip(rows[i], shift)]
    elif kind == "skew":
        rows = ch.complement(draw(matrices(dom, r, r))).basis.entries
    elif kind == "inside_w":
        rows = [ref_apply(draw(coeffs), w) for _ in range(2)]
    else:
        rows = draw(matrices(dom, 2, n)).entries
        if kind == "through_w":
            rows = [ref_apply(draw(coeffs), w), rows[1]]
    t = Subspace.from_rows(dom, n, rows)
    assume(t.dim == 2)
    return t


@pytest.mark.parametrize("domain", [GF3, GF4, Q], ids=["GF3", "GF4", "Quat"])
@pytest.mark.parametrize("kind", ["transversal", "any_point", "perturbed", "skew",
                                  "through_w", "random"])
@settings(ORACLE, max_examples=25)
@given(data=st.data())
def test_transversal_contains_matches_boxed(domain, kind, data):
    ch, reg = data.draw(reguli(domain))
    t = data.draw(planes(ch, reg, kind))
    got = transversals_of(reg).contains(t)
    assert got == ref_transversal_contains(ch, reg.alpha, reg.beta, t.basis)
    if kind == "transversal" or (kind == "any_point" and domain.is_finite):
        assert got
    elif kind == "skew":
        assert not got


@st.composite
def cone_base(draw, domain, m):
    """The base regulus of a cone l(alpha, 0) with rank(alpha) = m - 1 in a
    random chart of K^(2m); its chart space im(alpha) (+) U' is proper."""
    ch = draw(charts(domain, m))
    alpha = draw(matrices(domain, m, m))
    k = draw(elements(domain))
    alpha = MatrixK(domain, [[k * x for x in alpha.entries[1]], *alpha.entries[1:]],
                    cols=m)
    assume(ref_rank(alpha) == m - 1)
    return cone_decompose(AffineLine(ch, alpha, MatrixK.zero(domain, m, m))).base


# the base regulus of a cone with m = 2 lives in a chart with dim W = 1
MEMBERSHIP_CASES = [
    pytest.param(dom, m, source, kind, id=f"{name}-{m}-{source}-{kind}")
    for name, dom, m in (("GF2", GF2, 2), ("GF2", GF2, 3), ("GF3", GF3, 2),
                         ("GF3", GF3, 3), ("GF4", GF4, 2), ("GF4", GF4, 3),
                         ("Quat", Q, 2))
    for source in ("chart", "cone")
    for kind in ("any_point", "row_perturbed", "inside_w", "random")
    if (m, source, kind) != (2, "cone", "inside_w")]


@pytest.mark.parametrize("domain, m, source, kind", MEMBERSHIP_CASES)
@settings(ORACLE, max_examples=12, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_transversal_contains_matches_meet_reference(domain, m, source, kind, data):
    """Membership read off chart coordinates against the trace on W, also
    for m = 3 and in the proper chart space of a cone's base."""
    reg = (data.draw(cone_base(domain, m)) if source == "cone"
           else data.draw(reguli(domain, m))[1])
    t = data.draw(planes(reg.chart, reg, kind))
    got = transversals_of(reg).contains(t)
    assert got == ref_transversal_contains(reg.chart, reg.alpha, reg.beta, t.basis)
    if kind == "any_point" and domain.is_finite:
        assert got
    elif kind == "inside_w":
        assert not got


# ---------------------------------------------------------------------------
# cone decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain, m", [(GF3, 2), (GF4, 2), (Q, 2), (Q, 3)],
                         ids=["GF3", "GF4", "Quat-2", "Quat-3"])
@settings(ORACLE, max_examples=25)
@given(data=st.data())
def test_cone_decompose_matches_boxed(domain, m, data):
    ch = data.draw(charts(domain, m))
    alpha = data.draw(matrices(domain, m, m))
    if data.draw(st.booleans()):             # force a kernel: row 0 from row 1
        k = data.draw(elements(domain) if domain.is_finite
                      else st.one_of(rationals, elements(domain)))
        alpha = MatrixK(domain, [[k * x for x in alpha.entries[1]], *alpha.entries[1:]],
                        cols=m)
    assume(not alpha.is_zero())
    cone = cone_decompose(AffineLine(ch, alpha, MatrixK.zero(domain, m, m)))
    want = ref_cone_decompose(ch, alpha)
    assert cone.vertex.basis == want["vertex"]
    assert cone.kernel.basis == want["kernel"]
    assert cone.u_prime.basis == want["u_prime"]
    assert cone.base.chart.b == want["u_prime_basis"]
    assert cone.base.alpha == want["alpha_prime"]
    assert cone.exact == want["exact"]


# ---------------------------------------------------------------------------
# reconstruction from transversals
# ---------------------------------------------------------------------------

@st.composite
def transversal_sets(draw, domain, m, kind):
    """The transversals of a random regulus in shuffled order: all of them,
    a proper subset of at least three, or at least three with one replaced
    by a random line skew to the others."""
    _, reg = draw(reguli(domain, m))
    lines = list(transversals_of(reg).lines())
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(lines)
    if kind == "full":
        return reg, lines
    top = len(lines) - 1 if kind == "subset" else len(lines)
    lines = lines[:draw(st.integers(3, top))]
    if kind == "replaced":
        i = draw(st.integers(0, len(lines) - 1))
        others = lines[:i] + lines[i + 1:]
        elems, n = domain.elements(), 2 * m
        for _ in range(200):
            t = Subspace.from_rows(domain, n, [[rng.choice(elems) for _ in range(n)]
                                               for _ in range(2)])
            if t.dim == 2 and all((t & o).dim == 0 for o in others):
                break
        assume(t.dim == 2 and all((t & o).dim == 0 for o in others))
        lines[i] = t
    return reg, lines


def _outcome(reconstruct, lines):
    """The member tuple, or the class of the ReconstructionError raised."""
    try:
        return reconstruct(lines)
    except ReconstructionError as exc:
        return type(exc)


# GF(2)^4 has only three transversals per regulus, so no proper subset;
# GF(5) lists members past parameters 0 and 1 (q - 2 = 3 of them)
RECONSTRUCT_CASES = [
    pytest.param(dom, m, kind, id=f"{name}-{m}-{kind}")
    for name, dom, m in (("GF2", GF2, 2), ("GF3", GF3, 2), ("GF4", GF4, 2),
                         ("GF5", GF5, 2), ("GF2", GF2, 3))
    for kind in ("full", "subset", "replaced")
    if (name, m, kind) != ("GF2", 2, "subset")]


@pytest.mark.parametrize("domain, m, kind", RECONSTRUCT_CASES)
@settings(ORACLE, max_examples=20, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.filter_too_much])   # invertible GF(2) 3x3
@given(data=st.data())
def test_reconstruct_matches_join_and_meet_construction(domain, m, kind, data):
    reg, lines = data.draw(transversal_sets(domain, m, kind))
    got = _outcome(reconstruct_from_transversals, lines)
    assert got == _outcome(ref_reconstruct_from_transversals, lines)
    if kind == "full":
        assert set(got) == set(reg.members())


# ---------------------------------------------------------------------------
# singular sets against the lattice route
# ---------------------------------------------------------------------------

@st.composite
def wide_charts(draw):
    """GF(2)^5 with dim W = 2 off the coordinate axes and dim U = 3, the
    U-basis changed by a random invertible matrix."""
    w = Subspace.from_rows(GF2, 5, [[1, 0, 0, 1, 0], [0, 1, 0, 0, 1]])
    u = AffineChart(GF2, 5, w).u
    rows = [ref_apply(row, u.basis) for row in draw(invertible(GF2, 3)).entries]
    return AffineChart(GF2, 5, w, u, b=rows)


SINGULAR_CHARTS = {
    "GF2": lambda: charts(GF2, 2),
    "GF3": lambda: charts(GF3, 2),
    "GF4": lambda: charts(GF4, 2),
    "GF3-subchart": lambda: charts(GF3, 3).map(lambda ch: Subchart(ch, (0, 2)).chart),
    "GF2-k2-m3": wide_charts,
}


@pytest.mark.parametrize("case", SINGULAR_CHARTS)
@settings(ORACLE, max_examples=25, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.filter_too_much])   # invertible GF(2) 3x3
@given(data=st.data())
def test_singular_set_matches_lattice_route(case, data):
    """H and the members of S(X) for X the kernel of a form c on the
    chart's space, in chart coordinates, with c nonzero on W."""
    ch = data.draw(SINGULAR_CHARTS[case]())
    dom, n = ch.domain, ch.ambient
    form = data.draw(st.lists(elements(dom), min_size=ch.space.dim, max_size=ch.space.dim))
    form[data.draw(st.integers(0, ch.k - 1))] = dom.one()
    ker = kernel(MatrixK(dom, [[c] for c in form], cols=1))
    x = Subspace.spanned(dom, n, (ker * MatrixK(dom, ch.w_basis + ch.b, cols=n)).payload)
    sing = SingularSet(ch, x)
    h, members = ref_singular_set(ch, x)
    assert sing.h == h
    assert set(sing.coords()) == members
    assert len(members) == dom.order ** (h.dim * ch.m)
