"""Z-structures, transversals and cones against their boxed references.

The library computes maximal central subspaces, transversal membership
and cone decompositions on payload rows and matrix products.  The
references in boxed_reference.py are the former boxed versions: one
Scalar vector at a time, through coordinates and back, the quaternion
Z-system solved over Rationals.  Hypothesis draws charts whose U-basis
is a random base change of the standard one, so the coordinates are not
the ambient entries.  Examples are derandomized.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from boxed_reference import (
    ref_apply,
    ref_cone_decompose,
    ref_maximal_central_subspace,
    ref_rank,
    ref_transversal_contains,
)
from complaff.algebra import ExtensionField, PrimeField, Quaternions
from complaff.chart import AffineChart, AffineLine, symmetric_chart
from complaff.linalg import MatrixK
from complaff.projective import Subspace
from complaff.reguli import cone_decompose, regulus_through, transversals_of

GF3 = PrimeField(3)
GF4 = ExtensionField(2, (1, 1, 1))
Q = Quaternions()

ORACLE = settings(derandomize=True, database=None, max_examples=40,
                  deadline=None, suppress_health_check=[HealthCheck.too_slow])

RATIONALS = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
rationals = st.sampled_from(RATIONALS).map(lambda c: Q.scalar((c, 0, 0, 0)))


def elements(domain):
    if domain.is_finite:
        return st.sampled_from(domain.elements())
    return st.tuples(*[st.sampled_from(RATIONALS)] * 4).map(domain.scalar)


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
# maximal central subspaces over Quat(Q)
# ---------------------------------------------------------------------------

@st.composite
def u_rows(draw, ch):
    """Coefficient rows over the chart's U-basis: a left multiple of a
    rational row (central), a sum of two such with different multipliers,
    or random quaternions."""
    m = ch.m

    def central():
        k = draw(elements(Q))
        return [k * c for c in draw(st.lists(rationals, min_size=m, max_size=m))]

    kind = draw(st.sampled_from(["central", "central", "twisted", "random"]))
    if kind == "central":
        return central()
    if kind == "twisted":
        return [x + y for x, y in zip(central(), central())]
    return draw(st.lists(elements(Q), min_size=m, max_size=m))


@pytest.mark.parametrize("m", [2, 3])
@settings(ORACLE, max_examples=80)
@given(data=st.data())
def test_maximal_central_subspace_matches_boxed(m, data):
    ch = data.draw(charts(Q, m))
    b = MatrixK(Q, ch.b, cols=ch.ambient)
    coeffs = [data.draw(u_rows(ch)) for _ in range(data.draw(st.integers(1, m)))]
    a = Subspace.from_rows(Q, ch.ambient, [ref_apply(c, b) for c in coeffs])
    got = ch.z.maximal_central_subspace(a)
    assert got.basis == ref_maximal_central_subspace(b, a.basis)
    assert a.contains(got)


# ---------------------------------------------------------------------------
# transversal membership
# ---------------------------------------------------------------------------

@st.composite
def reguli(draw, domain):
    ch = draw(charts(domain, 2))
    g1 = draw(matrices(domain, 2, 2))
    alpha = draw(invertible(domain, 2))
    return ch, regulus_through(ch.coord(g1.entries), ch.coord((g1 + alpha).entries))


@st.composite
def planes(draw, ch, reg, kind):
    """A 2-space of the given kind: a transversal; span{z^alpha, z^beta + z}
    for any nonzero z in U, a Z-point or not; a transversal with a W-vector
    added to its second row; skew to W (a complement of W); meeting W in a
    point; or any 2-space."""
    dom, n = ch.domain, ch.ambient
    w = MatrixK(dom, ch.w_basis, cols=n)
    pair = st.lists(elements(dom), min_size=2, max_size=2)
    if kind == "transversal":
        return draw(st.sampled_from(transversals_of(reg).lines()))
    if kind in ("any_point", "perturbed"):
        z = draw(pair.filter(lambda v: not all(x.is_zero() for x in v)))
        b = MatrixK(dom, ch.b, cols=n)
        rows = [ref_apply(ref_apply(z, reg.alpha), w),
                [x + y for x, y in zip(ref_apply(ref_apply(z, reg.beta), w),
                                       ref_apply(z, b))]]
        if kind == "perturbed":
            rows[1] = [x + y for x, y in zip(rows[1], ref_apply(draw(pair), w))]
    elif kind == "skew":
        rows = ch.complement(draw(matrices(dom, 2, 2))).basis.entries
    else:
        rows = draw(matrices(dom, 2, n)).entries
        if kind == "through_w":
            rows = [ref_apply(draw(pair), w), rows[1]]
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
    assert cone.base_chart.b == want["u_prime_basis"]
    assert cone.base.alpha == want["alpha_prime"]
    assert cone.exact == want["exact"]
