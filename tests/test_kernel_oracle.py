"""The payload elimination kernel against the boxed reference.

Hypothesis draws small matrices over GF(2), GF(3), GF(4), GF(9) and the
rational quaternions (zero-heavy entries, rank-deficient rows, zero
columns, 0 x n shapes).  Every result of the payload routines must equal
the result of the boxed reference in boxed_reference.py exactly: the
same reduced matrix, pivots and transform, the same canonical bases.
The chart's coordinate_of is checked the same way against the lattice
route.  Over GF(p) sympy, when installed, is a second oracle for rank and
nullspace.  Examples are derandomized, so the suite stays deterministic.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxed_reference import (
    ref_apply,
    ref_coefficients,
    ref_coordinate_of,
    ref_inverse,
    ref_join,
    ref_kernel,
    ref_meet,
    ref_product,
    ref_rank,
    ref_row_space,
    ref_rref,
    ref_solve,
)
from complaff.algebra import ExtensionField, PrimeField, Quaternions
from complaff.chart import AffineChart, symmetric_chart
from complaff.linalg import (
    MatrixK,
    apply,
    inverse,
    is_invertible,
    kernel,
    rank,
    row_space,
    rref,
    solve,
)
from complaff.projective import Subspace

DOMAINS = [PrimeField(2), PrimeField(3), ExtensionField(2, (1, 1, 1)),
           ExtensionField(3, (1, 0, 1)), Quaternions()]
IDS = ["GF2", "GF3", "GF4", "GF9", "Quat"]
QUAT_PARTS = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))

ORACLE = settings(derandomize=True, database=None, max_examples=40,
                  deadline=None, suppress_health_check=[HealthCheck.too_slow])

domains = pytest.mark.parametrize("domain", DOMAINS, ids=IDS)


def elements(domain):
    if domain.is_finite:
        return st.sampled_from(domain.elements())
    return st.tuples(*[st.sampled_from(QUAT_PARTS)] * 4).map(domain.scalar)


@st.composite
def matrices(draw, domain, rows=None, cols=None):
    r = draw(st.integers(0, 4)) if rows is None else rows
    c = draw(st.integers(1, 5)) if cols is None else cols
    zero = domain.zero()
    entry = st.one_of(st.just(zero), elements(domain))
    m = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if r >= 2 and draw(st.booleans()):       # a row that is a left multiple
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        k = draw(elements(domain))
        m[i] = [k * x for x in m[j]]
    if r and draw(st.booleans()):            # a zero column
        j = draw(st.integers(0, c - 1))
        for row in m:
            row[j] = zero
    return MatrixK(domain, m, cols=c)


def vectors(domain, n):
    return st.lists(elements(domain), min_size=n, max_size=n).map(tuple)


@domains
@ORACLE
@given(data=st.data())
def test_rref_matches_reference(domain, data):
    m = data.draw(matrices(domain))
    got, want = rref(m), ref_rref(m)
    assert got.matrix == want.matrix
    assert got.pivots == want.pivots
    assert got.transform == want.transform


@domains
@ORACLE
@given(data=st.data())
def test_rank_row_space_kernel_match_reference(domain, data):
    m = data.draw(matrices(domain))
    assert rank(m) == ref_rank(m)
    assert row_space(m) == ref_row_space(m)
    assert kernel(m) == ref_kernel(m)
    assert is_invertible(m) == (m.is_square() and ref_rank(m) == m.rows)


@domains
@ORACLE
@given(data=st.data())
def test_inverse_matches_reference(domain, data):
    n = data.draw(st.integers(0, 4))
    m = data.draw(matrices(domain, rows=n, cols=n)) if n else MatrixK(domain, [], cols=0)
    got = inverse(m)
    assert got == ref_inverse(m)
    if got is not None:
        assert ref_product(m, got) == MatrixK.identity(domain, n)


@domains
@ORACLE
@given(data=st.data())
def test_solve_matches_reference(domain, data):
    m = data.draw(matrices(domain))
    if data.draw(st.booleans()):
        rhs = ref_apply(data.draw(vectors(domain, m.rows)), m)   # in the row space
    else:
        rhs = data.draw(vectors(domain, m.cols))
    assert solve(m, rhs) == ref_solve(m, rhs)


@domains
@ORACLE
@given(data=st.data())
def test_apply_and_product_match_reference(domain, data):
    a = data.draw(matrices(domain))
    b = data.draw(matrices(domain, rows=a.cols))
    v = data.draw(vectors(domain, a.rows))
    assert apply(v, a) == ref_apply(v, a)
    assert a * b == ref_product(a, b)


@domains
@ORACLE
@given(data=st.data())
def test_subspace_lattice_matches_reference(domain, data):
    n = data.draw(st.integers(1, 5))
    a = data.draw(matrices(domain, cols=n))
    b = data.draw(matrices(domain, cols=n))
    sa = Subspace.from_rows(domain, n, a.entries)
    sb = Subspace.from_rows(domain, n, b.entries)
    assert sa.basis == ref_row_space(a)
    assert (sa & sb).basis == ref_meet(a, b)
    assert (sa + sb).basis == ref_join(a, b)
    assert sa.contains(sb) == all(ref_coefficients(sa.basis, r) is not None
                                  for r in sb.basis.entries)
    v = (data.draw(vectors(domain, n)) if data.draw(st.booleans())
         else ref_apply(data.draw(vectors(domain, b.rows)), b))
    assert sa.coefficients_of(v) == ref_coefficients(sa.basis, v)
    assert sa.contains_vector(v) == (ref_coefficients(sa.basis, v) is not None)


# ---------------------------------------------------------------------------
# chart coordinates against the lattice route
# ---------------------------------------------------------------------------

def oracle_charts(domain):
    """A symmetric chart of K^4, its subchart W (+) K b_1 (a proper space),
    and a chart of K^5 whose W is no coordinate subspace (m = 3, k = 2)."""
    sym = symmetric_chart(domain, 2)
    one, zero = domain.one(), domain.zero()
    w5 = Subspace.from_rows(domain, 5, [[one, zero, one, zero, zero],
                                        [zero, one, zero, zero, one]])
    return [sym, sym.subchart([1]).chart, AffineChart(domain, 5, w5)]


@st.composite
def chart_subspaces(draw, domain, kind):
    """(chart, S) with S of the given kind: a complement of W, an m-space
    meeting W, a subspace of another dimension, or an m-space outside
    the (proper) space of a subchart."""
    charts = oracle_charts(domain)
    ch = charts[1] if kind == "outside" else draw(st.sampled_from(charts))
    gamma = draw(matrices(domain, rows=ch.m, cols=ch.k))
    rows = list(ch.complement(gamma).basis.entries)
    if kind == "meets_w":
        nonzero = vectors(domain, ch.k).filter(lambda v: not all(x.is_zero() for x in v))
        rows[0] = apply(draw(nonzero), ch.w_matrix)
    elif kind == "wrong_dim":
        r = draw(st.sampled_from([r for r in range(ch.ambient) if r != ch.m]))
        rows = draw(matrices(domain, rows=r, cols=ch.ambient)).entries
    elif kind == "outside":
        left_out = charts[0].b[0]          # the b_0 that charts[1] leaves out
        rows[0] = tuple(x + y for x, y in zip(rows[0], left_out))
    return ch, Subspace.from_rows(domain, ch.ambient, rows)


@domains
@pytest.mark.parametrize("kind", ["complement", "meets_w", "wrong_dim", "outside"])
@settings(ORACLE, max_examples=15)
@given(data=st.data())
def test_coordinate_of_matches_lattice_route(domain, kind, data):
    ch, s = data.draw(chart_subspaces(domain, kind))
    want = ref_coordinate_of(ch, s)
    try:
        got = ch.coordinate_of(s).gamma
    except ValueError:
        got = None
    assert got == want
    if kind == "complement":
        assert got is not None and ch.complement(got) == s
    elif kind != "wrong_dim":
        assert got is None


# ---------------------------------------------------------------------------
# sympy as an independent oracle over GF(p)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
@ORACLE
@given(data=st.data())
def test_rank_and_nullspace_against_sympy(p, data):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    domain = PrimeField(p)
    m = data.draw(matrices(domain))
    ints = [[x.payload for x in row] for row in m.entries]
    field = sympy.GF(p)
    dm = DomainMatrix([[field(x) for x in row] for row in ints], (m.rows, m.cols),
                      field)
    assert rank(m) == (dm.rank() if m.rows else 0)
    # the left kernel of M is the right nullspace of its transpose
    theirs = dm.transpose().nullspace() if m.rows else None
    null = [] if theirs is None or theirs.shape[0] == 0 else theirs.rref()[0].to_list()
    expected = [[int(x) % p for x in row] for row in null if any(int(x) % p for x in row)]
    assert [[x.payload for x in row] for row in kernel(m).entries] == expected
