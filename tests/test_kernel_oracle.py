"""The payload elimination kernel against the boxed reference.

Hypothesis draws small matrices over GF(2), GF(3), GF(4), GF(9) and the
rational quaternions (zero-heavy entries, rank-deficient rows, zero
columns, 0 x n shapes).  Every result of the payload routines must equal
the result of the boxed reference in boxed_reference.py exactly: the
same reduced matrix, pivots and transform, the same canonical bases.
Boxed quaternion arithmetic runs on the integer payloads of
Quaternions, so those are checked first against plain ``Fraction``
arithmetic (``QuaternionAlgebra(-1, -1)``), which makes the chain of
oracles independent of the payload code.
The chart's coordinate_of is checked the same way against the lattice
route.  The GF(p) reduction in plain ints is checked against the generic
loop of ``reduce_rows`` on the same rows, over GF(2), GF(3), GF(5), GF(7)
and GF(2^61 - 1), and so is the Quat(Q) reduction on integer 5-tuples.
Over GF(p) sympy, when installed, is a second oracle for rank and
nullspace.  Examples are derandomized, so the suite stays deterministic.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxed_reference import (
    QuaternionAlgebra,
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
from complaff.algebra import ExtensionField, PrimeField, Quaternions, Scalar
from complaff.chart import AffineChart, Subchart, symmetric_chart
from complaff.linalg import (
    MatrixK,
    apply,
    boxed,
    inverse,
    is_invertible,
    kernel,
    payload_row,
    rank,
    reduce_rows,
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


@st.composite
def shortcut_matrices(draw, domain):
    """A matrix for each route of ``Echelon.coordinates``: full column rank
    (rows shuffled from a general matrix and the identity), already reduced
    (the boxed echelon basis), with and without trailing zero rows, or
    general."""
    kind = draw(st.sampled_from(["full_rank", "reduced", "reduced_zero_rows",
                                 "general"]))
    m = draw(matrices(domain))
    if kind == "full_rank":
        rows = list(m.entries) + list(MatrixK.identity(domain, m.cols).entries)
        rows = draw(st.permutations(rows))
    elif kind == "general":
        return m
    else:
        rows = list(ref_row_space(m).entries)
        if kind == "reduced_zero_rows":
            rows += [(domain.zero(),) * m.cols] * draw(st.integers(1, 2))
    return MatrixK(domain, rows, cols=m.cols)


@pytest.mark.parametrize("domain", [DOMAINS[0], DOMAINS[2], DOMAINS[4]],
                         ids=["GF2", "GF4", "Quat"])
@ORACLE
@given(data=st.data())
def test_coordinates_shortcuts_match_reference(domain, data):
    """x with x*M = v exactly when v is in the row space, on every route,
    and the same x as the boxed transform product."""
    m = data.draw(shortcut_matrices(domain))
    if data.draw(st.booleans()):
        v = ref_apply(data.draw(vectors(domain, m.rows)), m)    # in the row space
    else:
        v = data.draw(vectors(domain, m.cols))
    x = rref(m).coordinates(payload_row(domain, v))
    want = ref_solve(m, v)
    assert (x is None) == (want is None)
    if x is not None:
        assert len(x) == m.rows
        assert ref_apply(boxed(domain, x), m) == v
        assert boxed(domain, x) == want


def test_coordinates_of_zero_over_a_zero_matrix_keep_the_row_count():
    """M = [[0]]: no pivot, no row operation, and x = (0,), not ()."""
    gf2 = DOMAINS[0]
    assert rref(MatrixK(gf2, [[0]])).coordinates([0]) == [0]
    assert rref(MatrixK(gf2, [[0]])).coordinates([1]) is None
    assert solve(MatrixK(gf2, [[0], [0]]), (gf2.zero(),)) == (gf2.zero(),) * 2


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
    return [sym, Subchart(sym, [1]).chart, AffineChart(domain, 5, w5)]


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
# quaternion payloads against Fraction arithmetic
# ---------------------------------------------------------------------------

QUAT = Quaternions()
HAMILTON = QuaternionAlgebra(-1, -1)
_components = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
    st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
              st.integers(10 ** 19, 10 ** 20 - 1)))
fraction_quaternions = st.tuples(*[_components] * 4)


def assert_canonical(w):
    a, b, c, d, den = w
    assert all(type(x) is int for x in w)
    assert den > 0 and math.gcd(a, b, c, d, den) == 1
    assert (w == (0, 0, 0, 0, 1)) == (not (a or b or c or d))


@settings(ORACLE, max_examples=300)
@given(x=fraction_quaternions, y=fraction_quaternions,
       k=st.integers(-30, 30).filter(bool))
def test_quaternion_payloads_match_fraction_arithmetic(x, y, k):
    q = QUAT
    wx, wy = q._canon(x), q._canon(y)
    assert q._public(wx) == x
    assert q._canon(q._public(wx)) == wx
    assert q._canon(tuple(k * v for v in wx)) == wx        # any multiple, any sign
    h = HAMILTON
    results = [(q._add(wx, wy), h._add(x, y)), (q._neg(wx), h._neg(x)),
               (q._mul(wx, wy), h._mul(x, y)), (q._mul(wy, wx), h._mul(y, x))]
    if any(x):
        results.append((q._inv(wx), h._inv(x)))
    else:
        with pytest.raises(ZeroDivisionError):
            q._inv(wx)
    for w, want in [(wx, x), (wy, y)] + results:
        assert_canonical(w)
        assert q._public(w) == want
        central = want[1] == want[2] == want[3] == 0
        assert (w == q._zero) == (not any(want))
        assert q._is_central(w) == central
        as_int = want[0].numerator if central and want[0].denominator == 1 else None
        assert q._int_of(w) == as_int
        s = Scalar(q, w)
        assert s.payload == want and s == q.scalar(want)
        assert hash(s) == hash(q.scalar(want))
        if as_int is not None:
            assert s == as_int and hash(s) == hash(as_int)
    sx, sy = Scalar(q, wx), Scalar(q, wy)
    assert (sx == sy) == (x == y)


# ---------------------------------------------------------------------------
# the GF(p) reduction against the generic loop
# ---------------------------------------------------------------------------

class GenericPrimeField(PrimeField):
    """GF(p) whose rows `reduce_rows` reduces by its generic loop, on the
    payload hooks of PrimeField."""

    _reduce_rows = None


class GenericQuaternions(Quaternions):
    """Quat(Q) whose rows `reduce_rows` reduces by its generic loop, on the
    payload hooks of Quaternions."""

    _reduce_rows = None


PRIMES = {"GF2": 2, "GF3": 3, "GF5": 5, "GF7": 7, "GF(2^61-1)": 2 ** 61 - 1}


@st.composite
def reductions(draw, entry, zero, one):
    """Rows and `ncols` for `reduce_rows`: zero rows, a repeated row,
    `ncols` = 0, and rows wider than `ncols` (an appended identity or
    further entries), all canonical."""
    ncols = draw(st.integers(0, 5))
    row = st.one_of(st.just([zero] * ncols),
                    st.lists(entry, min_size=ncols, max_size=ncols))
    rows = draw(st.lists(row, max_size=5))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    extra = draw(st.sampled_from(["none", "identity", "entries"]))
    if extra == "identity":
        rows = [r + [one if i == j else zero for j in range(len(rows))]
                for i, r in enumerate(rows)]
    elif extra == "entries":
        width = draw(st.integers(1, 3))
        rows = [r + draw(st.lists(entry, min_size=width, max_size=width)) for r in rows]
    return rows, ncols


@pytest.mark.parametrize("name", list(PRIMES))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_prime_field_reduction_matches_the_generic_loop(name, data):
    """reduce_rows over GF(p) runs PrimeField._reduce_rows, which leaves
    the rows and returns the pivots of the generic loop exactly."""
    p = PRIMES[name]
    entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    rows, ncols = data.draw(reductions(entry, 0, 1))
    fast, slow = [list(r) for r in rows], [list(r) for r in rows]
    pivots = reduce_rows(PrimeField(p), fast, ncols)
    assert pivots == reduce_rows(GenericPrimeField(p), slow, ncols)
    assert fast == slow
    assert all(type(x) is int and 0 <= x < p for r in fast for x in r)


# zero, one, minus one and i, then entries with negative parts and
# denominators up to 4, so pivots with a denominator > 1 occur
QUAT_ENTRIES = st.one_of(
    st.sampled_from([QUAT._zero, QUAT._zero, QUAT._one, QUAT._canon(-1),
                     QUAT._canon((0, 1, 0, 0))]),
    st.tuples(*[st.integers(-3, 3)] * 4, st.integers(1, 4)).map(QUAT._canon))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(reductions(QUAT_ENTRIES, QUAT._zero, QUAT._one))
def test_quaternion_reduction_matches_the_generic_loop(reduction):
    """reduce_rows over Quat(Q) runs Quaternions._reduce_rows, which
    leaves the rows and returns the pivots of the generic loop exactly,
    every entry a canonical 5-tuple."""
    rows, ncols = reduction
    fast, slow = [list(r) for r in rows], [list(r) for r in rows]
    pivots = reduce_rows(QUAT, fast, ncols)
    assert pivots == reduce_rows(GenericQuaternions(), slow, ncols)
    assert fast == slow
    for x in (x for r in fast for x in r):
        assert_canonical(x)


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
