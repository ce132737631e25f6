import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxed_reference import QuaternionAlgebra
from complaff.algebra import (
    ExtensionField,
    PrimeField,
    Quaternions,
    Scalar,
    ScalarDomain,
)
from complaff.chart import ComplementCoord, symmetric_chart
from complaff.errors import DomainMismatchError
from complaff.linalg import (
    MatrixK,
    apply,
    from_payloads,
    inverse,
    is_invertible,
    kernel,
    rank,
    row_space,
    rref,
    solve,
    stack,
)
from complaff.projective import Subspace
from vectors import vector

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, (1, 1, 1))
Q = Quaternions()
# each domain with a scalar of another domain
FOREIGN = [(GF3, GF4.scalar((0, 1))), (GF4, PrimeField(5).one()), (Q, GF3.one())]


def mat(domain, rows, cols=None):
    return MatrixK(domain, rows, cols=cols)


def all_matrices(domain, r, c):
    elems = domain.sample()
    for combo in itertools.product(elems, repeat=r * c):
        yield mat(domain, [combo[i * c:(i + 1) * c] for i in range(r)])


def random_matrix(domain, r, c, rng):
    elems = domain.sample()
    return mat(domain, [[rng.choice(elems) for _ in range(c)] for _ in range(r)])


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_rref_gf2_dependent_rows():
    e = rref(mat(GF2, [[1, 1], [1, 1]]))
    assert e.rank == 1
    assert row_space(mat(GF2, [[1, 1], [1, 1]])) == mat(GF2, [[1, 1]])


def test_rref_quaternion_diagonal():
    # left-multiplying the rows by -i and -j normalises the pivots:
    # (-i)*i = 1 by the hand oracle i*i = -1
    i, j = Q.i, Q.j
    assert (-i) * i == Q.one()
    m = mat(Q, [[i, 0], [0, j]])
    e = rref(m)
    assert e.rank == 2
    assert e.matrix == MatrixK.identity(Q, 2)


def test_rref_zero_matrix():
    assert rank(MatrixK.zero(GF3, 2, 2)) == 0


def test_apply_quaternion_left_entries():
    m = mat(Q, [[Q.j, 0], [0, 1]])
    v = vector(Q, [Q.i, 0])
    assert apply(v, m) == vector(Q, [Q.k, 0])  # i*j = k, not j*i


def test_apply_identity_and_gf3():
    v = vector(GF3, [1, 2])
    assert apply(v, MatrixK.identity(GF3, 2)) == v
    # hand-check: 1*1 + 2*1 = 0, 1*1 + 2*0 = 1  (mod 3)
    assert apply(v, mat(GF3, [[1, 1], [1, 0]])) == vector(GF3, [0, 1])


def test_kernel_image_inverse_examples():
    m = mat(GF3, [[1, 0], [0, 0]])
    assert kernel(m) == mat(GF3, [[0, 1]])
    assert row_space(m) == mat(GF3, [[1, 0]])
    assert inverse(m) is None

    ident = MatrixK.identity(GF3, 2)
    assert kernel(ident).rows == 0
    assert inverse(ident) == ident

    mi = mat(Q, [[Q.i]])
    assert inverse(mi) == mat(Q, [[-Q.i]])


def test_composition_order_is_apply_first():
    # gamma then alpha: matrix(gamma*alpha) = matrix(gamma) * matrix(alpha)
    gamma = mat(Q, [[Q.i, 0], [0, 1]])
    alpha = mat(Q, [[Q.j, 0], [0, 1]])
    v = vector(Q, [1, 0])
    assert apply(apply(v, gamma), alpha) == apply(v, gamma * alpha)
    assert (gamma * alpha).entries[0][0] == Q.i * Q.j


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain", [GF2, GF3])
def test_rank_nullity_exhaustive_2x2(domain):
    for m in all_matrices(domain, 2, 2):
        assert rank(m) + kernel(m).rows == m.rows


@pytest.mark.parametrize("domain", [GF2, GF3])
def test_rank_nullity_random_4x4(domain):
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(domain, 4, 4, rng)
        assert rank(m) + kernel(m).rows == 4


@pytest.mark.parametrize("domain", [GF2, GF3])
def test_rref_idempotent_and_row_space_stable(domain):
    rng = random.Random(11)
    cases = list(all_matrices(domain, 2, 2)) + [random_matrix(domain, 3, 4, rng)
                                                for _ in range(10)]
    for m in cases:
        r = row_space(m)
        assert row_space(r) == r
        # mutual containment of rows
        for row in m.entries:
            assert solve(r, row) is not None
        for row in r.entries:
            assert solve(m, row) is not None


def test_inverse_two_sided():
    rng = random.Random(3)
    count = 0
    for _ in range(40):
        m = random_matrix(GF3, 3, 3, rng)
        inv = inverse(m)
        if inv is None:
            assert rank(m) < 3
            continue
        count += 1
        ident = MatrixK.identity(GF3, 3)
        assert inv * m == ident
        assert m * inv == ident
    assert count > 0


def test_quaternion_matrix_inverse_two_sided():
    m = mat(Q, [[Q.i, 1], [0, Q.j]])
    inv = inverse(m)
    ident = MatrixK.identity(Q, 2)
    assert inv is not None
    assert inv * m == ident and m * inv == ident


def test_noncommutative_matrix_witness():
    a = mat(Q, [[Q.i, 0], [0, 1]])
    b = mat(Q, [[Q.j, 0], [0, 1]])
    assert a * b != b * a
    assert (a * b).entries[0][0] == Q.k
    assert (b * a).entries[0][0] == -Q.k


def test_solve_reports_unsolvable():
    m = mat(GF2, [[1, 0]])
    assert solve(m, vector(GF2, [0, 1])) is None
    x = solve(m, vector(GF2, [1, 0]))
    assert x is not None and apply(x, m) == vector(GF2, [1, 0])


def test_is_invertible_matches_inverse():
    for m in all_matrices(GF2, 2, 2):
        assert is_invertible(m) == (inverse(m) is not None)


def test_explicit_cols_must_agree():
    with pytest.raises(ValueError):
        mat(GF2, [[1, 0]], cols=3)


@pytest.mark.parametrize("domain", [GF2, GF4, Q], ids=repr)
def test_ragged_or_misshapen_rows_are_rejected(domain):
    with pytest.raises(ValueError):
        mat(domain, [[1, 0]], cols=3)
    with pytest.raises(ValueError):
        mat(domain, [[1, 0], [1]])
    with pytest.raises(ValueError):
        stack(domain, [mat(domain, [[1, 0]]), vector(domain, [1])], cols=2)
    with pytest.raises(ValueError):
        stack(domain, [mat(domain, [[1, 0]])], cols=3)


# ---------------------------------------------------------------------------
# one representation: payload rows inside, Scalars at the boundary
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain", [GF3, GF4, Q], ids=repr)
def test_matrix_from_scalars_ints_and_payloads_agree(domain):
    ints = [[1, 0, 2], [0, 1, 1]]
    boxed = [[domain.scalar(x) for x in row] for row in ints]
    elems = domain.sample()[:3]
    mixed = [elems, elems[::-1]]
    for rows in (boxed, mixed):
        raw = [[x.raw for x in row] for row in rows]
        built = [mat(domain, rows), mat(domain, raw), from_payloads(domain, raw, 3)]
        if rows is boxed:
            built.append(mat(domain, ints))
        for m in built:
            assert m == built[0] and hash(m) == hash(built[0])
            assert m.payload == tuple(map(tuple, raw))
            assert m.entries == tuple(map(tuple, rows))
            assert all(m.entries[i][j].payload == x.payload
                       for i, row in enumerate(rows) for j, x in enumerate(row))


@pytest.mark.parametrize("domain", [GF3, GF4, Q], ids=repr)
def test_entries_are_scalars_of_the_matrix_domain(domain):
    elems = domain.sample()[:3]
    m = mat(domain, [elems, elems[::-1], elems])
    for matrix in (m, rref(m).matrix, rref(m).transform, kernel(m), m * m,
                   m - m, m.scale_left(elems[-1]), MatrixK.identity(domain, 2)):
        assert all(type(x) is Scalar and x.domain is domain
                   for row in matrix.entries for x in row)
        assert matrix.entries is matrix.entries           # boxed once
        assert matrix.entries == tuple(tuple(Scalar(domain, x) for x in row)
                                       for row in matrix.payload)


@pytest.mark.parametrize("domain, foreign", FOREIGN, ids=repr)
def test_scalar_of_another_domain_is_rejected(domain, foreign):
    one = domain.one()
    with pytest.raises(DomainMismatchError):
        mat(domain, [[one, foreign]])
    with pytest.raises(DomainMismatchError):
        stack(domain, [vector(domain, [one, one]), (one, foreign)], cols=2)
    with pytest.raises(DomainMismatchError):
        stack(domain, [mat(foreign.domain, [[1, 0]])], cols=2)
    with pytest.raises(DomainMismatchError):
        Subspace.from_rows(domain, 2, [(foreign, one)])


@pytest.mark.parametrize("domain, foreign", FOREIGN, ids=repr)
def test_complement_rejects_foreign_or_misshapen_gamma(domain, foreign):
    chart = symmetric_chart(domain, 2)
    alien = MatrixK.identity(foreign.domain, 2)
    with pytest.raises(DomainMismatchError):
        chart.complement(alien)
    with pytest.raises(DomainMismatchError):
        chart.complement(ComplementCoord(chart, alien))
    with pytest.raises(ValueError):
        chart.complement(MatrixK.identity(domain, 3))
    with pytest.raises(ValueError):
        chart.complement(mat(domain, [[1, 0]]))
    assert chart.complement(MatrixK.zero(domain, 2, 2)) == chart.u


def _random_quaternion_matrix(r, c, rng):
    pool = Q.sample()[:30]
    return mat(Q, [[rng.choice(pool) for _ in range(c)] for _ in range(r)])


def test_quaternion_echelon_form_is_row_space_invariant():
    # the canonical form must not depend on the presenting basis: left
    # multiplication by an invertible matrix preserves it exactly
    rng = random.Random(23)
    checked = 0
    while checked < 25:
        m = _random_quaternion_matrix(2, 4, rng)
        e = _random_quaternion_matrix(2, 2, rng)
        if not is_invertible(e):
            continue
        assert row_space(e * m) == row_space(m)
        checked += 1


def test_quaternion_rref_idempotent_and_rank_nullity():
    rng = random.Random(29)
    for _ in range(20):
        m = _random_quaternion_matrix(3, 3, rng)
        r = row_space(m)
        assert row_space(r) == r
        assert rank(m) + kernel(m).rows == 3


def test_quaternion_solve_left_coefficients():
    rng = random.Random(31)
    pool = Q.sample()[:30]
    for _ in range(15):
        m = _random_quaternion_matrix(2, 3, rng)
        x = vector(Q, [rng.choice(pool), rng.choice(pool)])
        rhs = apply(x, m)
        found = solve(m, rhs)
        assert found is not None
        assert apply(found, m) == rhs


# Quaternions._combine against the generic loop of ScalarDomain._combine:
# 20-digit numerators and denominators, denominators that often agree (the
# common-denominator case) and often differ, zero coefficients, zero rows,
# empty coefficient lists and width 1.
ORACLE = settings(derandomize=True, database=None, max_examples=300, deadline=None)
BIG = 10 ** 20
numerators = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
denominators = st.one_of(st.sampled_from([1, 2, 3, 6]), st.integers(1, BIG))
quaternions = st.one_of(
    st.just(Q._zero),
    st.builds(lambda nums, den: Q._canon((*nums, den)),
              st.tuples(*[numerators] * 4), denominators))


@st.composite
def combinations(draw):
    width = draw(st.integers(1, 4))
    row = st.one_of(st.just([Q._zero] * width),
                    st.lists(quaternions, min_size=width, max_size=width))
    rows = draw(st.lists(row, max_size=5))
    coeffs = draw(st.lists(quaternions, min_size=len(rows), max_size=len(rows)))
    return coeffs, rows, width


def is_canonical(x):
    """den > 0 and gcd 1, which makes zero (0, 0, 0, 0, 1)."""
    return all(type(v) is int for v in x) and x[4] > 0 and gcd(*x) == 1


@ORACLE
@given(combinations())
def test_quaternion_combine_matches_the_generic_loop(case):
    coeffs, rows, width = case
    out = Q._combine(coeffs, rows, width)
    assert out == ScalarDomain._combine(Q, coeffs, rows, width)
    assert len(out) == width
    assert all(len(x) == 5 and is_canonical(x) for x in out)


# PrimeField._combine and ExtensionField._combine against the same generic
# loop: zero coefficients, zero rows, empty coefficient lists, and rows
# wider than `width`, whose extra columns the result leaves out.
FINITE = {"GF2": GF2, "GF3": GF3, "GF(2^61-1)": PrimeField(2 ** 61 - 1), "GF4": GF4,
          "GF8": ExtensionField(2, (1, 1, 0, 1)), "GF9": ExtensionField(3, (1, 0, 1))}


def finite_payloads(domain):
    if isinstance(domain, PrimeField):
        return st.one_of(st.sampled_from([0, 1, domain.p - 1]), st.integers(0, domain.p - 1))
    return st.sampled_from(domain._payloads())


@st.composite
def finite_combinations(draw, domain):
    width = draw(st.integers(1, 4))
    length = width + draw(st.integers(0, 2))
    row = st.one_of(st.just([domain._zero] * length),
                    st.lists(finite_payloads(domain), min_size=length, max_size=length))
    rows = draw(st.lists(row, max_size=5))
    coeffs = draw(st.lists(st.one_of(st.just(domain._zero), finite_payloads(domain)),
                           min_size=len(rows), max_size=len(rows)))
    return coeffs, rows, width


def is_canonical_finite(domain, x):
    if isinstance(domain, PrimeField):
        return type(x) is int and 0 <= x < domain.p
    coeffs = domain._public(x)
    return (domain._canon(x) is x and domain._canon(coeffs) == x
            and len(coeffs) == domain.k
            and all(type(c) is int and 0 <= c < domain.p for c in coeffs))


@pytest.mark.parametrize("name", list(FINITE))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_finite_field_combine_matches_the_generic_loop(name, data):
    domain = FINITE[name]
    coeffs, rows, width = data.draw(finite_combinations(domain))
    out = domain._combine(coeffs, rows, width)
    assert out == ScalarDomain._combine(domain, coeffs, rows, width)
    assert len(out) == width
    assert all(is_canonical_finite(domain, x) for x in out)


@pytest.mark.parametrize("domain", [GF3, GF4, Q, QuaternionAlgebra(-1, -1)],
                         ids=["GF3", "GF4", "Quat", "(-1,-1)"])
def test_combine_has_width_entries_or_refuses_a_wider_width(domain):
    """One length rule on every domain: `width` entries, and ValueError for
    a `width` wider than the rows, whatever the coefficients."""
    zero, one = domain._zero, domain._one
    rows = [[one, one], [one, zero]]
    for coeffs in ([one, zero], [zero, one], [zero, zero], [one], []):
        for width in (0, 1, 2):
            assert len(domain._combine(coeffs, rows, width)) == width
        for width in (3, 4):
            with pytest.raises(ValueError, match="exceeds"):
                domain._combine(coeffs, rows, width)
    assert domain._combine([one, one], rows, 2) == [domain._add(one, one), one]
    assert domain._combine([], [], 4) == [zero] * 4
    with pytest.raises(ValueError, match="exceeds"):
        domain._combine([one], [[one, one]], 4)


@pytest.mark.parametrize("name", list(FINITE))
def test_finite_field_combine_of_no_term_is_zero(name):
    domain = FINITE[name]
    zero, one = domain._zero, domain._one
    assert domain._combine([], [], 3) == [zero] * 3
    assert domain._combine([zero, zero], [[one] * 4, [one] * 4], 3) == [zero] * 3
    assert domain._combine([one], [[one] * 4], 2) == [one, one]


def assert_reduction_calls_no_payload_hook(monkeypatch, m, square):
    """rref, kernel, two inverses, `row_space`, `+` and `&` over m's domain
    give the same results with no call of `_add`, `_mul`, `_neg` or `_inv`."""
    domain = m.domain
    a = Subspace.from_rows(domain, m.cols, m.entries[:2])
    b = Subspace.from_rows(domain, m.cols, m.entries[2:])

    def results():
        return (rref(m), kernel(m), inverse(m), inverse(square), row_space(m), a + b, a & b)

    expected = results()
    calls = []
    for name in ("_add", "_mul", "_neg", "_inv"):
        hook = getattr(type(domain), name)
        monkeypatch.setattr(type(domain), name,
                            lambda self, *args, name=name, hook=hook:
                            calls.append(name) or hook(self, *args))
    assert results() == expected
    assert calls == []


def test_a_prime_field_reduction_calls_no_payload_hook(monkeypatch):
    """Over GF(p) `reduce_rows` runs in plain ints."""
    gf5 = PrimeField(5)
    assert_reduction_calls_no_payload_hook(
        monkeypatch, mat(gf5, [[0, 2, 4, 1], [3, 1, 0, 0], [3, 3, 4, 1], [1, 1, 1, 1]]),
        mat(gf5, [[2, 1], [1, 1]]))


def test_a_quaternion_reduction_calls_no_payload_hook(monkeypatch):
    """Over Quat(Q) `reduce_rows` runs on the integer 5-tuples in one call,
    with pivots that are neither central nor of denominator 1."""
    i, j, k = Q.i, Q.j, Q.k
    half = Q.scalar((Fraction(1, 2), 0, 0, Fraction(-1, 3)))
    m = mat(Q, [[0, i, 2, half], [half, 1, 0, j], [i, -3, k, 0], [1, 1 + j, half, 1]])
    assert rank(m) == 4
    assert_reduction_calls_no_payload_hook(monkeypatch, m, mat(Q, [[half, i], [j, 1]]))
