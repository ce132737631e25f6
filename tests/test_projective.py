import itertools

import pytest

from boxed_reference import ref_complement
from complaff import projective
from complaff.algebra import ExtensionField, PrimeField, Quaternions, Scalar
from complaff.chart import AffineChart
from complaff.errors import InfiniteDomainError
from complaff.linalg import MatrixK
from complaff.projective import (
    Subspace,
    ZStructure,
    all_complements,
    hyperplane_forms,
    hyperplanes,
    hyperplanes_not_containing,
    is_complement,
    standard_complement_rows,
)
from vectors import unit_vector, vec_add, vec_scale, vector

GF2 = PrimeField(2)
GF3 = PrimeField(3)
Q = Quaternions()


def sub(domain, ambient, rows):
    return Subspace.from_rows(domain, ambient, rows)


def e(domain, n, i):
    return unit_vector(domain, n, i)


# ---------------------------------------------------------------------------
# oracle: enumerate every d-dimensional subspace by brute force
# ---------------------------------------------------------------------------

def brute_force_subspaces(domain, n, d):
    """All d-dim subspaces, from spans of all vector d-tuples (slow, independent)."""
    elems = domain.sample()
    vectors = [v for v in itertools.product(elems, repeat=n)]
    found = set()
    for combo in itertools.combinations(vectors, d):
        s = Subspace.from_rows(domain, n, combo)
        if s.dim == d:
            found.add(s)
    return found


def gaussian_binomial(q, n, k):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


# ---------------------------------------------------------------------------
# lattice operations and complements
# ---------------------------------------------------------------------------

def test_complement_examples_gf2():
    w = sub(GF2, 4, [e(GF2, 4, 0), e(GF2, 4, 1)])
    s1 = sub(GF2, 4, [e(GF2, 4, 2), e(GF2, 4, 3)])
    s2 = sub(GF2, 4, [e(GF2, 4, 1), e(GF2, 4, 2)])
    s3 = sub(GF2, 4, [vec_add(e(GF2, 4, 0), e(GF2, 4, 2)), e(GF2, 4, 3)])
    assert is_complement(w, s1)
    assert not is_complement(w, s2)
    assert is_complement(w, s3)          # rank check done brutally below
    stacked = sub(GF2, 4, list(w.rows()) + list(s3.rows()))
    assert stacked.dim == 4


def test_lattice_sum_and_intersection():
    a = sub(GF3, 4, [e(GF3, 4, 0), e(GF3, 4, 1)])
    b = sub(GF3, 4, [e(GF3, 4, 1), e(GF3, 4, 2)])
    assert (a + b).dim == 3
    meet = a & b
    assert meet.dim == 1
    assert meet.coefficients_of(e(GF3, 4, 1)) is not None
    modular = (a & b).dim + (a + b).dim
    assert modular == a.dim + b.dim


def test_all_complements_counts_against_brute_force():
    w = sub(GF2, 4, [e(GF2, 4, 0), e(GF2, 4, 1)])
    mine = all_complements(w)
    assert len(mine) == 16 and len(set(mine)) == 16
    oracle = {s for s in brute_force_subspaces(GF2, 4, 2) if is_complement(w, s)}
    assert set(mine) == oracle


def test_all_complements_gf3_count():
    w = sub(GF3, 4, [e(GF3, 4, 0), e(GF3, 4, 1)])
    mine = all_complements(w)
    assert len(mine) == 81 and len(set(mine)) == 81
    for s in mine[:10]:
        assert is_complement(w, s)


def test_all_complements_nonstandard_w():
    rows = [vec_add(e(GF2, 4, 0), e(GF2, 4, 2)), vec_add(e(GF2, 4, 1), e(GF2, 4, 3))]
    w = sub(GF2, 4, rows)
    comps = all_complements(w)
    assert len(set(comps)) == 16
    assert all(is_complement(w, s) for s in comps)
    b = standard_complement_rows(w)
    assert len(b) == 2


@pytest.mark.parametrize("domain, w_rows", [
    (GF3, [(1, 0, 0, 0), (0, 1, 0, 0)]),
    (GF3, [(1, 0, 1, 0), (0, 1, 0, 2)]),
    (ExtensionField(2, (1, 1, 1)), [(1, 0, 0, 0), (0, 1, 0, 0)]),
], ids=["GF3", "GF3-skew", "GF4"])
def test_all_complements_match_boxed_route_in_order(domain, w_rows):
    w = sub(domain, 4, w_rows)
    chart = AffineChart(domain, 4, w)
    expected = tuple(
        ref_complement(chart, MatrixK(domain, [c[:2], c[2:]]))
        for c in itertools.product(domain.elements(), repeat=4))
    assert tuple(s.basis for s in all_complements(w)) == expected


def test_all_complements_trivial_cases_refused():
    with pytest.raises(ValueError):
        all_complements(Subspace.full(GF2, 3))
    with pytest.raises(ValueError):
        all_complements(Subspace.zero(GF2, 3))


# ---------------------------------------------------------------------------
# hyperplanes
# ---------------------------------------------------------------------------

def test_hyperplane_counts():
    assert len(hyperplanes(GF2, 3)) == 7
    hs = hyperplanes(GF2, 4)
    assert len(hs) == 15
    assert len(set(hs)) == 15
    w = sub(GF2, 4, [e(GF2, 4, 0), e(GF2, 4, 1)])
    # forms vanishing on W: 2^2 - 1 = 3 of the 15 contain W
    assert len(hyperplanes_not_containing(w)) == 12


def test_hyperplane_count_formula():
    for q, domain in ((2, GF2), (3, GF3)):
        for n in (2, 3, 4):
            assert len(hyperplanes(domain, n)) == gaussian_binomial(q, n, n - 1)
            for h in hyperplanes(domain, n):
                assert h.dim == n - 1


def test_hyperplanes_n1():
    hs = hyperplanes(GF2, 1)
    assert len(hs) == 1 and hs[0].dim == 0


def test_hyperplanes_are_built_from_payload_forms(monkeypatch):
    """Every hyperplane is the kernel of its canonical payload form: no
    Scalar is built on the way, and the forms are the boxed ones that
    hyperplane_forms lists."""
    gf4 = ExtensionField(2, (1, 1, 1))
    built = []
    init = Scalar.__init__

    def counting_init(self, domain, raw):
        built.append(raw)
        init(self, domain, raw)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    hs = hyperplanes(gf4, 4)
    monkeypatch.undo()
    assert built == []
    forms = hyperplane_forms(gf4, 4)
    assert len(hs) == len(set(hs)) == len(forms) == 85
    for h, form in zip(hs, forms):
        col = MatrixK(gf4, [[c] for c in form], cols=1)
        assert h.dim == 3 and (h.basis * col).is_zero()


def test_hyperplane_enumeration_refuses_an_infinite_domain():
    for enumerate_ in (hyperplanes, hyperplane_forms):
        with pytest.raises(InfiniteDomainError):
            enumerate_(Q, 2)


# ---------------------------------------------------------------------------
# Z-structure and central subspaces
# ---------------------------------------------------------------------------

def test_commutative_everything_central():
    z = ZStructure(GF3, [e(GF3, 4, 2), e(GF3, 4, 3)])
    for rows in ([e(GF3, 4, 2)], [vec_add(e(GF3, 4, 2), e(GF3, 4, 3))],
                 [e(GF3, 4, 2), e(GF3, 4, 3)]):
        a = sub(GF3, 4, rows)
        assert z.maximal_central_subspace(a) == a
        assert z.is_central_subspace(a)


def quaternion_zstructure(m=2):
    rows = [e(Q, m, i) for i in range(m)]
    return ZStructure(Q, rows)


def test_quaternion_maximal_central_trivial():
    z = quaternion_zstructure()
    # A = K*(i*b1 + b2): q*i and q both rational forces q = 0
    a = sub(Q, 2, [(Q.i, Q.one())])
    m = z.maximal_central_subspace(a)
    assert m.dim == 0
    assert not z.is_central_subspace(a)
    # the zero subspace: an empty Z-system, whose solution is 0 again
    zero = Subspace.zero(Q, 2)
    assert z.maximal_central_subspace(zero) == zero and z.is_central_subspace(zero)


def test_quaternion_maximal_central_full_line():
    z = quaternion_zstructure()
    a = sub(Q, 2, [(Q.one(), Q.zero())])
    assert z.maximal_central_subspace(a) == a
    # a scaled Z-line is still central: K*(i*b1) = K*b1
    a2 = sub(Q, 2, [(Q.i, Q.zero())])
    assert z.maximal_central_subspace(a2) == a2


def test_quaternion_maximal_central_mixed_plane():
    z = quaternion_zstructure()
    a = sub(Q, 2, [(Q.i, Q.one()), (Q.one(), Q.zero())])
    # A is all of K^2, whose maximal central subspace is K^2 itself
    assert a.dim == 2
    assert z.maximal_central_subspace(a) == a


def test_maximal_central_is_largest():
    z = quaternion_zstructure()
    a = sub(Q, 2, [(Q.i, Q.one())])
    m = z.maximal_central_subspace(a)
    # every central vector of A generates a central subspace inside M
    for coords in z.z_point_samples():
        if a.coefficients_of(coords) is not None:
            assert m.coefficients_of(coords) is not None


def test_central_complement_properties():
    z = quaternion_zstructure()
    for rows in ([(Q.i, Q.one())], [(Q.one(), Q.zero())], []):
        a = sub(Q, 2, rows) if rows else Subspace.zero(Q, 2)
        c = z.central_complement(a)
        assert z.is_central_subspace(c)
        assert (a & c).dim == 0
        assert (a + c) == z.span


def test_central_complement_prefers_small_indices():
    z = quaternion_zstructure()
    a = sub(Q, 2, [(Q.i, Q.one())])   # does not contain b1
    c = z.central_complement(a)
    assert c == sub(Q, 2, [(Q.one(), Q.zero())])


def test_central_complement_reads_the_last_nonzero_coordinate():
    """A = span{b_0 + b_1}: b_0 is outside A, so it is chosen, and b_1 is in
    A + b_0, so it is not, although A's echelon pivot is at b_0."""
    for d in (GF3, Q):
        z = ZStructure(d, [e(d, 3, 1), e(d, 3, 2)])
        a = sub(d, 3, [vec_add(e(d, 3, 1), e(d, 3, 2))])
        assert z.central_complement(a) == sub(d, 3, [e(d, 3, 1)])


def recorded(monkeypatch, name):
    """The argument tuples of every call to the projective module's `name`."""
    calls, real = [], getattr(projective, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(projective, name, wrapper)
    return calls


def test_maximal_central_subspace_solves_r_unknowns(monkeypatch):
    """One central unknown per basis row of A and the three imaginary parts
    of each non-pivot coordinate: the kernel is of an r x 3*(dim - r)
    system, whatever the ambient dimension."""
    calls = recorded(monkeypatch, "kernel")
    z = ZStructure(Q, [e(Q, 6, i) for i in range(1, 5)])
    for r in range(1, 5):
        coords = [[Q.one() if j == i else Q.i if j >= r else Q.zero() for j in range(4)]
                  for i in range(r)]
        calls.clear()
        got = z.maximal_central_subspace(sub(Q, 6, [z.from_coords(c) for c in coords]))
        assert [(m.rows, m.cols) for (m,) in calls] == [(r, 3 * (4 - r))]
        # y_0 + ... + y_(r-1) = 0 while a column is free, no condition after
        assert got.dim == (r - 1 if r < 4 else 4)


def test_central_queries_solve_no_system_when_they_need_none(monkeypatch):
    """is_central_subspace reads E's entries, and over a commutative domain
    the maximal central subspace is A with no reduction."""
    kernels = recorded(monkeypatch, "kernel")
    reductions = recorded(monkeypatch, "reduce_rows")
    z = quaternion_zstructure()
    got = [z.is_central_subspace(sub(Q, 2, rows)) for rows in (
        [(Q.i, Q.one())], [(Q.i, Q.zero())], [(Q.i, Q.one()), (Q.one(), Q.zero())])]
    assert got == [False, True, True] and kernels == []
    reductions.clear()
    z3 = ZStructure(GF3, [e(GF3, 4, 2), e(GF3, 4, 3)])
    a = sub(GF3, 4, [vec_add(e(GF3, 4, 2), e(GF3, 4, 3))])
    assert z3.maximal_central_subspace(a) == a and reductions == kernels == []


def test_central_complement_spans_once(monkeypatch):
    spans, real = [], Subspace.spanned.__func__

    def spanned(cls, *args):
        spans.append(args)
        return real(cls, *args)

    monkeypatch.setattr(Subspace, "spanned", classmethod(spanned))
    z = ZStructure(Q, [e(Q, 4, i) for i in range(4)])
    z.central_complement(sub(Q, 4, [(Q.i, Q.one(), Q.zero(), Q.zero())]))
    assert len(spans) == 1


def test_outside_reference_span_rejected():
    z = ZStructure(GF2, [e(GF2, 4, 2), e(GF2, 4, 3)])
    with pytest.raises(ValueError):
        z.maximal_central_subspace(sub(GF2, 4, [e(GF2, 4, 0)]))


def test_projective_z_membership():
    z = quaternion_zstructure()
    b1, b2 = e(Q, 2, 0), e(Q, 2, 1)
    assert z.point_in_projective_z(vec_add(b1, b2))
    assert z.point_in_projective_z(vec_scale(Q.i, vec_add(b1, b2)))   # K*(iv) = K*v
    assert not z.point_in_projective_z((Q.one(), Q.i))


def test_z_point_reps_finite_count():
    z = ZStructure(GF3, [e(GF3, 2, 0), e(GF3, 2, 1)])
    reps = z.z_point_reps()
    assert len(reps) == 4            # (3^2 - 1)/(3 - 1)
    with pytest.raises(InfiniteDomainError):
        quaternion_zstructure().z_point_reps()
    samples = quaternion_zstructure().z_point_samples()
    assert samples.is_sample and len(samples) > 4


def test_z_point_samples_list_every_point_over_a_finite_field():
    # over GF(3) the listing is complete, so it is a plain tuple, no Sampled
    z = ZStructure(GF3, [e(GF3, 2, 0), e(GF3, 2, 1)])
    listing = z.z_point_samples()
    assert type(listing) is tuple and not hasattr(listing, "is_sample")
    assert listing == z.z_point_reps() and len(listing) == 4
    assert quaternion_zstructure().z_point_samples().is_sample
