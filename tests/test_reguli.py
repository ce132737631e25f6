import itertools
import random

import pytest

from complaff import chart as chart_module
from complaff import linalg, projective, reguli
from complaff.algebra import (
    ExtensionField,
    PrimeField,
    Quaternions,
    Sampled,
    Scalar,
    _projective_reps,
)
from complaff.chart import (
    AffineChart,
    AffineLine,
    are_complementary,
    line_through,
    symmetric_chart,
)
from complaff.errors import DomainMismatchError, InfiniteDomainError, ReconstructionError
from complaff.linalg import MatrixK, apply, is_invertible
from complaff.projective import Subspace, all_complements, is_complement
from complaff.reguli import (
    Regulus,
    cone_decompose,
    line_transversal_image,
    perspectivity,
    reconstruct_from_transversals,
    regular_line_regulus,
    regulus_through,
    standard_regulus,
    transversals_of,
    w_plus_transversals,
    w_plus_z,
)
from vectors import unit_vector, vec_add, vec_scale

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, (1, 1, 1))
Q = Quaternions()


def e(domain, n, i):
    return unit_vector(domain, n, i)


def count_calls(monkeypatch, name) -> list:
    """Count the calls of the linalg function `name` through every library
    module that holds it, the argument tuples listed in call order."""
    calls, original = [], getattr(linalg, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (linalg, projective, chart_module, reguli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def count_sums(monkeypatch) -> list:
    """Count the calls of Subspace.__add__."""
    calls, add = [], Subspace.__add__

    def counted(a, b):
        calls.append((a, b))
        return add(a, b)

    monkeypatch.setattr(Subspace, "__add__", counted)
    return calls


def random_regulus(chart, rng):
    elems = chart.domain.sample()
    while True:
        alpha = MatrixK(chart.domain,
                        [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
        if is_invertible(alpha):
            break
    beta = MatrixK(chart.domain,
                   [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
    return Regulus(chart, alpha, beta)


@pytest.mark.parametrize("domain", [GF3, GF4], ids=repr)
def test_enumerations_walk_payloads_and_build_no_scalar(domain, monkeypatch):
    """Regulus members, chart coordinates and complements are listed from
    the domain's payloads: no Scalar is built on the way."""
    chart = symmetric_chart(domain, 2)
    reg = random_regulus(chart, random.Random(1))
    built = []
    init = Scalar.__init__

    def counting_init(self, domain, raw):
        built.append(raw)
        init(self, domain, raw)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    members = reg.members()
    coords = chart.all_coords()
    complements = all_complements(chart.w)
    monkeypatch.undo()
    assert built == []
    q = domain.order
    assert len(set(members)) == q + 1
    assert len(coords) == len(set(complements)) == q ** 4
    assert [c.subspace() for c in coords] == list(complements)


def test_quaternion_members_walk_the_payload_sample(monkeypatch):
    """Over Quat(Q) the members are listed from the payload sample: no
    Scalar is built, and the parameters are the elements of sample(seed)."""
    reg = standard_regulus(symmetric_chart(Q, 2))
    built = []
    init = Scalar.__init__

    def counting_init(self, domain, raw):
        built.append(raw)
        init(self, domain, raw)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    members = reg.members(3)
    monkeypatch.undo()
    assert built == []
    assert members.is_sample and members[0] == reg.chart.w
    assert list(members[1:]) == [reg.line.point_at(k).subspace() for k in Q.sample(3)]
    assert len(members) == 1 + 81 + 40


def test_quaternion_members_canonicalize_only_the_seeded_batch(monkeypatch):
    """The payloads of _sample are canonical and reach the line's
    arithmetic on trust: the only _canon calls are the 40 that build the
    seeded batch, none for the 121 parameters."""
    calls = []
    canon = Quaternions._canon

    def counting_canon(self, payload):
        calls.append(payload)
        return canon(self, payload)

    monkeypatch.setattr(Quaternions, "_canon", counting_canon)
    members = standard_regulus(symmetric_chart(Quaternions(), 2)).members(0)
    monkeypatch.undo()
    assert len(members) == 1 + 81 + 40
    assert len(calls) == 40


# ---------------------------------------------------------------------------
# the standard regulus and its transversals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain,q", [(GF2, 2), (GF3, 3)])
def test_standard_regulus_counts(domain, q):
    ch = symmetric_chart(domain, 2)
    reg = standard_regulus(ch)
    members = reg.members()
    assert len(members) == q + 1 and len(set(members)) == q + 1
    assert members[0] == ch.w
    lines = transversals_of(reg).lines()
    assert len(lines) == q + 1 and len(set(lines)) == q + 1


def test_standard_transversals_gf2_explicit():
    ch = symmetric_chart(GF2, 2)
    lines = set(transversals_of(standard_regulus(ch)).lines())
    # z in {b1, b2, b1+b2} gives span{(z,0),(0,z)}
    expected = set()
    for zc in ((1, 0), (0, 1), (1, 1)):
        wpart = tuple(GF2.scalar(c) for c in zc) + (GF2.zero(),) * 2
        upart = (GF2.zero(),) * 2 + tuple(GF2.scalar(c) for c in zc)
        expected.add(Subspace.from_rows(GF2, 4, [wpart, upart]))
    assert lines == expected


@pytest.mark.parametrize("domain", [GF2, GF3])
def test_transversal_incidence_exhaustive(domain):
    ch = symmetric_chart(domain, 2)
    reg = standard_regulus(ch)
    members = reg.members()
    for t in transversals_of(reg).lines():
        for member in members:
            assert (t & member).dim == 1
    # any two transversals are skew
    for t1, t2 in itertools.combinations(transversals_of(reg).lines(), 2):
        assert (t1 & t2).dim == 0


def test_extension_field_regulus_round_trip():
    from complaff.algebra import ExtensionField

    gf4 = ExtensionField(2, (1, 1, 1))
    ch = symmetric_chart(gf4, 2)
    reg = standard_regulus(ch)
    members = reg.members()
    lines = transversals_of(reg).lines()
    assert len(members) == 5 and len(lines) == 5
    assert set(reconstruct_from_transversals(lines)) == set(members)


def test_pairwise_complementary_members():
    for domain in (GF2, GF3):
        ch = symmetric_chart(domain, 2)
        rng = random.Random(5)
        for reg in [standard_regulus(ch)] + [random_regulus(ch, rng) for _ in range(5)]:
            for a, b in itertools.combinations(reg.members(), 2):
                assert is_complement(a, b)


def test_transversal_membership_predicate():
    ch = symmetric_chart(GF3, 2)
    reg = standard_regulus(ch)
    ts = transversals_of(reg)
    for t in ts.lines():
        assert ts.contains(t)
    not_one = Subspace.from_rows(GF3, 4, [e(GF3, 4, 0), e(GF3, 4, 1)])
    assert not ts.contains(not_one)
    # a line through W and U that is not a Z-point trace
    skewed = Subspace.from_rows(GF3, 4, [e(GF3, 4, 0), e(GF3, 4, 3)])
    assert not ts.contains(skewed)


@pytest.mark.parametrize("which", ["standard", "moved"])
def test_transversal_contains_refuses_both_half_member_planes(which):
    """For every nonzero z (each a Z-point over GF(3)) and every w in W
    outside K*z^alpha, the planes span{z^alpha, z^beta + z + w} and
    span{z^beta + z, w} each hold one generator of the transversal through
    z and are refused, as is the 3-space spanned by w and both generators;
    the transversal itself is accepted."""
    ch = symmetric_chart(GF3, 2)
    reg = (standard_regulus(ch) if which == "standard" else
           Regulus(ch, MatrixK(GF3, [[1, 1], [0, 1]]), MatrixK(GF3, [[0, 1], [1, 2]])))
    ts = transversals_of(reg)
    zero = (GF3.zero(),) * 2
    w_points = [ch.from_split(x, zero) for x in itertools.product(GF3.elements(), repeat=2)]
    refused = 0
    for z in itertools.product(GF3.elements(), repeat=2):
        if z == zero:
            continue
        z_alpha = ch.from_split(apply(z, reg.alpha), zero)
        z_beta_z = ch.from_split(apply(z, reg.beta), z)
        assert ts.contains(Subspace.from_rows(GF3, 4, [z_alpha, z_beta_z]))
        for w in w_points:
            if Subspace.from_rows(GF3, 4, [z_alpha, w]).dim != 2:
                continue                     # w in K*z^alpha
            for rows in ([z_alpha, vec_add(z_beta_z, w)], [z_beta_z, w]):
                plane = Subspace.from_rows(GF3, 4, rows)
                assert plane.dim == 2 and not ts.contains(plane)
                refused += 1
            assert not ts.contains(Subspace.from_rows(GF3, 4, [z_alpha, z_beta_z, w]))
    assert refused == 8 * 2 * (9 - 3)


def test_transversal_contains_makes_no_reduction(monkeypatch):
    """Membership of the two generators in T, read off T's echelon basis."""
    ch = symmetric_chart(GF3, 2)
    ch.z                                     # built on first use
    ch._split                                # built on first use
    ts = transversals_of(standard_regulus(ch))
    lines = ts.lines()
    reductions = count_calls(monkeypatch, "reduce_rows")
    assert all(ts.contains(t) for t in lines) and len(lines) == 4
    assert reductions == []


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain", [GF2, GF3])
def test_reconstruct_standard(domain):
    ch = symmetric_chart(domain, 2)
    reg = standard_regulus(ch)
    rebuilt = reconstruct_from_transversals(transversals_of(reg).lines())
    assert set(rebuilt) == set(reg.members())


def test_reconstruct_random_reguli():
    ch = symmetric_chart(GF3, 2)
    rng = random.Random(42)
    for _ in range(10):
        reg = random_regulus(ch, rng)
        rebuilt = reconstruct_from_transversals(transversals_of(reg).lines())
        assert set(rebuilt) == set(reg.members())


@pytest.mark.parametrize("domain", [GF2, GF3, GF4], ids=repr)
def test_reconstruct_builds_one_chart_with_the_members_of_two(domain, monkeypatch):
    """One chart, X1 (+) X2, per call.  Its members, in order, are those of
    standard_regulus in a second chart of W-basis gamma3*W, gamma3 the
    coordinate of X3 in the first."""
    rng = random.Random(7)
    ch = symmetric_chart(domain, 2)
    init, coordinate_of = AffineChart.__init__, AffineChart.coordinate_of

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recorded_coordinate_of(self, s):
        c = coordinate_of(self, s)
        gammas.append(c.gamma)
        return c

    for _ in range(4):
        lines = transversals_of(random_regulus(ch, rng)).lines()
        built, gammas = [], []
        monkeypatch.setattr(AffineChart, "__init__", counted_init)
        monkeypatch.setattr(AffineChart, "coordinate_of", recorded_coordinate_of)
        members = reconstruct_from_transversals(lines)
        monkeypatch.undo()
        assert len(built) == 1 and len(gammas) == 1
        first = built[0]
        second = AffineChart(domain, 4, first.w, first.u, space=first.space,
                             w_basis=gammas[0] * first.w_matrix)
        assert members == standard_regulus(second).members()


@pytest.mark.parametrize("domain", [GF3, GF4, PrimeField(5)], ids=repr)
def test_reconstruct_builds_only_the_members_off_parameters_zero_and_one(domain, monkeypatch):
    """The members at parameters 0 and 1 are X2 and X3 themselves, so the
    chart's complement map builds the other q - 2, in element order."""
    ch = symmetric_chart(domain, 2)
    reg = random_regulus(ch, random.Random(11))
    lines = transversals_of(reg).lines()
    built, complement = [], AffineChart.complement

    def counted(self, c):
        built.append(c)
        return complement(self, c)

    monkeypatch.setattr(AffineChart, "complement", counted)
    members = reconstruct_from_transversals(lines)
    monkeypatch.undo()
    assert len(built) == domain.order - 2 and len(members) == domain.order + 1
    assert set(members) == set(reg.members())
    gamma3 = built[0].gamma.scale_left(domain.elements()[2].inverse())
    assert [c.gamma for c in built] == [gamma3.scale_left(k) for k in domain.elements()[2:]]


def test_reconstruct_rejects_corrupted_input():
    ch = symmetric_chart(GF2, 2)
    lines = list(transversals_of(standard_regulus(ch)).lines())
    # replace one transversal by a line breaking the incidences
    lines[2] = Subspace.from_rows(GF2, 4, [e(GF2, 4, 0),
                                           vec_add(e(GF2, 4, 1), e(GF2, 4, 3))])
    with pytest.raises(ReconstructionError):
        reconstruct_from_transversals(lines)
    # a repeated line is not pairwise skew
    with pytest.raises(ReconstructionError):
        reconstruct_from_transversals([lines[0], lines[0], lines[1]])


@pytest.mark.parametrize("position", range(4))
def test_reconstruct_refuses_a_line_that_is_no_plane_of_the_space(position):
    """A point, a 3-space or a plane of K^6 among three GF(3) transversals."""
    lines = list(transversals_of(standard_regulus(symmetric_chart(GF3, 2))).lines()[:3])
    for bad in (Subspace.from_rows(GF3, 4, [lines[0].rows()[0]]),
                Subspace.from_rows(GF3, 4, [e(GF3, 4, i) for i in (0, 1, 2)]),
                Subspace.from_rows(GF3, 6, [e(GF3, 6, 0), e(GF3, 6, 1)])):
        with pytest.raises(ReconstructionError,
                           match="^transversals must be 2-dimensional subspaces$"):
            reconstruct_from_transversals(lines[:position] + [bad] + lines[position:])


def test_reconstruct_needs_both_rows_of_t1_in_a_companion_sum():
    """GF(2)^6: T1 = span{(1,1,0 | 0,0,0), (0,0,1 | 0,0,0)} is skew to the
    transversals T_a, T_b through z = (1,0,0), (0,1,0), but only its first
    row lies in T_a (+) T_b, so T_a has no companion."""
    ts = transversals_of(standard_regulus(symmetric_chart(GF2, 3)))
    t_a, t_b = (Subspace.from_rows(GF2, 6, [e(GF2, 6, i), e(GF2, 6, i + 3)]) for i in (0, 1))
    assert ts.contains(t_a) and ts.contains(t_b)
    t1 = Subspace.from_rows(GF2, 6, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    assert (t1 + t_a).dim == (t1 + t_b).dim == (t_a + t_b).dim == 4
    assert (t1 & (t_a + t_b)).dim == 1
    with pytest.raises(ReconstructionError,
                       match="^no companion transversal inside a common 3-space$"):
        reconstruct_from_transversals([t1, t_a, t_b])


def test_reconstruct_needs_three_lines():
    lines = transversals_of(standard_regulus(symmetric_chart(GF3, 2))).lines()
    for few in (lines[:2], lines[:1], ()):
        with pytest.raises(ReconstructionError,
                           match="^need at least three transversals$"):
            reconstruct_from_transversals(few)


@pytest.mark.parametrize("position", range(4))
def test_reconstruct_refuses_lines_over_two_domains(position):
    """A GF(5) line among GF(3) transversals: the domain of the first line
    against the first other one.  A Quat(Q) line first is refused as
    infinite, and elsewhere as a second domain."""
    lines = list(transversals_of(standard_regulus(symmetric_chart(GF3, 2))).lines()[:3])
    for other in (PrimeField(5), Q):
        mixed = list(lines)
        mixed.insert(position, transversals_of(
            standard_regulus(symmetric_chart(other, 2))).lines()[0])
        if position == 0 and other is Q:
            with pytest.raises(InfiniteDomainError):
                reconstruct_from_transversals(mixed)
            continue
        with pytest.raises(DomainMismatchError) as caught:
            reconstruct_from_transversals(mixed)
        pair = (other, GF3) if position == 0 else (GF3, other)
        assert str(caught.value) == f"{pair[0]} vs {pair[1]}"


@pytest.mark.parametrize("domain", [GF2, GF3, GF4], ids=repr)
def test_reconstruct_reduces_each_pair_without_rref(domain, monkeypatch):
    """Skewness and hits come from plain reductions: the one rref left is
    the chart X1 (+) X2's own, and X1 + X2 the one subspace sum."""
    ch = symmetric_chart(domain, 2)
    reg = random_regulus(ch, random.Random(3))
    lines = transversals_of(reg).lines()
    rrefs, sums = count_calls(monkeypatch, "rref"), count_sums(monkeypatch)
    built, init = [], AffineChart.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AffineChart, "__init__", counted_init)
    members = reconstruct_from_transversals(lines)
    monkeypatch.undo()
    assert set(members) == set(reg.members())
    assert len(built) == 1 and len(rrefs) == 1 and rrefs[0][0] == built[0]._t
    assert len(sums) == 1 and sums[0][0] + sums[0][1] == built[0].space


# ---------------------------------------------------------------------------
# regular lines are affine reguli
# ---------------------------------------------------------------------------

def test_standard_regulus_is_line_one_zero():
    ch = symmetric_chart(GF3, 2)
    line = AffineLine(ch, MatrixK.identity(GF3, 2), MatrixK.zero(GF3, 2, 2))
    reg = regular_line_regulus(line)
    assert set(reg.members()) == set(standard_regulus(ch).members())


def test_regulus_through_all_pairs_gf3():
    ch = symmetric_chart(GF3, 2)
    coords = ch.all_coords()
    pairs = [(a, b) for a, b in itertools.combinations(coords, 2)
             if are_complementary(a, b)]
    assert pairs
    wz = w_plus_z(ch)
    for c1, c2 in pairs[:200]:
        reg = regulus_through(c1, c2)
        members = set(reg.members())
        assert ch.w in members
        assert c1.subspace() in members and c2.subspace() in members
        assert w_plus_transversals(reg) == wz


def test_regulus_through_requires_complementary():
    ch = symmetric_chart(GF3, 2)
    c1 = ch.zero_coord()
    c2 = ch.coord([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        regulus_through(c1, c2)


@pytest.mark.parametrize("domain", [GF3, Q], ids=["GF3", "Quat"])
def test_regulus_through_ranks_the_difference_once(domain, monkeypatch):
    """Regulus's invertibility test of gamma2 - gamma1 is the only rank."""
    ch = symmetric_chart(domain, 2)
    c1, c2 = ch.coord([[1, 2], [0, 1]]), ch.coord([[0, 1], [1, 1]])
    reductions = count_calls(monkeypatch, "reduce_rows")
    reg = regulus_through(c1, c2)
    monkeypatch.undo()
    assert len(reductions) == 1
    assert reg.alpha == c2.gamma - c1.gamma and reg.beta == c1.gamma
    assert reg.contains(c1.subspace()) and reg.contains(c2.subspace())


def test_regulus_through_keeps_its_message():
    """Equal points, a singular difference and a non-symmetric chart are
    refused with one message, as the CLI reports it."""
    ch = symmetric_chart(GF3, 2)
    c = ch.coord([[1, 2], [0, 1]])
    wide = AffineChart(GF3, 5, Subspace.from_rows(GF3, 5, [e(GF3, 5, 0), e(GF3, 5, 1)]))
    pairs = [(c, c), (c, c + ch.coord([[1, 0], [0, 0]])),
             (wide.zero_coord(), wide.coord([[1, 0], [0, 1], [0, 0]]))]
    for c1, c2 in pairs:
        with pytest.raises(ValueError) as info:
            regulus_through(c1, c2)
        assert str(info.value) == "the two complements must be complementary to each other"


def test_w_plus_transversals_reduces_once_per_z_point(monkeypatch):
    """W + T spanned from W's rows and T's two generators: one reduction
    per Z-point and no subspace sum, with the members W + T of old."""
    ch = symmetric_chart(GF3, 2)
    ch.z                                     # built on first use
    reg = random_regulus(ch, random.Random(5))
    want = frozenset(ch.w + t for t in transversals_of(reg).lines())
    reductions, sums = count_calls(monkeypatch, "reduce_rows"), count_sums(monkeypatch)
    got = w_plus_transversals(reg)
    monkeypatch.undo()
    assert got == want and len(got) == 4
    assert len(reductions) == 4 and sums == []


def test_w_plus_transversals_samples_in_z_point_order_over_the_quaternions():
    ch = symmetric_chart(Q, 2)
    reg = regulus_through(ch.coord([[1, 0], [0, 1]]), ch.coord([[0, 0], [0, 0]]))
    for seed in (0, 3):
        got = w_plus_transversals(reg, seed)
        assert isinstance(got, Sampled)
        assert got == Sampled(ch.w + t for t in transversals_of(reg).lines(seed))


def test_unique_regulus_with_this_trace():
    # two reguli through (W, U1, U2) with equal W+T coincide: generate one
    # via regulus_through and one as a collineation image of the standard one
    ch = symmetric_chart(GF3, 2)
    rng = random.Random(9)
    for _ in range(5):
        reg = random_regulus(ch, rng)
        members = reg.members()
        c1 = ch.coordinate_of(members[1])
        c2 = ch.coordinate_of(members[2])
        again = regulus_through(c1, c2)
        assert w_plus_transversals(again) == w_plus_transversals(reg)
        assert set(again.members()) == set(members)


def test_regulus_is_collineation_image_of_standard():
    # the affine part of Regulus(alpha, beta) is the image of the standard
    # affine regulus under [[alpha, 0], [beta, 1]] (alpha read in End(W)
    # through the index-wise identification of the bases)
    from complaff.chart import Collineation

    ch = symmetric_chart(GF3, 2)
    rng = random.Random(17)
    for _ in range(5):
        reg = random_regulus(ch, rng)
        phi = Collineation(ch, reg.alpha, reg.beta, MatrixK.identity(GF3, 2))
        std = standard_regulus(ch)
        images = {phi.on_subspace(s) for s in std.affine_members()}
        assert images == set(reg.affine_members())
        assert phi.on_subspace(ch.w) == ch.w


def test_cone_injective_alpha_nonsymmetric_chart():
    # injective but non-square alpha: the line is an affine regulus inside
    # im(alpha) (+) U, no vertex
    from complaff.algebra import PrimeField
    from complaff.chart import AffineChart

    gf2 = PrimeField(2)
    w = Subspace.from_rows(gf2, 5, [e(gf2, 5, 0), e(gf2, 5, 1), e(gf2, 5, 2)])
    ch = AffineChart(gf2, 5, w)
    alpha = MatrixK(gf2, [[1, 0, 0], [0, 1, 0]])     # rank 2, kernel 0
    line = AffineLine(ch, alpha, MatrixK.zero(gf2, 2, 3))
    cone = cone_decompose(line)
    assert cone.vertex.dim == 0 and cone.exact
    assert cone.u_prime == ch.u
    assert cone.base.chart.space.dim == 4            # im(alpha) (+) U
    assert {p.subspace() for p in line.points()} \
        == set(cone.base.affine_members())


def test_quaternion_regulus_with_wrong_trace_is_not_a_line():
    """A regulus whose W+T family differs from W+Z(U) is not a chart line.

    Over a finite field Z = K makes every such family agree, so the test
    is vacuous there; the witness needs the quaternions.  The regulus is
    the image of the standard one under [[1,0],[0,rho]], rho = diag(1, i).
    """
    ch = symmetric_chart(Q, 2)
    rho_inv = MatrixK(Q, [[1, 0], [0, -Q.i]])   # diag(1, i)^-1

    def member_coord(k):
        lam = MatrixK(Q, [[k, 0], [0, k]])
        return ch.coord((rho_inv * lam).entries)

    zero, one = member_coord(Q.zero()), member_coord(Q.one())
    line = line_through(zero, one)
    assert line.is_regular
    # the member at k = j is off the line joining the k = 0, 1 members
    assert not line.contains(member_coord(Q.j))
    assert Q.j * (-Q.i) != (-Q.i) * Q.j
    # and the W+T trace leaves W + Z(U): T_z has U-part K(z^rho)
    z = vec_add(e(Q, 4, 2), e(Q, 4, 3))
    z_rho = vec_add(e(Q, 4, 2), vec_scale(Q.i, e(Q, 4, 3)))
    assert ch.z.point_in_projective_z(z)
    assert not ch.z.point_in_projective_z(z_rho)


# ---------------------------------------------------------------------------
# transversal images of non-regular lines
# ---------------------------------------------------------------------------

def test_line_transversal_image_invertible_alpha():
    ch = symmetric_chart(GF3, 2)
    line = AffineLine(ch, MatrixK.identity(GF3, 2), MatrixK.zero(GF3, 2, 2))
    images = line_transversal_image(line)
    assert all(kind == "line" for kind, _ in images)


def test_line_transversal_image_requires_zero_beta():
    ch = symmetric_chart(GF3, 2)
    line = AffineLine(ch, MatrixK.identity(GF3, 2), MatrixK(GF3, [[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        line_transversal_image(line)


def test_line_transversal_image_rank_one():
    ch = symmetric_chart(GF3, 2)
    line = AffineLine(ch, MatrixK(GF3, [[1, 0], [0, 0]]), MatrixK.zero(GF3, 2, 2))
    images = line_transversal_image(line)
    points = [s for kind, s in images if kind == "point"]
    lines = [s for kind, s in images if kind == "line"]
    assert len(points) == 1 and len(lines) == 3     # z = b2 degenerates
    assert points[0] == Subspace.from_rows(GF3, 4, [e(GF3, 4, 3)])
    members = [p.subspace() for p in line.points()]
    # (a) every member passes through the degenerate point
    for member in members:
        assert member.contains(points[0])
    # (b) each image line is a transversal: meets W and each member once,
    #     and distinct members meet it in distinct points
    for t in lines:
        assert (t & ch.w).dim == 1
        hits = [t & member for member in members]
        assert all(h.dim == 1 for h in hits)
        assert len(set(hits)) == len(members)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_cone_invertible_alpha_degenerates():
    ch = symmetric_chart(GF3, 2)
    line = AffineLine(ch, MatrixK(GF3, [[1, 1], [0, 1]]), MatrixK.zero(GF3, 2, 2))
    cone = cone_decompose(line)
    assert cone.vertex.dim == 0 and cone.exact
    assert set(cone.base.members()) == set(regular_line_regulus(line).members())


def test_cone_rank_one_gf3():
    ch = symmetric_chart(GF3, 2)
    line = AffineLine(ch, MatrixK(GF3, [[1, 0], [0, 0]]), MatrixK.zero(GF3, 2, 2))
    cone = cone_decompose(line)
    assert cone.exact
    assert cone.vertex == Subspace.from_rows(GF3, 4, [e(GF3, 4, 3)])
    assert cone.u_prime == Subspace.from_rows(GF3, 4, [e(GF3, 4, 2)])
    cone_points = {x + cone.kernel for x in cone.base.affine_members()}
    assert cone_points == {p.subspace() for p in line.points()}


@pytest.mark.parametrize("domain, n, count",
                         [(GF2, 4, 15), (GF4, 4, 85), (GF2, 5, 63)],
                         ids=["GF(2)^4", "GF(4)^4", "GF(2)^5"])
def test_cone_points_are_the_line_points_for_every_alpha(domain, n, count):
    # the charts classify-lines runs on: W spanned by e_1, e_2; every
    # alpha up to left scaling, invertible ones included
    w = Subspace.from_rows(domain, n, [e(domain, n, 0), e(domain, n, 1)])
    ch = AffineChart(domain, n, w)
    zero = MatrixK.zero(domain, ch.m, ch.k)
    alphas = [MatrixK(domain, [flat[i * ch.k:(i + 1) * ch.k] for i in range(ch.m)])
              for flat in _projective_reps(domain, ch.m * ch.k)]
    assert len(alphas) == count
    for alpha in alphas:
        line = AffineLine(ch, alpha, zero)
        cone = cone_decompose(line)
        assert cone.exact                    # commutative: kernels are central
        cone_points = {x + cone.kernel for x in cone.base.affine_members()}
        assert cone_points == {p.subspace() for p in line.points()}


def test_cone_every_rank_one_alpha_gf3():
    ch = symmetric_chart(GF3, 2)
    elems = GF3.sample()
    zero = MatrixK.zero(GF3, 2, 2)
    for combo in itertools.product(elems, repeat=4):
        alpha = MatrixK(GF3, [combo[:2], combo[2:]])
        if alpha.is_zero() or is_invertible(alpha):
            continue
        cone = cone_decompose(AffineLine(ch, alpha, zero))
        assert cone.exact                    # commutative: kernels are central
        assert cone.vertex == cone.kernel
        for p in AffineLine(ch, alpha, zero).points():
            assert p.subspace().contains(cone.vertex)


def test_cone_vertex_inside_every_point_all_lines_gf3():
    ch = symmetric_chart(GF3, 2)
    elems = GF3.sample()
    zero = MatrixK.zero(GF3, 2, 2)
    for combo in itertools.product(elems, repeat=4):
        alpha = MatrixK(GF3, [combo[:2], combo[2:]])
        if alpha.is_zero():
            continue
        cone = cone_decompose(AffineLine(ch, alpha, zero))
        for p in AffineLine(ch, alpha, zero).points():
            assert p.subspace().contains(cone.vertex)


def test_cone_quaternion_noncentral_kernel():
    ch = symmetric_chart(Q, 2)
    alpha = MatrixK(Q, [[1, 0], [-Q.i, 0]])    # kernel K(i, 1), not central
    line = AffineLine(ch, alpha, MatrixK.zero(Q, 2, 2))
    cone = cone_decompose(line)
    assert cone.kernel.dim == 1
    assert cone.vertex.dim == 0 and not cone.exact
    assert cone.u_prime == Subspace.from_rows(Q, 4, [e(Q, 4, 2)])
    # the intersection statement, checked per sampled parameter:
    # X_k intersect (im (+) U') is the k-th member of the base line
    wall = cone.base.chart.space
    for k in Q.sample()[:12]:
        point = line.point_at(k).subspace()
        assert point & wall == cone.base.line.point_at(k).subspace()


def test_line_transversal_image_quaternion_samples():
    ch = symmetric_chart(Q, 2)
    # central kernel K*b2: the sampled z = b2 degenerates to a point
    central = AffineLine(ch, MatrixK(Q, [[1, 0], [0, 0]]), MatrixK.zero(Q, 2, 2))
    images = line_transversal_image(central)
    assert images.is_sample
    kinds = {kind for kind, _ in images}
    assert kinds == {"point", "line"}
    b2_point = Subspace.from_rows(Q, 4, [e(Q, 4, 3)])
    assert ("point", b2_point) in list(images)
    # noncentral kernel K(i,1): no rational sample hits it, all lines
    noncentral = AffineLine(ch, MatrixK(Q, [[1, 0], [-Q.i, 0]]),
                            MatrixK.zero(Q, 2, 2))
    assert all(kind == "line" for kind, _ in line_transversal_image(noncentral))


def test_cone_rejects_nonzero_beta():
    ch = symmetric_chart(GF3, 2)
    with pytest.raises(ValueError):
        cone_decompose(AffineLine(ch, MatrixK.identity(GF3, 2),
                                  MatrixK(GF3, [[1, 0], [0, 0]])))
    # the translated line has translated points, so reduction is exact
    line = AffineLine(ch, MatrixK(GF3, [[1, 0], [0, 0]]),
                      MatrixK(GF3, [[0, 1], [0, 0]]))
    base = AffineLine(ch, line.alpha, MatrixK.zero(GF3, 2, 2))
    shift = ch.coord([[0, 1], [0, 0]])
    assert {p.gamma for p in line.points()} == {(p + shift).gamma
                                                for p in base.points()}


def test_dimension_two_pencil_shape():
    # rank-1 alpha with central kernel: a line pencil with carrier ker(alpha)
    # and one line removed (the member im(alpha) (+) ker is not on the line)
    ch = symmetric_chart(GF3, 2)
    line = AffineLine(ch, MatrixK(GF3, [[1, 0], [0, 0]]), MatrixK.zero(GF3, 2, 2))
    cone = cone_decompose(line)
    pts = [p.subspace() for p in line.points()]
    assert len(pts) == 3
    for a, b in itertools.combinations(pts, 2):
        assert a & b == cone.kernel
    im_amb = Subspace.from_rows(GF3, 4, [e(GF3, 4, 0)])
    removed = im_amb + cone.kernel
    assert removed not in pts
    assert all((removed & p) == cone.kernel for p in pts)


# ---------------------------------------------------------------------------
# perspectivities
# ---------------------------------------------------------------------------

def _points_of(member):
    domain = member.domain
    out = []
    seen = set()
    for coeffs in itertools.product(domain.sample(), repeat=member.dim):
        v = None
        for c, row in zip(coeffs, member.basis.entries):
            term = vec_scale(c, row)
            v = term if v is None else vec_add(v, term)
        if v is None or all(x.is_zero() for x in v):
            continue
        p = Subspace.from_rows(domain, member.ambient, [v])
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def test_perspectivity_bijection_gf2():
    ch = symmetric_chart(GF2, 2)
    reg = standard_regulus(ch)
    u1, u2, u3 = reg.members()
    pi = perspectivity(reg, u1, u2, u3)
    images = [pi(p) for p in _points_of(u1)]
    assert len(set(images)) == 3
    assert all(u2.contains(p) for p in images)


def test_perspectivity_maps_z_traces_gf3():
    ch = symmetric_chart(GF3, 2)
    reg = standard_regulus(ch)
    members = reg.members()
    lines = transversals_of(reg).lines()
    for u1, u2, u3 in itertools.permutations(members, 3):
        pi = perspectivity(reg, u1, u2, u3)
        trace1 = {t & u1 for t in lines}
        trace2 = {t & u2 for t in lines}
        assert {pi(p) for p in trace1} == trace2
        # transversals are exactly the joins P (+) P^pi over the trace
        joined = {p + pi(p) for p in trace1}
        assert joined == set(lines)


def test_perspectivity_rejects_bad_arguments():
    ch = symmetric_chart(GF2, 2)
    reg = standard_regulus(ch)
    u1, u2, u3 = reg.members()
    with pytest.raises(ValueError):
        perspectivity(reg, u1, u2, u2)
    outsider = Subspace.from_rows(GF2, 4, [e(GF2, 4, 0), e(GF2, 4, 2)])
    with pytest.raises(ValueError):
        perspectivity(reg, u1, u2, outsider)
