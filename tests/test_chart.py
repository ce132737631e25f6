import itertools

import pytest

from boxed_reference import ref_complement
from complaff import chart as chart_module
from complaff import config, linalg, projective
from complaff.algebra import ExtensionField, PrimeField, Quaternions
from complaff.chart import (
    AffineChart,
    AffineLine,
    Collineation,
    ComplementCoord,
    Subchart,
    are_complementary,
    charts_equal,
    hat_vector_map,
    line_through,
    postcompose_w,
    precompose_u,
    split_scalar_central,
    symmetric_chart,
)
from complaff.config import chart_from_config
from complaff.errors import ChartMismatchError, ConfigError, DomainMismatchError
from complaff.linalg import MatrixK
from complaff.projective import Subspace, is_complement
from vectors import unit_vector, vec_add, vec_scale

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, (1, 1, 1))
Q = Quaternions()


def std_chart(domain):
    return symmetric_chart(domain, 2)


def e(domain, n, i):
    return unit_vector(domain, n, i)


# ---------------------------------------------------------------------------
# coordinatization
# ---------------------------------------------------------------------------

def test_coordinate_of_u_is_zero():
    ch = std_chart(GF2)
    assert ch.coordinate_of(ch.u) == ch.zero_coord()
    assert ch.complement(ch.zero_coord()) == ch.u


def test_coordinate_worked_example_gf2():
    ch = std_chart(GF2)
    s = Subspace.from_rows(GF2, 4, [vec_add(e(GF2, 4, 0), e(GF2, 4, 2)),
                                    e(GF2, 4, 3)])
    c = ch.coordinate_of(s)
    assert c.gamma == MatrixK(GF2, [[1, 0], [0, 0]])
    assert ch.complement(c) == s


@pytest.mark.parametrize("domain,count", [(GF2, 16), (GF3, 81)])
def test_round_trip_exhaustive(domain, count):
    ch = std_chart(domain)
    coords = ch.all_coords()
    assert len(coords) == count
    seen = set()
    for c in coords:
        s = ch.complement(c)
        assert is_complement(ch.w, s)
        assert ch.coordinate_of(s) == c
        seen.add(s)
    assert len(seen) == count


@pytest.mark.parametrize("space_rows", [
    None, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]]], ids=["full", "proper"])
def test_chart_accepts_exactly_the_direct_sums(space_rows):
    """V = W (+) U, decided by the lattice: W & U = 0 and W + U = V, over
    every pair of proper nonzero subspaces of GF(2)^4; in the full space
    `is_complement` decides it the same way."""
    vectors = list(itertools.product(range(2), repeat=4))[1:]
    subspaces = {Subspace.from_rows(GF2, 4, rows) for r in (1, 2, 3)
                 for rows in itertools.combinations(vectors, r)}
    space = (Subspace.full(GF2, 4) if space_rows is None
             else Subspace.from_rows(GF2, 4, space_rows))
    for w, u in itertools.product(subspaces, repeat=2):
        if space_rows is None:
            assert is_complement(w, u) == ((w & u).dim == 0 and w + u == space)
        if (w & u).dim == 0 and w + u == space:
            ch = AffineChart(GF2, 4, w, u, space=space)
            assert (ch.k, ch.m, ch.space) == (w.dim, u.dim, space)
        else:
            with pytest.raises(ValueError, match="V = W"):
                AffineChart(GF2, 4, w, u, space=space)


@pytest.mark.parametrize("w_dim", [0, 3], ids=["W=0", "W=V"])
def test_trivial_charts_are_refused(w_dim):
    """W = 0 (k = 0) and W = V (m = 0, U = 0 by default) are excluded, each
    on its own."""
    w = Subspace.spanned(GF3, 3, MatrixK.identity(GF3, 3).payload[:w_dim])
    with pytest.raises(ValueError, match="trivial charts"):
        AffineChart(GF3, 3, w)


def test_coordinate_rejects_non_complement():
    ch = std_chart(GF2)
    with pytest.raises(ValueError):
        ch.coordinate_of(ch.w)


def test_complement_coord_rejects_gamma_of_another_domain():
    ch = symmetric_chart(GF3, 2)
    with pytest.raises(DomainMismatchError):
        ComplementCoord(ch, MatrixK.identity(ExtensionField(2, (1, 1, 1)), 2))
    with pytest.raises(DomainMismatchError):
        ComplementCoord(ch, MatrixK.identity(GF2, 2))
    assert ComplementCoord(ch, MatrixK.identity(GF3, 2)) == ch.coord([[1, 0], [0, 1]])


def test_nonstandard_bases_round_trip():
    w = Subspace.from_rows(GF3, 4, [vec_add(e(GF3, 4, 0), e(GF3, 4, 3)),
                                    e(GF3, 4, 1)])
    ch = AffineChart(GF3, 4, w)
    for c in ch.all_coords()[:20]:
        assert ch.coordinate_of(ch.complement(c)) == c


@pytest.mark.parametrize("domain", [GF3, GF4, Q], ids=["GF3", "GF4", "Quat"])
def test_complement_matches_boxed_route_with_given_bases(domain):
    """U^(gamma,1) against the boxed gamma * W-basis plus b, on a chart
    whose W-basis and b are caller-given, neither echelon nor unit rows:
    every gamma over GF(3) and GF(4), 81 over Quat(Q)."""
    s = domain.scalar((1, 1, 0, 0)) if domain is Q else domain.elements()[2]
    w0, w1 = vec_add(e(domain, 4, 0), e(domain, 4, 3)), e(domain, 4, 1)
    w_basis = [vec_add(vec_scale(s, w0), w1), vec_scale(s, w1)]
    b = [vec_add(e(domain, 4, 2), e(domain, 4, 1)), vec_scale(s, e(domain, 4, 3))]
    ch = AffineChart(domain, 4, Subspace.from_rows(domain, 4, [w0, w1]),
                     Subspace.from_rows(domain, 4, b), b=b, w_basis=w_basis)
    entries = (domain.elements() if domain.is_finite
               else (domain.zero(), s, domain.scalar(("1/2", 0, 0, -1))))
    for flat in itertools.product(entries, repeat=4):
        gamma = MatrixK(domain, [flat[:2], flat[2:]])
        assert ch.complement(gamma).basis == ref_complement(ch, gamma)


def count_combines(monkeypatch, domain) -> list:
    """Count the `_combine` calls of the domain's class."""
    calls, combine = [], type(domain)._combine

    def counted(self, *args):
        calls.append(args)
        return combine(self, *args)

    monkeypatch.setattr(type(domain), "_combine", counted)
    return calls


def split_rows(ch):
    """Payload rows of the chart's space: the rows of [W-basis; b] and a
    complement's basis."""
    gamma = MatrixK(ch.domain, [[i + j for j in range(ch.k)] for i in range(ch.m)])
    return [*ch._t.payload, *ch.complement(gamma).basis.payload]


@pytest.mark.parametrize("make", [
    lambda: symmetric_chart(Q, 2),
    lambda: chart_from_config({"field": "GF(3)", "n": 5, "k": 2})],
    ids=["model-quat", "default-config"])
def test_split_on_an_identity_basis_makes_no_combine(make, monkeypatch):
    """[W-basis; b] = I: full column rank and no row operation, so a row's
    chart coordinates are its own entries."""
    ch = make()
    rows = split_rows(ch)
    calls = count_combines(monkeypatch, ch.domain)
    coords = [ch._split(v) for v in rows]
    monkeypatch.undo()
    assert calls == []
    assert coords == [list(v) for v in rows]


@pytest.mark.parametrize("domain", [GF3, Q], ids=["GF3", "Quat"])
def test_split_with_other_bases_makes_one_combine(domain, monkeypatch):
    """A full-space chart with non-identity bases: no rebuild, one transform
    product per row."""
    one = domain.one()
    w = Subspace.from_rows(domain, 4, [vec_add(e(domain, 4, 0), e(domain, 4, 3)),
                                       e(domain, 4, 1)])
    b = [vec_add(e(domain, 4, 2), e(domain, 4, 1)), vec_scale(one + one, e(domain, 4, 3))]
    ch = AffineChart(domain, 4, w, Subspace.from_rows(domain, 4, b), b=b)
    rows = split_rows(ch)
    calls = count_combines(monkeypatch, domain)
    coords = [ch._split(v) for v in rows]
    monkeypatch.undo()
    assert len(calls) == len(rows)
    assert tuple(map(tuple, coords[:4])) == MatrixK.identity(domain, 4).payload
    assert [domain._combine(x, ch._t.payload, 4) for x in coords] == list(map(list, rows))


def test_chart_builds_its_coordinate_echelon_on_first_use(monkeypatch):
    """The default GF(4) chart checks V = W (+) U with a plain reduction:
    no rref until the first coordinate read, and none after it."""
    calls, original = [], linalg.rref

    def counted(m):
        calls.append(m)
        return original(m)

    for module in (linalg, projective, chart_module, config):
        if hasattr(module, "rref"):
            monkeypatch.setattr(module, "rref", counted)
    ch = chart_from_config({"field": "gf(2^2; modulus=[1,1,1])", "n": 4, "k": 2})
    assert calls == []
    gamma = MatrixK(ch.domain, [[1, 0], [0, ch.domain.scalar((0, 1))]])
    s = ch.complement(gamma)
    assert calls == []
    assert ch.coordinate_of(s).gamma == gamma
    assert calls == [ch._t]
    assert ch.coordinate_of(s).gamma == gamma
    assert calls == [ch._t]


GF4_SPEC = "gf(2^2; modulus=[1,1,1])"


def test_default_chart_makes_no_reduction_and_one_identity(monkeypatch):
    """e_1..e_k and the unit rows off W's pivots are echelon bases of W and
    of a complement, so the default chart reduces nothing."""
    reductions, identities = [], []
    original, identity = linalg.reduce_rows, MatrixK.identity.__func__

    def counted(domain, rows, ncols):
        reductions.append(ncols)
        return original(domain, rows, ncols)

    def counted_identity(cls, domain, n):
        identities.append(n)
        return identity(cls, domain, n)

    for module in (linalg, projective, chart_module, config):
        if hasattr(module, "reduce_rows"):
            monkeypatch.setattr(module, "reduce_rows", counted)
    monkeypatch.setattr(MatrixK, "identity", classmethod(counted_identity))
    ch = chart_from_config({"field": GF4_SPEC, "n": 4, "k": 2})
    assert reductions == [] and identities == [4]
    assert ch.u.basis.payload == MatrixK.identity(ch.domain, 4).payload[2:]


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (3, 1)])
def test_default_chart_equals_the_chart_that_spells_out_w_and_u(n, k):
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    default = chart_from_config({"field": GF4_SPEC, "n": n, "k": k})
    spelled = chart_from_config({"field": GF4_SPEC, "n": n, "k": k,
                                 "W": units[:k], "U": units[k:]})
    assert default == spelled
    assert (default.w_matrix, default.b_matrix) == (spelled.w_matrix, spelled.b_matrix)
    assert default._t == spelled._t == MatrixK.identity(default.domain, n)


@pytest.mark.parametrize("k", [0, 4, 5])
def test_config_refuses_a_trivial_chart_by_its_dimensions(k):
    """k = 0 and k >= n are refused on the numbers, before W is built."""
    with pytest.raises(ConfigError, match=r"need 0 < k < n"):
        chart_from_config({"field": GF4_SPEC, "n": 4, "k": k})


def test_desk_scale_bounds():
    # fields up to GF(9), dimensions up to 8
    from complaff.algebra import ExtensionField

    gf9 = ExtensionField(3, (2, 2, 1))
    ch9 = symmetric_chart(gf9, 2)
    for a, b in itertools.product(gf9.sample()[:4], repeat=2):
        c = ch9.coord([[a, b], [b, a]])
        assert ch9.coordinate_of(ch9.complement(c)) == c

    w = Subspace.from_rows(GF2, 8,
                           [e(GF2, 8, 0), e(GF2, 8, 1), e(GF2, 8, 2)])
    ch8 = AffineChart(GF2, 8, w)
    assert (ch8.k, ch8.m) == (3, 5)
    c = ch8.coord([[1, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 0], [1, 0, 1]])
    assert ch8.coordinate_of(ch8.complement(c)) == c


# ---------------------------------------------------------------------------
# the vector space structure
# ---------------------------------------------------------------------------

def test_affine_ops_identities():
    ch = std_chart(GF3)
    c = ch.coord([[1, 0], [0, 0]])
    assert GF3.one() * c == c
    assert GF3.zero() * c == ch.zero_coord()
    assert GF3.scalar(2) * c == ch.coord([[2, 0], [0, 0]])


def test_quaternion_scalar_action_is_left():
    ch = std_chart(Q)
    c = ch.coord([[Q.j, 0], [0, 0]])
    assert (Q.i * c).gamma == MatrixK(Q, [[Q.k, 0], [0, 0]])     # i*j = k
    # the right multiple would give -k; guard against that regression
    assert (Q.i * c).gamma != MatrixK(Q, [[-Q.k, 0], [0, 0]])
    assert (Q.i * c).gamma.entries[0][0] == Q.i * Q.j
    assert Q.j * Q.i == -Q.k


def test_vector_space_axioms_gf2_exhaustive():
    ch = std_chart(GF2)
    pts = ch.all_coords()
    ks = GF2.sample()
    for a, b in itertools.product(pts, repeat=2):
        assert a + b == b + a
    for a, b, c in itertools.product(pts, repeat=3):
        assert (a + b) + c == a + (b + c)
    zero = ch.zero_coord()
    for a in pts:
        assert a + zero == a
        assert a + (-a) == zero
        assert GF2.one() * a == a
    for k, l in itertools.product(ks, repeat=2):
        for a in pts:
            assert k * (l * a) == (k * l) * a
            assert (k + l) * a == k * a + l * a
        for a, b in itertools.product(pts[:6], repeat=2):
            assert k * (a + b) == k * a + k * b


def test_vector_space_axioms_quaternion_samples():
    ch = std_chart(Q)
    sample = Q.sample()
    ks = sample[:6] + sample[85:88]
    pts = [ch.coord([[a, b], [c, 0]])
           for a, b, c in itertools.product((Q.zero(), Q.one(), Q.i), repeat=3)][:12]
    zero = ch.zero_coord()
    for a, b in itertools.product(pts, repeat=2):
        assert a + b == b + a
    for a, b, c in itertools.product(pts[:6], repeat=3):
        assert (a + b) + c == a + (b + c)
    for a in pts:
        assert a + zero == a and a + (-a) == zero
        assert Q.one() * a == a
    for k, l in itertools.product(ks, repeat=2):
        for a in pts[:6]:
            assert k * (l * a) == (k * l) * a
            assert (k + l) * a == k * a + l * a
    for k in ks:
        for a, b in itertools.product(pts[:6], repeat=2):
            assert k * (a + b) == k * a + k * b


def test_complementarity_iff_invertible_difference_gf2():
    ch = std_chart(GF2)
    pts = ch.all_coords()
    subs = {c: ch.complement(c) for c in pts}
    for c1, c2 in itertools.combinations(pts, 2):
        geometric = is_complement(subs[c1], subs[c2])
        assert geometric == are_complementary(c1, c2)


# ---------------------------------------------------------------------------
# lines
# ---------------------------------------------------------------------------

def test_complementarity_iff_invertible_difference_quaternion_samples():
    import random

    ch = std_chart(Q)
    rng = random.Random(13)
    pool = Q.sample()[:30]
    for _ in range(20):
        c1 = ch.coord([[rng.choice(pool) for _ in range(2)] for _ in range(2)])
        c2 = ch.coord([[rng.choice(pool) for _ in range(2)] for _ in range(2)])
        if c1 == c2:
            continue
        s1, s2 = ch.complement(c1), ch.complement(c2)
        geometric = (s1 & s2).dim == 0 and (s1 + s2).dim == 4
        assert geometric == are_complementary(c1, c2)


def test_line_points_gf2():
    ch = std_chart(GF2)
    line = AffineLine(ch, MatrixK.identity(GF2, 2), MatrixK.zero(GF2, 2, 2))
    pts = line.points()
    assert len(pts) == 2
    assert ch.zero_coord() in pts
    assert ch.coord([[1, 0], [0, 1]]) in pts


def test_line_points_gf3_pairwise_complementary():
    ch = std_chart(GF3)
    line = AffineLine(ch, MatrixK.identity(GF3, 2), MatrixK.zero(GF3, 2, 2))
    pts = line.points()
    assert len(pts) == 3
    for c1, c2 in itertools.combinations(pts, 2):
        assert are_complementary(c1, c2)


def test_is_regular():
    ch = std_chart(GF3)
    assert AffineLine(ch, MatrixK.identity(GF3, 2), MatrixK.zero(GF3, 2, 2)).is_regular
    assert not AffineLine(ch, MatrixK(GF3, [[1, 0], [0, 0]]),
                          MatrixK.zero(GF3, 2, 2)).is_regular


def test_line_through_and_membership():
    ch = std_chart(GF3)
    c1 = ch.coord([[1, 0], [0, 0]])
    c2 = ch.coord([[1, 1], [2, 0]])
    line = line_through(c1, c2)
    assert line.contains(c1) and line.contains(c2)
    assert set(line.points()) == {c1, c2, line.point_at(2)}
    with pytest.raises(ValueError):
        line_through(c1, c1)


def test_quaternion_line_membership_predicate():
    ch = std_chart(Q)
    line = AffineLine(ch, MatrixK.identity(Q, 2), MatrixK.zero(Q, 2, 2))
    pts = line.points()
    assert pts.is_sample
    assert all(line.contains(p) for p in pts)
    assert line.parameter_of(line.point_at(Q.i)) == Q.i
    off = ch.coord([[Q.i, 0], [0, Q.j]])
    assert not line.contains(off)


# ---------------------------------------------------------------------------
# collineations
# ---------------------------------------------------------------------------

def test_collineation_identity_and_translation():
    ch = std_chart(GF2)
    ident = Collineation(ch, MatrixK.identity(GF2, 2), MatrixK.zero(GF2, 2, 2),
                         MatrixK.identity(GF2, 2))
    eta = MatrixK(GF2, [[1, 0], [0, 1]])
    tr = Collineation.translation(ch, eta)
    for c in ch.all_coords():
        assert ident.on_coord(c) == c
        assert tr.on_coord(c).gamma == c.gamma + eta


def test_collineation_coord_matches_subspace_action_exhaustive_gf2():
    ch = std_chart(GF2)
    mats = _all_2x2(GF2)
    invertible = [m for m in mats if m.is_square() and _invertible(m)]
    coords = ch.all_coords()
    for a in invertible:
        for h in mats:
            for r in invertible:
                phi = Collineation(ch, a, h, r)
                for c in coords:
                    assert (ch.complement(phi.on_coord(c))
                            == phi.on_subspace(ch.complement(c)))


def _invertible(m):
    from complaff.linalg import is_invertible
    return is_invertible(m)


def test_collineation_coord_matches_subspace_action_gf3_samples():
    ch = std_chart(GF3)
    blocks = [
        (MatrixK.identity(GF3, 2), MatrixK(GF3, [[1, 2], [0, 1]]),
         MatrixK.identity(GF3, 2)),
        (MatrixK(GF3, [[1, 1], [0, 1]]), MatrixK.zero(GF3, 2, 2),
         MatrixK(GF3, [[2, 0], [1, 1]])),
        (MatrixK(GF3, [[0, 1], [1, 0]]), MatrixK(GF3, [[1, 0], [0, 2]]),
         MatrixK(GF3, [[1, 2], [1, 1]])),
    ]
    for a, h, r in blocks:
        phi = Collineation(ch, a, h, r)
        for c in ch.all_coords()[:27]:
            assert ch.complement(phi.on_coord(c)) == phi.on_subspace(ch.complement(c))


def test_translations_simply_transitive():
    ch = std_chart(GF2)
    pts = ch.all_coords()
    for c1, c2 in itertools.product(pts, repeat=2):
        etas = [eta for eta in pts
                if Collineation.translation(ch, eta.gamma).on_coord(c1) == c2]
        assert len(etas) == 1


def _block_action(ch, a, h, r, v):
    """(x, y) |-> (x*A + y*H, y*R) on the split coordinates of v, one
    Scalar at a time."""
    x, y = ch.coords_split(v)

    def times(u, m):
        return tuple(sum((u[i] * m.entries[i][j] for i in range(m.rows)), ch.domain.zero())
                     for j in range(m.cols))

    return ch.from_split(vec_add(times(x, a), times(y, h)), times(y, r))


@pytest.mark.parametrize("domain, blocks", [
    (GF3, ([[1, 1], [0, 2]], [[2, 0], [1, 1]], [[0, 1], [1, 1]])),
    (Q, ([[Q.i, 1], [0, Q.j]], [[Q.one() / 2, Q.k], [Q.j, -1]], [[1, Q.k], [0, Q.i]])),
], ids=repr)
def test_collineation_on_vector_is_the_block_action(domain, blocks):
    """on_vector against the split coordinates moved by hand, in a chart
    whose bases are not the standard ones."""
    w = Subspace.from_rows(domain, 4, [[1, 0, 1, 0], [0, 1, 0, 0]])
    u = Subspace.from_rows(domain, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    ch = AffineChart(domain, 4, w, u, b=[[0, 0, 1, 1], [0, 0, 0, 1]],
                     w_basis=[[1, 1, 1, 0], [0, 1, 0, 0]])
    a, h, r = (MatrixK(domain, m) for m in blocks)
    phi = Collineation(ch, a, h, r)
    for v in itertools.product(domain.sample()[-3:], repeat=4):
        assert phi.on_vector(v) == _block_action(ch, a, h, r, v)


def test_collineation_requires_invertible_blocks():
    ch = std_chart(GF2)
    with pytest.raises(ValueError):
        Collineation(ch, MatrixK.zero(GF2, 2, 2), MatrixK.zero(GF2, 2, 2),
                     MatrixK.identity(GF2, 2))


# ---------------------------------------------------------------------------
# scalar-central splitting and chart equality
# ---------------------------------------------------------------------------

def test_split_commutative_always_succeeds():
    nu = MatrixK(GF3, [[2, 0], [1, 1]])
    res = split_scalar_central(nu)
    assert res is not None
    m, zeta = res
    assert zeta.scale_left(m) == nu
    assert all(GF3._is_central(x) for row in zeta.payload for x in row)


def test_split_quaternion_examples():
    diag_ii = MatrixK(Q, [[Q.i, 0], [0, Q.i]])
    res = split_scalar_central(diag_ii)
    assert res is not None
    m, zeta = res
    assert m == Q.i and zeta == MatrixK.identity(Q, 2)

    diag_ij = MatrixK(Q, [[Q.i, 0], [0, Q.j]])
    assert split_scalar_central(diag_ij) is None
    # oracle: j*i*j^-1 = -i differs from i*i*i^-1 = i, so no single l works
    assert Q.j * Q.i * Q.j.inverse() == -Q.i


def test_split_commutation_property():
    # nu = lambda_m zeta satisfies nu lambda_k = lambda_{m k m^-1} nu
    nu = MatrixK(Q, [[Q.i, Q.i], [0, Q.i]])
    res = split_scalar_central(nu)
    assert res is not None
    m, _ = res
    for k in Q.sample()[:81]:
        left = nu * MatrixK(Q, [[k, 0], [0, k]])
        lam_l = m * k * m.inverse()
        right = MatrixK(Q, [[lam_l, 0], [0, lam_l]]) * nu
        assert left == right


def quaternion_chart_with_basis(b_rows):
    w = Subspace.from_rows(Q, 4, [e(Q, 4, 0), e(Q, 4, 1)])
    u = Subspace.from_rows(Q, 4, [e(Q, 4, 2), e(Q, 4, 3)])
    return AffineChart(Q, 4, w, u, b=b_rows)


def test_charts_equal_cases():
    b1, b2 = e(Q, 4, 2), e(Q, 4, 3)
    base = quaternion_chart_with_basis([b1, b2])
    assert charts_equal(base, base)
    scaled_both = quaternion_chart_with_basis([vec_scale(Q.i, b1), vec_scale(Q.i, b2)])
    assert charts_equal(base, scaled_both)
    scaled_one = quaternion_chart_with_basis([b1, vec_scale(Q.i, b2)])
    assert not charts_equal(base, scaled_one)
    # witness: the Z-point K(b1 + b2) of the first chart is not a Z-point
    # of the second (coordinates 1, -i share no left coset of Q)
    assert base.z.point_in_projective_z(vec_add(b1, b2))
    assert not scaled_one.z.point_in_projective_z(vec_add(b1, b2))


def test_charts_equal_finite_always():
    w = Subspace.from_rows(GF3, 4, [e(GF3, 4, 0), e(GF3, 4, 1)])
    u = Subspace.from_rows(GF3, 4, [e(GF3, 4, 2), e(GF3, 4, 3)])
    base = AffineChart(GF3, 4, w, u)
    other = AffineChart(GF3, 4, w, u, b=[vec_add(e(GF3, 4, 2), e(GF3, 4, 3)),
                                         e(GF3, 4, 3)])
    assert charts_equal(base, other)
    # the base change also splits, the finite leg of the triangle
    rho = MatrixK(GF3, [base.z.coords_of(bp) for bp in other.b], cols=2)
    assert split_scalar_central(rho) is not None


def test_charts_equal_split_triangle():
    b1, b2 = e(Q, 4, 2), e(Q, 4, 3)
    base = quaternion_chart_with_basis([b1, b2])
    cases = [
        MatrixK(Q, [[Q.i, 0], [0, Q.i]]),
        MatrixK(Q, [[Q.i, 0], [0, Q.j]]),
        MatrixK(Q, [[1, 1], [0, 1]]),
        MatrixK(Q, [[Q.i, 1], [0, Q.i]]),
    ]
    for rho in cases:
        image_b = [vec_add(vec_scale(rho.entries[i][0], b1),
                           vec_scale(rho.entries[i][1], b2)) for i in range(2)]
        moved = quaternion_chart_with_basis(image_b)
        assert charts_equal(base, moved) == (split_scalar_central(rho) is not None)


def test_charts_equal_rejects_different_wu():
    ch1 = std_chart(GF2)
    w2 = Subspace.from_rows(GF2, 4, [e(GF2, 4, 0), e(GF2, 4, 2)])
    ch2 = AffineChart(GF2, 4, w2)
    with pytest.raises(ChartMismatchError):
        charts_equal(ch1, ch2)


# ---------------------------------------------------------------------------
# homomorphisms: postcompose_w (hat) and precompose_u (star)
# ---------------------------------------------------------------------------

def test_postcompose_identity_and_zero():
    ch = std_chart(GF2)
    ident = MatrixK.identity(GF2, 2)
    zero = MatrixK.zero(GF2, 2, 2)
    for c in ch.all_coords():
        assert postcompose_w(ident, c, ch) == c
        assert postcompose_w(zero, c, ch) == ch.zero_coord()


def test_postcompose_maps_lines_to_lines_or_points():
    ch = std_chart(GF2)
    alpha = MatrixK(GF2, [[1, 0], [0, 0]])       # rank 1
    nonzero = [m for m in _all_2x2(GF2) if not m.is_zero()]
    for a in nonzero:
        for b in _all_2x2(GF2):
            line = AffineLine(ch, a, b)
            images = {postcompose_w(alpha, p, ch) for p in line.points()}
            direction = a * alpha
            if direction.is_zero():
                assert len(images) == 1
            else:
                target_line = AffineLine(ch, direction, b * alpha)
                assert images == set(target_line.points())


def test_postcompose_is_linear():
    ch = std_chart(GF3)
    alpha = MatrixK(GF3, [[1, 2], [0, 1]])
    for c1, c2 in itertools.product(ch.all_coords()[:9], repeat=2):
        assert (postcompose_w(alpha, c1 + c2, ch)
                == postcompose_w(alpha, c1, ch) + postcompose_w(alpha, c2, ch))
    for k in GF3.sample():
        for c in ch.all_coords()[:9]:
            assert postcompose_w(alpha, k * c, ch) == k * postcompose_w(alpha, c, ch)


def test_hat_vector_map_agrees_on_subspaces():
    ch = std_chart(GF2)
    alpha = MatrixK(GF2, [[1, 1], [0, 0]])
    act = hat_vector_map(alpha, ch, ch)
    for c in ch.all_coords():
        s = ch.complement(c)
        image = Subspace.from_rows(GF2, 4, [act(row) for row in s.basis.entries])
        assert image == ch.complement(postcompose_w(alpha, c, ch))


def _all_2x2(domain):
    elems = domain.sample()
    return [MatrixK(domain, [[a, b], [c, d]])
            for a, b, c, d in itertools.product(elems, repeat=4)]


def test_precompose_identity_and_contravariance():
    ch = std_chart(GF3)
    ident = MatrixK.identity(GF3, 2)
    for c in ch.all_coords()[:12]:
        assert precompose_u(ident, c, ch) == c
    # (delta rho)* = rho* delta* on central samples
    delta = MatrixK(GF3, [[1, 1], [0, 2]])
    rho = MatrixK(GF3, [[2, 0], [1, 1]])
    for c in ch.all_coords()[:12]:
        via_product = precompose_u(delta * rho, c, ch)
        stepwise = precompose_u(delta, precompose_u(rho, c, ch), ch)
        assert via_product == stepwise


def test_precompose_rejects_non_central():
    ch = std_chart(Q)
    delta = MatrixK(Q, [[Q.i, 0], [0, 1]])
    with pytest.raises(ValueError):
        precompose_u(delta, ch.zero_coord(), ch)


def test_subchart_intersection_mapping_is_lattice_intersection():
    ch = std_chart(GF2)
    sub = Subchart(ch, (0,))
    wall = ch.w + sub.chart.u        # W (+) U'
    for c in ch.all_coords():
        restricted = sub.restrict(c)
        assert sub.chart.complement(restricted) == ch.complement(c) & wall


def test_subchart_join_mapping_and_identity():
    ch = std_chart(GF3)
    sub = Subchart(ch, (0,))
    c_sub = sub.complement_c
    # extend is the join with C
    for cp in sub.chart.all_coords():
        joined = sub.extend(cp)
        assert ch.complement(joined) == sub.chart.complement(cp) + c_sub
        assert sub.restrict(joined) == cp       # pi* iota* = id on the subchart
    # image of extend is exactly {S : C <= S}
    image = {sub.extend(cp) for cp in sub.chart.all_coords()}
    through_c = {c for c in ch.all_coords()
                 if ch.complement(c).contains(c_sub)}
    assert image == through_c
    # and join-after-intersect fixes that set pointwise
    for c in through_c:
        assert sub.extend(sub.restrict(c)) == c
