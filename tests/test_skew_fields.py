"""The geometry over two skew fields given only by their payload hooks.

``QuaternionAlgebra(a, b)`` (boxed_reference.py) is the quaternion
algebra (a, b)_Q on ``Fraction`` 4-tuples.  Over (-1, -1) it is
Hamilton's quaternions again, the reference that test_kernel_oracle.py
checks ``complaff.algebra.Quaternions`` against; (-1, -3) is a division
ring that is not Hamilton's, checked here as one first.  The library
reads no payload layout of either: every property below runs over both,
through ``_imag_parts``, ``_is_central`` and the arithmetic hooks alone.
The seed-0 sample is the 3^4 grid over {0, 1, -1} and a seeded batch of
20.
"""

import itertools
import random
from fractions import Fraction

import pytest

from boxed_reference import QuaternionAlgebra
from complaff.chart import AffineChart, AffineLine, ComplementCoord, charts_equal, symmetric_chart
from complaff.linalg import MatrixK
from complaff.projective import Subspace
from complaff.reguli import cone_decompose, regulus_through, standard_regulus, transversals_of

ALGEBRAS = [QuaternionAlgebra(-1, -1), QuaternionAlgebra(-1, -3)]
IDS = ["(-1,-1)", "(-1,-3)"]


def units(d):
    """1, i, j, k as Scalars."""
    return [d.scalar([int(s == t) for s in range(4)]) for t in range(4)]


def random_element(rng, d):
    return d.scalar([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)])


# ---------------------------------------------------------------------------
# (-1, -3) as a division ring
# ---------------------------------------------------------------------------

def test_minus_one_minus_three_is_a_noncommutative_division_ring():
    d = QuaternionAlgebra(-1, -3)
    one, i, j, k = units(d)
    assert i * j != j * i and i * j == k == -(j * i)
    assert i * i == -one and j * j == d.scalar(-3) and k * k == d.scalar(-3)
    nonzero = [x for x in d.sample(0) if not x.is_zero()]
    assert len(nonzero) == 100
    for x in nonzero:
        assert x * x.inverse() == one == x.inverse() * x
    rng = random.Random(5)
    for _ in range(100):
        x, y, z = (random_element(rng, d) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
    assert [d._is_central(x.raw) for x in (one, i, j, k, d.scalar(7))] == [
        True, False, False, False, True]


# ---------------------------------------------------------------------------
# the geometry over both algebras
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", ALGEBRAS, ids=IDS)
def test_maximal_central_subspace_of_a_point(d):
    """K*(0, 0, 1, a) is central exactly when a is."""
    z, zero, one = symmetric_chart(d, 2).z, d.zero(), d.one()
    kinds = set()
    for a in d.sample(0):
        point = Subspace.from_rows(d, 4, [(zero, zero, one, a)])
        got = z.maximal_central_subspace(point)
        assert got == (point if d._is_central(a.raw) else Subspace.zero(d, 4))
        assert z.point_in_projective_z((zero, zero, one, a)) == d._is_central(a.raw)
        kinds.add(d._is_central(a.raw))
    assert kinds == {True, False}
    assert z.maximal_central_subspace(Subspace.zero(d, 4)) == Subspace.zero(d, 4)


@pytest.mark.parametrize("d", ALGEBRAS, ids=IDS)
def test_cone_vertex_is_the_central_part_of_the_kernel(d):
    """alpha = [[r], [c*r]] has kernel K*(-c, 1): a Z-point exactly when c
    is central, so the cone is exact then and has vertex 0 otherwise."""
    ch = symmetric_chart(d, 2)
    zero = MatrixK.zero(d, 2, 2)
    rng = random.Random(3)
    kinds = set()
    for c in d.sample(0)[::7]:
        r = [d.one(), random_element(rng, d)]
        cone = cone_decompose(AffineLine(ch, MatrixK(d, [r, [c * x for x in r]]), zero))
        assert cone.kernel.dim == 1
        if d._is_central(c.raw):
            assert cone.exact and cone.vertex == cone.kernel
        else:
            assert cone.vertex.dim == 0 and not cone.exact
        kinds.add(d._is_central(c.raw))
    assert kinds == {True, False}


def reguli(d):
    """The standard regulus and the one through two complementary points
    with non-central gammas."""
    ch = symmetric_chart(d, 2)
    one, i, j, _ = units(d)
    c1 = ComplementCoord(ch, MatrixK(d, [[i, 0], [0, j]]))
    c2 = ComplementCoord(ch, MatrixK(d, [[one, j], [0, one]]))
    return [standard_regulus(ch), regulus_through(c1, c2)]


@pytest.mark.parametrize("d", ALGEBRAS, ids=IDS)
def test_regulus_contains_its_members(d):
    for reg in reguli(d):
        members = reg.members(0)
        assert len(members) == 102
        assert all(reg.contains(s) for s in members)
        # off the line: the point at k = 1, gamma = alpha + beta, moved by e_11
        off = reg.beta + reg.alpha + MatrixK(d, [[1, 0], [0, 0]])
        assert not reg.contains(ComplementCoord(reg.chart, off).subspace())


@pytest.mark.parametrize("d", ALGEBRAS, ids=IDS)
def test_transversal_set_accepts_its_lines_and_rejects_twisted_planes(d):
    for reg in reguli(d):
        ts = transversals_of(reg)
        lines = ts.lines(0)
        assert len(lines) > 20 and all(ts.contains(t) for t in lines)
        # the same construction through a U-part z that is not a Z-point:
        # z = (1, c), c non-central
        twisted = [x for x in d.sample(0) if not d._is_central(x.raw)][:12]
        for c in twisted:
            z = [d._one, c.raw]
            assert not reg.chart.z._is_z_point(z)
            assert not ts.contains(ts._line_for(z))


def based(d, n: MatrixK):
    """The chart of K^4 with W = span(e_1, e_2), U = span(e_3, e_4) and the
    U-basis N * (e_3, e_4)."""
    e = MatrixK.identity(d, 4).entries
    return AffineChart(d, 4, Subspace.from_rows(d, 4, e[:2]), Subspace.from_rows(d, 4, e[2:]),
                       b=[(d.zero(), d.zero(), *row) for row in n.entries])


@pytest.mark.parametrize("d", ALGEBRAS, ids=IDS)
def test_charts_equal_exactly_for_a_scalar_times_a_central_base_change(d):
    one, i, j, k = units(d)
    base = based(d, MatrixK.identity(d, 2))
    half = d.scalar((Fraction(1, 2), 0, 0, 0))
    centrals = [MatrixK(d, [[1, 2], [0, 1]]), MatrixK(d, [[half, 0], [-one, 3]])]
    for q, zc in itertools.product([one, i, j + k, i - 2 * k], centrals):
        assert charts_equal(base, based(d, zc.scale_left(q)))
    # entries in no common left coset c*Z
    for n in (MatrixK(d, [[1, 0], [0, i]]), MatrixK(d, [[i, 0], [0, j]]),
              MatrixK(d, [[i, 1], [0, i]])):
        assert not charts_equal(base, based(d, n))
