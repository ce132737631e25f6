import itertools

import pytest

from complaff.algebra import (
    ExtensionField,
    PrimeField,
    Quaternions,
    Rationals,
    Sampled,
    _projective_reps,
    is_sample,
    scalars,
)
from complaff.errors import DomainMismatchError, InfiniteDomainError

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, (1, 1, 1))     # x^2 + x + 1
Q = Quaternions()


def test_gf4_generator_square():
    x = GF4.generator()
    assert x * x == x + GF4.one()      # modulus reduction: x*x = x+1


def test_quaternion_defining_relations():
    i, j, k = Q.i, Q.j, Q.k
    assert i * j == k
    assert j * i == -k
    assert i * i == Q.from_int(-1)
    assert j * j == Q.from_int(-1)
    assert i * k == -j and k * i == j


def test_gf3_characteristic():
    two = GF3.from_int(2)
    assert two + two == GF3.one()


def test_division_and_errors():
    a = GF3.from_int(2)
    assert a / a == GF3.one()
    with pytest.raises(ZeroDivisionError):
        GF3.zero().inverse()
    with pytest.raises(DomainMismatchError):
        GF2.one() + GF3.one()


def test_is_central():
    from fractions import Fraction

    three_halves = Q.scalar((Fraction(3, 2), 0, 0, 0))
    assert three_halves.is_central()
    assert not Q.i.is_central()
    x = GF4.generator()
    assert x.is_central()


def test_scalar_enumeration_orders():
    assert [s.payload for s in scalars(GF2)] == [0, 1]
    names = [repr(s) for s in scalars(GF4)]
    assert names == ["0", "1", "x", "x+1"]
    sample = scalars(Q)
    assert is_sample(sample)
    assert isinstance(sample, Sampled)
    grid = sample[:81]
    assert len(set(grid)) == 81
    assert Q.zero() in grid and Q.one() in grid
    assert Q.i in grid and Q.j in grid and Q.k in grid
    # deterministic for a fixed seed, different for another
    assert scalars(Q, seed=0) == scalars(Q, seed=0)
    assert scalars(Q, seed=1) != scalars(Q, seed=2)


def test_infinite_enumeration_refuses():
    with pytest.raises(InfiniteDomainError):
        Q.elements()
    with pytest.raises(InfiniteDomainError):
        Q.order


@pytest.mark.parametrize("domain", [GF2, GF3, GF4])
def test_ring_axioms_exhaustive(domain):
    elems = scalars(domain)
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a            # these domains are fields
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
    for a in elems:
        assert a + domain.zero() == a
        assert a * domain.one() == a
        if not a.is_zero():
            assert a * a.inverse() == domain.one()
            assert a.inverse() * a == domain.one()


def test_quaternion_ring_axioms_sampled():
    sample = scalars(Q)[:12] + scalars(Q)[100:108]
    for a, b, c in itertools.product(sample, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
    for a in sample:
        if not a.is_zero():
            assert a * a.inverse() == Q.one()
            assert a.inverse() * a == Q.one()


def test_quaternions_not_commutative_witness():
    assert Q.i * Q.j != Q.j * Q.i


def test_centrality_matches_commutation():
    for domain in (GF2, GF3, GF4):
        for a in scalars(domain):
            commutes = all(a * s == s * a for s in scalars(domain))
            assert a.is_central() == commutes
    probes = scalars(Q)[:40]
    for a in scalars(Q)[:30]:
        commutes = all(a * s == s * a for s in probes)
        if a.is_central():
            assert commutes
        else:
            assert not commutes


def test_quaternion_norm_multiplicative():
    sample = scalars(Q)
    pairs = list(itertools.product(sample[:15], sample[90:100]))
    for a, b in pairs:
        assert Q.norm(a * b) == Q.norm(a) * Q.norm(b)


def test_extension_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ExtensionField(2, (0, 1, 1))      # x^2 + x = x(x+1)
    with pytest.raises(ValueError):
        ExtensionField(3, (1, 1, 2))      # not monic
    with pytest.raises(ValueError):
        PrimeField(4)


def test_gf9_arithmetic():
    gf9 = ExtensionField(3, (2, 2, 1))    # x^2 + 2x + 2, irreducible: no roots
    x = gf9.generator()
    assert x * x == gf9.scalar((1, 1))    # x^2 = -2x - 2 = x + 1
    assert len(scalars(gf9)) == 9
    for a in scalars(gf9):
        if not a.is_zero():
            assert a * a.inverse() == gf9.one()


def test_rationals_internal_domain():
    from fractions import Fraction

    QQ = Rationals()
    half = QQ.scalar(Fraction(1, 2))
    assert half + half == QQ.one()
    assert half.inverse() == QQ.from_int(2)


GF9 = ExtensionField(3, (1, 0, 1))    # x^2 + 1


@pytest.mark.parametrize("domain", [GF3, GF4, GF9, Q], ids=["GF3", "GF4", "GF9", "Quat"])
def test_scalar_int_equality_hashes_alike(domain):
    values = list(scalars(domain)) + [domain.from_int(n) for n in range(-10, 11)]
    for s in values:
        for n in range(-10, 11):
            if s == n:
                assert hash(s) == hash(n)
    # an int equals only its canonical image, which is then found in sets
    for n in range(-10, 11):
        canonical = not domain.is_finite or 0 <= n < domain.characteristic
        assert (domain.from_int(n) == n) == canonical
        assert (n in {domain.from_int(n)}) == canonical
    assert GF3.one() != 4 and GF3.from_int(2) != -1


def _hyperplane_forms_loop(domain, n):
    """The "first nonzero entry = 1" loop of the former hyperplane_forms."""
    forms = []
    elems = scalars(domain)
    for lead in range(n):
        for tail in itertools.product(elems, repeat=n - lead - 1):
            forms.append((domain.zero(),) * lead + (domain.one(),) + tail)
    return forms


@pytest.mark.parametrize("domain", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projective_reps(domain, n):
    reps = list(_projective_reps(domain, n))
    q = domain.order
    assert len(reps) == (q ** n - 1) // (q - 1)
    for v in reps:
        assert next(x for x in v if not x.is_zero()) == domain.one()
    # no two proportional: their nonzero multiples cover K^n - 0 exactly once
    multiples = {tuple(c * x for x in v) for v in reps
                 for c in scalars(domain) if not c.is_zero()}
    assert len(multiples) == q ** n - 1
    assert reps == _hyperplane_forms_loop(domain, n)
