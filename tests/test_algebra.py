import itertools
import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from complaff.algebra import (
    ExtensionField,
    PrimeField,
    Quaternions,
    Rationals,
    Sampled,
    Scalar,
    _is_prime,
    _projective_reps,
)
from complaff.errors import DomainMismatchError, InfiniteDomainError

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = ExtensionField(2, (1, 1, 1))     # x^2 + x + 1
Q = Quaternions()


def test_gf4_generator_square():
    x = GF4.scalar((0, 1))
    assert x * x == x + GF4.one()      # modulus reduction: x*x = x+1


def test_quaternion_defining_relations():
    i, j, k = Q.i, Q.j, Q.k
    assert i * j == k
    assert j * i == -k
    assert i * i == Q.scalar(-1)
    assert j * j == Q.scalar(-1)
    assert i * k == -j and k * i == j


def test_gf3_characteristic():
    two = GF3.scalar(2)
    assert two + two == GF3.one()


def test_division_and_errors():
    a = GF3.scalar(2)
    assert a / a == GF3.one()
    with pytest.raises(ZeroDivisionError):
        GF3.zero().inverse()
    with pytest.raises(DomainMismatchError):
        GF2.one() + GF3.one()


def test_is_central():
    from fractions import Fraction

    three_halves = Q.scalar((Fraction(3, 2), 0, 0, 0))
    assert Q._is_central(three_halves.raw)
    assert not Q._is_central(Q.i.raw)
    x = GF4.scalar((0, 1))
    assert GF4._is_central(x.raw)


def test_scalar_enumeration_orders():
    assert [s.payload for s in GF2.sample()] == [0, 1]
    names = [repr(s) for s in GF4.sample()]
    assert names == ["0", "1", "x", "x+1"]
    sample = Q.sample()
    assert isinstance(sample, Sampled) and sample.is_sample
    grid = sample[:81]
    assert len(set(grid)) == 81
    assert Q.zero() in grid and Q.one() in grid
    assert Q.i in grid and Q.j in grid and Q.k in grid
    # deterministic for a fixed seed, different for another
    assert Q.sample(0) == Q.sample(0)
    assert Q.sample(1) != Q.sample(2)


def test_infinite_enumeration_refuses():
    with pytest.raises(InfiniteDomainError):
        Q.elements()
    with pytest.raises(InfiniteDomainError):
        Q.order


@pytest.mark.parametrize("domain", [GF2, GF3, GF4])
def test_ring_axioms_exhaustive(domain):
    elems = domain.sample()
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
    sample = Q.sample()[:12] + Q.sample()[100:108]
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
        for a in domain.sample():
            commutes = all(a * s == s * a for s in domain.sample())
            assert domain._is_central(a.raw) == commutes
    probes = Q.sample()[:40]
    for a in Q.sample()[:30]:
        commutes = all(a * s == s * a for s in probes)
        if Q._is_central(a.raw):
            assert commutes
        else:
            assert not commutes


def quaternion_norm(s):
    """a^2 + b^2 + c^2 + d^2 for s = a + bi + cj + dk."""
    return sum(x * x for x in s.payload)


def test_quaternion_norm_multiplicative():
    sample = Q.sample()
    pairs = list(itertools.product(sample[:15], sample[90:100]))
    for a, b in pairs:
        assert quaternion_norm(a * b) == quaternion_norm(a) * quaternion_norm(b)


def test_extension_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ExtensionField(2, (0, 1, 1))      # x^2 + x = x(x+1)
    with pytest.raises(ValueError):
        ExtensionField(3, (1, 1, 2))      # not monic
    with pytest.raises(ValueError):
        PrimeField(4)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_10_5():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if _is_prime_by_trial_division(n)]


def test_is_prime_decides_large_moduli_quickly():
    start = time.perf_counter()
    assert PrimeField(999_999_999_999_999_989).p == 10 ** 18 - 11     # prime
    assert not _is_prime(10 ** 18 - 9)                                # 23 * 71 * ...
    # a strong pseudoprime to the bases 2..37; base 41 exposes it
    assert not _is_prime(318_665_857_834_031_151_167_461)
    assert _is_prime(2 ** 61 - 1) and not _is_prime(2 ** 67 - 1)
    assert time.perf_counter() - start < 0.5


def test_is_prime_refuses_moduli_beyond_its_proven_range():
    assert not _is_prime(3_317_044_064_679_887_385_961_979)    # limit - 2 = 17 * ...
    for n in (3_317_044_064_679_887_385_961_981, 10 ** 25):
        with pytest.raises(ValueError):
            _is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)


def test_gf9_arithmetic():
    gf9 = ExtensionField(3, (2, 2, 1))    # x^2 + 2x + 2, irreducible: no roots
    x = gf9.scalar((0, 1))
    assert x * x == gf9.scalar((1, 1))    # x^2 = -2x - 2 = x + 1
    assert len(gf9.sample()) == 9
    for a in gf9.sample():
        if not a.is_zero():
            assert a * a.inverse() == gf9.one()


def test_rationals_internal_domain():
    from fractions import Fraction

    QQ = Rationals()
    half = QQ.scalar(Fraction(1, 2))
    assert half + half == QQ.one()
    assert half.inverse() == QQ.scalar(2)


GF9 = ExtensionField(3, (1, 0, 1))    # x^2 + 1


@pytest.mark.parametrize("domain", [GF3, GF4, GF9, Q], ids=["GF3", "GF4", "GF9", "Quat"])
def test_scalar_int_equality_hashes_alike(domain):
    values = list(domain.sample()) + [domain.scalar(n) for n in range(-10, 11)]
    for s in values:
        for n in range(-10, 11):
            if s == n:
                assert hash(s) == hash(n)
    # an int equals only its canonical image, which is then found in sets
    for n in range(-10, 11):
        canonical = not domain.is_finite or 0 <= n < domain.characteristic
        assert (domain.scalar(n) == n) == canonical
        assert (n in {domain.scalar(n)}) == canonical
    assert GF3.one() != 4 and GF3.scalar(2) != -1


def _hyperplane_forms_loop(domain, n):
    """The "first nonzero entry = 1" loop of the former hyperplane_forms."""
    forms = []
    elems = domain.sample()
    for lead in range(n):
        for tail in itertools.product(elems, repeat=n - lead - 1):
            forms.append((domain.zero(),) * lead + (domain.one(),) + tail)
    return forms


@pytest.mark.parametrize("domain", [GF2, GF3, GF4], ids=["GF2", "GF3", "GF4"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projective_reps(domain, n):
    reps = [tuple(Scalar(domain, x) for x in v) for v in _projective_reps(domain, n)]
    q = domain.order
    assert len(reps) == (q ** n - 1) // (q - 1)
    for v in reps:
        assert next(x for x in v if not x.is_zero()) == domain.one()
    # no two proportional: their nonzero multiples cover K^n - 0 exactly once
    multiples = {tuple(c * x for x in v) for v in reps
                 for c in domain.sample() if not c.is_zero()}
    assert len(multiples) == q ** n - 1
    assert reps == _hyperplane_forms_loop(domain, n)


def test_a_decimal_component_has_the_string_exponent_bound():
    """Fraction(Decimal) expands the exponent to a power of ten, so a
    Decimal is held to the ±4300 that strings are: 1e-4300 reads as
    1/10^4300, and 1e-4301 and 1e4301 are refused before any expansion."""
    Q = Quaternions()
    assert Q.scalar((Decimal("1e-4300"), 0, 0, 0)).payload[0] == Fraction(1, 10 ** 4300)
    assert Q.scalar((Decimal("-25e4299"), 0, 0, 0)).payload[0] == -25 * 10 ** 4299
    for value in ("1e-4301", "1e4301", "-2.5e-4300"):
        with pytest.raises(ValueError, match="exponent must lie within"):
            Q.scalar((Decimal(value), 0, 0, 0))
    with pytest.raises(ValueError):
        Q.scalar((Decimal("NaN"), 0, 0, 0))
