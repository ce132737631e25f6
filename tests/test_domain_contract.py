"""The payload contract every scalar domain meets, on every domain the
library or the tests build.

The geometry reads a domain only through its payload hooks (the README
lists them).  This file states what it relies on, for each domain:

* a working payload is a fixed point of ``_canon``, type included, and
  every hook returns working payloads;
* ``_public`` is undone by ``_canon``: ``_canon(_public(x)) == x``, and
  over Quat(Q) four components that mix int, Fraction, str and integral
  float read as the all-Fraction ones;
* ``_combine`` equals the generic loop of ``ScalarDomain._combine``, has
  ``width`` entries and refuses a ``width`` wider than the rows;
* ``_inv`` is a two-sided inverse and refuses zero;
* ``_sample(seed)`` is deterministic and canonical;
* ``_imag_parts(x)`` vanishes exactly when ``_is_central(x)`` on a
  noncommutative domain, and every element is central on a commutative
  one.

The payloads come from the whole domain when it has at most 27 elements,
else from a seeded draw through ``_canon``.  GF(p^2) with p = 2^61 - 1
and modulus x^2 + 1 (irreducible since p = 3 mod 4) has codes far past
2^64.  Its q = p^2 payloads are never listed, so the sample property is
not run on it.  ``Rationals`` offers no sample, since no enumeration
walks it; that refusal is checked.
"""

import itertools
import random
from collections.abc import Sequence
from fractions import Fraction

import pytest

from boxed_reference import QuaternionAlgebra
from complaff.algebra import (
    ExtensionField,
    PrimeField,
    Quaternions,
    Rationals,
    ScalarDomain,
)
from complaff.errors import InfiniteDomainError

P61 = 2 ** 61 - 1
DOMAINS = {
    "GF2": PrimeField(2),
    "GF3": PrimeField(3),
    "GF(2^61-1)": PrimeField(P61),
    "GF4": ExtensionField(2, (1, 1, 1)),
    "GF8": ExtensionField(2, (1, 1, 0, 1)),
    "GF9": ExtensionField(3, (1, 0, 1)),
    "GF27": ExtensionField(3, (1, 2, 0, 1)),
    "GF((2^61-1)^2)": ExtensionField(P61, (1, 0, 1)),
    "Quat(Q)": Quaternions(),
    "(-1,-1)": QuaternionAlgebra(-1, -1),
    "(-1,-3)": QuaternionAlgebra(-1, -3),
    "QQ": Rationals(),
}
NAMES = list(DOMAINS)
LISTED = 27                 # a finite domain up to this order is taken whole


def draw(domain, rng):
    """One canonical payload drawn through the domain's way in."""
    if isinstance(domain, PrimeField):
        return domain._canon(rng.randrange(-domain.p, 2 * domain.p))
    if isinstance(domain, ExtensionField):
        return domain._canon(tuple(rng.randrange(domain.p) for _ in range(domain.k)))
    if isinstance(domain, Rationals):
        return domain._canon(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return domain._canon([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(4)])


def payloads(domain, count=14):
    """Zero, one and further canonical payloads of the domain."""
    if domain.is_finite and domain.order <= LISTED:
        return list(domain._payloads())
    rng = random.Random(repr(domain))
    return [domain._zero, domain._one] + [draw(domain, rng) for _ in range(count - 2)]


def is_working(domain, x):
    """x is a working payload: a fixed point of _canon, type included."""
    y = domain._canon(x)
    return y == x and type(y) is type(x)


@pytest.mark.parametrize("name", NAMES)
def test_a_working_payload_is_its_own_canonical_form(name):
    domain = DOMAINS[name]
    for x in [domain._zero, domain._one, *payloads(domain)]:
        assert is_working(domain, x), x
        assert is_working(domain, domain._canon(x))
    assert domain._canon(0) == domain._zero and domain._canon(1) == domain._one


@pytest.mark.parametrize("name", NAMES)
def test_every_hook_returns_working_payloads(name):
    domain = DOMAINS[name]
    elems = payloads(domain)
    one, zero = domain._one, domain._zero
    for x, y in itertools.product(elems, repeat=2):
        outs = [domain._add(x, y), domain._mul(x, y), domain._neg(x),
                *domain._combine([x, y], [[x, y, one], [y, zero, x]], 3)]
        if x != zero:
            outs.append(domain._inv(x))
        for out in outs:
            assert is_working(domain, out), (x, y, out)


@pytest.mark.parametrize("name", NAMES)
def test_the_public_view_reads_back(name):
    domain = DOMAINS[name]
    for x in payloads(domain):
        public = domain._public(x)
        assert domain._canon(public) == x
        assert is_working(domain, domain._canon(public))
    for n in (-3, -1, 0, 1, 2, 5):
        assert domain._canon(domain._public(domain._canon(n))) == domain._canon(n)


def test_quaternion_components_of_mixed_types_read_as_fractions():
    """Quat(Q) reads four components as they are when each is an int or a
    Fraction, and any other through Fraction: a mix of int, Fraction, str
    and integral float gives the all-Fraction result."""
    domain = DOMAINS["Quat(Q)"]
    rng = random.Random("mixed components")
    for _ in range(80):
        parts = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 12)))
                 for _ in range(4)]
        expected = domain._canon(parts)
        assert domain._public(expected) == tuple(parts)
        assert is_working(domain, expected)
        forms = [rng.choice((Fraction, str) + ((int, float) if x.denominator == 1 else ()))
                 for x in parts]
        mixed = [form(x) for form, x in zip(forms, parts)]
        assert domain._canon(mixed) == expected, mixed
        assert domain._canon(tuple(mixed)) == expected
    assert domain._canon([1, Fraction(1, 2), "-1/3", 2.0]) == (6, 3, -2, 12, 6)


@pytest.mark.parametrize("payload", [(1, 0, 0, 0, 0), (0, 0, 0, 0, 0), (1, 0, 0, 0, 2.0),
                                     (1.0, 0, 0, 0, 1), (Fraction(1, 2), 0, 0, 0, 1)])
def test_a_quaternion_working_payload_needs_int_entries_and_a_nonzero_denominator(payload):
    """Five components are read as the working payload only when all are
    ints over a nonzero denominator; a negative one flips every sign."""
    domain = DOMAINS["Quat(Q)"]
    with pytest.raises(ValueError, match="5-component"):
        domain._canon(payload)
    assert domain._canon((2, -4, 0, 6, -4)) == (-1, 2, 0, -3, 2)


def test_extension_codes_are_the_coefficients_in_base_p():
    """c_0 + c_1*p + ... : the order of _payloads, and codes past 2^64."""
    gf9 = DOMAINS["GF9"]
    assert [gf9._public(x) for x in gf9._payloads()] == [
        digits[::-1] for digits in itertools.product(range(3), repeat=2)]
    assert list(gf9._payloads()) == list(range(9))
    big = DOMAINS["GF((2^61-1)^2)"]
    x = big._canon((5, P61 - 1))
    assert x == 5 + (P61 - 1) * P61 and big._public(x) == (5, P61 - 1)
    assert big._mul(x, big._inv(x)) == big._one
    # x^2 = -1: the code of (0, 1) squared is the code of (p - 1, 0)
    i = big._canon((0, 1))
    assert big._mul(i, i) == big._canon(-1) == P61 - 1


def test_extension_payloads_are_a_lazy_sequence_of_codes():
    """GF(p^k) hands out its codes one at a time: indexable from either
    end, re-iterable and a Sequence for ``st.sampled_from``, with no
    listing of q codes even at q = (2^61 - 1)^2."""
    big = DOMAINS["GF((2^61-1)^2)"]
    codes = big._payloads()
    assert isinstance(codes, Sequence)
    assert list(itertools.islice(codes, 3)) == list(itertools.islice(codes, 3)) == [0, 1, 2]
    assert all(type(x) is type(big._zero) and is_working(big, x)
               for x in (codes[0], codes[5], codes[-1]))
    assert (codes[5], codes[-1]) == (5, big.order - 1)
    gf9 = DOMAINS["GF9"]._payloads()
    assert len(gf9) == 9 and list(reversed(gf9)) == list(range(8, -1, -1))


ELEMS = {name: payloads(domain) for name, domain in DOMAINS.items()}


def combination(name, rng, width):
    """Coefficients and rows of one matrix, at least `width` wide, with
    zero coefficients and zero rows among them."""
    domain, elems = DOMAINS[name], ELEMS[name]
    zero, length = domain._zero, width + rng.randint(0, 2)
    rows = [[zero] * length if rng.random() < 0.2
            else [rng.choice(elems) for _ in range(length)]
            for _ in range(rng.randint(0, 4))]
    return [rng.choice(elems + [zero, zero]) for _ in rows], rows


@pytest.mark.parametrize("name", NAMES)
def test_combine_equals_the_generic_loop(name):
    domain = DOMAINS[name]
    rng = random.Random(name)
    for _ in range(60):
        width = rng.randint(0, 4)
        coeffs, rows = combination(name, rng, width)
        out = domain._combine(coeffs, rows, width)
        assert out == ScalarDomain._combine(domain, coeffs, rows, width)
        assert len(out) == width and all(is_working(domain, x) for x in out)
        if rows:
            with pytest.raises(ValueError, match="exceeds"):
                domain._combine(coeffs, rows, len(rows[0]) + 1)


@pytest.mark.parametrize("name", NAMES)
def test_inverse_is_two_sided(name):
    domain = DOMAINS[name]
    one, zero = domain._one, domain._zero
    for x in payloads(domain):
        if x != zero:
            inv = domain._inv(x)
            assert domain._mul(x, inv) == one == domain._mul(inv, x), x
    with pytest.raises(ZeroDivisionError):
        domain._inv(zero)


# GF(p^2) for a 61-bit p is left out: its sample lists all q = p^2 payloads
SAMPLED = [name for name in NAMES if name != "GF((2^61-1)^2)"]


@pytest.mark.parametrize("name", SAMPLED)
def test_sample_is_deterministic_and_canonical(name):
    domain = DOMAINS[name]
    if isinstance(domain, Rationals):
        with pytest.raises(InfiniteDomainError):
            domain._sample(0)
        return
    for seed in (0, 1, 7):
        first, again = domain._sample(seed), domain._sample(seed)
        if domain.is_finite and domain.order > LISTED:       # GF(2^61 - 1)
            assert first == again == range(domain.order)
            first = list(itertools.islice(first, 100))
        else:
            assert list(first) == list(again)
            first = list(first)
            if domain.is_finite:
                assert first == list(domain._payloads()) and len(first) == domain.order
        assert len(first) == len(set(map(repr, first)))
        assert all(is_working(domain, x) for x in first)


@pytest.mark.parametrize("name", NAMES)
def test_imaginary_parts_vanish_exactly_on_central_elements(name):
    domain = DOMAINS[name]
    elems = payloads(domain, count=40)
    if domain.is_commutative:
        assert all(domain._is_central(x) for x in elems)
        return
    zero = domain._zero
    central = [x for x in elems if domain._is_central(x)]
    assert central and len(central) < len(elems)
    for x in elems:
        parts = domain._imag_parts(x)
        assert all(is_working(domain, c) and domain._is_central(c) for c in parts)
        assert all(c == zero for c in parts) == domain._is_central(x), x
        # central elements commute with every element drawn
        if domain._is_central(x):
            assert all(domain._mul(x, y) == domain._mul(y, x) for y in elems)
