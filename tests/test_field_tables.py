"""Extension-field tables against polynomial arithmetic, and Rabin's test.

The payload operations of ExtensionField read tables filled on first
use.  The oracle here is plain polynomial arithmetic over GF(p): the
product of the coefficient tuples reduced by the modulus, coefficientwise
sums, and the inverse found by searching for the element whose product
is 1 (small fields) or by Fermat's a^(q-2) (large fields).  Every pair
is checked on GF(4), GF(8), GF(9) and GF(25); Hypothesis draws pairs on
GF(2^8) and GF(3^5).  Rabin's irreducibility test is checked against
trial division by every monic polynomial of lower degree.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complaff import algebra
from complaff.algebra import (
    ExtensionField,
    PrimeField,
    _poly_divmod,
    _poly_is_irreducible,
    _poly_mul,
)

SMALL = [(2, (1, 1, 1)),            # GF(4):  x^2 + x + 1
         (2, (1, 1, 0, 1)),         # GF(8):  x^3 + x + 1
         (3, (1, 0, 1)),            # GF(9):  x^2 + 1
         (5, (2, 0, 1))]            # GF(25): x^2 + 2
LARGE = [(2, (1, 1, 0, 1, 1, 0, 0, 0, 1)),   # GF(2^8): x^8 + x^4 + x^3 + x + 1
         (3, (1, 2, 0, 0, 0, 1))]             # GF(3^5): x^5 + 2x + 1

ORACLE = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def ref_mul(a, b, mod, p):
    prod = list(_poly_mul(a, b, p))
    rem = _poly_divmod(prod, mod, p)[1] if any(prod) else ()
    return tuple(rem) + (0,) * (len(mod) - 1 - len(rem))


def ref_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def ref_pow(a, e, mod, p):
    out = (1,) + (0,) * (len(mod) - 2)
    for _ in range(e):
        out = ref_mul(out, a, mod, p)
    return out


def payloads(field):
    return [x.payload for x in field.elements()]


@pytest.mark.parametrize("p, mod", SMALL, ids=["GF4", "GF8", "GF9", "GF25"])
def test_tables_match_polynomial_arithmetic(p, mod):
    field = ExtensionField(p, mod)
    elems = payloads(field)
    zero, one = elems[0], elems[1]
    for a, b in itertools.product(elems, repeat=2):
        assert field._add(a, b) == ref_add(a, b, p)
        assert field._mul(a, b) == ref_mul(a, b, mod, p)
    for a in elems:
        assert ref_add(a, field._neg(a), p) == zero
        if a != zero:
            inv = field._inv(a)
            assert inv == next(x for x in elems if ref_mul(a, x, mod, p) == one)
    with pytest.raises(ZeroDivisionError):
        field._inv(zero)
    assert zero not in algebra._FIELD_TABLES[p, mod][3]


@pytest.mark.parametrize("p, mod", LARGE, ids=["GF256", "GF243"])
@ORACLE
@given(data=st.data())
def test_tables_match_polynomial_arithmetic_large(p, mod, data):
    field = ExtensionField(p, mod)
    k = len(mod) - 1
    elem = st.tuples(*[st.integers(0, p - 1)] * k)
    a, b = data.draw(elem), data.draw(elem)
    assert field._add(a, b) == ref_add(a, b, p)
    assert field._mul(a, b) == ref_mul(a, b, mod, p)
    assert ref_add(a, field._neg(a), p) == (0,) * k
    if any(a):
        assert field._inv(a) == ref_pow(a, p ** k - 2, mod, p)


def test_tables_are_shared_and_filled_lazily():
    mod = (1, 0, 1)                          # x^2 + 1 over GF(11); no other test uses it
    f1, f2 = ExtensionField(11, mod), ExtensionField(11, mod)
    tables = algebra._FIELD_TABLES[11, mod]
    assert all(len(t) == 0 for t in tables)
    assert len(tables) == 5
    for f in (f1, f2):
        assert all(mine is shared for mine, shared in zip(
            (f._add_t, f._neg_t, f._mul_t, f._inv_t, f._canon_t), tables))
    x = f1.generator()
    assert x * x == f2.scalar(10)
    # one product row, and the canonical payloads of x and of 10
    assert [len(t) for t in tables] == [0, 0, 1, 0, 2]


def trial_division_irreducible(mod, p):
    k = len(mod) - 1
    for d in range(1, k):
        for lower in itertools.product(range(p), repeat=d):
            if not _poly_divmod(mod, lower + (1,), p)[1]:
                return False
    return True


@pytest.mark.parametrize("p", [2, 3])
def test_rabin_matches_trial_division(p):
    for degree in range(1, 5):
        for lower in itertools.product(range(p), repeat=degree):
            mod = lower + (1,)
            assert _poly_is_irreducible(mod, p) == trial_division_irreducible(mod, p), mod


def test_rabin_on_large_modulus():
    cubic = (1, 0, 3, 1)                     # x^3 + 3x^2 + 1: no root mod 23
    assert trial_division_irreducible(cubic, 23)
    ExtensionField(23, (15, 14, 15, 20, 12, 1))
    # a quintic with no root, the product of two irreducible factors
    with pytest.raises(ValueError, match="reducible"):
        ExtensionField(23, _poly_mul((1, 0, 1), cubic, 23))


def poly_canon(payload, p, mod):
    """The polynomial path of _canon: each component as int(x) % p, the
    remainder modulo mod, padded to deg(mod) coefficients."""
    c = tuple(int(x) % p for x in ((payload,) if isinstance(payload, int) else payload))
    rem = _poly_divmod(c, mod, p)[1]
    return rem + (0,) * (len(mod) - 1 - len(rem))


def non_canonical_forms(x, p):
    """Inputs equal to the payload x in GF(p^k) that are not x itself."""
    yield list(x)
    yield tuple(c - p for c in x)                      # negatives
    yield tuple(c + 3 * p for c in x)                  # values >= p
    yield x + (0,)                                     # over-long tuples
    yield x + (0, p)
    yield tuple(True if c == 1 else c for c in x)      # equal as dict keys
    yield tuple(float(c) for c in x)


@pytest.mark.parametrize("p, mod", SMALL[:3], ids=["GF4", "GF8", "GF9"])
def test_canonical_table_matches_the_polynomial_path(p, mod):
    field = ExtensionField(p, mod)
    k = len(mod) - 1
    inputs = [v for x in field._payloads() for v in (x, *non_canonical_forms(x, p))]
    inputs += list(range(-2 * p, 3 * p))                              # ints
    inputs += [x + (1,) for x in field._payloads()]                   # reduced by mod
    for value in inputs:
        want = poly_canon(value, p, mod)
        for _ in range(2):                         # a miss (maybe), then a hit
            got = field._canon(value)
            assert got == want and type(got) is tuple, value
            assert all(type(c) is int for c in got), value
    table = algebra._FIELD_TABLES[p, mod][4]
    assert sorted(table) == sorted(field._payloads()) and len(table) == p ** k
    assert all(table[x] is x for x in table)


# The contract of ExtensionField._canon: ints, bools, and tuples or lists
# of them.  Each gets the same canonical payload from an empty table of
# canonical payloads as from one that already holds every answer.
in_contract = st.one_of(st.integers(-10 ** 30, 10 ** 30), st.booleans())
contract_input = st.one_of(in_contract,
                           st.lists(in_contract, max_size=7).map(tuple),
                           st.lists(in_contract, max_size=7))


@pytest.mark.parametrize("p, mod", SMALL[:3], ids=["GF4", "GF8", "GF9"])
@ORACLE
@given(value=contract_input)
def test_canon_answer_does_not_depend_on_the_table(p, mod, value):
    field = ExtensionField(p, mod)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_canon_t", {})
        cold = field._canon(value)
    for x in field._payloads():
        field._canon(x)
    assert field._canon(value) == cold == poly_canon(value, p, mod)
    assert type(cold) is tuple and all(type(c) is int for c in cold)


# x^3 + 2x + 1 over GF(3), used by no other test, so only the fuzz fills
# its table of canonical payloads
GF27 = (3, (1, 2, 0, 1))
component = st.one_of(st.integers(-10 ** 30, 10 ** 30), st.booleans(),
                      st.integers(-9, 9).map(float),
                      st.floats(-1e6, 1e6, allow_nan=False))
fuzz_input = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                       st.lists(component, max_size=7).map(tuple),
                       st.lists(component, max_size=7))


@ORACLE
@given(value=fuzz_input)
def test_canonical_table_holds_only_canonical_payloads(value):
    p, mod = GF27
    field = ExtensionField(p, mod)
    table = algebra._FIELD_TABLES[p, mod][4]
    if isinstance(value, int) or all(not isinstance(c, float) or c.is_integer()
                                     for c in value):
        assert field._canon(value) == poly_canon(value, p, mod)
        assert 0 < len(table)
    else:
        # a non-integral float is refused, not truncated, and stores nothing
        size = len(table)
        with pytest.raises(ValueError, match="non-integral"):
            field._canon(value)
        assert len(table) == size
    assert len(table) <= p ** 3
    for key, entry in table.items():
        assert key is entry and len(key) == 3
        assert all(type(c) is int and 0 <= c < p for c in key)


def test_canon_refuses_non_integral_floats():
    gf4 = ExtensionField(2, (1, 1, 1))
    for value in ((1.5, 0), [3.9, 0.2], (0, float("inf"))):
        with pytest.raises(ValueError, match="non-integral"):
            gf4._canon(value)
    # an integral float reads as its int, from the table or not
    assert gf4._canon((1.0, 0.0)) == gf4._canon([3.0, 2.0]) == (1, 0)


def test_prime_canon_refuses_non_integral_floats():
    gf3 = PrimeField(3)
    for value in (2.5, -0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="not an integer"):
            gf3._canon(value)
    # ints, bools and integral floats read as before
    assert [gf3._canon(x) for x in (5, -1, True, False, 2.0, -4.0)] == [2, 2, 1, 0, 2, 2]
