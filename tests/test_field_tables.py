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
from complaff.linalg import MatrixK

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
    elems, pub = payloads(field), field._public
    zero, one = elems[0], elems[1]
    codes = [field._canon(a) for a in elems]
    assert list(map(pub, codes)) == elems
    for (a, ca), (b, cb) in itertools.product(zip(elems, codes), repeat=2):
        assert pub(field._add(ca, cb)) == ref_add(a, b, p)
        assert pub(field._mul(ca, cb)) == ref_mul(a, b, mod, p)
    for a, ca in zip(elems, codes):
        assert ref_add(a, pub(field._neg(ca)), p) == zero
        if a != zero:
            inv = pub(field._inv(ca))
            assert inv == next(x for x in elems if ref_mul(a, x, mod, p) == one)
    with pytest.raises(ZeroDivisionError):
        field._inv(field._zero)
    assert field._zero not in algebra._FIELD_TABLES[p, mod][3]


@pytest.mark.parametrize("p, mod", LARGE, ids=["GF256", "GF243"])
@ORACLE
@given(data=st.data())
def test_tables_match_polynomial_arithmetic_large(p, mod, data):
    field = ExtensionField(p, mod)
    k = len(mod) - 1
    elem = st.tuples(*[st.integers(0, p - 1)] * k)
    a, b = data.draw(elem), data.draw(elem)
    ca, cb, pub = field._canon(a), field._canon(b), field._public
    assert pub(field._add(ca, cb)) == ref_add(a, b, p)
    assert pub(field._mul(ca, cb)) == ref_mul(a, b, mod, p)
    assert ref_add(a, pub(field._neg(ca)), p) == (0,) * k
    if any(a):
        assert pub(field._inv(ca)) == ref_pow(a, p ** k - 2, mod, p)


def test_tables_are_shared_and_filled_lazily():
    mod = (1, 0, 1)                          # x^2 + 1 over GF(11); no other test uses it
    f1, f2 = ExtensionField(11, mod), ExtensionField(11, mod)
    tables = algebra._FIELD_TABLES[11, mod]
    assert all(len(t) == 0 for t in tables)
    assert len(tables) == 6
    for f in (f1, f2):
        assert all(mine is shared for mine, shared in zip(
            (f._add_t, f._neg_t, f._mul_t, f._inv_t, f._canon_t, f._public_t), tables))
    x = f1.scalar((0, 1))
    assert x * x == f2.scalar(10)
    # one product row, the codes of x and of x * x = 10 (the int 10 itself
    # is read with no table), and the coefficients of x, which the product read
    assert [len(t) for t in tables] == [0, 0, 1, 0, 2, 1]


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
    k, pub = len(mod) - 1, field._public
    for code in field._payloads():                 # a working payload as it is
        assert field._canon(code) is code and type(code) is algebra._Code
    elems = list(map(pub, field._payloads()))
    inputs = [v for x in elems for v in (x, *non_canonical_forms(x, p))]
    inputs += list(range(-2 * p, 3 * p))                              # ints
    inputs += [x + (1,) for x in elems]                               # reduced by mod
    for value in inputs:
        want = poly_canon(value, p, mod)
        for _ in range(2):                         # a miss (maybe), then a hit
            got = field._canon(value)
            assert pub(got) == want and type(got) is algebra._Code, value
            assert 0 <= got < p ** k, value
    table = algebra._FIELD_TABLES[p, mod][4]
    assert sorted(table) == sorted(elems) and len(table) == p ** k
    assert all(pub(table[x]) == x for x in table)


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
        mp.setattr(field, "_canon_t", algebra._Table(field._canon_t._fill))
        cold = field._canon(value)
    for x in field._payloads():
        field._canon(field._public(x))
    assert field._canon(value) == cold
    assert field._public(cold) == poly_canon(value, p, mod)
    assert type(cold) is algebra._Code


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
    if isinstance(value, int):
        # an int n is the code n mod p, read with no table
        size = len(table)
        assert field._public(field._canon(value)) == poly_canon(value, p, mod)
        assert len(table) == size
    elif all(not isinstance(c, float) or c.is_integer() for c in value):
        assert field._public(field._canon(value)) == poly_canon(value, p, mod)
        assert poly_canon(value, p, mod) in table
    else:
        # a non-integral float is refused, not truncated, and stores nothing
        size = len(table)
        with pytest.raises(ValueError, match="non-integral"):
            field._canon(value)
        assert len(table) == size
    assert len(table) <= p ** 3
    for key, entry in table.items():
        assert type(entry) is algebra._Code and field._public(entry) == key
        assert len(key) == 3 and all(type(c) is int and 0 <= c < p for c in key)


def test_canon_refuses_non_integral_floats():
    gf4 = ExtensionField(2, (1, 1, 1))
    for value in ((1.5, 0), [3.9, 0.2], (0, float("inf"))):
        with pytest.raises(ValueError, match="non-integral"):
            gf4._canon(value)
    # an integral float reads as its int, from the table or not
    assert gf4._canon((1.0, 0.0)) == gf4._canon([3.0, 2.0]) == gf4._canon((1, 0))
    assert gf4._public(gf4._canon([3.0, 2.0])) == (1, 0)


def test_a_code_of_a_larger_field_is_refused():
    """A working payload of GF(9) past q = 4 is no payload of GF(4); one
    below it is taken as the code it is."""
    gf4, gf9 = ExtensionField(2, (1, 1, 1)), ExtensionField(3, (1, 0, 1))
    big, small = gf9._canon((2, 2)), gf9._canon((0, 1))
    for make in (lambda: gf4._canon(big), lambda: gf4.scalar(big),
                 lambda: MatrixK(gf4, [[big, 0]])):
        with pytest.raises(ValueError, match="code of no element of GF"):
            make()
    assert gf4._canon(small) is small and gf4._public(small) == (1, 1)


def test_prime_canon_refuses_non_integral_floats():
    gf3 = PrimeField(3)
    for value in (2.5, -0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="not an integer"):
            gf3._canon(value)
    # ints, bools and integral floats read as before
    assert [gf3._canon(x) for x in (5, -1, True, False, 2.0, -4.0)] == [2, 2, 1, 0, 2, 2]
