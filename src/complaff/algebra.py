"""Exact scalar arithmetic in the supported division rings.

Three domains are available to users, one more internally:

* ``PrimeField(p)``          -- GF(p), payload: int in [0, p).
* ``ExtensionField(p, mod)`` -- GF(p^k) with an explicit monic modulus
  polynomial ``mod = (c_0, ..., c_k)``, c_k = 1, irreducible over GF(p)
  (checked once per ``(p, mod)`` by Rabin's test).  Working payload: the
  int code c_0 + c_1*p + ... + c_(k-1)*p^(k-1) of the residue's
  coefficients, held as the private int subclass ``_Code`` so that
  ``_canon`` can tell it from a plain int n, which means n*1.  The public
  payload is the tuple of k coefficient ints, c_0 first.
* ``Quaternions()``          -- the rational quaternions a + bi + cj + dk
  with i^2 = j^2 = -1 and ij = k = -ji.  Multiplication is
  noncommutative; the center is the rational subfield.  Working payload:
  five ints (a, b, c, d, den) meaning (a + bi + cj + dk) / den, with
  den > 0, gcd(a, b, c, d, den) = 1 and zero as (0, 0, 0, 0, 1): the
  content/denominator form of FLINT's ``fmpq_poly`` (https://flintlib.org).
  Every operation runs on plain ints and normalizes with one ``gcd``; a
  left linear combination of rows (``_combine``) sums numerators over a
  common denominator and pays one ``gcd`` per entry, not two per term,
  and so does each entry a row reduction (``_reduce_rows``) updates.
  The public payload (``Scalar.payload``) is the four ``Fraction``
  components (a/den, b/den, c/den, d/den); ``_canon`` reads four
  components that are ints or ``Fraction``s as they are, and any other
  (a string, an integral float) through ``Fraction``.
* ``Rationals()``            -- plain ``Fraction`` arithmetic.  No library
  path's domain and not part of the field-spec grammar: the tests'
  ``Fraction`` reference, and a name the benchmark reads.

All payloads are kept in canonical reduced form, so scalar equality is
payload equality, and a payload is zero exactly when it equals the
domain's ``_zero``.  Scalars are immutable and hashable.  A ``Scalar``
holds the working payload in ``raw``; ``payload`` is the public view,
``domain._public(raw)``, which differs from ``raw`` only on GF(p^k) and
the quaternions.  ``_canon`` is the one way in (an int, the public view
or the working payload, on every domain), ``_public`` the one way out;
``domain.scalar(value)`` is the one public constructor, for ints too.

Extension-field arithmetic is table lookup on int codes, the approach
and the element representation of the ``galois`` library
(https://github.com/mhostetter/galois), so no table read hashes a tuple.
``_neg`` and ``_inv`` read a dict keyed by the code; ``_add`` and
``_mul`` read ``table[a][b]``, one dict per left operand, which is
cheaper than hashing the pair.  A missing entry is computed once by the
polynomial helpers on the coefficient tuples (``_poly_mulmod``, and
``_poly_invmod`` as a^(p^k - 2) through ``_poly_powmod``, which Rabin's
test shares) and stored.  Two more dicts translate: the code of each
canonical coefficient tuple, which ``_canon`` reads (a canonical tuple
is answered from it, anything else is reduced by the polynomial path
first, so it never holds more than q entries), and the coefficient tuple
of each code, which ``_public`` and the polynomial fills read.
``_combine`` reads the tables directly, one product row per nonzero
coefficient and one sum lookup per entry.  The tables belong to
``(p, mod)``, not to a domain object, so every ``ExtensionField`` built
with the same parameters shares them.  A table holds only the operands
that were used, never all q^2 pairs up front, and never a dense list:
q can be as large as p^16, so ``_payloads`` hands out the codes lazily.
Over GF(p), ``_combine`` sums the products as plain ints and reduces
each entry once, and ``_reduce_rows`` row-reduces in plain ints.

Enumeration policy: ``elements()`` refuses on infinite domains (raises
``InfiniteDomainError``); deterministic sampling is opt-in through
``sample(seed)``, the boxed payloads of ``_sample(seed)``: all of a
finite domain, a seeded sample of an infinite one.  Library enumerations
walk ``_sample`` and build no ``Scalar``; ``_listing`` returns them as a
tuple over a finite domain, else as a ``Sampled``.  A ``Sampled`` carries
the attribute ``is_sample = True`` and a complete listing has none, so
``isinstance(x, Sampled)`` tells the two apart.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainMismatchError, InfiniteDomainError


class Sampled(tuple):
    """Deterministic sample from an infinite set.

    Membership predicates, not this enumeration, are authoritative for
    whatever the sample was drawn from.
    """

    is_sample = True


def _listing(domain: "ScalarDomain", items):
    """items as a tuple over a finite domain, else as a Sampled."""
    return tuple(items) if domain.is_finite else Sampled(items)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

class ScalarDomain:
    """Base class; subclasses implement payload-level arithmetic."""

    is_finite = False
    is_commutative = False
    characteristic = 0

    # -- construction helpers ------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce an int, a payload, or a Scalar of this domain."""
        if isinstance(value, Scalar):
            if value.domain != self:
                raise DomainMismatchError(f"scalar from {value.domain} used in {self}")
            return value
        return Scalar(self, self._canon(value))

    # every domain sets _zero and _one, the payloads of 0 and 1, once
    def zero(self) -> "Scalar":
        return Scalar(self, self._zero)

    def one(self) -> "Scalar":
        return Scalar(self, self._one)

    # -- enumeration ----------------------------------------------------------

    @property
    def order(self) -> int:
        raise InfiniteDomainError(f"{self} is infinite")

    def elements(self) -> tuple:
        return tuple([Scalar(self, x) for x in self._payloads()])

    def sample(self, seed: int = 0):
        """Finite domains: the full element tuple.  Infinite: a Sampled tuple."""
        return _listing(self, [Scalar(self, x) for x in self._sample(seed)])

    # -- payload hooks ---------------------------------------------------------

    def _payloads(self):
        """The payloads of all elements in their canonical order (finite
        domains only)."""
        raise InfiniteDomainError(f"cannot enumerate the elements of {self}")

    def _sample(self, seed: int):
        """The payloads `sample` lists: all of them on a finite domain."""
        return self._payloads()

    def _canon(self, payload):
        raise NotImplementedError

    def _public(self, raw):
        """The payload a caller sees for the working payload raw."""
        return raw

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _combine(self, coeffs, rows, width: int) -> list:
        """The payload row sum_i coeffs[i] * rows[i] (left multiples) on
        the first `width` columns, always `width` entries.  The rows are
        those of one matrix, at least `width` wide: a wider `width` raises
        ValueError whatever the coefficients, on every domain.  With no
        rows the result is `width` zeros; zip stops at the shorter of
        `coeffs` and `rows`."""
        if rows and len(rows[0]) < width:
            raise ValueError(f"width {width} exceeds the rows' {len(rows[0])} columns")
        add, mul, zero = self._add, self._mul, self._zero
        acc = [zero] * width
        for c, row in zip(coeffs, rows):
            if c != zero:
                acc = [add(a, mul(c, x)) for a, x in zip(acc, row)]
        return acc

    # ``linalg.reduce_rows`` runs its generic loop on the payload hooks
    # unless the domain sets this to a method reducing the rows in one call
    _reduce_rows = None

    def _is_central(self, a) -> bool:
        return True

    def _int_of(self, a):
        """The int n whose canonical image is a, or None."""
        return None

    def _str(self, a) -> str:
        return str(a)


# The first 13 primes.  As Miller-Rabin bases they decide primality for
# every n below _PRIME_LIMIT = 3.317 * 10^24 (Sorenson and Webster 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; refuses n >= _PRIME_LIMIT."""
    if n >= _PRIME_LIMIT:
        raise ValueError(f"{n} is too large: primes below {_PRIME_LIMIT} are supported")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(ScalarDomain):
    is_finite = True
    is_commutative = True
    _zero, _one = 0, 1

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    @property
    def order(self) -> int:
        return self.p

    def _payloads(self):
        return range(self.p)

    def _canon(self, payload):
        """The residue of an int (a bool counts as its int).  An integral
        float reads as its int; a non-integral one is refused with
        ValueError rather than truncated, as in `ExtensionField._canon`."""
        if type(payload) is int:
            return payload % self.p
        if isinstance(payload, float) and not payload.is_integer():
            raise ValueError(f"{payload!r} is not an integer")
        return int(payload) % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def _combine(self, coeffs, rows, width):
        """The combination summed as plain ints, one ``% p`` per entry."""
        if rows and len(rows[0]) < width:
            raise ValueError(f"width {width} exceeds the rows' {len(rows[0])} columns")
        acc = [0] * width
        for c, row in zip(coeffs, rows):
            if c:
                acc = [a + c * x for a, x in zip(acc, row)]
        p = self.p
        return [a % p for a in acc]

    def _reduce_rows(self, rows, ncols):
        """``linalg.reduce_rows`` in plain ints, with the same row
        operations and results: one ``pow`` per pivot and one ``% p`` per
        updated entry, where the generic loop calls two payload hooks."""
        p = self.p
        nrows = len(rows)
        pivots = []
        lead = 0
        for col in range(ncols):
            if lead == nrows:
                break
            for piv in range(lead, nrows):
                if rows[piv][col]:
                    break
            else:
                continue
            row = rows[piv]
            rows[piv] = rows[lead]
            rows[lead] = row
            k = pow(row[col], p - 2, p)
            nonzero = []
            for j in range(col, len(row)):
                y = row[j]
                if y:
                    row[j] = y = k * y % p
                    nonzero.append((j, y))
            for i in range(nrows):
                other = rows[i]
                f = other[col]
                if f and i != lead:
                    f = p - f
                    for j, y in nonzero:
                        other[j] = (other[j] + f * y) % p
            pivots.append(col)
            lead += 1
        return pivots

    def _int_of(self, a):
        return a


# polynomial helpers over GF(p); coefficient tuples, constant term first

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    """Quotient and remainder of a by a trimmed b."""
    a = list(_poly_trim(a))
    db = len(b) - 1
    inv_lb = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db:
        coef = (a[-1] * inv_lb) % p
        shift = len(a) - 1 - db
        q[shift] = coef
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        a = list(_poly_trim(a))
    return _poly_trim(q), tuple(a)


def _poly_mulmod(a, b, mod, p):
    """a * b reduced modulo mod, padded to deg(mod) coefficients."""
    prod = _poly_mul(_poly_trim(a), _poly_trim(b), p)
    _, rem = _poly_divmod(prod, mod, p) if prod else ((), ())
    return rem + (0,) * (len(mod) - 1 - len(rem))


def _poly_powmod(a, e, mod, p):
    """a^e reduced modulo mod, padded to deg(mod) coefficients, by square
    and multiply."""
    power = (1,) + (0,) * (len(mod) - 2)
    while e:
        if e & 1:
            power = _poly_mulmod(power, a, mod, p)
        a = _poly_mulmod(a, a, mod, p)
        e >>= 1
    return power


def _poly_invmod(a, mod, p):
    """The inverse of a modulo an irreducible mod of degree k: a^(p^k - 2),
    since the nonzero residues form a group of order p^k - 1."""
    if not any(a):
        raise ZeroDivisionError("inverse of zero")
    return _poly_powmod(a, p ** (len(mod) - 1) - 2, mod, p)


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_is_irreducible(mod, p):
    """Rabin's test (Rabin 1980): a monic f of degree k over GF(p) is
    irreducible iff x^(p^k) = x mod f and gcd(x^(p^(k/r)) - x, f) = 1
    for every prime r dividing k.  The powers x^(p^j) mod f come from
    repeated p-th powers, so the cost grows with k and log p, not p^k."""
    k = len(mod) - 1
    frobenius = [_poly_divmod((0, 1), mod, p)[1]]      # x^(p^j) mod f, j = 0..k
    for _ in range(k):
        frobenius.append(_poly_trim(_poly_powmod(frobenius[-1], p, mod, p)))
    x = frobenius[0]
    if frobenius[k] != x:
        return False
    for r in range(2, k + 1):
        if k % r == 0 and _is_prime(r):
            diff = _poly_trim(tuple((a - b) % p for a, b in itertools.zip_longest(
                frobenius[k // r], x, fillvalue=0)))
            if len(_poly_gcd(mod, diff, p)) != 1:
                return False
    return True


class _Table(dict):
    """Results of one payload operation, each computed on its first use."""

    __slots__ = ("_fill",)

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class _Code(int):
    """A GF(p^k) working payload: the int c_0 + c_1*p + ... + c_(k-1)*p^(k-1)
    of its coefficients, a type apart from a plain int n, which `_canon`
    reads as n*1."""

    __slots__ = ()


class _Codes(Sequence):
    """The codes 0, 1, ..., q - 1, each made when it is read: re-iterable
    and indexable, never a listing, so taking the first few of q = p^k
    codes costs no more than those few.  ``len`` refuses a q past
    ``sys.maxsize``."""

    __slots__ = ("_range",)

    def __init__(self, q: int):
        self._range = range(q)

    def __len__(self):
        return len(self._range)

    def __getitem__(self, i: int):
        return _Code(self._range[i])

    def __iter__(self):
        return map(_Code, self._range)


# (p, modulus) -> the add, neg, mul and inv tables of GF(p)[x]/(modulus)
# on codes, add and mul as tables of rows; the code of each canonical
# coefficient tuple and the coefficient tuple of each code.  An entry
# exists only once the modulus has passed the irreducibility test.
_FIELD_TABLES: dict = {}


def _field_tables(p, mod):
    tables = _FIELD_TABLES.get((p, mod))
    if tables is None:
        if not _poly_is_irreducible(mod, p):
            raise ValueError(f"modulus {list(mod)} is reducible over GF({p})")
        k = len(mod) - 1
        code = _Table(lambda c: _Code(sum(x * p ** i for i, x in enumerate(c))))
        coeffs = _Table(lambda n: tuple(n // p ** i % p for i in range(k)))
        tables = _FIELD_TABLES[p, mod] = (
            _Table(lambda a: _Table(lambda b: code[tuple(
                (x + y) % p for x, y in zip(coeffs[a], coeffs[b]))])),
            _Table(lambda a: code[tuple((-x) % p for x in coeffs[a])]),
            _Table(lambda a: _Table(lambda b: code[
                _poly_mulmod(coeffs[a], coeffs[b], mod, p)])),
            _Table(lambda a: code[_poly_invmod(coeffs[a], mod, p)]),
            code,
            coeffs,
        )
    return tables


class ExtensionField(ScalarDomain):
    """GF(p^k) as residues modulo an explicit irreducible monic polynomial."""

    is_finite = True
    is_commutative = True

    def __init__(self, p: int, modulus):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        (self._add_t, self._neg_t, self._mul_t, self._inv_t,
         self._canon_t, self._public_t) = _field_tables(p, mod)
        self.p = p
        self.modulus = mod
        self.k = len(mod) - 1
        self.characteristic = p
        self._q = p ** self.k                     # every code lies below q
        self._zero, self._one = _Code(0), _Code(1)

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return (isinstance(other, ExtensionField)
                and other.p == self.p and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ext", self.p, self.modulus))

    @property
    def order(self) -> int:
        return self._q

    def _payloads(self):
        """The codes 0, 1, ..., q - 1 as a lazy ``_Codes`` sequence: a
        caller that takes the first few (DS2 takes N + 1) lists none of the
        rest, and one that walks it more than once (``_projective_reps``,
        ``all_coords``) gets every code each time."""
        return _Codes(self._q)

    def _canon(self, payload):
        """The code of a working payload (returned as it is), of an int n
        (n*1, the code n mod p; bools count as ints), or of a tuple or list
        of ints, the coefficients constant term first.  Only these inputs
        are in the contract, and each gets one answer whatever the tables
        hold.  A canonical coefficient tuple is a key of the code table and
        is answered from it; any other sequence is reduced by the
        polynomial path, and the code of its result is stored.  The hit
        tests equality, not type, so for other entry types the answer can
        depend on the table: in a fresh process ``(1+0j, 0)`` raises
        TypeError, but once (1, 0) is in the table it returns the code 1.
        The polynomial path refuses a non-integral float with ValueError
        rather than truncate it; an integral float reads as its int.  A
        code of q or more, the working payload of a larger field, is
        refused with ValueError, so no payload past q is ever held."""
        if type(payload) is _Code:
            if payload < self._q:
                return payload
            raise ValueError(f"{int(payload)} is the code of no element of {self}")
        if type(payload) is tuple:
            hit = self._canon_t.get(payload)
            if hit is not None:
                return hit
        elif isinstance(payload, int):
            return _Code(payload % self.p)
        if any(isinstance(x, float) and not x.is_integer() for x in payload):
            raise ValueError(f"{payload!r} has a non-integral component")
        c = tuple(int(x) % self.p for x in payload)
        if len(c) >= len(self.modulus):
            _, c = _poly_divmod(c, self.modulus, self.p)
        c = _poly_trim(c)
        return self._canon_t[c + (0,) * (self.k - len(c))]

    def _public(self, raw):
        """The coefficient tuple of a code, constant term first."""
        return self._public_t[raw]

    def _add(self, a, b):
        return self._add_t[a][b]

    def _neg(self, a):
        return self._neg_t[a]

    def _mul(self, a, b):
        return self._mul_t[a][b]

    def _inv(self, a):
        return self._inv_t[a]

    def _combine(self, coeffs, rows, width):
        """The combination read off the tables: one row of the product
        table per nonzero coefficient, and no method call per entry.  The
        first nonzero term starts the sum, so no entry adds a zero."""
        if rows and len(rows[0]) < width:
            raise ValueError(f"width {width} exceeds the rows' {len(rows[0])} columns")
        add_t, mul_t, zero = self._add_t, self._mul_t, self._zero
        acc = None
        for c, row in zip(coeffs, rows):
            if c != zero:
                times_c = mul_t[c]
                if acc is None:
                    acc = [times_c[x] for x in row[:width]]
                else:
                    acc = [add_t[a][times_c[x]] for a, x in zip(acc, row)]
        return [zero] * width if acc is None else acc

    def _int_of(self, a):
        return int(a) if a < self.p else None

    def _str(self, a):
        if a == self._zero:
            return "0"
        parts = []
        for i, c in enumerate(self._public(a)):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xp = "x" if i == 1 else f"x^{i}"
                parts.append(xp if c == 1 else f"{c}{xp}")
        return "+".join(reversed(parts))


class Rationals(ScalarDomain):
    """Exact rational numbers: the tests' ``Fraction`` reference."""

    is_commutative = True
    _zero, _one = Fraction(0), Fraction(1)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def _canon(self, payload):
        return Fraction(payload)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def _int_of(self, a):
        return a.numerator if a.denominator == 1 else None


# The payloads of -1, 0 and 1, one shared tuple each.  Reduced rows are
# mostly zeros and ones, so these stand in for a fresh tuple per result.
_UNITS = {n: (n, 0, 0, 0, 1) for n in (-1, 0, 1)}


def _lowest_terms(a, b, c, d, den):
    """The quaternion (a + bi + cj + dk) / den, den > 0, as its canonical
    5-tuple: every entry divided by gcd(a, b, c, d, den)."""
    g = gcd(a, b, c, d, den)
    if g == den and not (b or c or d):
        return _UNITS.get(a // g) or (a // g, 0, 0, 0, 1)
    if g == 1:
        return (a, b, c, d, den)
    return (a // g, b // g, c // g, d // g, den // g)


# the longest int string CPython reads by default (sys.int_info), so a
# component's exponent adds no more digits than its numerator may hold
_MAX_EXPONENT = 4300


def _fraction(x) -> Fraction:
    """Fraction(x), with a string's decimal exponent past ±_MAX_EXPONENT
    refused before ``Fraction`` expands it to a power of ten."""
    if type(x) is str:
        _, e, exp = x.lower().partition("e")
        try:
            too_large = bool(e) and abs(int(exp)) > _MAX_EXPONENT
        except ValueError:          # no int exponent: Fraction refuses the string
            too_large = False
        if too_large:
            raise ValueError(f"a decimal exponent must lie within ±{_MAX_EXPONENT}")
    return Fraction(x)


class Quaternions(ScalarDomain):
    """Hamilton quaternions over the exact rationals.

    ``_combine`` and ``_reduce_rows`` inline Hamilton's product on the
    5-tuples, as ``_mul`` does; the hooks stay for single operations."""

    is_commutative = False
    _zero, _one = _UNITS[0], _UNITS[1]

    def __repr__(self):
        return "Quat(Q)"

    def __eq__(self, other):
        return isinstance(other, Quaternions)

    def __hash__(self):
        return hash("quaternion")

    @property
    def i(self) -> "Scalar":
        return Scalar(self, (0, 1, 0, 0, 1))

    @property
    def j(self) -> "Scalar":
        return Scalar(self, (0, 0, 1, 0, 1))

    @property
    def k(self) -> "Scalar":
        return Scalar(self, (0, 0, 0, 1, 1))

    def _sample(self, seed: int) -> list:
        """The 3^4 grid over {0, 1, -1} followed by a seeded batch of 40."""
        grid = [combo + (1,) for combo in itertools.product((0, 1, -1), repeat=4)]
        rng = random.Random(seed)
        batch = [self._canon(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(4)) for _ in range(40)]
        return grid + batch

    def _canon(self, payload):
        if isinstance(payload, int):
            return _lowest_terms(payload, 0, 0, 0, 1)
        t = tuple(payload)
        if len(t) == 5:
            if not all(type(x) is int for x in t) or t[4] == 0:
                raise ValueError("a 5-component quaternion payload is 4 integer "
                                 "numerators over a nonzero integer denominator")
            return _lowest_terms(*t) if t[4] > 0 else _lowest_terms(*(-x for x in t))
        if len(t) != 4:
            raise ValueError("quaternion payload needs 4 components")
        # ints and Fractions are exact as they are; Fraction(x) would rebuild them
        if not all(type(x) is int or type(x) is Fraction for x in t):
            t = tuple(map(_fraction, t))
        den = lcm(*(x.denominator for x in t))
        # over the least common denominator the content is already 1
        return tuple(x.numerator * (den // x.denominator) for x in t) + (den,)

    def _public(self, a):
        den = a[4]
        return (Fraction(a[0], den), Fraction(a[1], den),
                Fraction(a[2], den), Fraction(a[3], den))

    def _add(self, q1, q2):
        a1, b1, c1, d1, e1 = q1
        a2, b2, c2, d2, e2 = q2
        if e1 == e2:
            return _lowest_terms(a1 + a2, b1 + b2, c1 + c2, d1 + d2, e1)
        return _lowest_terms(a1 * e2 + a2 * e1, b1 * e2 + b2 * e1,
                             c1 * e2 + c2 * e1, d1 * e2 + d2 * e1, e1 * e2)

    def _neg(self, a):
        return (-a[0], -a[1], -a[2], -a[3], a[4])

    def _mul(self, q1, q2):
        a1, b1, c1, d1, e1 = q1
        a2, b2, c2, d2, e2 = q2
        a = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
        b = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
        c = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
        d = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
        return _lowest_terms(a, b, c, d, e1 * e2)

    def _inv(self, q):
        a, b, c, d, e = q
        n = a * a + b * b + c * c + d * d
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _lowest_terms(a * e, -b * e, -c * e, -d * e, n)

    def _combine(self, coeffs, rows, width):
        """The left combination with one gcd per output entry: each entry
        sums the integer numerators of its products c * x over a running
        common denominator, which grows to the least common multiple only
        when a term's denominator differs from it.  The one
        ``_lowest_terms`` at the end gives the canonical 5-tuple that the
        generic loop would."""
        if rows and len(rows[0]) < width:
            raise ValueError(f"width {width} exceeds the rows' {len(rows[0])} columns")
        terms = [(q, row) for q, row in zip(coeffs, rows)
                 if q[0] or q[1] or q[2] or q[3]]
        out = []
        for j in range(width):
            a = b = c = d = 0
            den = 1
            for (a1, b1, c1, d1, e1), row in terms:
                a2, b2, c2, d2, e2 = row[j]
                if not (a2 or b2 or c2 or d2):
                    continue
                ta = a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2
                tb = a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2
                tc = a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2
                td = a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2
                f = e1 * e2
                if f != den:
                    g = gcd(den, f)
                    s, t = f // g, den // g
                    a, b, c, d, den = a * s, b * s, c * s, d * s, den * s
                    ta, tb, tc, td = ta * t, tb * t, tc * t, td * t
                a += ta
                b += tb
                c += tc
                d += td
            out.append(_lowest_terms(a, b, c, d, den))
        return out

    def _reduce_rows(self, rows, ncols):
        """``linalg.reduce_rows`` on the integer 5-tuples, with the same row
        operations and results: the pivot's inverse (a·e, −b·e, −c·e, −d·e)
        / norm is formed inline, the pivot entry becomes the shared one and
        each eliminated entry the shared zero, and each updated entry
        x − f·y is summed over one common denominator with one
        ``_lowest_terms``, where the generic loop calls ``_mul`` and
        ``_add``, a gcd each."""
        zero, one = self._zero, self._one
        nrows = len(rows)
        pivots = []
        lead = 0
        for col in range(ncols):
            if lead == nrows:
                break
            for piv in range(lead, nrows):
                if rows[piv][col] != zero:
                    break
            else:
                continue
            row = rows[piv]
            rows[piv] = rows[lead]
            rows[lead] = row
            a, b, c, d, e = row[col]
            ka, kb, kc, kd, ke = _lowest_terms(a * e, -b * e, -c * e, -d * e,
                                               a * a + b * b + c * c + d * d)
            row[col] = one
            tail = []
            for j in range(col + 1, len(row)):
                y = row[j]
                if y != zero:
                    a, b, c, d, e = y
                    row[j] = y = _lowest_terms(ka * a - kb * b - kc * c - kd * d,
                                               ka * b + kb * a + kc * d - kd * c,
                                               ka * c - kb * d + kc * a + kd * b,
                                               ka * d + kb * c - kc * b + kd * a, ke * e)
                    tail.append((j, y))
            for i in range(nrows):
                other = rows[i]
                f = other[col]
                if f != zero and i != lead:
                    fa, fb, fc, fd, fe = f
                    other[col] = zero
                    for j, (a, b, c, d, e) in tail:
                        ta = fa * a - fb * b - fc * c - fd * d
                        tb = fa * b + fb * a + fc * d - fd * c
                        tc = fa * c - fb * d + fc * a + fd * b
                        td = fa * d + fb * c - fc * b + fd * a
                        den = fe * e
                        xa, xb, xc, xd, xe = other[j]
                        if xe == den:
                            other[j] = _lowest_terms(xa - ta, xb - tb, xc - tc, xd - td, den)
                        else:
                            other[j] = _lowest_terms(xa * den - ta * xe, xb * den - tb * xe,
                                                     xc * den - tc * xe, xd * den - td * xe,
                                                     xe * den)
            pivots.append(col)
            lead += 1
        return pivots

    def _imag_parts(self, a):
        """a's i, j and k parts as central payloads: Z-linear in a, and all
        zero exactly when a is central."""
        return [_lowest_terms(x, 0, 0, 0, a[4]) for x in a[1:4]]

    def _is_central(self, a):
        return not (a[1] or a[2] or a[3])

    def _int_of(self, a):
        return a[0] if a[4] == 1 and not (a[1] or a[2] or a[3]) else None

    def _str(self, a):
        units = ("", "i", "j", "k")
        parts = []
        for comp, unit in zip(self._public(a), units):
            if comp == 0:
                continue
            s = str(comp)
            if unit and abs(comp) == 1:
                s = "-" if comp < 0 else ""
            parts.append(f"{s}{unit}" if parts == [] or s.startswith("-")
                         else f"+{s}{unit}")
        return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Scalar values
# ---------------------------------------------------------------------------

class Scalar:
    """Immutable element of a ScalarDomain, in canonical form.

    ``raw`` is the domain's working payload, the form its arithmetic runs
    on; ``payload`` is the public view of it (``domain._public(raw)``).
    """

    __slots__ = ("domain", "raw")

    def __init__(self, domain: ScalarDomain, raw):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    @property
    def payload(self):
        return self.domain._public(self.raw)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.domain is self.domain or other.domain == self.domain:
                return other
            raise DomainMismatchError(f"{self.domain} vs {other.domain}")
        if isinstance(other, int):
            return Scalar(self.domain, self.domain._canon(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.domain, self.domain._add(self.raw, o.raw))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.domain,
                      self.domain._add(self.raw, self.domain._neg(o.raw)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        return Scalar(self.domain, self.domain._neg(self.raw))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.domain, self.domain._mul(self.raw, o.raw))

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.domain, self.domain._mul(o.raw, self.raw))

    def __truediv__(self, other):
        """Right division a * b^-1 (order matters in the quaternions)."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def inverse(self) -> "Scalar":
        return Scalar(self.domain, self.domain._inv(self.raw))

    def is_zero(self) -> bool:
        return self.raw == self.domain._zero

    def __eq__(self, other):
        """An int n equals only its canonical image (0 <= n < p on a finite
        field, any n on Q and Quat(Q)), which hashes as n."""
        if isinstance(other, int):
            return self.domain._int_of(self.raw) == other
        return (isinstance(other, Scalar) and other.domain == self.domain
                and other.raw == self.raw)

    def __hash__(self):
        n = self.domain._int_of(self.raw)
        return hash(self.raw if n is None else n)

    def __repr__(self):
        return self.domain._str(self.raw)


def _projective_reps(domain: ScalarDomain, n: int):
    """The payload n-tuples over a finite domain whose first nonzero entry
    is 1: one per projective point of K^n, ordered by the position of the
    leading 1, then by the tail in `elements()` order."""
    elems, zero, one = domain._payloads(), domain._zero, domain._one
    for lead in range(n):
        for tail in itertools.product(elems, repeat=n - lead - 1):
            yield (zero,) * lead + (one,) + tail
