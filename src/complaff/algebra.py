"""Exact scalar arithmetic in the supported division rings.

Three domains are available to users, one more internally:

* ``PrimeField(p)``          -- GF(p), payload: int in [0, p).
* ``ExtensionField(p, mod)`` -- GF(p^k) with an explicit monic modulus
  polynomial ``mod = (c_0, ..., c_k)``, c_k = 1, irreducible over GF(p)
  (checked at construction by trial division against every monic
  polynomial of lower degree).  Payload: tuple of k ints, c_0 first.
* ``Quaternions()``          -- the rational quaternions, payload: four
  ``Fraction`` components (a, b, c, d) meaning a + bi + cj + dk with
  i^2 = j^2 = -1 and ij = k = -ji.  Multiplication is noncommutative;
  the center is the rational subfield.
* ``Rationals()``            -- plain ``Fraction`` arithmetic.  Internal
  helper domain (it is the center of the quaternions); not part of the
  field-spec grammar.

All payloads are kept in canonical reduced form, so scalar equality is
payload equality.  Scalars are immutable and hashable.

Enumeration policy: ``elements()`` refuses on infinite domains (raises
``InfiniteDomainError``); deterministic sampling is opt-in through
``sample()`` whose result is tagged with ``is_sample = True``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import DomainMismatchError, InfiniteDomainError


class Sampled(tuple):
    """Deterministic sample from an infinite set.

    Membership predicates, not this enumeration, are authoritative for
    whatever the sample was drawn from.
    """

    is_sample = True


def is_sample(seq) -> bool:
    return bool(getattr(seq, "is_sample", False))


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

class ScalarDomain:
    """Base class; subclasses implement payload-level arithmetic."""

    kind = "abstract"
    is_finite = False
    is_commutative = False
    characteristic = 0
    center_description = ""

    # -- construction helpers ------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce an int, a payload, or a Scalar of this domain."""
        if isinstance(value, Scalar):
            if value.domain != self:
                raise DomainMismatchError(f"scalar from {value.domain} used in {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        return Scalar(self, self._canon(value))

    def zero(self) -> "Scalar":
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, n: int) -> "Scalar":
        raise NotImplementedError

    # -- enumeration ----------------------------------------------------------

    @property
    def order(self) -> int:
        raise InfiniteDomainError(f"{self} is infinite")

    def elements(self) -> tuple:
        raise InfiniteDomainError(f"cannot enumerate the elements of {self}")

    def sample(self, seed: int = 0, extra: int = 40):
        """Finite domains: the full element tuple.  Infinite: a Sampled tuple."""
        return self.elements()

    # -- payload hooks ---------------------------------------------------------

    def _canon(self, payload):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _is_central(self, a) -> bool:
        return True

    def _int_of(self, a):
        """The int n whose canonical image is a, or None."""
        return None

    def _str(self, a) -> str:
        return str(a)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField(ScalarDomain):
    kind = "prime"
    is_finite = True
    is_commutative = True
    center_description = "the whole field"

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

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, n % self.p)

    def elements(self) -> tuple:
        return tuple(Scalar(self, n) for n in range(self.p))

    def _canon(self, payload):
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

    def _is_zero(self, a):
        return a == 0

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
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(len(a) - db, 0)
    while len(_poly_trim(a)) - 1 >= db and a:
        a = list(_poly_trim(a))
        if len(a) - 1 < db:
            break
        coef = (a[-1] * inv_lb) % p
        shift = len(a) - 1 - db
        q[shift] = coef
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
    return _poly_trim(q), _poly_trim(a)


def _monic_polys(degree, p):
    for lower in itertools.product(range(p), repeat=degree):
        yield lower + (1,)


def _poly_is_irreducible(mod, p):
    k = len(mod) - 1
    for d in range(1, k):
        for cand in _monic_polys(d, p):
            _, rem = _poly_divmod(mod, cand, p)
            if not rem:
                return False
    return True


class ExtensionField(ScalarDomain):
    """GF(p^k) as residues modulo an explicit irreducible monic polynomial."""

    kind = "extension"
    is_finite = True
    is_commutative = True
    center_description = "the whole field"

    def __init__(self, p: int, modulus):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _poly_is_irreducible(mod, p):
            raise ValueError(f"modulus {list(mod)} is reducible over GF({p})")
        self.p = p
        self.modulus = mod
        self.k = len(mod) - 1
        self.characteristic = p

    def __repr__(self):
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return (isinstance(other, ExtensionField)
                and other.p == self.p and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ext", self.p, self.modulus))

    @property
    def order(self) -> int:
        return self.p ** self.k

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, (n % self.p,) + (0,) * (self.k - 1))

    def generator(self) -> "Scalar":
        """The residue class of x."""
        return Scalar(self, self._canon((0, 1)))

    def elements(self) -> tuple:
        out = []
        for n in range(self.order):
            digits = []
            for _ in range(self.k):
                digits.append(n % self.p)
                n //= self.p
            out.append(Scalar(self, tuple(digits)))
        return tuple(out)

    def _canon(self, payload):
        c = tuple(int(x) % self.p for x in payload)
        if len(c) >= len(self.modulus):
            _, c = _poly_divmod(c, self.modulus, self.p)
        c = _poly_trim(c)
        return c + (0,) * (self.k - len(c))

    def _add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _neg(self, a):
        return tuple((-x) % self.p for x in a)

    def _mul(self, a, b):
        prod = _poly_mul(_poly_trim(a), _poly_trim(b), self.p)
        _, rem = _poly_divmod(prod, self.modulus, self.p) if prod else ((), ())
        return rem + (0,) * (self.k - len(rem))

    def _inv(self, a):
        if self._is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in GF(p)[x]
        r0, r1 = self.modulus, _poly_trim(a)
        s0, s1 = (), (1,)
        while r1:
            q, r = _poly_divmod(r0, r1, self.p)
            r0, r1 = r1, r
            qs1 = _poly_mul(q, s1, self.p)
            s = tuple((x - y) % self.p
                      for x, y in itertools.zip_longest(s0, qs1, fillvalue=0))
            s0, s1 = s1, _poly_trim(s)
        # r0 is a nonzero constant gcd; scale s0 by its inverse
        c_inv = pow(r0[0], self.p - 2, self.p)
        res = tuple((x * c_inv) % self.p for x in s0)
        return self._canon(res)

    def _is_zero(self, a):
        return all(x == 0 for x in a)

    def _int_of(self, a):
        return None if any(a[1:]) else a[0]

    def _str(self, a):
        if self._is_zero(a):
            return "0"
        parts = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xp = "x" if i == 1 else f"x^{i}"
                parts.append(xp if c == 1 else f"{c}{xp}")
        return "+".join(reversed(parts))


class Rationals(ScalarDomain):
    """Exact rational numbers.  Internal: the center of the quaternions."""

    kind = "rational"
    is_commutative = True
    center_description = "the whole field"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, Fraction(n))

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

    def _is_zero(self, a):
        return a == 0

    def _int_of(self, a):
        return a.numerator if a.denominator == 1 else None


class Quaternions(ScalarDomain):
    """Hamilton quaternions over the exact rationals."""

    kind = "quaternion"
    is_commutative = False
    center_description = "the rational subfield"

    def __repr__(self):
        return "Quat(Q)"

    def __eq__(self, other):
        return isinstance(other, Quaternions)

    def __hash__(self):
        return hash("quaternion")

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, (Fraction(n), Fraction(0), Fraction(0), Fraction(0)))

    @property
    def i(self) -> "Scalar":
        return Scalar(self, (Fraction(0), Fraction(1), Fraction(0), Fraction(0)))

    @property
    def j(self) -> "Scalar":
        return Scalar(self, (Fraction(0), Fraction(0), Fraction(1), Fraction(0)))

    @property
    def k(self) -> "Scalar":
        return Scalar(self, (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))

    def sample(self, seed: int = 0, extra: int = 40) -> Sampled:
        """The 3^4 grid over {0, 1, -1} followed by a seeded random batch."""
        grid = [Scalar(self, tuple(Fraction(c) for c in combo))
                for combo in itertools.product((0, 1, -1), repeat=4)]
        rng = random.Random(seed)
        batch = []
        for _ in range(extra):
            batch.append(Scalar(self, tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))))
        return Sampled(grid + batch)

    def norm(self, s: "Scalar") -> Fraction:
        a, b, c, d = s.payload
        return a * a + b * b + c * c + d * d

    def _canon(self, payload):
        t = tuple(Fraction(x) for x in payload)
        if len(t) != 4:
            raise ValueError("quaternion payload needs 4 components")
        return t

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, q1, q2):
        a1, b1, c1, d1 = q1
        a2, b2, c2, d2 = q2
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    def _inv(self, a):
        n = a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return (a[0] / n, -a[1] / n, -a[2] / n, -a[3] / n)

    def _is_zero(self, a):
        return all(x == 0 for x in a)

    def _is_central(self, a):
        return a[1] == 0 and a[2] == 0 and a[3] == 0

    def _int_of(self, a):
        return a[0].numerator if a[0].denominator == 1 and not any(a[1:]) else None

    def _str(self, a):
        units = ("", "i", "j", "k")
        parts = []
        for comp, unit in zip(a, units):
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
    """Immutable element of a ScalarDomain, in canonical form."""

    __slots__ = ("domain", "payload")

    def __init__(self, domain: ScalarDomain, payload):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.domain is self.domain or other.domain == self.domain:
                return other
            raise DomainMismatchError(f"{self.domain} vs {other.domain}")
        if isinstance(other, int):
            return self.domain.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.domain, self.domain._add(self.payload, o.payload))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.domain,
                      self.domain._add(self.payload, self.domain._neg(o.payload)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        return Scalar(self.domain, self.domain._neg(self.payload))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.domain, self.domain._mul(self.payload, o.payload))

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Scalar(self.domain, self.domain._mul(o.payload, self.payload))

    def __truediv__(self, other):
        """Right division a * b^-1 (order matters in the quaternions)."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def inverse(self) -> "Scalar":
        return Scalar(self.domain, self.domain._inv(self.payload))

    def is_zero(self) -> bool:
        return self.domain._is_zero(self.payload)

    def is_central(self) -> bool:
        """True iff the element commutes with the whole domain."""
        return self.domain._is_central(self.payload)

    def __eq__(self, other):
        """An int n equals only its canonical image (0 <= n < p on a finite
        field, any n on Q and Quat(Q)), which hashes as n."""
        if isinstance(other, int):
            return self.domain._int_of(self.payload) == other
        return (isinstance(other, Scalar) and other.domain == self.domain
                and other.payload == self.payload)

    def __hash__(self):
        n = self.domain._int_of(self.payload)
        return hash(self.payload if n is None else n)

    def __repr__(self):
        return self.domain._str(self.payload)


def scalars(domain: ScalarDomain, seed: int = 0):
    """All elements of a finite domain in canonical order, or a Sampled
    sequence (grid first, then a seeded batch) for an infinite one."""
    if domain.is_finite:
        return domain.elements()
    return domain.sample(seed)


def _projective_reps(domain: ScalarDomain, n: int):
    """The n-tuples over a finite domain whose first nonzero entry is 1:
    one per projective point of K^n, ordered by the position of the
    leading 1, then by the tail in `elements()` order."""
    elems = domain.elements()
    zero, one = domain.zero(), domain.one()
    for lead in range(n):
        for tail in itertools.product(elems, repeat=n - lead - 1):
            yield (zero,) * lead + (one,) + tail
