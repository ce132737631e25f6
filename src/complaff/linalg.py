"""Exact matrices over a scalar domain, one-sided conventions throughout.

Vectors are rows.  Scalars multiply vectors and matrix rows on the LEFT.
Linear maps act on the right of row vectors, so the matrix of "apply f,
then g" is ``matrix(f) * matrix(g)``.  None of the routines here ever
commutes two scalar factors, which keeps everything valid over the
quaternions; "transpose" deliberately does not exist.

Row reduction uses left row operations only (swap, left-scale by a unit,
add a left multiple of another row).  The resulting reduced echelon form
is the unique canonical basis of the row space, so two row spaces are
equal exactly when their reduced forms are equal.

A ``MatrixK`` holds its entries as working payloads, the ``raw`` values
inside ``Scalar``s, in canonical form: ``payload`` is a tuple of payload
rows.  (Over the quaternions the working payload is the integer 5-tuple,
not the ``Fraction`` view that ``Scalar.payload`` shows.)
The arithmetic runs on them: one routine, ``reduce_rows``, reduces lists
of payload rows in place with the domain's payload operations bound once
per call, and every left linear combination of payload rows is the
domain's ``_combine`` hook, called directly.  The three user domains
override it: the quaternions pay one gcd per output entry instead of
two per term, GF(p) one ``% p`` per entry instead of two per term, and
GF(p^k) reads its add and multiply tables with no method call per
entry.
``reduce_rows`` runs one generic loop on the payload hooks, except over
GF(p) and Quat(Q): a domain that sets ``_reduce_rows`` gets the whole
reduction in one call.  GF(p) does it in plain ints, one ``% p`` per
updated entry and one ``pow`` per pivot instead of two hook calls per
entry; Quat(Q) on the integer 5-tuples, one gcd per updated entry
instead of a ``_mul`` and an ``_add`` with a gcd each.  That is one
extra call per reduction, which saves the hook calls of every entry it
updates.  A hook per updated row, tried before, measured no gain on
quat-sampled and cost reguli-gf3 about 5% of its jobs per second: it
kept the generic loop around it, and on the short GF(3) rows the extra
call per row outweighed the arithmetic it saved.  A payload is zero
exactly when it equals the domain's ``_zero``, as every payload is
canonical.  Ints and payloads enter through the domain's ``_canon``,
never through a ``Scalar``, which is built only when a caller reads
``entries`` (once per matrix) or a vector crosses the API boundary:
``payload_row`` takes one in, ``boxed`` hands one out.  One check,
``_echelon_check``, gives a row's coefficients over reduced echelon rows
(its entries at the pivots, if they rebuild it) for
``Echelon.coordinates``, subspace membership and the standard complement.
``Echelon.coordinates`` skips what its echelon makes vacuous.  At full
column rank the reduced rows are the identity, so the row is its own
coefficient row: no rebuild.  When ``rref`` left the transform equal to
the identity rows of [M | I], the reduced matrix is M, so the pivot
entries padded with zeros to M's row count are the coefficients: no
transform product.  Both skips return what the full route would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Scalar, ScalarDomain
from .errors import DomainMismatchError

Vector = tuple  # tuple[Scalar, ...]


# ---------------------------------------------------------------------------
# payload rows
# ---------------------------------------------------------------------------

def payload_of(domain: ScalarDomain, x):
    """The working payload of x as an element of `domain`: a Scalar of the
    domain unwrapped, anything else canonicalized by ``_canon``."""
    if isinstance(x, Scalar):
        return x.raw if x.domain is domain else domain.scalar(x).raw
    return domain._canon(x)


def from_payloads(domain: ScalarDomain, rows, cols: int) -> "MatrixK":
    """The MatrixK with the given canonical payload rows, taken on trust:
    no coercion, no width check and no ``__init__``."""
    m = object.__new__(MatrixK)
    _fill(m, domain, tuple(map(tuple, rows)), cols)
    return m


def reduce_rows(domain: ScalarDomain, rows: list, ncols: int) -> list:
    """Left-reduce payload rows in place on their first `ncols` columns.

    Rows may be wider than `ncols`: the extra columns (an appended
    identity, say) undergo the same row operations but never hold a
    pivot.  Afterwards rows[:rank] are the reduced echelon rows and every
    later row is zero on the first `ncols` columns.  Returns the pivot
    columns, one per echelon row.  A domain that sets ``_reduce_rows``
    (GF(p), Quat(Q)) does all of it in that one call.
    """
    fast = domain._reduce_rows
    if fast is not None:
        return fast(rows, ncols)
    add, mul, neg, inv, zero = (domain._add, domain._mul, domain._neg,
                                domain._inv, domain._zero)
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
        # rows from `lead` on are zero left of `col`, so the row operations
        # below only touch the pivot row's nonzero entries from `col` on
        k = inv(row[col])
        nonzero = []
        for j in range(col, len(row)):
            y = row[j]
            if y != zero:
                row[j] = y = mul(k, y)
                nonzero.append((j, y))
        for i in range(nrows):
            other = rows[i]
            if i != lead and other[col] != zero:
                f = neg(other[col])
                for j, y in nonzero:
                    other[j] = add(other[j], mul(f, y))
        pivots.append(col)
        lead += 1
    return pivots


def _echelon_check(domain: ScalarDomain, rows, pivots=None) -> tuple:
    """The pivot columns of reduced echelon payload rows (scanned unless
    given) and the function taking a payload row to its payload coefficients
    over them, or None outside their span.  The only possible coefficients
    are the row's entries at the pivots, so one rebuild decides membership."""
    if pivots is None:
        zero = domain._zero
        pivots = [next(j for j, x in enumerate(row) if x != zero) for row in rows]

    def coefficients(v) -> list | None:
        coeffs = [v[p] for p in pivots]
        return coeffs if domain._combine(coeffs, rows, len(v)) == list(v) else None

    return pivots, coefficients


def _augmented(m: "MatrixK") -> list:
    """Payload rows of [M | I]."""
    zero, one, n = m.domain._zero, m.domain._one, m.rows
    return [[*row, *[zero] * i, one, *[zero] * (n - i - 1)]
            for i, row in enumerate(m.payload)]


def _width(rows, cols: int | None) -> int:
    """The common length of the rows, checked against `cols` if given."""
    if not rows:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cols
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    if cols is not None and cols != width:
        raise ValueError(f"rows have {width} columns, not {cols}")
    return width


# ---------------------------------------------------------------------------
# the boxing boundary: Scalar tuples in and out
# ---------------------------------------------------------------------------

def payload_row(domain: ScalarDomain, v) -> list:
    """The working payloads of a vector's entries (ints and payloads coerced)."""
    return [payload_of(domain, x) for x in v]


def boxed(domain: ScalarDomain, row) -> Vector:
    """The Scalar tuple of a payload row."""
    return tuple([Scalar(domain, x) for x in row])


def apply(v: Vector, m: "MatrixK") -> Vector:
    """Row vector times matrix; vector entries multiply on the left."""
    if len(v) != m.rows:
        raise ValueError(f"vector of length {len(v)} times {m.rows}x{m.cols} matrix")
    domain = m.domain
    return boxed(domain, domain._combine(payload_row(domain, v), m.payload, m.cols))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class MatrixK:
    """Immutable matrix over a domain, held as canonical payload rows; may
    have zero rows (empty row space).  ``MatrixK(domain, rows)`` coerces
    ints, payloads and Scalars of the domain; ``from_payloads`` trusts."""

    __slots__ = ("domain", "rows", "cols", "payload", "_entries")

    def __init__(self, domain: ScalarDomain, entries, cols: int | None = None):
        # coercion rejects Scalars of another domain
        rows = tuple(tuple([payload_of(domain, x) for x in row]) for row in entries)
        _fill(self, domain, rows, _width(rows, cols))

    def __setattr__(self, *args):
        raise AttributeError("MatrixK is immutable")

    @property
    def entries(self) -> tuple:
        """The rows as tuples of Scalars, built on first read."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(
                tuple([Scalar(self.domain, x) for x in row]) for row in self.payload))
        return self._entries

    @classmethod
    def identity(cls, domain: ScalarDomain, n: int) -> "MatrixK":
        one, zero = domain._one, domain._zero
        return from_payloads(domain, [[one if i == j else zero for j in range(n)]
                                      for i in range(n)], n)

    @classmethod
    def zero(cls, domain: ScalarDomain, rows: int, cols: int) -> "MatrixK":
        return from_payloads(domain, [[domain._zero] * cols] * rows, cols)

    def _check(self, other):
        if not isinstance(other, MatrixK):
            raise TypeError("expected MatrixK")
        if other.domain != self.domain:
            raise DomainMismatchError(f"{self.domain} vs {other.domain}")

    def _entrywise(self, other, op, what):
        self._check(other)
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ValueError(f"shape mismatch in {what}")
        return from_payloads(self.domain,
                             [[op(x, y) for x, y in zip(a, b)]
                              for a, b in zip(self.payload, other.payload)],
                             self.cols)

    def __add__(self, other):
        return self._entrywise(other, self.domain._add, "addition")

    def __sub__(self, other):
        add, neg = self.domain._add, self.domain._neg
        return self._entrywise(other, lambda x, y: add(x, neg(y)), "subtraction")

    def __neg__(self):
        neg = self.domain._neg
        return from_payloads(self.domain,
                             [[neg(x) for x in row] for row in self.payload],
                             self.cols)

    def __mul__(self, other):
        """Matrix product; self's entries stay on the left of other's."""
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        domain, right = self.domain, other.payload
        return from_payloads(domain,
                             [domain._combine(row, right, other.cols)
                              for row in self.payload],
                             other.cols)

    def scale_left(self, k: Scalar) -> "MatrixK":
        """Entrywise left multiple k*M (the matrix of lambda_k followed by M)."""
        k, mul = payload_of(self.domain, k), self.domain._mul
        return from_payloads(self.domain,
                             [[mul(k, x) for x in row] for row in self.payload],
                             self.cols)

    def is_zero(self) -> bool:
        zero = self.domain._zero
        return all(x == zero for row in self.payload for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return (isinstance(other, MatrixK) and other.domain == self.domain
                and other.cols == self.cols and other.payload == self.payload)

    def __hash__(self):
        return hash((self.cols, self.payload))

    def __repr__(self):
        if not self.payload:
            return f"MatrixK(0x{self.cols})"
        text = self.domain._str
        body = "; ".join("[" + ", ".join(text(x) for x in row) + "]"
                         for row in self.payload)
        return f"[{body}]"


# the __set__ of each slot descriptor, which writes past the immutability
# guard of __setattr__ with no name lookup
_set_domain, _set_rows, _set_cols, _set_payload, _set_entries = (
    MatrixK.__dict__[name].__set__ for name in MatrixK.__slots__)


def _fill(m: MatrixK, domain: ScalarDomain, payload: tuple, cols: int):
    """Set the five slots of a new matrix, its Scalar entries not yet built."""
    _set_domain(m, domain)
    _set_rows(m, len(payload))
    _set_cols(m, cols)
    _set_payload(m, payload)
    _set_entries(m, None)


# ---------------------------------------------------------------------------
# row reduction and everything built on it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Echelon:
    matrix: MatrixK          # the reduced form R = transform * original
    pivots: tuple            # pivot column per nonzero row
    transform: MatrixK       # invertible record of the row operations
    # the transform is the identity, so R is the original matrix itself
    _untouched: bool = field(default=False, compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def coordinates(self, row) -> list | None:
        """Payload coefficients x with x * original = row, or None outside the
        row space: row's entries at the pivots, carried back by the transform.
        At full column rank R's nonzero rows are the identity, so the row is
        inside and those entries are the row itself: nothing to rebuild.  When
        the transform is the identity, R is the original, and x is those
        entries padded with zeros to its row count: no product."""
        reduced = self.matrix
        if len(row) != reduced.cols:
            raise ValueError("vector has the wrong length")
        domain = reduced.domain
        if len(self.pivots) == reduced.cols:
            coeffs = list(row)
        else:
            coeffs = _echelon_check(domain, reduced.payload, self.pivots)[1](row)
            if coeffs is None:
                return None
        if self._untouched:
            return coeffs + [domain._zero] * (reduced.rows - len(coeffs))
        return domain._combine(coeffs, self.transform.payload, self.transform.cols)


def rref(m: MatrixK) -> Echelon:
    """Left-reduced row echelon form with the row-operation transform."""
    rows = _augmented(m)
    start = [r[m.cols:] for r in rows]              # the identity rows of [M | I]
    pivots = reduce_rows(m.domain, rows, m.cols)
    tails = [r[m.cols:] for r in rows]
    return Echelon(from_payloads(m.domain, [r[:m.cols] for r in rows], m.cols),
                   tuple(pivots), from_payloads(m.domain, tails, m.rows),
                   tails == start)


def rank(m: MatrixK) -> int:
    return len(reduce_rows(m.domain, [list(row) for row in m.payload], m.cols))


def row_space(m: MatrixK) -> MatrixK:
    """Canonical echelon basis of the row space (zero rows dropped)."""
    rows = [list(row) for row in m.payload]
    r = len(reduce_rows(m.domain, rows, m.cols))
    return from_payloads(m.domain, rows[:r], m.cols)


def kernel(m: MatrixK) -> MatrixK:
    """Canonical basis of {v : v*M = 0} (left coefficients)."""
    rows = _augmented(m)
    r = len(reduce_rows(m.domain, rows, m.cols))
    null = [row[m.cols:] for row in rows[r:]]
    reduce_rows(m.domain, null, m.rows)      # independent rows: none drops out
    return from_payloads(m.domain, null, m.rows)


def inverse(m: MatrixK) -> MatrixK | None:
    """Two-sided inverse, or None when the matrix is not invertible."""
    if not m.is_square():
        raise ValueError("inverse needs a square matrix")
    rows = _augmented(m)
    if len(reduce_rows(m.domain, rows, m.cols)) != m.rows:
        return None
    return from_payloads(m.domain, [r[m.cols:] for r in rows], m.rows)


def is_invertible(m: MatrixK) -> bool:
    return m.is_square() and rank(m) == m.rows


def solve(m: MatrixK, rhs: Vector) -> Vector | None:
    """Some x with x*M = rhs, or None when rhs is not in the row space."""
    x = rref(m).coordinates(payload_row(m.domain, rhs))
    return None if x is None else boxed(m.domain, x)


def stack(domain: ScalarDomain, parts, cols: int) -> MatrixK:
    """Vertical concatenation of matrices and/or row vectors."""
    rows = []
    for part in parts:
        if isinstance(part, MatrixK):
            if part.domain != domain:
                raise DomainMismatchError(f"{part.domain} matrix stacked in {domain}")
            rows.extend(part.payload)
        else:
            rows.append(tuple(payload_row(domain, part)))
    return from_payloads(domain, rows, _width(rows, cols))
