"""Subspace lattice of K^n and the Z-structure attached to a basis.

A ``Subspace`` stores the unique left-reduced echelon basis of its row
space, so subspace equality is plain ``==`` on the stored basis.

A ``ZStructure`` fixes an ordered reference basis (b_i) of some subspace
U and knows which vectors are Z-linear combinations of the b_i (Z the
center of the scalar domain).  It computes the unique maximal central
subspace inside any A <= U and deterministic central complements, the
two ingredients of the cone description of non-regular lines.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .algebra import ScalarDomain, _listing, _projective_reps
from .errors import DomainMismatchError, InfiniteDomainError
from .linalg import (
    MatrixK,
    Vector,
    _echelon_check,
    apply,
    boxed,
    from_payloads,
    kernel,
    payload_row,
    reduce_rows,
    row_space,
    rref,
)


class Subspace:
    """A subspace of K^n, held as its canonical echelon basis."""

    __slots__ = ("domain", "ambient", "basis")

    def __init__(self, domain: ScalarDomain, ambient: int, basis: MatrixK):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *args):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, domain: ScalarDomain, ambient: int, rows) -> "Subspace":
        return cls(domain, ambient, row_space(MatrixK(domain, rows, cols=ambient)))

    @classmethod
    def spanned(cls, domain: ScalarDomain, ambient: int, rows) -> "Subspace":
        """The span of canonical payload rows, reduced as copied lists: the
        one matrix built is the echelon basis."""
        rows = [list(row) for row in rows]
        rank = len(reduce_rows(domain, rows, ambient))
        return cls(domain, ambient, from_payloads(domain, rows[:rank], ambient))

    @classmethod
    def zero(cls, domain: ScalarDomain, ambient: int) -> "Subspace":
        return cls(domain, ambient, from_payloads(domain, (), ambient))

    @classmethod
    def full(cls, domain: ScalarDomain, ambient: int) -> "Subspace":
        return cls(domain, ambient, MatrixK.identity(domain, ambient))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def rows(self) -> tuple:
        return self.basis.entries

    def _check(self, other: "Subspace"):
        if other.domain != self.domain:
            raise DomainMismatchError(f"{self.domain} vs {other.domain}")
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")

    def _coefficients(self, vectors):
        """Per payload row: its payload coefficients w.r.t. the echelon
        basis, or None when it lies outside."""
        return map(_echelon_check(self.domain, self.basis.payload)[1], vectors)

    def coefficients_of(self, v) -> Vector | None:
        """Coefficients of v w.r.t. the echelon basis, or None when outside."""
        v = payload_row(self.domain, v)
        if len(v) != self.ambient:
            raise ValueError("vector has the wrong length")
        coeffs = next(self._coefficients([v]))
        return None if coeffs is None else boxed(self.domain, coeffs)

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(c is not None for c in self._coefficients(other.basis.payload))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.spanned(self.domain, self.ambient,
                                self.basis.payload + other.basis.payload)

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection by Zassenhaus' method.

        The row space of [A | A] over [B | 0] holds (a + b | a) for a in
        A and b in B; its vectors with zero left half are exactly (0 | x)
        with x in A & B.  In the reduced echelon form they are the rows
        with a pivot in the right half, and their right halves are the
        reduced echelon basis of A & B.
        """
        self._check(other)
        n, domain = self.ambient, self.domain
        zeros = (domain._zero,) * n
        rows = ([[*row, *row] for row in self.basis.payload]
                + [[*row, *zeros] for row in other.basis.payload])
        pivots = reduce_rows(domain, rows, 2 * n)
        meet = [row[n:] for row, p in zip(rows, pivots) if p >= n]
        return Subspace(domain, n, from_payloads(domain, meet, n))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.domain == self.domain
                and other.ambient == self.ambient and other.basis == self.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient}; {self.basis!r})"


def is_complement(w: Subspace, s: Subspace) -> bool:
    """V = W (+) S, the chart's test: the dimensions add up to n and so
    does the dimension of the sum."""
    w._check(s)
    return w.dim + s.dim == w.ambient == (w + s).dim


def standard_complement_rows(w: Subspace) -> tuple:
    """The unit payload rows at the non-pivot columns of W's echelon basis,
    in column order: an echelon basis themselves."""
    pivots = set(_echelon_check(w.domain, w.basis.payload)[0])
    zero, one, n = w.domain._zero, w.domain._one, w.ambient
    return tuple((zero,) * j + (one,) + (zero,) * (n - j - 1)
                 for j in range(n) if j not in pivots)


def all_complements(w: Subspace) -> tuple:
    """Every complement of W, exactly once, in a fixed order.

    Complements are the graphs {b_i^gamma + b_i} over the standard
    complement, one per (n-k) x k coefficient matrix gamma: the images of
    the default chart's coordinates, in its lexicographic gamma order.
    """
    from .chart import AffineChart     # chart is built on this module

    if w.dim == 0 or w.dim == w.ambient:
        raise ValueError("W = 0 and W = V are excluded (single trivial complement)")
    chart = AffineChart(w.domain, w.ambient, w)
    return tuple(chart.complement(c) for c in chart.all_coords())


# ---------------------------------------------------------------------------
# hyperplanes
# ---------------------------------------------------------------------------

def hyperplane_forms(domain: ScalarDomain, n: int) -> tuple:
    """Nonzero coefficient columns up to right proportionality.

    A form v |-> sum v_i * c_i is left-linear; c and c*z cut the same
    hyperplane, so the canonical representative has its first nonzero
    coefficient equal to 1.
    """
    return tuple(boxed(domain, c) for c in _projective_reps(domain, n))


def _hyperplane(domain: ScalarDomain, form) -> Subspace:
    """ker c, the hyperplane {v : sum v_i * c_i = 0}, for a payload form c."""
    col = from_payloads(domain, [[c] for c in form], 1)
    return Subspace(domain, len(form), kernel(col))


def hyperplanes(domain: ScalarDomain, n: int) -> tuple:
    """All hyperplanes of K^n as kernels of the canonical forms."""
    return tuple(_hyperplane(domain, c) for c in _projective_reps(domain, n))


def hyperplanes_not_containing(w: Subspace) -> tuple:
    return tuple(x for x in hyperplanes(w.domain, w.ambient) if not x.contains(w))


# ---------------------------------------------------------------------------
# Z-structure: central subspaces w.r.t. a reference basis
# ---------------------------------------------------------------------------

class ZStructure:
    """An ordered reference basis (b_i) plus the center Z of the domain.

    The Z-span is the set of Z-linear combinations of the b_i; a
    subspace A <= span(b_i) is *central* when it has a basis inside the
    Z-span.  For commutative domains Z = K and every subspace is
    central.  Over a skew field the domain describes K over Z by its
    ``_is_central`` and ``_imag_parts``.  The public helpers take and
    return Scalar tuples, the ``_`` ones payload rows.  The three central
    queries read E, the reduced echelon form of A's coordinates over (b_i).
    """

    def __init__(self, domain: ScalarDomain, basis_vectors):
        """basis_vectors: a MatrixK over the domain, kept as it is, or rows."""
        matrix = (basis_vectors if isinstance(basis_vectors, MatrixK)
                  else MatrixK(domain, tuple(basis_vectors)))
        self.domain = domain
        self.ambient = matrix.cols
        self.matrix = matrix
        ech = rref(matrix)
        if ech.rank != matrix.rows:
            raise ValueError("reference basis is not K-linearly independent")
        self.span = Subspace(domain, self.ambient, ech.matrix)
        # payload row -> its payload coordinates w.r.t. (b_i), or None outside
        self._coords = ech.coordinates

    @property
    def basis(self) -> tuple:
        return self.matrix.entries

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def _is_z_point(self, coords) -> bool:
        """Do the payload coordinates lie in one left coset c*Z, c != 0?"""
        d = self.domain
        lead = next((c for c in coords if c != d._zero), None)
        if lead is None:
            return False
        inv = d._inv(lead)
        return all(d._is_central(d._mul(inv, c)) for c in coords)

    def coords_of(self, v) -> Vector | None:
        """Coordinates w.r.t. (b_i), or None when v is outside the span."""
        coords = self._coords(payload_row(self.domain, v))
        return None if coords is None else boxed(self.domain, coords)

    def from_coords(self, coords) -> Vector:
        return apply(coords, self.matrix)

    def zspan_contains(self, v) -> bool:
        coords = self._coords(payload_row(self.domain, v))
        return coords is not None and all(map(self.domain._is_central, coords))

    def point_in_projective_z(self, v) -> bool:
        """Is the point K*v in the projective Z-subspace w.r.t. (b_i)?

        K*v meets the Z-span iff the coordinates of v lie in one left
        coset c*Z, tested against the first nonzero coordinate.
        """
        coords = self._coords(payload_row(self.domain, v))
        return coords is not None and self._is_z_point(coords)

    def _z_coords(self, seed: int = 0) -> list:
        """Payload coordinate rows of the projective Z-points: every one over
        a finite field, else a seeded sample of those with rational coordinates.

        The sample is the rational coordinate grid over {0, 1, -1} plus a
        seeded batch, canonicalised to first nonzero coordinate 1 and
        de-duplicated; each rational c/d enters the domain as c * d^-1.
        """
        d = self.domain
        if d.is_finite:
            return list(_projective_reps(d, self.dim))
        rng = random.Random(seed)
        batch = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                       for _ in range(self.dim)) for _ in range(20)]
        reps = {}                            # insertion-ordered set
        for coords in itertools.chain(
                itertools.product((0, 1, -1), repeat=self.dim), batch):
            lead = next((c for c in coords if c != 0), None)
            if lead is not None:
                reps.setdefault(tuple(Fraction(c) / lead for c in coords))
        return [[d._mul(d._canon(c.numerator), d._inv(d._canon(c.denominator)))
                 for c in canon] for canon in reps]

    def z_point_reps(self) -> tuple:
        """Canonical representatives of the projective Z-points (finite)."""
        if not self.domain.is_finite:
            raise InfiniteDomainError("use z_point_samples on an infinite domain")
        return self.z_point_samples()

    def z_point_samples(self, seed: int = 0):
        """The projective Z-points: all of them over a finite field, as a
        tuple, else a deterministic Sampled; see `_z_coords`."""
        coords = from_payloads(self.domain, self._z_coords(seed), self.dim)
        return _listing(self.domain, (coords * self.matrix).entries)

    # -- central subspaces --------------------------------------------------

    def _coordinates(self, a: Subspace) -> list:
        """A's basis as payload coordinate rows over (b_i); ValueError when
        A is not inside span(b_i)."""
        self.span._check(a)
        rows = [self._coords(v) for v in a.basis.payload]
        if None in rows:
            raise ValueError("subspace is not inside the reference span")
        return rows

    def maximal_central_subspace(self, a: Subspace) -> Subspace:
        """The unique largest central subspace inside A.

        Every vector of A is y*E*B, and y*E equals y at E's r pivot
        columns, so it lies in the Z-span exactly when every y_i is central
        and sum_i y_i * imag(E_ij) = 0 at each other column j, imag the
        Z-linear ``_imag_parts``: a kernel of r x 3*(dim - r) central
        payloads over the quaternions.  The result spans kernel * E * B.
        """
        rows, d = self._coordinates(a), self.domain
        if d.is_commutative:
            return a
        pivots = reduce_rows(d, rows, self.dim)
        free = [j for j in range(self.dim) if j not in pivots]
        system = [[p for j in free for p in d._imag_parts(g[j])] for g in rows]
        null = kernel(from_payloads(d, system, len(system[0]) if rows else 0))
        e = from_payloads(d, rows, self.dim)
        return Subspace(d, self.ambient, row_space(null * e * self.matrix))

    def is_central_subspace(self, a: Subspace) -> bool:
        """Is every entry of E central?  E is unique, and reducing central
        rows keeps them central."""
        rows = self._coordinates(a)
        reduce_rows(self.domain, rows, self.dim)
        return all(map(self.domain._is_central, itertools.chain(*rows)))

    def central_complement(self, a: Subspace) -> Subspace:
        """A central complement of A inside span(b_i).

        Greedy over the reference basis indices, smallest first, so the
        result is a coordinate subspace span{b_j : j in J}: b_i lies in it
        exactly when i is in J.  The greedy pass skips b_j exactly when a
        vector of A has its last nonzero coordinate at j: J is the
        complement of the pivots of E reduced from the last column first.
        """
        rows = [g[::-1] for g in self._coordinates(a)]
        skipped = {self.dim - 1 - p for p in reduce_rows(self.domain, rows, self.dim)}
        return Subspace.spanned(self.domain, self.ambient, [
            b for j, b in enumerate(self.matrix.payload) if j not in skipped])
