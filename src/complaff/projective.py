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
from fractions import Fraction

from .algebra import (
    Quaternions,
    Rationals,
    Sampled,
    Scalar,
    ScalarDomain,
    _projective_reps,
)
from .errors import DomainMismatchError, InfiniteDomainError
from .linalg import (
    MatrixK,
    Vector,
    apply,
    combine,
    from_payloads,
    kernel,
    payload_of,
    reduce_rows,
    row_space,
    solve,
    unit_vector,
    vec_is_zero,
    vector,
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
        basis, or None when it lies outside.

        In echelon form the only possible coefficients are the vector's
        entries at the pivot columns, so one reconstruction decides
        membership.
        """
        domain, is_zero = self.domain, self.domain._is_zero
        rows = self.basis.payload
        pivots = [next(j for j, x in enumerate(row) if not is_zero(x)) for row in rows]
        for v in vectors:
            coeffs = [v[p] for p in pivots]
            inside = combine(domain, coeffs, rows, self.ambient) == list(v)
            yield coeffs if inside else None

    def coefficients_of(self, v) -> Vector | None:
        """Coefficients of v w.r.t. the echelon basis, or None when outside."""
        v = [payload_of(self.domain, x) for x in v]
        if len(v) != self.ambient:
            raise ValueError("vector has the wrong length")
        coeffs = next(self._coefficients([v]))
        return None if coeffs is None else tuple(Scalar(self.domain, c) for c in coeffs)

    def contains_vector(self, v) -> bool:
        return self.coefficients_of(v) is not None

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(c is not None for c in self._coefficients(other.basis.payload))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check(other)
        both = self.basis.payload + other.basis.payload
        return Subspace(self.domain, self.ambient,
                        row_space(from_payloads(self.domain, both, self.ambient)))

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
        zeros = (domain.zero().raw,) * n
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
    """V = W (+) S: trivial intersection and full sum."""
    w._check(s)
    if w.dim + s.dim != w.ambient:
        return False
    return (w & s).dim == 0


def standard_complement_rows(w: Subspace) -> tuple:
    """The unit vectors at the non-pivot columns of W's echelon basis."""
    is_zero = w.domain._is_zero
    pivots = {next(i for i, x in enumerate(row) if not is_zero(x))
              for row in w.basis.payload}
    return tuple(unit_vector(w.domain, w.ambient, j)
                 for j in range(w.ambient) if j not in pivots)


def all_complements(w: Subspace) -> tuple:
    """Every complement of W, exactly once, in a fixed order.

    Complements are the graphs {b_i^gamma + b_i} over the standard
    complement, one per (n-k) x k coefficient matrix gamma: the images of
    the default chart's coordinates, in its lexicographic gamma order.
    """
    from .chart import AffineChart     # chart is built on this module

    if not w.domain.is_finite:
        raise InfiniteDomainError("complement enumeration needs a finite field")
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
    if not domain.is_finite:
        raise InfiniteDomainError("hyperplane enumeration needs a finite field")
    return tuple(_projective_reps(domain, n))


def hyperplanes(domain: ScalarDomain, n: int) -> tuple:
    """All hyperplanes of K^n as kernels of the canonical forms."""
    out = []
    for form in hyperplane_forms(domain, n):
        col = MatrixK(domain, [[c] for c in form], cols=1)
        out.append(Subspace(domain, n, kernel(col)))
    return tuple(out)


def hyperplanes_not_containing(w: Subspace) -> tuple:
    return tuple(x for x in hyperplanes(w.domain, w.ambient) if not x.contains(w))


# ---------------------------------------------------------------------------
# Z-structure: central subspaces w.r.t. a reference basis
# ---------------------------------------------------------------------------

_Z_BASIS = None  # 1, i, j, k as payload tuples, built lazily


def _quaternion_z_basis():
    global _Z_BASIS
    if _Z_BASIS is None:
        q = Quaternions()
        _Z_BASIS = (q.one(), q.i, q.j, q.k)
    return _Z_BASIS


class ZStructure:
    """An ordered reference basis (b_i) plus the center Z of the domain.

    The Z-span is the set of Z-linear combinations of the b_i; a
    subspace A <= span(b_i) is *central* when it has a basis inside the
    Z-span.  For commutative domains Z = K and every subspace is
    central; all the work happens over the quaternions, where Z = Q.
    """

    def __init__(self, domain: ScalarDomain, basis_vectors):
        rows = tuple(vector(domain, v) for v in basis_vectors)
        if not rows:
            raise ValueError("empty reference basis")
        self.domain = domain
        self.ambient = len(rows[0])
        self.basis = rows
        self.matrix = MatrixK(domain, rows, cols=self.ambient)
        self.span = Subspace.from_rows(domain, self.ambient, rows)
        if self.span.dim != len(rows):
            raise ValueError("reference basis is not K-linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_of(self, v) -> Vector | None:
        """Coordinates w.r.t. (b_i), or None when v is outside the span."""
        return solve(self.matrix, vector(self.domain, v))

    def from_coords(self, coords) -> Vector:
        return apply(vector(self.domain, coords), self.matrix)

    def zspan_contains(self, v) -> bool:
        coords = self.coords_of(v)
        return coords is not None and all(c.is_central() for c in coords)

    def point_in_projective_z(self, v) -> bool:
        """Is the point K*v in the projective Z-subspace w.r.t. (b_i)?

        K*v meets the Z-span iff the coordinates of v lie in one left
        coset c*Z, tested against the first nonzero coordinate.
        """
        coords = self.coords_of(v)
        if coords is None or vec_is_zero(coords):
            return False
        lead = next(c for c in coords if not c.is_zero())
        inv = lead.inverse()
        return all((inv * c).is_central() for c in coords)

    def z_point_reps(self) -> tuple:
        """Canonical representatives of the projective Z-points (finite)."""
        if not self.domain.is_finite:
            raise InfiniteDomainError("use z_point_samples on an infinite domain")
        return tuple(self.from_coords(c) for c in _projective_reps(self.domain, self.dim))

    def z_point_samples(self, seed: int = 0) -> Sampled:
        """Deterministic sample of projective Z-points (quaternion domain).

        Rational coordinate grid over {0, 1, -1} plus a seeded batch,
        canonicalised to first nonzero coordinate 1 and de-duplicated.
        """
        import random as _random

        if self.domain.is_finite:
            return Sampled(self.z_point_reps())
        if not isinstance(self.domain, Quaternions):
            raise InfiniteDomainError("Z-point sampling is defined for the quaternions")
        rng = _random.Random(seed)
        raw = [tuple(Fraction(c) for c in combo)
               for combo in itertools.product((0, 1, -1), repeat=self.dim)]
        for _ in range(20):
            raw.append(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                             for _ in range(self.dim)))
        seen, reps = set(), []
        for coords in raw:
            if all(c == 0 for c in coords):
                continue
            lead = next(c for c in coords if c != 0)
            canon = tuple(c / lead for c in coords)
            if canon in seen:
                continue
            seen.add(canon)
            reps.append(self.from_coords(
                tuple(self.domain.scalar((c, 0, 0, 0)) for c in canon)))
        return Sampled(reps)

    # -- central subspaces --------------------------------------------------

    def _require_inside(self, a: Subspace):
        if not self.span.contains(a):
            raise ValueError("subspace is not inside the reference span")

    def maximal_central_subspace(self, a: Subspace) -> Subspace:
        """The unique largest central subspace inside A.

        K-span of (A intersect Z-span), computed by expanding K over Z
        and solving the resulting Z-linear system exactly.
        """
        self._require_inside(a)
        if self.domain.is_commutative:
            return a
        if a.dim == 0:
            return a
        # coordinates of A w.r.t. (b_i)
        g = MatrixK(self.domain, [self.coords_of(r) for r in a.basis.entries],
                    cols=self.dim)
        r, m = g.rows, self.dim
        units = _quaternion_z_basis()
        d = len(units)
        # unknowns y_{i,t} in Q with y_i = sum_t y_{i,t} unit_t; constraints:
        # the i,j,k components of every column of y*G vanish
        qq = Rationals()
        cols = []
        for i in range(r):
            for t in range(d):
                row = []
                for c in range(m):
                    prod = units[t] * g.entries[i][c]
                    row.extend(prod.payload[1:])       # i, j, k parts
                cols.append([qq.scalar(x) for x in row])
        system = MatrixK(qq, cols, cols=m * (d - 1))
        null = kernel(system)
        vectors_in_z = []
        for sol in null.entries:
            y = []
            for i in range(r):
                acc = self.domain.zero()
                for t in range(d):
                    acc = acc + self.domain.scalar(
                        (sol[i * d + t].payload, 0, 0, 0)) * units[t]
                y.append(acc)
            vectors_in_z.append(apply(tuple(y), g))
        coord_sub = Subspace.from_rows(self.domain, m, vectors_in_z)
        ambient_rows = [self.from_coords(row) for row in coord_sub.basis.entries]
        return Subspace.from_rows(self.domain, self.ambient, ambient_rows)

    def is_central_subspace(self, a: Subspace) -> bool:
        return self.maximal_central_subspace(a) == a

    def central_complement(self, a: Subspace) -> Subspace:
        """A central complement of A inside span(b_i).

        Greedy over the reference basis indices, smallest first, so the
        result is a coordinate subspace span{b_j : j in J}: b_i lies in it
        exactly when i is in J.
        """
        self._require_inside(a)
        current = a
        chosen = []
        for b in self.basis:
            if current.dim == self.dim:
                break
            if not current.contains_vector(b):
                chosen.append(b)
                current = current + Subspace.from_rows(self.domain, self.ambient, [b])
        c = Subspace.from_rows(self.domain, self.ambient, chosen)
        # current = A + C, so dim(A + C) = dim A + dim C says A & C = 0
        if not current.dim == a.dim + c.dim == self.dim:
            raise RuntimeError("central complement is not a complement")
        return c
