"""The affine structure carried by the complements of a fixed subspace.

A chart fixes V = W (+) U inside K^n together with an ordered basis
(b_i) of U and a working basis of W.  Every complement S of W is the
graph of a unique map gamma: U -> W, written here as the (dim U) x
(dim W) matrix of gamma with respect to those bases; the chart turns the
set of complements into a left K-vector space via

    gamma + eta         (translation)
    k . gamma = entrywise left multiple k*gamma

and the chart lines are the sets {k*alpha + beta : k in K}, alpha != 0.

The scalar action depends on (b_i) only through its Z-span: two bases
give the same affine structure exactly when their projective Z-subspaces
coincide, which `charts_equal` decides through the coset criterion of
`split_scalar_central`.
"""

from __future__ import annotations

import itertools

from .algebra import Sampled, Scalar, ScalarDomain, scalars
from .errors import ChartMismatchError, InfiniteDomainError
from .linalg import (
    MatrixK,
    Vector,
    apply,
    combine,
    from_payloads,
    inverse,
    is_invertible,
    matrix_rows,
    reduce_rows,
    rref,
    stack,
    vec_add,
    vector,
)
from .projective import Subspace, ZStructure, standard_complement_rows


class AffineChart:
    """V = W (+) U with chosen bases; coordinatizes the complements of W."""

    def __init__(self, domain: ScalarDomain, ambient: int, w: Subspace,
                 u: Subspace | None = None, b=None, w_basis=None,
                 space: Subspace | None = None):
        self.domain = domain
        self.ambient = ambient
        self.space = space if space is not None else Subspace.full(domain, ambient)
        self.w = w
        if u is None:
            if space is not None:
                raise ValueError("an explicit U is required inside a proper subspace")
            u = Subspace.from_rows(domain, ambient, standard_complement_rows(w))
        self.u = u
        self.k = w.dim
        self.m = u.dim
        if self.k == 0 or self.m == 0:
            raise ValueError("trivial charts (W = 0 or W = V) are excluded")
        if (w & u).dim != 0 or (w + u) != self.space:
            raise ValueError("V = W (+) U fails for the given data")
        self.w_basis = tuple(vector(domain, v) for v in (w_basis or w.basis.entries))
        self.b = tuple(vector(domain, v) for v in (b or u.basis.entries))
        if Subspace.from_rows(domain, ambient, self.w_basis) != w or len(self.w_basis) != self.k:
            raise ValueError("w_basis does not span W")
        if Subspace.from_rows(domain, ambient, self.b) != u or len(self.b) != self.m:
            raise ValueError("b is not a basis of U")
        self.z = ZStructure(domain, self.b)
        self.w_matrix = MatrixK(domain, self.w_basis, cols=ambient)
        self.b_matrix = MatrixK(domain, self.b, cols=ambient)
        self._t = stack(domain, [self.w_matrix, self.b_matrix], cols=ambient)
        self._t_ech = rref(self._t)

    @property
    def v_dim(self) -> int:
        return self.space.dim

    @property
    def is_symmetric(self) -> bool:
        return self.k == self.m

    def __eq__(self, other):
        return other is self or (
            isinstance(other, AffineChart) and other.domain == self.domain
            and other.ambient == self.ambient and other.space == self.space
            and other.w == self.w and other.u == self.u
            and other.w_basis == self.w_basis and other.b == self.b)

    def __hash__(self):
        return hash((self.ambient, self.w, self.u, self.w_basis, self.b))

    def __repr__(self):
        return (f"AffineChart({self.domain!r}, V^{self.v_dim} in K^{self.ambient}, "
                f"dim W = {self.k}, dim U = {self.m})")

    # -- coordinates ----------------------------------------------------------

    def _split(self, v: list) -> list | None:
        """Payload coordinates of the payload row v over the independent
        rows of [W-basis; b], or None when v is outside the space."""
        ech, domain = self._t_ech, self.domain
        coeffs = [v[col] for col in ech.pivots]
        if combine(domain, coeffs, matrix_rows(ech.matrix), self.ambient) != v:
            return None
        return combine(domain, coeffs, matrix_rows(ech.transform), self._t.rows)

    def coords_split(self, v) -> tuple[Vector, Vector] | None:
        """(W-part, U-part) of v in the chart bases; None outside the space."""
        full = self._split([x.payload for x in vector(self.domain, v)])
        if full is None:
            return None
        full = tuple(Scalar(self.domain, x) for x in full)
        return full[:self.k], full[self.k:]

    def from_split(self, x, y) -> Vector:
        return vec_add(apply(vector(self.domain, x), self.w_matrix),
                       apply(vector(self.domain, y), self.b_matrix))

    def gamma(self, rows) -> MatrixK:
        m = MatrixK(self.domain, rows, cols=self.k)
        if (m.rows, m.cols) != (self.m, self.k):
            raise ValueError(f"gamma must be {self.m}x{self.k}")
        return m

    def coord(self, rows) -> "ComplementCoord":
        return ComplementCoord(self, self.gamma(rows))

    def zero_coord(self) -> "ComplementCoord":
        return ComplementCoord(self, MatrixK.zero(self.domain, self.m, self.k))

    def complement(self, c: "ComplementCoord | MatrixK") -> Subspace:
        """The complement U^(gamma,1): spanned by the rows b_i^gamma + b_i."""
        g = c.gamma if isinstance(c, ComplementCoord) else c
        shifted = g * self.w_matrix
        rows = [vec_add(shifted.entries[i], self.b[i]) for i in range(self.m)]
        return Subspace.from_rows(self.domain, self.ambient, rows)

    def _graph(self, s: Subspace) -> MatrixK | None:
        """The gamma whose complement is S, or None when S is no complement
        of W in the chart's space.  S's rows have chart coordinates [X | Y];
        S & W = 0 exactly when Y is invertible, and then reducing [Y | X]
        on its first m columns leaves [I | Y^-1 X], so gamma = Y^-1 X."""
        if s.dim != self.m:
            return None
        self.w._check(s)
        rows = []
        for v in matrix_rows(s.basis):
            full = self._split(v)
            if full is None:
                return None
            rows.append(full[self.k:] + full[:self.k])
        if len(reduce_rows(self.domain, rows, self.m)) != self.m:
            return None
        return from_payloads(self.domain, [r[self.m:] for r in rows], self.k)

    def coordinate_of(self, s: Subspace) -> "ComplementCoord":
        """Inverse of `complement`; requires S to be a complement of W."""
        if s.domain != self.domain or s.ambient != self.ambient:
            raise ValueError("subspace lives in a different ambient space")
        gamma = self._graph(s)
        if gamma is None:
            raise ValueError("not a complement of W in this chart")
        return ComplementCoord(self, gamma)

    def all_coords(self) -> tuple:
        """Every complement coordinate, in lexicographic gamma order."""
        if not self.domain.is_finite:
            raise InfiniteDomainError("coordinate enumeration needs a finite field")
        elems = scalars(self.domain)
        out = []
        for combo in itertools.product(elems, repeat=self.m * self.k):
            rows = [combo[i * self.k:(i + 1) * self.k] for i in range(self.m)]
            out.append(self.coord(rows))
        return tuple(out)

    def subchart(self, indices) -> "Subchart":
        return Subchart(self, tuple(indices))


def symmetric_chart(domain: ScalarDomain, m: int) -> AffineChart:
    """The model V = U x U on K^(2m): W spanned by the first m unit vectors."""
    w = Subspace.from_rows(domain, 2 * m,
                           MatrixK.identity(domain, 2 * m).entries[:m])
    return AffineChart(domain, 2 * m, w)


class ComplementCoord:
    """A complement of W, named by its gamma matrix in a fixed chart."""

    __slots__ = ("chart", "gamma")

    def __init__(self, chart: AffineChart, gamma: MatrixK):
        if (gamma.rows, gamma.cols) != (chart.m, chart.k):
            raise ValueError("gamma has the wrong shape for this chart")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, *args):
        raise AttributeError("ComplementCoord is immutable")

    def _check(self, other):
        if not isinstance(other, ComplementCoord):
            raise TypeError("expected ComplementCoord")
        if other.chart != self.chart:
            raise ChartMismatchError("coordinates from different charts")

    def __add__(self, other):
        self._check(other)
        return ComplementCoord(self.chart, self.gamma + other.gamma)

    def __sub__(self, other):
        self._check(other)
        return ComplementCoord(self.chart, self.gamma - other.gamma)

    def __neg__(self):
        return ComplementCoord(self.chart, -self.gamma)

    def __rmul__(self, k):
        """Left scalar action k*c, the entrywise left multiple of gamma."""
        k = self.chart.domain.scalar(k)
        return ComplementCoord(self.chart, self.gamma.scale_left(k))

    def subspace(self) -> Subspace:
        return self.chart.complement(self)

    def __eq__(self, other):
        return (isinstance(other, ComplementCoord) and other.chart == self.chart
                and other.gamma == self.gamma)

    def __hash__(self):
        return hash(self.gamma)

    def __repr__(self):
        return f"Coord({self.gamma!r})"


class AffineLine:
    """The chart line {k*alpha + beta : k in K}, alpha != 0."""

    def __init__(self, chart: AffineChart, alpha: MatrixK, beta: MatrixK):
        if alpha.is_zero():
            raise ValueError("a line needs alpha != 0")
        if (alpha.rows, alpha.cols) != (chart.m, chart.k):
            raise ValueError("alpha has the wrong shape")
        if (beta.rows, beta.cols) != (chart.m, chart.k):
            raise ValueError("beta has the wrong shape")
        self.chart = chart
        self.alpha = alpha
        self.beta = beta

    def point_at(self, k) -> ComplementCoord:
        k = self.chart.domain.scalar(k)
        return ComplementCoord(self.chart, self.alpha.scale_left(k) + self.beta)

    def points(self, seed: int = 0):
        dom = self.chart.domain
        if dom.is_finite:
            return tuple(self.point_at(k) for k in scalars(dom))
        return Sampled(self.point_at(k) for k in dom.sample(seed))

    def parameter_of(self, c: ComplementCoord) -> Scalar | None:
        """The k with c = k*alpha + beta, or None when c is off the line."""
        if c.chart != self.chart:
            raise ChartMismatchError("coordinate from a different chart")
        diff = c.gamma - self.beta
        pos = next(((i, j) for i in range(self.alpha.rows)
                    for j in range(self.alpha.cols)
                    if not self.alpha.entries[i][j].is_zero()))
        k = diff.entries[pos[0]][pos[1]] * self.alpha.entries[pos[0]][pos[1]].inverse()
        return k if self.alpha.scale_left(k) == diff else None

    def contains(self, c: ComplementCoord) -> bool:
        return self.parameter_of(c) is not None

    @property
    def is_regular(self) -> bool:
        """alpha square and invertible; impossible unless dim W = dim U."""
        return self.alpha.is_square() and is_invertible(self.alpha)

    def __repr__(self):
        return f"Line(alpha={self.alpha!r}, beta={self.beta!r})"


def line_through(c1: ComplementCoord, c2: ComplementCoord) -> AffineLine:
    c1._check(c2)
    if c1 == c2:
        raise ValueError("two distinct points are needed")
    return AffineLine(c1.chart, c2.gamma - c1.gamma, c1.gamma)


def are_complementary(c1: ComplementCoord, c2: ComplementCoord) -> bool:
    """Complements U^(g1,1), U^(g2,1) are complementary iff g1-g2 is invertible."""
    c1._check(c2)
    diff = c1.gamma - c2.gamma
    return diff.is_square() and is_invertible(diff)


# ---------------------------------------------------------------------------
# collineations stabilising W
# ---------------------------------------------------------------------------

class Collineation:
    """Action of the block matrix [[A, 0], [H, R]] w.r.t. the chart bases.

    A in Aut(W), H in Hom(U, W), R in Aut(U).  On coordinates the action
    is gamma |-> R^-1 * (gamma*A + H); on the ambient space it is the
    linear map (x, y) |-> (x*A + y*H, y*R) in split coordinates.
    """

    def __init__(self, chart: AffineChart, a: MatrixK, h: MatrixK, r: MatrixK):
        if not (a.is_square() and a.rows == chart.k and is_invertible(a)):
            raise ValueError("A must be an invertible k x k block")
        if not (r.is_square() and r.rows == chart.m and is_invertible(r)):
            raise ValueError("R must be an invertible m x m block")
        if (h.rows, h.cols) != (chart.m, chart.k):
            raise ValueError("H must be an m x k block")
        self.chart = chart
        self.a = a
        self.h = h
        self.r = r
        self._r_inv = inverse(r)

    @classmethod
    def translation(cls, chart: AffineChart, eta: MatrixK) -> "Collineation":
        ident = MatrixK.identity
        return cls(chart, ident(chart.domain, chart.k), eta,
                   ident(chart.domain, chart.m))

    def on_coord(self, c: ComplementCoord) -> ComplementCoord:
        if c.chart != self.chart:
            raise ChartMismatchError("coordinate from a different chart")
        return ComplementCoord(self.chart, self._r_inv * (c.gamma * self.a + self.h))

    def on_vector(self, v) -> Vector:
        split = self.chart.coords_split(v)
        if split is None:
            raise ValueError("vector outside the chart's space")
        x, y = split
        x2 = vec_add(apply(x, self.a), apply(y, self.h))
        y2 = apply(y, self.r)
        return self.chart.from_split(x2, y2)

    def on_subspace(self, s: Subspace) -> Subspace:
        return Subspace.from_rows(self.chart.domain, self.chart.ambient,
                                  [self.on_vector(row) for row in s.basis.entries])


# ---------------------------------------------------------------------------
# which automorphisms of U respect the scalar action
# ---------------------------------------------------------------------------

def split_scalar_central(nu: MatrixK) -> tuple[Scalar, MatrixK] | None:
    """Split an invertible matrix as (left scalar m) * (central matrix).

    Succeeds exactly when all entries lie in one left coset m*Z, i.e.
    when nu normalises the image of K^* under the lambda-embedding.  The
    returned zeta = m^-1 * nu has entries in Z and first nonzero entry 1.
    """
    if not is_invertible(nu):
        raise ValueError("the matrix must be invertible")
    lead = next(x for row in nu.entries for x in row if not x.is_zero())
    zeta = nu.scale_left(lead.inverse())
    if all(x.is_central() for row in zeta.entries for x in row):
        return lead, zeta
    return None


def charts_equal(c1: AffineChart, c2: AffineChart) -> bool:
    """Do two bases of the same U induce the same affine structure?

    True exactly when the projective Z-subspaces w.r.t. the two bases
    coincide as point sets: the base-change matrix must be a left scalar
    multiple of a matrix over the center.
    """
    if (c1.domain != c2.domain or c1.ambient != c2.ambient
            or c1.space != c2.space or c1.w != c2.w or c1.u != c2.u):
        raise ChartMismatchError("charts live on different (V, W, U)")
    rows = []
    for b_prime in c2.b:
        coords = c1.z.coords_of(b_prime)
        rows.append(coords)
    r = MatrixK(c1.domain, rows, cols=c1.m)
    return split_scalar_central(r) is not None


# ---------------------------------------------------------------------------
# homomorphisms between charts
# ---------------------------------------------------------------------------

def postcompose_w(alpha: MatrixK, c: ComplementCoord,
                  target: AffineChart) -> ComplementCoord:
    """Push a complement along a map of the W-sides: gamma |-> gamma*alpha.

    alpha is the matrix of W1 -> W2 w.r.t. the charts' W bases; both
    charts must share U and its basis.  Maps lines to lines or points
    and preserves parallelity.
    """
    source = c.chart
    if source.b != target.b or source.u != target.u:
        raise ChartMismatchError("the two charts must share U and its basis")
    if (alpha.rows, alpha.cols) != (source.k, target.k):
        raise ValueError("alpha has the wrong shape")
    return ComplementCoord(target, c.gamma * alpha)


def hat_vector_map(alpha: MatrixK, source: AffineChart, target: AffineChart):
    """The ambient linear map w + u |-> w^alpha + u behind `postcompose_w`."""
    if source.b != target.b or source.u != target.u:
        raise ChartMismatchError("the two charts must share U and its basis")

    def act(v):
        split = source.coords_split(v)
        if split is None:
            raise ValueError("vector outside the source space")
        x, y = split
        return target.from_split(apply(x, alpha), y)

    return act


def precompose_u(delta: MatrixK, c: ComplementCoord,
                 target: AffineChart) -> ComplementCoord:
    """Pull a complement back along a central map of the U-sides.

    delta is the matrix of U1 -> U2 w.r.t. the b-bases of `target` and
    `c.chart`; all its entries must be central.  The action on
    coordinates is eta |-> delta*eta, and it reverses composition.
    """
    source = c.chart
    if source.w != target.w or source.w_basis != target.w_basis:
        raise ChartMismatchError("the two charts must share W and its basis")
    if (delta.rows, delta.cols) != (target.m, source.m):
        raise ValueError("delta has the wrong shape")
    if not all(x.is_central() for row in delta.entries for x in row):
        raise ValueError("delta must be central w.r.t. the two bases")
    return ComplementCoord(target, delta * c.gamma)


class Subchart:
    """W (+) U' for a coordinate-central U' = span{b_j : j in J}.

    Carries the inclusion and projection matrices whose induced maps are
    the intersection mapping (restrict) and the join mapping (extend);
    extend . restrict is the identity on the subchart and the image of
    extend is exactly {S : C <= S} for C = span of the left-out b_i.
    """

    def __init__(self, chart: AffineChart, indices: tuple):
        if not indices or sorted(set(indices)) != list(indices):
            raise ValueError("indices must be strictly increasing and nonempty")
        if indices[-1] >= chart.m:
            raise ValueError("index out of range")
        self.parent = chart
        self.indices = indices
        dom = chart.domain
        sub_b = tuple(chart.b[j] for j in indices)
        u_prime = Subspace.from_rows(dom, chart.ambient, sub_b)
        self.complement_c = Subspace.from_rows(
            dom, chart.ambient,
            [chart.b[i] for i in range(chart.m) if i not in indices]) \
            if len(indices) < chart.m else Subspace.zero(dom, chart.ambient)
        self.chart = AffineChart(dom, chart.ambient, chart.w, u_prime,
                                 b=sub_b, w_basis=chart.w_basis,
                                 space=chart.w + u_prime)
        one, zero = dom.one(), dom.zero()
        self.iota = MatrixK(dom, [[one if i == j else zero for i in range(chart.m)]
                                  for j in indices], cols=chart.m)
        rows = []
        for i in range(chart.m):
            rows.append([one if (i in indices and indices.index(i) == jj) else zero
                         for jj in range(len(indices))])
        self.pi = MatrixK(dom, rows, cols=len(indices))

    def restrict(self, c: ComplementCoord) -> ComplementCoord:
        """Intersection mapping S |-> S intersect (W (+) U')."""
        return precompose_u(self.iota, c, self.chart)

    def extend(self, c_prime: ComplementCoord) -> ComplementCoord:
        """Join mapping S' |-> S' (+) C."""
        return precompose_u(self.pi, c_prime, self.parent)
