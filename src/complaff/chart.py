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

import functools
import itertools

from .algebra import Scalar, ScalarDomain, _bound, _listing
from .errors import ChartMismatchError, DomainMismatchError, InfiniteDomainError
from .linalg import (
    MatrixK,
    _augmented,
    Vector,
    apply,
    boxed,
    from_payloads,
    is_invertible,
    payload_of,
    payload_row,
    reduce_rows,
    row_space,
    rref,
    stack,
)
from .projective import Subspace, ZStructure, standard_complement_rows


def _basis_matrix(domain: ScalarDomain, rows, span: Subspace, message: str):
    """Checked basis rows of `span` as a MatrixK; by default span.basis."""
    if rows is None:
        return span.basis
    m = rows if isinstance(rows, MatrixK) else MatrixK(domain, rows, cols=span.ambient)
    if m.rows != span.dim or Subspace.spanned(domain, span.ambient, m.payload) != span:
        raise ValueError(message)
    return m


class AffineChart:
    """V = W (+) U with chosen bases; coordinatizes the complements of W.

    Construction checks V = W (+) U for a given U with one plain
    reduction of [W-basis; b].  Without one, U is spanned by the unit
    vectors off W's pivot columns, an echelon basis of a complement of W
    in K^n, so the chart takes it as it is and checks nothing.  The
    coordinate echelon (`_split`, an `rref` with its transform) and the
    Z-structure (`z`) are built on first use, so a chart that never reads
    chart coordinates, such as every chart of a dual-spread command, makes
    no `rref`.
    """

    def __init__(self, domain: ScalarDomain, ambient: int, w: Subspace,
                 u: Subspace | None = None, b=None, w_basis=None,
                 space: Subspace | None = None):
        self.domain = domain
        self.ambient = ambient
        self.space = space if space is not None else Subspace.full(domain, ambient)
        self.w = w
        derived = u is None
        if derived:
            if self.space.dim != ambient:
                raise ValueError("an explicit U is required inside a proper subspace")
            # unit rows off W's pivots: an echelon basis, and V = W (+) U
            u = Subspace(domain, ambient, from_payloads(
                domain, standard_complement_rows(w), ambient))
        self.u = u
        self.k = w.dim
        self.m = u.dim
        if self.k == 0 or self.m == 0:
            raise ValueError("trivial charts (W = 0 or W = V) are excluded")
        self.w_matrix = _basis_matrix(domain, w_basis, w, "w_basis does not span W")
        self.b_matrix = _basis_matrix(domain, b, u, "b is not a basis of U")
        self._t = stack(domain, [self.w_matrix, self.b_matrix], cols=ambient)
        if not derived:
            # V = W (+) U: [W-basis; b] has rank k + m and the space's echelon rows
            echelon = row_space(self._t)
            if echelon.rows != self.k + self.m or echelon.payload != self.space.basis.payload:
                raise ValueError("V = W (+) U fails for the given data")

    @functools.cached_property
    def _split(self):
        """payload row -> its payload coordinates [x | y] over the rows of
        [W-basis; b], or None outside the space; the `rref` behind it is
        built on first use."""
        return rref(self._t).coordinates

    @functools.cached_property
    def z(self) -> ZStructure:
        """The Z-structure of b, built on first use (b is independent)."""
        return ZStructure(self.domain, self.b_matrix)

    @property
    def w_basis(self) -> tuple:
        return self.w_matrix.entries

    @property
    def b(self) -> tuple:
        return self.b_matrix.entries

    @property
    def is_symmetric(self) -> bool:
        return self.k == self.m

    def __eq__(self, other):
        return other is self or (
            isinstance(other, AffineChart) and other.domain == self.domain
            and other.ambient == self.ambient and other.space == self.space
            and other.w == self.w and other.u == self.u
            and other.w_matrix == self.w_matrix and other.b_matrix == self.b_matrix)

    def __hash__(self):
        return hash((self.ambient, self.w, self.u, self.w_matrix, self.b_matrix))

    def __repr__(self):
        return (f"AffineChart({self.domain!r}, V^{self.space.dim} in K^{self.ambient}, "
                f"dim W = {self.k}, dim U = {self.m})")

    # -- coordinates ----------------------------------------------------------

    def _through(self, v, image: MatrixK) -> list:
        """The payload row v, written in chart coordinates, times `image`."""
        full = self._split(v)
        if full is None:
            raise ValueError("vector outside the chart's space")
        return self.domain._combine(full, image.payload, image.cols)

    def coords_split(self, v) -> tuple[Vector, Vector] | None:
        """(W-part, U-part) of v in the chart bases; None outside the space."""
        full = self._split(payload_row(self.domain, v))
        if full is None:
            return None
        full = boxed(self.domain, full)
        return full[:self.k], full[self.k:]

    def from_split(self, x, y) -> Vector:
        if len(x) != self.k or len(y) != self.m:
            raise ValueError(f"expected {self.k} W- and {self.m} U-coordinates")
        return apply((*x, *y), self._t)

    def coord(self, rows) -> "ComplementCoord":
        return ComplementCoord(self, MatrixK(self.domain, rows, cols=self.k))

    def zero_coord(self) -> "ComplementCoord":
        return ComplementCoord(self, MatrixK.zero(self.domain, self.m, self.k))

    def complement(self, c: "ComplementCoord | MatrixK") -> Subspace:
        """The complement U^(gamma,1): spanned by the rows b_i^gamma + b_i,
        row i one combination of the rows (W-basis, b_i) with the
        coefficients (gamma_i, 1)."""
        g = c.gamma if isinstance(c, ComplementCoord) else c
        if g.domain != self.domain:
            raise DomainMismatchError(f"gamma over {g.domain} in {self.domain}")
        if (g.rows, g.cols) != (self.m, self.k):
            raise ValueError(f"gamma must be {self.m}x{self.k}")
        domain, n, one = self.domain, self.ambient, self.domain._one
        w = self.w_matrix.payload
        rows = [domain._combine((*coeffs, one), (*w, b), n)
                for coeffs, b in zip(g.payload, self.b_matrix.payload)]
        reduce_rows(domain, rows, n)         # independent rows: none drops out
        return Subspace(domain, n, from_payloads(domain, rows, n))

    def _graph(self, s: Subspace) -> MatrixK | None:
        """The gamma whose complement is S, or None when S is no complement
        of W in the chart's space."""
        if s.dim != self.m:
            return None
        self.w._check(s)
        rows = [self._split(v) for v in s.basis.payload]
        return None if None in rows else self._gamma_of(rows)

    def _gamma_of(self, rows) -> MatrixK | None:
        """The gamma of the span of m payload rows [X | Y] in chart
        coordinates, or None when the span meets W.  It meets W exactly
        when Y is singular; otherwise reducing [Y | X] on its first m
        columns leaves [I | Y^-1 X], so gamma = Y^-1 X."""
        k, m = self.k, self.m
        rows = [[*r[k:], *r[:k]] for r in rows]
        if len(reduce_rows(self.domain, rows, m)) != m:
            return None
        return from_payloads(self.domain, [r[m:] for r in rows], k)

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
        elems, q, k, mk = self.domain._payloads(), self.domain.order, self.k, self.m * self.k
        _bound(q ** mk, f"{q}^{mk} complements")
        return tuple(self.coord([combo[i * k:(i + 1) * k] for i in range(self.m)])
                     for combo in itertools.product(elems, repeat=mk))


def symmetric_chart(domain: ScalarDomain, m: int) -> AffineChart:
    """The model V = U x U on K^(2m): W spanned by the first m unit vectors."""
    units = MatrixK.identity(domain, 2 * m).payload
    return AffineChart(domain, 2 * m, Subspace.spanned(domain, 2 * m, units[:m]))


class ComplementCoord:
    """A complement of W, named by its gamma matrix in a fixed chart."""

    __slots__ = ("chart", "gamma")

    def __init__(self, chart: AffineChart, gamma: MatrixK):
        if gamma.domain is not chart.domain and gamma.domain != chart.domain:
            raise DomainMismatchError(f"gamma over {gamma.domain} in {chart.domain}")
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
        return self._point(payload_of(self.chart.domain, k))

    def _point(self, k) -> ComplementCoord:
        """The point at the canonical payload k, taken on trust."""
        dom, width = self.chart.domain, self.chart.k
        terms = (k, dom._one)
        return ComplementCoord(self.chart, from_payloads(
            dom, [dom._combine(terms, pair, width)
                  for pair in zip(self.alpha.payload, self.beta.payload)], width))

    def points(self, seed: int = 0):
        """Every point, walked by the canonical payloads of ``_sample``; a
        seeded Sampled if infinite."""
        dom = self.chart.domain
        if dom.is_finite:
            _bound(dom.order, f"the {dom.order} points of a line over {dom}")
        return _listing(dom, map(self._point, dom._sample(seed)))

    def parameter_of(self, c: ComplementCoord) -> Scalar | None:
        """The k with c = k*alpha + beta, or None when c is off the line."""
        if c.chart != self.chart:
            raise ChartMismatchError("coordinate from a different chart")
        dom = self.chart.domain
        diff = c.gamma - self.beta
        x, y = next((x, y) for ra, rd in zip(self.alpha.payload, diff.payload)
                    for x, y in zip(ra, rd) if x != dom._zero)
        k = Scalar(dom, dom._mul(y, dom._inv(x)))
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
    return is_invertible(c1.gamma - c2.gamma)


# ---------------------------------------------------------------------------
# collineations stabilising W
# ---------------------------------------------------------------------------

def _lower_block(a: MatrixK, h: MatrixK, r: MatrixK) -> MatrixK:
    """The block matrix [[A, 0], [H, R]]."""
    zeros = (a.domain._zero,) * r.cols
    rows = [row + zeros for row in a.payload] + [
        x + y for x, y in zip(h.payload, r.payload)]
    return from_payloads(a.domain, rows, a.cols + r.cols)


class Collineation:
    """Action of the block matrix [[A, 0], [H, R]] w.r.t. the chart bases.

    A in Aut(W), H in Hom(U, W), R in Aut(U).  On the ambient space it is
    the linear map (x, y) |-> (x*A + y*H, y*R) in split coordinates.  The
    complement of gamma has the chart coordinate rows [gamma | I], which
    the block sends to [gamma*A + H | R]: on coordinates the action is
    gamma |-> R^-1 * (gamma*A + H).
    """

    def __init__(self, chart: AffineChart, a: MatrixK, h: MatrixK, r: MatrixK):
        if not (a.is_square() and a.rows == chart.k and is_invertible(a)):
            raise ValueError("A must be an invertible k x k block")
        if not (r.is_square() and r.rows == chart.m and is_invertible(r)):
            raise ValueError("R must be an invertible m x m block")
        if (h.rows, h.cols) != (chart.m, chart.k):
            raise ValueError("H must be an m x k block")
        self.chart = chart
        self.block = _lower_block(a, h, r)
        self._image = self.block * chart._t      # chart coordinates -> K^n

    @classmethod
    def translation(cls, chart: AffineChart, eta: MatrixK) -> "Collineation":
        ident = MatrixK.identity
        return cls(chart, ident(chart.domain, chart.k), eta,
                   ident(chart.domain, chart.m))

    def on_coord(self, c: ComplementCoord) -> ComplementCoord:
        if c.chart != self.chart:
            raise ChartMismatchError("coordinate from a different chart")
        ch = self.chart
        image = from_payloads(ch.domain, _augmented(c.gamma), ch.k + ch.m) * self.block
        return ComplementCoord(ch, ch._gamma_of(image.payload))

    def on_vector(self, v) -> Vector:
        ch = self.chart
        return boxed(ch.domain, ch._through(payload_row(ch.domain, v), self._image))

    def on_subspace(self, s: Subspace) -> Subspace:
        ch = self.chart
        return Subspace.spanned(ch.domain, ch.ambient, [
            ch._through(row, self._image) for row in s.basis.payload])


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
    dom = nu.domain
    lead = next(x for row in nu.payload for x in row if x != dom._zero)
    zeta = nu.scale_left(Scalar(dom, dom._inv(lead)))
    if all(dom._is_central(x) for row in zeta.payload for x in row):
        return Scalar(dom, lead), zeta
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
    # c2's basis lies in U = span(c1.b), so every row has coordinates
    rows = [c1.z._coords(b) for b in c2.b_matrix.payload]
    return split_scalar_central(from_payloads(c1.domain, rows, c1.m)) is not None


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
    _check_shared_u(alpha, source, target)
    return ComplementCoord(target, c.gamma * alpha)


def hat_vector_map(alpha: MatrixK, source: AffineChart, target: AffineChart):
    """The ambient linear map w + u |-> w^alpha + u behind `postcompose_w`."""
    _check_shared_u(alpha, source, target)
    dom = source.domain
    image = _lower_block(alpha, MatrixK.zero(dom, source.m, target.k),
                         MatrixK.identity(dom, source.m)) * target._t
    return lambda v: boxed(dom, source._through(payload_row(dom, v), image))


def _check_shared_u(alpha: MatrixK, source: AffineChart, target: AffineChart):
    if source.b_matrix != target.b_matrix or source.u != target.u:
        raise ChartMismatchError("the two charts must share U and its basis")
    if (alpha.rows, alpha.cols) != (source.k, target.k):
        raise ValueError("alpha has the wrong shape")


def precompose_u(delta: MatrixK, c: ComplementCoord,
                 target: AffineChart) -> ComplementCoord:
    """Pull a complement back along a central map of the U-sides.

    delta is the matrix of U1 -> U2 w.r.t. the b-bases of `target` and
    `c.chart`; all its entries must be central.  The action on
    coordinates is eta |-> delta*eta, and it reverses composition.
    """
    source = c.chart
    if source.w != target.w or source.w_matrix != target.w_matrix:
        raise ChartMismatchError("the two charts must share W and its basis")
    if (delta.rows, delta.cols) != (target.m, source.m):
        raise ValueError("delta has the wrong shape")
    if not all(map(delta.domain._is_central, itertools.chain(*delta.payload))):
        raise ValueError("delta must be central w.r.t. the two bases")
    return ComplementCoord(target, delta * c.gamma)


class Subchart:
    """W (+) U' for a coordinate-central U' = span{b_j : j in J}.

    Carries the inclusion and projection matrices whose induced maps are
    the intersection mapping (restrict) and the join mapping (extend);
    extend . restrict is the identity on the subchart and the image of
    extend is exactly {S : C <= S} for C = span of the left-out b_i.
    """

    def __init__(self, chart: AffineChart, indices):
        indices = tuple(indices)
        if not indices or sorted(set(indices)) != list(indices):
            raise ValueError("indices must be strictly increasing and nonempty")
        if indices[-1] >= chart.m:
            raise ValueError("index out of range")
        self.parent = chart
        self.indices = indices
        dom, n, rows = chart.domain, chart.ambient, chart.b_matrix.payload
        sub_b = from_payloads(dom, [rows[j] for j in indices], n)
        u_prime = Subspace.spanned(dom, n, sub_b.payload)
        self.complement_c = Subspace.spanned(dom, n, [
            b for i, b in enumerate(rows) if i not in indices])
        self.chart = AffineChart(dom, n, chart.w, u_prime, b=sub_b,
                                 w_basis=chart.w_matrix, space=chart.w + u_prime)
        ident = MatrixK.identity(dom, chart.m).payload
        self.iota = from_payloads(dom, [ident[j] for j in indices], chart.m)
        self.pi = from_payloads(dom, [[row[j] for j in indices] for row in ident],
                                len(indices))

    def restrict(self, c: ComplementCoord) -> ComplementCoord:
        """Intersection mapping S |-> S intersect (W (+) U')."""
        return precompose_u(self.iota, c, self.chart)

    def extend(self, c_prime: ComplementCoord) -> ComplementCoord:
        """Join mapping S' |-> S' (+) C."""
        return precompose_u(self.pi, c_prime, self.parent)
