"""Reguli, their transversals, and the cone shape of general chart lines.

In a symmetric chart (dim W = dim U, bases identified index-by-index)
the standard regulus is {W} union the line {k*I : k in K}; every regular
chart line extended by W is a regulus, and every regulus is held here
intensionally by its (alpha, beta) pair so that membership stays exact
over infinite domains.

A transversal of a regulus is a line meeting every member in exactly one
point.  For the regulus {W} union l(alpha, beta) the transversals are
        span{ z^alpha (in W),  z^beta + z }
with z running over the nonzero Z-points of U.  Reconstruction from
these lines builds three members by the unique-line argument (the member
through a point P1 of T1 meets T2 in the T2-part of P1 in T2 (+) T3 when
T1 <= T2 (+) T3) and reads the others off the chart in which the first
two are W and U and the third is U^(gamma3, 1): the regulus is the line
{k*gamma3} extended by W.  Incidence is decided on chart coordinates,
not by meets of subspaces.

Non-regular lines decompose as cones: vertex = the maximal central
subspace of ker(alpha), base = a regulus in im(alpha) (+) U' for a
central complement U' of the kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Sampled, _listing
from .chart import AffineChart, AffineLine, ComplementCoord
from .errors import InfiniteDomainError, ReconstructionError
from .linalg import MatrixK, from_payloads, kernel, reduce_rows
from .projective import Subspace


class Regulus:
    """{W} union l(alpha, beta) with alpha invertible, in a symmetric chart."""

    def __init__(self, chart: AffineChart, alpha: MatrixK, beta: MatrixK):
        if not chart.is_symmetric:
            raise ValueError("reguli live in symmetric charts (dim W = dim U)")
        self.chart = chart
        self.line = AffineLine(chart, alpha, beta)
        if not self.line.is_regular:
            raise ValueError("the defining alpha must be invertible")

    @property
    def alpha(self) -> MatrixK:
        return self.line.alpha

    @property
    def beta(self) -> MatrixK:
        return self.line.beta

    def members(self, seed: int = 0):
        """W first, then the affine members in parameter order."""
        return _listing(self.chart.domain, (self.chart.w, *self.affine_members(seed)))

    def affine_members(self, seed: int = 0):
        pts = self.line.points(seed)
        return _listing(self.chart.domain, (p.subspace() for p in pts))

    def contains(self, s: Subspace) -> bool:
        if s == self.chart.w:
            return True
        gamma = self.chart._graph(s)
        return (gamma is not None
                and self.line.contains(ComplementCoord(self.chart, gamma)))

    def __repr__(self):
        return f"Regulus(alpha={self.alpha!r}, beta={self.beta!r})"


def standard_regulus(chart: AffineChart) -> Regulus:
    """{W} union {U^(k*I, 1) : k in K} for the identified bases."""
    dom = chart.domain
    return Regulus(chart, MatrixK.identity(dom, chart.m),
                   MatrixK.zero(dom, chart.m, chart.k))


class TransversalSet:
    """The transversals of a regulus, enumerated through the Z-points of U.

    The transversal through the Z-point with coordinates z is
    span{z*(alpha*W), z*(beta*W + B)}, W and B the chart's basis matrices;
    the two products are formed once.
    """

    def __init__(self, regulus: Regulus):
        self.regulus = regulus
        self.chart = ch = regulus.chart
        self._alpha_w = regulus.alpha * ch.w_matrix
        self._beta_w_b = regulus.beta * ch.w_matrix + ch.b_matrix

    def _generators(self, z) -> tuple:
        """The payload rows z^alpha = z*(alpha*W) and z^beta + z = z*(beta*W + B)."""
        dom, n = self.chart.domain, self.chart.ambient
        return (dom._combine(z, self._alpha_w.payload, n),
                dom._combine(z, self._beta_w_b.payload, n))

    def _line_for(self, z) -> Subspace:
        """The transversal through the payload coordinate row z."""
        return Subspace.spanned(self.chart.domain, self.chart.ambient, self._generators(z))

    def lines(self, seed: int = 0):
        return _over_z_points(self.chart, seed, self._line_for)

    def contains(self, t: Subspace) -> bool:
        """Exact membership, read off T's chart coordinates.

        The points of span{z^alpha, z^beta + z} have U-parts c*z, so the
        first nonzero U-part of T's rows names its z up to a left multiple;
        the Z-point test and the generators do not see that multiple.  T is
        that transversal when it holds both generators, which span a plane:
        z^alpha is a nonzero vector of W and z^beta + z has U-part z != 0.
        """
        ch = self.chart
        if t.dim != 2 or t.domain != ch.domain or t.ambient != ch.ambient:
            return False
        coords = [ch._split(row) for row in t.basis.payload]
        if None in coords:                   # T leaves the chart's space
            return False
        z = next((y for y in (c[ch.k:] for c in coords)
                  if any(x != ch.domain._zero for x in y)), None)
        return (z is not None and ch.z._is_z_point(z)
                and all(c is not None for c in t._coefficients(self._generators(z))))

    def __iter__(self):
        return iter(self.lines())


def transversals_of(regulus: Regulus) -> TransversalSet:
    return TransversalSet(regulus)


def w_plus_transversals(regulus: Regulus, seed: int = 0):
    """{W + T : T transversal}.  T's generator z^alpha = z*(alpha*W) lies in
    W, so W + T = W + K(z^beta + z), spanned by W and z*(beta*W + B)."""
    ch = regulus.chart
    dom, n, w = ch.domain, ch.ambient, ch.w.basis.payload
    beta_w_b = (regulus.beta * ch.w_matrix + ch.b_matrix).payload
    made = _over_z_points(ch, seed, lambda z: Subspace.spanned(
        dom, n, w + (dom._combine(z, beta_w_b, n),)))
    return made if isinstance(made, Sampled) else frozenset(made)


def w_plus_z(chart: AffineChart, seed: int = 0):
    """The family {W + Kz : z a Z-point of U}."""
    dom, n, w = chart.domain, chart.ambient, chart.w.basis.payload
    made = _over_z_points(chart, seed, lambda z: Subspace.spanned(
        dom, n, w + (dom._combine(z, chart.b_matrix.payload, n),)))
    return made if isinstance(made, Sampled) else frozenset(made)


def _over_z_points(chart: AffineChart, seed: int, f):
    """f at the payload coordinate row of every Z-point of U: a tuple over a
    finite field, else at a seeded sample of them, as a Sampled."""
    return _listing(chart.domain, (f(z) for z in chart.z._z_coords(seed)))


def regular_line_regulus(line: AffineLine) -> Regulus:
    """A regular line, extended by W, is a regulus."""
    return Regulus(line.chart, line.alpha, line.beta)


def regulus_through(c1: ComplementCoord, c2: ComplementCoord) -> Regulus:
    """The unique regulus containing W, U1, U2 whose W+transversal trace
    is W + Z(U): {W} union l(gamma2 - gamma1, gamma1).  U1 and U2 are
    complementary exactly when gamma2 - gamma1 is invertible, which
    `Regulus` checks in its one rank; it also refuses gamma1 = gamma2 and
    a chart that is not symmetric."""
    c1._check(c2)
    try:
        return Regulus(c1.chart, c2.gamma - c1.gamma, c1.gamma)
    except ValueError as exc:
        raise ValueError("the two complements must be complementary to each other") from exc


# ---------------------------------------------------------------------------
# reconstruction from the transversal set
# ---------------------------------------------------------------------------

def reconstruct_from_transversals(lines) -> tuple:
    """The members of the unique regulus with the given transversal set.

    With a companion T of each other line T_j (T1 <= T_j (+) T), the line
    through a point P of T1 meeting T_j and T hits T_j in the T_j-part of
    P: reduced on its first n columns, [T_j | T_j ; T | 0] has rows
    (v | T_j-part of v), which P's entries at the pivots combine into
    (P' | hit), and P' = P exactly when P is in T_j (+) T; the member
    X(P) is spanned by P and its hits.  Only X1, X2, X3 are spanned,
    through T1's rows[1], rows[0] and rows[0] + rows[1]: the hits of
    rows[1] and rows[0] are the right halves of their parts, taken as
    they are, and those of the sum are the entrywise sums of the two.
    The lines are accepted exactly when X1 (+) X2 is a chart in which X3
    is the graph of an invertible gamma3.  This is the full incidence
    check.  Over the W-basis gamma3*W, X3 = U^(I, 1):
    each line holds points (x, 0), (0, y), (z, z) of X1, X2, X3, so it is
    span{(z, 0), (0, z)}, a transversal of the standard regulus
    {W} u {U^(kI, 1)}; the points (kz, z) on T1, T_j and its companion
    are collinear, so X(P) is the member through P.  Conversely, if the
    X(P) are pairwise complementary, meet every line once and are spanned
    by these points, any two span the sum of the lines, so X3 is a
    complement of X1 and of X2.  Order: rows[1] = (x, 0), rows[0] =
    (0, y), and rows[0] + rows[1] in X3 = graph(I) force x = y, so
    rows[0] + c*rows[1] = (cy, y) lies on U^(cI, 1).  That member is
    spanned by the rows b_i + (c*gamma3*W)_i, so it is U^(c*gamma3, 1) of
    the chart itself, and no second chart is built: the regulus is
    {W} u l(gamma3, 0), listed as W = X1 and then these, c in element
    order.  At c = 0 the member is U = X2 and at c = 1 it is X3, the
    graph of gamma3, so the chart builds only the other q - 2.  Failures
    raise ReconstructionError.
    """
    lines = tuple(lines)
    if len(lines) < 3:
        raise ReconstructionError("need at least three transversals")
    domain = lines[0].domain
    if not domain.is_finite:
        raise InfiniteDomainError("reconstruction enumerates points; finite only")
    ambient = lines[0].ambient
    if any(t.dim != 2 or t.ambient != ambient for t in lines):
        raise ReconstructionError("transversals must be 2-dimensional subspaces")
    for t in lines[1:]:
        lines[0]._check(t)
    if any(len(reduce_rows(domain, [list(r) for r in a.basis.payload + b.basis.payload],
                           ambient)) != 4 for a, b in itertools.combinations(lines, 2)):
        raise ReconstructionError("transversals of a regulus are pairwise skew")

    t1 = lines[0].basis.payload
    zero = domain._zero
    x1_rows, x2_rows = [t1[1]], [t1[0]]     # T1's rows and their hits
    for tj in lines[1:]:
        for t in lines[1:]:
            if t is tj:
                continue
            rows = ([[*r, *r] for r in tj.basis.payload]
                    + [[*r, *[zero] * ambient] for r in t.basis.payload])
            pivots = reduce_rows(domain, rows, ambient)
            parts = [domain._combine([p[c] for c in pivots], rows, 2 * ambient)
                     for p in t1]
            if all(part[:ambient] == list(p) for part, p in zip(parts, t1)):
                x2_rows.append(parts[0][ambient:])
                x1_rows.append(parts[1][ambient:])
                break
        else:
            raise ReconstructionError("no companion transversal inside a common 3-space")

    add = domain._add
    x3_rows = [[add(x, y) for x, y in zip(a, b)] for a, b in zip(x2_rows, x1_rows)]
    x1, x2, x3 = (Subspace.spanned(domain, ambient, rows)
                  for rows in (x1_rows, x2_rows, x3_rows))
    try:
        chart = AffineChart(domain, ambient, x1, x2, space=x1 + x2)
        gamma3 = chart.coordinate_of(x3).gamma
        line = Regulus(chart, gamma3, MatrixK.zero(domain, chart.m, chart.k)).line
    except ValueError as exc:
        raise ReconstructionError(
            f"the lines are not the transversals of one regulus: {exc}") from exc
    one = domain._one
    return (x1, *(x2 if c == zero else x3 if c == one else chart.complement(line._point(c))
                  for c in domain._payloads()))


# ---------------------------------------------------------------------------
# perspectivities
# ---------------------------------------------------------------------------

def perspectivity(regulus: Regulus, source: Subspace, target: Subspace,
                  center: Subspace):
    """P |-> (P (+) center) intersect target for three distinct regulus
    members.  The image is a point, as members are pairwise complementary:
    dim((P + C) intersect T) = (1 + m) + m - 2m = 1."""
    if len({source, target, center}) != 3:
        raise ValueError("the three members must be pairwise distinct")
    if not all(regulus.contains(x) for x in (source, target, center)):
        raise ValueError("all three subspaces must belong to the regulus")

    def image(p: Subspace) -> Subspace:
        if p.dim != 1 or not source.contains(p):
            raise ValueError("expected a point of the source member")
        return (p + center) & target

    return image


# ---------------------------------------------------------------------------
# images of the standard transversals under hat(alpha)
# ---------------------------------------------------------------------------

def line_transversal_image(line: AffineLine, seed: int = 0):
    """For each Z-point z: the image K z^alpha + K z, tagged point or line.

    Requires beta = 0 (translate the line first otherwise).  The image
    is a point exactly when z lies in ker(alpha); otherwise it is a
    transversal of the line.
    """
    if not line.beta.is_zero():
        raise ValueError("reduce to beta = 0 by a translation first")
    ch = line.chart
    dom, n = ch.domain, ch.ambient
    alpha_w = line.alpha * ch.w_matrix

    def image(z):
        image_w = dom._combine(z, alpha_w.payload, n)
        point = dom._combine(z, ch.b_matrix.payload, n)
        if all(x == dom._zero for x in image_w):
            return ("point", Subspace.spanned(dom, n, [point]))
        return ("line", Subspace.spanned(dom, n, [image_w, point]))

    return _over_z_points(ch, seed, image)


# ---------------------------------------------------------------------------
# cone decomposition of an arbitrary line through U
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeDecomposition:
    vertex: Subspace          # maximal central subspace of ker(alpha)
    kernel: Subspace          # ker(alpha) itself, inside U
    u_prime: Subspace         # central complement of the kernel
    base: Regulus             # regulus in im(alpha) (+) U', in its own chart
    exact: bool               # vertex == kernel


def cone_decompose(line: AffineLine) -> ConeDecomposition:
    """Vertex, base regulus and exactness of the cone shape of l(alpha, 0).

    U' & ker(alpha) = 0 and dim U' = m - dim ker(alpha) = rank(alpha), so
    alpha maps U' onto im(alpha) and the restricted alpha' is invertible.
    """
    if not line.beta.is_zero():
        raise ValueError("reduce to beta = 0 by a translation first")
    ch = line.chart
    dom, n, b_rows = ch.domain, ch.ambient, ch.b_matrix.payload
    alpha_w = line.alpha * ch.w_matrix
    ker_amb = Subspace.spanned(dom, n, (kernel(line.alpha) * ch.b_matrix).payload)
    vertex = ch.z.maximal_central_subspace(ker_amb)
    u_prime = ch.z.central_complement(ker_amb)
    # the base chart's basis is the b_j in U' themselves, not an echelon basis
    chosen = [j for j, c in enumerate(u_prime._coefficients(b_rows)) if c is not None]
    u_prime_basis = from_payloads(dom, [b_rows[j] for j in chosen], n)
    im_amb = Subspace.spanned(dom, n, alpha_w.payload)
    base_chart = AffineChart(dom, n, im_amb, u_prime,
                             b=u_prime_basis, space=im_amb + u_prime)
    # b_j maps to row j of alpha*W; alpha' holds its coefficients over the
    # echelon basis of im(alpha), which the base chart uses as its W-basis
    r = im_amb.dim
    alpha_prime = from_payloads(dom, im_amb._coefficients(
        [alpha_w.payload[j] for j in chosen]), r)
    base = Regulus(base_chart, alpha_prime, MatrixK.zero(dom, r, r))
    return ConeDecomposition(vertex, ker_amb, u_prime, base, vertex == ker_amb)
