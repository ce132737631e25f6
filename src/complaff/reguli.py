"""Reguli, their transversals, and the cone shape of general chart lines.

In a symmetric chart (dim W = dim U, bases identified index-by-index)
the standard regulus is {W} union the line {k*I : k in K}; every regular
chart line extended by W is a regulus, and every regulus is held here
intensionally by its (alpha, beta) pair so that membership stays exact
over infinite domains.

A transversal of a regulus is a line meeting every member in exactly one
point.  For the regulus {W} union l(alpha, beta) the transversals are
        span{ z^alpha (in W),  z^beta + z }
with z running over the nonzero Z-points of U; reconstructing the
regulus from these lines follows the unique-line argument: the member
through a point P1 of one transversal meets every other transversal T2
on the line (P1 + T2) intersect (P1 + T3), where T1 <= T2 + T3.

Non-regular lines decompose as cones: vertex = the maximal central
subspace of ker(alpha), base = a regulus in im(alpha) (+) U' for a
central complement U' of the kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Sampled, scalars
from .chart import (
    AffineChart,
    AffineLine,
    ComplementCoord,
    are_complementary,
    line_through,
)
from .errors import InfiniteDomainError, ReconstructionError
from .linalg import (
    MatrixK,
    apply,
    inverse,
    is_invertible,
    kernel,
    row_space,
    solve,
    vec_add,
)
from .projective import Subspace


class Regulus:
    """{W} union l(alpha, beta) with alpha invertible, in a symmetric chart."""

    def __init__(self, chart: AffineChart, alpha: MatrixK, beta: MatrixK):
        if not chart.is_symmetric:
            raise ValueError("reguli live in symmetric charts (dim W = dim U)")
        if not (alpha.is_square() and is_invertible(alpha)):
            raise ValueError("the defining alpha must be invertible")
        self.chart = chart
        self.line = AffineLine(chart, alpha, beta)

    @property
    def alpha(self) -> MatrixK:
        return self.line.alpha

    @property
    def beta(self) -> MatrixK:
        return self.line.beta

    def members(self, seed: int = 0):
        """W first, then the affine members in parameter order."""
        rest = self.affine_members(seed)
        members = (self.chart.w,) + rest
        return Sampled(members) if isinstance(rest, Sampled) else members

    def affine_members(self, seed: int = 0):
        pts = self.line.points(seed)
        if isinstance(pts, Sampled):
            return Sampled(p.subspace() for p in pts)
        return tuple(p.subspace() for p in pts)

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
    """The transversals of a regulus, enumerated through the Z-points of U."""

    def __init__(self, regulus: Regulus):
        self.regulus = regulus
        self.chart = regulus.chart

    def _line_for(self, z_coords) -> Subspace:
        ch = self.chart
        w_part = apply(z_coords, self.regulus.alpha)
        v1 = apply(w_part, ch.w_matrix)
        v2 = vec_add(apply(apply(z_coords, self.regulus.beta), ch.w_matrix),
                     apply(z_coords, ch.b_matrix))
        return Subspace.from_rows(ch.domain, ch.ambient, [v1, v2])

    def lines(self, seed: int = 0):
        return _over_z_points(self.chart, seed,
                              lambda z: self._line_for(self.chart.z.coords_of(z)))

    def contains(self, t: Subspace) -> bool:
        """Exact membership: recover z from T's trace on W and compare."""
        ch = self.chart
        if t.dim != 2 or t.domain != ch.domain or t.ambient != ch.ambient:
            return False
        trace_w = t & ch.w
        if trace_w.dim != 1:
            return False
        w_coords = solve(ch.w_matrix, trace_w.basis.entries[0])
        if w_coords is None:
            return False
        alpha_inv = inverse(self.regulus.alpha)
        z_coords = apply(w_coords, alpha_inv)
        if not ch.z.point_in_projective_z(apply(z_coords, ch.b_matrix)):
            return False
        return self._line_for(z_coords) == t

    def __iter__(self):
        return iter(self.lines())


def transversals_of(regulus: Regulus) -> TransversalSet:
    return TransversalSet(regulus)


def w_plus_transversals(regulus: Regulus, seed: int = 0):
    """The hyperplane family {W + T : T transversal}."""
    ts = transversals_of(regulus).lines(seed)
    made = [regulus.chart.w + t for t in ts]
    return Sampled(made) if isinstance(ts, Sampled) else frozenset(made)


def w_plus_z(chart: AffineChart, seed: int = 0):
    """The family {W + Kz : z a Z-point of U}."""
    made = _over_z_points(chart, seed, lambda z: chart.w + Subspace.from_rows(
        chart.domain, chart.ambient, [z]))
    return made if isinstance(made, Sampled) else frozenset(made)


def _over_z_points(chart: AffineChart, seed: int, f):
    """f at every Z-point of U: a tuple over a finite field, else at a
    seeded sample of them, as a Sampled."""
    if chart.domain.is_finite:
        return tuple(f(z) for z in chart.z.z_point_reps())
    return Sampled(f(z) for z in chart.z.z_point_samples(seed))


def regular_line_regulus(line: AffineLine) -> Regulus:
    """A regular line, extended by W, is a regulus."""
    if not line.is_regular:
        raise ValueError("the line is not regular")
    return Regulus(line.chart, line.alpha, line.beta)


def regulus_through(c1: ComplementCoord, c2: ComplementCoord) -> Regulus:
    """The unique regulus containing W, U1, U2 whose W+transversal trace
    is W + Z(U)."""
    if not are_complementary(c1, c2):
        raise ValueError("the two complements must be complementary to each other")
    return regular_line_regulus(line_through(c1, c2))


# ---------------------------------------------------------------------------
# reconstruction from the transversal set
# ---------------------------------------------------------------------------

def _points_of_plane_line(t: Subspace):
    """The 1-dim subspaces of a 2-dim subspace over a finite field."""
    domain = t.domain
    r1, r2 = t.basis.entries
    reps = [r2]
    for c in scalars(domain):
        reps.append(vec_add(r1, tuple(c * x for x in r2)))
    return [Subspace.from_rows(domain, t.ambient, [v]) for v in reps]


def reconstruct_from_transversals(lines) -> tuple:
    """The unique regulus with the given transversal set, as member subspaces.

    Follows the constructive uniqueness argument: fix T1 and a point P1
    on it; for every other transversal T2 pick some T3 with T1 <= T2+T3;
    the member through P1 meets T2 on (P1+T2) & (P1+T3).  The assembled
    candidates are then verified against the full incidence and
    collinearity conditions; any failure raises ReconstructionError.
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
    for t1, t2 in itertools.combinations(lines, 2):
        if (t1 & t2).dim != 0:
            raise ReconstructionError("transversals of a regulus are pairwise skew")

    t1 = lines[0]
    members = []
    for p1 in _points_of_plane_line(t1):
        pieces = [p1]
        for tj in lines[1:]:
            t3 = next((t for t in lines
                       if t is not tj and t is not t1 and (tj + t).contains(t1)),
                      None)
            if t3 is None:
                raise ReconstructionError(
                    "no companion transversal inside a common 3-space")
            ell = (p1 + tj) & (p1 + t3)
            hit = ell & tj
            if hit.dim != 1:
                raise ReconstructionError("no unique line through the point "
                                          "meeting both transversals")
            pieces.append(hit)
        member = pieces[0]
        for piece in pieces[1:]:
            member = member + piece
        members.append(member)

    _verify_regulus_against(members, lines)
    return tuple(members)


def _verify_regulus_against(members, lines):
    traces = {}
    for x in members:
        for t in lines:
            hit = t & x
            if hit.dim != 1:
                raise ReconstructionError("a transversal misses a candidate member")
            traces[(id(x), id(t))] = hit
        spanned = None
        for t in lines:
            hit = traces[(id(x), id(t))]
            spanned = hit if spanned is None else spanned + hit
        if spanned != x:
            raise ReconstructionError("a member is not spanned by its trace")
    for ta, tb, tc in itertools.combinations(lines, 3):
        for one, two, three in ((ta, tb, tc), (tb, ta, tc), (tc, ta, tb)):
            if (two + three).contains(one):
                for x in members:
                    stacked = (traces[(id(x), id(one))]
                               + traces[(id(x), id(two))]
                               + traces[(id(x), id(three))])
                    if stacked.dim > 2:
                        raise ReconstructionError("collinearity condition fails")
    for xa, xb in itertools.combinations(members, 2):
        if (xa & xb).dim != 0 or xa.dim + xb.dim != (xa + xb).dim:
            raise ReconstructionError("members are not pairwise complementary")


# ---------------------------------------------------------------------------
# perspectivities
# ---------------------------------------------------------------------------

class Perspectivity:
    """P |-> (P (+) center) intersect target, between two regulus members."""

    def __init__(self, regulus: Regulus, source: Subspace, target: Subspace,
                 center: Subspace):
        trio = (source, target, center)
        if len({source, target, center}) != 3:
            raise ValueError("the three members must be pairwise distinct")
        if not all(regulus.contains(x) for x in trio):
            raise ValueError("all three subspaces must belong to the regulus")
        self.source = source
        self.target = target
        self.center = center

    def __call__(self, p: Subspace) -> Subspace:
        if p.dim != 1 or not self.source.contains(p):
            raise ValueError("expected a point of the source member")
        image = (p + self.center) & self.target
        if image.dim != 1:
            raise RuntimeError("perspectivity image is not a point")
        return image


def perspectivity(regulus: Regulus, source: Subspace, target: Subspace,
                  center: Subspace) -> Perspectivity:
    return Perspectivity(regulus, source, target, center)


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

    def image(z):
        image_w = apply(apply(ch.z.coords_of(z), line.alpha), ch.w_matrix)
        if all(x.is_zero() for x in image_w):
            return ("point", Subspace.from_rows(ch.domain, ch.ambient, [z]))
        return ("line", Subspace.from_rows(ch.domain, ch.ambient, [image_w, z]))

    return _over_z_points(ch, seed, image)


# ---------------------------------------------------------------------------
# cone decomposition of an arbitrary line through U
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeDecomposition:
    vertex: Subspace          # maximal central subspace of ker(alpha)
    kernel: Subspace          # ker(alpha) itself, inside U
    u_prime: Subspace         # central complement of the kernel
    base: Regulus             # regulus in im(alpha) (+) U'
    base_chart: AffineChart
    exact: bool               # vertex == kernel


def cone_decompose(line: AffineLine) -> ConeDecomposition:
    """Vertex, base regulus and exactness of the cone shape of l(alpha, 0)."""
    if not line.beta.is_zero():
        raise ValueError("reduce to beta = 0 by a translation first")
    ch = line.chart
    dom = ch.domain
    alpha = line.alpha

    ker_coords = kernel(alpha)
    ker_rows = [apply(y, ch.b_matrix) for y in ker_coords.entries]
    ker_amb = (Subspace.from_rows(dom, ch.ambient, ker_rows)
               if ker_rows else Subspace.zero(dom, ch.ambient))
    vertex = ch.z.maximal_central_subspace(ker_amb)
    u_prime = ch.z.central_complement(ker_amb)
    # the base chart's basis is the chosen b_j themselves, not an echelon basis
    u_prime_vectors = tuple(b for b in ch.b if u_prime.contains_vector(b))

    im_rows = row_space(alpha)
    im_amb = Subspace.from_rows(dom, ch.ambient,
                                [apply(r, ch.w_matrix) for r in im_rows.entries])
    r = im_amb.dim
    if u_prime.dim != r:
        raise RuntimeError("central complement of the kernel has the wrong dimension")

    base_chart = AffineChart(dom, ch.ambient, im_amb, u_prime,
                             b=u_prime_vectors, space=im_amb + u_prime)
    alpha_rows = []
    for b_vec in u_prime_vectors:
        image = apply(apply(ch.z.coords_of(b_vec), alpha), ch.w_matrix)
        alpha_rows.append(solve(im_amb.basis, image))
    alpha_prime = MatrixK(dom, alpha_rows, cols=r)
    if not is_invertible(alpha_prime):
        raise RuntimeError("restricted alpha is not invertible")
    base = Regulus(base_chart, alpha_prime, MatrixK.zero(dom, r, r))

    exact = vertex == ker_amb
    if exact and dom.is_finite:
        cone_points = {x + ker_amb for x in base.affine_members()}
        line_points = {p.subspace() for p in line.points()}
        if cone_points != line_points:
            raise RuntimeError("cone points differ from the line's points")
    return ConeDecomposition(vertex, ker_amb, u_prime, base, base_chart, exact)
