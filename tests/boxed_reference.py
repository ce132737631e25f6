"""Reference linear algebra on boxed Scalars, for the oracle tests.

Every operation here goes through Scalar arithmetic, one boxed operation
at a time: Gauss-Jordan elimination keeps the reduced rows and the
transform as two separate lists of Scalars.  It is slow and plainly
correct, and it shares no code with the payload routines in
complaff.linalg beyond the MatrixK container.  The subspace operations
follow the textbook route: the meet from the kernel of the stacked bases,
the join as the row space of the stacked bases, membership by
reconstruction from the pivot entries.  The chart coordinate of a
subspace follows the lattice route as well.

``QuaternionAlgebra(a, b)`` is the quaternion algebra (a, b)_Q on four
``Fraction`` components (x0, x1, x2, x3) = x0 + x1*i + x2*j + x3*k, with
only the payload hooks the geometry reads.  It is independent of the
integer payloads that complaff.algebra.Quaternions works on: (-1, -1) is
the ``Fraction`` reference for their arithmetic, and (-1, -3) is a second
skew field for the geometry.

The geometry references at the end (maximal central subspace, central
complement, transversal membership, cone decomposition) are the boxed
library versions these replaced: one Scalar vector at a time, through
coordinates and back, with the quaternion Z-system solved over
``Rationals`` on the ``Fraction`` view.  They take and return echelon
bases as MatrixK.  ``ref_reconstruct_from_transversals`` is the former
reconstruction on the Subspace lattice: every member built by joins and
meets, then every trace, span, collinear triple and pair re-checked.

``ref_singular_set`` is the former singular-set route: H = X & W by the
lattice meet, its rows split in the chart.

The dual-spread references are the former library checks: DS1 as a rank
test of every difference gamma_i - gamma_j in ``combinations`` order, and
DS2 as the scan that builds every hyperplane without W as the kernel of
its form and asks ``Subspace.contains`` of every member.
``ref_is_dual_spread`` and ``ref_verify_family`` put them together with
the library's verdicts and messages.

The JSON references at the end are the former decoders, one row and one
member at a time: ``ref_vector_from_json`` dispatches on the domain and
checks the types of each row on its own, and the matrix, subspace,
spread and family references call it row by row, wrapping the shape
checks of every member.  They return what the library decoders return
and raise ``ConfigError`` with the same text, fault by fault.
"""

import itertools
import random
from fractions import Fraction

from complaff.algebra import ExtensionField, PrimeField, Quaternions, Rationals, ScalarDomain
from complaff.chart import ComplementCoord
from complaff.dualspread import (
    DualSpreadCandidate,
    Report,
    TransversalFamily,
    Violation,
    family_to_dual_spread,
)
from complaff.errors import ConfigError, InfiniteDomainError, ReconstructionError
from complaff.linalg import Echelon, MatrixK, _width, from_payloads, is_invertible
from complaff.projective import Subspace, hyperplanes_not_containing


class QuaternionAlgebra(ScalarDomain):
    """The quaternion algebra (a, b)_Q: x0 + x1*i + x2*j + x3*k with
    i^2 = a, j^2 = b and ij = k = -ji, held as four ``Fraction``s.

    For a, b < 0 the norm x0^2 - a*x1^2 - b*x2^2 + ab*x3^2 is positive
    definite, so every nonzero element is invertible: (-1, -1) is
    Hamilton's quaternions, and (-1, -3) is a division ring that is not
    isomorphic to it (it ramifies at 3, not at 2; Voight, *Quaternion
    Algebras*, ch. 5 and 14).  The center is Q, with basis 1, i, j, k
    over it.
    """

    is_commutative = False

    def __init__(self, a: int, b: int):
        if a >= 0 or b >= 0:
            raise ValueError("(a, b)_Q is taken definite here: a, b < 0")
        self.a, self.b = a, b
        self._zero, self._one = self._canon(0), self._canon(1)

    def __repr__(self):
        return f"({self.a}, {self.b})_Q"

    def __eq__(self, other):
        return isinstance(other, QuaternionAlgebra) and (other.a, other.b) == (self.a, self.b)

    def __hash__(self):
        return hash(("quaternion algebra", self.a, self.b))

    def _canon(self, payload):
        t = (payload, 0, 0, 0) if isinstance(payload, int) else tuple(payload)
        if len(t) != 4:
            raise ValueError("a quaternion payload has 4 components")
        return tuple(map(Fraction, t))

    def _sample(self, seed: int) -> list:
        """The 3^4 grid over {0, 1, -1} followed by a seeded batch of 20."""
        rng = random.Random(seed)
        return ([self._canon(c) for c in itertools.product((0, 1, -1), repeat=4)]
                + [self._canon(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                               for _ in range(4)) for _ in range(20)])

    def _add(self, x, y):
        return tuple(s + t for s, t in zip(x, y))

    def _neg(self, x):
        return tuple(-s for s in x)

    def _mul(self, x, y):
        a, b = self.a, self.b
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        # ij = k, jk = -b*i, ki = -a*j and their negatives reversed; k^2 = -ab
        return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
                x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
                x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
                x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)

    def _inv(self, x):
        a, b = self.a, self.b
        n = x[0] ** 2 - a * x[1] ** 2 - b * x[2] ** 2 + a * b * x[3] ** 2
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return (x[0] / n, -x[1] / n, -x[2] / n, -x[3] / n)

    def _is_central(self, x) -> bool:
        return not (x[1] or x[2] or x[3])

    def _imag_parts(self, x):
        """The i, j and k parts of x, each a central payload: Z-linear in x,
        and all zero exactly when x is central."""
        return [self._canon([c, 0, 0, 0]) for c in x[1:]]


def ref_identity(domain, n):
    one, zero = domain.one(), domain.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def ref_rref(m: MatrixK) -> Echelon:
    domain = m.domain
    r = [list(row) for row in m.entries]
    e = ref_identity(domain, m.rows)
    pivots = []
    lead = 0
    for col in range(m.cols):
        if lead == m.rows:
            break
        piv = next((i for i in range(lead, m.rows) if not r[i][col].is_zero()), None)
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        e[lead], e[piv] = e[piv], e[lead]
        inv = r[lead][col].inverse()
        r[lead] = [inv * x for x in r[lead]]
        e[lead] = [inv * x for x in e[lead]]
        for i in range(m.rows):
            if i == lead or r[i][col].is_zero():
                continue
            f = r[i][col]
            r[i] = [x - f * y for x, y in zip(r[i], r[lead])]
            e[i] = [x - f * y for x, y in zip(e[i], e[lead])]
        pivots.append(col)
        lead += 1
    return Echelon(MatrixK(domain, r, cols=m.cols), tuple(pivots),
                   MatrixK(domain, e, cols=m.rows))


def ref_apply(v, m: MatrixK) -> tuple:
    cols = []
    for j in range(m.cols):
        acc = m.domain.zero()
        for i, vi in enumerate(v):
            acc = acc + vi * m.entries[i][j]
        cols.append(acc)
    return tuple(cols)


def ref_product(a: MatrixK, b: MatrixK) -> MatrixK:
    return MatrixK(a.domain, [ref_apply(row, b) for row in a.entries], cols=b.cols)


def ref_rank(m: MatrixK) -> int:
    return ref_rref(m).rank


def ref_row_space(m: MatrixK) -> MatrixK:
    ech = ref_rref(m)
    return MatrixK(m.domain, ech.matrix.entries[:ech.rank], cols=m.cols)


def ref_kernel(m: MatrixK) -> MatrixK:
    ech = ref_rref(m)
    return ref_row_space(MatrixK(m.domain, ech.transform.entries[ech.rank:],
                                 cols=m.rows))


def ref_inverse(m: MatrixK):
    ech = ref_rref(m)
    return ech.transform if ech.rank == m.rows else None


def ref_solve(m: MatrixK, rhs):
    ech = ref_rref(m)
    w = [m.domain.zero()] * m.rows
    for idx, col in enumerate(ech.pivots):
        w[idx] = rhs[col]
    if ref_apply(w, ech.matrix) != tuple(rhs):
        return None
    return ref_apply(w, ech.transform)


def ref_join(a: MatrixK, b: MatrixK) -> MatrixK:
    """Echelon basis of the sum of two row spaces."""
    return ref_row_space(MatrixK(a.domain, a.entries + b.entries, cols=a.cols))


def ref_meet(a: MatrixK, b: MatrixK) -> MatrixK:
    """Echelon basis of the intersection of two row spaces.

    (x, y) in the left kernel of [A; -B] gives x*A = y*B in both.
    """
    a, b = ref_row_space(a), ref_row_space(b)
    if a.rows == 0 or b.rows == 0:
        return MatrixK(a.domain, [], cols=a.cols)
    neg_b = [[-x for x in row] for row in b.entries]
    combos = ref_kernel(MatrixK(a.domain, list(a.entries) + neg_b, cols=a.cols))
    rows = [ref_apply(c[:a.rows], a) for c in combos.entries]
    return ref_row_space(MatrixK(a.domain, rows, cols=a.cols))


def ref_coefficients(basis: MatrixK, v):
    """Coefficients of v w.r.t. an echelon basis, or None when outside."""
    coeffs = tuple(v[next(i for i, x in enumerate(row) if not x.is_zero())]
                   for row in basis.entries)
    acc = tuple(basis.domain.zero() for _ in v)
    for c, row in zip(coeffs, basis.entries):
        acc = tuple(a + c * x for a, x in zip(acc, row))
    return coeffs if acc == tuple(v) else None


def ref_coordinate_of(chart, s):
    """The gamma with chart.complement(gamma) == s, or None when s is not a
    complement of W in the chart's space, by the lattice route: the meet
    with W, containment in the space, each row split over the stacked
    chart bases [W-basis; b] as [X | Y], and gamma = Y^-1 * X."""
    if s.dim != chart.m:
        return None
    s_basis = s.basis
    if ref_meet(s_basis, chart.w.basis).rows != 0:
        return None
    if any(ref_coefficients(chart.space.basis, r) is None for r in s_basis.entries):
        return None
    t = ref_rref(MatrixK(chart.domain, chart.w_basis + chart.b, cols=chart.ambient))
    xs, ys = [], []
    for row in s_basis.entries:
        full = ref_apply([row[c] for c in t.pivots], t.transform)
        xs.append(full[:chart.k])
        ys.append(full[chart.k:])
    y_inv = ref_inverse(MatrixK(chart.domain, ys, cols=chart.m))
    return ref_product(y_inv, MatrixK(chart.domain, xs, cols=chart.k))


def ref_complement(chart, gamma: MatrixK) -> MatrixK:
    """Echelon basis of the complement spanned by the rows b_i^gamma + b_i:
    the boxed product gamma * [W-basis], then boxed row sums."""
    w = MatrixK(chart.domain, chart.w_basis, cols=chart.ambient)
    rows = [tuple(x + y for x, y in zip(row, b))
            for row, b in zip(ref_product(gamma, w).entries, chart.b)]
    return ref_row_space(MatrixK(chart.domain, rows, cols=chart.ambient))


# ---------------------------------------------------------------------------
# geometry: Z-structures, transversals and cones
# ---------------------------------------------------------------------------

def _vec_add(u, v) -> tuple:
    return tuple(x + y for x, y in zip(u, v, strict=True))


def ref_point_in_projective_z(z_basis: MatrixK, v) -> bool:
    """Is K*v a point of the projective Z-subspace of the rows z_basis?"""
    coords = ref_solve(z_basis, v)
    if coords is None or all(c.is_zero() for c in coords):
        return False
    inv = next(c for c in coords if not c.is_zero()).inverse()
    return all(c.domain._is_central((inv * c).raw) for c in coords)


def ref_maximal_central_subspace(z_basis: MatrixK, a_basis: MatrixK) -> MatrixK:
    """Echelon basis of the largest central subspace inside the row space of
    a_basis (a subspace of the span of z_basis over a quaternion algebra
    whose public payload is (x0, x1, x2, x3) = x0 + x1*i + x2*j + x3*k):
    the 4r unknowns y_(i,t) in Q of y_i = sum_t y_(i,t) unit_t, the i, j,
    k parts of every column of y*G set to zero over Rationals, G the
    coordinates of A."""
    q = z_basis.domain
    if a_basis.rows == 0:
        return a_basis
    units = [q.scalar([Fraction(s == t) for s in range(4)]) for t in range(4)]
    g = MatrixK(q, [ref_solve(z_basis, row) for row in a_basis.entries],
                cols=z_basis.rows)
    qq = Rationals()
    system = [[qq.scalar(x) for c in row for x in (unit * c).payload[1:]]
              for row in g.entries for unit in units]
    null = ref_kernel(MatrixK(qq, system, cols=3 * z_basis.rows))
    rows = []
    for sol in null.entries:
        y = []
        for i in range(g.rows):
            acc = q.zero()
            for t, unit in enumerate(units):
                acc = acc + q.scalar((sol[4 * i + t].payload, 0, 0, 0)) * unit
            y.append(acc)
        rows.append(ref_apply(ref_apply(y, g), z_basis))
    return ref_row_space(MatrixK(q, rows, cols=z_basis.cols))


def ref_central_complement(z_basis: MatrixK, a_basis: MatrixK):
    """(echelon basis, chosen rows) of the greedy central complement of the
    row space of a_basis in the span of z_basis: each b_j in turn joins
    when it lies outside A plus the ones chosen before it."""
    current, chosen = a_basis, []
    for b in z_basis.entries:
        if current.rows == z_basis.rows:
            break
        if ref_coefficients(current, b) is None:
            chosen.append(b)
            current = ref_join(current, MatrixK(z_basis.domain, [b], cols=z_basis.cols))
    return ref_row_space(MatrixK(z_basis.domain, chosen, cols=z_basis.cols)), chosen


def _ref_chart_bases(chart):
    return (MatrixK(chart.domain, chart.w_basis, cols=chart.ambient),
            MatrixK(chart.domain, chart.b, cols=chart.ambient))


def ref_transversal_contains(chart, alpha: MatrixK, beta: MatrixK,
                             t_basis: MatrixK) -> bool:
    """Is the row space of t_basis a transversal of {W} u l(alpha, beta)?
    Its trace on W gives z^alpha; z must be a Z-point and T must be
    span{z^alpha, z^beta + z}."""
    if t_basis.rows != 2:
        return False
    trace = ref_meet(t_basis, chart.w.basis)
    if trace.rows != 1:
        return False
    w, b = _ref_chart_bases(chart)
    w_coords = ref_solve(w, trace.entries[0])
    if w_coords is None:
        return False
    z = ref_apply(w_coords, ref_inverse(alpha))
    if not ref_point_in_projective_z(b, ref_apply(z, b)):
        return False
    v1 = ref_apply(ref_apply(z, alpha), w)
    v2 = _vec_add(ref_apply(ref_apply(z, beta), w), ref_apply(z, b))
    return ref_row_space(MatrixK(chart.domain, [v1, v2], cols=chart.ambient)) == t_basis


def ref_cone_decompose(chart, alpha: MatrixK) -> dict:
    """The cone shape of l(alpha, 0): vertex, kernel and U' as echelon
    bases, the chosen b_j spanning U', alpha' and exactness."""
    dom = chart.domain
    w, b = _ref_chart_bases(chart)
    ker = ref_row_space(MatrixK(dom, [ref_apply(y, b) for y in ref_kernel(alpha).entries],
                                cols=chart.ambient))
    vertex = ker if dom.is_commutative else ref_maximal_central_subspace(b, ker)
    u_prime, chosen = ref_central_complement(b, ker)
    im = ref_row_space(ref_product(ref_row_space(alpha), w))
    alpha_prime = MatrixK(dom, [ref_solve(im, ref_apply(ref_apply(ref_solve(b, bj), alpha), w))
                                for bj in chosen], cols=im.rows)
    return {"vertex": vertex, "kernel": ker, "u_prime": u_prime,
            "u_prime_basis": tuple(chosen), "alpha_prime": alpha_prime,
            "exact": vertex == ker}


def ref_reconstruct_from_transversals(lines) -> tuple:
    """The members through the points of T1 (T1's second basis row, then
    first row + c * second row for c in element order), each spanned by the
    point and its hits (P + T_j) & (P + T3) & T_j on the other lines, with
    every incidence of the result verified afterwards."""
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
    first, second = t1.basis.entries
    points = [second] + [_vec_add(first, [c * x for x in second])
                         for c in domain.elements()]
    members = []
    for v in points:
        p1 = Subspace.from_rows(domain, ambient, [v])
        pieces = [p1]
        for tj in lines[1:]:
            t3 = next((t for t in lines
                       if t is not tj and t is not t1 and (tj + t).contains(t1)),
                      None)
            if t3 is None:
                raise ReconstructionError(
                    "no companion transversal inside a common 3-space")
            hit = (p1 + tj) & (p1 + t3) & tj
            if hit.dim != 1:
                raise ReconstructionError("no unique line through the point "
                                          "meeting both transversals")
            pieces.append(hit)
        members.append(Subspace.from_rows(domain, ambient, [
            row for piece in pieces for row in piece.rows()]))
    _ref_verify_regulus(members, lines)
    return tuple(members)


def _ref_verify_regulus(members, lines):
    traces = {}
    for i, x in enumerate(members):
        for j, t in enumerate(lines):
            traces[i, j] = hit = t & x
            if hit.dim != 1:
                raise ReconstructionError("a transversal misses a candidate member")
        spanned = traces[i, 0]
        for j in range(1, len(lines)):
            spanned = spanned + traces[i, j]
        if spanned != x:
            raise ReconstructionError("a member is not spanned by its trace")
    for a, b, c in itertools.combinations(range(len(lines)), 3):
        for one, two, three in ((a, b, c), (b, a, c), (c, a, b)):
            if (lines[two] + lines[three]).contains(lines[one]):
                for i in range(len(members)):
                    stacked = traces[i, one] + traces[i, two] + traces[i, three]
                    if stacked.dim > 2:
                        raise ReconstructionError("collinearity condition fails")
    for xa, xb in itertools.combinations(members, 2):
        if (xa & xb).dim != 0 or xa.dim + xb.dim != (xa + xb).dim:
            raise ReconstructionError("members are not pairwise complementary")


def ref_singular_set(chart, x) -> tuple:
    """(H, members) of the singular set of the hyperplane X by the lattice
    route: H = X & W by the meet, each row of H split in the chart, and
    the members as the coset family (c_i) + H^I around the W-parts c_i of
    points c_i + b_i of X, solved and summed one Scalar at a time."""
    h, k, zero = x & chart.w, chart.k, chart.domain.zero()
    h_rows = [chart.coords_split(row)[0] for row in h.rows()]
    stacked = MatrixK(chart.domain, chart.w_basis + tuple(
        tuple(-c for c in row) for row in x.rows()), cols=chart.ambient)
    base = [ref_solve(stacked, tuple(-c for c in b))[:k] for b in chart.b]
    hs = set()
    for coeffs in itertools.product(chart.domain.elements(), repeat=h.dim):
        acc = (zero,) * k
        for c, row in zip(coeffs, h_rows):
            acc = _vec_add(acc, tuple(c * y for y in row))
        hs.add(acc)
    members = {chart.coord([_vec_add(c, d) for c, d in zip(base, combo)])
               for combo in itertools.product(hs, repeat=chart.m)}
    return h, members


def ref_check_pairwise_regular(b) -> Violation | None:
    """DS1 by a rank test of every difference, in combinations order."""
    for i, j in itertools.combinations(range(len(b.members)), 2):
        if not is_invertible(b.members[i].gamma - b.members[j].gamma):
            return Violation("DS1", f"members {i} and {j} are not joined by a "
                             f"regular line", pair=(i, j))
    return None


def ref_uncovered_hyperplane(b) -> Subspace | None:
    """DS2 once DS1 holds: q^m members cover every hyperplane without W;
    short of that, the first such hyperplane containing no member."""
    if len(b.members) == b.chart.domain.order ** b.chart.m:
        return None
    members = b.subspaces()
    return next((x for x in hyperplanes_not_containing(b.chart.w)
                 if not any(x.contains(s) for s in members)), None)


def ref_is_dual_spread(b) -> Report:
    bad = ref_check_pairwise_regular(b)
    if bad is not None:
        return Report(False, bad)
    x = ref_uncovered_hyperplane(b)
    if x is not None:
        return Report(False, Violation(
            "DS2", "a maximal singular set contains no member", hyperplane=x))
    return Report(True)


def ref_verify_family(f) -> Report:
    spread = family_to_dual_spread(f)
    bad = ref_check_pairwise_regular(spread)
    if bad is not None:
        i, j = bad.pair
        return Report(False, Violation(
            "T1*", "image differences of two domain points do not form "
            "a basis of U", pair=(f.entries[i][0], f.entries[j][0])))
    x = ref_uncovered_hyperplane(spread)
    if x is not None:
        return Report(False, Violation(
            "T2*", "no domain point lands in the coset family of this "
            "hyperplane", hyperplane=x))
    return Report(True)


# ---------------------------------------------------------------------------
# JSON decoding, one row at a time
# ---------------------------------------------------------------------------

def _ref_built(what: str, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _ref_json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ConfigError(f"{what} must be an integer, not {value!r}")
    return value


def _ref_payload_from_json(domain, obj):
    try:
        if type(obj) is list and isinstance(domain, ExtensionField):
            return tuple(_ref_json_int(c, "a component") for c in obj)
        if type(obj) is list and isinstance(domain, Quaternions):
            if len(obj) != 4 or not all(type(c) in (str, int) for c in obj):
                raise ValueError("need 4 components, each a string or an integer")
            return tuple(map(Fraction, obj))
        raise ValueError("a scalar must be an integer" + (
            "" if isinstance(domain, PrimeField) else " or a list"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad scalar {obj!r} for {domain}: {exc}") from exc


def ref_vector_from_json(domain, obj) -> tuple:
    """One JSON row, its types checked value by value after a dispatch on
    the domain."""
    if not isinstance(obj, list):
        raise ConfigError("expected a list of scalars")
    canon = domain._canon
    ints = (int,) * domain.k if isinstance(domain, ExtensionField) else None
    return tuple([canon(tuple(x)) if type(x) is list and tuple(map(type, x)) == ints
                  else canon(x if type(x) is int else _ref_payload_from_json(domain, x))
                  for x in obj])


def ref_matrix_from_json(domain, obj, cols=None) -> MatrixK:
    if not isinstance(obj, list):
        raise ConfigError("expected a list of rows")
    rows = [ref_vector_from_json(domain, row) for row in obj]
    return from_payloads(domain, rows, _ref_built("matrix", _width, rows, cols))


def ref_subspace_from_json(domain, obj) -> Subspace:
    if not isinstance(obj, dict) or "ambient" not in obj or "rows" not in obj:
        raise ConfigError('a subspace needs "ambient" and "rows"')
    ambient = _ref_json_int(obj["ambient"], '"ambient"')
    if not isinstance(obj["rows"], list):
        raise ConfigError('subspace "rows" must be a list of rows')
    rows = [ref_vector_from_json(domain, row) for row in obj["rows"]]
    _ref_built("subspace", _width, rows, ambient)
    return Subspace.spanned(domain, ambient, rows)


def ref_dual_spread_from_json(chart, obj) -> DualSpreadCandidate:
    """A "gammas" document (or a bare list of gammas), member by member."""
    if isinstance(obj, list):
        obj = {"gammas": obj}
    if not isinstance(obj, dict) or not isinstance(obj.get("gammas"), list):
        raise ConfigError('a dual-spread file needs a "gammas" or "subspaces" list')
    return DualSpreadCandidate(chart, [
        _ref_built("dual-spread member", ComplementCoord, chart,
                   ref_matrix_from_json(chart.domain, g, cols=chart.k))
        for g in obj["gammas"]])


def ref_family_from_json(chart, obj) -> TransversalFamily:
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise ConfigError('a family file needs an "entries" list')
    dom, m = chart.domain, chart.m
    entries = []
    for rec in obj["entries"]:
        if not (isinstance(rec, dict) and "u" in rec
                and isinstance(rec.get("images"), list)):
            raise ConfigError('a family entry needs "u" and an "images" list')
        u = ref_vector_from_json(dom, rec["u"])
        images = [ref_vector_from_json(dom, img) for img in rec["images"]]
        if all(len(row) == m for row in images):
            images = from_payloads(dom, images, m)
        entries.append((u, images))
    return _ref_built("family", TransversalFamily, chart, entries, _canonical=True)
