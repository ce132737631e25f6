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
"""

from complaff.linalg import Echelon, MatrixK


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
