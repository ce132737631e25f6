"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion also enforces its runtime budget.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import pytest

from complaff.algebra import PrimeField, Quaternions
from complaff.chart import (
    AffineChart,
    AffineLine,
    charts_equal,
    split_scalar_central,
    symmetric_chart,
)
from complaff.dualspread import (
    DualSpreadCandidate,
    SingularSet,
    family_from_dual_spread,
    family_to_coord,
    family_to_dual_spread,
    coord_to_family,
    is_dual_spread,
    verify_family,
)
from complaff.linalg import MatrixK, is_invertible
from complaff.projective import (
    Subspace,
    hyperplanes_not_containing,
    is_complement,
)
from complaff.reguli import (
    cone_decompose,
    reconstruct_from_transversals,
    regulus_through,
    standard_regulus,
    transversals_of,
    w_plus_transversals,
    w_plus_z,
)
from vectors import unit_vector, vec_add, vec_scale

GF2 = PrimeField(2)
GF3 = PrimeField(3)
Q = Quaternions()


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def finish(self):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
        print(f"ACCEPTANCE {self.name}: {status} in {elapsed:.2f}s "
              f"(budget {self.seconds:.0f}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"


# ---------------------------------------------------------------------------
# 1. vector-space axioms on the set of complements
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain", [GF2, GF3])
def test_criterion_1_vector_space_axioms(domain):
    budget = Budget(f"1 (axioms over {domain!r})", 10.0)
    ch = symmetric_chart(domain, 2)
    pts = ch.all_coords()
    index = {c: i for i, c in enumerate(pts)}
    size = len(pts)
    assert size == domain.order ** 4

    add = [[index[pts[i] + pts[j]] for j in range(size)] for i in range(size)]
    elems = domain.sample()
    act = {k: [index[k * pts[i]] for i in range(size)] for k in elems}

    zero = index[ch.zero_coord()]
    for i in range(size):
        assert add[i][zero] == i                       # identity
        assert add[i][index[-pts[i]]] == zero          # inverses
        for j in range(size):
            assert add[i][j] == add[j][i]              # commutativity
    for i in range(size):
        row = add[i]
        for j in range(size):
            aij = row[j]
            arow = add[aij]
            brow = add[j]
            for l in range(size):
                assert arow[l] == row[brow[l]]          # associativity
    one = domain.one()
    for i in range(size):
        assert act[one][i] == i                        # unital action
    for k in elems:
        for l in elems:
            kl = k * l
            k_plus_l = k + l
            for i in range(size):
                assert act[k][act[l][i]] == act[kl][i]                 # k(l x)
                assert act[k_plus_l][i] == add[act[k][i]][act[l][i]]   # (k+l)x
    for k in elems:
        krow = act[k]
        for i in range(size):
            for j in range(size):
                assert krow[add[i][j]] == add[krow[i]][krow[j]]        # k(x+y)
    budget.finish()


# ---------------------------------------------------------------------------
# 2. complementarity iff invertible gamma difference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain", [GF2, GF3])
def test_criterion_2_complementarity(domain):
    budget = Budget(f"2 (complementarity over {domain!r})", 30.0)
    ch = symmetric_chart(domain, 2)
    pts = ch.all_coords()
    subs = [c.subspace() for c in pts]
    for i, j in itertools.combinations(range(len(pts)), 2):
        invertible = is_invertible(pts[i].gamma - pts[j].gamma)
        geometric = is_complement(subs[i], subs[j])
        assert invertible == geometric
    budget.finish()


# ---------------------------------------------------------------------------
# 3. regulus machinery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("domain,q", [(GF2, 2), (GF3, 3)])
def test_criterion_3_reguli(domain, q):
    budget = Budget(f"3 (reguli over {domain!r})", 60.0)
    ch = symmetric_chart(domain, 2)
    reg0 = standard_regulus(ch)
    members0 = reg0.members()
    lines0 = transversals_of(reg0).lines()
    assert len(members0) == q + 1 and len(set(members0)) == q + 1
    assert len(lines0) == q + 1 and len(set(lines0)) == q + 1
    for t in lines0:
        for member in members0:
            assert (t & member).dim == 1

    assert set(reconstruct_from_transversals(lines0)) == set(members0)
    import random
    rng = random.Random(2024)
    elems = domain.sample()
    images = 0
    while images < 10:
        alpha = MatrixK(domain, [[rng.choice(elems) for _ in range(2)]
                                 for _ in range(2)])
        if not is_invertible(alpha):
            continue
        beta = MatrixK(domain, [[rng.choice(elems) for _ in range(2)]
                                for _ in range(2)])
        from complaff.reguli import Regulus
        reg = Regulus(ch, alpha, beta)
        rebuilt = reconstruct_from_transversals(transversals_of(reg).lines())
        assert set(rebuilt) == set(reg.members())
        images += 1

    wz = w_plus_z(ch)
    pts = ch.all_coords()
    pair_count = 0
    for c1, c2 in itertools.combinations(pts, 2):
        if not is_invertible(c1.gamma - c2.gamma):
            continue
        pair_count += 1
        reg = regulus_through(c1, c2)
        members = reg.members()
        member_set = set(members)
        assert ch.w in member_set
        assert c1.subspace() in member_set and c2.subspace() in member_set
        affine = members[1:]
        for s in affine:
            assert is_complement(ch.w, s)
        for a, b in itertools.combinations(affine, 2):
            assert is_invertible(ch.coordinate_of(a).gamma
                                 - ch.coordinate_of(b).gamma)
        assert w_plus_transversals(reg) == wz
    assert pair_count > 0
    budget.finish()


# ---------------------------------------------------------------------------
# 4. cone theorems over GF(3)
# ---------------------------------------------------------------------------

def test_criterion_4_cones():
    budget = Budget("4 (cones over GF(3))", 60.0)
    ch = symmetric_chart(GF3, 2)
    elems = GF3.sample()
    zero = MatrixK.zero(GF3, 2, 2)
    rank_one = 0
    for combo in itertools.product(elems, repeat=4):
        alpha = MatrixK(GF3, [combo[:2], combo[2:]])
        if alpha.is_zero():
            continue
        line = AffineLine(ch, alpha, zero)
        cone = cone_decompose(line)
        points = [p.subspace() for p in line.points()]
        for s in points:
            assert s.contains(cone.vertex)            # KerMax(a)
        if not is_invertible(alpha):
            rank_one += 1
            assert cone.exact                          # commutative kernels
            cone_points = {x + cone.kernel for x in cone.base.affine_members()}
            assert cone_points == set(points)          # KerCent equality
    assert rank_one == 32
    budget.finish()


# ---------------------------------------------------------------------------
# 5. noncommutative witnesses over the rational quaternions
# ---------------------------------------------------------------------------

def test_criterion_5_quaternion_witnesses():
    budget = Budget("5 (quaternion witnesses)", 30.0)
    grid = Q.sample()[:81]
    assert len(grid) == 81

    # (i) K(i b1 + b2) contains no nonzero central vector
    ch = symmetric_chart(Q, 2)
    span = Subspace.from_rows(Q, 4, [(Q.zero(), Q.zero(), Q.i, Q.one())])
    maximal = ch.z.maximal_central_subspace(span)
    assert maximal.dim == 0
    for z1, z2 in itertools.product((Q.zero(), Q.one(), -Q.one()), repeat=2):
        v = (Q.zero(), Q.zero(), z1, z2)
        if not all(x.is_zero() for x in v):
            assert span.coefficients_of(v) is None

    # (ii) diag(i,i) splits as (i, I); diag(i,j) does not split
    res = split_scalar_central(MatrixK(Q, [[Q.i, 0], [0, Q.i]]))
    assert res is not None
    m, zeta = res
    assert m == Q.i and zeta == MatrixK.identity(Q, 2)
    nu = MatrixK(Q, [[Q.i, 0], [0, Q.i]])
    for k in grid:
        lam_k = MatrixK(Q, [[k, 0], [0, k]])
        conj = m * k * m.inverse()
        lam_conj = MatrixK(Q, [[conj, 0], [0, conj]])
        assert nu * lam_k == lam_conj * nu
    assert split_scalar_central(MatrixK(Q, [[Q.i, 0], [0, Q.j]])) is None

    # (iii) chart equality: (b1, i b2) differs, (i b1, i b2) agrees
    w = Subspace.from_rows(Q, 4, [unit_vector(Q, 4, 0), unit_vector(Q, 4, 1)])
    u = Subspace.from_rows(Q, 4, [unit_vector(Q, 4, 2), unit_vector(Q, 4, 3)])
    b1, b2 = unit_vector(Q, 4, 2), unit_vector(Q, 4, 3)
    base = AffineChart(Q, 4, w, u, b=[b1, b2])
    twisted = AffineChart(Q, 4, w, u, b=[b1, vec_scale(Q.i, b2)])
    scaled = AffineChart(Q, 4, w, u, b=[vec_scale(Q.i, b1), vec_scale(Q.i, b2)])
    assert not charts_equal(base, twisted)
    assert charts_equal(base, scaled)
    # membership predicates on the grid agree for the equal pair and
    # produce a witness for the different pair
    witnesses = 0
    for z1, z2 in itertools.product((Q.zero(), Q.one(), -Q.one()), repeat=2):
        if z1.is_zero() and z2.is_zero():
            continue
        v = vec_add(vec_scale(z1, b1), vec_scale(z2, b2))
        assert base.z.point_in_projective_z(v)
        assert scaled.z.point_in_projective_z(v)
        if not twisted.z.point_in_projective_z(v):
            witnesses += 1
    assert witnesses > 0
    budget.finish()


# ---------------------------------------------------------------------------
# 6. dual spreads
# ---------------------------------------------------------------------------

SPREAD_GAMMAS = ([[0, 0], [0, 0]], [[1, 0], [0, 1]],
                 [[1, 1], [1, 0]], [[0, 1], [1, 1]])


def test_criterion_6_dual_spreads():
    budget = Budget("6 (dual spreads over GF(2))", 30.0)
    ch = symmetric_chart(GF2, 2)
    coords = ch.all_coords()

    families = {c: coord_to_family(c) for c in coords}
    for c, fam in families.items():
        assert family_to_coord(ch, fam) == c
    for c1, c2 in itertools.product(coords, repeat=2):
        summed = tuple(vec_add(a, b) for a, b in zip(families[c1], families[c2]))
        assert family_to_coord(ch, summed) == c1 + c2

    valid = hyperplanes_not_containing(ch.w)
    assert len(valid) == 12
    subs = {c: c.subspace() for c in coords}
    for x in valid:
        members = SingularSet(ch, x).coords()
        assert len(members) == 4
        assert set(members) == {c for c in coords if x.contains(subs[c])}

    cand = DualSpreadCandidate(ch, [ch.coord(g) for g in SPREAD_GAMMAS])
    assert is_dual_spread(cand).ok
    family = family_from_dual_spread(cand, 0)
    assert verify_family(family).ok
    rebuilt = family_to_dual_spread(family)
    assert ({m.gamma for m in rebuilt.members}
            == {m.gamma for m in cand.members})
    budget.finish()


# ---------------------------------------------------------------------------
# 7. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    budget = Budget("7 (CLI determinism)", 120.0)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src") + os.pathsep \
        + env.get("PYTHONPATH", "")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "complaff.cli", *argv],
                              capture_output=True, text=True, env=env)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": "gf(2)", "n": 4, "k": 2}))
    spread = tmp_path / "spread.json"
    spread.write_text(json.dumps({"kind": "dual-spread",
                                  "gammas": list(SPREAD_GAMMAS)}))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"gamma": [[0, 0], [0, 0]]}))
    b.write_text(json.dumps({"gamma": [[1, 0], [0, 1]]}))
    family = tmp_path / "family.json"
    family.write_text(run("extract-family", str(spread), "--config",
                          str(cfg), "--json").stdout)
    reg = json.loads(run("regulus", "--through", str(a), str(b), "--config",
                         str(cfg), "--json").stdout)
    tfile = tmp_path / "transversals.json"
    tfile.write_text(json.dumps(reg["transversals"]))

    invocations = [
        ("enumerate", "--config", str(cfg), "--json"),
        ("classify-lines", "--config", str(cfg), "--json"),
        ("regulus", "--through", str(a), str(b), "--config", str(cfg), "--json"),
        ("reconstruct", "--transversals", str(tfile), "--config", str(cfg),
         "--json"),
        ("check-dual-spread", str(spread), "--config", str(cfg), "--json"),
        ("build-dual-spread", str(family), "--config", str(cfg), "--json"),
        ("extract-family", str(spread), "--config", str(cfg), "--json"),
    ]
    for argv in invocations:
        first = run(*argv)
        second = run(*argv)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout, f"nondeterministic: {argv}"
        assert first.stdout.strip(), f"no output: {argv}"
    budget.finish()
