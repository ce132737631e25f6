"""The benchmark workloads: seeded inputs, timed jobs and their oracles.

A workload turns a seed into a fixed list of blocks of jobs.  Every block
has the same mix of job kinds, so a run that stops at a block boundary
always did the same mix of work.  A job's ``run()`` makes the timed
library or CLI calls and returns their output; its ``check(output)``
compares that output with an expectation worked out while the job was
generated, by plain integer or ``Fraction`` arithmetic that does not go
through the timed code.  ``spec`` is a JSON-able description of the
job's input, hashed into the run's input digest.

Library calls go through module attributes (``reguli.regulus_through``),
so the span wrappers of the traced run see the calls made here too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from complaff import algebra, chart, cli, linalg, projective, reguli


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]              # never returns None
    check: Callable[[Any], bool]
    spec: Any


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, str], list]    # (seed, workdir) -> blocks of jobs
    trace_blocks_per_s: float           # traced prefix: blocks per --seconds


def basis(s) -> tuple:
    """A library subspace's canonical basis as nested payload tuples."""
    return tuple(tuple(x.payload for x in row) for row in s.basis.entries)


def payloads(m) -> tuple:
    return tuple(tuple(x.payload for x in row) for row in m.entries)


# ---------------------------------------------------------------------------
# reguli-gf3: regulus, coordinate_of and reconstruction on GF(3)^4, m = k = 2
# ---------------------------------------------------------------------------

P3 = 3


def rref_mod(rows, p) -> tuple:
    """Reduced row echelon form over GF(p), zero rows dropped."""
    r = [[x % p for x in row] for row in rows]
    lead = 0
    for col in range(len(r[0]) if r else 0):
        piv = next((i for i in range(lead, len(r)) if r[i][col]), None)
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        inv = pow(r[lead][col], p - 2, p)
        r[lead] = [x * inv % p for x in r[lead]]
        for i in range(len(r)):
            if i != lead and r[i][col]:
                f = r[i][col]
                r[i] = [(x - f * y) % p for x, y in zip(r[i], r[lead])]
        lead += 1
    return tuple(tuple(row) for row in r[:lead])


def _graph_rows(gamma) -> list:
    """Rows b_i^gamma + b_i of the complement named by a 2x2 gamma."""
    return [list(gamma[0]) + [1, 0], list(gamma[1]) + [0, 1]]


def _rand_mat3(rng) -> tuple:
    return tuple(tuple(rng.randrange(P3) for _ in range(2)) for _ in range(2))


def _gf3_regulus_job(rng, ch) -> Job:
    while True:
        g1, g2 = _rand_mat3(rng), _rand_mat3(rng)
        a = [[(g2[i][j] - g1[i][j]) % P3 for j in range(2)] for i in range(2)]
        if (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % P3:
            break
    line = [tuple(tuple((k * a[i][j] + g1[i][j]) % P3 for j in range(2))
                  for i in range(2)) for k in range(P3)]
    w_canon = ((1, 0, 0, 0), (0, 1, 0, 0))
    expected = [w_canon] + [rref_mod(_graph_rows(g), P3) for g in line]
    c1, c2 = ch.coord(g1), ch.coord(g2)

    def run():
        reg = reguli.regulus_through(c1, c2)
        members = reg.members()
        coords = [ch.coordinate_of(s) for s in members[1:]]
        comp = [chart.are_complementary(x, y)
                for x, y in itertools.combinations(coords, 2)]
        trace_ok = reguli.w_plus_transversals(reg) == reguli.w_plus_z(ch)
        rebuilt = reguli.reconstruct_from_transversals(
            reguli.transversals_of(reg).lines())
        return members, coords, comp, trace_ok, rebuilt

    def check(out) -> bool:
        members, coords, comp, trace_ok, rebuilt = out
        return ([basis(s) for s in members] == expected
                and [payloads(c.gamma) for c in coords] == line
                and comp == [True] * 3 and trace_ok is True
                and sorted(basis(s) for s in rebuilt) == sorted(expected))

    return Job("regulus", run, check, ["regulus", g1, g2])


def _gf3_cone_job(rng, ch) -> Job:
    nonzero = [v for v in itertools.product(range(P3), repeat=2) if any(v)]
    x, y = rng.choice(nonzero), rng.choice(nonzero)
    alpha = tuple(tuple(x[i] * y[j] % P3 for j in range(2)) for i in range(2))
    # left kernel of the rank-1 alpha = x^T y is {v : v.x = 0}
    ker = rref_mod([[0, 0, x[1], -x[0]]], P3)
    dom = ch.domain
    line = chart.AffineLine(ch, linalg.MatrixK(dom, alpha),
                            linalg.MatrixK.zero(dom, 2, 2))

    def run():
        return reguli.cone_decompose(line)

    def check(cone) -> bool:
        return (basis(cone.kernel) == ker and basis(cone.vertex) == ker
                and cone.exact is True and cone.u_prime.dim == 1)

    return Job("cone", run, check, ["cone", alpha])


def make_reguli_gf3(seed: int, workdir: str) -> list:
    ch = chart.symmetric_chart(algebra.PrimeField(P3), 2)
    rng = random.Random(seed)
    blocks = []
    for _ in range(40):
        block = [_gf3_regulus_job(rng, ch) for _ in range(4)]
        block.append(_gf3_cone_job(rng, ch))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# spreads-cli-gf4: in-process CLI calls on dual-spread files over GF(4)^4
# ---------------------------------------------------------------------------

# GF(4) = GF(2)[x]/(x^2+x+1); c0 + c1*x is stored as the int c0 | c1 << 1.
GF4_SPEC = "gf(2^2; modulus=[1,1,1])"


def _gf4_mul_slow(a: int, b: int) -> int:
    a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
    c0, c1, c2 = a0 & b0, (a0 & b1) ^ (a1 & b0), a1 & b1
    return (c0 ^ c2) | (c1 ^ c2) << 1          # x^2 = x + 1


MUL4 = [[_gf4_mul_slow(a, b) for b in range(4)] for a in range(4)]
INV4 = [None] + [next(b for b in range(4) if MUL4[a][b] == 1) for a in range(1, 4)]


def _m4_mul(x, y) -> tuple:
    return tuple(tuple(MUL4[x[i][0]][y[0][j]] ^ MUL4[x[i][1]][y[1][j]]
                       for j in range(2)) for i in range(2))


def _m4_add(x, y) -> tuple:
    return tuple(tuple(x[i][j] ^ y[i][j] for j in range(2)) for i in range(2))


def _m4_det(x) -> int:
    return MUL4[x[0][0]][x[1][1]] ^ MUL4[x[0][1]][x[1][0]]


def _m4_inv(x) -> tuple:
    d = INV4[_m4_det(x)]
    return ((MUL4[d][x[1][1]], MUL4[d][x[0][1]]),
            (MUL4[d][x[1][0]], MUL4[d][x[0][0]]))


def _m4_rand(rng, invertible: bool) -> tuple:
    while True:
        m = tuple(tuple(rng.randrange(4) for _ in range(2)) for _ in range(2))
        if not invertible or _m4_det(m):
            return m


def _regular_spread_gf4() -> list:
    """The 16 gammas {a*I + b*C} of the regular spread, C irreducible."""
    s, n = next((s, n) for s in range(4) for n in range(4)
                if all(MUL4[t][t] ^ MUL4[s][t] ^ n for t in range(4)))
    c = ((0, 1), (n, s))
    ident = ((1, 0), (0, 1))
    gammas = [_m4_add(tuple(tuple(MUL4[a][e] for e in row) for row in ident),
                      tuple(tuple(MUL4[b][e] for e in row) for row in c))
              for a in range(4) for b in range(4)]
    if any(not _m4_det(_m4_add(x, y)) for x, y in itertools.combinations(gammas, 2)):
        raise RuntimeError("the GF(4) spread construction is wrong")
    return gammas


def _enc4(a: int) -> list:
    return [a & 1, a >> 1]


def _gamma_json(g) -> list:
    return [[_enc4(x) for x in row] for row in g]


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _hyperplane_normal(rows) -> tuple | None:
    """A nonzero form c with r.c = 0 for every row, by brute force."""
    for c in itertools.product(range(4), repeat=4):
        if any(c) and all(_dot4(r, c) == 0 for r in rows):
            return c
    return None


def _dot4(r, c) -> int:
    acc = 0
    for x, y in zip(r, c):
        acc ^= MUL4[x][y]
    return acc


def _dec4(pair) -> int:
    return pair[0] | pair[1] << 1


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def _run_cli(argv) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliResult(code, buf.getvalue())


def _spread_candidate(rng, base, verdict):
    a, r, h = _m4_rand(rng, True), _m4_rand(rng, True), _m4_rand(rng, False)
    r_inv = _m4_inv(r)
    gammas = [_m4_mul(r_inv, _m4_add(_m4_mul(g, a), h)) for g in base]
    rng.shuffle(gammas)
    if verdict == "DS2":
        del gammas[rng.randrange(len(gammas))]
    elif verdict == "DS1":
        # the last member keeps its first row and takes member 0's second
        # row: it differs from member 0 by a nonzero rank-1 matrix, while
        # the first rows (the extracted family's domain) stay distinct.
        # (0, last) is the 15th pair in the checks' pair order, so every
        # DS1 failure scans the same number of pairs.
        gammas[-1] = (gammas[-1][0], gammas[0][1])
    return gammas


def _report_head(members: int, result: str) -> dict:
    return {"command": "check-dual-spread", "field": GF4_SPEC, "n": 4, "k": 2,
            "seed": 0, "members": members, "result": result}


def _spread_jobs(idx, rng, base, verdict, workdir, cfg_path) -> list:
    gammas = _spread_candidate(rng, base, verdict)
    spread_doc = {"kind": "dual-spread", "gammas": [_gamma_json(g) for g in gammas]}
    family_doc = {"kind": "family",
                  "entries": [{"u": _gamma_json(g)[0], "images": _gamma_json(g)}
                              for g in gammas]}
    spread_path = os.path.join(workdir, f"spread{idx}.json")
    family_path = os.path.join(workdir, f"family{idx}.json")
    with open(spread_path, "w", encoding="utf-8") as fh:
        json.dump(spread_doc, fh)
    with open(family_path, "w", encoding="utf-8") as fh:
        json.dump(family_doc, fh)
    family_text = _canon_json(family_doc)
    built_text = _canon_json(spread_doc)

    def singular(i, j) -> bool:
        return _m4_det(_m4_add(gammas[i], gammas[j])) == 0

    def check_spread(out) -> bool:
        code, text = out.code, out.stdout
        report = json.loads(text)
        if verdict == "PASS":
            return code == 0 and report == _report_head(16, "PASS")
        v = report.get("violation", {})
        head = {k: report.get(k) for k in ("command", "field", "n", "k", "seed",
                                           "members", "result")}
        if code != 1 or head != _report_head(len(gammas), "FAIL") \
                or v.get("kind") != verdict:
            return False
        if verdict == "DS1":
            return singular(*v["pair"])
        # DS2: the witness hyperplane misses W and contains no member
        rows = [[_dec4(x) for x in row] for row in v["hyperplane"]["rows"]]
        c = _hyperplane_normal(rows)
        if len(rows) != 3 or c is None or (c[0] == 0 and c[1] == 0):
            return False
        return not any(_dot4(list(g[0]) + [1, 0], c) == 0
                       and _dot4(list(g[1]) + [0, 1], c) == 0 for g in gammas)

    def check_extract(out) -> bool:
        return out == CliResult(0, family_text)

    def check_build(out) -> bool:
        code, text = out.code, out.stdout
        if verdict == "PASS":
            return code == 0 and text == built_text
        kind = {"DS1": "T1*", "DS2": "T2*"}[verdict]
        return code == 1 and json.loads(text)["violation"]["kind"] == kind

    cfg = ["--config", cfg_path, "--json"]
    spec = [verdict, [[list(r) for r in g] for g in gammas]]
    return [
        Job(f"check-{verdict}", lambda: _run_cli(["check-dual-spread", spread_path] + cfg),
            check_spread, ["check"] + spec),
        Job(f"extract-{verdict}",
            lambda: _run_cli(["extract-family", spread_path, "--index", "0"] + cfg),
            check_extract, ["extract"] + spec),
        Job(f"build-{verdict}", lambda: _run_cli(["build-dual-spread", family_path] + cfg),
            check_build, ["build"] + spec),
    ]


# Candidates per block: 1 valid, 1 broken for DS2, 4 broken for DS1.  A
# DS1 failure and an extraction take a few ms, a DS2 verdict and its
# build ~70 ms, a PASS verdict and its build ~125 ms.  So 14 of a block's
# 18 calls are short and the median call sits among the DS1 failures
# (the CLI and JSON I/O boundary), while p95 falls in the middle of the
# two PASS calls, full hyperplane scans, rather than at their edge.
SPREAD_MIX = ("PASS", "DS2") + ("DS1",) * 4


def make_spreads_cli_gf4(seed: int, workdir: str) -> list:
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"field": GF4_SPEC, "n": 4, "k": 2}, fh)
    base = _regular_spread_gf4()
    rng = random.Random(seed)
    blocks = []
    for b in range(48):
        block = []
        for c, verdict in enumerate(SPREAD_MIX):
            block += _spread_jobs(b * len(SPREAD_MIX) + c, rng, base, verdict,
                                  workdir, cfg_path)
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# quat-sampled: the noncommutative path over Quat(Q)
# ---------------------------------------------------------------------------

F = Fraction
Q0 = (F(0),) * 4
Q1 = (F(1), F(0), F(0), F(0))


def _qmul(x, y) -> tuple:
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _qadd(x, y) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def _qneg(x) -> tuple:
    return tuple(-a for a in x)


def _qinv(x) -> tuple:
    n = sum(a * a for a in x)
    return (x[0] / n, -x[1] / n, -x[2] / n, -x[3] / n)


def _qreal(r) -> tuple:
    return (F(r), F(0), F(0), F(0))


def _is_real(x) -> bool:
    return x[1] == 0 and x[2] == 0 and x[3] == 0


def _frac(rng) -> Fraction:
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def _rand_q(rng, real=False) -> tuple:
    while True:
        q = (_frac(rng),) + ((F(0),) * 3 if real else tuple(_frac(rng) for _ in range(3)))
        if any(q):
            return q


def _rand_nonreal_q(rng) -> tuple:
    while True:
        q = _rand_q(rng)
        if not _is_real(q):
            return q


def _q2_invertible(m) -> bool:
    (a, b), (c, d) = m
    if any(a):
        return any(_qadd(d, _qneg(_qmul(_qmul(c, _qinv(a)), b))))
    return any(b) and any(c)


def _rand_q2(rng, invertible=False) -> tuple:
    while True:
        m = tuple(tuple(_rand_q(rng) for _ in range(2)) for _ in range(2))
        if not invertible or _q2_invertible(m):
            return m


def _vec_left(q, v) -> tuple:
    return tuple(_qmul(q, x) for x in v)


def _vec_add(u, v) -> tuple:
    return tuple(_qadd(x, y) for x, y in zip(u, v))


def _row_times(z, m) -> tuple:
    """Row vector z times the matrix m, z's entries on the left."""
    return tuple(_qadd(_qmul(z[0], m[0][j]), _qmul(z[1], m[1][j])) for j in range(2))


def _q_jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (tuple, list)):
        return [_q_jsonable(x) for x in obj]
    return obj


def _quat_mcs2_job(rng, ch2) -> Job:
    """maximal_central_subspace of A = K(0, 0, 1, a) <= U: A itself when
    a is rational, else 0.  A is handed over with a random left scalar."""
    central = rng.random() < 0.5
    a = _rand_q(rng, real=True) if central else _rand_nonreal_q(rng)
    row = _vec_left(_rand_q(rng), (Q0, Q0, Q1, a))
    sub = projective.Subspace.from_rows(ch2.domain, 4, [row])
    expected = ((Q0, Q0, Q1, a),) if central else ()

    def run():
        return ch2.z.maximal_central_subspace(sub)

    return Job("mcs2", run, lambda s: basis(s) == expected,
               ["mcs2", _q_jsonable(row)])


def _quat_mcs3_job(rng, ch3) -> Job:
    """A = span{(1, 0, a), (0, 1, b)} in U-coordinates of K^6.

    The rational vectors x(1,0,a) + y(0,1,b) need x, y rational and
    x*Im(a) + y*Im(b) = 0, so the maximal central subspace has dimension
    2 - rank_Q(Im a, Im b).  The target dimension is drawn first.
    """
    target = rng.randrange(3)
    if target == 2:
        a, b = _rand_q(rng, real=True), _rand_q(rng, real=True)
    elif target == 1:
        a = _rand_nonreal_q(rng)
        t = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        b = (_frac(rng), t * a[1], t * a[2], t * a[3])
    else:
        while True:
            a, b = _rand_nonreal_q(rng), _rand_nonreal_q(rng)
            ia, ib = a[1:], b[1:]
            cross = (ia[1] * ib[2] - ia[2] * ib[1], ia[2] * ib[0] - ia[0] * ib[2],
                     ia[0] * ib[1] - ia[1] * ib[0])
            if any(cross):
                break
    v1, v2 = (Q0, Q0, Q0, Q1, Q0, a), (Q0, Q0, Q0, Q0, Q1, b)
    p = _rand_q2(rng, invertible=True)
    rows = [_vec_add(_vec_left(p[i][0], v1), _vec_left(p[i][1], v2)) for i in range(2)]
    sub = projective.Subspace.from_rows(ch3.domain, 6, rows)
    if target == 2:
        expected = (v1, v2)
    elif target == 1:
        # the rational vector (-t, 1, -t*Re(a) + Re(b)), scaled to lead 1
        last = (-t * a[0] + b[0]) / -t
        expected = ((Q0, Q0, Q0, Q1, _qreal(-1 / t), _qreal(last)),)
    else:
        expected = ()

    def run():
        return ch3.z.maximal_central_subspace(sub)

    return Job("mcs3", run, lambda s: basis(s) == expected,
               ["mcs3", _q_jsonable(rows)])


def _quat_charts_equal_job(rng, ch2) -> Job:
    """Base change b' = N*b: the same affine structure iff N = q*Z with Z
    rational.  The generic case is kept only if its entries are in no
    common left coset q*Q."""
    same = rng.random() < 0.5
    if same:
        q = _rand_q(rng)
        while True:
            z = tuple(tuple(_rand_q(rng, real=True) for _ in range(2)) for _ in range(2))
            if _q2_invertible(z):
                break
        n = tuple(tuple(_qmul(q, x) for x in row) for row in z)
    else:
        while True:
            n = _rand_q2(rng, invertible=True)
            flat = [x for row in n for x in row]
            lead_inv = _qinv(next(x for x in flat if any(x)))
            if not all(_is_real(_qmul(lead_inv, x)) for x in flat):
                break
    b_rows = [(Q0, Q0) + tuple(row) for row in n]
    dom = ch2.domain

    def run():
        other = chart.AffineChart(dom, 4, ch2.w, ch2.u, b=b_rows)
        return chart.charts_equal(ch2, other)

    return Job("charts_equal", run, lambda r: r is same,
               ["charts_equal", _q_jsonable(n)])


def _quat_cone_job(rng, ch2) -> Job:
    """alpha = [[r], [c*r]] with c not rational: ker(alpha) = K(-c, 1) is
    not central, so the vertex is 0 and the cone is not exact."""
    r = (_rand_q(rng), _rand_q(rng))
    c = _rand_nonreal_q(rng)
    alpha = (r, _vec_left(c, r))
    ker = ((Q0, Q0, Q1, _qinv(_qneg(c))),)
    dom = ch2.domain
    line = chart.AffineLine(ch2, linalg.MatrixK(dom, alpha),
                            linalg.MatrixK.zero(dom, 2, 2))

    def run():
        return reguli.cone_decompose(line)

    def check(cone) -> bool:
        return (basis(cone.kernel) == ker and cone.vertex.dim == 0
                and cone.exact is False and cone.u_prime.dim == 1)

    return Job("cone", run, check, ["cone", _q_jsonable(alpha)])


def _quat_regulus_job(rng, ch2) -> Job:
    """regulus_through two complements, then TransversalSet.contains on
    six transversals span{z*alpha, z*beta + z} for sampled rational z,
    and on four planes meeting W trivially (never transversals)."""
    while True:
        g1, g2 = _rand_q2(rng), _rand_q2(rng)
        alpha = tuple(tuple(_qadd(y, _qneg(x)) for x, y in zip(r1, r2))
                      for r1, r2 in zip(g1, g2))
        if _q2_invertible(alpha):
            break
    dom = ch2.domain
    cands, expected = [], []
    for _ in range(6):
        while True:
            z = (_rand_q(rng, real=True), _rand_q(rng, real=True))
            if any(z[0]) or any(z[1]):
                break
        v1 = _row_times(z, alpha) + (Q0, Q0)
        v2 = _row_times(z, g1) + z
        cands.append([v1, v2])
        expected.append(True)
    for _ in range(4):
        u_part = _rand_q2(rng, invertible=True)
        w_part = _rand_q2(rng)
        cands.append([w_part[i] + u_part[i] for i in range(2)])
        expected.append(False)
    order = list(range(len(cands)))
    rng.shuffle(order)
    cands = [cands[i] for i in order]
    expected = [expected[i] for i in order]
    planes = [projective.Subspace.from_rows(dom, 4, rows) for rows in cands]
    c1, c2 = ch2.coord(g1), ch2.coord(g2)

    def run():
        ts = reguli.transversals_of(reguli.regulus_through(c1, c2))
        return [ts.contains(t) for t in planes]

    return Job("regulus", run, lambda r: r == expected,
               ["regulus", _q_jsonable([g1, g2, cands])])


def _quat_roundtrip_job(rng, ch2) -> Job:
    gamma = _rand_q2(rng)
    coord = ch2.coord(gamma)

    def run():
        return ch2.coordinate_of(ch2.complement(coord))

    return Job("roundtrip", run, lambda c: payloads(c.gamma) == gamma,
               ["roundtrip", _q_jsonable(gamma)])


def make_quat_sampled(seed: int, workdir: str) -> list:
    q = algebra.Quaternions()
    ch2, ch3 = chart.symmetric_chart(q, 2), chart.symmetric_chart(q, 3)
    rng = random.Random(seed)
    blocks = []
    for _ in range(48):
        block = [_quat_mcs2_job(rng, ch2), _quat_mcs2_job(rng, ch2),
                 _quat_mcs3_job(rng, ch3), _quat_mcs3_job(rng, ch3),
                 _quat_charts_equal_job(rng, ch2), _quat_charts_equal_job(rng, ch2),
                 _quat_cone_job(rng, ch2), _quat_cone_job(rng, ch2),
                 _quat_roundtrip_job(rng, ch2), _quat_regulus_job(rng, ch2)]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


WORKLOADS = {
    w.name: w for w in (
        Workload("reguli-gf3",
                 "GF(3)^4 reguli, coordinate_of and reconstruction: chart, subspace "
                 "lattice, rref and prime-field scalars do the work; no hyperplane scan",
                 make_reguli_gf3, 1.0),
        Workload("spreads-cli-gf4",
                 "in-process CLI on GF(4)^4 dual-spread files: hyperplane scans, "
                 "GF(p^k) polynomial arithmetic and config/JSON I/O; no coordinate_of",
                 make_spreads_cli_gf4, 0.35),
        Workload("quat-sampled",
                 "Quat(Q) central subspaces, cones, charts_equal and reguli: the "
                 "noncommutative ZStructure and Fraction path; no finite-field tables",
                 make_quat_sampled, 1.0),
    )
}
