"""Seeded job lists for the four workloads.

A job is one in-process ``cli.main(argv)`` call fed through ``--input -``
from an in-memory stdin, or, for the three library functions that have no
command (``semigroup_contains``, ``chain_classify``, ``positive_combination``),
one direct library call. Every job carries a check that compares its output
with an answer computed in ``oracles`` without the program. Checks compute
their answers when they are called, on the first pass of a run, so building
the jobs costs input generation only.

Each workload is built from blocks of jobs whose cost is set by fixed size
parameters: the seed picks the concrete vectors (lattice symmetries, random
rays, grid values, divisor selections) and the order, not the sizes. The
block sizes put the median and the 90th percentile of job time in the middle
of a block of jobs of one nominal size (block M and block T), so that neither
falls on the step between two size classes. The composition of every block is
listed in README.md.
"""

from __future__ import annotations

import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import oracles as O
from oracles import expect

import toricbound.cli as cli
import toricbound.cones as cones
import toricbound.fans as fans
import toricbound.hilbert as hilbert
import toricbound.linalg as linalg
import toricbound.surface as surface


@dataclass
class Job:
    label: str
    run: Callable[[], str]
    check: Callable[[str], None]
    # the named fault: this job raises it on every run (see README.md)
    fault: type | None = None


# -- helpers ---------------------------------------------------------------------


def vs(v):
    return [str(x) for x in v]


def cone_json(gens, side):
    return {"rank": len(gens[0]), "side": side, "generators": [vs(g) for g in gens]}


def run_cli(argv: list, text: str) -> str:
    """One in-process CLI call; returns the exit code and the report."""
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = cli.main(argv + ["--input", "-"])
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return f"{code}\n{out}"


def cli_job(label, argv, payload, check_report) -> Job:
    text = json.dumps(payload)

    def run():
        return run_cli(argv, text)

    def check(out):
        code, _, body = out.partition("\n")
        expect(code == "0", f"{label}: exit code {code}")
        check_report(json.loads(body))

    return Job(label, run, check)


def vecs(js):
    return [tuple(int(x) for x in v) for v in js]


def symmetry(rng, n):
    """A seeded signed permutation of Z^n. It maps boxes to boxes, so it
    changes the input but not the size of the box scans."""
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return lambda v: tuple(signs[i] * v[perm[i]] for i in range(n))


def all_symmetries(rng):
    """The eight signed permutations of Z^2 in seeded order. A block that
    uses each once has the same cost mix on every seed: the order in which
    the Hilbert basis filter meets candidates depends on the signs."""
    gs = [lambda v, p=p, s=s: (s[0] * v[p[0]], s[1] * v[p[1]])
          for p in ((0, 1), (1, 0)) for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    rng.shuffle(gs)
    return gs


# -- semigroups ------------------------------------------------------------------


def check_rank2_basis(rays):
    def check(rep):
        expect(rep["lineality"] == [], "unexpected lineality")
        expect(sorted(vecs(rep["generators"])) == O.hj_hilbert_basis2(*rays), f"basis of cone{tuple(rays)} differs from HJ")

    return check


def check_simplicial_basis(rays, box):
    def check(rep):
        normals = O.facet_normals(rays)
        basis = vecs(rep["generators"])
        expect(rep["lineality"] == [], "unexpected lineality")
        for r in rays:
            expect(O.primitive(r) in basis, f"ray {r} missing from the basis")
        for h in basis:
            expect(O.in_cone_caratheodory(rays, h), f"{h} outside the cone")
        for a in basis:
            for b in basis:
                if a != b:
                    d = O.sub(a, b)
                    expect(not all(O.dot(w, d) >= 0 for w in normals), f"{a} reducible by {b}")
        expect(O.covers_box(basis, normals, box), f"basis misses a point of the box {box}")

    return check


def rank2_answer(k):  # det k, Hilbert basis of k + 1 elements
    return [(1, 0), (1 - k, k)]


def rank2_box(k):  # det 3k + 1, Hilbert basis of 5 elements
    return [(1, 0), (k, 3 * k + 1)]


def hilbert_job(label, rays, extra=(), check=None):
    return cli_job(label, ["hilbert", *extra], cone_json(rays, "M"), check)


def random_simplicial(rng, n, lo, hi):
    """e_1..e_{n-1} and one seeded last ray whose parallelepiped box has
    between lo and hi lattice points."""
    while True:
        w = [rng.randint(1, 6) for _ in range(n - 1)] + [rng.randint(3, 13)]
        vol = 1
        for x in w:
            vol *= x + 1
        if lo <= vol <= hi and O.primitive(tuple(w)) == tuple(w):
            return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n - 1)] + [tuple(w)]


SMALL_CONES = [[(1, 0), (1, 2)], [(1, 0), (1, 3)], [(1, 1), (-1, 2)], [(2, 1), (1, 3)],
               [(1, 0), (-1, 3)], [(1, -1), (1, 2)], [(3, 1), (1, 2)], [(1, 0), (2, 3)]]

FAR_POINTS = [([(1, 0), (1, 2)], (1000, 1000)), ([(1, 0), (1, 3)], (1500, 2000)),
              ([(2, 1), (1, 3)], (2000, 2500))]


def membership_job(label, rays, points, fault=None):
    def run():
        basis = hilbert.hilbert_basis(cones.RationalCone.from_generators(rays, 2, "M"))
        return json.dumps([hilbert.semigroup_contains(basis, p) for p in points])

    def check(out):
        want = [O.in_cone2(rays, p) for p in points]
        expect(json.loads(out) == want, f"membership in cone{tuple(rays)} differs from cone membership")

    return Job(label, run, check, fault)


def semigroups(rng):
    jobs = []
    for i, g in enumerate(all_symmetries(rng)):  # block T: the box scan and pairwise filter at det 60
        rays = [g(r) for r in rank2_answer(59 + i % 3)]
        jobs.append(hilbert_job("hilbert r2 answer-sized det 59-61", rays, check=check_rank2_basis(rays)))
    for g in all_symmetries(rng):  # block M
        rays = [g(r) for r in rank2_box(14)]
        jobs.append(hilbert_job("hilbert r2 box-sized det 43", rays, check=check_rank2_basis(rays)))
    for k in (28, 30):  # block U
        g = symmetry(rng, 2)
        rays = [g(r) for r in rank2_box(k)]
        jobs.append(hilbert_job(f"hilbert r2 box-sized det {3 * k + 1}", rays, check=check_rank2_basis(rays)))
    for k in (36, 42):
        g = symmetry(rng, 2)
        rays = [g(r) for r in rank2_answer(k)]
        jobs.append(hilbert_job(f"hilbert r2 answer-sized det {k}", rays, check=check_rank2_basis(rays)))
    for box, rays in ((20, SMALL_CONES[1]), (22, SMALL_CONES[0])):  # coverage of about 110 ms each
        g = symmetry(rng, 2)
        rays = [g(r) for r in rays]
        base = check_rank2_basis(rays)

        def check(rep, base=base, box=box):
            base(rep)
            expect(rep.get("verified_box") == box, "coverage not reported")

        jobs.append(hilbert_job(f"hilbert --box {box}", rays, ["--box", str(box)], check))
    for _ in range(2):
        rays = random_simplicial(rng, 4, 240, 264)
        g = symmetry(rng, 4)
        rays = [g(r) for r in rays]
        jobs.append(hilbert_job("hilbert r4 box 240-264", rays, check=check_simplicial_basis(rays, 2)))
    for k in (8, 12, 16, 20):  # block L
        g = symmetry(rng, 2)
        rays = [g(r) for r in rank2_answer(k)]
        jobs.append(hilbert_job(f"hilbert r2 answer-sized det {k}", rays, check=check_rank2_basis(rays)))
    for _ in range(4):
        rays = random_simplicial(rng, 3, 84, 104)
        g = symmetry(rng, 3)
        rays = [g(r) for r in rays]
        jobs.append(hilbert_job("hilbert r3 box 84-104", rays, check=check_simplicial_basis(rays, 3)))
    for _ in range(8):
        rays = rng.choice(SMALL_CONES)
        pts = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(12)]
        jobs.append(membership_job("semigroup_contains near", rays, pts))
    for rays, far in FAR_POINTS:  # fixed inputs: the named fault
        jobs.append(membership_job("semigroup_contains far", rays, [far], RecursionError))
    return jobs


# -- levels ----------------------------------------------------------------------

ORTHANT = [(1, 0), (0, 1)]
# (sigma, tentacle v) with -v inside sigma: sigma + K(S) is the plane
FINITE_TENTACLES = [(ORTHANT, (-1, -2)), (ORTHANT, (-2, -1)), ([(1, 0), (1, 2)], (-2, -3)),
                    ([(1, -1), (1, 1)], (-2, 1))]
FINITE_BINOMIALS = [(ORTHANT, [(-1, -2), (-3, -1)]), (ORTHANT, [(-1, -1)]),
                    ([(1, 0), (1, 2)], [(-2, 1)])]
# nontrivial B(S): infinite levels
INFINITE_TENTACLES = [(ORTHANT, (1, -1)), (ORTHANT, (2, -1)), ([(1, 0), (1, 2)], (1, 1))]
INFINITE_BINOMIALS = [(ORTHANT, [(2, 1)]), (ORTHANT, [(1, 2), (3, 1)]), ([(1, -1), (1, 1)], [(1, 0)])]


def level_problem(sigma, gammas=None, v=None):
    """The payload of the problem and a function that gives its level
    constraints, from the adapted fan's rays."""
    rays = list(sigma) + list(O.P2_RAYS)
    if gammas is not None:
        rays += O.k0_boundary_rays(gammas)

        def in_k0(u):
            return all(O.dot(g, u) >= 0 for g in gammas)
        body = {"type": "binomial", "gammas": [vs(g) for g in gammas],
                "constants": ["1", "2"][:len(gammas)]}
    else:
        rays += [v, (-v[0], -v[1])]

        def in_k0(u):
            return O.primitive(u) == O.primitive(v)
        body = {"type": "tentacle", "v": vs(v)}
    payload = {"sigma": cone_json(sigma, "N"), "set": body}
    return payload, lambda: O.level_constraints(sigma, rays, in_k0)


def check_levels(levels, cons, base, nmax, triangle=False):
    expect([lv["n"] for lv in levels] == list(range(nmax + 1)), "level indices")
    for lv in levels:
        n = lv["n"]
        gens = vecs(lv["module_generators"])
        expect(lv["module_rank"] == len(gens), "module rank")
        for g in gens:
            expect(O.in_level(cons, n, g), f"module generator {g} outside level {n}")
            for h in base:
                expect(not O.in_level(cons, n, O.sub(g, h)), f"module generator {g} not minimal")
        if base:
            expect(lv["dim"] == "infinite", f"level {n} should be infinite")
        else:
            dim = O.count_level(cons, n)
            expect(lv["dim"] == str(dim), f"level {n}: dim {lv['dim']} != {dim}")
            expect(len(gens) == dim, f"level {n}: generators are not all lattice points")
            if triangle:
                expect(dim == (n + 1) * (n + 2) // 2, f"level {n}: not (n+1)(n+2)/2")


def level_job(rng, kind, problem, nmax, triangle=False, g=None):
    sigma, data = problem
    g = g or symmetry(rng, 2)
    sigma = [g(s) for s in sigma]
    if isinstance(data, list):
        gammas, v = [g(x) for x in data], None
    else:
        gammas, v = None, g(data)
    payload, constraints = level_problem(sigma, gammas, v)

    def check(rep):
        base = O.bounded_basis(sigma, gammas, v)
        plane = not base
        expect(sorted(vecs(rep["bounded_basis"]["generators"])) == base, "bounded basis differs from HJ")
        if kind == "stability":
            expect(rep["verdict"] == ("TotallyStable" if plane else "NotApplicable"), "stability verdict")
            if not plane:
                return
        check_levels(rep["levels"], constraints(), base, nmax, triangle)

    what = "tentacle" if v is not None else "binomial"
    return cli_job(f"{kind} {what} nmax {nmax}", [kind, "--nmax", str(nmax)], payload, check)


def levels(rng):
    jobs = []
    diag = (ORTHANT, (-1, -1))
    for g in all_symmetries(rng):  # block T: tentacle (-1,-1), dims (n+1)(n+2)/2
        jobs.append(level_job(rng, "stability", diag, 34, triangle=True, g=g))
    for g in all_symmetries(rng):  # block M
        jobs.append(level_job(rng, "filtration", INFINITE_BINOMIALS[0], 20, g=g))
    for problem in FINITE_TENTACLES:  # block U
        jobs.append(level_job(rng, "stability", problem, 22))
        jobs.append(level_job(rng, "filtration", INFINITE_BINOMIALS[0], 27))
    for i in range(8):  # block L
        nmax = 2 + i * 5 // 7
        jobs.append(level_job(rng, "stability", rng.choice(FINITE_TENTACLES + FINITE_BINOMIALS), nmax))
        jobs.append(level_job(rng, "filtration", rng.choice(INFINITE_TENTACLES + INFINITE_BINOMIALS[1:]),
                              nmax))
    return jobs


# -- surfaces --------------------------------------------------------------------

BASE_FANS = [[(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, 0), (0, -1)],
             [(1, 0), (0, 1), (-1, 2), (0, -1)], [(1, 0), (0, 1), (-1, 3), (0, -1)]]


def smooth_fan(rng, blowups):
    """A smooth complete fan: a base surface blown up at seeded fixed points."""
    rays = O.sort_ccw(rng.choice(BASE_FANS))
    for _ in range(blowups):
        i = rng.randrange(len(rays))
        a, b = rays[i], rays[(i + 1) % len(rays)]
        rays = O.sort_ccw(rays + [(a[0] + b[0], a[1] + b[1])])
    return rays


def intersection_rows(rays, T):
    b = O.wheel_b(rays)
    m = len(rays)
    return [[-b[i] if i == j else (1 if (i - j) % m in (1, m - 1) else 0) for j in T] for i in T]


def check_inertia(answer):
    """answer() gives the expected inertia."""
    def check(rep):
        want = answer()
        expect(tuple(rep["inertia"]) == want, f"inertia {rep['inertia']} != {list(want)}")
    return check


def congruence_job(rng, n, density):
    """P^T D P with D diagonal and P unit upper triangular: inertia of D.
    D cycles through -3..3 and P has a fixed number of entries +-1, both in
    seeded places, so the size of the elimination does not depend on the
    seed."""
    d = [(-3, -2, -1, 0, 1, 2, 3)[i % 7] for i in range(n)]
    rng.shuffle(d)
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ones = set(rng.sample(upper, round(density * len(upper))))
    p = [[(k, 1)] + [(j, rng.choice((-1, 1))) for j in range(k + 1, n) if (k, j) in ones]
         for k in range(n)]  # the nonzero entries (j, P[k][j]) of each row of P
    rows = [[0] * n for _ in range(n)]
    for k, row in enumerate(p):  # P^T D P as the sum of d_k (row k)^T (row k)
        for i, a in row:
            for j, b in row:
                rows[i][j] += a * d[k] * b
    want = (sum(x > 0 for x in d), sum(x < 0 for x in d), sum(x == 0 for x in d))
    return cli_job(f"inertia congruence {n}", ["inertia"], [vs(r) for r in rows],
                   check_inertia(lambda: want))


def resolve_job(rng, extra, bound):
    rays = list(O.P2_RAYS)
    while len(set(O.primitive(r) for r in rays)) < 3 + extra:
        r = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if r != (0, 0):
            rays.append(r)
    given = set(O.primitive(r) for r in rays)

    def check(rep):
        out = vecs(rep["rays"])
        expect(rep["complete"] is True, "resolution not complete")
        expect(out == O.sort_ccw(out), "rays not in counterclockwise order")
        expect(O.is_smooth_complete(out), "resolution not smooth")
        expect(given <= set(out), "resolution dropped an input ray")
        for r, b in zip(out, O.wheel_b(out)):
            expect(r in given or b >= 2, f"added ray {r} has b = {b} < 2")

    return cli_job(f"resolve-fan {3 + extra} rays", ["resolve-fan"], {"rays": [vs(r) for r in rays]}, check)


def classify_job(rng, blowups):
    rays = smooth_fan(rng, blowups)
    T = sorted(rng.sample(range(len(rays)), rng.randint(1, len(rays) - 1)))

    def check(rep):
        want_tr, want_in = O.complement_trdeg(rays, T), O.selection_inertia(rays, T)
        expect(rep["trdeg"] == want_tr, f"trdeg {rep['trdeg']} != {want_tr}")
        expect(tuple(rep["inertia"]) == want_in, f"inertia {rep['inertia']} != {list(want_in)}")

    payload = {"fan": {"rays": [vs(r) for r in rays]}, "T": [vs(rays[i]) for i in T]}
    return cli_job(f"surface-classify {len(rays)} rays", ["surface-classify"], payload, check)


def chain_job(rng, blowups):
    rays = smooth_fan(rng, blowups)
    m = len(rays)
    start, n = rng.randrange(m), rng.randint(1, min(5, m - 3))
    chain = [start + i for i in range(n + 2)]

    def run():
        surf = surface.ToricSurface.from_fan(fans.make_fan(rays))
        return surface.chain_classify(surf, chain).value

    def check(out):
        inert = O.chain_inertia(rays, [(start + 1 + i) % m for i in range(n)])
        want = {(0, n, 0): "NegativeDefinite", (0, n - 1, 1): "SemidefiniteSingular",
                (1, n - 1, 0): "Indefinite"}[inert]
        expect(out == want, f"chain class {out} != {want}")

    return Job(f"chain_classify {n}", run, check)


def poscomb_job(bs):
    n = len(bs)
    rows = [[-bs[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]

    def run():
        return json.dumps(surface.positive_combination(linalg.SymmetricRationalMatrix(rows)))

    def check(out):
        m = json.loads(out)
        expect(len(m) == n and all(isinstance(x, int) and x >= 1 for x in m), f"bad multiplicities {m}")
        expect(all(x < 0 for x in O.mat_vec(rows, m)), f"A*m not negative for {m}")

    return Job(f"positive_combination {n}", run, check)


def surfaces(rng):
    jobs = [poscomb_job([2] * 5) for _ in range(2)]  # block X: the chain of five -2 curves
    for _ in range(8):  # block T
        jobs.append(congruence_job(rng, 48, 0.1))
    for _ in range(8):  # block M
        jobs.append(congruence_job(rng, 22, 0.1))
    for _ in range(8):  # block U
        jobs.append(resolve_job(rng, 7, 14))
        rays = smooth_fan(rng, 24)
        T = sorted(rng.sample(range(len(rays)), len(rays) - rng.randint(0, 2)))
        jobs.append(cli_job(f"inertia intersection {len(T)}", ["inertia"],
                            [vs(r) for r in intersection_rows(rays, T)],
                            check_inertia(lambda rays=rays, T=T: O.selection_inertia(rays, T))))
    for _ in range(8):  # block L
        jobs.append(classify_job(rng, 6))
    for _ in range(6):
        jobs.append(chain_job(rng, 5))
    for n in (1, 2, 3, 4):
        jobs.append(poscomb_job([rng.choice((2, 3)) for _ in range(n)]))
        jobs.append(poscomb_job([2] * n))
    for _ in range(4):
        jobs.append(congruence_job(rng, 8, 0.2))
    return jobs


# -- tc-grid ---------------------------------------------------------------------

GRID_POOL = ["1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "1/3", "-1/3", "3/2", "-3/2",
             "2/3", "-2/3", "4", "-4", "1/4", "-1/4", "5/2", "-5/2"]


def grid_spec(size):
    """The first values of the pool: the six default values and then whole
    +- pairs. The seed does not pick them, because the cost of a grid depends
    on its values (tc-check sorts them, so their order would change nothing)."""
    return ",".join(GRID_POOL[:size])


def grid_points(spec):
    vals = sorted(set(Fraction(x) for x in spec.split(",")))
    return list(product(vals, repeat=2))


def poly_json(terms):
    return {"terms": [{"exp": vs(e), "coef": str(c)} for e, c in terms]}


def basic_payload(sigma, polys):
    return {"sigma": {"rank": 2, "side": "N", "generators": [vs(s) for s in sigma]},
            "set": {"type": "basic", "polys": [poly_json(f) for f in polys]}}


def corpus_polys(name):
    inp = cli.corpus_entry(name)["input"]
    sigma = vecs(inp["sigma"]["generators"])
    polys = [[(tuple(int(x) for x in t["exp"]), Fraction(t["coef"])) for t in p["terms"]]
             for p in inp["set"]["polys"]]
    return inp, sigma, polys


def tc_job(label, payload, sigma, polys, spec, rule):
    """tc-check; rule(report) is the workload-specific verdict check. Any
    Verified report must have an interior witness on every ray outside sigma,
    and a Violated witness must be a fan ray outside sigma without one."""
    def check(rep):
        grid = grid_points(spec or grid_spec(6))  # the default grid
        rays = O.basic_fan_rays(sigma, polys)
        outside = [u for u in rays if not (sigma and O.in_cone2(sigma, u))]
        rule(rep)
        if rep["status"] == "Verified":
            for u in outside:
                expect(O.interior_witness(polys, u, grid), f"Verified without a witness on {u}")
        if rep["status"] == "Violated":
            w = tuple(int(x) for x in rep["witness_ray"])
            expect(w in outside, f"witness {w} is not a fan ray outside sigma")
            expect(not O.interior_witness(polys, w, grid), f"witness {w} has an interior point")

    argv = ["tc-check"] + (["--grid", spec] if spec else [])
    return cli_job(label, argv, payload, check)


def violated_minus_one(rep):
    expect(rep["status"] == "Violated" and rep["witness_ray"] == ["-1", "-1"],
           "example must be Violated with witness (-1,-1)")


def never_violated(rep):
    expect(rep["status"] != "Violated", "a binomial encoding was Violated")


def random_basic(rng):
    polys = []
    for _ in range(rng.randint(2, 3)):
        exps = rng.sample([(i, j) for i in range(-2, 3) for j in range(-2, 3)], rng.randint(2, 3))
        polys.append([(e, Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2)))) for e in exps])
    sigma = rng.choice([[], ORTHANT, [(1, 0), (1, 2)], [(1, -1), (1, 1)]])
    return sigma, polys


def encoding(rng, sigma):
    """The basic set (c_i - x^gamma_i, x, y) of a binomial set."""
    gammas = []
    while len(gammas) < rng.randint(1, 2):
        g = (rng.randint(-3, 3), rng.randint(-3, 3))
        if g != (0, 0) and all(O.cross(g, h) != 0 for h in gammas):
            gammas.append(g)
    consts = [Fraction(rng.choice((3, 5, 7)), 2) for _ in gammas]
    polys = [[((0, 0), c), (g, Fraction(-1))] for g, c in zip(gammas, consts)]
    polys += [[((1, 0), Fraction(1))], [((0, 1), Fraction(1))]]
    return gammas, consts, polys


def predicted_verified(sigma, gammas, polys):
    """Every constant exceeds 1, so a ray with <gamma_i, u> >= 0 for all i has
    the grid point (1, 1) as interior witness and any other ray has none."""
    rays = O.basic_fan_rays(sigma, polys)
    return all(O.in_cone2(sigma, u) or all(O.dot(g, u) >= 0 for g in gammas) for u in rays)


def verified_encoding(rng):
    while True:
        sigma = rng.choice([ORTHANT, [(1, 0), (1, 2)], [(1, -1), (1, 1)], [(2, -1), (-1, 2)]])
        gammas, consts, polys = encoding(rng, sigma)
        if predicted_verified(sigma, gammas, polys):
            return sigma, gammas, consts, polys


def encoding_jobs(rng, nmax):
    sigma, gammas, consts, polys = verified_encoding(rng)
    payload = basic_payload(sigma, polys)

    def check_bounded(rep):
        expect(sorted(vecs(rep["generators"])) == O.bounded_basis(sigma, gammas) and rep["lineality"] == [],
               "bounded differs from the bounded ring of the binomial set")

    def check_filtration(rep):
        expect(rep["bounded_basis"]["generators"] == [], "basic-set gate keeps only constants")
        cons = O.level_constraints(sigma, O.basic_fan_rays(sigma, polys), lambda u: True)
        check_levels(rep["levels"], cons, [], nmax)

    return [cli_job("bounded encoding", ["bounded"], payload, check_bounded),
            cli_job(f"filtration encoding nmax {nmax}", ["filtration", "--nmax", str(nmax)],
                    payload, check_filtration)]


def tc_grid(rng):
    jobs = []
    inp4, sig4, pol4 = corpus_polys("example4")
    inp3, sig3, pol3 = corpus_polys("example3")
    for _ in range(8):  # block T: example4 on a 16-value grid
        jobs.append(tc_job("tc-check example4 grid 16", inp4, sig4, pol4, grid_spec(16),
                           violated_minus_one))
    for _ in range(8):  # block M: example3 on a 10-value grid
        jobs.append(tc_job("tc-check example3 grid 10", inp3, sig3, pol3, grid_spec(10),
                           violated_minus_one))
    for size in (14, 14, 16, 16):  # block U
        jobs.append(tc_job(f"tc-check example3 grid {size}", inp3, sig3, pol3, grid_spec(size),
                           violated_minus_one))
    for size in (None, None, 8, 10):
        jobs.append(tc_job(f"tc-check example4 grid {size or 6}", inp4, sig4, pol4,
                           size and grid_spec(size), violated_minus_one))
    for _ in range(4):  # block L
        sigma, polys = random_basic(rng)
        jobs.append(tc_job("tc-check random basic", basic_payload(sigma, polys), sigma, polys, None,
                           lambda rep: None))
    for size in (None, None, 8, 10):
        sigma = rng.choice([ORTHANT, [(1, 0), (1, 2)], [(1, -1), (1, 1)]])
        gammas, consts, polys = encoding(rng, sigma)
        jobs.append(tc_job(f"tc-check encoding grid {size or 6}", basic_payload(sigma, polys), sigma,
                           polys, size and grid_spec(size), never_violated))
    for nmax in (2, 2, 3, 3):
        jobs += encoding_jobs(rng, nmax)
    return jobs


WORKLOADS = {"semigroups": semigroups, "levels": levels, "surfaces": surfaces, "tc-grid": tc_grid}


def build(workload: str, seed: int) -> list:
    """The workload's jobs for this seed, in one seeded order used by every pass."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
