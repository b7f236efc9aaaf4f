"""Independent answers for the benchmark's output checks.

Nothing here imports toricbound. Every routine decides its question by a
route of its own: rank-2 Hilbert bases by Hirzebruch-Jung continued
fractions, higher-rank cone membership by supporting hyperplanes and
Caratheodory subsets, lattice-point counts fibre by fibre, toric-surface
facts from the wheel relation v_{i-1} + v_{i+1} = b_i v_i, and the inertia of
intersection matrices from the positions of rays (the geometric route of
the paper's chain classification).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import ceil, floor, gcd

P2_RAYS = ((1, 0), (0, 1), (-1, -1))


class CheckFailed(AssertionError):
    """A job's output disagrees with the independent answer."""


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# -- vectors -------------------------------------------------------------------


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def perp(v):
    return (-v[1], v[0])


# -- rank 2 cones --------------------------------------------------------------


def in_cone2(gens, p) -> bool:
    """p in cone(gens), rank 2, by decomposition over generator pairs."""
    if p == (0, 0):
        return True
    for g in gens:
        if cross(g, p) == 0 and dot(g, p) > 0:
            return True
    for a, b in combinations(gens, 2):
        d = cross(a, b)
        if d == 0:
            continue
        s, t = Fraction(cross(p, b), d), Fraction(cross(a, p), d)
        if s >= 0 and t >= 0:
            return True
    return False


def _ext_gcd(a, b):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def hj_hilbert_basis2(u, v) -> list:
    """Hilbert basis of the pointed 2-dimensional cone(u, v) by the
    Hirzebruch-Jung continued fraction (Fulton, Introduction to Toric
    Varieties, 2.6). u and v need not be primitive or ordered."""
    u, v = primitive(u), primitive(v)
    d = cross(u, v)
    if d == 0:
        raise ValueError("rays are parallel")
    if d < 0:
        u, v, d = v, u, -d
    # complete u to a basis (u, w) with cross(u, w) = 1
    g, x, y = _ext_gcd(u[0], u[1])
    w = (-y, x)
    # v = a*u + d*w; shear so that 0 <= a < d (coordinates of v in (u, w))
    a = (v[0] * w[1] - v[1] * w[0])
    p = a % d
    shift = (a - p) // d  # v = p*u + d*(w + shift*u)
    w = (w[0] + shift * u[0], w[1] + shift * u[1])

    def back(c):  # coordinates (X, Y) in the basis (u, w)
        return (c[0] * u[0] + c[1] * w[0], c[0] * u[1] + c[1] * w[1])

    if d == 1:
        return sorted({u, v})
    # cone((1,0),(p,d)) = T^-1 cone(e2, d*e1 - k*e2) with k = d - p and
    # T^-1 = [[1, 1], [1, 0]]; there u_0 = e2, u_1 = e1,
    # u_{i+1} = a_i u_i - u_{i-1} with d/k = a_1 - 1/(a_2 - ...)
    k = d - p
    seq = [(0, 1), (1, 0)]
    num, den = d, k
    while den:
        ai = -(-num // den)
        prev, cur = seq[-2], seq[-1]
        seq.append((ai * cur[0] - prev[0], ai * cur[1] - prev[1]))
        num, den = den, ai * den - num
    expect(seq[-1] == (d, -k), "continued fraction did not end on the second ray")
    out = [back((f[0] + f[1], f[0])) for f in seq]
    return sorted(set(out))


def cone2_rays(cands):
    """The two boundary rays of a pointed rank-2 cone given by candidate
    vectors that lie in it and include both boundary rays."""
    cands = list(dict.fromkeys(primitive(c) for c in cands if c != (0, 0)))
    if not cands:
        return []
    right = [c for c in cands if all(cross(c, o) >= 0 for o in cands)]
    left = [c for c in cands if all(cross(o, c) >= 0 for o in cands)]
    rays = [right[0]] + ([left[0]] if left[0] != right[0] else [])
    return rays


def hilbert_basis2_of(rays):
    """Hilbert basis of a pointed rank-2 cone with 0, 1 or 2 boundary rays."""
    if not rays:
        return []
    if len(rays) == 1:
        return [rays[0]]
    return hj_hilbert_basis2(rays[0], rays[1])


def bounded_basis(sigma_gens, gammas=None, v=None):
    """Hilbert basis of sigma* ∩ cone(gammas) (binomial set) or of
    sigma* ∩ {m : <m, v> >= 0} (tentacle), for full-dimensional sigma."""
    cands = [perp(s) for s in sigma_gens] + [perp(sub((0, 0), s)) for s in sigma_gens]
    if gammas is not None:
        cands += list(gammas)

        def inside(m):
            return all(dot(m, s) >= 0 for s in sigma_gens) and in_cone2(gammas, m)
    else:
        cands += [perp(v), perp(sub((0, 0), v))]

        def inside(m):
            return all(dot(m, s) >= 0 for s in sigma_gens) and dot(m, v) >= 0

    return hilbert_basis2_of(cone2_rays([c for c in cands if c != (0, 0) and inside(c)]))


# -- adapted fans and filtration levels -----------------------------------------


def k0_boundary_rays(gammas) -> list:
    """Boundary rays of K0 = {u : <gamma_i, u> >= 0} for one gamma or two
    independent ones."""
    if len(gammas) == 1:
        p = primitive(perp(gammas[0]))
        return [p, (-p[0], -p[1])]
    g1, g2 = gammas
    r1 = primitive(perp(g1))
    if dot(g2, r1) < 0:
        r1 = (-r1[0], -r1[1])
    r2 = primitive(perp(g2))
    if dot(g1, r2) < 0:
        r2 = (-r2[0], -r2[1])
    return [r1, r2]


def level_constraints(sigma_gens, rays, in_k0):
    """(u, offset) for the kept rays: offset 0 on sigma, n (symbolic 1) off it."""
    out = []
    for u in dict.fromkeys(primitive(r) for r in rays):
        in_sigma = in_cone2(sigma_gens, u)
        if in_sigma or in_k0(u):
            out.append((u, 0 if in_sigma else 1))
    return out


def count_level(cons, n) -> int:
    """Lattice points of {beta : <beta, u> >= -n*o} (a bounded polygon),
    counted fibre by fibre over the first coordinate."""
    verts = []
    for (u1, o1), (u2, o2) in combinations(cons, 2):
        d = cross(u1, u2)
        if d == 0:
            continue
        r1, r2 = -n * o1, -n * o2
        x = Fraction(r1 * u2[1] - r2 * u1[1], d)
        y = Fraction(u1[0] * r2 - u2[0] * r1, d)
        if all(u[0] * x + u[1] * y >= -n * o for u, o in cons):
            verts.append((x, y))
    if not verts:
        return 0
    total = 0
    for x in range(floor(min(p[0] for p in verts)), ceil(max(p[0] for p in verts)) + 1):
        lo, hi = None, None
        ok = True
        for (a, b), o in cons:
            rhs = -n * o - a * x  # b*y >= rhs
            if b > 0:
                t = -((-rhs) // b)
                lo = t if lo is None else max(lo, t)
            elif b < 0:
                t = rhs // b
                hi = t if hi is None else min(hi, t)
            elif rhs > 0:
                ok = False
        if ok and lo is not None and hi is not None and hi >= lo:
            total += hi - lo + 1
    return total


def in_level(cons, n, beta) -> bool:
    return all(dot(u, beta) >= -n * o for u, o in cons)


# -- smooth toric surfaces -------------------------------------------------------


def sort_ccw(rays):
    """Primitive rays sorted counterclockwise from the direction (1, 0)."""

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return ha - hb
        c = cross(a, b)
        return -1 if c > 0 else (1 if c < 0 else 0)

    return sorted(set(primitive(r) for r in rays), key=cmp_to_key(cmp))


def wheel_b(rays) -> list:
    """b_i with rays[i-1] + rays[i+1] = b_i * rays[i] for a smooth complete fan
    in counterclockwise order."""
    m = len(rays)
    out = []
    for i in range(m):
        s = (rays[i - 1][0] + rays[(i + 1) % m][0], rays[i - 1][1] + rays[(i + 1) % m][1])
        v = rays[i]
        b = s[0] // v[0] if v[0] else s[1] // v[1]
        expect((b * v[0], b * v[1]) == s, f"wheel relation fails at ray {v}")
        out.append(b)
    return out


def is_smooth_complete(rays) -> bool:
    m = len(rays)
    return m >= 3 and all(cross(rays[i], rays[(i + 1) % m]) == 1 for i in range(m))


def chain_inertia(rays, run) -> tuple:
    """Inertia of the intersection matrix of the consecutive ray indices in
    run (a proper arc of the wheel), from the positions of its end rays."""
    m = len(rays)
    n = len(run)
    if n == m - 1:  # the one ray left out: singular, one positive eigenvalue
        return (1, n - 2, 1)
    v0 = rays[(run[0] - 1) % m]
    v1 = rays[run[0]]
    vlast = rays[(run[-1] + 1) % m]
    if vlast == (-v0[0], -v0[1]):
        return (0, n - 1, 1)
    if (cross(v0, v1) > 0) == (cross(v0, vlast) > 0):
        return (0, n, 0)
    return (1, n - 1, 0)


def selection_inertia(rays, T) -> tuple:
    """Inertia of the intersection matrix of the divisors T of a smooth
    complete surface: a sum over the maximal consecutive runs of T."""
    m = len(rays)
    T = sorted(set(T))
    if len(T) == m:
        return (1, m - 3, 2)
    start = next(i for i in range(m) if i not in T)
    runs, cur = [], []
    for k in range(1, m + 1):
        i = (start + k) % m
        if i in T:
            cur.append(i)
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    tot = [0, 0, 0]
    for run in runs:
        for j, x in enumerate(chain_inertia(rays, run)):
            tot[j] += x
    return tuple(tot)


def complement_trdeg(rays, T) -> int:
    """Transcendence degree from the cone of the rays outside T: full plane
    0, half-plane or line 1, salient 2."""
    comp = [rays[i] for i in range(len(rays)) if i not in set(T)]
    if not comp:
        return 2
    # a finite set positively spans the plane iff no closed half-plane holds it
    def in_half(m):
        return all(dot(m, c) >= 0 for c in comp)

    normals = [perp(c) for c in comp] + [perp((-c[0], -c[1])) for c in comp]
    halves = [m for m in normals if in_half(m)]
    if not halves:
        return 0
    # the cone contains a line iff some c and -c both lie in it
    for c in comp:
        neg = (-c[0], -c[1])
        if in_cone2(comp, neg):
            return 1
    return 2


# -- matrices --------------------------------------------------------------------


def mat_vec(a, m):
    return [sum(Fraction(x) * y for x, y in zip(row, m)) for row in a]


# -- higher-rank cones -------------------------------------------------------------


def solve(rows, rhs):
    """Exact solution of a square nonsingular system, or None."""
    n = len(rows)
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c] / aug[c][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def det(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    n, d = len(rows), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


def in_cone_caratheodory(rays, p) -> bool:
    """p in cone(rays) iff p is a nonnegative combination of some linearly
    independent subset of the rays (Caratheodory)."""
    n = len(p)
    if all(x == 0 for x in p):
        return True
    for size in range(1, n + 1):
        for subset in combinations(rays, size):
            cols = list(subset)
            # independent columns: the solution of any nonsingular square
            # minor is the only candidate; test it on every row
            for rowsel in combinations(range(n), size):
                minor = [[c[r] for c in cols] for r in rowsel]
                if det(minor) == 0:
                    continue
                t = solve(minor, [p[r] for r in rowsel])
                if all(x >= 0 for x in t) and all(
                    sum(t[j] * cols[j][r] for j in range(size)) == p[r] for r in range(n)
                ):
                    return True
                break
    return False


def facet_normals(rays) -> list:
    """Inner normals of the facets of a full-dimensional pointed cone."""
    n = len(rays[0])
    out = set()
    for sub_ in combinations(rays, n - 1):
        # generalized cross product: cofactors of the (n-1) x n matrix
        w = []
        for j in range(n):
            minor = [[r[c] for c in range(n) if c != j] for r in sub_]
            w.append((-1) ** j * int(det(minor)))
        if all(x == 0 for x in w):
            continue
        w = primitive(tuple(w))
        sides = [dot(w, r) for r in rays]
        if all(s >= 0 for s in sides):
            out.add(w)
        elif all(s <= 0 for s in sides):
            out.add(tuple(-x for x in w))
    return sorted(out)


def covers_box(basis, normals, bound) -> bool:
    """Every lattice point of the cone in [-bound, bound]^n is a nonnegative
    integer combination of the basis: grow sums from 0 under a grading."""
    n = len(basis[0])
    grading = tuple(sum(w[c] for w in normals) for c in range(n))
    weights = [dot(grading, h) for h in basis]
    expect(all(x > 0 for x in weights), "grading not positive on the basis")
    targets = [
        p for p in product(range(-bound, bound + 1), repeat=n)
        if all(dot(w, p) >= 0 for w in normals)
    ]
    top = max(dot(grading, p) for p in targets)
    reached = {tuple([0] * n)}
    frontier = list(reached)
    while frontier:
        nxt = []
        for x in frontier:
            for h, wh in zip(basis, weights):
                y = tuple(a + b for a, b in zip(x, h))
                if y not in reached and dot(grading, y) <= top:
                    reached.add(y)
                    nxt.append(y)
        frontier = nxt
    return all(p in reached for p in targets)


# -- Laurent polynomials (rank 2 basic sets) ---------------------------------------


def initial_terms(terms, u):
    """Terms of smallest u-degree."""
    dmin = min(dot(e, u) for e, _ in terms)
    return [(e, c) for e, c in terms if dot(e, u) == dmin]


def evaluate(terms, pt) -> Fraction:
    total = Fraction(0)
    for e, c in terms:
        val = Fraction(c)
        for x, k in zip(pt, e):
            val *= Fraction(x) ** k
        total += val
    return total


def interior_witness(polys, u, grid) -> bool:
    """Some grid point makes every initial form along u positive."""
    forms = [initial_terms(f, u) for f in polys]
    return any(
        all(evaluate(f, pt) > 0 for f in forms)
        for pt in grid if all(x != 0 for x in pt)
    )


def basic_fan_rays(sigma_gens, polys) -> list:
    rays = list(sigma_gens) + list(P2_RAYS)
    for f in polys:
        for (a, _), (b, _) in combinations(f, 2):
            d = sub(a, b)
            if d == (0, 0):
                continue
            p = primitive(perp(d))
            rays += [p, (-p[0], -p[1])]
    return sort_ccw(rays)
