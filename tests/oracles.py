"""Independent brute-force oracles used by the test suite.

Each oracle decides its question by a method disjoint from the library's own
algorithms: rank-2 cone membership by pairwise decomposition, Hilbert bases by
box enumeration with an irreducibility filter and, in rank 2, by
Hirzebruch-Jung continued fractions, matrix inertia by the exact
characteristic polynomial and Descartes' rule of signs, and lattice-point
counts, lattice points and irreducible (Dickson) points of polyhedra by
direct enumeration of a box, rational kernels by reduced row echelon form, determinants by Laplace
expansion, and the grid certificates of the compatibility check by direct
search with exactly expanded curve polynomials.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, floor, gcd, prod


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def in_cone2(gens, p) -> bool:
    """p in cone(gens) for rank-2 generators, decided by pairwise decomposition."""
    if all(x == 0 for x in p):
        return True
    for g in gens:
        if cross(g, p) == 0 and dot(g, p) > 0:
            return True
    for a in gens:
        for b in gens:
            d = cross(a, b)
            if d == 0:
                continue
            alpha = Fraction(cross(p, b), d)
            beta = Fraction(cross(a, p), d)
            if alpha >= 0 and beta >= 0:
                return True
    return False


def box_points(bound, rank=2):
    return product(range(-bound, bound + 1), repeat=rank)


def in_cone_caratheodory(gens, p) -> bool:
    """Membership in cone(gens) in any rank: p lies in the cone iff it is a
    nonnegative combination of some linearly independent subset."""
    n = len(p)
    if all(x == 0 for x in p):
        return True
    for size in range(1, n + 1):
        for subset in combinations(gens, size):
            sol = _solve_exact([[g[c] for g in subset] for c in range(n)], p)
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def _solve_exact(rows, rhs):
    m, n = len(rows), len(rows[0])
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(m)]
    piv = []
    r = 0
    for col in range(n):
        k = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if k is None:
            continue
        aug[r], aug[k] = aug[k], aug[r]
        aug[r] = [x / aug[r][col] for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv.append(col)
        r += 1
    if any(aug[i][n] != 0 for i in range(r, m)):
        return None
    if r < n:
        return None  # dependent subset; a smaller one will witness membership
    x = [Fraction(0)] * n
    for i, col in enumerate(piv):
        x[col] = aug[i][n]
    return x


def det(rows):
    """Determinant of a square integer matrix by Laplace expansion along the
    first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def rational_kernel(rows, n):
    """Basis of {x in Q^n : A x = 0} from the reduced row echelon form."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(n):
        k = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -mat[i][free]
        basis.append(v)
    return basis


def hilbert_oracle(gens, bound=None):
    """Irreducible nonzero lattice points of a pointed rank-2 cone.

    Exact whenever bound >= sum over generators of the sup-norm, since every
    irreducible element lies in the fundamental region of two extreme rays.
    """
    if bound is None:
        bound = sum(max(abs(g[0]), abs(g[1])) for g in gens) + 1
    pts = [p for p in box_points(bound) if any(p) and in_cone2(gens, p)]
    pts.sort(key=lambda p: (abs(p[0]) + abs(p[1]), p))
    basis = []
    for x in pts:
        if not any(
            y != x and any(z := (x[0] - y[0], x[1] - y[1])) and in_cone2(gens, z)
            for y in pts
        ):
            basis.append(x)
    return sorted(basis)


def charpoly(rows):
    """Coefficients [c_0, ..., c_n] of det(xI - A), by Faddeev-LeVerrier."""
    n = len(rows)
    A = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        tmp = [[M[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
        M = [
            [sum(A[i][t] * tmp[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(M[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    return coeffs


def inertia_oracle(rows):
    """(n_plus, n_minus, n_zero) from the characteristic polynomial: Descartes'
    rule is exact for the all-real spectrum of a symmetric matrix."""
    n = len(rows)
    cs = charpoly(rows)
    nz = 0
    while cs[nz] == 0:
        nz += 1
    signs = [1 if c > 0 else -1 for c in cs[nz:] if c != 0]
    npos = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return (npos, n - npos - nz, nz)


def lattice_points_oracle(constraints, lo, hi):
    """[x in Z^n : lo <= x <= hi, <a, x> >= -m for all (a, m)], by testing
    every point of the box in lexicographic order."""
    box = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return [x for x in box if all(dot(a, x) >= -m for a, m in constraints)]


def dickson_oracle(constraints, gens):
    """The lattice points x of P = {x : <u, x> >= -m for all (u, m)} that no
    generator h reduces (x - h outside P), in lexicographic order, by testing
    every point of a box.

    P must be pointed and its recession cone generated by gens. Then an
    irreducible point is a convex combination of vertices plus sum t_h h with
    0 <= t_h < 1, so the box is the hull of the vertices (the feasible
    solutions of the nonsingular square subsystems, by Gauss-Jordan
    elimination) widened by sum |h| in every coordinate.
    """
    n = len(constraints[0][0])

    def inside(x):
        return all(dot(u, x) >= -m for u, m in constraints)

    verts = []
    for subset in combinations(constraints, n):
        sol = _solve_exact([list(u) for u, _ in subset], [-m for _, m in subset])
        if sol is not None and inside(sol):
            verts.append(sol)
    if not verts:
        return []
    pad = [sum(abs(h[c]) for h in gens) for c in range(n)]
    box = product(*(
        range(floor(min(v[c] for v in verts)) - pad[c], ceil(max(v[c] for v in verts)) + pad[c] + 1)
        for c in range(n)
    ))
    return [
        x for x in box
        if inside(x) and not any(inside(tuple(a - b for a, b in zip(x, h))) for h in gens)
    ]


def multiplicativity_oracle(level_m, level_n) -> bool:
    """Level m times level n lands in level m + n, checked on module
    generators: every sum a + b pairs to >= 0 with the rays of sigma and to
    >= -(m + n) with the rays at infinity of the subfan."""
    if level_m.fs != level_n.fs:
        raise ValueError("levels must come from the same subfan")
    k = level_m.n + level_n.n
    return all(
        dot(u, tuple(x + y for x, y in zip(a, b))) >= (0 if in_sigma else -k)
        for a in level_m.generators.generators
        for b in level_n.generators.generators
        for u, in_sigma in level_m.fs.rays
    )


def count_points_oracle(constraints, bound):
    """|{x in [-bound, bound]^2 : <u, x> >= -m for all (u, m)}| by enumeration."""
    return sum(
        1
        for x in box_points(bound)
        if all(dot(u, x) >= -m for u, m in constraints)
    )


def hj_expansion(d, k):
    """Hirzebruch-Jung (ceiled) continued fraction coefficients of d/k."""
    out = []
    while k > 0:
        a = -(-d // k)  # ceil
        out.append(a)
        d, k = k, a * k - d
    return out


def hilbert_basis_by_continued_fraction(u, w):
    """Hilbert basis of the pointed cone(u, w), u and w primitive, in order
    from u to w (Fulton, Introduction to Toric Varieties, §2.6).

    With u, w oriented so that n = det(u, w) > 0, the lattice is spanned by u
    and v1 = (w + q u) / n for the unique 0 <= q < n that makes v1 integral,
    and w = n v1 - q u. The basis continues v_{i+1} = a_i v_i - v_{i-1} with
    a_1, ..., a_r the Hirzebruch-Jung continued fraction of n / q, and ends
    at w.
    """
    if cross(u, w) < 0:
        u, w = w, u
    n = cross(u, w)
    if n == 0:
        raise ValueError("generators must be independent")
    q = next(q for q in range(n) if all((wc + q * uc) % n == 0 for uc, wc in zip(u, w)))
    basis = [tuple(u), tuple((wc + q * uc) // n for uc, wc in zip(u, w))]
    for a in hj_expansion(n, q):
        basis.append(tuple(a * x - y for x, y in zip(basis[-1], basis[-2])))
    if basis[-1] != tuple(w):
        raise AssertionError("continued fraction did not end at the second generator")
    return basis


def hilbert_count_by_continued_fraction(a, b):
    """Size of the Hilbert basis of the pointed cone(a, b) via the classical
    resolution count: the two rays plus one ray per continued-fraction step of
    the singularity parameters of the cone."""
    det = abs(cross(a, b))
    if det == 0:
        raise ValueError("generators must be independent")
    if det == 1:
        return 2
    # normal form: map a to (0,1) by a unimodular matrix, then shear so the
    # second generator becomes (d, -k) with 0 <= k < d
    if cross(a, b) < 0:
        a, b = b, a
    g = gcd(abs(a[0]), abs(a[1]))
    ax, ay = a[0] // g, a[1] // g
    # rows of U: first row sends a to 0, second pairs to 1 (Bezout)
    p, q = _bezout(ax, ay)
    w = (-ay * b[0] + ax * b[1], p * b[0] + q * b[1])
    d, t = w
    if d < 0:
        raise AssertionError("orientation lost in normal form")
    k = (-t) % d
    return 2 + len(hj_expansion(d, k))


def _bezout(x, y):
    """(p, q) with p*x + q*y = gcd(x, y) = 1 for coprime x, y."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


@lru_cache(maxsize=4096)
def _monomial(xi, e):
    return prod(x ** k for x, k in zip(xi, e))


def poly_value(terms, xi):
    """sum c * xi^e over the terms, for Fraction coordinates xi."""
    return sum(c * _monomial(xi, e) for e, c in terms)


def _times_linear(p, a, b):
    """The coefficient list of p(t) * (a + b t)."""
    return [a * x + b * y for x, y in zip(p + [0], [0] + p)]


def curve_sign(terms, v, xi, eta):
    """Sign of f(t^v * (xi + t eta)) for small t > 0, f = sum c x^e over terms.

    With m_i the least exponent of coordinate i and dmin the least <e, v>,
    f = t^dmin * prod (xi_i + t eta_i)^m_i * P(t) for the polynomial
    P(t) = sum c t^(<e, v> - dmin) prod (xi_i + t eta_i)^(e_i - m_i), expanded
    here exactly by repeated multiplication with the linear factors. The
    prefactor has the sign of prod xi_i^m_i near t = 0, and P contributes the
    sign of its lowest nonzero coefficient (0 when P vanishes identically)."""
    degs = [dot(e, v) for e, _ in terms]
    dmin = min(degs)
    lows = [min(e[i] for e, _ in terms) for i in range(len(xi))]
    total = []
    for (e, c), d in zip(terms, degs):
        p = [Fraction(0)] * (d - dmin) + [Fraction(c)]
        for x, h, k, lo in zip(xi, eta, e, lows):
            for _ in range(k - lo):
                p = _times_linear(p, Fraction(x), Fraction(h))
        total = [a + b for a, b in zip(total + [0] * len(p), p + [0] * len(total))]
    lead = next((c for c in total if c != 0), 0)
    unit = prod(Fraction(x) ** lo for x, lo in zip(xi, lows))
    return ((lead > 0) - (lead < 0)) * (1 if unit > 0 else -1)


def tc_ray_oracle(polys, v, grid, drifts):
    """(in K0, closure meets the divisor) for ray v of the basic set
    {f > 0 for f in polys}, each f a list of (exponent, coefficient) terms.

    Decided by direct search over the base points of the grid in the torus:
    K0 by evaluating the terms of least v-degree; the closure first by the
    sign of the first nonzero v-homogeneous component of every f (zero
    drift), then, at base points where no initial form is negative, by
    ``curve_sign`` along every drift."""
    points = [xi for xi in grid if all(x != 0 for x in xi)]
    comps = []
    for f in polys:
        by_degree = {}
        for e, c in f:
            by_degree.setdefault(dot(e, v), []).append((e, c))
        comps.append([by_degree[d] for d in sorted(by_degree)])
    initials = [[poly_value(seq[0], xi) for seq in comps] for xi in points]
    in_k0 = any(all(val > 0 for val in vals) for vals in initials)

    def first_nonzero(seq, xi):
        return next((val for g in seq if (val := poly_value(g, xi)) != 0), 0)

    met = any(all(first_nonzero(seq, xi) > 0 for seq in comps) for xi in points)
    met = met or any(
        all(curve_sign(f, v, xi, eta) > 0 for f in polys)
        for xi, vals in zip(points, initials)
        if all(val >= 0 for val in vals)
        for eta in drifts
    )
    return in_k0, met


def tc_oracle(polys, rays, grid, drifts):
    """(per-ray decisions, status, witness ray) of the compatibility check
    over the given rays outside sigma: Violated at the least ray whose closure
    meeting is certified without a K0 witness, else Unknown if some ray has
    neither, else Verified."""
    decided = {u: tc_ray_oracle(polys, u, grid, drifts) for u in rays}
    violated = sorted(u for u, (k0, met) in decided.items() if not k0 and met)
    if violated:
        return decided, "Violated", violated[0]
    if any(not k0 for k0, _ in decided.values()):
        return decided, "Unknown", None
    return decided, "Verified", None
