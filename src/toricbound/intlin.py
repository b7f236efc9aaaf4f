"""Exact integer and rational linear algebra on plain coordinate tuples.

Internal helpers shared by the cone, semigroup and fan machinery. Everything
is arbitrary-precision (int / Fraction); nothing here ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = tuple[int, ...]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(k: int, a: Vec) -> Vec:
    return tuple(k * x for x in a)


def vec_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def primitive_tuple(v: Vec) -> Vec:
    """v divided by the gcd of its entries. The zero vector is rejected."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def clear_denominators(v) -> Vec:
    """Scale a rational vector to the primitive integer vector with the same direction."""
    fracs = [Fraction(x) for x in v]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    return primitive_tuple(tuple(int(f * lcm) for f in fracs))


def rank_of(rows) -> int:
    """Rank over Q of a list of integer or rational row vectors."""
    mat = [[Fraction(x) for x in row] for row in rows if not is_zero(row)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def solve_rational(rows, rhs):
    """Solve A x = b exactly over Q; A given by rows. Returns None if inconsistent.

    For underdetermined systems an arbitrary particular solution is returned
    (free variables set to zero).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][col]
        aug[r] = [a / pv for a in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n]
    return x


def _column_reduce(rows):
    """(A·U, U, pivots) for the integer matrix A given by its rows and a
    unimodular U. pivots[r] is the only column, among those that are no
    earlier row's pivot, where row r of A·U is nonzero (None if there is
    none); every column that is no row's pivot is zero in A·U.
    """
    A = [list(r) for r in rows]
    n = len(A[0])
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivots: list[int | None] = []
    for r in range(len(A)):
        free = [j for j in range(n) if j not in pivots]
        # Euclidean reduction among the free columns of row r
        while True:
            nz = [j for j in free if A[r][j] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(A[r][j]))
            j0 = nz[0]
            for j in nz[1:]:
                q = A[r][j] // A[r][j0]
                for row in A:
                    row[j] -= q * row[j0]
                for row in U:
                    row[j] -= q * row[j0]
        pivots.append(nz[0] if nz else None)
    return A, U, pivots


def integer_kernel(rows) -> list[Vec]:
    """Basis of the lattice {x in Z^n : <row, x> = 0 for every row}.

    Computed by unimodular column operations, so the result is a basis of the
    full (saturated) kernel lattice.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        raise ValueError("need at least one row to fix the ambient dimension")
    _, U, pivots = _column_reduce(rows)
    n = len(U)
    return [tuple(U[i][j] for i in range(n)) for j in range(n) if j not in pivots]


def hnf(rows) -> list[Vec]:
    """Row-style Hermite normal form basis of the lattice spanned by the rows.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    The result is the canonical basis of the row lattice; zero rows are dropped.
    """
    work = [list(r) for r in rows if not is_zero(r)]
    if not work:
        return []
    n = len(work[0])
    basis: list[list[int]] = []
    col = 0
    while col < n and work:
        live = [r for r in work if r[col] != 0]
        if not live:
            col += 1
            continue
        while True:
            live = [r for r in work if r[col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(r[col]))
            r0 = live[0]
            for r in live[1:]:
                q = r[col] // r0[col]
                for i in range(n):
                    r[i] -= q * r0[i]
        live = [r for r in work if r[col] != 0]
        if live:
            piv = live[0]
            work.remove(piv)
            if piv[col] < 0:
                piv = [-x for x in piv]
            basis.append(piv)
        col += 1
    # reduce entries above each pivot
    for i in range(len(basis)):
        pcol = next(c for c in range(n) if basis[i][c] != 0)
        pv = basis[i][pcol]
        for j in range(i):
            q = basis[j][pcol] // pv
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return [tuple(r) for r in basis]


def saturate(rows) -> list[Vec]:
    """Canonical (HNF) basis of span_Q(rows) intersected with Z^n."""
    rows = [r for r in rows if not is_zero(r)]
    if not rows:
        return []
    orth = integer_kernel(rows)
    if not orth:
        n = len(rows[0])
        return hnf([tuple(1 if i == j else 0 for j in range(n)) for i in range(n)])
    return hnf(integer_kernel(orth))


def integer_solve(rows, rhs):
    """An integer solution x of A x = rhs, assuming the row lattice is saturated.

    Returns None when no rational solution exists; raises if a rational
    solution exists but is not integral (the saturation hypothesis failed).
    """
    A, U, pivots = _column_reduce(rows)
    n = len(U)
    # A (column-reduced) is lower "echelon"; solve A y = rhs with y supported on pivots
    y = [Fraction(0)] * n
    for r, j in enumerate(pivots):
        need = Fraction(rhs[r]) - sum(a * b for a, b in zip(A[r], y))
        if j is None:
            if need != 0:
                return None
            continue
        y[j] = need / A[r][j]
    for f in y:
        if f.denominator != 1:
            raise ValueError("system has no integer solution; row lattice not saturated")
    yi = [int(f) for f in y]
    return tuple(sum(U[i][j] * yi[j] for j in range(n)) for i in range(n))


def lattice_points(constraints, lo, hi) -> list[Vec]:
    """The integer points x with lo <= x <= hi and <a, x> >= -m for every
    (a, m) in constraints, in lexicographic order.

    The leading coordinates run over the box; each fibre of the last
    coordinate is cut exactly by floor/ceil of the constraints, so no point
    is tested on its own.

    >>> lattice_points([((1, 1), 0), ((-1, -1), 2)], (0, 0), (2, 2))
    [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    """
    n = len(lo)
    cons = list(constraints)
    points: list[Vec] = []

    def fibres(prefix: Vec, slack: list[int]):
        # slack[i] = m_i + <a_i, prefix> over the coordinates fixed so far
        k = len(prefix)
        if k < n - 1:
            for x in range(lo[k], hi[k] + 1):
                fibres(prefix + (x,), [s + a[k] * x for (a, _), s in zip(cons, slack)])
            return
        first, last = lo[k], hi[k]
        for (a, _), s in zip(cons, slack):
            if a[k] > 0:
                first = max(first, -(s // a[k]))
            elif a[k] < 0:
                last = min(last, s // -a[k])
            elif s < 0:
                return
        points.extend(prefix + (x,) for x in range(first, last + 1))

    fibres((), [m for _, m in cons])
    return points


def project_off_span(v, basis) -> Vec:
    """Primitive integer vector in direction of v minus its projection onto span(basis)."""
    if not basis:
        return primitive_tuple(tuple(v))
    k = len(basis)
    gram = [[dot(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    rhs = [dot(b, v) for b in basis]
    c = solve_rational(gram, rhs)
    resid = [Fraction(v[i]) - sum(c[j] * basis[j][i] for j in range(k)) for i in range(len(v))]
    if all(f == 0 for f in resid):
        raise ValueError("vector lies in the span")
    return clear_denominators(resid)
