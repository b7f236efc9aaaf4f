"""Exact integer and rational linear algebra on plain coordinate tuples.

Internal helpers shared by the cone, semigroup and fan machinery. Everything
is arbitrary-precision (int / Fraction); nothing here ever touches a float.
Lattices go through one unimodular column reduction (``_column_reduce``);
ranks, square solves and matrix inertia through one fraction-free Bareiss
step (``bareiss_step``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = tuple[int, ...]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


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


def scale_to_integers(v) -> list[int]:
    """The rational vector v times the lcm of its denominators."""
    d = lcm(*(x.denominator for x in v))
    return [int(x * d) for x in v]


def clear_denominators(v) -> Vec:
    """Scale a rational vector to the primitive integer vector with the same direction."""
    return primitive_tuple(tuple(scale_to_integers(v)))


def bareiss_step(pivot_row, c, rows, prev) -> list[list[int]]:
    """Eliminate column c of the integer rows with pivot_row, fraction-free.

    Every entry a of a row becomes (p·a - a_c·b) / prev, where p is
    pivot_row[c], b the entry of pivot_row in a's column and prev the pivot
    of the previous step (1 at the first). The division is exact: after each
    step the entries are minors of the matrix the elimination started from
    (Bareiss 1968), so they stay as small as those minors.
    """
    p = pivot_row[c]
    return [[(p * a - r[c] * b) // prev for a, b in zip(r, pivot_row)] for r in rows]


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """The pivot rows of a Bareiss row-echelon form of rows, and their pivot
    columns. Each row is first scaled to integers; pivot row k is zero
    before column pivots[k] and nonzero there.
    """
    rest = [scale_to_integers(r) for r in rows]
    echelon: list[list[int]] = []
    pivots: list[int] = []
    prev = 1
    for c in range(len(rest[0]) if rest else 0):
        k = next((i for i, r in enumerate(rest) if r[c]), None)
        if k is None:
            continue
        pivot = rest.pop(k)
        rest = bareiss_step(pivot, c, rest, prev)
        echelon.append(pivot)
        pivots.append(c)
        prev = pivot[c]
    return echelon, pivots


def rank_of(rows) -> int:
    """Rank over Q of a list of integer or rational row vectors: the number of
    pivots of their Bareiss echelon form.

    >>> rank_of([(1, 2, 3), (2, 4, 6), (0, 1, 1)])
    2
    """
    return len(_echelon(rows)[1])


def solve_rational(rows, rhs):
    """The unique solution over Q of the square system A x = rhs, A given by
    its rows, or None when A is singular.

    Bareiss elimination of [A | rhs] ends with the determinant D of the
    scaled rows as its last pivot, so back substitution runs exactly on the
    integers D·x. Past the scaling of rational input, the n final divisions
    by D are the only Fractions made.

    >>> solve_rational([(2, 1), (1, 3)], [3, 5])
    [Fraction(4, 5), Fraction(7, 5)]
    >>> solve_rational([(1, 2), (2, 4)], [1, 2]) is None
    True
    """
    n = len(rows)
    echelon, pivots = _echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    det = echelon[-1][n - 1]
    y = [0] * n
    for k in reversed(range(n)):
        row = echelon[k]
        y[k] = (det * row[n] - sum(row[j] * y[j] for j in range(k + 1, n))) // row[k]
    return [Fraction(v, det) for v in y]


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

    The column reduction of the transposed matrix is a unimodular row
    reduction to echelon form. Its pivot rows are signed so that the pivots
    are positive, and the entries above each pivot are reduced into
    [0, pivot), first row first. The result is the canonical basis of the
    row lattice; zero rows are dropped.

    >>> hnf([(2, 4), (3, 5)])
    [(1, 1), (0, 2)]
    """
    rows = [r for r in rows if not is_zero(r)]
    if not rows:
        return []
    A, _, pivots = _column_reduce(list(zip(*rows)))
    cols: list[int] = []
    basis: list[list[int]] = []
    for c, i in enumerate(pivots):
        if i is not None:
            row = [a[i] for a in A]
            cols.append(c)
            basis.append(row if row[c] > 0 else [-x for x in row])
    for i, c in enumerate(cols):
        pv = basis[i][c]
        for j in range(i):
            q = basis[j][c] // pv
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


def lattice_fibres(constraints, lo, hi) -> list[tuple[Vec, int, int, list[int]]]:
    """The nonempty fibres along the last coordinate of the integer points x
    with lo <= x <= hi and <a, x> >= -m for every (a, m) in constraints, in
    lexicographic order.

    A fibre (prefix, first, last, slack) holds the points prefix + (x,) for
    first <= x <= last; slack[i] = m_i + <a_i, prefix> over the leading
    coordinates, so the point satisfies constraint i with slack
    slack[i] + a_i[-1]·x. The leading coordinates run over the box; the last
    is cut exactly by floor/ceil of the constraints, so no point is tested
    on its own.

    >>> lattice_fibres([((1, 1), 0), ((-1, -1), 2)], (0, 0), (2, 2))
    [((0,), 0, 2, [0, 2]), ((1,), 0, 1, [1, 1]), ((2,), 0, 0, [2, 0])]
    """
    n = len(lo)
    cons = list(constraints)
    fibres: list[tuple[Vec, int, int, list[int]]] = []

    def walk(prefix: Vec, slack: list[int]):
        k = len(prefix)
        if k < n - 1:
            for x in range(lo[k], hi[k] + 1):
                walk(prefix + (x,), [s + a[k] * x for (a, _), s in zip(cons, slack)])
            return
        cut = interval_cut(coefs, slack, lo[k], hi[k])
        if cut is not None:
            fibres.append((prefix, cut[0], cut[1], slack))

    coefs = [a[n - 1] for a, _ in cons]
    walk((), [m for _, m in cons])
    return fibres


def interval_cut(coefs, slack, first: int, last: int) -> tuple[int, int] | None:
    """The integers x in [first, last] with c·x + s >= 0 for every (c, s) in
    zip(coefs, slack), as (first, last) by floor/ceil, or None when there
    are none.

    >>> interval_cut([2, -1], [1, 3], -5, 5)
    (0, 3)
    """
    for c, s in zip(coefs, slack):
        if c > 0:
            first = max(first, -(s // c))
        elif c < 0:
            last = min(last, s // -c)
        elif s < 0:
            return None
    return (first, last) if first <= last else None


def lattice_points(constraints, lo, hi) -> list[Vec]:
    """The integer points x with lo <= x <= hi and <a, x> >= -m for every
    (a, m) in constraints, in lexicographic order: the expansion of
    ``lattice_fibres``.

    >>> lattice_points([((1, 1), 0), ((-1, -1), 2)], (0, 0), (2, 2))
    [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    """
    return [
        prefix + (x,)
        for prefix, first, last, _ in lattice_fibres(constraints, lo, hi)
        for x in range(first, last + 1)
    ]


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
