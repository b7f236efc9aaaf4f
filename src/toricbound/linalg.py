"""The checked intake of lattice coordinates, and exact matrix inertia.

A lattice vector is a tuple of ints; which lattice, M or N, it lives in is
the lattice of the cone it is used with. All matrix arithmetic is exact
rational; inertia is computed by fraction-free symmetric elimination on
the matrix scaled to integers, with a unimodular congruence step where the
diagonal is zero, and never sees a floating-point number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intlin import bareiss_step, scale_to_integers


def lattice_point(v, rank: int | None = None) -> tuple[int, ...]:
    """The coordinates of a lattice vector as a tuple of ints: the one intake
    of every constructor, direction and membership test.

    A coordinate that is not an integer, such as Fraction(1, 2), '1', None or
    an infinity, raises ValueError instead of being truncated; so does a length
    other than rank, when rank is given.

    >>> lattice_point([Fraction(4, 2), -3], rank=2)
    (2, -3)
    >>> lattice_point([float("inf"), 0])
    Traceback (most recent call last):
    ...
    ValueError: coordinate inf is not an integer
    """
    coords = tuple(v)
    try:
        out = tuple(map(int, coords))
    except (OverflowError, TypeError, ValueError):
        out = None
    if out != coords:
        bad = next(x for x in coords if not _is_integer(x))
        raise ValueError(f"coordinate {bad!r} is not an integer")
    if rank is not None and len(out) != rank:
        raise ValueError(f"vector of rank {len(out)} where rank {rank} is expected")
    return out


def _is_integer(x) -> bool:
    try:
        return int(x) == x
    except (OverflowError, TypeError, ValueError):
        return False


@dataclass(frozen=True)
class Inertia:
    """Signature data of a symmetric matrix: counts of +, -, 0 eigenvalues."""

    n_plus: int
    n_minus: int
    n_zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)

    @property
    def size(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    def is_negative_definite(self) -> bool:
        return self.n_plus == 0 and self.n_zero == 0


class SymmetricRationalMatrix:
    """A symmetric matrix with exact rational entries.

    Only symmetry is enforced; entries may be arbitrary Fractions. Rows are
    stored in full for convenience, but construction rejects asymmetry.
    """

    MAX_SIZE = 64

    def __init__(self, rows):
        rows = [tuple(Fraction(x) for x in row) for row in rows]
        n = len(rows)
        if n > self.MAX_SIZE:
            raise ValueError(f"matrices beyond size {self.MAX_SIZE} are unsupported")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        self.rows: tuple[tuple[Fraction, ...], ...] = tuple(rows)
        self.size = n

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, SymmetricRationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SymmetricRationalMatrix({[list(map(str, r)) for r in self.rows]})"

    def apply(self, vec):
        """Matrix-vector product, exact."""
        return tuple(sum(r[j] * Fraction(vec[j]) for j in range(self.size)) for r in self.rows)


def inertia(mat: SymmetricRationalMatrix) -> Inertia:
    """Exact eigenvalue sign counts by fraction-free symmetric elimination.

    The matrix is scaled to integers by the lcm of its denominators, which
    keeps its inertia. Each step pivots on a nonzero diagonal entry p and
    replaces every other entry by (p·a_ij - a_ik·a_kj) / prev, the Bareiss
    step ``intlin.bareiss_step`` with prev the previous pivot (1 at first).
    What remains is then prev times the Schur complement of the pivots taken
    so far, whose own pivot is p / prev: by Sylvester's law of inertia the
    step counts toward n_plus when p has the sign of prev and toward n_minus
    otherwise. When every remaining diagonal entry is zero, a nonzero entry
    a_0j is brought onto the diagonal by adding row and column j to row and
    column 0, a unimodular congruence that makes a_00 = 2·a_0j and keeps
    every division exact. A zero row is a zero eigenvalue of its own and is
    dropped.

    >>> inertia(SymmetricRationalMatrix([[0, 1], [1, 0]])).as_tuple()
    (1, 1, 0)
    """
    n = mat.size
    flat = scale_to_integers([x for row in mat.rows for x in row])
    work = [flat[i * n:(i + 1) * n] for i in range(n)]
    n_plus = n_minus = n_zero = 0
    prev = 1
    while work:
        k = next((i for i, row in enumerate(work) if row[i]), None)
        if k is None:
            j = next((j for j, a in enumerate(work[0]) if a), None)
            if j is None:
                n_zero += 1
                work = [row[1:] for row in work[1:]]
                continue
            work[0] = [a + b for a, b in zip(work[0], work[j])]
            for row in work:
                row[0] += row[j]
            k = 0
        pivot = work.pop(k)
        if (pivot[k] > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        work = [row[:k] + row[k + 1:] for row in bareiss_step(pivot, k, work, prev)]
        prev = pivot[k]
    return Inertia(n_plus, n_minus, n_zero)
