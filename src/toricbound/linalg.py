"""Lattice vectors, the character/cocharacter pairing, and exact matrix inertia.

The two dual lattices are tagged 'M' (characters, monomial exponents) and 'N'
(cocharacters, one-parameter subgroup directions). All matrix arithmetic is
exact rational; inertia is computed by fraction-free symmetric elimination on
the matrix scaled to integers, with a unimodular congruence step where the
diagonal is zero, and never sees a floating-point number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intlin import bareiss_step, primitive_tuple, scale_to_integers

SIDES = ("M", "N")
OTHER_SIDE = {"M": "N", "N": "M"}


@dataclass(frozen=True, order=True)
class LatticeVector:
    """An element of the character lattice M or the cocharacter lattice N."""

    coords: tuple[int, ...]
    side: str

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be 'M' or 'N', got {self.side!r}")
        object.__setattr__(self, "coords", lattice_point(self.coords))
        if not self.coords:
            raise ValueError("rank must be positive")

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check_compatible(self, other: "LatticeVector"):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        if self.side != other.side:
            raise ValueError(f"side mismatch: {self.side} vs {other.side}")

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        self._check_compatible(other)
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)), self.side)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        self._check_compatible(other)
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)), self.side)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords), self.side)

    def scale(self, k: int) -> "LatticeVector":
        return LatticeVector(tuple(k * a for a in self.coords), self.side)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def lattice_point(v, rank: int | None = None, side: str | None = None) -> tuple[int, ...]:
    """The coordinates of a lattice vector as a tuple of ints: the one intake
    of every constructor, direction and membership test.

    v is a sequence or an object with ``coords``, such as a LatticeVector. A
    coordinate that is not an integer, such as Fraction(1, 2), raises
    ValueError instead of being truncated; so does a length other than rank,
    and a LatticeVector of the other side than side, when those are given.

    >>> lattice_point([Fraction(4, 2), -3], rank=2)
    (2, -3)
    """
    if side is not None and isinstance(v, LatticeVector) and v.side != side:
        raise ValueError(f"vector of side {v.side} where side {side} is expected")
    coords = tuple(getattr(v, "coords", v))
    out = tuple(map(int, coords))
    if out != coords:
        bad = next(x for x, y in zip(coords, out) if x != y)
        raise ValueError(f"coordinate {bad} is not an integer")
    if rank is not None and len(out) != rank:
        raise ValueError(f"vector of rank {len(out)} where rank {rank} is expected")
    return out


def mvec(*coords: int) -> LatticeVector:
    return LatticeVector(tuple(coords), "M")


def nvec(*coords: int) -> LatticeVector:
    return LatticeVector(tuple(coords), "N")


def pairing(alpha: LatticeVector, v: LatticeVector) -> int:
    """The perfect pairing <alpha, v> between M and N: the standard dot product."""
    if alpha.side != "M" or v.side != "N":
        raise ValueError(f"pairing needs (M, N) arguments, got ({alpha.side}, {v.side})")
    if alpha.rank != v.rank:
        raise ValueError(f"rank mismatch: {alpha.rank} vs {v.rank}")
    return sum(a * b for a, b in zip(alpha.coords, v.coords))


def primitive(v: LatticeVector) -> LatticeVector:
    """The primitive vector on the ray through v. Errors on the zero vector.

    >>> primitive(nvec(6, -9)).coords
    (2, -3)
    """
    return LatticeVector(primitive_tuple(v.coords), v.side)


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

    def is_negative_semidefinite(self) -> bool:
        return self.n_plus == 0


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

    def permuted(self, perm) -> "SymmetricRationalMatrix":
        """Simultaneous row/column permutation (a congruence)."""
        return SymmetricRationalMatrix(
            [[self.rows[perm[i]][perm[j]] for j in range(self.size)] for i in range(self.size)]
        )


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
