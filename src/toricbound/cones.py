"""Rational polyhedral cones in generator and inequality form.

Cones are immutable and canonical: generators are the primitive extreme rays
(reduced against the lineality space), lineality appears as +/- pairs, and
inequalities are the primitive facet normals of the dual description. Equality
and hashing work on these canonical forms. Conversion between the two
descriptions runs the double description method with exact integer arithmetic;
the supported envelope is ambient rank <= 6 with at most 32 generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intlin import (
    dot,
    is_zero,
    primitive_tuple,
    project_off_span,
    rank_of,
    saturate,
    vec_neg,
)
from .linalg import lattice_point

MAX_RANK = 6
MAX_GENERATORS = 32

Vec = tuple[int, ...]

# the character lattice M and the cocharacter lattice N, dual to each other
SIDES = ("M", "N")
OTHER_SIDE = {"M": "N", "N": "M"}


def _dd_dual(constraints: list[Vec], rank: int) -> tuple[list[Vec], list[Vec]]:
    """Rays and lineality basis of {x : <a, x> >= 0 for all a in constraints}.

    Incremental double description: the state starts as the full space (pure
    lineality) and each halfspace is inserted in turn. Extremality of the ray
    set is maintained with the combinatorial adjacency test over the
    constraints processed so far.
    """
    lin: list[Vec] = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    rays: list[Vec] = []
    processed: list[Vec] = []

    def zero_set(r: Vec) -> frozenset[int]:
        return frozenset(i for i, a in enumerate(processed) if dot(a, r) == 0)

    for a in constraints:
        lv = [dot(a, l) for l in lin]
        if any(lv):
            i0 = next(i for i, x in enumerate(lv) if x != 0)
            l0 = lin[i0] if lv[i0] > 0 else vec_neg(lin[i0])
            d0 = abs(lv[i0])
            new_lin = []
            for i, l in enumerate(lin):
                if i == i0:
                    continue
                adj = tuple(d0 * x - lv[i] * y for x, y in zip(l, l0))
                new_lin.append(primitive_tuple(adj))
            new_rays = []
            for r in rays:
                dr = dot(a, r)
                adj = tuple(d0 * x - dr * y for x, y in zip(r, l0))
                new_rays.append(primitive_tuple(adj))
            lin = new_lin
            rays = new_rays + [l0]
        else:
            vals = [dot(a, r) for r in rays]
            pos = [r for r, v in zip(rays, vals) if v > 0]
            zero = [r for r, v in zip(rays, vals) if v == 0]
            neg = [r for r, v in zip(rays, vals) if v < 0]
            if neg:
                if not pos:
                    rays = zero
                else:
                    zsets = {r: zero_set(r) for r in rays}
                    combos = []
                    for p in pos:
                        for m in neg:
                            common = zsets[p] & zsets[m]
                            adjacent = not any(
                                r is not p and r is not m and common <= zsets[r]
                                for r in rays
                            )
                            if adjacent:
                                w = tuple(
                                    dot(a, p) * mx - dot(a, m) * px
                                    for px, mx in zip(p, m)
                                )
                                combos.append(primitive_tuple(w))
                    rays = pos + zero + [w for w in dict.fromkeys(combos) if w not in pos and w not in zero]
        processed.append(a)
    return rays, lin


def _canonical_vectors(rays: list[Vec], lin: list[Vec]) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Canonical (vectors, lineality basis) for a ray/lineality description.

    The lineality lattice is saturated and put in Hermite normal form; both
    signs of each basis vector are listed. Rays are reduced into the rational
    orthogonal complement of the lineality space, which picks a canonical
    representative of each ray-modulo-lineality.
    """
    lin_basis = tuple(saturate(lin)) if lin else ()
    out = set()
    for b in lin_basis:
        out.add(b)
        out.add(vec_neg(b))
    for r in rays:
        out.add(project_off_span(r, list(lin_basis)) if lin_basis else primitive_tuple(r))
    return tuple(sorted(out)), lin_basis


@dataclass(frozen=True)
class RationalCone:
    """A finitely generated rational convex cone, canonical in both descriptions.

    ``generators`` are primitive and lexicographically sorted; the cone is also
    {v : <a, v> >= 0 for every a in ``inequalities``}. ``side`` is the lattice
    of the generators and of every vector tested against the cone, which is a
    plain tuple of ints; the inequalities live in the dual lattice, so an
    'M'-cone has 'N' inequality vectors and vice versa.
    """

    rank: int
    side: str
    generators: tuple[Vec, ...]
    inequalities: tuple[Vec, ...]
    lineality_basis: tuple[Vec, ...] = field(compare=False)

    @staticmethod
    def from_generators(vectors, rank: int, side: str) -> "RationalCone":
        _check_rank_side(rank, side)
        raw = _clean(vectors, rank)
        if len(raw) > MAX_GENERATORS:
            raise ValueError(f"too many generators ({len(raw)} > {MAX_GENERATORS})")
        dual_rays, dual_lin = _dd_dual(raw, rank)
        ineqs, _ = _canonical_vectors(dual_rays, dual_lin)
        prim_rays, prim_lin = _dd_dual(list(ineqs), rank)
        gens, lin_basis = _canonical_vectors(prim_rays, prim_lin)
        return RationalCone(rank, side, gens, ineqs, lin_basis)

    @staticmethod
    def from_inequalities(vectors, rank: int, side: str) -> "RationalCone":
        _check_rank_side(rank, side)
        raw = _clean(vectors, rank)
        prim_rays, prim_lin = _dd_dual(raw, rank)
        gens, lin_basis = _canonical_vectors(prim_rays, prim_lin)
        dual_rays, dual_lin = _dd_dual(list(gens), rank)
        ineqs, _ = _canonical_vectors(dual_rays, dual_lin)
        return RationalCone(rank, side, gens, ineqs, lin_basis)

    @staticmethod
    def zero(rank: int, side: str) -> "RationalCone":
        return RationalCone.from_generators([], rank, side)

    @staticmethod
    def full(rank: int, side: str) -> "RationalCone":
        return RationalCone.from_inequalities([], rank, side)

    # -- structure -----------------------------------------------------------

    def dim(self) -> int:
        return rank_of(self.generators) if self.generators else 0

    def lineality_dim(self) -> int:
        return len(self.lineality_basis)

    def is_pointed(self) -> bool:
        """True iff the cone contains no line."""
        return not self.lineality_basis

    def is_full(self) -> bool:
        return not self.inequalities

    def is_zero(self) -> bool:
        return not self.generators

    def extreme_rays(self) -> tuple[Vec, ...]:
        """Generators that are not part of a lineality +/- pair."""
        linpts = set(self.lineality_basis) | {vec_neg(b) for b in self.lineality_basis}
        return tuple(g for g in self.generators if g not in linpts)

    # -- membership ----------------------------------------------------------

    def contains(self, v) -> bool:
        v = lattice_point(v, self.rank)
        return all(dot(a, v) >= 0 for a in self.inequalities)

    # -- constructions -------------------------------------------------------

    def dual(self) -> "RationalCone":
        """The dual cone in the dual lattice; an involution on canonical cones.

        >>> orthant = RationalCone.from_generators([(1, 0), (0, 1)], 2, "N")
        >>> orthant.dual().generators
        ((0, 1), (1, 0))
        >>> RationalCone.zero(2, "N").dual().is_full()
        True
        """
        if self.rank > MAX_RANK:
            raise ValueError(f"rank {self.rank} exceeds the supported {MAX_RANK}")
        lin = _lineality_from_pairs(self.inequalities)
        return RationalCone(self.rank, OTHER_SIDE[self.side], self.inequalities, self.generators, lin)

    def intersect(self, other: "RationalCone") -> "RationalCone":
        self._check_same_lattice(other)
        return RationalCone.from_inequalities(
            list(self.inequalities) + list(other.inequalities), self.rank, self.side
        )

    def minkowski_sum(self, other: "RationalCone") -> "RationalCone":
        self._check_same_lattice(other)
        return RationalCone.from_generators(
            list(self.generators) + list(other.generators), self.rank, self.side
        )

    def _check_same_lattice(self, other: "RationalCone"):
        if self.rank != other.rank or self.side != other.side:
            raise ValueError("cones live in different lattices")


def _check_rank_side(rank: int, side: str):
    if side not in SIDES:
        raise ValueError(f"side must be 'M' or 'N', got {side!r}")
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"ambient rank must be in 1..{MAX_RANK}, got {rank}")


def _clean(vectors, rank: int) -> list[Vec]:
    out = []
    for v in vectors:
        v = lattice_point(v, rank)
        if not is_zero(v):
            out.append(primitive_tuple(v))
    return sorted(dict.fromkeys(out))


def _lineality_from_pairs(vectors: tuple[Vec, ...]) -> tuple[Vec, ...]:
    vs = set(vectors)
    paired = [v for v in vectors if vec_neg(v) in vs]
    return tuple(saturate(paired)) if paired else ()
