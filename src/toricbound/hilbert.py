"""Affine semigroup computations: Hilbert bases, Dickson module generators,
semigroup membership and integer relations among generators.

The Hilbert basis algorithm triangulates a pointed cone into simplicial
pieces, enumerates the lattice points of the half-open fundamental
parallelepiped of each piece (cut out by the facet normals of the piece), and
keeps the minimal elements of the union. Minimality is dominance of facet
values: x - c lies in the cone iff <a, c> <= <a, x> for every facet normal a,
so candidates are scanned in order of the sum of their facet values and each
is kept unless a kept one is componentwise below it. Non-pointed cones are
reduced modulo their lineality lattice; lower-dimensional cones are handled in
coordinates on the saturated span lattice.

Dickson module generators are the irreducible lattice points of a
polyhedron, found for all its multiples in one pass: each fibre of
``intlin.lattice_fibres`` around the scaled vertices minus one interval of
reducible points per generator. Semigroup membership builds its cone and
grading once per basis and answers each point by a bounded search.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, floor

from .cones import RationalCone
from .intlin import (
    dot,
    hnf,
    integer_kernel,
    integer_solve,
    interval_cut,
    is_zero,
    lattice_fibres,
    lattice_points,
    rank_of,
    saturate,
    solve_rational,
    vec_neg,
    vec_sub,
)
from .linalg import lattice_point

Vec = tuple[int, ...]

HILBERT_MAX_RANK = 4


@dataclass(frozen=True)
class SemigroupBasis:
    """Minimal generating data for the semigroup of lattice points of a cone.

    ``generators`` is the unique minimal set for the pointed part. For a
    non-pointed cone, ``lineality_units`` holds a lattice basis of the
    lineality space, available with both signs.
    """

    rank: int
    side: str
    generators: tuple[Vec, ...]
    lineality_units: tuple[Vec, ...] = ()

    def is_trivial(self) -> bool:
        """True iff the semigroup is {0}."""
        return not self.generators and not self.lineality_units

    def cone(self) -> RationalCone:
        vecs = list(self.generators)
        for u in self.lineality_units:
            vecs.append(u)
            vecs.append(vec_neg(u))
        return RationalCone.from_generators(vecs, self.rank, self.side)


@dataclass(frozen=True)
class ModuleGenerators:
    """A finite generator set B0 with target = B0 + semigroup(base)."""

    base: SemigroupBasis
    generators: tuple[Vec, ...]


@dataclass(frozen=True)
class ShiftedPolyhedron:
    """The polyhedron {beta : <beta, u> >= -m for all (u, m) in constraints}."""

    rank: int
    side: str
    constraints: tuple[tuple[Vec, int], ...]

    def contains(self, beta) -> bool:
        beta = lattice_point(beta, self.rank)
        return all(dot(u, beta) >= -m for u, m in self.constraints)

    def recession_cone(self) -> RationalCone:
        return RationalCone.from_inequalities(
            [u for u, _ in self.constraints], self.rank, self.side
        )

    def vertices(self) -> list[tuple[Fraction, ...]]:
        """All vertices: the feasible solutions of the nonsingular square subsystems."""
        n = self.rank
        verts: list[tuple[Fraction, ...]] = []
        for subset in combinations(self.constraints, n):
            sol = solve_rational([u for u, _ in subset], [-m for _, m in subset])
            if sol is None:
                continue
            pt = tuple(sol)
            if all(dot(u, pt) >= -m for u, m in self.constraints) and pt not in verts:
                verts.append(pt)
        return verts


def hilbert_basis(cone: RationalCone) -> SemigroupBasis:
    """The minimal generating set of lattice ∩ cone.

    Supported up to ambient rank 4. For non-pointed input the result is the
    Hilbert basis of the pointed quotient, lifted, together with a lattice
    basis of the lineality space as +/- units.

    >>> cone = RationalCone.from_generators([(1, 0), (1, 2)], 2, "M")
    >>> hilbert_basis(cone).generators
    ((1, 0), (1, 1), (1, 2))
    """
    if cone.rank > HILBERT_MAX_RANK:
        raise ValueError(f"hilbert basis supported up to rank {HILBERT_MAX_RANK}")
    if cone.is_zero():
        return SemigroupBasis(cone.rank, cone.side, ())
    if cone.is_pointed():
        gens = _hilbert_pointed(cone)
        return SemigroupBasis(cone.rank, cone.side, gens)
    lin = cone.lineality_basis
    proj = integer_kernel(lin)
    if not proj:
        # the cone is the whole space
        return SemigroupBasis(cone.rank, cone.side, (), lin)
    images = [tuple(dot(q, g) for q in proj) for g in cone.extreme_rays()]
    qgens = _hilbert_pointed(RationalCone.from_generators(images, len(proj), cone.side))
    lifts = sorted(integer_solve(proj, h) for h in qgens)
    return SemigroupBasis(cone.rank, cone.side, tuple(lifts), lin)


def _hilbert_pointed(cone: RationalCone) -> tuple[Vec, ...]:
    rays, rank = cone.extreme_rays(), cone.rank
    if not rays:
        return ()
    d = rank_of(rays)
    if d < rank:
        span = saturate(rays)
        columns = list(zip(*span))
        coords = [integer_solve(columns, g) for g in rays]
        if None in coords:
            raise ValueError("vector is not in the saturated span lattice")
        sub = _hilbert_pointed(RationalCone.from_generators(coords, d, cone.side))
        back = [tuple(sum(c[i] * span[i][j] for i in range(d)) for j in range(rank)) for c in sub]
        return tuple(sorted(back))
    candidates: set[Vec] = set(rays)
    for simplex in _triangulate(rays, rank):
        candidates |= _parallelepiped_points(simplex)
    # F(x) = (<a, x> for the facet normals a) is injective on a pointed
    # full-dimensional cone, so a candidate that dominates another has the
    # larger sum F and comes after it
    values = {x: tuple(dot(a, x) for a in cone.inequalities) for x in candidates}
    basis: list[Vec] = []
    for x in sorted(candidates, key=lambda v: (sum(values[v]), v)):
        fx = values[x]
        if not any(all(h <= y for h, y in zip(values[b], fx)) for b in basis):
            basis.append(x)
    return tuple(sorted(basis))


def _triangulate(rays: tuple[Vec, ...], d: int) -> list[tuple[Vec, ...]]:
    """Split a pointed full-dimensional cone on its extreme rays into simplicial
    subcones by incremental placing."""
    if len(rays) == d:
        return [rays]
    start: list[Vec] = []
    rest: list[Vec] = []
    for r in rays:
        if len(start) < d and rank_of(start + [r]) > len(start):
            start.append(r)
        else:
            rest.append(r)
    simplices = [tuple(start)]
    placed = list(start)
    for r in rest:
        visible = []
        for facet, normal in _boundary_facets(simplices, placed, d):
            if dot(normal, r) < 0:
                visible.append(facet)
        if not visible:
            raise AssertionError("extreme ray inside current hull; input not canonical")
        for facet in visible:
            simplices.append(facet + (r,))
        placed.append(r)
    return simplices


def _boundary_facets(simplices, placed, d):
    """(facet rays, outward-invalidating normal) pairs on the hull boundary.

    A facet of some simplex lies on the boundary of the union iff all placed
    rays sit weakly on its inner side.
    """
    seen = set()
    out = []
    for simplex in simplices:
        for facet in combinations(simplex, d - 1):
            key = frozenset(facet)
            if key in seen:
                continue
            seen.add(key)
            kern = integer_kernel(list(facet))
            if len(kern) != 1:
                continue
            w = kern[0]
            opposite = next(v for v in simplex if v not in facet)
            s = dot(w, opposite)
            if s < 0:
                w = vec_neg(w)
            if all(dot(w, p) >= 0 for p in placed):
                out.append((facet, w))
    return out


def _parallelepiped_points(simplex: tuple[Vec, ...]) -> set[Vec]:
    """Nonzero lattice points of {sum t_i g_i : 0 <= t_i < 1}.

    t_i = <w_i, x> / <w_i, g_i> for the normal w_i of the facet opposite g_i,
    so the parallelepiped is 0 <= <w_i, x> <= <w_i, g_i> - 1 on the lattice.
    """
    n = len(simplex[0])
    constraints = []
    for i, g in enumerate(simplex):
        others = simplex[:i] + simplex[i + 1:]
        # a 1-simplex in rank 1 has no other ray to take a kernel of
        w = integer_kernel(others)[0] if others else (1,)
        if dot(w, g) < 0:
            w = vec_neg(w)
        constraints += [(w, 0), (vec_neg(w), dot(w, g) - 1)]
    lo = [sum(min(0, g[c]) for g in simplex) for c in range(n)]
    hi = [sum(max(0, g[c]) for g in simplex) for c in range(n)]
    return {x for x in lattice_points(constraints, lo, hi) if not is_zero(x)}


def semigroup_contains(basis: SemigroupBasis, beta) -> bool:
    """Whether beta is a nonnegative integer combination of the basis elements
    (lineality units usable with both signs): one query of
    ``semigroup_membership(basis)``."""
    return semigroup_membership(basis)(beta)


def semigroup_membership(basis: SemigroupBasis) -> Callable[[Iterable], bool]:
    """The membership test of the semigroup of basis, as a function of the
    point. The lineality quotient, the cone of the pointed part, its facets
    and a positive grading are built here once, and every query reuses them.

    >>> contains = semigroup_membership(SemigroupBasis(2, "M", ((1, 0), (1, 1), (1, 2))))
    >>> [contains(p) for p in ((2, 1), (0, 1))]
    [True, False]
    """
    rank = basis.rank
    gens = list(basis.generators)
    proj = None
    if basis.lineality_units:
        proj = integer_kernel(basis.lineality_units)
        images = (tuple(dot(q, g) for q in proj) for g in gens)
        gens = [g for g in images if not is_zero(g)]
    search = _pointed_search(gens, len(proj) if proj is not None else rank)

    def contains(beta) -> bool:
        beta = lattice_point(beta, rank)
        if proj is not None:
            beta = tuple(dot(q, beta) for q in proj)
        return search(beta)

    return contains


def _pointed_search(gens: list[Vec], rank: int) -> Callable[[Vec], bool]:
    """Membership in the semigroup generated by gens, whose cone is pointed."""
    if not gens:
        return is_zero
    cone = RationalCone.from_generators(gens, rank, "M")
    ineqs = cone.inequalities
    linpairs = {v for v in ineqs if vec_neg(v) in set(ineqs)}
    w = tuple(sum(a[c] for a in ineqs if a not in linpairs) for c in range(rank))
    weights = [dot(w, g) for g in gens]

    def search(beta: Vec) -> bool:
        if is_zero(beta):
            return True
        if any(x <= 0 for x in weights):
            raise AssertionError("positive functional failed; cone not pointed?")
        # depth-first search for a path beta -> 0 that subtracts generators
        # and stays in the cone; every step lowers the weight <w, t> by at
        # least 1
        stack = [beta]
        seen = {beta}
        while stack:
            t = stack.pop()
            if is_zero(t):
                return True
            if not all(dot(a, t) >= 0 for a in ineqs):
                continue
            wt = dot(w, t)
            for g, wg in zip(gens, weights):
                s = vec_sub(t, g)
                if wg <= wt and s not in seen:
                    seen.add(s)
                    stack.append(s)
        return False

    return search


def dickson_decompose(poly: ShiftedPolyhedron, base: SemigroupBasis) -> ModuleGenerators:
    """Minimal B0 with (poly ∩ lattice) = B0 + semigroup(base), listed in
    graded-lex order: the one-scale case of ``dickson_decompose_scaled``.

    The recession cone of the polyhedron must equal the cone of the base
    semigroup.

    >>> orthant = SemigroupBasis(2, "M", ((0, 1), (1, 0)))
    >>> poly = ShiftedPolyhedron(2, "M", (((1, 0), 1), ((0, 1), 1)))
    >>> dickson_decompose(poly, orthant).generators
    ((-1, -1),)
    """
    return dickson_decompose_scaled(poly, base, (1,))[0]


def dickson_decompose_scaled(
    poly: ShiftedPolyhedron, base: SemigroupBasis, scales
) -> list[ModuleGenerators]:
    """``dickson_decompose`` of s·poly, the polyhedron with offsets (u, s·m),
    for each s in scales (s = 0 gives the recession cone).

    Scaling the offsets scales the vertices and keeps the recession cone, so
    the cone check, the lineality quotient, the vertices and the table of
    <u, h> over constraints u and generators h are computed once for all
    scales. Module generators are the irreducible lattice points: a point b
    of s·poly is reducible iff b - h lies in s·poly for some generator h.
    They lie in the box hull of the vertices padded by the generator
    offsets; that box is walked fibre by fibre along the last coordinate,
    and on a fibre the points b with b - h in s·poly form one interval per
    h, cut by the same floor/ceil rule as the fibre itself. The generators
    are the fibre minus the union of those intervals, so no point is tested
    on its own.
    """
    scales = list(scales)
    if any(s < 0 for s in scales):
        raise ValueError("scales must be nonnegative")
    if poly.rank > 3:
        raise ValueError("dickson_decompose supported up to rank 3")
    if poly.recession_cone() != base.cone():
        raise ValueError("recession cone does not match the base semigroup")
    if not base.lineality_units:
        return [ModuleGenerators(base, g) for g in _dickson_pointed(poly, base.generators, scales)]
    proj = integer_kernel(base.lineality_units)
    if not proj:
        return [ModuleGenerators(base, ((0,) * poly.rank,)) for _ in scales]
    # u = ubar ∘ proj; solvable and integral since u kills the lineality lattice
    columns = list(zip(*proj))
    qcons = [(integer_solve(columns, u), m) for u, m in poly.constraints]
    if any(ubar is None for ubar, _ in qcons):
        raise ValueError("constraint does not descend to the quotient")
    qimages = {tuple(dot(q, g) for q in proj) for g in base.generators}
    qgens = sorted(g for g in qimages if not is_zero(g))
    qpoly = ShiftedPolyhedron(len(proj), poly.side, tuple(qcons))
    return [
        ModuleGenerators(base, tuple(sorted(integer_solve(proj, b) for b in inner)))
        for inner in _dickson_pointed(qpoly, qgens, scales)
    ]


def _dickson_pointed(poly: ShiftedPolyhedron, hs, scales) -> list[tuple[Vec, ...]]:
    """The irreducible lattice points of s·poly for each s in scales; the
    recession cone of poly is pointed and generated by hs."""
    n = poly.rank
    verts = poly.vertices()
    us = [u for u, _ in poly.constraints]
    last = [u[-1] for u in us]
    # b - h lies in s·poly iff the slack of b on every constraint u is >= <u, h>
    table = [[dot(u, h) for u in us] for h in hs]
    pad_lo = [sum(min(0, h[c]) for h in hs) for c in range(n)]
    pad_hi = [sum(max(0, h[c]) for h in hs) for c in range(n)]
    out = []
    for s in scales:
        # the only vertex of the pointed recession cone (s = 0) is the origin
        corners = [tuple(s * x for x in v) for v in verts] if s else [(0,) * n]
        if not corners:
            out.append(())
            continue
        lo = [floor(min(v[c] for v in corners)) + pad_lo[c] for c in range(n)]
        hi = [ceil(max(v[c] for v in corners)) + pad_hi[c] for c in range(n)]
        cons = [(u, s * m) for u, m in poly.constraints]
        minimal: list[Vec] = []
        for prefix, first, stop, slack in lattice_fibres(cons, lo, hi):
            # the x of the fibre with prefix + (x,) - h in s·poly, one interval per h
            cuts = [interval_cut(last, [sl - v for sl, v in zip(slack, uh)], first, stop)
                    for uh in table]
            x = first
            for a, b in sorted(c for c in cuts if c is not None):
                minimal.extend(prefix + (y,) for y in range(x, a))
                x = max(x, b + 1)
            minimal.extend(prefix + (y,) for y in range(x, stop + 1))
        out.append(tuple(sorted(minimal, key=lambda v: (sum(map(abs, v)), v))))
    return out


def lattice_kernel_relations(gens) -> list[Vec]:
    """Canonical basis of the integer relations {c : sum c_i * gens_i = 0}."""
    gens = list(gens)
    if len(gens) > 8:
        raise ValueError("at most 8 generators supported")
    if not gens:
        return []
    n = len(lattice_point(gens[0]))
    if n > 4:
        raise ValueError("rank at most 4 supported")
    gens = [lattice_point(g, n) for g in gens]
    rows = [tuple(g[c] for g in gens) for c in range(n)]
    return hnf(integer_kernel(rows))


def binomial_parts(relation: Vec) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Split a relation vector into (index, exponent) lists for the two
    monomials of the candidate binomial."""
    plus = tuple((i, c) for i, c in enumerate(relation) if c > 0)
    minus = tuple((i, -c) for i, c in enumerate(relation) if c < 0)
    return plus, minus
