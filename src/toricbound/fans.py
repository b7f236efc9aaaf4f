"""Complete and partial fans in a rank-2 cocharacter lattice.

A fan is stored as its cyclically ordered list of primitive rays, counter-
clockwise starting from the ray of smallest angle against (1, 0). All angle
comparisons are exact (quadrant index plus cross product); completeness means
every consecutive gap is strictly smaller than a half turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .cones import RationalCone
from .hilbert import hilbert_basis
from .intlin import is_zero, primitive_tuple, vec_add
from .linalg import lattice_point

Vec = tuple[int, int]


def _cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _sector(v: Vec) -> int:
    a, b = v
    if a > 0 and b == 0:
        return 0
    if a > 0 and b > 0:
        return 1
    if a == 0 and b > 0:
        return 2
    if a < 0 and b > 0:
        return 3
    if a < 0 and b == 0:
        return 4
    if a < 0 and b < 0:
        return 5
    if a == 0 and b < 0:
        return 6
    return 7


def _angle_cmp(u: Vec, v: Vec) -> int:
    su, sv = _sector(u), _sector(v)
    if su != sv:
        return -1 if su < sv else 1
    c = _cross(u, v)
    if c == 0:
        return 0
    return -1 if c > 0 else 1


@dataclass(frozen=True)
class Fan2D:
    """Primitive rays in counterclockwise order, plus the implied 2-cones."""

    rays: tuple[Vec, ...]
    complete: bool

    @property
    def n_rays(self) -> int:
        return len(self.rays)


def make_fan(rays) -> Fan2D:
    """Primitivize, deduplicate and cyclically sort the given ray generators.

    >>> make_fan([(0, 3), (2, 0), (-1, -1)]).rays
    ((1, 0), (0, 1), (-1, -1))
    """
    cleaned = []
    for r in rays:
        r = lattice_point(r, 2)
        if is_zero(r):
            raise ValueError("zero vector is not a ray")
        cleaned.append(primitive_tuple(r))
    if not cleaned:
        raise ValueError("a fan needs at least one ray")
    unique = sorted(set(cleaned), key=cmp_to_key(_angle_cmp))
    m = len(unique)
    complete = m >= 3 and all(
        _cross(unique[i], unique[(i + 1) % m]) > 0 for i in range(m)
    )
    return Fan2D(tuple(unique), complete)


def star_subdivide(fan: Fan2D, i: int) -> Fan2D:
    """Insert the primitive sum of rays i and i+1 (cyclically): the toric blow-up
    of the corresponding fixed point."""
    if not fan.complete:
        raise ValueError("star subdivision needs a complete fan")
    m = fan.n_rays
    if not 0 <= i < m:
        raise ValueError(f"cone index {i} out of range 0..{m - 1}")
    new = primitive_tuple(vec_add(fan.rays[i], fan.rays[(i + 1) % m]))
    return make_fan(list(fan.rays) + [new])


def is_smooth(fan: Fan2D) -> bool:
    """Every adjacent ray pair a lattice basis: all consecutive dets equal 1."""
    if not fan.complete:
        raise ValueError("smoothness test needs a complete fan")
    m = fan.n_rays
    return all(_cross(fan.rays[i], fan.rays[(i + 1) % m]) == 1 for i in range(m))


def smooth_resolution(fan: Fan2D) -> Fan2D:
    """The minimal refinement with only unimodular cones.

    Inserts the Hilbert basis elements of every non-unimodular 2-cone as new
    rays; in rank 2 this is the classical minimal resolution.
    """
    if not fan.complete:
        raise ValueError("resolution needs a complete fan")
    m = fan.n_rays
    new_rays = list(fan.rays)
    for i in range(m):
        a, b = fan.rays[i], fan.rays[(i + 1) % m]
        if _cross(a, b) == 1:
            continue
        cone = RationalCone.from_generators([a, b], 2, "N")
        new_rays.extend(hilbert_basis(cone).generators)
    resolved = make_fan(new_rays)
    if not is_smooth(resolved):
        raise AssertionError("resolution failed to produce a smooth fan")
    return resolved
