"""Intersection theory on smooth complete toric surfaces.

Self-intersection numbers come from the wheel recursion b_i * v_i =
v_{i-1} + v_{i+1}; the divisor Y_i has square -b_i, adjacent divisors meet
once, all other pairs are disjoint. The transcendence degree of the ring of
functions off a toric divisor is classified twice, by the signature of the
intersection matrix and by the shape of the cone spanned by the remaining
rays, and the two routes are required to agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cones import RationalCone
from .fans import Fan2D, is_smooth
from .intlin import clear_denominators, solve_rational
from .linalg import Inertia, SymmetricRationalMatrix, inertia, lattice_point

Vec = tuple[int, int]


class RouteDisagreement(AssertionError):
    """The signature route and the geometric route disagreed: a bug, not an input error."""


@dataclass(frozen=True)
class ToricSurface:
    """A smooth complete rank-2 fan together with its self-intersection data."""

    fan: Fan2D
    b: tuple[int, ...]

    @staticmethod
    def from_fan(fan: Fan2D) -> "ToricSurface":
        if not fan.complete:
            raise ValueError("the fan of a complete surface must be complete")
        if not is_smooth(fan):
            raise ValueError("the fan must be smooth; resolve it first")
        m = fan.n_rays
        bs = []
        for i in range(m):
            prev = fan.rays[(i - 1) % m]
            nxt = fan.rays[(i + 1) % m]
            v = fan.rays[i]
            s = (prev[0] + nxt[0], prev[1] + nxt[1])
            j = 0 if v[0] != 0 else 1
            if s[j] % v[j] != 0:
                raise AssertionError("neighbor sum not a multiple of the ray")
            bi = s[j] // v[j]
            if (bi * v[0], bi * v[1]) != s:
                raise AssertionError("neighbor sum not a multiple of the ray")
            bs.append(bi)
        return ToricSurface(fan, tuple(bs))

    @property
    def rays(self) -> tuple[Vec, ...]:
        return self.fan.rays


def self_intersections(fan: Fan2D) -> ToricSurface:
    """Compute all b_i for a smooth complete fan; Y_i^2 = -b_i."""
    return ToricSurface.from_fan(fan)


@dataclass(frozen=True)
class DivisorSelection:
    """A subset T of the rays of a surface, as sorted ray indices."""

    surface: ToricSurface
    T: tuple[int, ...]

    def __post_init__(self):
        m = self.surface.fan.n_rays
        t = tuple(sorted(set(lattice_point(self.T))))
        if any(not 0 <= i < m for i in t):
            raise ValueError("ray index out of range")
        object.__setattr__(self, "T", t)

    @staticmethod
    def from_rays(surface: ToricSurface, rays) -> "DivisorSelection":
        idx = []
        for r in rays:
            r = lattice_point(r, 2)
            if r not in surface.rays:
                raise ValueError(f"{r} is not a ray of the surface")
            idx.append(surface.rays.index(r))
        return DivisorSelection(surface, tuple(idx))

    def complement(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.surface.fan.n_rays) if i not in self.T)


def intersection_matrix(sel: DivisorSelection) -> SymmetricRationalMatrix:
    """The |T| x |T| matrix of pairwise intersection numbers of the selected
    divisors: -b_i on the diagonal, 1 for fan-adjacent rays, 0 otherwise."""
    if not sel.T:
        raise ValueError("T must be nonempty")
    surf = sel.surface
    m = surf.fan.n_rays
    idx = sel.T
    rows = []
    for i in idx:
        row = []
        for j in idx:
            if i == j:
                row.append(-surf.b[i])
            elif (i - j) % m in (1, m - 1):
                row.append(1)
            else:
                row.append(0)
        rows.append(row)
    return SymmetricRationalMatrix(rows)


class ChainClass(enum.Enum):
    SEMIDEFINITE_SINGULAR = "SemidefiniteSingular"
    NEGATIVE_DEFINITE = "NegativeDefinite"
    INDEFINITE = "Indefinite"


def chain_classify(surface: ToricSurface, chain) -> ChainClass:
    """Classify the intersection matrix of the interior of a consecutive ray
    chain rho_0, ..., rho_{n+1}, by signature and by the position of the end
    rays relative to the line through rho_0. The two answers must coincide."""
    chain = lattice_point(chain)
    m = surface.fan.n_rays
    if len(chain) < 3:
        raise ValueError("a chain needs at least one interior ray")
    if len(set(i % m for i in chain)) != len(chain):
        raise ValueError("chain rays must be pairwise distinct")
    for a, b in zip(chain, chain[1:]):
        if (b - a) % m != 1:
            raise ValueError("chain must walk consecutive rays in cyclic order")
    interior = chain[1:-1]
    mat = intersection_matrix(DivisorSelection(surface, tuple(i % m for i in interior)))
    sig = inertia(mat)
    n = len(interior)

    v0 = surface.rays[chain[0] % m]
    v1 = surface.rays[chain[1] % m]
    vlast = surface.rays[chain[-1] % m]
    s1 = v0[0] * v1[1] - v0[1] * v1[0]
    s2 = v0[0] * vlast[1] - v0[1] * vlast[0]
    if vlast == (-v0[0], -v0[1]):
        geometric = ChainClass.SEMIDEFINITE_SINGULAR
    elif (s1 > 0) == (s2 > 0):
        geometric = ChainClass.NEGATIVE_DEFINITE
    else:
        geometric = ChainClass.INDEFINITE

    if sig == Inertia(0, n, 0):
        algebraic = ChainClass.NEGATIVE_DEFINITE
    elif sig == Inertia(0, n - 1, 1):
        algebraic = ChainClass.SEMIDEFINITE_SINGULAR
    elif sig == Inertia(1, n - 1, 0):
        algebraic = ChainClass.INDEFINITE
    else:
        raise RouteDisagreement(f"chain matrix has unexpected inertia {sig.as_tuple()}")
    if algebraic is not geometric:
        raise RouteDisagreement(
            f"inertia says {algebraic.value}, ray positions say {geometric.value}"
        )
    return geometric


class GeometricCase(enum.Enum):
    FULL_PLANE = "full_plane"
    HALF_PLANE = "half_plane"
    LINE = "line"
    SALIENT = "salient"


class RingShape(enum.Enum):
    CONSTANTS = "constants"
    POLYNOMIAL_ONE_VAR = "polynomial_one_var"
    LAURENT_ONE_VAR = "laurent_one_var"
    TWO_DIMENSIONAL = "two_dimensional"


_CASE_TO_RESULT = {
    GeometricCase.FULL_PLANE: (0, RingShape.CONSTANTS),
    GeometricCase.HALF_PLANE: (1, RingShape.POLYNOMIAL_ONE_VAR),
    GeometricCase.LINE: (1, RingShape.LAURENT_ONE_VAR),
    GeometricCase.SALIENT: (2, RingShape.TWO_DIMENSIONAL),
}


@dataclass(frozen=True)
class IitakaResult:
    trdeg: int
    ring_shape: RingShape
    signature_route: Inertia
    geometric_case: GeometricCase


def iitaka_classify(sel: DivisorSelection) -> IitakaResult:
    """Transcendence degree of the functions regular off the selected divisors.

    Geometric route: classify the cone spanned by the complementary rays
    (full plane / half-plane / line / salient). Signature route (T nonempty):
    negative definite -> 0, semidefinite singular -> 1, positive eigenvalue
    -> 2. Both are computed whenever both apply and must agree.
    """
    surf = sel.surface
    comp_rays = [surf.rays[i] for i in sel.complement()]
    cone = RationalCone.from_generators(comp_rays, 2, "N")
    if cone.is_full():
        case = GeometricCase.FULL_PLANE
    elif cone.lineality_dim() == 1:
        case = GeometricCase.HALF_PLANE if cone.dim() == 2 else GeometricCase.LINE
    else:
        case = GeometricCase.SALIENT
    trdeg, shape = _CASE_TO_RESULT[case]

    if not sel.T:
        return IitakaResult(trdeg, shape, Inertia(0, 0, 0), case)

    sig = inertia(intersection_matrix(sel))
    if sig.n_plus == 0 and sig.n_zero == 0:
        sig_trdeg = 0
    elif sig.n_plus == 0:
        sig_trdeg = 1
    else:
        sig_trdeg = 2
    if sig_trdeg != trdeg:
        raise RouteDisagreement(
            f"signature route gives trdeg {sig_trdeg} but the complement cone "
            f"is {case.value} (trdeg {trdeg})"
        )
    if sig_trdeg == 2:
        few_complement = len(sel.complement()) <= 1
        if (sig.n_zero > 0) != few_complement:
            raise RouteDisagreement(
                "singularity of the intersection matrix must coincide with "
                "|complement| <= 1 in the positive-eigenvalue case"
            )
    return IitakaResult(trdeg, shape, sig, case)


def positive_combination(mat: SymmetricRationalMatrix) -> tuple[int, ...]:
    """Integers m_i >= 1 with (A m) entrywise negative, for negative definite A
    with nonnegative off-diagonal entries, as every intersection matrix of
    distinct curves has.

    Then -A is a nonsingular M-matrix: (-A)^-1 is entrywise nonnegative with
    no zero row, so (-A)^-1 · 1 is positive. The witness is that vector made
    primitive; A m is a negative multiple of 1.

    >>> positive_combination(SymmetricRationalMatrix([[-1, 1], [1, -2]]))
    (3, 2)
    """
    n = mat.size
    if n == 0:
        raise ValueError("matrix must be nonempty")
    if not inertia(mat).is_negative_definite():
        raise ValueError("matrix must be negative definite")
    if any(mat[i, j] < 0 for i in range(n) for j in range(n) if i != j):
        raise ValueError("off-diagonal entries must be nonnegative")
    return clear_denominators(solve_rational([[-x for x in row] for row in mat.rows], [1] * n))
