"""The boundedness filtration: lattice-point polyhedra of the levels, module
generators over the bounded ring, dimensions, and the total-stability
certificate.

Level n collects the exponents beta with <beta, u> >= 0 along the rays inside
sigma and >= -n along the divisors at infinity met by the closure of S. Every
offset is 0 or n, so level n is n times the polygon of level 1, and level
zero is the recession cone of that polygon: the bounded ring itself. Each
level is a finitely generated module over it, with generators computed by
Dickson decomposition; ``filtration_levels`` decomposes all levels of a
subfan in one pass over the level-1 polygon. A finite level has a zero
recession cone, hence a trivial base semigroup, so its module generators are
all of its lattice points and their number is its dimension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .bounded import (
    BinomialSet,
    FSData,
    K_sets,
    TCStatus,
    Tentacle,
    adapted_fan,
    check_tc,
    is_trivial_bounded_ring,
    subfan_FS,
)
from .cones import RationalCone
from .hilbert import (
    ModuleGenerators,
    SemigroupBasis,
    ShiftedPolyhedron,
    dickson_decompose_scaled,
)

Vec = tuple[int, ...]

INFINITE = "infinite"


@dataclass(frozen=True)
class FiltrationLevel:
    """One level of the filtration: its polyhedron, module generators over the
    bounded ring, and its dimension (lattice-point count, or infinite with a
    finite module rank)."""

    fs: FSData
    n: int
    polyhedron: ShiftedPolyhedron
    generators: ModuleGenerators
    dimension: int | str

    @property
    def module_rank(self) -> int:
        return len(self.generators.generators)


def level_polyhedron(fs: FSData, n: int) -> ShiftedPolyhedron:
    cons = tuple((u, 0 if in_sigma else n) for u, in_sigma in fs.rays)
    return ShiftedPolyhedron(2, "M", cons)


def filtration_levels(fs: FSData, n_max: int) -> tuple[FiltrationLevel, ...]:
    """Levels 0..n_max of the subfan, from one Dickson pass over level 1.

    >>> from .bounded import Tentacle, K_sets, adapted_fan, subfan_FS
    >>> orthant = RationalCone.from_generators([(1, 0), (0, 1)], 2, "N")
    >>> s = Tentacle(2, (-1, -1))
    >>> fs = subfan_FS(adapted_fan(s, orthant), orthant, K_sets(s)[1])
    >>> [lv.dimension for lv in filtration_levels(fs, 3)]
    [1, 3, 6, 10]
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return _levels(fs, range(n_max + 1))


def filtration_level(fs: FSData, n: int) -> FiltrationLevel:
    """Polyhedron, Dickson module generators and dimension of level n."""
    if n < 0:
        raise ValueError("level index must be nonnegative")
    return _levels(fs, (n,))[0]


def _levels(fs: FSData, ns) -> tuple[FiltrationLevel, ...]:
    # every offset of level n is 0 or n, so level n is n times level 1
    decompositions = dickson_decompose_scaled(level_polyhedron(fs, 1), fs.dual_basis, ns)
    # the pass has checked that the recession cone is the cone of the
    # bounded ring, so a level is finite iff that ring is trivial
    finite = fs.dual_basis.is_trivial()
    return tuple(
        FiltrationLevel(
            fs, n, level_polyhedron(fs, n), gens,
            len(gens.generators) if finite else INFINITE,
        )
        for n, gens in zip(ns, decompositions)
    )


class StabilityVerdict(enum.Enum):
    TOTALLY_STABLE = "TotallyStable"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class StabilityReport:
    verdict: StabilityVerdict
    bounded_basis: SemigroupBasis
    levels: tuple[FiltrationLevel, ...]

    def dimensions(self) -> list[int | str]:
        return [lv.dimension for lv in self.levels]


def total_stability_certificate(
    sigma: RationalCone, s: BinomialSet | Tentacle, n_max: int
) -> StabilityReport:
    """Certify total stability of the cone of nonnegative polynomials on S.

    Requires the compatibility condition, which holds automatically for these
    two classes on their adapted fans. When only constants are bounded, every
    filtration level is a finite-dimensional space; their dimensions up to
    n_max are emitted with the verdict TotallyStable. A nontrivial bounded
    ring rules the certificate out (NotApplicable).
    """
    if not isinstance(s, (BinomialSet, Tentacle)):
        raise TypeError("stability certificates cover binomial sets and tentacles")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    fan = adapted_fan(s, sigma)
    report = check_tc(fan, sigma, s)
    if report.status is not TCStatus.VERIFIED:
        raise ValueError(f"compatibility not verified: {report.reason}")
    k0 = K_sets(s)[1]
    fs = subfan_FS(fan, sigma, k0)
    if not is_trivial_bounded_ring(sigma, s):
        return StabilityReport(StabilityVerdict.NOT_APPLICABLE, fs.dual_basis, ())
    levels = filtration_levels(fs, n_max)
    for lv in levels:
        if lv.dimension == INFINITE:
            raise AssertionError(
                "level with trivial bounded ring must be finite-dimensional"
            )
    return StabilityReport(StabilityVerdict.TOTALLY_STABLE, fs.dual_basis, levels)
