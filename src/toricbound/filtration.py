"""The boundedness filtration: the verified subfan of a problem, lattice-point
polyhedra of the levels, module generators over the bounded ring,
dimensions, and the total-stability certificate.

``verified_subfan`` is the one route from a problem to its subfan: it builds
the adapted fan, requires a Verified compatibility condition (raising
``Inconclusive`` otherwise), and keeps the rays that the check classifies in
sigma or in K0. Binomial sets and tentacles are always Verified; a Verified
basic set has every ray outside sigma in K0.

Level n collects the exponents beta with <beta, u> >= 0 along the rays inside
sigma and >= -n along the divisors at infinity met by the closure of S. Every
offset is 0 or n, so level n is n·P_1 for the polygon P_1 of level 1: the
slice t = n of one cone, the homogenization of P_1. Level zero is the
recession cone of P_1: the bounded ring itself. Each level is a finitely
generated module over it, with generators computed by Dickson decomposition;
``filtration_levels`` decomposes all levels of a subfan in one pass over
P_1. A finite level has a zero recession cone, hence a trivial base
semigroup, so its module generators are all of its lattice points and their
number is its dimension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .bounded import (
    BinomialSet,
    FSData,
    ProblemSet,
    TCStatus,
    Tentacle,
    adapted_fan,
    check_tc,
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


class Inconclusive(Exception):
    """Raised when a command needs a Verified compatibility condition."""

    def __init__(self, report):
        super().__init__(report.reason)
        self.report = report


def verified_subfan(s: ProblemSet, sigma: RationalCone, grid=None, drifts=None) -> FSData:
    """The subfan of the adapted fan whose rays ``check_tc`` classifies in
    sigma or in K0.

    Raises ``Inconclusive`` with the report unless the compatibility
    condition is Verified, which it always is for binomial sets and
    tentacles. A basic set is Verified only when every ray outside sigma has
    a grid witness in K0, so all the fan's rays are kept and only constants
    are bounded."""
    fan = adapted_fan(s, sigma)
    report = check_tc(fan, sigma, s, grid, drifts)
    if report.status is not TCStatus.VERIFIED:
        raise Inconclusive(report)
    return subfan_FS(fan, report.rays)


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

    >>> orthant = RationalCone.from_generators([(1, 0), (0, 1)], 2, "N")
    >>> fs = verified_subfan(Tentacle(2, (-1, -1)), orthant)
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
    # every offset is 0 or n: level n is the slice t = n of level 1's homogenization
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
    fs = verified_subfan(s, sigma)
    if not fs.dual_basis.is_trivial():
        return StabilityReport(StabilityVerdict.NOT_APPLICABLE, fs.dual_basis, ())
    levels = filtration_levels(fs, n_max)
    return StabilityReport(StabilityVerdict.TOTALLY_STABLE, fs.dual_basis, levels)
