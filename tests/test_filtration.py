import random
from fractions import Fraction
from itertools import product

import pytest

from toricbound.bounded import (
    BasicSet,
    BinomialSet,
    LaurentPoly,
    TCStatus,
    Tentacle,
    bounded_ring,
)
from toricbound.cli import corpus_entry
from toricbound.cones import RationalCone
from toricbound.filtration import (
    INFINITE,
    Inconclusive,
    StabilityVerdict,
    filtration_level,
    filtration_levels,
    level_polyhedron,
    total_stability_certificate,
    verified_subfan,
)
from toricbound.hilbert import SemigroupBasis, hilbert_basis
from toricbound.serialize import problem_from_json

from oracles import (
    count_points_oracle,
    dickson_oracle,
    multiplicativity_oracle,
    polyhedron_vertices,
)

ORTHANT = RationalCone.from_generators([(1, 0), (0, 1)], 2, "N")
ZERO = RationalCone.zero(2, "N")
STRIP = BinomialSet(2, ((1, 0),), (Fraction(1),))
TENT_DIAG = Tentacle(2, (-1, -1))


def fs_for(s, sigma):
    return verified_subfan(s, sigma)


CORPUS = ("hyperbola-1", "hyperbola-2", "hyperbola-3", "strip", "tentacle-diag")
SIGMAS = (None, [(1, 0), (0, 1)], [(1, 0), (1, 2)], [(1, -1), (1, 1)], [(2, 1), (-1, 1)])


def corpus_fs(name):
    sigma, s = problem_from_json(corpus_entry(name)["input"])
    return fs_for(s, sigma)


def random_fs(seed):
    """A seeded binomial set or tentacle over a seeded sigma (None: the zero cone)."""
    rng = random.Random(seed)
    sig = rng.choice(SIGMAS)
    sigma = RationalCone.from_generators(sig, 2, "N") if sig else ZERO
    vec = lambda: rng.choice([v for v in product(range(-3, 4), repeat=2) if any(v)])
    if seed % 2:
        s = Tentacle(2, vec())
    else:
        gammas = tuple(vec() for _ in range(rng.randint(1, 2)))
        s = BinomialSet(2, gammas, tuple(Fraction(rng.randint(1, 3)) for _ in gammas))
    return fs_for(s, sigma)


def oracle_images(fs, n):
    """The irreducible points of level n by the box oracle, and a map that
    sends a point to its class modulo the lineality lattice of the bounded
    ring (the identity when that ring is pointed)."""
    cons = list(level_polyhedron(fs, n).constraints)
    base = fs.dual_basis
    if not base.lineality_units:
        return dickson_oracle(cons, list(base.generators)), lambda x: x
    if len(base.lineality_units) == 2:
        return [()], lambda x: ()
    (l0, l1), = base.lineality_units
    # t(x) = <(-l1, l0), x> identifies Z^2 modulo l with Z; every constraint
    # kills l, so it is k·(-l1, l0) for an integer k
    t = lambda x: (l0 * x[1] - l1 * x[0],)
    qcons = []
    for u, m in cons:
        k = u[1] // l0 if l0 else -u[0] // l1
        assert u == (-k * l1, k * l0)
        qcons.append(((k,), m))
    qgens = [t(h) for h in base.generators if any(t(h))]
    return dickson_oracle(qcons, qgens), t


class TestVerifiedSubfan:
    SHIFTED = (ORTHANT, BasicSet(2, (LaurentPoly(2, {(1, 0): 1, (0, 0): -3}),)))

    @pytest.mark.parametrize("problem, status", [
        (SHIFTED, TCStatus.UNKNOWN),
        (problem_from_json(corpus_entry("example3")["input"]), TCStatus.VIOLATED),
    ], ids=["x>3", "example3"])
    def test_unverified_basic_set_raises_with_report(self, problem, status):
        sigma, s = problem
        with pytest.raises(Inconclusive) as info:
            verified_subfan(s, sigma)
        assert info.value.report.status is status


class TestFiltrationLevel:
    def test_simplex_dimensions(self):
        fs = fs_for(TENT_DIAG, ORTHANT)
        for n in range(6):
            lv = filtration_level(fs, n)
            assert lv.dimension == (n + 1) * (n + 2) // 2

    def test_strip_module_ranks(self):
        fs = fs_for(STRIP, ORTHANT)
        for n in range(6):
            lv = filtration_level(fs, n)
            assert lv.dimension == INFINITE
            assert lv.module_rank == n + 1
            assert lv.generators.generators == tuple((0, k) for k in range(n + 1))

    def test_level_zero_is_the_ring(self):
        for s, sigma in ((TENT_DIAG, ORTHANT), (STRIP, ORTHANT)):
            fs = fs_for(s, sigma)
            lv = filtration_level(fs, 0)
            assert lv.generators.generators == ((0, 0),)
            assert lv.polyhedron.recession_cone() == fs.dual_basis.cone()

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            filtration_level(fs_for(STRIP, ORTHANT), -1)

    def test_tentacle_over_trivial_sigma(self):
        # the bounded ring is the half-plane semigroup (a Laurent polynomial
        # ring in one variable); every level is a rank-1 module over it
        fs = fs_for(TENT_DIAG, ZERO)
        assert fs.dual_basis.lineality_units == ((1, -1),)
        for n in range(4):
            lv = filtration_level(fs, n)
            assert lv.dimension == INFINITE
            assert lv.module_rank == 1
            (gen,) = lv.generators.generators
            assert gen[0] + gen[1] == n

    def test_dimension_against_box_oracle(self):
        fs = fs_for(TENT_DIAG, ORTHANT)
        for n in range(4):
            poly = level_polyhedron(fs, n)
            assert filtration_level(fs, n).dimension == count_points_oracle(
                poly.constraints, 12
            )

    def test_monotonicity(self):
        for s, sigma in ((TENT_DIAG, ORTHANT), (STRIP, ORTHANT)):
            fs = fs_for(s, sigma)
            prev_pts = None
            for n in range(4):
                poly = level_polyhedron(fs, n)
                pts = {
                    (x, y)
                    for x in range(-8, 9)
                    for y in range(-8, 9)
                    if poly.contains((x, y))
                }
                if prev_pts is not None:
                    assert prev_pts <= pts
                prev_pts = pts

    def test_dickson_coverage_in_box(self):
        from toricbound.hilbert import semigroup_contains

        fs = fs_for(STRIP, ORTHANT)
        for n in range(3):
            lv = filtration_level(fs, n)
            poly = lv.polyhedron
            for x in range(-6, 7):
                for y in range(-6, 7):
                    if poly.contains((x, y)):
                        assert any(
                            semigroup_contains(
                                lv.generators.base, (x - b[0], y - b[1])
                            )
                            for b in lv.generators.generators
                        )


class TestLevelsAgainstOracle:
    """filtration_levels against a box scan that knows nothing of vertices
    shared across levels or of fibre intervals."""

    CASES = [("corpus", name) for name in CORPUS] + [("random", seed) for seed in range(24)] + [
        ("strip over zero", None), ("diagonal tentacle over zero", None)]

    @staticmethod
    def fs_of(kind, arg):
        if kind == "corpus":
            return corpus_fs(arg)
        if kind == "random":
            return random_fs(arg)
        return fs_for(STRIP if kind.startswith("strip") else TENT_DIAG, ZERO)

    @pytest.mark.parametrize("kind,arg", CASES)
    def test_generators_are_the_irreducible_points(self, kind, arg):
        fs = self.fs_of(kind, arg)
        levels = filtration_levels(fs, 12)
        assert [lv.n for lv in levels] == list(range(13))
        for n, lv in enumerate(levels):
            want, image = oracle_images(fs, n)
            got = lv.generators.generators
            assert sorted(image(g) for g in got) == sorted(want), (kind, arg, n)
            assert all(level_polyhedron(fs, n).contains(g) for g in got)
            if fs.dual_basis.is_trivial():
                assert lv.dimension == len(got)

    def test_cases_cover_every_kind_of_bounded_ring(self):
        bases = [self.fs_of(kind, arg).dual_basis for kind, arg in self.CASES]
        assert any(b.is_trivial() for b in bases)
        assert any(b.generators and not b.lineality_units for b in bases)
        assert any(len(b.lineality_units) == 1 for b in bases)

    def test_single_level_is_the_same_pass(self):
        for name in CORPUS:
            fs = corpus_fs(name)
            levels = filtration_levels(fs, 6)
            assert [filtration_level(fs, n) for n in range(7)] == list(levels)

    @pytest.mark.parametrize("kind,arg", CASES)
    def test_vertices_scale_with_the_level(self, kind, arg):
        # a level with lineality has a non-pointed homogenization and no vertex
        fs = self.fs_of(kind, arg)
        for n in range(13):
            poly = level_polyhedron(fs, n)
            cone = poly.homogenization()
            rays = [g for g in cone.generators if g[-1] > 0] if cone.is_pointed() else []
            got = sorted(tuple(Fraction(x, g[-1]) for x in g[:-1]) for g in rays)
            assert got == sorted(polyhedron_vertices(poly.constraints)), (kind, arg, n)

    @pytest.mark.parametrize("kind,arg", CASES)
    def test_rees_basis_describes_the_levels(self, kind, arg):
        # level n is the slice t = n of the homogenization of level 1, so the
        # Hilbert basis of that cone (the Rees basis) generates every level
        fs = self.fs_of(kind, arg)
        rees = hilbert_basis(level_polyhedron(fs, 1).homogenization())
        base = fs.dual_basis
        flat = tuple(sorted(g[:-1] for g in rees.generators if g[-1] == 0))
        if base.lineality_units:
            # representatives modulo the lineality space depend on coordinates
            units = tuple(u[:-1] for u in rees.lineality_units)
            assert SemigroupBasis(2, "M", flat, units).cone() == base.cone()
        elif base.generators:
            assert flat == base.generators
        else:
            assert not flat and not rees.lineality_units
            # sums[n]: the sums of generators whose degrees add up to n
            sums = [{(0, 0)}]
            for n in range(1, 9):
                sums.append({
                    (p[0] + g[0], p[1] + g[1])
                    for g in rees.generators if g[-1] <= n
                    for p in sums[n - g[-1]]
                })
            levels = filtration_levels(fs, 8)
            assert sums == [set(lv.generators.generators) for lv in levels], (kind, arg)

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError):
            filtration_levels(fs_for(STRIP, ORTHANT), -1)


class TestMultiplicativity:
    def test_simplex_levels(self):
        fs = fs_for(TENT_DIAG, ORTHANT)
        l1 = filtration_level(fs, 1)
        assert multiplicativity_oracle(l1, l1)

    def test_strip_levels(self):
        fs = fs_for(STRIP, ORTHANT)
        assert multiplicativity_oracle(
            filtration_level(fs, 1), filtration_level(fs, 2)
        )

    def test_level_zero_always(self):
        fs = fs_for(STRIP, ORTHANT)
        l0 = filtration_level(fs, 0)
        for n in range(3):
            assert multiplicativity_oracle(l0, filtration_level(fs, n))

    def test_different_subfans_rejected(self):
        a = filtration_level(fs_for(STRIP, ORTHANT), 1)
        b = filtration_level(fs_for(TENT_DIAG, ORTHANT), 1)
        with pytest.raises(ValueError):
            multiplicativity_oracle(a, b)


class TestStability:
    def test_diagonal_tentacle(self):
        report = total_stability_certificate(ORTHANT, TENT_DIAG, 3)
        assert report.verdict is StabilityVerdict.TOTALLY_STABLE
        assert report.dimensions() == [1, 3, 6, 10]

    def test_strip_not_applicable(self):
        report = total_stability_certificate(ORTHANT, STRIP, 3)
        assert report.verdict is StabilityVerdict.NOT_APPLICABLE
        assert report.bounded_basis.generators == ((1, 0),)

    def test_full_exponent_cone_over_zero_sigma(self):
        s = BinomialSet(2, ((1, 0), (0, 1), (-1, -1)), (1, 1, 1))
        report = total_stability_certificate(ZERO, s, 2)
        assert report.verdict is StabilityVerdict.NOT_APPLICABLE
        assert report.bounded_basis.lineality_units == ((1, 0), (0, 1))

    def test_finite_dimensions_on_random_trivial_instances(self):
        # regression guard: with a trivial bounded ring every level must come
        # out finite-dimensional on compatible toric data
        rng = random.Random(61)
        found = 0
        while found < 10:
            v = (rng.randint(-4, -1), rng.randint(-4, -1))
            s = Tentacle(2, v)
            if not bounded_ring(ORTHANT, s).is_trivial():
                continue
            report = total_stability_certificate(ORTHANT, s, rng.randint(1, 4))
            assert report.verdict is StabilityVerdict.TOTALLY_STABLE
            assert all(isinstance(lv.dimension, int) for lv in report.levels)
            dims = report.dimensions()
            assert dims == sorted(dims)
            found += 1
