import random
from fractions import Fraction
from itertools import product

import pytest

from toricbound.cones import RationalCone
from toricbound.hilbert import (
    SemigroupBasis,
    ShiftedPolyhedron,
    _parallelepiped_points,
    binomial_parts,
    dickson_decompose_scaled,
    hilbert_basis,
    lattice_kernel_relations,
    semigroup_contains,
    semigroup_membership,
)

from oracles import (
    _solve_exact,
    box_points,
    det,
    dickson_oracle,
    hilbert_basis_by_continued_fraction,
    hilbert_count_by_continued_fraction,
    hilbert_oracle,
    in_cone2,
    random_unimodular,
)


def mcone(*gens):
    return RationalCone.from_generators(gens, 2, "M")


class TestHilbertBasis:
    def test_free_orthant(self):
        assert hilbert_basis(mcone((1, 0), (0, 1))).generators == ((0, 1), (1, 0))

    def test_index_two_cone(self):
        assert hilbert_basis(mcone((1, 0), (1, 2))).generators == ((1, 0), (1, 1), (1, 2))

    def test_hyperbola_chart_semigroup(self):
        # the saturated semigroup of the chart at infinity: x1^-2 x2^-1, x1^-1, x1^-1 x2
        dual = RationalCone.from_generators([(-1, -1), (-1, 2)], 2, "N").dual()
        assert hilbert_basis(dual).generators == ((-2, -1), (-1, 0), (-1, 1))

    def test_non_pointed_half_plane(self):
        half = RationalCone.from_inequalities([(1, 0)], 2, "M")
        basis = hilbert_basis(half)
        assert basis.lineality_units == ((0, 1),)
        assert basis.generators == ((1, 0),)

    def test_full_plane(self):
        basis = hilbert_basis(RationalCone.from_inequalities([], 2, "M"))
        assert basis.generators == ()
        assert basis.lineality_units == ((1, 0), (0, 1))

    def test_zero_cone(self):
        basis = hilbert_basis(RationalCone.zero(2, "M"))
        assert basis.is_trivial()

    def test_rank3_simplicial(self):
        cone = RationalCone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3, "M")
        basis = hilbert_basis(cone)
        # interior point (1,1,1) = half the sum of the deep generator and e1+e2
        assert (1, 1, 1) in basis.generators
        for g in basis.generators:
            assert cone.contains(g)

    def test_rank3_non_simplicial(self):
        cone = RationalCone.from_generators(
            [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)], 3, "M"
        )
        basis = hilbert_basis(cone)
        assert set(basis.generators) >= {(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)}
        # coverage on a small box
        for p in product(range(0, 3), repeat=3):
            if cone.contains(p):
                assert semigroup_contains(basis, p), p

    def test_rank_cap(self):
        with pytest.raises(ValueError, match="rank"):
            hilbert_basis(RationalCone.from_generators([(1, 0, 0, 0, 0)], 5, "M"))


class TestSemigroupContains:
    def test_positive_case(self):
        basis = hilbert_basis(mcone((1, 0), (1, 2)))
        assert semigroup_contains(basis, (2, 1))

    def test_negative_case(self):
        basis = hilbert_basis(mcone((1, 0), (1, 2)))
        assert not semigroup_contains(basis, (0, 1))

    def test_on_ray(self):
        basis = hilbert_basis(mcone((2, 1)))
        assert semigroup_contains(basis, (4, 2))
        assert not semigroup_contains(basis, (3, 2))

    def test_with_lineality(self):
        half = hilbert_basis(RationalCone.from_inequalities([(1, 0)], 2, "M"))
        assert semigroup_contains(half, (3, -7))
        assert not semigroup_contains(half, (-1, 5))

    def test_zero(self):
        assert semigroup_contains(SemigroupBasis(2, "M", ()), (0, 0))
        assert not semigroup_contains(SemigroupBasis(2, "M", ()), (1, 0))

    def test_non_integral_point_rejected(self):
        orthant = hilbert_basis(mcone((1, 0), (0, 1)))
        with pytest.raises(ValueError, match="not an integer"):
            semigroup_contains(orthant, (Fraction(1, 2), 0))
        assert semigroup_contains(orthant, (Fraction(4, 2), 1))

    def test_membership_against_cone_oracle(self):
        # a Hilbert basis generates every lattice point of its cone
        for rays in (((1, 0), (1, 2)), ((2, 1),), ((1, 0), (0, 1), (0, -1)),
                     ((1, 0), (-1, 0), (0, 1), (0, -1)), ((3, -1), (-1, 2))):
            contains = semigroup_membership(hilbert_basis(mcone(*rays)))
            for p in box_points(5):
                assert contains(p) == in_cone2(rays, p), (rays, p)

    @pytest.mark.parametrize(
        "rays, point",
        [
            (((1, 0), (1, 2)), (1000, 1000)),
            (((1, 0), (1, 3)), (1500, 2000)),
            (((2, 1), (1, 3)), (2000, 2500)),
        ],
    )
    def test_far_points(self, rays, point):
        # thousands of generator steps from 0: deeper than the recursion limit
        assert semigroup_contains(hilbert_basis(mcone(*rays)), point)


ORTHANT_SEMIGROUP = SemigroupBasis(2, "M", ((0, 1), (1, 0)))


class TestDicksonDecompose:
    def test_shifted_orthant(self):
        poly = ShiftedPolyhedron(2, "M", (((1, 0), 1), ((0, 1), 1)))
        out = dickson_decompose_scaled(poly, ORTHANT_SEMIGROUP, (1,))[0]
        assert out.generators == ((-1, -1),)

    def test_bounded_triangle(self):
        poly = ShiftedPolyhedron(2, "M", (((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)))
        out = dickson_decompose_scaled(poly, SemigroupBasis(2, "M", ()), (1,))[0]
        assert set(out.generators) == {(0, 0), (1, 0), (0, 1)}

    def test_strip_module(self):
        poly = ShiftedPolyhedron(2, "M", (((1, 0), 0), ((0, 1), 0), ((0, -1), 2)))
        base = SemigroupBasis(2, "M", ((1, 0),))
        out = dickson_decompose_scaled(poly, base, (1,))[0]
        assert out.generators == ((0, 0), (0, 1), (0, 2))

    def test_empty_polyhedron(self):
        poly = ShiftedPolyhedron(2, "M", (((1, 0), -2), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)))
        out = dickson_decompose_scaled(poly, SemigroupBasis(2, "M", ()), (1,))[0]
        assert out.generators == ()

    def test_non_integral_point_rejected(self):
        orthant = ShiftedPolyhedron(2, "M", (((1, 0), 0), ((0, 1), 0)))
        with pytest.raises(ValueError, match="not an integer"):
            orthant.contains((Fraction(-1, 2), 0))
        assert orthant.contains((Fraction(2), 0))

    def test_scaled_pass_against_box_oracle(self):
        # random pointed polyhedra; their fibres include reducible intervals
        # nested inside one another. In rank 3 the homogenization has rank 4;
        # the oracle's box grows with the sum of the generators, so rank 3
        # keeps to bases of at most 8 of them
        rng = random.Random(5)
        for rank, cases, bound, offsets, scales in (
            (2, 40, 4, (-3, 5), [0, 1, 2, 5, 3]),
            (3, 8, 2, (-1, 3), [0, 1, 2]),
        ):
            checked = 0
            while checked < cases:
                us = [tuple(rng.randint(-bound, bound) for _ in range(rank))
                      for _ in range(rng.randint(rank, rank + 2))]
                if (0,) * rank in us:
                    continue
                cone = RationalCone.from_inequalities(us, rank, "M")
                if cone.is_zero() or not cone.is_pointed():
                    continue
                base = hilbert_basis(cone)
                if rank == 3 and len(base.generators) > 8:
                    continue
                cons = tuple((u, rng.randint(*offsets)) for u in us)
                poly = ShiftedPolyhedron(rank, "M", cons)
                out = dickson_decompose_scaled(poly, base, scales)
                for s, got in zip(scales, out):
                    scaled = tuple((u, s * m) for u, m in cons)
                    want = dickson_oracle(scaled, base.generators)
                    assert sorted(got.generators) == want, (cons, s)
                    one = ShiftedPolyhedron(rank, "M", scaled)
                    assert got == dickson_decompose_scaled(one, base, (1,))[0]
                checked += 1

    def test_scale_zero_of_an_empty_polyhedron_is_the_cone(self):
        poly = ShiftedPolyhedron(2, "M", (((1, 0), -1), ((0, 1), -1), ((-1, -1), 1)))
        zero, one = dickson_decompose_scaled(poly, SemigroupBasis(2, "M", ()), (0, 1))
        assert zero.generators == ((0, 0),)
        assert one.generators == ()

    def test_negative_scale_rejected(self):
        poly = ShiftedPolyhedron(2, "M", (((1, 0), 1), ((0, 1), 1)))
        with pytest.raises(ValueError, match="nonnegative"):
            dickson_decompose_scaled(poly, ORTHANT_SEMIGROUP, (1, -1))

    def test_recession_mismatch(self):
        poly = ShiftedPolyhedron(2, "M", (((1, 0), 1), ((0, 1), 1)))
        with pytest.raises(ValueError, match="recession"):
            dickson_decompose_scaled(poly, SemigroupBasis(2, "M", ((1, 0),)), (1,))

    def test_coverage_and_minimality(self):
        rng = random.Random(21)
        for _ in range(15):
            m1, m2 = rng.randint(0, 2), rng.randint(0, 3)
            poly = ShiftedPolyhedron(2, "M", (((1, 0), m1), ((0, 1), m2), ((1, 1), 0)))
            base = hilbert_basis(poly.recession_cone())
            out = dickson_decompose_scaled(poly, base, (1,))[0]
            pts = [p for p in box_points(6) if poly.contains(p)]
            for p in pts:
                assert any(
                    semigroup_contains(base, (p[0] - b[0], p[1] - b[1]))
                    for b in out.generators
                ), p
            # minimality: dropping any generator loses coverage of itself
            for b in out.generators:
                others = [c for c in out.generators if c != b]
                assert not any(
                    semigroup_contains(base, (b[0] - c[0], b[1] - c[1])) for c in others
                )


class TestLatticeKernelRelations:
    def test_hyperbola_binomial(self):
        rels = lattice_kernel_relations([(-2, -1), (-1, 0), (-1, 1)])
        assert rels == [(1, -3, 1)]
        plus, minus = binomial_parts(rels[0])
        assert plus == ((0, 1), (2, 1))
        assert minus == ((1, 3),)

    def test_free_generators(self):
        assert lattice_kernel_relations([(1, 0), (0, 1)]) == []

    def test_sum_relation(self):
        assert lattice_kernel_relations([(1, 0), (0, 1), (1, 1)]) == [(1, 1, -1)]

    def test_caps(self):
        with pytest.raises(ValueError):
            lattice_kernel_relations([(1, 0)] * 9)


class TestParallelepipedPoints:
    def test_random_simplicial_cones(self):
        rng = random.Random(27)
        for rank in (2, 3, 4):
            checked = 0
            while checked < 12:
                simplex = tuple(
                    tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank)
                )
                d = abs(det([list(g) for g in simplex]))
                if d == 0:
                    continue
                points = _parallelepiped_points(simplex)
                assert len(points) == d - 1, simplex
                columns = [[g[c] for g in simplex] for c in range(rank)]
                for x in points:
                    t = _solve_exact(columns, x)
                    assert all(0 <= ti < 1 for ti in t), (simplex, x, t)
                checked += 1


class TestHilbertProperties:
    def test_irreducibility(self):
        # no basis element splits as a sum of two nonzero semigroup elements;
        # any such summand lies within sup-norm |A| + |B| of the two rays
        rng = random.Random(22)
        for _ in range(20):
            gens = _random_pointed_gens(rng)
            cone = mcone(*gens)
            basis = hilbert_basis(cone)
            for g in basis.generators:
                for a in box_points(12):
                    if not any(a) or a == g:
                        continue
                    b = (g[0] - a[0], g[1] - a[1])
                    if not any(b):
                        continue
                    assert not (cone.contains(a) and cone.contains(b)), (g, a)

    def test_box_coverage(self, coverage_bound=10):
        rng = random.Random(23)
        for _ in range(8):
            gens = _random_pointed_gens(rng)
            cone = mcone(*gens)
            basis = hilbert_basis(cone)
            for p in box_points(coverage_bound):
                if cone.contains(p):
                    assert semigroup_contains(basis, p), (gens, p)

    def test_counts_match_continued_fractions(self):
        rng = random.Random(24)
        checked = 0
        while checked < 25:
            a = (rng.randint(-6, 6), rng.randint(-6, 6))
            b = (rng.randint(-6, 6), rng.randint(-6, 6))
            if a[0] * b[1] - a[1] * b[0] == 0:
                continue
            cone = mcone(a, b)
            expected = hilbert_count_by_continued_fraction(*cone.extreme_rays())
            assert len(hilbert_basis(cone).generators) == expected
            checked += 1

    @pytest.mark.parametrize("k", list(range(1, 33)) + [64, 100, 255, 256, 511, 799, 800])
    def test_matches_continued_fractions_on_deep_cones(self, k):
        # cone((1, 0), (1 - k, k)) has det k and the Hilbert basis (1, 0), (0, 1),
        # (-1, 2), ..., (1 - k, k): the continued fraction k / (k - 1) = [2, ..., 2]
        cone = RationalCone.from_generators([(1, 0), (1 - k, k)], 2, "N")
        expected = hilbert_basis_by_continued_fraction((1, 0), (1 - k, k))
        assert len(expected) == k + 1
        assert list(hilbert_basis(cone).generators) == sorted(expected)

    def test_matches_continued_fractions_on_random_cones(self):
        rng = random.Random(27)
        checked = 0
        while checked < 40:
            a = (rng.randint(-30, 30), rng.randint(-30, 30))
            b = (rng.randint(-30, 30), rng.randint(-30, 30))
            if a[0] * b[1] - a[1] * b[0] == 0:
                continue
            cone = mcone(a, b)
            expected = hilbert_basis_by_continued_fraction(*cone.extreme_rays())
            assert list(hilbert_basis(cone).generators) == sorted(expected), (a, b)
            checked += 1

    def test_matches_box_oracle(self):
        rng = random.Random(25)
        for _ in range(25):
            gens = _random_pointed_gens(rng)
            cone = mcone(*gens)
            assert list(hilbert_basis(cone).generators) == hilbert_oracle(
                cone.extreme_rays()
            )

    def test_rank3_matches_box_oracle(self):
        from itertools import combinations
        from itertools import product as iproduct

        def oracle(gens, grading):
            # x is reducible iff x - b lies in the cone for an irreducible b of
            # smaller positive linear grading, all of them kept before x
            rank = len(grading)
            cache = {}
            # by Caratheodory, p is in the cone iff Cramer's rule gives it
            # nonnegative coordinates over some independent triple of rays
            triples = [(t, d) for t in combinations(gens, rank) if (d := det(list(t)))]

            def member(p):
                if p not in cache:
                    cache[p] = any(
                        all(det([*t[:i], p, *t[i + 1:]]) * d >= 0 for i in range(rank))
                        for t, d in triples
                    )
                return cache[p]

            # by Caratheodory, a basis element is a ray or sum t_i g_i over
            # rank independent rays with 0 <= t_i < 1
            bound = sum(sorted(max(map(abs, g)) for g in gens)[-rank:])
            pts = [
                p
                for p in iproduct(range(-bound, bound + 1), repeat=rank)
                if any(p) and member(p)
            ]
            pts.sort(key=lambda p: (sum(a * x for a, x in zip(grading, p)), p))
            basis = []
            for x in pts:
                if not any(member(tuple(a - b for a, b in zip(x, y))) for y in basis):
                    basis.append(x)
            return sorted(basis)

        rng = random.Random(26)
        non_simplicial = checked = 0
        while checked < 6:
            gens = []
            while len(gens) < rng.randint(4, 6):
                v = (rng.randint(0, 2), rng.randint(-2, 2), rng.randint(-2, 2))
                if any(v):
                    gens.append(v)
            cone = RationalCone.from_generators(gens, 3, "M")
            if not cone.is_pointed() or cone.dim() < 3:
                continue
            rays = cone.extreme_rays()
            grading = [sum(col) for col in zip(*cone.inequalities)]
            assert all(sum(a * x for a, x in zip(grading, g)) > 0 for g in rays)
            assert list(hilbert_basis(cone).generators) == oracle(rays, grading)
            non_simplicial += len(rays) > 3
            checked += 1
        assert non_simplicial >= 3


    def test_gl_invariance(self):
        # g also reorders the sorted rays and so moves the apex of the pulling
        # triangulation: the basis must not depend on the triangulation
        rng = random.Random(28)
        non_simplicial = 0
        for trial in range(36):
            n = 2 + trial % 3
            cone = RationalCone.zero(n, "M")
            while cone.dim() < n:
                gens = [
                    (*(rng.randint(-2, 2) for _ in range(n - 1)), rng.randint(1, 2))
                    for _ in range(rng.randint(n, n + 2))
                ]
                cone = RationalCone.from_generators(gens, n, "M")

            def act(v):
                return tuple(sum(a * x for a, x in zip(row, v)) for row in g)

            # the parallelepiped scans grow with the coordinates of the rays
            while True:
                g = random_unimodular(rng, n)
                images = [act(r) for r in cone.extreme_rays()]
                if max(abs(x) for v in images for x in v) <= 20:
                    break
            image = RationalCone.from_generators(images, n, "M")
            expected = tuple(sorted(act(h) for h in hilbert_basis(cone).generators))
            assert hilbert_basis(image).generators == expected, (cone.generators, g)
            non_simplicial += len(cone.extreme_rays()) > n
        assert non_simplicial >= 10


def _random_pointed_gens(rng):
    while True:
        a = (rng.randint(-5, 5), rng.randint(-5, 5))
        b = (rng.randint(-5, 5), rng.randint(-5, 5))
        if a[0] * b[1] - a[1] * b[0] != 0:
            return [a, b]
