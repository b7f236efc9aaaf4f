import random
from itertools import product

import pytest

from toricbound.cones import RationalCone

from oracles import box_points, dot, in_cone2, in_cone_caratheodory


def ncone(*gens):
    return RationalCone.from_generators(gens, 2, "N")


def mcone(*gens):
    return RationalCone.from_generators(gens, 2, "M")


ORTHANT_N = ncone((1, 0), (0, 1))


class TestDualCone:
    def test_orthant_self_dual(self):
        d = ORTHANT_N.dual()
        assert d.generators == ((0, 1), (1, 0))
        assert d.side == "M"

    def test_hyperbola_chart_cone(self):
        # dual of cone(-e1-e2, -e1+2e2) is generated by e2*-e1* and -(2e1*+e2*)
        rho = ncone((-1, -1), (-1, 2))
        assert rho.dual().generators == ((-2, -1), (-1, 1))

    def test_dual_of_zero_is_full(self):
        z = RationalCone.zero(2, "N")
        d = z.dual()
        assert d.is_full()
        assert d.generators == ((-1, 0), (0, -1), (0, 1), (1, 0))

    def test_rank_cap(self):
        with pytest.raises(ValueError, match="rank"):
            RationalCone.from_generators([(1,) * 7], 7, "N")


class TestIsPointed:
    def test_orthant(self):
        assert ORTHANT_N.is_pointed()

    def test_half_plane(self):
        half = RationalCone.from_inequalities([(1, 0)], 2, "N")
        assert not half.is_pointed()
        assert half.lineality_basis == ((0, 1),)

    def test_line(self):
        assert not ncone((1, 0), (-1, 0)).is_pointed()

    def test_zero_cone(self):
        assert RationalCone.zero(2, "N").is_pointed()


class TestIntersect:
    def test_orthant_absorbs_halfplane(self):
        half = RationalCone.from_inequalities([(2, 1)], 2, "M")
        orth = mcone((1, 0), (0, 1))
        assert orth.intersect(half) == orth

    def test_hyperbola_bounded_ring_cone(self):
        orth = mcone((1, 0), (0, 1))
        assert orth.intersect(mcone((2, 1))).generators == ((2, 1),)

    def test_against_box_oracle(self):
        c = ncone((1, 0), (-1, 1))
        d = RationalCone.from_generators(c.dual().generators, 2, "N")
        got = c.intersect(d)
        for p in box_points(5):
            expected = in_cone2(c.generators, p) and in_cone2(d.generators, p)
            assert got.contains(p) == expected, p


class TestMinkowskiSum:
    def test_orthant_plus_antidiagonal_is_full(self):
        assert ORTHANT_N.minkowski_sum(ncone((-1, -1))).is_full()

    def test_sum_with_zero(self):
        assert ORTHANT_N.minkowski_sum(RationalCone.zero(2, "N")) == ORTHANT_N

    def test_two_rays(self):
        assert ncone((1, 0)).minkowski_sum(ncone((0, 1))) == ORTHANT_N


def _random_cone(rng, rank):
    k = rng.randint(1, rank + 2)
    gens = []
    while len(gens) < k:
        v = tuple(rng.randint(-4, 4) for _ in range(rank))
        if any(v):
            gens.append(v)
    return RationalCone.from_generators(gens, rank, "N")


class TestCanonicalProperties:
    def test_double_dual_identity(self):
        rng = random.Random(11)
        for rank in (2, 3, 4):
            for _ in range(25):
                c = _random_cone(rng, rank)
                assert c.dual().dual() == c

    def test_generators_contained_and_relint_implies_contains(self):
        rng = random.Random(12)
        for rank in (2, 3):
            for _ in range(25):
                c = _random_cone(rng, rank)
                for g in c.generators:
                    assert c.contains(g)

    def test_intersect_commutative_associative_idempotent(self):
        rng = random.Random(13)
        for _ in range(20):
            a, b, c = (_random_cone(rng, 2) for _ in range(3))
            assert a.intersect(b) == b.intersect(a)
            assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
            assert a.intersect(a) == a

    def test_rank2_dual_against_box_oracle(self):
        rng = random.Random(14)
        for _ in range(40):
            c = _random_cone(rng, 2)
            d = c.dual()
            for p in box_points(4):
                expected = all(dot(p, g) >= 0 for g in c.generators)
                got = in_cone2(d.generators, p) if d.generators else all(x == 0 for x in p)
                assert got == expected, (c.generators, p)

    def test_descriptions_agree_with_membership_oracle(self):
        # the inequality description must carve out exactly the generated cone,
        # checked pointwise in rank 3 against the independent subset oracle
        rng = random.Random(17)
        for _ in range(12):
            c = _random_cone(rng, 3)
            for p in product(range(-2, 3), repeat=3):
                assert c.contains(p) == in_cone_caratheodory(c.generators, p), (
                    c.generators,
                    p,
                )

    def test_construction_path_independence(self):
        rng = random.Random(15)
        for _ in range(25):
            c = _random_cone(rng, 3)
            again = RationalCone.from_inequalities(c.inequalities, 3, "N")
            assert again == c
            assert again.inequalities == c.inequalities

    def test_input_order_and_scaling_invariance(self):
        rng = random.Random(18)
        for rank in (2, 3, 4):
            for _ in range(10):
                c = _random_cone(rng, rank)
                gens = list(c.generators)
                rng.shuffle(gens)
                gens.append(tuple(3 * x for x in gens[0]))
                again = RationalCone.from_generators(gens, rank, "N")
                assert again == c
                assert again.inequalities == c.inequalities

    def test_mixed_lattice_rejected(self):
        with pytest.raises(ValueError, match="lattice"):
            ncone((1, 0)).minkowski_sum(mcone((1, 0)))

    def test_rank2_dual_is_oriented_perps(self):
        # dual of cone(a, b) = cone(a-perp toward b, b-perp toward a)
        rng = random.Random(16)
        from math import gcd

        def perp_toward(u, w):
            cand = (-u[1], u[0])
            if dot(cand, w) < 0:
                cand = (u[1], -u[0])
            g = gcd(abs(cand[0]), abs(cand[1]))
            return (cand[0] // g, cand[1] // g)

        for _ in range(30):
            a = (rng.randint(-5, 5), rng.randint(-5, 5))
            b = (rng.randint(-5, 5), rng.randint(-5, 5))
            if a[0] * b[1] - a[1] * b[0] == 0:
                continue
            c = ncone(a, b)
            ea, eb = c.extreme_rays()
            expected = tuple(sorted({perp_toward(ea, eb), perp_toward(eb, ea)}))
            assert c.dual().generators == expected
