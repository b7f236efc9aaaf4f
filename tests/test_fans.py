import random

import pytest

from toricbound.fans import (
    is_smooth,
    make_fan,
    smooth_resolution,
    star_subdivide,
)

P2 = make_fan([(1, 0), (0, 1), (-1, -1)])


class TestMakeFan:
    def test_projective_plane(self):
        assert P2.rays == ((1, 0), (0, 1), (-1, -1))
        assert P2.complete

    def test_primitivized_and_incomplete(self):
        fan = make_fan([(2, 0), (0, 3)])
        assert fan.rays == ((1, 0), (0, 1))
        assert not fan.complete

    def test_four_quadrants(self):
        fan = make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
        assert fan.complete

    def test_two_opposite_rays_not_complete(self):
        assert not make_fan([(1, 0), (-1, 0)]).complete

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_fan([])

    def test_zero_ray_rejected(self):
        with pytest.raises(ValueError):
            make_fan([(0, 0), (1, 0)])

    def test_cyclic_order_starts_near_positive_x(self):
        fan = make_fan([(0, -1), (-1, 2), (1, 1), (3, 1)])
        assert fan.rays == ((3, 1), (1, 1), (-1, 2), (0, -1))


class TestRefine:
    """A fan refines by make_fan on the union of its rays and the new ones."""

    def test_strip_fan(self):
        fan = make_fan(P2.rays + ((0, -1),))
        assert fan.rays == ((1, 0), (0, 1), (-1, -1), (0, -1))
        assert fan.complete

    def test_hyperbola_fan(self):
        fan = make_fan(P2.rays + ((1, -2), (-1, 2)))
        assert fan.rays == ((1, 0), (0, 1), (-1, 2), (-1, -1), (1, -2))

    def test_noop(self):
        assert make_fan(P2.rays) == P2
        assert make_fan(P2.rays + ((2, 0),)) == P2


class TestStarSubdivide:
    def test_first_quadrant(self):
        fan = star_subdivide(P2, 0)
        assert (1, 1) in fan.rays

    def test_wrap_around_cone(self):
        # the cone between (-1,-1) and e1 gets the inserted ray (0,-1)
        fan = star_subdivide(P2, 2)
        assert fan.rays == ((1, 0), (0, 1), (-1, -1), (0, -1))

    def test_quadrant_fan(self):
        fan = star_subdivide(make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)]), 0)
        assert (1, 1) in fan.rays

    def test_ray_count_and_completeness(self):
        rng = random.Random(31)
        fan = P2
        for _ in range(10):
            before = fan.n_rays
            fan = star_subdivide(fan, rng.randrange(fan.n_rays))
            assert fan.n_rays == before + 1
            assert fan.complete

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            star_subdivide(P2, 3)

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            star_subdivide(make_fan([(1, 0), (0, 1)]), 0)


class TestIsSmooth:
    def test_projective_plane(self):
        assert is_smooth(P2)

    def test_weighted_example(self):
        assert not is_smooth(make_fan([(1, 0), (-1, 2), (0, -1)]))

    def test_hyperbola_fan_not_smooth(self):
        fan = make_fan([(1, 0), (0, 1), (-1, 2), (-1, -1), (1, -2)])
        assert not is_smooth(fan)

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            is_smooth(make_fan([(1, 0), (0, 1)]))


class TestSmoothResolution:
    def test_smooth_input_unchanged(self):
        assert smooth_resolution(P2) == P2

    def test_single_insertion(self):
        fan = make_fan([(0, 1), (2, -1), (-1, 0)])
        resolved = smooth_resolution(fan)
        assert (1, 0) in resolved.rays
        assert is_smooth(resolved)

    def test_weighted_fan(self):
        resolved = smooth_resolution(make_fan([(1, 0), (-1, 3), (0, -1)]))
        assert is_smooth(resolved)

    def test_minimality(self):
        rng = random.Random(32)
        for _ in range(15):
            a = (rng.randint(1, 5), rng.randint(-4, 4))
            fan = make_fan([(0, 1), a, (-1, -1), (0, -1) if a[1] >= 0 else (1, 1)])
            if not fan.complete:
                continue
            resolved = smooth_resolution(fan)
            assert is_smooth(resolved)
            inserted = [r for r in resolved.rays if r not in fan.rays]
            for r in inserted:
                thinner = make_fan([x for x in resolved.rays if x != r])
                assert not is_smooth(thinner), (fan.rays, r)


class TestOrderInvariants:
    def test_consecutive_dets_positive(self):
        rng = random.Random(33)
        fan = P2
        for _ in range(12):
            fan = star_subdivide(fan, rng.randrange(fan.n_rays))
        m = fan.n_rays
        for i in range(m):
            a, b = fan.rays[i], fan.rays[(i + 1) % m]
            assert a[0] * b[1] - a[1] * b[0] > 0
