import random
from fractions import Fraction
from math import gcd

import pytest

from toricbound.fans import make_fan, smooth_resolution, star_subdivide
from toricbound.linalg import SymmetricRationalMatrix, inertia
from toricbound.surface import (
    ChainClass,
    DivisorSelection,
    GeometricCase,
    RingShape,
    chain_classify,
    function_ring_basis,
    iitaka_classify,
    intersection_matrix,
    positive_combination,
    self_intersections,
)

from oracles import inertia_oracle

P2 = make_fan([(1, 0), (0, 1), (-1, -1)])
STRIP_FAN = make_fan([(1, 0), (0, 1), (-1, -1), (0, -1)])
HIRZEBRUCH2 = make_fan([(1, 0), (0, 1), (-1, 2), (0, -1)])
HYP_RESOLVED = smooth_resolution(make_fan([(1, 0), (0, 1), (-1, 2), (-1, -1), (1, -2)]))


def random_smooth_fan(rng, max_subdivisions=8):
    fan = P2
    for _ in range(rng.randrange(max_subdivisions + 1)):
        fan = star_subdivide(fan, rng.randrange(fan.n_rays))
    return fan


class TestSelfIntersections:
    def test_projective_plane(self):
        surf = self_intersections(P2)
        assert surf.b == (-1, -1, -1)  # every line has square 1

    def test_exceptional_curve(self):
        surf = self_intersections(STRIP_FAN)
        i = surf.rays.index((0, -1))
        assert surf.b[i] == 1

    def test_hirzebruch_section(self):
        surf = self_intersections(HIRZEBRUCH2)
        i = surf.rays.index((0, 1))
        assert surf.b[i] == 2

    def test_wheel_identity(self):
        rng = random.Random(51)
        for _ in range(20):
            surf = self_intersections(random_smooth_fan(rng))
            m = surf.fan.n_rays
            for i in range(m):
                prev, nxt = surf.rays[(i - 1) % m], surf.rays[(i + 1) % m]
                v = surf.rays[i]
                assert (prev[0] + nxt[0], prev[1] + nxt[1]) == (
                    surf.b[i] * v[0],
                    surf.b[i] * v[1],
                )

    def test_non_smooth_rejected(self):
        with pytest.raises(ValueError, match="smooth"):
            self_intersections(make_fan([(1, 0), (-1, 2), (0, -1)]))


class TestIntersectionMatrix:
    def test_projective_plane_all_ones(self):
        surf = self_intersections(P2)
        mat = intersection_matrix(DivisorSelection(surf, (0, 1, 2)))
        assert all(x == 1 for row in mat.rows for x in row)

    def test_chain_of_minus_twos(self):
        fan = make_fan([(1, 0), (1, 1), (1, 2), (1, 3), (0, 1), (-1, 0), (0, -1)])
        surf = self_intersections(fan)
        sel = DivisorSelection.from_rays(surf, [(1, 1), (1, 2)])
        mat = intersection_matrix(sel)
        assert [list(map(int, row)) for row in mat.rows] == [[-2, 1], [1, -2]]

    def test_single_zero_curve(self):
        surf = self_intersections(STRIP_FAN)
        sel = DivisorSelection.from_rays(surf, [(-1, -1)])
        assert intersection_matrix(sel).rows == ((0,),)

    def test_empty_rejected(self):
        surf = self_intersections(P2)
        with pytest.raises(ValueError):
            intersection_matrix(DivisorSelection(surf, ()))


class TestChainClassify:
    def test_semidefinite_singular(self):
        surf = self_intersections(HYP_RESOLVED)
        i0 = surf.rays.index((-1, 2))
        chain = [(i0 + k) % surf.fan.n_rays for k in range(6)]
        assert chain_classify(surf, chain) is ChainClass.SEMIDEFINITE_SINGULAR
        mat = intersection_matrix(
            DivisorSelection(surf, tuple(i % surf.fan.n_rays for i in chain[1:-1]))
        )
        sig = inertia(mat)
        assert sig.n_zero == 1 and sig.n_plus == 0  # rank n-1

    def test_negative_definite(self):
        surf = self_intersections(HYP_RESOLVED)
        i0 = surf.rays.index((-1, 2))
        chain = [(i0 + k) % surf.fan.n_rays for k in range(4)]
        assert chain_classify(surf, chain) is ChainClass.NEGATIVE_DEFINITE

    def test_indefinite_unique_positive(self):
        surf = self_intersections(HYP_RESOLVED)
        i0 = surf.rays.index((0, 1))
        chain = [(i0 + k) % surf.fan.n_rays for k in range(8)]
        assert chain_classify(surf, chain) is ChainClass.INDEFINITE
        mat = intersection_matrix(
            DivisorSelection(surf, tuple(i % surf.fan.n_rays for i in chain[1:-1]))
        )
        assert inertia(mat).n_plus == 1

    def test_random_chains_never_disagree(self):
        rng = random.Random(52)
        for _ in range(60):
            fan = random_smooth_fan(rng)
            if fan.n_rays < 4:
                continue
            surf = self_intersections(fan)
            m = fan.n_rays
            length = rng.randint(3, m)
            start = rng.randrange(m)
            chain = [(start + k) % m for k in range(length)]
            if len(set(chain)) != length:
                continue
            chain_classify(surf, chain)  # raises RouteDisagreement on any bug


class TestIitaka:
    def test_hyperbola_surface(self):
        surf = self_intersections(HYP_RESOLVED)
        outside = [r for r in surf.rays if 2 * r[0] + r[1] < 0]
        sel = DivisorSelection.from_rays(surf, outside)
        res = iitaka_classify(sel)
        assert res.trdeg == 1
        assert res.ring_shape is RingShape.POLYNOMIAL_ONE_VAR
        assert res.geometric_case is GeometricCase.HALF_PLANE
        assert function_ring_basis(sel).generators == ((2, 1),)

    def test_laurent_case(self):
        surf = self_intersections(STRIP_FAN)
        sel = DivisorSelection.from_rays(surf, [(1, 0), (-1, -1)])
        res = iitaka_classify(sel)
        assert res.trdeg == 1
        assert res.ring_shape is RingShape.LAURENT_ONE_VAR
        assert res.geometric_case is GeometricCase.LINE
        basis = function_ring_basis(sel)
        assert basis.lineality_units == ((1, 0),)

    def test_bounded_set_case(self):
        surf = self_intersections(P2)
        sel = DivisorSelection.from_rays(surf, [(-1, -1)])
        res = iitaka_classify(sel)
        assert res.trdeg == 2
        assert res.geometric_case is GeometricCase.SALIENT
        assert res.signature_route.n_plus == 1

    def test_constants_case(self):
        surf = self_intersections(HIRZEBRUCH2)
        sel = DivisorSelection.from_rays(surf, [(0, 1)])
        res = iitaka_classify(sel)
        assert res.trdeg == 0
        assert res.ring_shape is RingShape.CONSTANTS
        assert res.geometric_case is GeometricCase.FULL_PLANE

    def test_empty_T_geometric_only(self):
        surf = self_intersections(P2)
        res = iitaka_classify(DivisorSelection(surf, ()))
        assert res.trdeg == 0
        assert res.signature_route.size == 0

    def test_blowup_invariance(self):
        # subdividing a cone whose rays both lie outside T keeps the complement
        # cone, hence the classification
        rng = random.Random(53)
        for _ in range(25):
            fan = random_smooth_fan(rng, 5)
            m = fan.n_rays
            surf = self_intersections(fan)
            i = rng.randrange(m)
            j = (i + 1) % m
            T = tuple(k for k in range(m) if k not in (i, j) and rng.random() < 0.5)
            if not T:
                continue
            before = iitaka_classify(DivisorSelection(surf, T))
            bigger = star_subdivide(fan, i)
            surf2 = self_intersections(bigger)
            t_rays = [surf.rays[k] for k in T]
            after = iitaka_classify(DivisorSelection.from_rays(surf2, t_rays))
            assert (before.trdeg, before.ring_shape, before.geometric_case) == (
                after.trdeg,
                after.ring_shape,
                after.geometric_case,
            )


class TestDivisorRelationsAndHodge:
    def test_null_vectors_and_signature(self):
        rng = random.Random(54)
        for _ in range(40):
            fan = random_smooth_fan(rng)
            surf = self_intersections(fan)
            m = fan.n_rays
            mat = intersection_matrix(DivisorSelection(surf, tuple(range(m))))
            assert inertia(mat).as_tuple() == (1, m - 3, 2)
            for j in (0, 1):
                vec = [surf.rays[i][j] for i in range(m)]
                assert all(x == 0 for x in mat.apply(vec))


class TestPositiveCombination:
    def test_identity(self):
        assert positive_combination(SymmetricRationalMatrix([[-1, 0], [0, -1]])) == (1, 1)

    def test_symmetric_chain(self):
        mat = SymmetricRationalMatrix([[-2, 1], [1, -2]])
        assert positive_combination(mat) == (1, 1)

    def test_witness_is_primitive_inverse_row_sums(self):
        # (-A)^-1 = [[2, 1], [1, 1]], so (-A)^-1 · 1 = (3, 2) and A m = (-1, -1)
        mat = SymmetricRationalMatrix([[-1, 1], [1, -2]])
        m = positive_combination(mat)
        assert m == (3, 2)
        assert mat.apply(m) == (-1, -1)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            positive_combination(SymmetricRationalMatrix([[1, 0], [0, -1]]))

    def test_rejects_negative_off_diagonal(self):
        # negative definite (eigenvalues -1 and -3), but no intersection matrix
        with pytest.raises(ValueError, match="off-diagonal"):
            positive_combination(SymmetricRationalMatrix([[-2, -1], [-1, -2]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            positive_combination(SymmetricRationalMatrix([]))

    def test_minus_two_chains_closed_form(self):
        # for the chain of n (-2)-curves, (-A)^-1 · 1 has entries i (n + 1 - i) / 2
        for n in range(1, 65):
            rows = [[-2 if i == j else int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
            closed = [i * (n + 1 - i) for i in range(1, n + 1)]
            g = gcd(*closed)
            assert positive_combination(SymmetricRationalMatrix(rows)) == tuple(x // g for x in closed)

    def test_random_negative_definite_graphs(self):
        # random graphs, not only paths, with integer and Fraction weights: a
        # strictly diagonally dominant negative diagonal is negative definite
        # (Gershgorin); the other half shrinks the diagonal below dominance and
        # must be rejected exactly when the characteristic polynomial says the
        # matrix is not negative definite
        rng = random.Random(56)
        weights = [0, 0, 1, 2, Fraction(1, 2), Fraction(2, 3)]
        checked = 0
        while checked < 60:
            n = rng.randint(1, 12)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    rows[i][j] = rows[j][i] = Fraction(rng.choice(weights))
            dominant = checked % 2 == 0
            for i in range(n):
                off = sum(rows[i][j] for j in range(n) if j != i)
                slack = Fraction(rng.randint(1, 6), rng.randint(1, 3))
                rows[i][i] = -(off + slack) if dominant else -(off * Fraction(2, 3) + slack)
            mat = SymmetricRationalMatrix(rows)
            if not dominant and inertia_oracle(rows) != (0, n, 0):
                with pytest.raises(ValueError, match="negative definite"):
                    positive_combination(mat)
                continue
            m = positive_combination(mat)
            img = mat.apply(m)
            assert all(x >= 1 for x in m) and gcd(*m) == 1
            assert img[0] < 0 and len(set(img)) == 1
            checked += 1

    def test_random_negative_definite_chains(self):
        rng = random.Random(55)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = -rng.randint(2, 4)
                if i + 1 < n:
                    rows[i][i + 1] = rows[i + 1][i] = 1
            mat = SymmetricRationalMatrix(rows)
            m = positive_combination(mat)
            assert all(x >= 1 for x in m)
            assert all(x < 0 for x in mat.apply(m))
