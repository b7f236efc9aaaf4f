import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbound.cli import corpus_entry
from toricbound.intlin import primitive_tuple
from toricbound.linalg import Inertia, SymmetricRationalMatrix, inertia
from toricbound.serialize import matrix_from_json

from oracles import inertia_oracle


class TestPrimitive:
    @pytest.mark.parametrize(
        "vec,expected",
        [((2, 4), (1, 2)), ((0, -3), (0, -1)), ((6, -9), (2, -3))],
    )
    def test_examples(self, vec, expected):
        assert primitive_tuple(vec) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive_tuple((0, 0))


def _corpus_matrix(name):
    return matrix_from_json(corpus_entry(name)["input"])


class TestInertia:
    def test_diag(self):
        assert inertia(SymmetricRationalMatrix([[1, 0], [0, -1]])).as_tuple() == (1, 1, 0)

    def test_mondal_netzer_single_curve(self):
        sig = inertia(_corpus_matrix("mondal-netzer-MY1"))
        assert sig.n_plus == 1
        assert sig.as_tuple() == (1, 8, 0)

    def test_mondal_netzer_union(self):
        sig = inertia(_corpus_matrix("mondal-netzer-MY"))
        assert sig.as_tuple() == (0, 13, 1)
        assert sig.n_plus == 0 and not sig.is_negative_definite()

    def test_oracle_on_paper_matrices(self):
        for name in ("mondal-netzer-MY1", "mondal-netzer-MY"):
            mat = _corpus_matrix(name)
            assert inertia(mat).as_tuple() == inertia_oracle(mat.rows)

    def test_hyperbolic_block(self):
        assert inertia(SymmetricRationalMatrix([[0, 1], [1, 0]])).as_tuple() == (1, 1, 0)

    def test_zero_rows(self):
        assert inertia(SymmetricRationalMatrix([[0, 0], [0, 0]])).as_tuple() == (0, 0, 2)

    def test_zero_diagonal(self):
        # two hyperbolic blocks: the congruence step makes the first pivot,
        # and again the third, after a pivot other than 1
        rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]
        assert inertia(SymmetricRationalMatrix(rows)).as_tuple() == inertia_oracle(rows)
        assert inertia(SymmetricRationalMatrix(rows)).as_tuple() == (2, 2, 0)

    def test_hyperbolic_block_with_zero_row(self):
        rows = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        assert inertia(SymmetricRationalMatrix(rows)).as_tuple() == (1, 1, 1)

    def test_schur_complement_vanishes(self):
        # after the first pivot the rest is [[0, 1], [1, 0]], then zero
        assert inertia(SymmetricRationalMatrix(
            [[1, 1, 1], [1, 1, 2], [1, 2, 1]])).as_tuple() == (2, 1, 0)
        # v v^T: after the first pivot the rest is exactly zero
        assert inertia(SymmetricRationalMatrix(
            [[1, 2, 3], [2, 4, 6], [3, 6, 9]])).as_tuple() == (1, 0, 2)
        assert inertia(SymmetricRationalMatrix(
            [[-2, 1, 0], [1, Fraction(-1, 2), 0], [0, 0, 3]])).as_tuple() == (1, 1, 1)

    def test_rational_entries(self):
        mat = SymmetricRationalMatrix([[Fraction(1, 2), 1], [1, Fraction(3)]])
        assert inertia(mat).as_tuple() == (2, 0, 0)
        singular = SymmetricRationalMatrix([[Fraction(1, 2), 1], [1, Fraction(2)]])
        assert inertia(singular).as_tuple() == (1, 0, 1)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymmetricRationalMatrix([[0, 1], [2, 0]])

    def test_inertia_totals(self):
        sig = Inertia(1, 2, 3)
        assert sig.size == 6


def _random_symmetric(rng, n, denom=False):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 3) if denom else 1)
            rows[i][j] = rows[j][i] = x
    return rows


class TestInertiaProperties:
    def test_permutation_invariance(self):
        rng = random.Random(1)
        for _ in range(40):
            rows = _random_symmetric(rng, 6, denom=True)
            mat = SymmetricRationalMatrix(rows)
            perm = list(range(6))
            rng.shuffle(perm)
            permuted = SymmetricRationalMatrix([[rows[i][j] for j in perm] for i in perm])
            assert inertia(mat) == inertia(permuted)

    def test_unimodular_congruence_invariance(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(2, 5)
            rows = _random_symmetric(rng, n)
            # random unimodular: product of elementary shears
            P = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                for k in range(n):
                    P[k][j] += c * P[k][i]
            PtAP = [
                [
                    sum(
                        P[a][i] * rows[a][b] * P[b][j]
                        for a in range(n)
                        for b in range(n)
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert inertia(SymmetricRationalMatrix(rows)) == inertia(
                SymmetricRationalMatrix(PtAP)
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.randoms(use_true_random=False))
    def test_matches_charpoly_descartes_oracle(self, n, rnd):
        # sparse entries and zeros on the diagonal send the elimination
        # through its congruence step and its zero rows
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                if i == j and rnd.random() < 0.5 or rnd.random() < 0.3:
                    continue
                rows[i][j] = rows[j][i] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        assert inertia(SymmetricRationalMatrix(rows)).as_tuple() == inertia_oracle(rows)
