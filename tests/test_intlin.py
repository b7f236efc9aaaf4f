import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from toricbound.intlin import (
    clear_denominators,
    hnf,
    integer_kernel,
    integer_solve,
    lattice_points,
    rank_of,
    saturate,
    solve_rational,
)

from oracles import det, dot, lattice_points_oracle, rational_kernel


def random_matrix(rng, m, n, bound=4):
    rows = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m)]
    if m >= 2 and rng.random() < 0.5:
        # a dependent row, so the rank is below the row count
        a, b = rng.sample(rows, 2)
        rows.append(tuple(2 * x - y for x, y in zip(a, b)))
    return rows


class TestLatticePoints:
    def test_matches_box_scan(self):
        rng = random.Random(31)
        for rank in range(1, 5):
            for _ in range(150):
                cons = []
                for _ in range(rng.randint(0, 5)):
                    a = [rng.randint(-3, 3) for _ in range(rank)]
                    if rng.random() < 0.3:
                        a[-1] = 0
                    cons.append((tuple(a), rng.randint(-4, 6)))
                lo = [rng.randint(-4, 1) for _ in range(rank)]
                hi = [x + rng.randint(-1, 5) for x in lo]
                expected = lattice_points_oracle(cons, lo, hi)
                assert lattice_points(cons, lo, hi) == expected, (cons, lo, hi)

    def test_empty_polytope(self):
        # x >= 1 and x <= 0
        assert lattice_points([((1, 0), -1), ((-1, 0), 0)], (-3, -3), (3, 3)) == []

    def test_zero_last_coefficient(self):
        # 2x >= 1 leaves every fibre whole or empty
        pts = lattice_points([((2, 0), -1)], (0, 0), (1, 1))
        assert pts == [(1, 0), (1, 1)]

    def test_inverted_box(self):
        assert lattice_points([], (0, 2), (3, 1)) == []
        assert lattice_points([((1,), 5)], (1,), (0,)) == []

    def test_open_constraints_give_the_box(self):
        assert lattice_points([], (0, 0), (1, 2)) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
        ]


class TestIntegerKernel:
    def test_kernel_is_a_saturated_basis(self):
        rng = random.Random(32)
        for _ in range(150):
            n = rng.randint(1, 5)
            rows = random_matrix(rng, rng.randint(1, 4), n)
            qkernel = rational_kernel(rows, n)
            kernel = integer_kernel(rows)
            assert len(kernel) == len(qkernel), rows
            for v in kernel:
                assert all(dot(row, v) == 0 for row in rows), (rows, v)
            if not kernel:
                continue
            # independent and saturated: the maximal minors are coprime
            g = 0
            for cols in combinations(range(n), len(kernel)):
                g = gcd(g, det([[v[c] for c in cols] for v in kernel]))
            assert g == 1, (rows, kernel)
            assert hnf(kernel) == saturate([clear_denominators(v) for v in qkernel])

    def test_needs_a_row(self):
        with pytest.raises(ValueError):
            integer_kernel([])


class TestIntegerSolve:
    def test_round_trip(self):
        rng = random.Random(33)
        for _ in range(150):
            n = rng.randint(1, 5)
            rows = random_matrix(rng, rng.randint(1, 4), n)
            x0 = [rng.randint(-6, 6) for _ in range(n)]
            rhs = [dot(row, x0) for row in rows]
            x = integer_solve(rows, rhs)
            assert [dot(row, x) for row in rows] == rhs, (rows, rhs, x)

    def test_inconsistent_system(self):
        assert integer_solve([(1, 2), (2, 4)], [1, 3]) is None
        assert integer_solve([(0, 0)], [1]) is None

    def test_non_integral_solution_raises(self):
        with pytest.raises(ValueError, match="no integer solution"):
            integer_solve([(2, 4)], [1])
        with pytest.raises(ValueError, match="no integer solution"):
            integer_solve([(2, 0), (0, 3)], [2, 1])


def random_rational_matrix(rng, m, n):
    return [
        tuple(Fraction(x, rng.randint(1, 4)) for x in row)
        for row in random_matrix(rng, m, n)
    ]


def random_unimodular(rng, n):
    """A product of elementary row operations and sign changes."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        if rng.random() < 0.2:
            U[j] = [-a for a in U[j]]
    return U


class TestRankOf:
    def test_matches_rational_kernel(self):
        rng = random.Random(34)
        for _ in range(300):
            n = rng.randint(1, 6)
            rows = random_rational_matrix(rng, rng.randint(1, 5), n)
            assert rank_of(rows) == n - len(rational_kernel(rows, n)), rows

    def test_zero_and_empty(self):
        assert rank_of([]) == 0
        assert rank_of([(0, 0), (0, 0)]) == 0


class TestSolveRational:
    def test_cramer(self):
        rng = random.Random(35)
        solved = singular = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            rows = random_rational_matrix(rng, n, n)[:n]
            if n >= 2 and rng.random() < 0.3:
                rows[-1] = tuple(2 * a - b for a, b in zip(rows[0], rows[1]))
            rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            d = det([list(r) for r in rows])
            x = solve_rational(rows, rhs)
            if d == 0:
                assert x is None, rows
                singular += 1
                continue
            solved += 1
            # Cramer's rule: x_j = det(A with column j replaced by rhs) / det(A)
            for j in range(n):
                swapped = [list(r[:j]) + [b] + list(r[j + 1:]) for r, b in zip(rows, rhs)]
                assert x[j] == det(swapped) / d, (rows, rhs)
        assert solved > 100 and singular > 50

    def test_singular(self):
        assert solve_rational([(1, 2), (2, 4)], [1, 2]) is None
        assert solve_rational([(1, 2), (2, 4)], [1, 3]) is None
        assert solve_rational([(0,)], [0]) is None


class TestHnf:
    def test_unimodular_invariance_and_form(self):
        rng = random.Random(36)
        for _ in range(300):
            B = random_matrix(rng, 3, rng.randint(1, 5))
            m, n = len(B), len(B[0])
            U = random_unimodular(rng, m)
            UB = [tuple(sum(u * b[c] for u, b in zip(urow, B)) for c in range(n)) for urow in U]
            H = hnf(B)
            assert hnf(UB) == H, (B, U)
            assert len(H) == rank_of(B)
            cols = [next(c for c, a in enumerate(row) if a) for row in H]
            assert cols == sorted(set(cols))
            for i, c in enumerate(cols):
                assert H[i][c] > 0
                assert all(0 <= H[j][c] < H[i][c] for j in range(i)), H
