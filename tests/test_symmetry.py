"""Answers that must not depend on how a problem is written down.

Basic sets: reordering the inequalities, scaling one by 3 or multiplying one
by the positive monomial x^(2, -2) leaves the set, its adapted fan and the
sign of every initial form unchanged, so the compatibility status, the
witness ray and the kind of every ray's verdict must stay. With sigma = 0
the same holds for the sign flips x_i -> -x_i: they map S onto the flipped
set, and the default grid and drifts onto themselves.

Binomial sets and tentacles: a unimodular g acting on the character lattice
M maps the exponents gamma to g gamma, and the cocharacter lattice N (with a
tentacle's direction) by g^(-T). Then K0 moves by g^(-T), the generators of
B(S) over the moved sigma move by g (modulo the lineality space when B(S) is
not pointed), and the stability verdict stays.
"""

import random
from fractions import Fraction
from itertools import product

from toricbound.bounded import (
    BasicSet,
    BinomialSet,
    K_sets,
    LaurentPoly,
    RayKind,
    Tentacle,
    adapted_fan,
    check_tc,
)
from toricbound.cones import RationalCone
from toricbound.filtration import total_stability_certificate, verified_subfan
from toricbound.hilbert import semigroup_contains

from oracles import random_unimodular

ORTHANT = RationalCone.from_generators([(1, 0), (0, 1)], 2, "N")
ZERO = RationalCone.zero(2, "N")
MONOMIAL = LaurentPoly(2, {(2, -2): 1})


def random_basic_set(rng):
    polys = []
    for _ in range(rng.randint(1, 3)):
        exps = rng.sample(list(product(range(-2, 3), repeat=2)), rng.randint(1, 4))
        polys.append(LaurentPoly(2, {e: rng.choice((-1, 1)) * rng.randint(1, 3) for e in exps}))
    return BasicSet(2, tuple(polys))


def signature(s, sigma):
    report = check_tc(adapted_fan(s, sigma), sigma, s)
    return report.status, report.witness_ray, tuple((v.ray, v.kind) for v in report.rays)


def flipped(f, signs):
    """f(signs_1 x, signs_2 y)."""
    return LaurentPoly(2, [(e, c * (signs[0] if e[0] % 2 else 1) * (signs[1] if e[1] % 2 else 1))
                           for e, c in f.terms])


def variants(rng, s, sigma):
    polys = list(s.polys)
    i = rng.randrange(len(polys))
    yield "reordered", rng.sample(polys, len(polys))
    yield "scaled", polys[:i] + [polys[i] * LaurentPoly(2, {(0, 0): 3})] + polys[i + 1:]
    yield "monomial", polys[:i] + [polys[i] * MONOMIAL] + polys[i + 1:]
    if sigma is ZERO:
        for signs in ((-1, 1), (1, -1), (-1, -1)):
            yield f"flip {signs}", [flipped(f, signs) for f in polys]


def test_basic_set_verdicts_are_invariant():
    rng = random.Random(71)
    statuses, kinds = set(), set()
    for i in range(120):
        s, sigma = random_basic_set(rng), (ZERO, ORTHANT)[i % 2]
        expected = signature(s, sigma)
        statuses.add(expected[0])
        kinds.update(kind for _, kind in expected[2])
        for name, polys in variants(rng, s, sigma):
            assert signature(BasicSet(2, tuple(polys)), sigma) == expected, (name, s, sigma)
    assert len(statuses) == 3
    assert kinds == {RayKind.IN_SIGMA, RayKind.IN_K0, RayKind.MEETS, RayKind.UNDECIDED}


def act(m, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


def inverse_transpose(g):
    (a, b), (c, d) = g
    det = a * d - b * c
    return [[d * det, -c * det], [-b * det, a * det]]


SIGMAS = [[], [(1, 0), (0, 1)], [(1, 0)], [(1, 2), (-1, 1)], [(2, -1), (-1, 3)]]


def test_exact_answers_move_with_the_lattice():
    rng = random.Random(72)
    vec = lambda: rng.choice([(a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b])
    stable = non_pointed = 0
    for i in range(120):
        g = random_unimodular(rng, 2)
        h = inverse_transpose(g)
        if i % 4 == 3:
            v = vec()
            s, moved = Tentacle(2, v), Tentacle(2, act(h, v))
        else:
            gammas = tuple(vec() for _ in range(rng.randint(1, 3)))
            consts = tuple(Fraction(rng.randint(1, 3)) for _ in gammas)
            s, moved = BinomialSet(2, gammas, consts), BinomialSet(2, tuple(act(g, e) for e in gammas), consts)
        rays = SIGMAS[i % len(SIGMAS)]
        sigma = RationalCone.from_generators(rays, 2, "N")
        sigma_moved = RationalCone.from_generators([act(h, u) for u in rays], 2, "N")
        k0 = K_sets(s)[1]
        assert K_sets(moved)[1] == RationalCone.from_generators([act(h, u) for u in k0.generators], 2, "N")
        basis = verified_subfan(s, sigma).dual_basis
        basis_moved = verified_subfan(moved, sigma_moved).dual_basis
        if basis.lineality_units:
            # the pointed part is unique only modulo the lineality space
            cone = basis.cone()
            assert basis_moved.cone() == RationalCone.from_generators(
                [act(g, b) for b in cone.generators], 2, "M")
            assert len(basis_moved.generators) == len(basis.generators)
            assert all(semigroup_contains(basis_moved, act(g, b)) for b in basis.generators)
            non_pointed += 1
        else:
            assert basis_moved.generators == tuple(sorted(act(g, b) for b in basis.generators)), (
                g, s, rays)
        verdict = total_stability_certificate(sigma, s, 1).verdict
        assert total_stability_certificate(sigma_moved, moved, 1).verdict is verdict
        stable += basis.is_trivial()
    assert 0 < stable < 120 and non_pointed
