"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are exact (integer / rational equality); nothing is calibrated.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from toricbound.bounded import (
    BasicSet,
    BinomialSet,
    LaurentPoly,
    TCStatus,
    Tentacle,
    adapted_fan,
    bounded_ring,
    check_tc,
)
from toricbound.cli import corpus_entry
from toricbound.cones import RationalCone
from toricbound.fans import make_fan, star_subdivide
from toricbound.filtration import (
    StabilityVerdict,
    filtration_level,
    total_stability_certificate,
    verified_subfan,
)
from toricbound.hilbert import hilbert_basis, lattice_kernel_relations
from toricbound.linalg import SymmetricRationalMatrix, inertia
from toricbound.serialize import matrix_from_json
from toricbound.surface import (
    DivisorSelection,
    intersection_matrix,
    iitaka_classify,
    self_intersections,
)

from oracles import hilbert_oracle

ORTHANT = RationalCone.from_generators([(1, 0), (0, 1)], 2, "N")
ZERO = RationalCone.zero(2, "N")
P2 = make_fan([(1, 0), (0, 1), (-1, -1)])


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:>2}: FAIL - {summary}")
        raise
    print(f"[acceptance] criterion {number:>2}: PASS - {summary}")


def test_criterion_01_strip():
    with criterion(1, "strip: bounded ring generated exactly by (1,0)"):
        s = BinomialSet(2, ((1, 0),), (Fraction(1),))
        assert bounded_ring(ORTHANT, s).generators == ((1, 0),)


def test_criterion_02_hyperbola_family():
    with criterion(2, "hyperbola family k=1,2,3: bounded ring generated by (k,1)"):
        for k in (1, 2, 3):
            s = BinomialSet(2, ((k, 1),), (Fraction(1),))
            basis = bounded_ring(ORTHANT, s)
            assert basis.generators == ((k, 1),), k
            assert basis.lineality_units == ()


def test_criterion_03_dual_cone_check():
    with criterion(3, "chart at infinity: Hilbert basis and the binomial relation"):
        rho = RationalCone.from_generators([(-1, -1), (-1, 2)], 2, "N")
        basis = hilbert_basis(rho.dual())
        assert basis.generators == ((-2, -1), (-1, 0), (-1, 1))
        rels = lattice_kernel_relations(basis.generators)
        assert rels == [(1, -3, 1)]  # gen1 + gen3 = 3 * gen2


def test_criterion_04_tc_verdicts():
    with criterion(4, "compatibility verdicts: hyperbola Verified, both escape "
                      "geometries Violated at ray (-1,-1)"):
        hyp = BinomialSet(2, ((2, 1),), (Fraction(1),))
        fan = adapted_fan(hyp, ORTHANT)
        assert check_tc(fan, ORTHANT, hyp).status is TCStatus.VERIFIED

        def lp(terms):
            return LaurentPoly(2, terms)

        ex3 = BasicSet(
            2,
            (
                lp({(2, 0): 1, (1, 1): -1, (0, 0): 1}),
                lp({(0, 2): 1, (1, 1): -1, (0, 0): 1}),
                lp({(1, 0): 1}),
                lp({(0, 1): 1}),
            ),
        )
        rep3 = check_tc(adapted_fan(ex3, ORTHANT), ORTHANT, ex3)
        assert rep3.status is TCStatus.VIOLATED
        assert rep3.witness_ray == (-1, -1)

        ex4 = BasicSet(
            2,
            (
                lp({(1, 0): 1, (0, 0): -1}),
                lp({(0, 1): 1, (0, 0): -1}),
                lp({(1, 0): 1, (0, 1): -1, (0, 0): -1}),
                lp({(0, 0): 2, (1, 0): -1, (0, 1): 1}),
            ),
        )
        rep4 = check_tc(adapted_fan(ex4, ZERO), ZERO, ex4)
        assert rep4.status is TCStatus.VIOLATED
        assert rep4.witness_ray == (-1, -1)


def test_criterion_05_mondal_netzer_inertia():
    with criterion(5, "bundled intersection matrices: inertia (1,8,0) and (0,13,1)"):
        m1 = matrix_from_json(corpus_entry("mondal-netzer-MY1")["input"])
        sig1 = inertia(m1)
        assert sig1.n_plus == 1
        assert sig1.as_tuple() == (1, 8, 0)
        m2 = matrix_from_json(corpus_entry("mondal-netzer-MY")["input"])
        assert inertia(m2).as_tuple() == (0, 13, 1)


@pytest.fixture(scope="module")
def random_fans():
    rng = random.Random(20240601)
    fans = []
    for _ in range(500):
        fan = P2
        for _ in range(rng.randrange(0, 9)):
            fan = star_subdivide(fan, rng.randrange(fan.n_rays))
        fans.append((fan, rng))
    return [(fan, self_intersections(fan)) for fan, _ in fans]


def test_criterion_06_route_cross_validation(random_fans):
    with criterion(6, "signature and geometric routes agree on 500 random fans"):
        rng = random.Random(77)
        disagreements = 0
        for fan, surf in random_fans:
            m = fan.n_rays
            T = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
            iitaka_classify(DivisorSelection(surf, T))  # raises on disagreement
        assert disagreements == 0


def test_criterion_07_hodge_and_kernel(random_fans):
    with criterion(7, "full intersection matrix has inertia (1, m-3, 2) with the "
                      "two character null vectors"):
        for fan, surf in random_fans:
            m = fan.n_rays
            mat = intersection_matrix(DivisorSelection(surf, tuple(range(m))))
            assert inertia(mat).as_tuple() == (1, m - 3, 2)
            for j in (0, 1):
                vec = [surf.rays[i][j] for i in range(m)]
                assert all(x == 0 for x in mat.apply(vec))


def test_criterion_08_hilbert_oracle_equivalence():
    with criterion(8, "Hilbert bases match the brute-force oracle on 200 random cones"):
        rng = random.Random(4242)
        checked = 0
        while checked < 200:
            a = (rng.randint(-8, 8), rng.randint(-8, 8))
            b = (rng.randint(-8, 8), rng.randint(-8, 8))
            if a[0] * b[1] - a[1] * b[0] == 0:
                continue
            cone = RationalCone.from_generators([a, b], 2, "M")
            assert list(hilbert_basis(cone).generators) == hilbert_oracle(
                cone.extreme_rays()
            ), (a, b)
            checked += 1


def test_criterion_09_filtration_dimensions():
    with criterion(9, "filtration dimensions: simplex counts and module ranks n+1"):
        tent = Tentacle(2, (-1, -1))
        fs = verified_subfan(tent, ORTHANT)
        for n in range(6):
            assert filtration_level(fs, n).dimension == (n + 1) * (n + 2) // 2
        strip = BinomialSet(2, ((1, 0),), (Fraction(1),))
        fs2 = verified_subfan(strip, ORTHANT)
        for n in range(6):
            assert filtration_level(fs2, n).module_rank == n + 1


def test_criterion_10_stability_certificates():
    with criterion(10, "stability: diagonal tentacle TotallyStable to n=10, strip "
                       "NotApplicable"):
        tent = Tentacle(2, (-1, -1))
        report = total_stability_certificate(ORTHANT, tent, 10)
        assert report.verdict is StabilityVerdict.TOTALLY_STABLE
        assert all(isinstance(lv.dimension, int) for lv in report.levels)
        assert len(report.levels) == 11
        strip = BinomialSet(2, ((1, 0),), (Fraction(1),))
        assert (
            total_stability_certificate(ORTHANT, strip, 10).verdict
            is StabilityVerdict.NOT_APPLICABLE
        )


MY1_PAPER = (
    (-1, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, -3, 0, 1, 0, 0, 0, 0, 0),
    (1, 0, -2, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, -2, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, -2, 1),
    (0, 0, 0, 0, 0, 0, 0, 1, -2),
)

MY_PAPER = (
    (-1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, -3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 1, -3, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, -2, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, -2, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -2),
)


def test_criterion_11_substituted_content():
    with criterion(11, "the nine-blow-up construction enters only as fixed matrix "
                       "data; no non-toric resolution is exposed"):
        # the bundled matrices are byte-for-byte the published displays
        for name, expected in (("mondal-netzer-MY1", MY1_PAPER), ("mondal-netzer-MY", MY_PAPER)):
            mat = matrix_from_json(corpus_entry(name)["input"])
            assert tuple(tuple(int(x) for x in row) for row in mat.rows) == expected
        # the only resolution machinery in the package is toric: star
        # subdivision and rank-2 smooth resolution of fans
        import toricbound

        resolution_api = [n for n in dir(toricbound) if "resol" in n.lower()]
        assert resolution_api == ["smooth_resolution"]
        # and the intersection matrices above are not reconstructible from any
        # smooth complete fan here: a toric surface of 9 rays has signature
        # (1, 6, 2), never (1, 8, 0)
        sig = inertia(SymmetricRationalMatrix(MY1_PAPER))
        assert sig.as_tuple() == (1, 8, 0) != (1, 6, 2)
