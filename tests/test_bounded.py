import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbound.bounded import (
    BasicSet,
    BinomialSet,
    Certificate,
    LaurentPoly,
    TCStatus,
    Tentacle,
    K_sets,
    adapted_fan,
    bounded_ring,
    certify_K0_membership,
    certify_orbit_meeting,
    check_tc,
    cone_CS,
    initial_form,
    is_trivial_bounded_ring,
    subfan_FS,
)
from toricbound.cones import RationalCone
from toricbound.fans import make_fan

from oracles import curve_sign, dot, poly_value, tc_oracle

ORTHANT = RationalCone.from_generators([(1, 0), (0, 1)], 2, "N")
ZERO = RationalCone.zero(2, "N")


def lp(terms):
    return LaurentPoly(2, terms)


def components(f, v):
    """The terms of f grouped by v-degree, in increasing degree."""
    by_degree = {}
    for e, c in f.terms:
        by_degree.setdefault(dot(e, v), []).append((e, c))
    return tuple(tuple(sorted(by_degree[d])) for d in sorted(by_degree))


X = lp({(1, 0): 1})
Y = lp({(0, 1): 1})
STRIP = BinomialSet(2, ((1, 0),), (Fraction(1),))
HYPERBOLA2 = BinomialSet(2, ((2, 1),), (Fraction(1),))
TENT_DIAG = Tentacle(2, (-1, -1))

# region between two shifted hyperbolas in the open quadrant; its closure
# reaches infinity along the diagonal without filling a two-dimensional cone
EX3 = BasicSet(
    2,
    (
        lp({(2, 0): 1, (1, 1): -1, (0, 0): 1}),
        lp({(0, 2): 1, (1, 1): -1, (0, 0): 1}),
        X,
        Y,
    ),
)
# the slab between two diagonal lines, unbounded along the diagonal
EX4 = BasicSet(
    2,
    (
        lp({(1, 0): 1, (0, 0): -1}),
        lp({(0, 1): 1, (0, 0): -1}),
        lp({(1, 0): 1, (0, 1): -1, (0, 0): -1}),
        lp({(0, 0): 2, (1, 0): -1, (0, 1): 1}),
    ),
)
MN_F1 = lp({(3, 1): 1, (6, 0): 1, (1, 0): -1})


class TestLaurentPoly:
    def test_dedup_and_prune(self):
        f = lp([((1, 0), 1), ((1, 0), -1), ((0, 1), 2)])
        assert f.terms == (((0, 1), Fraction(2)),)

    def test_evaluate(self):
        assert MN_F1.evaluate((Fraction(2), Fraction(1))) == 8 + 64 - 2

    def test_evaluate_needs_nonzero(self):
        with pytest.raises(ValueError):
            X.evaluate((0, 1))

    def test_mul(self):
        assert (X * Y).terms == (((1, 1), Fraction(1)),)


class TestConeCS:
    def test_single_gamma(self):
        assert cone_CS(BinomialSet(2, ((1, 0),), (1,))).generators == ((1, 0),)

    def test_hyperbola(self):
        assert cone_CS(HYPERBOLA2).generators == ((2, 1),)

    def test_full_plane(self):
        c = cone_CS(BinomialSet(2, ((1, 0), (0, 1), (-1, -1)), (1, 1, 1)))
        assert c.is_full()


class TestKSets:
    def test_strip_half_plane(self):
        k, k0, equal = K_sets(STRIP)
        assert equal and k == k0
        assert k.inequalities == ((1, 0),)

    def test_hyperbola_half_plane(self):
        k, _, _ = K_sets(HYPERBOLA2)
        assert k.inequalities == ((2, 1),)

    def test_tentacle_ray(self):
        k, k0, equal = K_sets(TENT_DIAG)
        assert equal
        assert k.generators == ((-1, -1),)

    def test_scaling_invariance(self):
        scaled = BinomialSet(2, ((4, 2),), (Fraction(5),))
        assert K_sets(scaled)[0] == K_sets(HYPERBOLA2)[0]


class TestBoundedRing:
    def test_strip(self):
        assert bounded_ring(ORTHANT, STRIP).generators == ((1, 0),)

    def test_hyperbola(self):
        assert bounded_ring(ORTHANT, HYPERBOLA2).generators == ((2, 1),)

    def test_down_tentacle(self):
        assert bounded_ring(ORTHANT, Tentacle(2, (0, -1))).generators == ((1, 0),)

    def test_nonpointed_sigma_rejected(self):
        half = RationalCone.from_inequalities([(1, 0)], 2, "N")
        with pytest.raises(ValueError, match="pointed"):
            bounded_ring(half, STRIP)

    def test_generators_certifiably_bounded(self):
        # every generator exponent lies in the cone of the defining exponents,
        # which is exactly what makes its character bounded on S
        rng = random.Random(45)
        for _ in range(20):
            gammas = []
            while len(gammas) < rng.randint(1, 3):
                g = (rng.randint(-3, 3), rng.randint(-3, 3))
                if any(g):
                    gammas.append(g)
            s = BinomialSet(2, tuple(gammas), tuple([Fraction(1)] * len(gammas)))
            cs = cone_CS(s)
            for h in bounded_ring(ORTHANT, s).generators:
                assert cs.contains(h), (gammas, h)


class TestTriviality:
    def test_diagonal_tentacle_trivial(self):
        assert is_trivial_bounded_ring(ORTHANT, TENT_DIAG)
        assert bounded_ring(ORTHANT, TENT_DIAG).is_trivial()

    def test_strip_not_trivial(self):
        assert not is_trivial_bounded_ring(ORTHANT, STRIP)

    def test_zero_sigma_with_proper_growth_cone(self):
        assert not is_trivial_bounded_ring(ZERO, STRIP)

    def test_agreement_with_basis(self):
        rng = random.Random(41)
        for _ in range(20):
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v == (0, 0):
                continue
            s = Tentacle(2, v)
            assert is_trivial_bounded_ring(ORTHANT, s) == bounded_ring(ORTHANT, s).is_trivial()


class TestInitialForm:
    def test_simple(self):
        f = X + Y
        assert initial_form(f, (1, 2)) == X

    def test_mondal_netzer_curve(self):
        assert initial_form(MN_F1, (1, 1)) == lp({(1, 0): -1})

    def test_zero_direction(self):
        assert initial_form(MN_F1, (0, 0)) == MN_F1

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            initial_form(lp({}), (1, 1))


class TestInitialFormMultiplicativity:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_in_v_of_product(self, rnd):
        def rand_poly():
            terms = {}
            for _ in range(rnd.randint(1, 5)):
                terms[(rnd.randint(-3, 3), rnd.randint(-3, 3))] = rnd.randint(1, 4)
            return lp(terms)

        f, g = rand_poly(), rand_poly()
        v = (rnd.randint(-3, 3), rnd.randint(-3, 3))
        # positive coefficients prevent cancellation inside the product
        assert initial_form(f * g, v) == initial_form(f, v) * initial_form(g, v)


class TestAdaptedFan:
    def test_strip_fan_exact(self):
        fan = adapted_fan(STRIP, ORTHANT)
        assert fan.rays == ((1, 0), (0, 1), (-1, -1), (0, -1))

    def test_hyperbola_fan(self):
        fan = adapted_fan(HYPERBOLA2, ORTHANT)
        assert set(fan.rays) >= {(1, -2), (-1, 2)}
        assert fan.rays == ((1, 0), (0, 1), (-1, 2), (-1, -1), (1, -2))

    def test_tentacle_fan(self):
        fan = adapted_fan(TENT_DIAG, ORTHANT)
        assert {(-1, -1), (1, 1)} <= set(fan.rays)

    def test_basic_set_normal_rays(self):
        fan = adapted_fan(BasicSet(2, (X + Y,)), ORTHANT)
        assert {(1, 1), (-1, -1)} <= set(fan.rays)
        assert fan.complete

    def test_lambda_constant_on_relint(self):
        rng = random.Random(43)
        for s in (EX3, EX4, BasicSet(2, (X + Y,))):
            fan = adapted_fan(s, ORTHANT if s is not EX4 else ZERO)
            for a, b in fan.cone_pairs():
                samples = []
                for lam, mu in ((1, 1), (2, 1), (1, 2), (3, 2)):
                    v = (lam * a[0] + mu * b[0], lam * a[1] + mu * b[1])
                    samples.append(tuple(components(f, v) for f in s.polys))
                assert len(set(samples)) == 1, (a, b)

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            adapted_fan(BinomialSet(3, ((1, 0, 0),), (1,)), RationalCone.from_generators([(1, 0, 0)], 3, "N"))


class TestSubfanFS:
    def test_strip(self):
        fan = adapted_fan(STRIP, ORTHANT)
        fs = subfan_FS(fan, ORTHANT, K_sets(STRIP)[1])
        assert fs.dual_basis.generators == ((1, 0),)
        assert set(fs.rays) == {((1, 0), True), ((0, 1), True), ((0, -1), False)}

    def test_hyperbola(self):
        fan = adapted_fan(HYPERBOLA2, ORTHANT)
        fs = subfan_FS(fan, ORTHANT, K_sets(HYPERBOLA2)[1])
        assert fs.dual_basis.generators == ((2, 1),)

    def test_full_growth_cone_gives_constants(self):
        fan = adapted_fan(TENT_DIAG, ORTHANT)
        fs = subfan_FS(fan, ORTHANT, RationalCone.full(2, "N"))
        assert fs.dual_basis.is_trivial()

    def test_not_adapted_rejected(self):
        bad = make_fan([(1, 0), (0, 1), (-1, -1)])
        with pytest.raises(ValueError, match="fan not adapted"):
            subfan_FS(bad, ORTHANT, K_sets(STRIP)[1])

    def test_binomial_two_routes_agree(self):
        rng = random.Random(44)
        for _ in range(15):
            g = (rng.randint(-3, 3), rng.randint(-3, 3))
            if g == (0, 0):
                continue
            s = BinomialSet(2, (g,), (Fraction(1),))
            fan = adapted_fan(s, ORTHANT)
            fs = subfan_FS(fan, ORTHANT, K_sets(s)[1])
            assert fs.dual_basis == bounded_ring(ORTHANT, s)


class TestCheckTC:
    def test_hyperbola_verified(self):
        fan = adapted_fan(HYPERBOLA2, ORTHANT)
        assert check_tc(fan, ORTHANT, HYPERBOLA2).status is TCStatus.VERIFIED

    def test_example3_violated(self):
        fan = adapted_fan(EX3, ORTHANT)
        report = check_tc(fan, ORTHANT, EX3)
        assert report.status is TCStatus.VIOLATED
        assert report.witness_ray == (-1, -1)

    def test_example4_violated(self):
        fan = adapted_fan(EX4, ZERO)
        report = check_tc(fan, ZERO, EX4)
        assert report.status is TCStatus.VIOLATED
        assert report.witness_ray == (-1, -1)

    def test_open_halfplane_set_verified(self):
        s = BasicSet(2, (X + Y,))
        fan = adapted_fan(s, ORTHANT)
        assert check_tc(fan, ORTHANT, s).status is TCStatus.VERIFIED

    def test_tentacle_verified(self):
        fan = adapted_fan(TENT_DIAG, ORTHANT)
        assert check_tc(fan, ORTHANT, TENT_DIAG).status is TCStatus.VERIFIED

    def test_unknown_for_uncertifiable_ray(self):
        # bounded x, free y: rays +/-e1 have empty growth directions, which the
        # sampling certifiers cannot prove
        s = BasicSet(2, (lp({(0, 0): 1, (1, 0): -1}), X, Y))
        fan = adapted_fan(s, ZERO)
        report = check_tc(fan, ZERO, s)
        assert report.status is TCStatus.UNKNOWN


P2 = ((1, 0), (0, 1), (-1, -1))


def adapted_by_cones(fan, k0):
    """The per-cone rule: K0 is a union of fan cones iff no 2-cone straddles
    its boundary and no ray of K0 passes through a 2-cone's interior."""
    for a, b in fan.cone_pairs():
        two = RationalCone.from_generators([a, b], 2, "N")
        cut = two.intersect(k0)
        if cut.dim() == 2 and cut != two:
            return False
        if cut.dim() == 1 and cut.generators[0] not in (a, b):
            return False
    return True


def random_k0(rng, shape, fan_rays):
    def ray():
        if rng.random() < 0.5:
            return rng.choice(fan_rays)
        while True:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v != (0, 0):
                return v

    if shape == "zero":
        return RationalCone.zero(2, "N")
    if shape == "full":
        return RationalCone.full(2, "N")
    if shape == "ray":
        return RationalCone.from_generators([ray()], 2, "N")
    u = ray()
    if shape == "line":
        return RationalCone.from_generators([u, (-u[0], -u[1])], 2, "N")
    if shape == "half-plane":
        return RationalCone.from_inequalities([u], 2, "N")
    while True:
        w = ray()
        if u[0] * w[1] - u[1] * w[0]:
            return RationalCone.from_generators([u, w], 2, "N")


class TestAdaptedness:
    def test_check_tc_incomplete_fan(self):
        with pytest.raises(ValueError, match="must be complete"):
            check_tc(make_fan([(1, 0), (0, 1)]), ORTHANT, STRIP)

    def test_check_tc_missing_sigma_ray(self):
        with pytest.raises(ValueError, match="sigma rays"):
            check_tc(make_fan([(1, 0), (0, -1), (-1, 1)]), ORTHANT, STRIP)

    @pytest.mark.parametrize("s", [HYPERBOLA2, Tentacle(2, (1, 2)), BasicSet(2, (X + Y,))])
    def test_check_tc_not_adapted(self, s):
        with pytest.raises(ValueError, match="fan not adapted"):
            check_tc(make_fan(P2), ORTHANT, s)

    def test_subfan_incomplete_fan(self):
        with pytest.raises(ValueError, match="must be complete"):
            subfan_FS(make_fan([(1, 0), (0, 1)]), ORTHANT, K_sets(STRIP)[1])

    def test_ray_rule_matches_per_cone_rule(self):
        rng = random.Random(11)
        shapes = ("zero", "ray", "line", "half-plane", "pointed", "full")
        seen = {(shape, ok): 0 for shape in shapes for ok in (True, False)}
        for _ in range(240):
            extra = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
            fan = make_fan(list(P2) + [v for v in extra if v != (0, 0)])
            shape = rng.choice(shapes)
            k0 = random_k0(rng, shape, fan.rays)
            expected = adapted_by_cones(fan, k0)
            try:
                subfan_FS(fan, ZERO, k0)
                adapted = True
            except ValueError as exc:
                assert "fan not adapted" in str(exc)
                adapted = False
            assert adapted == expected, (fan.rays, k0)
            seen[shape, adapted] += 1
        assert all(seen[shape, True] for shape in shapes)
        assert all(seen[shape, False] for shape in ("ray", "line", "half-plane", "pointed"))


class TestCertifiers:
    def test_halfplane_in(self):
        cert = certify_K0_membership(BasicSet(2, (X + Y,)), (1, 1))
        assert cert.certified

    def test_example3_antidiagonal_inconclusive(self):
        assert not certify_K0_membership(EX3, (-1, -1)).certified

    def test_example3_diagonal_in(self):
        cert = certify_K0_membership(EX3, (1, 1))
        assert cert.certified

    def test_orbit_zero_drift(self):
        cert = certify_orbit_meeting(EX3, (-1, -1))
        assert cert.certified
        _, drift = cert.witness
        assert drift == (0, 0)

    def test_orbit_needs_drift(self):
        cert = certify_orbit_meeting(EX4, (-1, -1))
        assert cert.certified
        _, drift = cert.witness
        assert drift != (0, 0)

    def test_orbit_sound_negative(self):
        assert not certify_orbit_meeting(EX4, (1, 0)).certified


def grid_and_drifts(values, drift_values):
    grid = [tuple(map(Fraction, p)) for p in product(values, repeat=2)]
    drifts = [tuple(map(Fraction, p)) for p in product(drift_values, repeat=2) if any(p)]
    return grid, drifts


def custom(values):
    """The grid and drifts that `--grid` builds from these values."""
    return grid_and_drifts(values, list(values) + [0]) * 2


# (grid, drifts) given to the library, then the point sets given to the oracle
GRIDS = (
    (None, None) + grid_and_drifts([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)],
                                   [0, 1, -1, Fraction(1, 2), Fraction(-1, 2)]),
    custom([1, -1, 3, Fraction(-1, 3)]),
    custom([0, 1, 2, Fraction(-1, 2), -3]),  # the points with a zero coordinate are skipped
)
UNKNOWN_SET = BasicSet(2, (lp({(0, 0): 1, (1, 0): -1}), X, Y))


def random_basic_set(rng, reach=2):
    polys = []
    for _ in range(rng.randint(2, 4)):
        exps = rng.sample(list(product(range(-reach, reach + 1), repeat=2)), rng.randint(2, 4))
        polys.append(lp({e: rng.choice((-1, 1)) * rng.randint(1, 3) for e in exps}))
    return BasicSet(2, tuple(polys))


class TestAgainstOracle:
    """Every per-ray certificate and every verdict of the compatibility check
    against ``oracles.tc_oracle``, which evaluates in Fraction arithmetic and
    expands each curve polynomial by repeated multiplication with its linear
    factors. Both sides are exact, so they must agree for any exponents."""

    def check(self, s, sigma, grids, seen):
        fan = adapted_fan(s, sigma)
        rays = [u for u in fan.rays if not sigma.contains(u)]
        polys = [f.terms for f in s.polys]
        for grid, drifts, ogrid, odrifts in grids:
            decided, status, witness = tc_oracle(polys, rays, ogrid, odrifts)
            for u in rays:
                assert certify_K0_membership(s, u, grid).certified == decided[u][0], (s, u)
                cert = certify_orbit_meeting(s, u, grid, drifts)
                assert cert.certified == decided[u][1], (s, u)
                if cert.certified and any(cert.witness[1]):
                    seen.add("drift")
            report = check_tc(fan, sigma, s, grid, drifts)
            assert (report.status.value, report.witness_ray) == (status, witness), s
            seen.add(status)

    def test_examples(self):
        # the last configuration has no drifts: closures rest on the zero drift
        no_drifts = (None, (), GRIDS[0][2], [])
        seen = set()
        for s, sigma in ((EX3, ORTHANT), (EX4, ZERO), (UNKNOWN_SET, ZERO)):
            self.check(s, sigma, GRIDS + (no_drifts,), seen)
        assert seen == {"Violated", "Unknown", "drift"}

    def test_random_basic_sets(self):
        # each set under one of the three grids in turn, on either sigma
        rng = random.Random(46)
        seen = {grid: set() for grid in range(len(GRIDS))}
        for i in range(204):
            grid = i % len(GRIDS)
            sigma = (ORTHANT, ZERO)[i // len(GRIDS) % 2]
            self.check(random_basic_set(rng), sigma, GRIDS[grid:grid + 1], seen[grid])
        for found in seen.values():
            assert found == {"Verified", "Violated", "Unknown", "drift"}

    def test_random_wide_exponents(self):
        rng = random.Random(47)
        for i in range(24):
            grid = i % len(GRIDS)
            sigma = (ORTHANT, ZERO)[i // len(GRIDS) % 2]
            self.check(random_basic_set(rng, reach=4), sigma, GRIDS[grid:grid + 1], set())


def random_rational(rng, den=7):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, den))


def random_poly(rng, reach):
    exps = rng.sample(list(product(range(-reach, reach + 1), repeat=2)), rng.randint(1, 5))
    return lp({e: random_rational(rng) for e in exps})


def random_ray(rng):
    while True:
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if any(v):
            return v


class TestIntegerKernels:
    """The integer sign kernels of the certificates against Fraction
    arithmetic: ``oracles.poly_value`` for values and initial-form signs, and
    ``oracles.curve_sign`` for the sign of f along a curve."""

    def test_evaluate_matches_fraction_sum(self):
        rng = random.Random(61)
        for _ in range(300):
            f = random_poly(rng, 6)
            xi = (random_rational(rng), random_rational(rng))
            assert f.evaluate(xi) == poly_value(f.terms, xi), (f, xi)

    def test_initial_form_sign(self):
        # one base point and no drift: certified iff every initial form is positive
        rng = random.Random(62)
        signs = set()
        for _ in range(300):
            f, v = random_poly(rng, 6), random_ray(rng)
            xi = (random_rational(rng), random_rational(rng))
            g = initial_form(f, v)
            value = g.evaluate(xi)
            assert value == poly_value(g.terms, xi)
            for h, positive in ((f, value > 0), (-f, value < 0)):
                assert certify_K0_membership(BasicSet(2, (h,)), v, [xi]).certified == positive
            signs.add((value > 0) - (value < 0))
        assert signs == {-1, 1}

    def test_curve_sign(self):
        # f = g * (x^w - xi^w)^j with <w, v> = 0 vanishes on the orbit
        # lambda_v(t) xi, so only the drift eta can certify: the closure of
        # {f > 0} is certified iff curve_sign(f) > 0, that of {-f > 0} iff < 0
        rng = random.Random(63)
        signs = set()
        for i in range(120):
            v = random_ray(rng)
            w = (-v[1], v[0])
            xi = (random_rational(rng), random_rational(rng))
            eta = (random_rational(rng), random_rational(rng))
            if i % 3:
                eta = tuple(Fraction(0) if k == i % 3 - 1 else h for k, h in enumerate(eta))
            factor = lp({w: 1, (0, 0): -(xi[0] ** w[0] * xi[1] ** w[1])})
            f = random_poly(rng, 3)
            for _ in range(rng.randint(1, 2)):
                f = f * factor
            expected = curve_sign(f.terms, v, xi, eta)
            for h, sign in ((f, 1), (-f, -1)):
                cert = certify_orbit_meeting(BasicSet(2, (h,)), v, [xi], [eta])
                assert cert.certified == (expected == sign), (f, v, xi, eta)
            signs.add(expected)
        assert signs == {-1, 0, 1}

    def test_vanishing_beyond_the_spread(self):
        # (x - 1)^10 * y along v = (0, 1): one v-degree, and the curve
        # (1 + t, t) meets f only at order t^11
        f = lp({(0, 1): 1})
        for _ in range(10):
            f = f * lp({(1, 0): 1, (0, 0): -1})
        s, xi, eta = BasicSet(2, (f,)), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))
        cert = certify_orbit_meeting(s, (0, 1), [xi], [eta])
        assert cert == Certificate(True, (xi, eta))
        assert curve_sign(f.terms, (0, 1), xi, eta) == 1


class TestBinomialNormalization:
    def test_constants_positive(self):
        with pytest.raises(ValueError):
            BinomialSet(2, ((1, 0),), (0,))
