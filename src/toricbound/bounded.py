"""The core pipeline: growth cones K(S) and K0(S), adapted fans, the toric
compatibility check, the subfan carrying bounded functions, and generator
sets for the ring of functions bounded on S.

Three classes of semi-algebraic sets are supported. Binomial sets and
tentacles have exactly computable growth cones and automatically satisfy the
compatibility condition on adapted fans. General basic sets get three-valued
answers backed by sound grid certificates: an interior witness for K0, and a
curve certificate (one-parameter subgroup with first-order drift of the base
point) for "the closure meets this boundary divisor". Both certificates of
a ray come from one pass over the grid that evaluates each initial form at
most once per base point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .cones import RationalCone
from .fans import Fan2D, make_fan
from .hilbert import SemigroupBasis, hilbert_basis
from .intlin import dot, is_zero, primitive_tuple, vec_neg, vec_sub
from .linalg import LatticeVector

Vec = tuple[int, ...]
Point = tuple[Fraction, ...]

P2_RAYS = ((1, 0), (0, 1), (-1, -1))


# -- Laurent polynomials -----------------------------------------------------


class LaurentPoly:
    """A finitely supported map from exponent vectors to rational coefficients."""

    def __init__(self, rank: int, terms):
        if rank < 1:
            raise ValueError("rank must be positive")
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict[Vec, Fraction] = {}
        for exp, coef in items:
            exp = tuple(int(x) for x in (exp.coords if hasattr(exp, "coords") else exp))
            if len(exp) != rank:
                raise ValueError("exponent rank mismatch")
            c = acc.get(exp, Fraction(0)) + Fraction(coef)
            if c == 0:
                acc.pop(exp, None)
            else:
                acc[exp] = c
        self.rank = rank
        self.terms: tuple[tuple[Vec, Fraction], ...] = tuple(sorted(acc.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[Vec, ...]:
        return tuple(e for e, _ in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, self.terms))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return LaurentPoly(self.rank, list(self.terms) + list(other.terms))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.rank, [(e, -c) for e, c in self.terms])

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out: list[tuple[Vec, Fraction]] = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                out.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
        return LaurentPoly(self.rank, out)

    def evaluate(self, point) -> Fraction:
        """Exact value at a point with nonzero rational coordinates."""
        point = [Fraction(x) for x in point]
        if any(x == 0 for x in point):
            raise ValueError("evaluation needs nonzero coordinates")
        total = Fraction(0)
        for exp, coef in self.terms:
            val = coef
            for x, e in zip(point, exp):
                val *= x**e
            total += val
        return total

    def __repr__(self):
        parts = [f"{c}*x^{e}" for e, c in self.terms] or ["0"]
        return " + ".join(parts)


def _direction(v, rank: int) -> Vec:
    if isinstance(v, LatticeVector):
        if v.side != "N":
            raise ValueError("grading directions live in N")
        v = v.coords
    v = tuple(int(x) for x in v)
    if len(v) != rank:
        raise ValueError("direction rank mismatch")
    return v


def initial_form(f: LaurentPoly, v) -> LaurentPoly:
    """The sum of the terms of f of smallest v-degree.

    >>> f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
    >>> initial_form(f, (1, 2))
    1*x^(1, 0)
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no initial form")
    v = _direction(v, f.rank)
    degs = [dot(e, v) for e, _ in f.terms]
    d = min(degs)
    return LaurentPoly(f.rank, [(e, c) for (e, c), dd in zip(f.terms, degs) if dd == d])


def lambda_sequence(f: LaurentPoly, v) -> list[LaurentPoly]:
    """The nonzero v-homogeneous components of f in strictly increasing v-degree."""
    if f.is_zero():
        raise ValueError("zero polynomial has no component sequence")
    v = _direction(v, f.rank)
    by_degree: dict[int, list] = {}
    for e, c in f.terms:
        by_degree.setdefault(dot(e, v), []).append((e, c))
    return [LaurentPoly(f.rank, by_degree[d]) for d in sorted(by_degree)]


# -- problem specifications ---------------------------------------------------


@dataclass(frozen=True)
class BinomialSet:
    """{xi in the open positive orthant : xi^gamma_i < c_i for all i}."""

    rank: int
    gammas: tuple[Vec, ...]
    constants: tuple[Fraction, ...]

    def __post_init__(self):
        gammas = tuple(tuple(int(x) for x in g) for g in self.gammas)
        consts = tuple(Fraction(c) for c in self.constants)
        if not gammas:
            raise ValueError("need at least one binomial inequality")
        if len(gammas) != len(consts):
            raise ValueError("gammas and constants must pair up")
        if any(len(g) != self.rank for g in gammas):
            raise ValueError("exponent rank mismatch")
        if any(c <= 0 for c in consts):
            raise ValueError("constants must be positive")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "constants", consts)

    @staticmethod
    def from_inequality_data(rows, rank: int) -> "BinomialSet":
        """Normalize inequalities a*xi^alpha < b*xi^beta to xi^(alpha-beta) < b/a."""
        gammas, consts = [], []
        for a, alpha, b, beta in rows:
            a, b = Fraction(a), Fraction(b)
            if a <= 0 or b <= 0:
                raise ValueError("binomial normalization needs positive coefficients")
            gammas.append(vec_sub(tuple(alpha), tuple(beta)))
            consts.append(b / a)
        return BinomialSet(rank, tuple(gammas), tuple(consts))


@dataclass(frozen=True)
class Tentacle:
    """The sweep of a relatively compact base under the one-parameter subgroup
    of direction v, shrinking toward infinity. Only v enters any formula; the
    relative compactness of the base is a declared assumption."""

    rank: int
    v: Vec

    def __post_init__(self):
        v = tuple(int(x) for x in self.v)
        if len(v) != self.rank:
            raise ValueError("direction rank mismatch")
        if is_zero(v):
            raise ValueError("tentacle direction must be nonzero")
        object.__setattr__(self, "v", primitive_tuple(v))


@dataclass(frozen=True)
class BasicSet:
    """{xi in the torus : f_i(xi) > 0 for all i}, rank 2 only."""

    rank: int
    polys: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if self.rank != 2:
            raise ValueError("basic sets are supported in rank 2 only")
        if not self.polys:
            raise ValueError("need at least one inequality")
        if any(p.rank != 2 or p.is_zero() for p in self.polys):
            raise ValueError("inequalities must be nonzero rank-2 polynomials")
        object.__setattr__(self, "polys", tuple(self.polys))


ProblemSet = BinomialSet | Tentacle | BasicSet


class TCStatus(enum.Enum):
    VERIFIED = "Verified"
    VIOLATED = "Violated"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class TCReport:
    status: TCStatus
    witness_ray: Vec | None
    reason: str

    def __post_init__(self):
        if self.status is TCStatus.VIOLATED and self.witness_ray is None:
            raise ValueError("a violation needs a witness ray")


# -- growth cones and bounded rings -------------------------------------------


def cone_CS(s: BinomialSet) -> RationalCone:
    """The cone in M generated by the binomial exponents."""
    return RationalCone.from_generators(s.gammas, s.rank, "M")


def K_sets(s: BinomialSet | Tentacle) -> tuple[RationalCone, RationalCone, bool]:
    """(K, K0, equal): the growth cones, exact for these two classes.

    Binomial sets have K = K0 = the dual of the exponent cone; a tentacle has
    K = K0 = the ray of its direction.
    """
    if isinstance(s, BinomialSet):
        k = cone_CS(s).dual()
        return (k, k, True)
    if isinstance(s, Tentacle):
        k = RationalCone.from_generators([s.v], s.rank, "N")
        return (k, k, True)
    raise TypeError("exact growth cones exist only for binomial sets and tentacles")


def bounded_ring(sigma: RationalCone, s: BinomialSet | Tentacle) -> SemigroupBasis:
    """Hilbert basis of the exponents of monomials bounded on S inside U_sigma.

    Binomial: lattice points of sigma* ∩ cone(gammas). Tentacle: lattice
    points of sigma* ∩ {alpha : <alpha, v> >= 0}. Characters of the returned
    generators generate the full ring of bounded polynomial functions.

    >>> orthant = RationalCone.from_generators([(1, 0), (0, 1)], 2, "N")
    >>> hyperbola = BinomialSet(2, ((2, 1),), (1,))
    >>> bounded_ring(orthant, hyperbola).generators
    ((2, 1),)
    """
    _check_sigma(sigma, s.rank)
    dual_sigma = sigma.dual()
    if isinstance(s, BinomialSet):
        h_cone = dual_sigma.intersect(cone_CS(s))
    elif isinstance(s, Tentacle):
        half = RationalCone.from_inequalities([s.v], s.rank, "M")
        h_cone = dual_sigma.intersect(half)
    else:
        raise TypeError("bounded rings are computed for binomial sets and tentacles")
    return hilbert_basis(h_cone)


def is_trivial_bounded_ring(sigma: RationalCone, s: BinomialSet | Tentacle) -> bool:
    """True iff only constants are bounded: sigma + K(S) is the whole space."""
    _check_sigma(sigma, s.rank)
    k, _, _ = K_sets(s)
    return sigma.minkowski_sum(k).is_full()


def _check_sigma(sigma: RationalCone, rank: int):
    if sigma.side != "N":
        raise ValueError("sigma must be a cone in N")
    if sigma.rank != rank:
        raise ValueError("sigma rank does not match the problem rank")
    if not sigma.is_pointed():
        raise ValueError("sigma must be pointed")


# -- adapted fans --------------------------------------------------------------


def _growth_boundary_rays(k0: RationalCone) -> list[Vec]:
    if k0.is_full():
        return []
    if k0.is_pointed():
        return list(k0.generators)
    rays = []
    for b in k0.lineality_basis:
        rays.append(b)
        rays.append(vec_neg(b))
    return rays


def _basic_breaking_rays(s: BasicSet) -> list[Vec]:
    rays = []
    for f in s.polys:
        for a, b in combinations(f.support(), 2):
            d = vec_sub(a, b)
            perp = (-d[1], d[0])
            rays.append(primitive_tuple(perp))
            rays.append(vec_neg(primitive_tuple(perp)))
    return rays


def adapted_fan(s: ProblemSet, sigma: RationalCone) -> Fan2D:
    """A complete rank-2 fan adapted to S and containing sigma's rays.

    On the relative interior of each cone the component sequences of the
    defining data are constant: binomial sets contribute the boundary rays of
    the dual exponent cone, tentacles the directions +/-v, and basic sets the
    primitive normals of all exponent differences. The standard projective
    plane rays are always included, which completes the fan.
    """
    if s.rank != 2:
        raise ValueError("adapted fans are built in rank 2 only")
    _check_sigma(sigma, 2)
    rays: list[Vec] = list(sigma.generators)
    if isinstance(s, BinomialSet):
        rays += _growth_boundary_rays(K_sets(s)[1])
    elif isinstance(s, Tentacle):
        rays += [s.v, vec_neg(s.v)]
    elif isinstance(s, BasicSet):
        rays += _basic_breaking_rays(s)
    else:
        raise TypeError(f"unsupported problem set {type(s).__name__}")
    rays += list(P2_RAYS)
    fan = make_fan(rays)
    if not fan.complete:
        raise AssertionError("adapted fan construction must yield a complete fan")
    return fan


def _check_adapted_to_cone(fan: Fan2D, k0: RationalCone):
    """The growth cone must be a union of fan cones: no 2-cone may straddle its
    boundary and no ray of it may pass through a 2-cone's interior."""
    for a, b in fan.cone_pairs():
        two = RationalCone.from_generators([a, b], 2, "N")
        cut = two.intersect(k0)
        if cut.dim() == 2 and cut != two:
            raise ValueError(f"fan not adapted: cone({a}, {b}) straddles the growth cone")
        if cut.dim() == 1 and cut.generators[0] not in (a, b):
            raise ValueError(
                f"fan not adapted: growth-cone boundary ray {cut.generators[0]} "
                f"passes through the interior of cone({a}, {b})"
            )


def _check_adapted(fan: Fan2D, sigma: RationalCone, s: ProblemSet):
    if not fan.complete:
        raise ValueError("the fan must be complete")
    for g in sigma.generators:
        if g not in fan.rays:
            raise ValueError(f"fan does not contain the sigma ray {g}")
    if isinstance(s, (BinomialSet, Tentacle)):
        _check_adapted_to_cone(fan, K_sets(s)[1])
    else:
        missing = [r for r in _basic_breaking_rays(s) if r not in fan.rays]
        if missing:
            raise ValueError(f"fan not adapted: missing breaking rays {sorted(set(missing))}")


# -- the bounded-function subfan -----------------------------------------------


@dataclass(frozen=True)
class FSData:
    """The subfan of an adapted fan whose rays lie in sigma or meet the growth
    cone, with the Hilbert basis of the dual of its support.

    ``rays`` pairs each kept ray with a flag marking containment in sigma.
    Rays kept but not in sigma are the divisors at infinity met by the closure
    of S (the Y' rays of the filtration)."""

    fan: Fan2D
    sigma: RationalCone
    rays: tuple[tuple[Vec, bool], ...]
    cone_pairs: tuple[tuple[Vec, Vec], ...]
    support_hull: RationalCone
    dual_basis: SemigroupBasis

    def infinity_rays(self) -> tuple[Vec, ...]:
        return tuple(u for u, in_sigma in self.rays if not in_sigma)


def subfan_FS(fan: Fan2D, sigma: RationalCone, k0: RationalCone) -> FSData:
    """Select the cones whose rays all lie in sigma or meet the growth cone,
    and compute the Hilbert basis of the dual of their support."""
    _check_sigma(sigma, 2)
    if not fan.complete:
        raise ValueError("the fan must be complete")
    _check_adapted_to_cone(fan, k0)
    kept: list[tuple[Vec, bool]] = []
    for u in fan.rays:
        in_sigma = sigma.contains(u)
        if in_sigma or k0.contains(u):
            kept.append((u, in_sigma))
    kept_set = {u for u, _ in kept}
    pairs = tuple(
        (a, b) for a, b in fan.cone_pairs() if a in kept_set and b in kept_set
    )
    hull = RationalCone.from_generators([u for u, _ in kept], 2, "N")
    basis = hilbert_basis(hull.dual())
    return FSData(fan, sigma, tuple(kept), pairs, hull, basis)


# -- certificates and the compatibility check ----------------------------------


@dataclass(frozen=True)
class Certificate:
    certified: bool
    witness: tuple | None


def default_grid() -> list[Point]:
    """All points with coordinates in {±1, ±2, ±1/2}, squared."""
    vals = sorted([Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                   Fraction(1, 2), Fraction(-1, 2)])
    return [tuple(p) for p in product(vals, repeat=2)]


def default_drifts() -> list[Point]:
    vals = sorted([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)])
    return [tuple(p) for p in product(vals, repeat=2) if any(p)]


def certify_K0_membership(s: BasicSet, v, grid=None) -> Certificate:
    """Sound test for v ∈ K0(S): a grid point with all initial forms positive
    witnesses an open set swept into S along direction v. Never claims 'not in'."""
    return _scan_ray(s, v, grid, ())[0]


def certify_orbit_meeting(s: BasicSet, v, grid=None, drifts=None) -> Certificate:
    """Sound test for 'the closure of S meets the divisor of ray v'.

    Searches for a curve lambda_v(t) * (xi + t*eta) that lies in S for all
    small t > 0; its limit is a point of the divisor's dense orbit. The zero
    drift, tried first at each base point, is exactly membership of xi in
    S(v); nonzero drift catches sets that escape to infinity only along
    moving base points."""
    return _scan_ray(s, v, grid, drifts)[1]


def _scan_ray(s: BasicSet, v, grid, drifts) -> tuple[Certificate, Certificate]:
    """(K0 certificate, closure certificate) of ray v from one pass over the grid.

    The initial forms are evaluated at each base point xi in turn, each at
    most once. The value of in_v(f) is the lowest-order coefficient of f along
    every curve lambda_v(t)(xi + t*eta): a negative one rules xi out for any
    drift and ends the evaluations there, all positive ones make xi the K0
    witness (and a zero-drift closure witness) and end the scan, and the
    forms that vanish are decided by the leading sign of the series, with the
    zero drift first and then the given drifts in order."""
    v = _direction(v, s.rank)
    grid = default_grid() if grid is None else grid
    drifts = default_drifts() if drifts is None else drifts
    zero = (Fraction(0),) * s.rank
    etas = [zero] + [tuple(Fraction(x) for x in eta) for eta in drifts]
    forms = [initial_form(f, v) for f in s.polys]
    closure = Certificate(False, None)
    for xi in grid:
        xi = tuple(Fraction(x) for x in xi)
        if any(x == 0 for x in xi):
            continue
        vals = []
        for g in forms:
            vals.append(g.evaluate(xi))
            if vals[-1] < 0:
                break
        if vals[-1] < 0:
            continue
        pending = [f for f, val in zip(s.polys, vals) if val == 0]
        if not pending:
            if not closure.certified:
                closure = Certificate(True, (xi, zero))
            return Certificate(True, (xi,)), closure
        if closure.certified:
            continue
        for eta in etas:
            if all(_drift_leading_sign(f, v, xi, eta) > 0 for f in pending):
                closure = Certificate(True, (xi, eta))
                break
    return Certificate(False, None), closure


def _drift_leading_sign(f: LaurentPoly, v: Vec, xi: Point, eta: Point, extra: int = 8) -> int:
    """Sign of f(lambda_v(t)(xi + t*eta)) for small t > 0, via the exact
    leading coefficient of its Laurent expansion in t. 0 when the expansion
    vanishes to the inspected order (then nothing is certified)."""
    degs = [dot(e, v) for e, _ in f.terms]
    dmin, dmax = min(degs), max(degs)
    depth = dmax - dmin + extra
    total = [Fraction(0)] * (depth + 1)
    for (exp, coef), d in zip(f.terms, degs):
        shift = d - dmin
        length = depth - shift + 1
        if length <= 0:
            continue
        ser = [coef]
        for x, h, e in zip(xi, eta, exp):
            ser = _series_mul(ser, _binomial_series(x, h, e, length), length)
        for k, c in enumerate(ser):
            if shift + k <= depth:
                total[shift + k] += c
    for c in total:
        if c != 0:
            return 1 if c > 0 else -1
    return 0


def _binomial_series(base: Fraction, drift: Fraction, power: int, length: int) -> list[Fraction]:
    """Power series of (base + t*drift)^power up to the given length; base != 0."""
    ratio = drift / base
    out = []
    coef = base**power
    binom = Fraction(1)
    for j in range(length):
        if j > 0:
            binom *= Fraction(power - j + 1, j)
        out.append(coef * binom * ratio**j)
    return out


def _series_mul(a: list[Fraction], b: list[Fraction], length: int) -> list[Fraction]:
    out = [Fraction(0)] * min(length, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j >= len(out):
                break
            out[i + j] += x * y
    return out


def check_tc(fan: Fan2D, sigma: RationalCone, s: ProblemSet, grid=None, drifts=None) -> TCReport:
    """Decide the toric compatibility condition for S on an adapted fan.

    Binomial sets and tentacles satisfy it on every adapted fan. For basic
    sets each boundary ray outside sigma is classified three-valued by one
    grid pass (``_scan_ray``): a certified interior witness clears it; a
    certified closure meeting without an interior witness reports a violation
    (density itself is not certified); otherwise the overall verdict degrades
    to Unknown.
    """
    _check_sigma(sigma, 2 if isinstance(s, BasicSet) else s.rank)
    _check_adapted(fan, sigma, s)
    if isinstance(s, BinomialSet):
        return TCReport(
            TCStatus.VERIFIED, None,
            "binomial set: every divisor at infinity met by the closure is met "
            "densely on an adapted fan",
        )
    if isinstance(s, Tentacle):
        return TCReport(
            TCStatus.VERIFIED, None,
            "tentacle: the closure only meets orbits whose cone has the sweep "
            "direction in its relative interior",
        )
    violated: list[Vec] = []
    unknown: list[Vec] = []
    for u in fan.rays:
        if sigma.contains(u):
            continue
        k0, closure = _scan_ray(s, u, grid, drifts)
        if k0.certified:
            continue
        if closure.certified:
            violated.append(u)
        else:
            unknown.append(u)
    if violated:
        w = min(violated)
        return TCReport(
            TCStatus.VIOLATED, w,
            f"closure certified to meet the divisor of ray {w} but no interior "
            "witness was found on the grid (density not certified)",
        )
    if unknown:
        return TCReport(
            TCStatus.UNKNOWN, None,
            f"no certificate either way for ray(s) {sorted(unknown)}",
        )
    return TCReport(
        TCStatus.VERIFIED, None,
        "every boundary ray outside sigma has a certified interior witness",
    )
