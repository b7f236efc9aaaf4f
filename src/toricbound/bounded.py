"""The core pipeline: growth cones K(S) and K0(S), adapted fans, the toric
compatibility check, the subfan carrying bounded functions, and generator
sets for the ring of functions bounded on S. An adapted fan is built from
the rays the compatibility check requires of it; ``filtration.verified_subfan``
chains fan, check and subfan for the commands.

Three classes of semi-algebraic sets are supported. Binomial sets and
tentacles have exactly computable growth cones and automatically satisfy the
compatibility condition on adapted fans. ``classify_rays`` gives each ray a
verdict (in sigma, in K0, closure meets, missed or undecided); for general
basic sets it rests on sound grid certificates: an interior witness for K0,
and a curve (one-parameter subgroup with first-order drift of the base point)
for "the closure meets this boundary divisor", both from one pass over the
grid. ``check_tc`` folds the verdicts of a fan's rays into one report.

Every certificate is decided in integer arithmetic: each polynomial is
written once as x^lows * F / den with F an integer polynomial, each
coordinate as a numerator over a positive denominator, and a sign is the sign
of an integer sum. The drift test takes the lowest nonzero coefficient of the
exact integer curve polynomial P(t), so no truncation depth is involved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm
from typing import NamedTuple

from .cones import RationalCone
from .fans import Fan2D, make_fan
from .hilbert import SemigroupBasis, hilbert_basis
from .intlin import dot, is_zero, primitive_tuple, vec_neg
from .linalg import lattice_point

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
            exp = lattice_point(exp, rank)
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
        """Exact value at a point with nonzero rational coordinates.

        Computed in integers on the cleared form (``_clear``) at the
        numerators a_i and denominators b_i of the point, with one division
        at the end: f(a/b) = _cleared_sum * prod (a_i/b_i)^lows_i
        / (den * prod b_i^spans_i)."""
        point = _split(point)
        if any(a == 0 for a, _ in point):
            raise ValueError("evaluation needs nonzero coordinates")
        if not self.terms:
            return Fraction(0)
        g = _clear(self.terms)
        num, den = _cleared_sum(g.terms, point), g.den
        for (a, b), lo, span in zip(point, g.lows, g.spans):
            p, q = (a, b) if lo >= 0 else (b, a)
            num *= p ** abs(lo)
            den *= q ** abs(lo) * b**span
        return Fraction(num, den)

    def __repr__(self):
        parts = [f"{c}*x^{e}" for e, c in self.terms] or ["0"]
        return " + ".join(parts)


class _Cleared(NamedTuple):
    """A Laurent polynomial with its denominators cleared:
    f = x^lows * sum C x^k / den over the terms (C, e, ((k_i, r_i), ...)).

    lows_i is the least exponent of coordinate i and spans_i = max_i - lows_i,
    den > 0 is the lcm of the coefficient denominators, C = c * den an integer
    and, per coordinate, k_i = e_i - lows_i and r_i = spans_i - k_i, both >= 0."""

    lows: Vec
    spans: Vec
    den: int
    terms: tuple[tuple[int, Vec, tuple[tuple[int, int], ...]], ...]


def _clear(terms) -> _Cleared:
    exps = [e for e, _ in terms]
    lows = tuple(map(min, zip(*exps)))
    tops = tuple(map(max, zip(*exps)))
    den = lcm(*(c.denominator for _, c in terms))
    return _Cleared(
        lows,
        tuple(hi - lo for lo, hi in zip(lows, tops)),
        den,
        tuple(
            (c.numerator * (den // c.denominator), e,
             tuple((x - lo, hi - x) for x, lo, hi in zip(e, lows, tops)))
            for e, c in terms
        ),
    )


def _split(point) -> tuple[tuple[int, int], ...]:
    """The numerators and positive denominators of rational coordinates."""
    out = []
    for x in point:
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        out.append((x.numerator, x.denominator))
    return tuple(out)


def _cleared_sum(terms, point) -> int:
    """sum C * prod a_i^k_i * b_i^r_i over cleared terms at the split point
    ((a_i, b_i), ...). For all the terms of f this is
    f(a/b) * den * prod b_i^spans_i / prod (a_i/b_i)^lows_i; for a subset of
    them (an initial form) the same with f restricted to that subset."""
    total = 0
    for c, _, powers in terms:
        for (a, b), (k, r) in zip(point, powers):
            c *= a**k * b**r
        total += c
    return total


def _unit_sign(lows: Vec, point) -> int:
    """The sign of prod xi_i^lows_i at the split point xi."""
    odd = sum(lo & 1 for lo, (a, _) in zip(lows, point) if a < 0)
    return -1 if odd & 1 else 1


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def initial_form(f: LaurentPoly, v) -> LaurentPoly:
    """The sum of the terms of f of smallest v-degree.

    >>> f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
    >>> initial_form(f, (1, 2))
    1*x^(1, 0)
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no initial form")
    v = lattice_point(v, f.rank)
    degs = [dot(e, v) for e, _ in f.terms]
    d = min(degs)
    return LaurentPoly(f.rank, [(e, c) for (e, c), dd in zip(f.terms, degs) if dd == d])


# -- problem specifications ---------------------------------------------------


@dataclass(frozen=True)
class BinomialSet:
    """{xi in the open positive orthant : xi^gamma_i < c_i for all i}."""

    rank: int
    gammas: tuple[Vec, ...]
    constants: tuple[Fraction, ...]

    def __post_init__(self):
        gammas = tuple(lattice_point(g, self.rank) for g in self.gammas)
        consts = tuple(Fraction(c) for c in self.constants)
        if not gammas:
            raise ValueError("need at least one binomial inequality")
        if len(gammas) != len(consts):
            raise ValueError("gammas and constants must pair up")
        if any(c <= 0 for c in consts):
            raise ValueError("constants must be positive")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "constants", consts)


@dataclass(frozen=True)
class Tentacle:
    """The sweep of a relatively compact base under the one-parameter subgroup
    of direction v, shrinking toward infinity. Only v enters any formula; the
    relative compactness of the base is a declared assumption."""

    rank: int
    v: Vec

    def __post_init__(self):
        v = lattice_point(self.v, self.rank)
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


class RayKind(enum.Enum):
    """The verdict on one ray; see ``classify_rays``."""

    IN_SIGMA = "in sigma"
    IN_K0 = "in K0"
    MEETS = "closure meets"
    MISSED = "missed"
    UNDECIDED = "undecided"


class RayVerdict(NamedTuple):
    """The compatibility verdict of one ray u, with the grid witnesses of a
    basic set's scan: ``k0`` is a base point where every initial form along u
    is positive, ``closure`` the (point, drift) of a curve
    lambda_u(t)(xi + t*eta) that stays in S. Either is None when not found."""

    ray: Vec
    kind: RayKind
    k0: Point | None
    closure: tuple[Point, Point] | None


Verdicts = tuple[RayVerdict, ...]


@dataclass(frozen=True)
class TCReport:
    """The folded verdict, with the verdict of every fan ray in ``rays``."""

    status: TCStatus
    witness_ray: Vec | None
    reason: str
    rays: Verdicts

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


def _check_sigma(sigma: RationalCone, rank: int):
    if sigma.side != "N":
        raise ValueError("sigma must be a cone in N")
    if sigma.rank != rank:
        raise ValueError("sigma rank does not match the problem rank")
    if not sigma.is_pointed():
        raise ValueError("sigma must be pointed")


# -- adapted fans --------------------------------------------------------------


def _growth_boundary_rays(k0: RationalCone) -> list[Vec]:
    if k0.is_pointed():
        return list(k0.generators)
    return [] if k0.is_full() else [r for b in k0.lineality_basis for r in (b, vec_neg(b))]


def _basic_breaking_rays(s: BasicSet) -> list[Vec]:
    rays = []
    for f in s.polys:
        for a, b in combinations(f.support(), 2):
            u = primitive_tuple((b[1] - a[1], a[0] - b[0]))  # normal to a - b
            rays += [u, vec_neg(u)]
    return rays


def adapted_fan(s: ProblemSet, sigma: RationalCone) -> Fan2D:
    """A complete rank-2 fan adapted to S and containing sigma's rays.

    On the relative interior of each cone the component sequences of the
    defining data are constant. The fan is built from the rays that
    ``check_tc`` requires (``_adapted_rays``: the boundary rays of K0 for
    binomial sets and tentacles, the primitive normals of all exponent
    differences for basic sets), with -v for a tentacle. The standard
    projective plane rays are always included, which completes the fan.
    """
    if s.rank != 2:
        raise ValueError("adapted fans are built in rank 2 only")
    _check_sigma(sigma, 2)
    k0 = None if isinstance(s, BasicSet) else K_sets(s)[1]
    rays = [*sigma.generators, *_adapted_rays(s, k0), *P2_RAYS]
    if isinstance(s, Tentacle):
        rays.append(vec_neg(s.v))
    fan = make_fan(rays)
    if not fan.complete:
        raise AssertionError("adapted fan construction must yield a complete fan")
    return fan


def _adapted_rays(s: ProblemSet, k0: RationalCone | None) -> list[Vec]:
    """The rays every fan adapted to S must have, with k0 = K0(S) for a
    binomial set or a tentacle and None for a basic set.

    For binomial sets and tentacles these are the boundary rays of K0. On a
    complete rank-2 fan, K0 is a union of fan cones iff each of them is a
    fan ray: the interior of a 2-cone holds no fan ray, so then it misses the
    boundary of K0 and lies inside K0 or outside it, while a boundary ray
    that is no fan ray cuts the 2-cone around it. For basic sets they are
    the breaking rays."""
    return _basic_breaking_rays(s) if k0 is None else _growth_boundary_rays(k0)


def _require_rays(fan: Fan2D, rays, what: str):
    """Raise unless the fan is complete and has every one of the rays."""
    if not fan.complete:
        raise ValueError("the fan must be complete")
    missing = sorted(set(rays).difference(fan.rays))
    if missing:
        raise ValueError(f"{what} {missing}")


# -- the bounded-function subfan -----------------------------------------------


@dataclass(frozen=True)
class FSData:
    """The subfan of an adapted fan whose rays lie in sigma or in K0, with the
    Hilbert basis of the dual of its support.

    ``rays`` pairs each kept ray with a flag marking containment in sigma.
    Rays kept but not in sigma are the rays in K0: divisors at infinity met by
    the closure of S (the Y' rays of the filtration)."""

    fan: Fan2D
    rays: tuple[tuple[Vec, bool], ...]
    dual_basis: SemigroupBasis


def subfan_FS(fan: Fan2D, rays) -> FSData:
    """Keep the fan rays whose verdict (``check_tc``'s ``rays``) is in sigma or
    in K0, and compute the Hilbert basis of the dual of their support."""
    kept = tuple((v.ray, v.kind is RayKind.IN_SIGMA) for v in rays
                 if v.kind in (RayKind.IN_SIGMA, RayKind.IN_K0))
    hull = RationalCone.from_generators([u for u, _ in kept], 2, "N")
    return FSData(fan, kept, hilbert_basis(hull.dual()))


# -- per-ray verdicts and the compatibility check -------------------------------


def default_grid() -> list[Point]:
    """All points with coordinates in {±1, ±2, ±1/2}, squared."""
    vals = sorted([Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                   Fraction(1, 2), Fraction(-1, 2)])
    return [tuple(p) for p in product(vals, repeat=2)]


def default_drifts() -> list[Point]:
    vals = sorted([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)])
    return [tuple(p) for p in product(vals, repeat=2) if any(p)]


def classify_rays(s: ProblemSet, sigma: RationalCone, rays, grid=None, drifts=None) -> Verdicts:
    """The verdict of each ray u, in order: "in sigma", else for a binomial
    set or a tentacle "in K0" or "missed" by the exact K0 of ``K_sets``.

    A basic set's rays get two sound one-sided certificates from one grid
    pass (``_scan_ray``). A base point where every initial form along u is
    positive witnesses an open set swept into S along u: "in K0". Else a
    curve lambda_u(t)(xi + t*eta) in S for all small t > 0 shows that the
    closure of S meets the divisor of u: "closure meets". Else "undecided".
    The zero drift, tried first at each base point, is exactly membership
    of xi in S(u); nonzero drift catches sets that escape to infinity only
    along moving base points."""
    _check_sigma(sigma, s.rank)
    growth = _prepare(s, grid, drifts) if isinstance(s, BasicSet) else K_sets(s)[1]
    return _classify(sigma, [lattice_point(u, s.rank) for u in rays], growth)


def _classify(sigma: RationalCone, rays, growth) -> Verdicts:
    """The verdicts of ``classify_rays`` from K0 (a cone) or the integer scan
    data of a basic set (``_prepare``)."""
    out = []
    for u in rays:
        if sigma.contains(u):
            out.append(RayVerdict(u, RayKind.IN_SIGMA, None, None))
        elif isinstance(growth, RationalCone):
            kind = RayKind.IN_K0 if growth.contains(u) else RayKind.MISSED
            out.append(RayVerdict(u, kind, None, None))
        else:
            k0, closure = _scan_ray(u, *growth)
            kind = RayKind.IN_K0 if k0 else RayKind.MEETS if closure else RayKind.UNDECIDED
            out.append(RayVerdict(u, kind, k0, closure))
    return tuple(out)


def _curve_sign(g: _Cleared, shifts, point, eta) -> int:
    """Sign of f(lambda_v(t)(xi + t*eta)) for small t > 0, 0 when it vanishes
    identically; shifts are the <e, v> - dmin of the terms of g.

    With xi_i = a_i/b_i and eta_i = h_i/hb_i (b_i, hb_i > 0),
    f(lambda_v(t)(xi + t*eta)) = t^dmin * prod (xi_i + t*eta_i)^lows_i * P(t)
    / (den * prod (b_i*hb_i)^spans_i) for the integer polynomial
    P(t) = sum C t^shift prod (a_i*hb_i + t*h_i*b_i)^k_i (b_i*hb_i)^r_i,
    expanded here exactly. Near t = 0 the prefactor has the sign of
    prod xi_i^lows_i, and P the sign of its lowest nonzero coefficient."""
    lines = [(a * hb, h * b, b * hb) for (a, b), (h, hb) in zip(point, eta)]
    total: list[int] = []
    for (c, _, powers), shift in zip(g.terms, shifts):
        p = [c]
        for (alpha, beta, w), (k, r) in zip(lines, powers):
            p = _times_linear_power(p, alpha, beta, k, w**r)
        total += [0] * (shift + len(p) - len(total))
        for j, x in enumerate(p, shift):
            total[j] += x
    lead = next((x for x in total if x), 0)
    return _sign(lead) * _unit_sign(g.lows, point)


def _times_linear_power(p: list[int], alpha: int, beta: int, k: int, w: int) -> list[int]:
    """The coefficients of p(t) * (alpha + t*beta)^k * w."""
    q = [comb(k, j) * alpha ** (k - j) * beta**j * w for j in range(k + 1)]
    out = [0] * (len(p) + k)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q, i):
                out[j] += x * y
    return out


def _prepare(s: BasicSet, grid, drifts):
    """(cleared polys, base points, drifts) of the scans of one problem.

    Each base point is the triple (point, split point, unit signs of the
    polys there) and each drift the pair (point, split point), so that no
    scan splits a coordinate again. Base points with a zero coordinate lie
    outside the torus and are dropped; the zero drift comes first."""
    grid = default_grid() if grid is None else grid
    drifts = default_drifts() if drifts is None else drifts
    polys = [_clear(f.terms) for f in s.polys]
    points = []
    for xi in grid:
        point = _split(xi)
        if all(a for a, _ in point):
            points.append((xi, point, [_unit_sign(g.lows, point) for g in polys]))
    etas = [(0,) * s.rank] + list(drifts)
    return polys, points, [(eta, _split(eta)) for eta in etas]


def _witness(point) -> Point:
    return tuple(Fraction(x) for x in point)


def _scan_ray(v: Vec, polys, points, etas) -> tuple[Point | None, tuple[Point, Point] | None]:
    """(K0 witness, closure witness) of ray v from one pass over the points,
    with the cleared polys, points and drifts of ``_prepare``; None where
    the grid holds no witness.

    Every sign is decided in integer arithmetic. The initial form of f is the
    set of its terms of shift <e, v> - dmin = 0, and its sign at xi is that of
    their ``_cleared_sum`` times the unit sign of x^lows; it is also the
    lowest-order coefficient of f along every curve lambda_v(t)(xi + t*eta).
    A negative one rules xi out for any drift and ends the signs there, all
    positive ones make xi the K0 witness (and a zero-drift closure witness)
    and end the scan, and the forms that vanish are decided by the exact
    curve polynomial of ``_curve_sign``, with the zero drift first and then
    the given drifts in order."""
    shifts, initials = [], []
    for g in polys:
        degs = [dot(e, v) for _, e, _ in g.terms]
        dmin = min(degs)
        shifts.append([d - dmin for d in degs])
        initials.append([t for t, d in zip(g.terms, degs) if d == dmin])
    closure = None
    for xi, point, units in points:
        signs = []
        for initial, unit in zip(initials, units):
            signs.append(_sign(_cleared_sum(initial, point)) * unit)
            if signs[-1] < 0:
                break
        if signs[-1] < 0:
            continue
        pending = [i for i, sg in enumerate(signs) if sg == 0]
        if not pending:
            return _witness(xi), closure or (_witness(xi), _witness(etas[0][0]))
        if closure:
            continue
        for eta, drift in etas:
            if all(_curve_sign(polys[i], shifts[i], point, drift) > 0 for i in pending):
                closure = (_witness(xi), _witness(eta))
                break
    return None, closure


def check_tc(fan: Fan2D, sigma: RationalCone, s: ProblemSet, grid=None, drifts=None) -> TCReport:
    """Decide the toric compatibility condition for S on an adapted fan from
    the verdict of every fan ray (``classify_rays``), carried in ``rays``.

    Binomial sets and tentacles satisfy it on every adapted fan. A basic set
    is Violated at a ray whose closure meeting is certified without an
    interior witness (density itself is not certified), else Unknown if some
    ray is undecided. K0, or the integer form of the polynomials, grid and
    drifts (``_prepare``), is computed once per call."""
    _check_sigma(sigma, s.rank)
    _require_rays(fan, sigma.generators, "fan does not contain the sigma rays")
    k0 = None if isinstance(s, BasicSet) else K_sets(s)[1]
    _require_rays(fan, _adapted_rays(s, k0), "fan not adapted: missing rays")
    rays = _classify(sigma, fan.rays, _prepare(s, grid, drifts) if k0 is None else k0)
    violated = [v.ray for v in rays if v.kind is RayKind.MEETS]
    unknown = sorted(v.ray for v in rays if v.kind is RayKind.UNDECIDED)
    if violated:
        w = min(violated)
        return TCReport(
            TCStatus.VIOLATED, w,
            f"closure certified to meet the divisor of ray {w} but no interior "
            "witness was found on the grid (density not certified)", rays,
        )
    if unknown:
        return TCReport(TCStatus.UNKNOWN, None, f"no certificate either way for ray(s) {unknown}", rays)
    return TCReport(TCStatus.VERIFIED, None, _VERIFIED_REASONS[type(s)], rays)


# binomial sets and tentacles have no "closure meets" or "undecided" rays
_VERIFIED_REASONS = {
    BinomialSet: "binomial set: every divisor at infinity met by the closure is met densely "
                 "on an adapted fan",
    Tentacle: "tentacle: the closure only meets orbits whose cone has the sweep direction in "
              "its relative interior",
    BasicSet: "every boundary ray outside sigma has a certified interior witness",
}
