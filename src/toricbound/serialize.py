"""JSON encoding and validated decoding for every external interface.

All lattice coordinates, matrix entries and rational constants travel as
strings ("-3", "1/2") so no JSON reader can lose precision; small structural
integers (ranks, level indices, inertia counts) stay plain. Decoders validate
shape and report the JSON path of the offending field.
"""

from __future__ import annotations

from fractions import Fraction

from .bounded import (
    BasicSet,
    BinomialSet,
    LaurentPoly,
    ProblemSet,
    TCReport,
    Tentacle,
)
from .cones import RationalCone
from .fans import Fan2D, make_fan
from .filtration import FiltrationLevel, StabilityReport
from .hilbert import SemigroupBasis
from .linalg import Inertia, SymmetricRationalMatrix
from .surface import IitakaResult


class SchemaError(ValueError):
    """Input does not match the documented JSON schema."""


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _expect(obj, typ, path: str):
    if not isinstance(obj, typ):
        _fail(path, f"expected {typ.__name__}, got {type(obj).__name__}")
    return obj


def parse_int(obj, path: str) -> int:
    if isinstance(obj, bool):
        _fail(path, "expected an integer string")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        try:
            return int(obj)
        except ValueError:
            _fail(path, f"not an integer: {obj!r}")
    _fail(path, f"expected an integer string, got {type(obj).__name__}")


def parse_fraction(obj, path: str) -> Fraction:
    if isinstance(obj, bool):
        _fail(path, "expected a rational string")
    if isinstance(obj, (int, str)):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError):
            _fail(path, f"not a rational number: {obj!r}")
    _fail(path, f"expected a rational string, got {type(obj).__name__}")


def parse_vector(obj, path: str, rank: int | None = None) -> tuple[int, ...]:
    _expect(obj, list, path)
    vec = tuple(parse_int(x, f"{path}[{i}]") for i, x in enumerate(obj))
    if rank is not None and len(vec) != rank:
        _fail(path, f"expected {rank} coordinates, got {len(vec)}")
    return vec


def _vec_json(v) -> list[str]:
    return [str(int(x)) for x in v]


def _vecs_json(vs) -> list[list[str]]:
    return [_vec_json(v) for v in vs]


# -- cones ---------------------------------------------------------------------


def cone_to_json(cone: RationalCone) -> dict:
    return {
        "rank": cone.rank,
        "side": cone.side,
        "generators": _vecs_json(cone.generators),
        "inequalities": _vecs_json(cone.inequalities),
    }


def cone_from_json(obj, path: str = "cone", side: str | None = None) -> RationalCone:
    _expect(obj, dict, path)
    rank = parse_int(obj.get("rank"), f"{path}.rank")
    jside = obj.get("side", side)
    if jside not in ("M", "N"):
        _fail(f"{path}.side", "must be 'M' or 'N'")
    if side is not None and jside != side:
        _fail(f"{path}.side", f"expected a cone in {side}")
    gens = obj.get("generators")
    ineqs = obj.get("inequalities")
    if gens is None and ineqs is None:
        _fail(path, "need 'generators' or 'inequalities'")
    if gens is not None:
        _expect(gens, list, f"{path}.generators")
        vs = [parse_vector(v, f"{path}.generators[{i}]", rank) for i, v in enumerate(gens)]
        cone = RationalCone.from_generators(vs, rank, jside)
    else:
        cone = None
    if ineqs is not None:
        _expect(ineqs, list, f"{path}.inequalities")
        vs = [parse_vector(v, f"{path}.inequalities[{i}]", rank) for i, v in enumerate(ineqs)]
        from_ineqs = RationalCone.from_inequalities(vs, rank, jside)
        if cone is not None and cone != from_ineqs:
            _fail(path, "generators and inequalities describe different cones")
        cone = cone or from_ineqs
    return cone


# -- fans ------------------------------------------------------------------------


def fan_to_json(fan: Fan2D) -> dict:
    return {"rays": _vecs_json(fan.rays), "complete": fan.complete}


def fan_from_json(obj, path: str = "fan") -> Fan2D:
    _expect(obj, dict, path)
    rays = _expect(obj.get("rays"), list, f"{path}.rays")
    fan = make_fan([parse_vector(r, f"{path}.rays[{i}]", 2) for i, r in enumerate(rays)])
    if "complete" in obj and _expect(obj["complete"], bool, f"{path}.complete") != fan.complete:
        _fail(f"{path}.complete", f"fan is {'' if fan.complete else 'not '}complete")
    return fan


# -- matrices --------------------------------------------------------------------


def matrix_from_json(obj, path: str = "matrix") -> SymmetricRationalMatrix:
    _expect(obj, list, path)
    rows = []
    for i, row in enumerate(obj):
        _expect(row, list, f"{path}[{i}]")
        rows.append([parse_fraction(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    try:
        return SymmetricRationalMatrix(rows)
    except ValueError as exc:
        _fail(path, str(exc))


# -- semigroups ------------------------------------------------------------------


def semigroup_to_json(basis: SemigroupBasis) -> dict:
    return {
        "generators": _vecs_json(basis.generators),
        "lineality": _vecs_json(basis.lineality_units),
    }


# -- Laurent polynomials ---------------------------------------------------------


def poly_from_json(obj, path: str, rank: int) -> LaurentPoly:
    _expect(obj, dict, path)
    terms = _expect(obj.get("terms"), list, f"{path}.terms")
    pairs = []
    for i, t in enumerate(terms):
        _expect(t, dict, f"{path}.terms[{i}]")
        exp = parse_vector(t.get("exp"), f"{path}.terms[{i}].exp", rank)
        coef = parse_fraction(t.get("coef"), f"{path}.terms[{i}].coef")
        pairs.append((exp, coef))
    poly = LaurentPoly(rank, pairs)
    if poly.is_zero():
        _fail(path, "polynomial must be nonzero")
    return poly


# -- problem specifications ------------------------------------------------------


def problem_from_json(obj, path: str = "$") -> tuple[RationalCone, ProblemSet]:
    _expect(obj, dict, path)
    sigma = cone_from_json(obj.get("sigma"), f"{path}.sigma", side="N")
    body = _expect(obj.get("set"), dict, f"{path}.set")
    kind = body.get("type")
    rank = sigma.rank
    if kind == "binomial":
        gammas = _expect(body.get("gammas"), list, f"{path}.set.gammas")
        gs = [parse_vector(g, f"{path}.set.gammas[{i}]", rank) for i, g in enumerate(gammas)]
        consts = _expect(body.get("constants"), list, f"{path}.set.constants")
        cs = [parse_fraction(c, f"{path}.set.constants[{i}]") for i, c in enumerate(consts)]
        try:
            return sigma, BinomialSet(rank, tuple(gs), tuple(cs))
        except ValueError as exc:
            _fail(f"{path}.set", str(exc))
    if kind == "tentacle":
        v = parse_vector(body.get("v"), f"{path}.set.v", rank)
        try:
            return sigma, Tentacle(rank, v)
        except ValueError as exc:
            _fail(f"{path}.set.v", str(exc))
    if kind == "basic":
        polys = _expect(body.get("polys"), list, f"{path}.set.polys")
        fs = [poly_from_json(p, f"{path}.set.polys[{i}]", rank) for i, p in enumerate(polys)]
        try:
            return sigma, BasicSet(rank, tuple(fs))
        except ValueError as exc:
            _fail(f"{path}.set", str(exc))
    _fail(f"{path}.set.type", "must be 'binomial', 'tentacle' or 'basic'")


# -- reports ---------------------------------------------------------------------


def inertia_to_json(sig: Inertia) -> dict:
    return {"inertia": [sig.n_plus, sig.n_minus, sig.n_zero]}


def tc_report_to_json(report: TCReport) -> dict:
    return {
        "status": report.status.value,
        "witness_ray": _vec_json(report.witness_ray) if report.witness_ray else None,
        "reason": report.reason,
    }


def iitaka_to_json(res: IitakaResult) -> dict:
    return {
        "trdeg": res.trdeg,
        "ring_shape": res.ring_shape.value,
        "inertia": list(res.signature_route.as_tuple()),
        "geometric_case": res.geometric_case.value,
    }


def level_to_json(level: FiltrationLevel) -> dict:
    return {
        "n": level.n,
        "dim": str(level.dimension),
        "module_rank": level.module_rank,
        "module_generators": _vecs_json(level.generators.generators),
    }


def stability_to_json(report: StabilityReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "bounded_basis": semigroup_to_json(report.bounded_basis),
        "levels": [level_to_json(lv) for lv in report.levels],
    }
