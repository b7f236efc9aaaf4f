"""Command-line surface: parse problem JSON, orchestrate the pipeline, emit
machine-readable reports.

Exit codes: 0 success; 2 validation error (malformed JSON, schema violation,
unsupported rank, an option beyond its limit, an unreadable input or
unwritable output); 3 mathematically inconclusive
(the compatibility condition is Violated or Unknown but the command needs it
Verified).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources
from itertools import product

from .bounded import (
    BasicSet,
    K_sets,
    TCStatus,
    adapted_fan,
    bounded_ring,
    check_tc,
    subfan_FS,
)
from .cones import RationalCone
from .fans import is_smooth, smooth_resolution
from .filtration import filtration_levels, total_stability_certificate
from .hilbert import SemigroupBasis, hilbert_basis, semigroup_membership
from .intlin import lattice_points
from .linalg import inertia
from .serialize import (
    SchemaError,
    cone_from_json,
    cone_to_json,
    fan_from_json,
    fan_to_json,
    inertia_to_json,
    level_to_json,
    matrix_from_json,
    parse_vector,
    problem_from_json,
    semigroup_to_json,
    stability_to_json,
    tc_report_to_json,
    iitaka_to_json,
)
from .surface import DivisorSelection, ToricSurface, iitaka_classify

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3

# `hilbert --box B` checks one membership query per lattice point of the cone
# in [-B, B]^n; the box may hold at most this many points, so B <= 64 in rank
# 2, 12 in rank 3 and 5 in rank 4.
MAX_BOX_POINTS = 129 ** 2
# `filtration` and `stability` compute every level 0..nmax. A finite level
# lists all of its lattice points, so the work grows about as nmax^3 there;
# an infinite level costs one interval cut per fibre and generator, about
# nmax^2 over all levels.
MAX_NMAX = 100
# `--grid` values make a square grid of base points; each ray outside sigma
# may evaluate every initial form at every point and try every drift there.
MAX_GRID_VALUES = 32


class Inconclusive(Exception):
    """Raised when a command needs a Verified compatibility condition."""

    def __init__(self, report):
        super().__init__(report.reason)
        self.report = report


def corpus_list() -> list[str]:
    """Names of the bundled example inputs, sorted."""
    base = resources.files("toricbound").joinpath("corpus")
    names = []
    for entry in base.iterdir():
        name = entry.name
        if name.endswith(".json") and not name.endswith(".golden.json"):
            names.append(name[: -len(".json")])
    return sorted(names)


def corpus_entry(name: str) -> dict:
    base = resources.files("toricbound").joinpath("corpus")
    path = base.joinpath(f"{name}.json")
    if not path.is_file():
        raise SchemaError(
            f"unknown corpus entry {name!r}; available: {', '.join(corpus_list())}"
        )
    return json.loads(path.read_text())


def _parse_grid_spec(spec: str):
    try:
        vals = [Fraction(part.strip()) for part in spec.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad grid value in {spec!r}: {exc}")
    if not vals:
        raise SchemaError("grid specification is empty")
    vals = sorted(set(vals))
    if len(vals) > MAX_GRID_VALUES:
        raise SchemaError(
            f"--grid has {len(vals)} distinct values; at most "
            f"MAX_GRID_VALUES = {MAX_GRID_VALUES} are allowed"
        )
    grid = [tuple(p) for p in product(vals, repeat=2)]
    dvals = sorted(set(vals) | {Fraction(0)})
    drifts = [tuple(p) for p in product(dvals, repeat=2) if any(p)]
    return grid, drifts


def _load_input(args):
    if args.corpus_name is not None:
        return corpus_entry(args.corpus_name)["input"]
    if args.input is None:
        raise SchemaError("no input: pass --input PATH or --corpus NAME")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input) as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {args.input}: {exc}")
    return json.loads(text)


def _tc_gate(sigma, s, args):
    """For basic sets, require a Verified compatibility condition; returns the
    subfan data of the kept rays."""
    fan = adapted_fan(s, sigma)
    report = check_tc(fan, sigma, s, args.grid, args.drifts)
    if report.status is not TCStatus.VERIFIED:
        raise Inconclusive(report)
    return subfan_FS(fan, sigma, RationalCone.full(2, "N"))


def _cmd_bounded(args):
    sigma, s = problem_from_json(_load_input(args))
    if isinstance(s, BasicSet):
        _tc_gate(sigma, s, args)
        basis = SemigroupBasis(s.rank, "M", ())
    else:
        basis = bounded_ring(sigma, s)
    return semigroup_to_json(basis)


def _cmd_ksets(args):
    sigma, s = problem_from_json(_load_input(args))
    if isinstance(s, BasicSet):
        raise SchemaError("ksets requires a binomial or tentacle set")
    k, k0, equal = K_sets(s)
    return {"K": cone_to_json(k), "K0": cone_to_json(k0), "equal": equal}


def _cmd_adapted_fan(args):
    sigma, s = problem_from_json(_load_input(args))
    return fan_to_json(adapted_fan(s, sigma))


def _cmd_tc_check(args):
    sigma, s = problem_from_json(_load_input(args))
    fan = adapted_fan(s, sigma)
    return tc_report_to_json(check_tc(fan, sigma, s, args.grid, args.drifts))


def _cmd_hilbert(args):
    cone = cone_from_json(_load_input(args))
    box = args.box
    if box is not None and (box < 0 or (2 * box + 1) ** cone.rank > MAX_BOX_POINTS):
        raise SchemaError(
            f"--box {box} is out of range: B must be >= 0 and [-B, B]^{cone.rank} "
            f"may hold at most MAX_BOX_POINTS = {MAX_BOX_POINTS} points"
        )
    basis = hilbert_basis(cone)
    out = semigroup_to_json(basis)
    if args.box is not None:
        _verify_box_coverage(cone, basis, args.box)
        out["verified_box"] = args.box
    return out


def _verify_box_coverage(cone: RationalCone, basis, bound: int):
    cons = [(a, 0) for a in cone.inequalities]
    contains = semigroup_membership(basis)
    for pt in lattice_points(cons, [-bound] * cone.rank, [bound] * cone.rank):
        if not contains(pt):
            raise AssertionError(f"lattice point {pt} not covered by the basis")


def _cmd_inertia(args):
    mat = matrix_from_json(_load_input(args))
    return inertia_to_json(inertia(mat))


def _cmd_surface_classify(args):
    obj = _load_input(args)
    if not isinstance(obj, dict):
        raise SchemaError("$: expected an object with 'fan' and 'T'")
    fan = fan_from_json(obj.get("fan"), "$.fan")
    if not fan.complete:
        raise SchemaError("$.fan: surface classification needs a complete fan")
    if not is_smooth(fan):
        raise SchemaError("$.fan: fan is not smooth; run resolve-fan first")
    surface = ToricSurface.from_fan(fan)
    t_rays = obj.get("T")
    if not isinstance(t_rays, list):
        raise SchemaError("$.T: expected a list of rays")
    rays = [parse_vector(r, f"$.T[{i}]", 2) for i, r in enumerate(t_rays)]
    try:
        sel = DivisorSelection.from_rays(surface, rays)
    except ValueError as exc:
        raise SchemaError(f"$.T: {exc}")
    return iitaka_to_json(iitaka_classify(sel))


def _cmd_filtration(args):
    sigma, s = problem_from_json(_load_input(args))
    if isinstance(s, BasicSet):
        fs = _tc_gate(sigma, s, args)
    else:
        fan = adapted_fan(s, sigma)
        fs = subfan_FS(fan, sigma, K_sets(s)[1])
    return {
        "bounded_basis": semigroup_to_json(fs.dual_basis),
        "levels": [level_to_json(lv) for lv in filtration_levels(fs, args.nmax)],
    }


def _cmd_stability(args):
    sigma, s = problem_from_json(_load_input(args))
    if isinstance(s, BasicSet):
        raise SchemaError("stability requires a binomial or tentacle set")
    return stability_to_json(total_stability_certificate(sigma, s, args.nmax))


def _cmd_resolve_fan(args):
    fan = fan_from_json(_load_input(args), "$")
    if not fan.complete:
        raise SchemaError("$: resolution needs a complete fan")
    return fan_to_json(smooth_resolution(fan))


def _cmd_corpus(args):
    return corpus_list()


_DISPATCH = {
    "bounded": _cmd_bounded,
    "ksets": _cmd_ksets,
    "adapted-fan": _cmd_adapted_fan,
    "tc-check": _cmd_tc_check,
    "hilbert": _cmd_hilbert,
    "inertia": _cmd_inertia,
    "surface-classify": _cmd_surface_classify,
    "filtration": _cmd_filtration,
    "stability": _cmd_stability,
    "resolve-fan": _cmd_resolve_fan,
    "corpus": _cmd_corpus,
}


def render(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(obj, args):
    text = render(obj)
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {args.output}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricbound",
        description="Exact bounded-function rings on affine toric varieties.",
    )
    parser.set_defaults(input=None, corpus_name=None, output=None, grid=None, nmax=5, box=None)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _DISPATCH:
        p = sub.add_parser(name)
        if name != "corpus":
            p.add_argument("--input", help="path to the input JSON ('-' for stdin)")
            p.add_argument("--corpus", dest="corpus_name", metavar="NAME",
                           help="use a bundled example as input")
            p.add_argument("--output", help="write the report here instead of stdout")
        if name in ("tc-check", "bounded", "filtration"):
            p.add_argument("--grid", help="comma-separated rational grid values")
        if name in ("filtration", "stability"):
            p.add_argument("--nmax", type=int, default=5, help="highest level (default 5)")
        if name == "hilbert":
            p.add_argument("--box", type=int, help="verify coverage in [-B, B]^n")
    return parser


def _join_grid(argv: list[str]) -> list[str]:
    """Fold `--grid VALUE` into `--grid=VALUE`: argparse takes a separate
    value that begins with '-', such as `-1,1`, for an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--grid" else None
        out.append(token if value is None else f"--grid={value}")
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_grid(sys.argv[1:] if argv is None else argv))
    try:
        args.grid, args.drifts = _parse_grid_spec(args.grid) if args.grid else (None, None)
        if not 0 <= args.nmax <= MAX_NMAX:
            raise SchemaError(f"--nmax {args.nmax} is outside 0..MAX_NMAX = {MAX_NMAX}")
        try:
            result = _DISPATCH[args.command](args)
        except Inconclusive as exc:
            _emit(tc_report_to_json(exc.report), args)
            print(f"error: compatibility condition not verified: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        _emit(result, args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    except (SchemaError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
