"""Every constructor, direction and membership test reads lattice coordinates
through ``linalg.lattice_point``: a non-integral or infinite coordinate raises
ValueError instead of being truncated, an integral Fraction passes, and a
wrong length raises wherever the rank is known."""

from fractions import Fraction

import pytest

from toricbound.bounded import (
    BasicSet,
    BinomialSet,
    LaurentPoly,
    Tentacle,
    classify_rays,
    initial_form,
)
from toricbound.cones import RationalCone
from toricbound.fans import make_fan
from toricbound.hilbert import (
    SemigroupBasis,
    ShiftedPolyhedron,
    lattice_kernel_relations,
    semigroup_contains,
    semigroup_membership,
)
from toricbound.linalg import lattice_point
from toricbound.surface import DivisorSelection, ToricSurface, chain_classify

F = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})
ORTHANT_N = RationalCone.from_generators([(1, 0), (0, 1)], 2, "N")
ZERO_N = RationalCone.zero(2, "N")
ORTHANT_BASIS = SemigroupBasis(2, "M", ((0, 1), (1, 0)))
# a smooth complete fan with the ray (2, 1)
SURFACE = ToricSurface.from_fan(make_fan([(1, 0), (2, 1), (1, 1), (0, 1), (-1, -1)]))

# (name, call, a valid vector, whether the site knows the rank)
SITES = [
    ("lattice_point", lambda v: lattice_point(v, 2), (2, 1), True),
    ("LaurentPoly", lambda v: LaurentPoly(2, {v: 1}), (2, 1), True),
    ("initial_form", lambda v: initial_form(F, v), (2, 1), True),
    # the K0 and closure witnesses of classify_rays, under the names of the
    # certificates they replace; both witnesses exist for the ray (-2, -1)
    ("certify_K0_membership", lambda v: classify_rays(BasicSet(2, (F,)), ZERO_N, [v])[0].k0,
     (-2, -1), True),
    ("certify_orbit_meeting", lambda v: classify_rays(BasicSet(2, (F,)), ZERO_N, [v])[0].closure,
     (-2, -1), True),
    ("BinomialSet", lambda v: BinomialSet(2, (v,), (1,)), (2, 1), True),
    ("Tentacle", lambda v: Tentacle(2, v), (2, 1), True),
    ("from_generators", lambda v: RationalCone.from_generators([v], 2, "M"), (2, 1), True),
    ("from_inequalities", lambda v: RationalCone.from_inequalities([v], 2, "M"), (2, 1), True),
    ("contains", ORTHANT_N.contains, (2, 1), True),
    ("make_fan", lambda v: make_fan([v, (0, 1), (-1, -1)]), (2, 1), True),
    ("DivisorSelection.from_rays", lambda v: DivisorSelection.from_rays(SURFACE, [v]), (2, 1), True),
    ("DivisorSelection.T", lambda v: DivisorSelection(SURFACE, v), (2, 1), False),
    ("chain_classify", lambda v: chain_classify(SURFACE, v), (2, 3, 4), False),
    ("lattice_kernel_relations", lambda v: lattice_kernel_relations([(1, 0), v]), (2, 1), True),
    ("semigroup_membership", semigroup_membership(ORTHANT_BASIS), (2, 1), True),
    ("semigroup_contains", lambda v: semigroup_contains(ORTHANT_BASIS, v), (2, 1), True),
    ("ShiftedPolyhedron.contains",
     ShiftedPolyhedron(2, "M", (((1, 0), 0), ((0, 1), 0))).contains, (2, 1), True),
]
IDS = [name for name, *_ in SITES]


@pytest.mark.parametrize("name, call, good, ranked", SITES, ids=IDS)
@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3, 2), float("inf")])
def test_non_integral_coordinate_rejected(name, call, good, ranked, bad):
    with pytest.raises(ValueError, match="not an integer"):
        call((good[0] + bad, *good[1:]))


@pytest.mark.parametrize("name, call, good, ranked", SITES, ids=IDS)
def test_integral_fraction_accepted(name, call, good, ranked):
    assert call(tuple(Fraction(2 * x, 2) for x in good)) == call(good)


@pytest.mark.parametrize(
    "name, call, good, ranked", [site for site in SITES if site[3]],
    ids=[name for name, *_, ranked in SITES if ranked],
)
@pytest.mark.parametrize("extend", [1, -1])
def test_wrong_length_rejected(name, call, good, ranked, extend):
    v = good + (0,) if extend > 0 else good[:1]
    with pytest.raises(ValueError, match="rank"):
        call(v)


@pytest.mark.parametrize("coordinate, shown", [
    (float("inf"), "inf"),
    (float("nan"), "nan"),
    ("1", "'1'"),
    (None, "None"),
    (Fraction(1, 2), "Fraction(1, 2)"),
])
def test_rejected_coordinate_is_shown_by_repr(coordinate, shown):
    with pytest.raises(ValueError) as info:
        lattice_point([0, coordinate], 2)
    assert str(info.value) == f"coordinate {shown} is not an integer"
