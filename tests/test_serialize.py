from fractions import Fraction

import pytest

from toricbound.bounded import BasicSet, BinomialSet, LaurentPoly, Tentacle
from toricbound.cli import corpus_entry
from toricbound.cones import RationalCone
from toricbound.fans import make_fan
from toricbound.serialize import (
    SchemaError,
    cone_from_json,
    cone_to_json,
    fan_from_json,
    fan_to_json,
    matrix_from_json,
    poly_from_json,
    problem_from_json,
    semigroup_to_json,
)
from toricbound.hilbert import SemigroupBasis
from toricbound.linalg import SymmetricRationalMatrix

ORTHANT = RationalCone.from_generators([(1, 0), (0, 1)], 2, "N")


class TestConeRoundtrip:
    def test_roundtrip(self):
        obj = cone_to_json(ORTHANT)
        assert obj["generators"] == [["0", "1"], ["1", "0"]]
        assert cone_from_json(obj) == ORTHANT

    def test_generators_only(self):
        assert cone_from_json(
            {"rank": 2, "side": "N", "generators": [["1", "0"]]}
        ).generators == ((1, 0),)

    def test_inequalities_only(self):
        cone = cone_from_json({"rank": 2, "side": "N", "inequalities": [["1", "0"]]})
        assert not cone.is_pointed()

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(SchemaError, match="different cones"):
            cone_from_json(
                {
                    "rank": 2,
                    "side": "N",
                    "generators": [["1", "0"]],
                    "inequalities": [["1", "0"]],
                }
            )

    def test_side_mismatch(self):
        with pytest.raises(SchemaError, match="side"):
            cone_from_json({"rank": 2, "side": "M", "generators": []}, side="N")

    def test_bad_coordinate(self):
        with pytest.raises(SchemaError, match=r"generators\[0\]\[1\]"):
            cone_from_json({"rank": 2, "side": "N", "generators": [["1", "x"]]})


class TestFanRoundtrip:
    def test_roundtrip(self):
        fan = make_fan([(1, 0), (0, 1), (-1, -1)])
        obj = fan_to_json(fan)
        assert obj["complete"] is True
        assert fan_from_json(obj) == fan

    def test_complete_flag_checked(self):
        p2 = [["1", "0"], ["0", "1"], ["-1", "-1"]]
        with pytest.raises(SchemaError, match="fan is not complete"):
            fan_from_json({"rays": [["1", "0"]], "complete": True})
        # only a JSON boolean is a flag: a string, a number or null is rejected
        for rays, flag in ((p2, "false"), (p2, 0), (p2, None), (p2[:2], "no")):
            with pytest.raises(SchemaError, match=r"fan\.complete: expected bool"):
                fan_from_json({"rays": rays, "complete": flag})


class TestMatrixRoundtrip:
    def test_roundtrip(self):
        mat = SymmetricRationalMatrix([[Fraction(-3), 1], [1, Fraction(1, 2)]])
        assert matrix_from_json([["-3", "1"], ["1", "1/2"]]) == mat

    def test_asymmetric_rejected(self):
        with pytest.raises(SchemaError, match="symmetric"):
            matrix_from_json([["0", "1"], ["2", "0"]])


class TestProblemRoundtrip:
    def test_binomial(self):
        sigma, s = problem_from_json(corpus_entry("hyperbola-2")["input"])
        assert sigma == ORTHANT and s == BinomialSet(2, ((2, 1),), (1,))

    def test_tentacle(self):
        sigma, s = problem_from_json(corpus_entry("tentacle-diag")["input"])
        assert sigma == ORTHANT and s == Tentacle(2, (-1, -1))

    def test_basic(self):
        sigma, s = problem_from_json(corpus_entry("example3")["input"])
        polys = (
            LaurentPoly(2, {(2, 0): 1, (1, 1): -1, (0, 0): 1}),
            LaurentPoly(2, {(0, 2): 1, (1, 1): -1, (0, 0): 1}),
            LaurentPoly(2, {(1, 0): 1}),
            LaurentPoly(2, {(0, 1): 1}),
        )
        assert sigma == ORTHANT and s == BasicSet(2, polys)

    def test_unknown_type(self):
        with pytest.raises(SchemaError, match="type"):
            problem_from_json({"sigma": cone_to_json(ORTHANT), "set": {"type": "nope"}})

    def test_poly_roundtrip(self):
        obj = {"terms": [{"exp": ["-1", "3"], "coef": "5/7"}, {"exp": ["0", "0"], "coef": "-2"}]}
        assert poly_from_json(obj, "$", 2) == LaurentPoly(2, {(-1, 3): Fraction(5, 7), (0, 0): -2})

    def test_zero_poly_rejected(self):
        with pytest.raises(SchemaError, match="nonzero"):
            poly_from_json({"terms": []}, "$", 2)


class TestSemigroupJson:
    def test_shape(self):
        basis = SemigroupBasis(2, "M", ((1, 0),), ((0, 1),))
        assert semigroup_to_json(basis) == {
            "generators": [["1", "0"]],
            "lineality": [["0", "1"]],
        }
