import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbound import cli


def run_cli(args):
    """Run the CLI in-process, capturing stdout; returns (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(args)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def run_json(args):
    code, out, err = run_cli(args)
    assert code == 0, err
    return json.loads(out)


class TestCorpusCommands:
    def test_corpus_listing(self):
        names = run_json(["corpus"])
        assert names == sorted(names)
        for expected in ("strip", "mondal-netzer-MY", "hyperbola-2"):
            assert expected in names

    def test_every_entry_matches_its_golden(self):
        for name in cli.corpus_list():
            entry = cli.corpus_entry(name)
            args = [entry["command"], "--corpus", name]
            for key, val in entry.get("options", {}).items():
                args += [f"--{key}", str(val)]
            code, out, err = run_cli(args)
            assert code == 0, (name, err)
            golden = (
                cli.resources.files("toricbound")
                .joinpath("corpus", f"{name}.golden.json")
                .read_text()
            )
            assert out == golden, name

    def test_unknown_corpus_name(self):
        code, _, err = run_cli(["bounded", "--corpus", "nope"])
        assert code == 2
        assert "unknown corpus entry" in err


class TestBounded:
    def test_strip(self):
        out = run_json(["bounded", "--corpus", "strip"])
        assert out["generators"] == [["1", "0"]]

    def test_hyperbola(self):
        out = run_json(["bounded", "--corpus", "hyperbola-2"])
        assert out["generators"] == [["2", "1"]]

    def test_basic_violated_exits_3(self):
        code, out, err = run_cli(["bounded", "--corpus", "example3"])
        assert code == 3
        report = json.loads(out)
        assert report["status"] == "Violated"
        assert report["witness_ray"] == ["-1", "-1"]


class TestCompatibilityGate:
    """`bounded` and `filtration` on a basic set need a Verified compatibility
    condition, decided on the `--grid` given to them. For S = {x - 3 > 0} the
    ray (0, -1) needs a base point with x > 3, which the default grid lacks."""

    GRID = "--grid=1,3,6,-1,-3,-6,1/3,-1/3"

    @pytest.fixture
    def shifted(self, tmp_path):
        terms = [{"exp": ["1", "0"], "coef": "1"}, {"exp": ["0", "0"], "coef": "-3"}]
        problem = {
            "sigma": {"rank": 2, "side": "N", "generators": [["1", "0"], ["0", "1"]]},
            "set": {"type": "basic", "polys": [{"terms": terms}]},
        }
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(problem))
        return ["--input", str(path)]

    @pytest.mark.parametrize("command", [["bounded"], ["filtration", "--nmax", "2"]])
    def test_default_grid_is_inconclusive(self, shifted, command):
        code, out, err = run_cli(command + shifted)
        assert code == 3
        assert json.loads(out)["status"] == "Unknown"
        assert "compatibility condition not verified" in err

    def test_grid_verifies_bounded(self, shifted):
        out = run_json(["bounded", self.GRID] + shifted)
        assert out == {"generators": [], "lineality": []}

    def test_grid_verifies_filtration(self, shifted):
        out = run_json(["filtration", "--nmax", "2", self.GRID] + shifted)
        assert [lv["dim"] for lv in out["levels"]] == ["1", "3", "6"]


class TestReports:
    def test_inertia_MY(self):
        out = run_json(["inertia", "--corpus", "mondal-netzer-MY"])
        assert out["inertia"] == [0, 13, 1]

    def test_tc_check_example4(self):
        out = run_json(["tc-check", "--corpus", "example4"])
        assert out["status"] == "Violated"
        assert out["witness_ray"] == ["-1", "-1"]

    @pytest.mark.parametrize("name, reason", [
        ("hyperbola-1", "binomial set: every divisor at infinity met by the closure is met densely "
                        "on an adapted fan"),
        ("tentacle-diag", "tentacle: the closure only meets orbits whose cone has the sweep "
                          "direction in its relative interior"),
    ])
    def test_tc_check_reason(self, name, reason):
        out = run_json(["tc-check", "--corpus", name])
        assert out == {"status": "Verified", "witness_ray": None, "reason": reason}

    def test_ksets(self, tmp_path):
        entry = cli.corpus_entry("strip")
        path = tmp_path / "in.json"
        path.write_text(json.dumps(entry["input"]))
        out = run_json(["ksets", "--input", str(path)])
        assert out["equal"] is True
        assert out["K0"]["inequalities"] == [["1", "0"]]

    def test_adapted_fan(self):
        out = run_json(["adapted-fan", "--corpus", "strip"])
        assert out["rays"] == [["1", "0"], ["0", "1"], ["-1", "-1"], ["0", "-1"]]

    def test_stability(self):
        out = run_json(["stability", "--corpus", "tentacle-diag", "--nmax", "3"])
        assert out["verdict"] == "TotallyStable"
        assert [lv["dim"] for lv in out["levels"]] == ["1", "3", "6", "10"]

    def test_filtration_strip(self):
        out = run_json(["filtration", "--corpus", "strip", "--nmax", "2"])
        assert [lv["dim"] for lv in out["levels"]] == ["infinite"] * 3
        assert [lv["module_rank"] for lv in out["levels"]] == [1, 2, 3]

    def test_surface_classify(self):
        out = run_json(["surface-classify", "--corpus", "P2-fan"])
        assert out["trdeg"] == 2
        assert out["geometric_case"] == "salient"

    def test_resolve_fan(self, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"rays": [["1", "0"], ["-1", "2"], ["0", "-1"]]}))
        out = run_json(["resolve-fan", "--input", str(path)])
        assert ["0", "1"] in out["rays"]

    def test_hilbert_with_box(self, tmp_path):
        path = tmp_path / "cone.json"
        path.write_text(
            json.dumps({"rank": 2, "side": "M", "generators": [["1", "0"], ["1", "2"]]})
        )
        out = run_json(["hilbert", "--input", str(path), "--box", "6"])
        assert out["generators"] == [["1", "0"], ["1", "1"], ["1", "2"]]
        assert out["verified_box"] == 6


class TestErrorHandling:
    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sigma": [,]}')
        code, _, err = run_cli(["bounded", "--input", str(path)])
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_deeply_nested_json_on_stdin(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100000 + "]" * 100000))
        code, out, err = run_cli(["bounded", "--input", "-"])
        assert (code, out) == (2, "")
        assert "nested too deeply" in err and "Traceback" not in err

    def test_unsupported_rank(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps(
                {
                    "sigma": {"rank": 7, "side": "N", "generators": []},
                    "set": {"type": "tentacle", "v": ["1"] * 7},
                }
            )
        )
        code, _, err = run_cli(["bounded", "--input", str(path)])
        assert code == 2

    def test_missing_input(self):
        code, _, err = run_cli(["bounded"])
        assert code == 2
        assert "no input" in err

    @pytest.mark.parametrize("corpus", ["strip", "example3"])
    def test_unwritable_output(self, tmp_path, corpus):
        # strip succeeds; example3 is Inconclusive, whose report is written too
        target = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(["bounded", "--corpus", corpus, "--output", str(target)])
        assert code == 2 and out == ""
        assert f"cannot write {target}" in err
        assert "Traceback" not in err

    def test_stability_rejects_basic_sets(self):
        code, _, err = run_cli(["stability", "--corpus", "example3"])
        assert code == 2
        assert "binomial or tentacle" in err

    @pytest.mark.parametrize(
        "rank, box, code", [(2, 64, 0), (2, 65, 2), (2, -1, 2), (3, 12, 0), (3, 13, 2)]
    )
    def test_box_limit(self, tmp_path, rank, box, code):
        # the ray through (1, ..., 1) keeps the coverage check at the limit short
        path = tmp_path / "ray.json"
        path.write_text(json.dumps({"rank": rank, "side": "M", "generators": [["1"] * rank]}))
        got, _, err = run_cli(["hilbert", "--input", str(path), "--box", str(box)])
        assert got == code, err
        if code:
            assert "MAX_BOX_POINTS = 16641" in err

    @pytest.mark.parametrize(
        "command, corpus, nmax, code",
        [
            ("filtration", "strip", 100, 0),
            ("filtration", "strip", 101, 2),
            ("filtration", "strip", -1, 2),
            ("stability", "tentacle-diag", 101, 2),
        ],
    )
    def test_nmax_limit(self, command, corpus, nmax, code):
        got, _, err = run_cli([command, "--corpus", corpus, "--nmax", str(nmax)])
        assert got == code, err
        if code:
            assert "MAX_NMAX = 100" in err

    @pytest.mark.parametrize("count, code", [(32, 0), (33, 2)])
    def test_grid_limit(self, count, code):
        # +-k and +-1/(k+1) for k = 1, 2, ..., cut to `count` distinct values
        vals = [f"{s}{x}" for k in range(1, count) for x in (k, f"1/{k + 1}") for s in "-+"]
        grid = "--grid=" + ",".join(vals[:count])
        got, out, err = run_cli(["tc-check", "--corpus", "example3", grid])
        assert got == code, err
        if code:
            assert "MAX_GRID_VALUES = 32" in err and out == ""
        else:
            assert json.loads(out)["status"] == "Violated"

    @pytest.mark.parametrize("spec", ["-1,1", "-1/2,1"])
    def test_grid_value_may_begin_with_minus(self, spec):
        joined = run_cli(["tc-check", "--corpus", "example3", f"--grid={spec}"])
        assert joined[0] == 0, joined[2]
        assert run_cli(["tc-check", "--corpus", "example3", "--grid", spec]) == joined

    @pytest.mark.parametrize("spec", ["a,1", ",", "1/0"])
    def test_malformed_grid(self, spec):
        code, out, err = run_cli(["tc-check", "--corpus", "example3", "--grid", spec])
        assert code == 2 and out == ""
        assert "grid" in err and "Traceback" not in err

    def test_surface_classify_rejects_singular_fan(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(
            json.dumps(
                {"fan": {"rays": [["1", "0"], ["-1", "2"], ["0", "-1"]]}, "T": [["1", "0"]]}
            )
        )
        code, _, err = run_cli(["surface-classify", "--input", str(path)])
        assert code == 2
        assert "resolve-fan" in err

    def test_complete_flag_must_be_boolean(self, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"rays": [["1", "0"], ["0", "1"], ["-1", "-1"]], "complete": "false"}))
        code, out, err = run_cli(["resolve-fan", "--input", str(path)])
        assert code == 2 and out == ""
        assert "$.complete: expected bool, got str" in err


class TestBoxCoverage:
    def test_one_cone_for_all_points(self, monkeypatch):
        from toricbound.cones import RationalCone
        from toricbound.hilbert import hilbert_basis

        cone = RationalCone.from_generators([(1, 0), (1, 2)], 2, "M")
        basis = hilbert_basis(cone)
        built = []
        for name in ("from_generators", "from_inequalities"):
            original = getattr(RationalCone, name)

            def counting(*args, original=original, **kwargs):
                built.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(RationalCone, name, staticmethod(counting))
        cli._verify_box_coverage(cone, basis, 22)
        assert 1 <= len(built) <= 2


class TestDeterminism:
    def test_byte_identical_runs(self):
        for name in ("strip", "example3", "tentacle-diag"):
            entry = cli.corpus_entry(name)
            args = [entry["command"], "--corpus", name]
            first = run_cli(args)
            second = run_cli(args)
            assert first == second

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(["bounded", "--corpus", "strip", "--output", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["generators"] == [["1", "0"]]

    def test_custom_grid(self):
        code, out, _ = run_cli(["tc-check", "--corpus", "example3", "--grid", "1,-1,2,-2,1/2,-1/2"])
        assert code == 0
        assert json.loads(out)["status"] == "Violated"


# the commands a corpus input may be given to, with the options they take
FUZZ_COMMANDS = {
    "problem": ["bounded", "ksets", "adapted-fan", "tc-check", "filtration", "stability"],
    "surface-classify": ["surface-classify"],
    "hilbert": ["hilbert"],
    "inertia": ["inertia"],
}
FUZZ_VALUES = ["0", "1", "-1", "2", "-2", "3", "-3", "1/2", "-1/3", "x", "", "1/0", "2.5"]
FUZZ_GRIDS = ["1,-1", "1,-1,2,-2,1/2,-1/2", "0,1,3", "-1/3,2", "1,1", "1/0", "a"]


def _leaves(obj, path=()):
    """The paths of the string leaves of a JSON value."""
    if isinstance(obj, str):
        yield path
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, path + (i,))


def _replace(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replace(obj[path[0]], path[1:], value)
    return out


class TestFuzz:
    """Corpus inputs with a few coordinates, coefficients or entries replaced
    by small or malformed values, under small options: every run ends with
    exit 0, 2 or 3 and never with an exception."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_mutated_corpus_inputs(self, data):
        name = data.draw(st.sampled_from(cli.corpus_list()))
        entry = cli.corpus_entry(name)
        obj = entry["input"]
        leaves = list(_leaves(obj))
        for _ in range(data.draw(st.integers(0, 3))):
            obj = _replace(obj, data.draw(st.sampled_from(leaves)), data.draw(st.sampled_from(FUZZ_VALUES)))
        kind = "problem" if entry["command"] in FUZZ_COMMANDS["problem"] else entry["command"]
        command = data.draw(st.sampled_from(FUZZ_COMMANDS.get(kind, [entry["command"]])))
        args = [command, "--input", "-"]
        if command in ("filtration", "stability"):
            args += ["--nmax", str(data.draw(st.integers(0, 4)))]
        if command in ("tc-check", "bounded", "filtration") and data.draw(st.booleans()):
            args += ["--grid", data.draw(st.sampled_from(FUZZ_GRIDS))]
        old_in = sys.stdin
        sys.stdin = io.StringIO(json.dumps(obj))
        try:
            code, _, err = run_cli(args)
        finally:
            sys.stdin = old_in
        assert code in (0, 2, 3), (args, obj, err)
