import io
import json
import sys

import pytest

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


class TestReports:
    def test_inertia_MY(self):
        out = run_json(["inertia", "--corpus", "mondal-netzer-MY"])
        assert out["inertia"] == [0, 13, 1]

    def test_tc_check_example4(self):
        out = run_json(["tc-check", "--corpus", "example4"])
        assert out["status"] == "Violated"
        assert out["witness_ray"] == ["-1", "-1"]

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
