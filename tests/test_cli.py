import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import twinskein
from twinskein.cli import main

FIX = str(resources.files("twinskein") / "fixtures")


@pytest.fixture
def one_crossing_twin(tmp_path):
    """A single arc-loop crossing, which the engine switches back and forth
    until the depth budget runs out."""
    f = tmp_path / "one_crossing.twin"
    f.write_text("twin { arc A: O1+ ; arc B: ; loop T: U1+ ; }\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, *argv) -> str:
    """Run a command line the parser refuses; its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, out, _ = run(capsys, "validate", f"{FIX}/tw_std.twin")
        assert code == 0
        assert out.strip() == "ok"

    def test_role_pairing_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.twin"
        bad.write_text("twin { arc A: O1+ ; arc B: ; }\n")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "role-pairing" in out

    @pytest.mark.parametrize("command", ["validate", "invariant"])
    @pytest.mark.parametrize("text", [
        "twin { arc A: O\u00b2+ U2+ ; arc B: ; }\n",
        "twin { arc A: ; arc B: ; loop T: (0, \u00b2/1) ; }\n",
    ], ids=["passage", "surgery"])
    def test_superscript_digit_is_a_parse_error(self, capsys, tmp_path,
                                                command, text):
        f = tmp_path / "sup.twin"
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, command, str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: ")
        assert "(line 1, column" in err

    def test_conflicting_sign_tokens_are_a_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.twin"
        bad.write_text("twin { arc A: O1+ U1- ; arc B: ; }\n")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert out == "crossing-sign: crossing 1 has sign 0; a sign is +1 " \
                      "or -1 @ crossing 1\n"
        assert err == ""

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.twin")
        assert code == 2

    def test_syntax_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.twin"
        bad.write_text("twin { arc A }")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "line" in err


class TestInvariant:
    def test_standard(self, capsys):
        code, out, _ = run(capsys, "invariant", f"{FIX}/tw_std.twin")
        assert code == 0
        assert out.strip() == "1"

    def test_tw_giller(self, capsys):
        code, out, _ = run(capsys, "invariant", f"{FIX}/tw_giller.twin")
        assert code == 0
        assert out.strip() == "t^-2 - 1 + t^2"

    def test_tw_unknot_pair(self, capsys):
        code, out, _ = run(capsys, "invariant", f"{FIX}/tw_unknot_pair.twin")
        assert code == 0
        assert out.strip() == "t^-2 - 1 + t^2"

    def test_stats_on_stderr(self, capsys):
        _, _, err = run(capsys, "invariant", f"{FIX}/tw_giller.twin")
        assert "nodes=" in err

    def test_trace_json(self, capsys):
        code, out, _ = run(capsys, "invariant", f"{FIX}/tw_giller.twin",
                           "--trace", "json")
        lines = out.splitlines()
        assert lines[0] == "t^-2 - 1 + t^2"
        data = json.loads("\n".join(lines[1:]))
        assert data["crossing_sign"] == 1
        assert len(data["children"]) == 2

    def test_trace_dot_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "trace.dot"
        code, out, _ = run(capsys, "invariant", f"{FIX}/tw_giller.twin",
                           "--trace", "dot", "--trace-out", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("digraph skein {")

    def test_trace_out_without_trace_is_refused(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, out, err = run(capsys, "invariant", f"{FIX}/tw_giller.twin",
                             "--trace-out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --trace-out needs --trace")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["invariant", "validate"])
    def test_non_utf8_input_is_an_io_error(self, capsys, tmp_path, command):
        f = tmp_path / "x.twin"
        f.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, command, str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: 'utf-8' codec can't decode")

    def test_unresolved_exit(self, capsys, tmp_path):
        f = tmp_path / "pairwise.twin"
        f.write_text("twin { arc A: O1+ U2+ ; arc B: O2+ U1+ ; }\n")
        code, out, _ = run(capsys, "invariant", str(f))
        assert code == 1
        assert out.startswith("unresolved: no-eligible-crossing")

    def test_unresolved_run_still_emits_its_trace(self, capsys, tmp_path,
                                                  one_crossing_twin):
        argv = ("invariant", one_crossing_twin, "--depth", "8",
                "--trace", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        first, rest = out.split("\n", 1)
        assert first == "unresolved: depth-budget-exceeded"
        node = json.loads(rest)
        while node["children"]:
            node = node["children"][0]["node"]
        assert node["terminal"] == "unresolved"
        assert node["reason"] == "depth-budget-exceeded"

        out_path = tmp_path / "trace.json"
        code, out, _ = run(capsys, *argv, "--trace-out", str(out_path))
        assert code == 1
        assert out == first + "\n"
        assert json.loads(out_path.read_text()) == json.loads(rest)

    def test_surgery_label_refused(self, capsys, tmp_path):
        f = tmp_path / "labelled.twin"
        f.write_text("twin { arc A: ; arc B: ; loop T: (2, 1/3) ; }\n")
        code, _, err = run(capsys, "invariant", str(f))
        assert code == 1
        assert "surgery" in err

    def test_multiplier_override(self, capsys):
        code, out, _ = run(capsys, "invariant", f"{FIX}/tw_giller.twin",
                           "--multiplier", "1")
        assert code == 0
        assert out.strip() != "t^-2 - 1 + t^2"

    def test_spun_trefoil_read_from_stdin(self, capsys, monkeypatch):
        # the README pipeline: spin --knot 3_1 ... | invariant -
        code, spun, _ = run(capsys, "spin", "--knot", "3_1",
                            "--construction", "artin")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(spun))
        code, out, _ = run(capsys, "invariant", "-")
        assert code == 0
        assert out == "t^-2 - 1 + t^2\n"

    def test_no_memo_flag(self, capsys):
        code, out, _ = run(capsys, "invariant", f"{FIX}/tw_giller.twin",
                           "--no-memo")
        assert code == 0
        assert out.strip() == "t^-2 - 1 + t^2"

    def test_one_crossing_twin_may_stall(self, capsys, one_crossing_twin):
        # the switch 2-cycle is reported, not crashed
        code, out, _ = run(capsys, "invariant", one_crossing_twin)
        assert code == 1
        assert "depth-budget-exceeded" in out

    def test_strategy_flag_is_refused_by_the_parser(self, capsys):
        err = refused(capsys, "invariant", f"{FIX}/tw_giller.twin",
                      "--strategy", "first_eligible")
        assert "unrecognized arguments: --strategy" in err

    def test_depth_zero_is_a_config_error(self, capsys):
        code, out, err = run(capsys, "invariant", f"{FIX}/tw_giller.twin",
                             "--depth", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: depth_budget must be between 1 and")

    def test_zero_multiplier_is_a_config_error(self, capsys):
        code, _, err = run(capsys, "invariant", f"{FIX}/tw_giller.twin",
                           "--multiplier", "0")
        assert code == 2
        assert err.startswith("error: multiplier must be nonzero")

    def test_depth_ceiling(self, capsys, one_crossing_twin):
        # The stall runs the engine's recursion down to the ceiling without
        # exhausting the stack; deeper budgets are refused before any
        # evaluation.
        code, out, err = run(capsys, "invariant", one_crossing_twin,
                             "--depth", "256")
        assert code == 1
        assert "depth-budget-exceeded" in out
        assert "max_depth=256" in err
        for depth in ("257", "1000"):
            code, out, err = run(capsys, "invariant", one_crossing_twin,
                                 "--depth", depth)
            assert code == 2
            assert out == ""
            assert err.startswith(
                "error: depth_budget must be between 1 and 256")


class TestConway:
    def test_unknot(self, capsys):
        code, out, _ = run(capsys, "conway", "--knot", "unknot")
        assert code == 0
        assert out.splitlines() == ["1", "1"]

    def test_trefoil(self, capsys):
        code, out, _ = run(capsys, "conway", "--knot", "3_1")
        assert out.splitlines()[0] == "1 + z^2"
        assert out.splitlines()[1] == "u^-2 - 1 + u^2"

    def test_figure_eight(self, capsys):
        code, out, _ = run(capsys, "conway", "--knot", "4_1")
        assert out.splitlines()[0] == "1 - z^2"

    def test_unknown_knot(self, capsys):
        code, _, err = run(capsys, "conway", "--knot", "99_99")
        assert code == 1

    def test_file_and_knot_together_are_refused(self, capsys):
        err = refused(capsys, "conway", f"{FIX}/giller_ex.knot",
                      "--knot", "3_1")
        assert "argument --knot: not allowed with argument PATH" in err

    def test_file_or_knot_is_required(self, capsys):
        err = refused(capsys, "conway")
        assert "one of the arguments PATH --knot is required" in err


class TestSpin:
    def test_artin_unknot_writes_standard(self, capsys, tmp_path):
        out_path = tmp_path / "std.twin"
        code, _, _ = run(capsys, "spin", "--knot", "unknot",
                         "--construction", "artin", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == "twin { arc A: ; arc B: ; }\n"

    def test_closure_matches_tw_giller_fixture(self, capsys):
        code, out, _ = run(capsys, "spin", f"{FIX}/giller_ex.knot",
                           "--construction", "closure")
        assert code == 0
        with open(f"{FIX}/tw_giller.twin") as f:
            assert out == f.read()

    def test_connsum_output_validates(self, capsys, tmp_path):
        out_path = tmp_path / "cs.twin"
        code, _, _ = run(capsys, "spin", f"{FIX}/giller_ex.knot",
                         "--construction", "connsum", "--out", str(out_path))
        assert code == 0
        code2, out, _ = run(capsys, "validate", str(out_path))
        assert code2 == 0

    def test_artin_requires_knot(self, capsys):
        err = refused(capsys, "spin", "--construction", "artin")
        assert "one of the arguments PATH --knot is required" in err

    def test_closure_requires_a_path(self, capsys):
        err = refused(capsys, "spin", "--construction", "closure")
        assert "one of the arguments PATH --knot is required" in err

    def test_artin_cut_flag(self, capsys):
        code, out, _ = run(capsys, "spin", "--knot", "3_1",
                           "--construction", "artin", "--cut", "3")
        assert code == 0
        assert out.startswith("twin { arc A: U1+")

    @pytest.mark.parametrize("cut", ["99", "-1"])
    def test_artin_cut_out_of_range_is_a_config_error(self, capsys, cut):
        code, out, err = run(capsys, "spin", "--knot", "3_1",
                             "--construction", "artin", "--cut", cut)
        assert code == 2
        assert out == ""
        assert err == f"error: cut position {cut} out of range 0..6\n"

    @pytest.mark.parametrize("construction", ["closure", "connsum"])
    @pytest.mark.parametrize("flag,value", [("--cut", "0"), ("--knot", "3_1")])
    def test_artin_flag_without_artin_is_refused(self, capsys, construction,
                                                 flag, value):
        # the parser takes PATH or --knot, never both
        path = () if flag == "--knot" else (f"{FIX}/giller_ex.knot",)
        code, out, err = run(capsys, "spin", *path,
                             "--construction", construction, flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} applies only to --construction artin\n"

    def test_artin_with_a_path_is_refused(self, capsys):
        code, out, err = run(capsys, "spin", f"{FIX}/giller_ex.knot",
                             "--construction", "artin")
        assert code == 2
        assert out == ""
        assert err == "error: --construction artin takes --knot NAME, " \
                      "not a fixture path\n"

    def test_artin_unknown_knot_is_a_domain_failure(self, capsys):
        code, out, err = run(capsys, "spin", "--knot", "9_9",
                             "--construction", "artin", "--cut", "99")
        assert code == 1
        assert err.startswith("error: unknown knot '9_9'")


@pytest.mark.parametrize("command", ["conway", "spin"])
def test_usage_shows_that_one_source_is_required(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: twinskein {command} [-h] (PATH | --knot NAME)")


def test_cli_import_loads_no_dataclasses_or_inspect():
    src = str(Path(twinskein.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = Path(__file__).with_name("import_surface.py")
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


class TestCorpus:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run(capsys, "corpus", "--suite", "acceptance")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not
                 ln.startswith("result")]
        assert all(ln.startswith("PASS") for ln in lines)
        assert "ms" in lines[0]  # per-case elapsed time is reported

    def test_zero_multiplier_is_refused_before_any_case(self, capsys):
        err = refused(capsys, "corpus", "--multiplier", "0")
        assert "unrecognized arguments: --multiplier 0" in err

    def test_unknown_suite_is_refused_by_the_parser(self, capsys):
        assert "invalid choice: 'foo'" in refused(capsys, "corpus", "--suite",
                                                  "foo")
