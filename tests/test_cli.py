import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from dmt.cli import run
from dmt.engine import MAX_FREE_ITEMS
from dmt.semantics import load_model, holds_at
from dmt.syntax import parse_formula, render_formula
from conftest import FIXTURES
from test_syntax import formulas

FIG3 = str(FIXTURES / "figure3.json")
KB = str(FIXTURES / "powerplant.kb")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValid:
    def test_box_implies_defbox(self, capsys):
        code, out, _ = invoke(capsys, "valid", "[a]p -> [[a]]p")
        assert out == "VALID\n" and code == 0

    def test_invalid_with_countermodel_file(self, capsys, tmp_path):
        target = tmp_path / "cm.json"
        code, out, _ = invoke(capsys, "valid",
                              "[[a]](p -> q) -> ([a]p -> [a]q)",
                              "--countermodel-out", str(target))
        assert out == "INVALID\n" and code == 1
        model = load_model(target)
        assert not holds_at(model, "n0",
                            parse_formula("[[a]](p -> q) -> ([a]p -> [a]q)"))

    def test_trace(self, capsys):
        code, out, _ = invoke(capsys, "valid", "[a]p -> [[a]]p", "--trace")
        lines = out.splitlines()
        assert lines[-1] == "VALID"
        assert any("@ 0 ::" in line for line in lines)


class TestSat:
    def test_unsat(self, capsys):
        code, out, _ = invoke(capsys, "sat", "p & ~p")
        assert out == "UNSAT\n" and code == 1

    def test_sat_with_model_out(self, capsys, tmp_path):
        target = tmp_path / "m.json"
        code, out, _ = invoke(capsys, "sat", "[[a]]p & ~[a]p",
                              "--model-out", str(target))
        assert out == "SAT\n" and code == 0
        model = load_model(target)
        assert holds_at(model, "n0", parse_formula("[[a]]p & ~[a]p"))


class TestCheck:
    def test_globally(self, capsys):
        code, out, _ = invoke(capsys, "check", "~p -> [[f]]p",
                              "--model", FIG3, "--global")
        assert out == "HOLDS (globally)\n" and code == 0

    def test_globally_fails(self, capsys):
        code, out, _ = invoke(capsys, "check", "p", "--model", FIG3)
        assert out == "FAILS (globally)\n" and code == 1

    def test_at_world(self, capsys):
        code, out, _ = invoke(capsys, "check", "[[m]]false",
                              "--model", FIG3, "--at", "w1")
        assert out == "HOLDS (at w1)\n" and code == 0
        code, out, _ = invoke(capsys, "check", "[[m]]false",
                              "--model", FIG3, "--at", "w4")
        assert out == "FAILS (at w4)\n" and code == 1

    def test_conditional(self, capsys):
        code, out, _ = invoke(capsys, "check", "true |~ p & c",
                              "--model", FIG3)
        assert out == "HOLDS (conditional)\n" and code == 0
        code, out, _ = invoke(capsys, "check", "p |~ [f]p", "--model", FIG3)
        assert out == "FAILS (conditional)\n" and code == 1

    def test_unknown_world(self, capsys):
        code, _, err = invoke(capsys, "check", "p", "--model", FIG3,
                              "--at", "w9")
        assert code == 2 and "w9" in err

    def test_empty_world_name(self, capsys):
        code, out, err = invoke(capsys, "check", "p", "--model", FIG3,
                                "--at", "")
        assert code == 2 and out == "" and "unknown world ''" in err
        code, out, err = invoke(capsys, "check", "p |~ c", "--model", FIG3,
                                "--at", "")
        assert code == 2 and out == "" and "--at does not apply" in err


class TestEntails:
    def test_power_plant(self, capsys):
        code, out, _ = invoke(capsys, "entails", "p -> [[f]]~h", "--kb", KB)
        assert out.startswith("ENTAILED") and code == 0

    def test_not_entailed(self, capsys, tmp_path):
        target = tmp_path / "cm.json"
        code, out, _ = invoke(capsys, "entails", "h", "--kb", KB,
                              "--countermodel-out", str(target))
        assert out.startswith("NOT-ENTAILED") and code == 1
        assert target.exists()

    def test_kb_syntax_error_position(self, capsys, tmp_path):
        kb = tmp_path / "bad.kb"
        kb.write_text("p\n    q & ?\n")
        code, out, err = invoke(capsys, "entails", "p", "--kb", str(kb))
        assert code == 2 and out == ""
        assert err == (f"error: cannot load knowledge base: {kb}:2:9: "
                       f"unexpected character '?'\n")

    def test_kb_nested_too_deeply(self, capsys, tmp_path):
        kb = tmp_path / "deep.kb"
        kb.write_text("# one formula\n" + "~" * 5000 + "p\n")
        code, out, err = invoke(capsys, "entails", "p", "--kb", str(kb))
        assert code == 2 and out == ""
        assert err == (f"error: cannot load knowledge base: {kb}:2: "
                       f"formula nested too deeply\n")


    def test_free_items_over_the_cap(self, capsys, tmp_path):
        kb = tmp_path / "wide.kb"
        kb.write_text(" | ".join(f"p{j}" for j in range(MAX_FREE_ITEMS + 1)))
        code, out, err = invoke(capsys, "entails", "p0", "--kb", str(kb))
        assert code == 3 and out == ""
        assert err.startswith("resource limit: ")

    def test_countermodel_file_is_deterministic(self, tmp_path):
        # formulas hash by address, so a run that walked a set would
        # number the types, and name the worlds, differently
        files = []
        for seed in ("1", "2"):
            target = tmp_path / f"cm{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(FIXTURES.parent / "src"))
            run = subprocess.run(
                [sys.executable, "-m", "dmt.cli", "entails", "h", "--kb", KB,
                 "--countermodel-out", str(target)],
                env=env, capture_output=True, text=True, timeout=60)
            assert run.returncode == 1, run.stderr
            files.append(target.read_bytes())
        assert files[0] == files[1]


class TestOracleSat:
    def test_sat(self, capsys):
        code, out, _ = invoke(capsys, "oracle-sat", "p", "--max-worlds", "1")
        assert out.startswith("SAT") and code == 0

    def test_unsat(self, capsys):
        code, out, _ = invoke(capsys, "oracle-sat", "p & ~p",
                              "--max-worlds", "2")
        assert out.startswith("UNSAT") and code == 1

    def test_max_worlds_above_hard_cap(self, capsys):
        code, out, err = invoke(capsys, "oracle-sat", "p & ~p",
                                "--max-worlds", "4")
        assert code == 2 and out == "" and "hard cap 3" in err


class TestPlumbing:
    def test_formula_from_file(self, capsys, tmp_path):
        source = tmp_path / "f.txt"
        source.write_text("# a tautology\np | ~p\n")
        code, out, _ = invoke(capsys, "valid", f"@{source}")
        assert out == "VALID\n" and code == 0

    def test_malformed_formula(self, capsys):
        code, _, err = invoke(capsys, "valid", "p &")
        assert code == 2 and "malformed" in err

    def test_malformed_model(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"worlds": []}))
        code, _, err = invoke(capsys, "check", "p", "--model", str(bad))
        assert code == 2

    def test_malformed_preference_entry(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"worlds": ["a"], "preference": [1]}))
        code, out, err = invoke(capsys, "check", "p", "--model", str(bad))
        assert code == 2 and out == "" and "preference" in err

    def test_model_nested_too_deeply(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = invoke(capsys, "check", "p", "--model", str(deep))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot load model {deep}: ")

    @pytest.mark.parametrize("argv", [
        ("sat", "p", "--model-out"),
        ("valid", "p", "--countermodel-out"),
        ("entails", "h", "--kb", KB, "--countermodel-out"),
        ("oracle-sat", "p", "--max-worlds", "1", "--model-out"),
    ], ids=["sat", "valid", "entails", "oracle-sat"])
    def test_unwritable_model_path(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "m.json"
        code, out, err = invoke(capsys, *argv, str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write model {target}: ")
        # an empty path names no file either
        code, out, err = invoke(capsys, *argv, "")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write model : ")

    @pytest.mark.parametrize("command, text", [
        ("sat", "~" * 5000 + "p"),
        ("oracle-sat", "~" * 5000 + "p"),
        # parsed by a loop, so the depth reaches the evaluators
        ("oracle-sat", " & ".join(["p"] * 5000)),
    ], ids=["sat-not", "oracle-sat-not", "oracle-sat-and"])
    def test_deep_nesting(self, capsys, tmp_path, command, text):
        source = tmp_path / "deep.txt"
        source.write_text(text)
        argv = [command, f"@{source}"]
        if command == "oracle-sat":
            argv += ["--max-worlds", "1"]
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: formula nested too deeply\n"

    def test_rule_app_limit_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DMT_MAX_RULE_APPS", "1")
        code, _, err = invoke(capsys, "valid",
                              "[[a]](p -> q) -> ([a]p -> [a]q)")
        assert code == 3 and "limit" in err

    def test_deterministic_output(self, capsys):
        args = ("valid", "[[a]](p | q) -> ([[a]]p | [[a]]q)", "--trace")
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second


# ---------------------------------------------------------------------------
# The exit-code contract on arbitrary input

COMMANDS = [("sat",), ("valid",), ("oracle-sat", "--max-worlds", "2"),
            ("check", "--model", FIG3)]
TOKENS = ["p", "q", "a", "true", "false", "~", "&", "|", "->", "<->", "|~",
          "[a]", "[[b]]", "<a>", "<<b>>", "[", "]", "<", ">", "(", ")", " "]
texts = st.one_of(formulas.map(render_formula),
                  st.lists(st.sampled_from(TOKENS), max_size=12).map("".join))


@given(st.sampled_from(COMMANDS), texts)
@settings(max_examples=200, deadline=None)
def test_exit_code_contract(command, text):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = run([command[0], text, *command[1:]])
    assert code in (0, 1, 2, 3)
