import json

import pytest

from dmt.cli import run
from dmt.semantics import load_model, holds_at
from dmt.syntax import parse_formula
from conftest import FIXTURES

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
