"""Command-line interface: exit codes, reports, determinism."""
import io
import json

import pytest

from symcomp.cli import main

Z_SCRIPT = """
vectors x, y;
let e = b(x.(x.y), y.(y.x)) - b(x,y)*b(x.y, y.x) + b(x,y)*q(x)*q(y);
let e = apply(e, rules1);
let e = apply(e, bsym, once);
assert_zero e;
"""

FAILING_SCRIPT = """
vectors x, y;
let e = b(x,y) - b(y,x);
assert_zero e;
"""


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_run_passing_script(tmp_path):
    path = tmp_path / "zero.scs"
    path.write_text(Z_SCRIPT)
    code, output = run_cli("run", str(path))
    assert code == 0
    assert "PASS" in output


def test_run_failing_script(tmp_path):
    path = tmp_path / "bad.scs"
    path.write_text(FAILING_SCRIPT)
    code, output = run_cli("run", str(path))
    assert code == 1
    assert "FAIL" in output


def test_run_malformed_script(tmp_path, capsys):
    path = tmp_path / "broken.scs"
    path.write_text("vectors x;\nlet e = b(x, );\n")
    code, _ = run_cli("run", str(path))
    assert code == 2
    assert "2:" in capsys.readouterr().err


def test_run_missing_file(capsys):
    code, _ = run_cli("run", "/nonexistent/script.scs")
    assert code == 2


def test_paper_single_session():
    code, output = run_cli("paper", "M")
    assert code == 0
    for label in (f"C{i}" for i in range(1, 11)):
        assert label in output


def test_paper_all():
    code, output = run_cli("paper", "--all")
    assert code == 0
    for name in ("L1", "L2", "Z1", "Z2", "Z3", "Z4", "M"):
        assert f"session {name}" in output


def test_paper_unknown_session(capsys):
    code, _ = run_cli("paper", "nope")
    assert code == 2
    assert "unknown session" in capsys.readouterr().err


def test_paper_json_schema():
    code, output = run_cli("paper", "Z1", "--json")
    assert code == 0
    payload = json.loads(output)
    assert payload["pass"] is True
    session = payload["sessions"][0]
    assert session["session"] == "Z1"
    assert session["checkpoints"][0]["label"] == "C1"


def test_oracle_pass():
    code, output = run_cli("oracle", "q(x.y) - q(x)*q(y)")
    assert code == 0
    assert output.startswith("pass")


def test_oracle_failure_reports_counterexample():
    code, output = run_cli("oracle", "q(x) - q(y)")
    assert code == 1
    assert "counterexample" in output


def test_oracle_single_trial():
    code, output = run_cli("oracle", "q(x.y) - q(x)*q(y)", "--trials", "1")
    assert code == 0
    assert "1 trials" in output


def test_oracle_file_input(tmp_path):
    path = tmp_path / "identity.expr"
    path.write_text("b(x,y) - b(y,x)\n")
    code, _ = run_cli("oracle", str(path))
    assert code == 0


def test_oracle_greek_names_are_scalars():
    code, _ = run_cli("oracle", "alpha*b(x,y) - alpha*b(y,x)")
    assert code == 0


def test_json_reports_byte_identical_for_same_seed():
    first = run_cli("oracle", "q(x) - q(y)", "--json", "--seed", "7")
    second = run_cli("oracle", "q(x) - q(y)", "--json", "--seed", "7")
    assert first == second
    third = run_cli("oracle", "q(x) - q(y)", "--json", "--seed", "8")
    assert third != first


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("SYMCOMP_SEED", "7")
    from_env = run_cli("oracle", "q(x) - q(y)", "--json")
    monkeypatch.delenv("SYMCOMP_SEED")
    explicit = run_cli("oracle", "q(x) - q(y)", "--json", "--seed", "7")
    assert from_env == explicit


def test_explicit_seed_beats_env(monkeypatch):
    monkeypatch.setenv("SYMCOMP_SEED", "7")
    explicit = run_cli("oracle", "q(x) - q(y)", "--json", "--seed", "8")
    monkeypatch.delenv("SYMCOMP_SEED")
    plain = run_cli("oracle", "q(x) - q(y)", "--json", "--seed", "8")
    assert explicit == plain


def test_verbose_prints_intermediates(tmp_path):
    path = tmp_path / "zero.scs"
    path.write_text(Z_SCRIPT)
    code, output = run_cli("run", str(path), "--verbose")
    assert code == 0
    assert "e = " in output


def test_run_script_with_goldens(tmp_path):
    (tmp_path / "goldens").mkdir()
    (tmp_path / "goldens" / "merged.expr").write_text("2*b(x,y)\n")
    (tmp_path / "goldens" / "m.json").write_text(
        '{"vars": ["alpha", "beta"],'
        ' "rows": [["q(x)", "0"], ["0", "b(x,y)"]]}\n')
    path = tmp_path / "gold.scs"
    path.write_text("""
    scalars alpha, beta;
    vectors x, y;
    let e = b(x,y) + b(x,y);
    assert_equal e, @merged;
    let f = q(x) + alpha*beta*b(x,y);
    let m = coeffmatrix(f, [alpha, beta]);
    assert_matrix m, @m;
    """)
    code, output = run_cli("run", str(path))
    assert code == 0, output


def test_run_script_missing_golden(tmp_path, capsys):
    path = tmp_path / "missing.scs"
    path.write_text("vectors x, y;\nlet e = b(x,y);\nassert_equal e, @nope;\n")
    code, _ = run_cli("run", str(path))
    assert code == 2
    assert "missing golden" in capsys.readouterr().err


@pytest.mark.parametrize("rule, message", [
    ("(X.Y).X -> q(X)", "rule r#1 must rewrite a dot-word to a vector value"),
    ("q(X) -> X", "rule r#1 must rewrite an atom to a scalar value"),
])
def test_run_script_rule_with_wrong_sort_replacement(tmp_path, capsys, rule, message):
    path = tmp_path / "sort.scs"
    path.write_text(f"vectors x, y;\nrule r: {rule};\n"
                    "let e = q((x.y).x);\nlet f = apply(e, r, once);\n")
    code, _ = run_cli("run", str(path))
    assert code == 2
    assert message in capsys.readouterr().err
