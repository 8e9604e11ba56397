"""Command-line interface: exit codes, reports, determinism."""
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from symcomp import check_identity, rules
from symcomp.cli import main
from symcomp.errors import SymcompError
from symcomp.parser import parse_script, tokenize
from symcomp.sessions import _data_dir, run_session

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


DATA = Path(__file__).parent / "data"
# Each line is a recorded failing report's name and its identity.
RECORDED_REPORTS = dict(line.split(" ", 1) for line in
                        (DATA / "oracle_reports.txt").read_text(encoding="utf-8").splitlines())


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


def test_run_json_prints_the_session_report(tmp_path):
    path = tmp_path / "zero.scs"
    path.write_text(Z_SCRIPT)
    code, output = run_cli("run", "--json", str(path))
    report = run_session(parse_script(Z_SCRIPT, "zero"))
    assert report.passed and code == 0
    assert output == json.dumps(report.to_jsonable(), indent=2) + "\n"


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


def test_paper_all_text_matches_the_reference():
    reference = (Path(__file__).parent.parent / "perfbench" / "reference"
                 / "paper_all.txt").read_text(encoding="utf-8")
    assert run_cli("paper", "--all") == (0, reference)


def test_paper_all_json_replayed_twice_matches_the_reference():
    # The first replay fills the engine cache from empty; the second runs
    # every rewrite on the memos the first one kept.
    reference = (Path(__file__).parent.parent / "perfbench" / "reference"
                 / "paper_all.json").read_text(encoding="utf-8")
    rules._memo.cache_clear()
    for _ in range(2):
        assert run_cli("paper", "--all", "--json") == (0, reference)


def test_paper_unknown_session(capsys):
    code, _ = run_cli("paper", "nope")
    assert code == 2
    assert "unknown session" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["NOPE", "M"])
def test_paper_name_with_all_is_an_error(capsys, name):
    code, output = run_cli("paper", name, "--all")
    assert code == 2 and output == ""
    assert ("symcomp: error: give a session name or --all, not both"
            in capsys.readouterr().err)


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


def test_oracle_text_reports_byte_for_byte():
    # The status, the checked value as printed, the trial count and, on a
    # failure, the counterexample as one line of JSON: for each recorded
    # failure, what its JSON report says.
    assert run_cli("oracle", "--seed", "42", "q(x.y) - q(x)*q(y)") == (
        0, "pass: q(x.y) - q(x)*q(y) on 100 trials\n")
    for name, identity in RECORDED_REPORTS.items():
        recording = json.loads((DATA / f"oracle_report_{name}.json").read_text(encoding="utf-8"))
        assert run_cli("oracle", "--seed", "42", identity) == (
            1, f"FAIL: {recording['identity']} on {recording['trials']} trials\n"
               f"counterexample: {json.dumps(recording['counterexample'])}\n"), name


def test_a_failing_oracle_check_shows_the_oracle_counterexample(tmp_path):
    # A session's oracle checkpoint and `symcomp oracle` write one JSON.
    path = tmp_path / "scalars.scs"
    path.write_text("scalars alpha, beta, lambda;\nvectors x, y, z;\n"
                    f"let e = {RECORDED_REPORTS['scalars']};\noracle_check e;\n")
    code, output = run_cli("run", "--json", "--seed", "42", str(path))
    (checkpoint,) = json.loads(output)["checkpoints"]
    _, text = run_cli("oracle", "--seed", "42", RECORDED_REPORTS["scalars"])
    assert code == 1
    assert text.splitlines()[1] == f"counterexample: {checkpoint['actual']}"


def test_oracle_failure_reports_counterexample():
    code, output = run_cli("oracle", "q(x) - q(y)")
    assert code == 1
    assert "counterexample" in output


def test_oracle_single_trial():
    code, output = run_cli("oracle", "q(x.y) - q(x)*q(y)", "--trials", "1")
    assert code == 0
    assert "1 trials" in output


def test_trial_count_is_bounded(capsys, tmp_path, xy):
    # One check, one message: the library, the CLI and a script (at the number).
    message = "trials must be between 1 and 10000, got 10001"
    with pytest.raises(SymcompError) as err:
        check_identity(xy.canon("q(x) - q(x)"), 10001, 42)
    assert str(err.value) == message
    code, _ = run_cli("oracle", "q(x.y) - q(x)*q(y)", "--trials", "10001")
    assert code == 2
    assert capsys.readouterr().err == f"symcomp: error: {message}\n"
    path = tmp_path / "many.scs"
    path.write_text("vectors x;\nlet e = q(x) - q(x);\noracle_check e, trials=10001;\n")
    code, _ = run_cli("run", str(path))
    assert code == 2
    assert capsys.readouterr().err == f"symcomp: error: 3:24: {message}\n"


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


def test_run_script_assert_equal_across_sorts_is_an_error(tmp_path, capsys):
    path = tmp_path / "sorts.scs"
    path.write_text("vectors x, y;\nlet e = q(x);\nassert_equal e, x.y;\n")
    code, _ = run_cli("run", str(path))
    assert code == 2
    assert "cannot compare scalar and vector values" in capsys.readouterr().err


def test_run_script_missing_golden(tmp_path, capsys):
    path = tmp_path / "missing.scs"
    path.write_text("vectors x, y;\nlet e = b(x,y);\nassert_equal e, @nope;\n")
    code, _ = run_cli("run", str(path))
    assert code == 2
    assert "missing golden" in capsys.readouterr().err


@pytest.mark.parametrize("present, tail, message", [
    ("g.json", "assert_equal e, @g;", "5:1: session kinds: missing golden @g: "
     "no expression golden g.expr under {goldens}"),
    ("g.json", "assert_factored e, @g;", "5:1: session kinds: missing golden @g: "
     "no expression golden g.expr under {goldens}"),
    ("g.expr", "assert_matrix m, @g;", "5:1: session kinds: missing golden @g: "
     "no matrix golden g.json under {goldens}"),
], ids=["equal-with-only-json", "factored-with-only-json", "matrix-with-only-expr"])
def test_run_script_reads_the_golden_suffix_of_its_assertion(tmp_path, capsys, present, tail,
                                                              message):
    goldens = tmp_path / "goldens"
    goldens.mkdir()
    (goldens / present).write_text(
        "alpha*q(x) + beta*q(x)\n" if present == "g.expr"
        else '{"vars": ["alpha", "beta"], "rows": [["0", "q(x)"], ["q(x)", "0"]]}\n')
    path = tmp_path / "kinds.scs"
    path.write_text(KINDS_SCRIPT + tail + "\n")
    code, output = run_cli("run", str(path))
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == f"symcomp: error: {message.format(goldens=goldens)}\n"


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


def _dot_chain(depth):
    # ((x).y).y ... with `depth` nested parentheses
    return "(" * depth + "x" + ").y" * depth


@pytest.mark.parametrize("source, column", [
    ("(" * 3000 + "x" + ")" * 3000, 101),
    ("q(" * 600 + "x" + ")" * 600, 201),
    (_dot_chain(300), 101),
], ids=["parentheses", "q", "dot-chain"])
def test_oracle_deep_nesting_is_a_parse_error(capsys, source, column):
    code, _ = run_cli("oracle", source)
    assert code == 2
    err = capsys.readouterr().err
    assert f"1:{column}: expression nested more than 100 levels deep" in err


def test_oracle_long_power_chain_is_one_power():
    chain = "q(x)" + "^2" * 1500
    code, output = run_cli("oracle", f"{chain} - {chain}")
    assert code == 0, output
    assert output.startswith("pass: 0 on 100 trials")
    code, output = run_cli("oracle", "q(x)^2^3 - q(x)^6", "--trials", "3")
    assert code == 0, output


def test_oracle_power_of_a_sum_is_an_error(capsys):
    start = time.perf_counter()
    code, _ = run_cli("oracle", "(lambda+1)^3000 - (lambda+1)^3000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert ("symcomp: error: 1:11: power 3000 of a sum exceeds the bound 256"
            in capsys.readouterr().err)


@pytest.mark.parametrize("source, caret, size", [
    ("(alpha+beta+lambda)^128", "1:20", 8385),
    ("(alpha+beta+lambda+mu)^48", "1:23", 20825),
])
def test_oracle_power_of_a_wide_sum_is_an_error(capsys, source, caret, size):
    start = time.perf_counter()
    code, _ = run_cli("oracle", source)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"symcomp: error: {caret}: power ")
    assert f"has up to {size} terms, over the bound 4096" in err


def test_oracle_product_of_wide_powers_is_an_error(capsys):
    # Each factor (2145 terms) is under MAX_POWER_TERMS; their product did
    # the work of the rejected (alpha+beta+lambda)^128 and took 11 s.
    power = "(alpha+beta+lambda)^64"
    start = time.perf_counter()
    code, _ = run_cli("oracle", f"{power}*{power} - {power}*{power}")
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert capsys.readouterr().err == (
        "symcomp: error: 1:1: product of 2145 and 2145 terms has 4601025 term pairs, "
        "over the bound 1048576\n")


def test_oracle_bounds_the_exponent_of_a_monomial(capsys):
    # canonicalize keeps a monomial's power unbounded; a trial would raise
    # q(x)'s value to it and never finish.
    start = time.perf_counter()
    code, _ = run_cli("oracle", "q(x)^99999999999999999999")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert ("symcomp: error: exponent 99999999999999999999 exceeds the oracle's bound 256"
            in capsys.readouterr().err)


def test_nesting_at_the_bound_still_parses():
    from symcomp.parser import MAX_NESTING, parse_expr
    for source in ("(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
                   "q(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
                   "b(x," * MAX_NESTING + "x" + ")" * MAX_NESTING):
        parse_expr(source)
    chain = _dot_chain(MAX_NESTING)
    code, output = run_cli("oracle", f"{chain} - {chain}", "--trials", "3")
    assert code == 0, output


@pytest.mark.parametrize("source, where", [
    ("q(x) + x", "1:1: cannot add scalar and vector values"),
    ("x*y", "1:3: vector*vector is not defined"),
    ("x^2", "1:2: powers apply to scalar expressions only"),
    ("alpha.x", "1:6: dot product requires vector operands"),
    ("x.alpha", "1:2: dot product requires vector operands"),
    ("q(alpha)", "1:1: q applies to vector expressions"),
    ("b(alpha, x)", "1:1: b applies to vector expressions"),
    ("x + q(x)", "1:5: cannot add scalar and vector values"),
    ("alpha*x*y", "1:9: vector*vector is not defined; use the dot product"),
    ("(x.y)^2", "1:6: powers apply to scalar expressions only"),
], ids=["sum", "product", "power", "dot-left", "dot-right", "q", "b", "sum-second",
        "product-third", "power-of-dot"])
def test_oracle_sort_error_names_its_span(capsys, source, where):
    code, _ = run_cli("oracle", source)
    assert code == 2
    assert f"symcomp: error: {where}" in capsys.readouterr().err


@pytest.mark.parametrize("source, where", [
    ("q(x)^²", "1:6: unexpected character '²'"),
    ("²*q(x)", "1:1: unexpected character '²'"),
    ("7" * 5000 + "*q(x)", "1:1: integer literal of 5000 digits is too long"),
    ("x²", "1:2: unexpected character '²'"),
], ids=["superscript-exponent", "superscript-factor", "over-conversion-limit",
        "superscript-identifier"])
def test_oracle_bad_number_is_a_parse_error(capsys, source, where):
    code, _ = run_cli("oracle", source)
    assert code == 2
    assert f"symcomp: error: {where}" in capsys.readouterr().err


def test_oracle_coefficient_too_long_to_print_is_an_error(capsys):
    code, _ = run_cli("oracle", "99999^1000*q(x) - q(x)")
    assert code == 2
    assert "symcomp: error: coefficient too long to print" in capsys.readouterr().err


# A chain of carets folds into one exponent: 2^15000, of 4516 digits, past
# Python's integer-string conversion limit.
LONG_EXPONENT = "^2" * 15000


def test_oracle_exponent_too_long_to_print_is_an_error(capsys):
    code, _ = run_cli("oracle", f"alpha{LONG_EXPONENT}*x")
    assert code == 2
    assert capsys.readouterr().err == (
        "symcomp: error: exponent of 4516 digits exceeds the oracle's bound 256\n")


@pytest.mark.parametrize("flags, let, cause", [
    ((), f"(alpha+1){LONG_EXPONENT}", "2:18: power of 4516 digits of a sum exceeds the bound 256"),
    (("--verbose",), f"alpha{LONG_EXPONENT}", "exponent too long to print: 4516 digits"),
], ids=["power-of-a-sum", "verbose-print"])
def test_run_exponent_too_long_to_print_is_an_error(tmp_path, capsys, flags, let, cause):
    path = tmp_path / "s.scs"
    path.write_text(f"scalars alpha;\nlet e = {let};\n")
    code, _ = run_cli("run", *flags, str(path))
    assert code == 2
    assert capsys.readouterr().err == f"symcomp: error: 2:1: session s: {cause}\n"


def test_oracle_power_of_a_large_coefficient_is_an_error(capsys):
    start = time.perf_counter()
    code, _ = run_cli("oracle", "3^99999999999*x")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err == (
        "symcomp: error: 1:2: power 99999999999 of a 2-bit coefficient exceeds "
        "the bound of 1048576 bits\n")


@pytest.mark.parametrize("module", ["dataclasses", "importlib.resources", "inspect"])
def test_cli_import_leaves_out(module):
    # Records are slotted classes with generated constructors, and the
    # catalog is found by path: building dataclasses took about a fifth of
    # a cold `symcomp paper --all`, and importlib.resources pulled in
    # tempfile, zipfile and, on Python 3.12 and later, inspect.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = f"import sys, symcomp.cli; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                            text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.stdout == "False\n"


def test_paper_all_verbose_matches_recorded_trace():
    recorded = Path(__file__).parent / "data" / "paper_all_verbose.txt"
    code, output = run_cli("paper", "--all", "--verbose")
    assert code == 0
    assert output.encode("utf-8") == recorded.read_bytes()


# A script with an expression `e` and a coefficient matrix `m` of it; the
# golden `g` matches `m`, so a stale matrix would pass `assert_matrix`.
KINDS_SCRIPT = """scalars alpha, beta;
vectors x;
let e = alpha*q(x) + beta*q(x);
let m = coeffmatrix(e, [alpha, beta]);
"""


@pytest.mark.parametrize("tail, where", [
    ("let z = apply(m, rules1);", "5:15: 'm' is a coefficient matrix, not an expression"),
    ("let z = coeff(m, alpha);", "5:15: 'm' is a coefficient matrix, not an expression"),
    ("let z = m + e;", "5:9: 'm' is a coefficient matrix, not an expression"),
    ("assert_zero m;", "5:13: 'm' is a coefficient matrix, not an expression"),
    ("assert_matrix e, @g;", "5:15: 'e' is an expression, not a coefficient matrix"),
    ("let m = alpha;\nassert_matrix m, @g;",
     "6:15: 'm' is an expression, not a coefficient matrix"),
    ("let e = coeffmatrix(e, [alpha, beta]);\nlet z = e - q(x);",
     "6:9: 'e' is a coefficient matrix, not an expression"),
], ids=["apply-source", "coeff-source", "sum-operand", "assert-zero", "assert-matrix",
        "rebound-to-expression", "rebound-to-matrix"])
def test_run_script_name_of_the_wrong_kind_is_a_parse_error(tmp_path, capsys, tail, where):
    (tmp_path / "goldens").mkdir()
    (tmp_path / "goldens" / "g.json").write_text(
        '{"vars": ["alpha", "beta"], "rows": [["0", "q(x)"], ["q(x)", "0"]]}\n')
    path = tmp_path / "kinds.scs"
    path.write_text(KINDS_SCRIPT + tail + "\n")
    code, _ = run_cli("run", str(path))
    assert code == 2
    assert f"symcomp: error: {where}" in capsys.readouterr().err


@pytest.mark.parametrize("golden", [
    '{"rows": []}',
    "[]",
    '{"vars": "alpha", "rows": []}',
    '{"vars": ["alpha", "beta"], "rows": [["0", 1], ["q(x)", "0"]]}',
    '{"vars": ["alpha", "beta"], "rows": ["0", "q(x)"]}',
    "not json",
    '{"vars": ["alpha", "beta"], "rows": [["0", "q(x)"], ["q(x)", "0"]], "note": 7}',
], ids=["no-vars", "not-an-object", "vars-not-a-list", "entry-not-text", "row-not-a-list",
        "not-json", "note-not-text"])
def test_run_script_malformed_matrix_golden_is_an_error(tmp_path, capsys, golden):
    (tmp_path / "goldens").mkdir()
    (tmp_path / "goldens" / "bad.json").write_text(golden + "\n")
    path = tmp_path / "kinds.scs"
    path.write_text(KINDS_SCRIPT + "assert_matrix m, @bad;\n")
    code, _ = run_cli("run", str(path))
    assert code == 2
    assert "matrix golden @bad" in capsys.readouterr().err


@pytest.mark.parametrize("golden", [
    {"vars": ["beta", "alpha"], "rows": [["0", "q(x)"], ["q(x)", "0"]]},
    {"vars": ["alpha", "beta"], "rows": [["0", "q(x)"]]},
    {"vars": ["alpha", "beta"], "rows": [["0", "q(x)"], ["q(x)", "q(x)"]]},
], ids=["other-vars", "other-shape", "one-cell"])
def test_run_script_matrix_unlike_its_golden_fails(tmp_path, golden):
    (tmp_path / "goldens").mkdir()
    (tmp_path / "goldens" / "g.json").write_text(json.dumps(golden) + "\n")
    path = tmp_path / "kinds.scs"
    path.write_text(KINDS_SCRIPT + "assert_matrix m, @g;\n")
    code, output = run_cli("run", str(path))
    actual = {"vars": ["alpha", "beta"], "rows": [["0", "q(x)"], ["q(x)", "0"]]}
    assert code == 1
    assert output == (
        "session kinds\n"
        "  C1   matrix    FAIL\n"
        f"       expected: {json.dumps(golden, indent=2)}\n"
        f"       actual:   {json.dumps(actual, indent=2)}\n"
        "  => FAIL\n")


@pytest.mark.parametrize("kind", ["script", "oracle-file", "golden"])
def test_input_file_that_is_not_utf8_is_an_error(tmp_path, capsys, kind):
    script = tmp_path / "s.scs"
    script.write_text("vectors x;\nlet e = q(x) - q(x);\nassert_equal e, @g;\n")
    (tmp_path / "goldens").mkdir()
    bad = {"script": script, "oracle-file": tmp_path / "e.expr",
           "golden": tmp_path / "goldens" / "g.expr"}[kind]
    bad.write_bytes("q(x) - q(x)  # zéro\n".encode("latin-1"))
    code, output = run_cli(*(("oracle", str(bad)) if kind == "oracle-file"
                             else ("run", str(script))))
    assert (code, output) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("symcomp: error: ")
    assert f"{bad} is not UTF-8 text: invalid continuation byte at byte 16\n" in err


def test_run_script_golden_naming_a_matrix_is_an_error(tmp_path, capsys):
    (tmp_path / "goldens").mkdir()
    (tmp_path / "goldens" / "g.expr").write_text("q(x) + m\n")
    path = tmp_path / "kinds.scs"
    path.write_text(KINDS_SCRIPT + "assert_equal e, @g;\n")
    code, _ = run_cli("run", str(path))
    assert code == 2
    assert "undeclared identifier 'm'" in capsys.readouterr().err


def test_run_script_undeclared_name_in_golden_names_golden_and_span(tmp_path, capsys):
    (tmp_path / "goldens").mkdir()
    (tmp_path / "goldens" / "g.expr").write_text("q(x)\n  + w\n")
    path = tmp_path / "s.scs"
    path.write_text("vectors x;\nlet e = q(x);\nassert_equal e, @g;\n")
    code, output = run_cli("run", str(path))
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == (
        "symcomp: error: 3:1: session s: golden @g: 2:5: undeclared identifier 'w'\n")


def test_run_script_undeclared_name_in_matrix_cell_names_golden_and_cell(tmp_path, capsys):
    (tmp_path / "goldens").mkdir()
    (tmp_path / "goldens" / "mg.json").write_text(
        '{"vars": ["alpha", "beta"], "rows": [["0", "q(x)"], ["q(x)", "w"]]}\n')
    path = tmp_path / "kinds.scs"
    path.write_text(KINDS_SCRIPT + "assert_matrix m, @mg;\n")
    code, output = run_cli("run", str(path))
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == (
        "symcomp: error: 5:1: session kinds: golden @mg[1][1]: 1:1: undeclared identifier 'w'\n")


def test_run_script_looping_apply_names_its_line(tmp_path, capsys):
    path = tmp_path / "loop.scs"
    path.write_text("vectors x, y;\nrule flip: b(X, Y) -> b(Y, X);\n"
                    "let e = b(x, y);\nlet e = apply(e, flip);\n")
    code, output = run_cli("run", str(path))
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == ("symcomp: error: 4:1: session loop: "
                                       "rule set 'flip' did not stabilize within 10000 passes\n")


def _deep_words():
    # a1299 = (((x.y).y) ... ).y, one dot per line: 1300 leaves.
    lets = [f"let a{i} = a{i - 1}.y;" for i in range(1, 1300)]
    return (["vectors x, y;", "let a0 = x;"] + lets
            + ["let e = q(a1299);", "oracle_check e;", "let r = apply(e, rules2);",
               "assert_zero a1299;"])


def _wide_words():
    # a39 = a38.a38, doubled 39 times from x.y: 2^40 leaves.
    lets = [f"let a{i} = a{i - 1}.a{i - 1};" for i in range(1, 40)]
    return ["vectors x, y;", "let a0 = x.y;"] + lets + ["let e = q(a39);", "assert_zero e;"]


@pytest.mark.parametrize("lines, where, leaves", [
    (_deep_words(), "258:1: session words: 258:16", 257),
    (_wide_words(), "10:1: session words: 10:12", 512),
], ids=["deep", "wide"])
def test_run_script_word_past_the_leaf_bound_is_an_error(tmp_path, capsys, lines, where, leaves):
    # Deep words overflowed the stack of the printer, the oracle and the
    # rewrite pass; wide ones never finished printing.  The let that first
    # builds a word of more than core.MAX_WORD_LEAVES leaves fails at its dot.
    path = tmp_path / "words.scs"
    path.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, output = run_cli("run", str(path), "--verbose")
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert capsys.readouterr().err == (f"symcomp: error: {where}: dot-word of {leaves} "
                                       "leaves exceeds the bound 256\n")


@pytest.mark.parametrize("last, where, pairs", [
    ("let s = s.s;", "7:10", 4294967296),
    ("let t = q(s);", "7:9", 2147516416),
], ids=["dot", "q"])
def test_run_script_product_of_many_words_is_bounded(tmp_path, capsys, last, where, pairs):
    # s doubles its word count at every dot, so each pair of words
    # multiplies one term by one: only the count over the whole product
    # stops the 2^32 (dot) or 2^31 (q) term pairs that ran for minutes.
    path = tmp_path / "dotblow.scs"
    path.write_text("vectors x, y;\nlet s = x + y;\n" + "let s = s.s;\n" * 4
                    + last + "\nassert_zero s;\n")
    start = time.perf_counter()
    code, output = run_cli("run", str(path))
    assert time.perf_counter() - start < 10.0
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == (
        f"symcomp: error: 7:1: session dotblow: {where}: product of 65536 and 65536 terms "
        f"has {pairs} term pairs, over the bound 1048576\n")


def test_run_script_coefficient_matrix_is_bounded(tmp_path, capsys):
    path = tmp_path / "matrix.scs"
    path.write_text("scalars lambda, mu;\nvectors x;\n"
                    "let e = lambda^100000000*mu^100000000*q(x);\n"
                    "let m = coeffmatrix(e, [lambda, mu]);\n")
    start = time.perf_counter()
    code, output = run_cli("run", str(path))
    assert time.perf_counter() - start < 5.0
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == (
        "symcomp: error: 4:1: session matrix: coefficient matrix shape 100000001 x 100000001 "
        "is over the bound of 65536 cells\n")


ERRORS_HEAD = "scalars alpha;\nvectors x;\nlet e = alpha*q(x);\n"


@pytest.mark.parametrize("tail, where", [
    ("vectors q;", "4:9: 'q' is reserved"),
    ("let b = q(x);", "4:5: 'b' is reserved"),
    ("scalars e;", "4:9: 'e' already names a session value"),
    ("scalars x;", "4:9: 'x' already declared with a different sort"),
    ("let x = q(x);", "4:5: 'x' is a declared symbol"),
    ("let f = apply(e, rules1, twice);", "4:26: expected 'once', found 'twice'"),
    ("let f = apply(e, nope);", "4:18: unknown rule set 'nope'"),
    ("let f = subst(e, w -> x);", "4:18: undefined symbol 'w'"),
    ("let f = coeff(e, x);", "4:18: 'x' is not a declared scalar symbol"),
    ("let f = coeff(e, alpha^0);", "4:24: exponent must be at least 1"),
    ("oracle_check e, tries=3;", "4:17: expected 'trials', found 'tries'"),
    ("oracle_check e, trials=0;", "4:24: trials must be between 1 and 10000, got 0"),
    ("scalars beta;\nlet m = coeffmatrix(e, [alpha, beta]);\nassert_matrix m, q(x);",
     "6:18: assert_matrix expects a @golden reference"),
    ("let f = subst(e, alpha -> 1, alpha -> 2);",
     "4:30: 'alpha' is already bound in this subst"),
    ("let m = coeffmatrix(e, [alpha, alpha]);",
     "4:32: a coefficient matrix needs two distinct symbols, got 'alpha' twice"),
    ("rule r: x + y -> x;",
     "4:9: rule pattern must be a dot-word, a q/b atom, a power of a b atom, "
     "or a product of two b atoms over dot-word patterns"),
], ids=["reserved-symbol", "reserved-let", "symbol-names-a-value", "sort-clash",
        "let-of-a-symbol", "once", "unknown-rule-set", "subst-undefined-symbol",
        "coeff-not-a-scalar", "coeff-exponent-below-1", "trials-keyword", "trials-zero",
        "assert-matrix-without-golden", "subst-symbol-bound-twice", "coeffmatrix-same-symbol",
        "bad-rule-pattern"])
def test_run_script_error_names_its_span(tmp_path, capsys, tail, where):
    path = tmp_path / "errors.scs"
    path.write_text(ERRORS_HEAD + tail + "\n")
    code, output = run_cli("run", str(path))
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == f"symcomp: error: {where}\n"


@pytest.mark.parametrize("env, argv, message", [
    ("abc", (), "SYMCOMP_SEED must be an integer, got 'abc'"),
    (None, ("--trials", "0"), "trials must be between 1 and 10000, got 0"),
], ids=["seed-env", "trials-zero"])
def test_bad_setting_is_an_error(monkeypatch, capsys, env, argv, message):
    if env is not None:
        monkeypatch.setenv("SYMCOMP_SEED", env)
    code, output = run_cli("oracle", "q(x) - q(x)", *argv)
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == f"symcomp: error: {message}\n"


def mutate(tokens, rng):
    """The tokens after 1-3 seeded edits: a deletion, an insertion of a
    token of the script, a swap of two tokens, or a replacement by a token
    of the same kind."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        edit = rng.choice(("delete", "insert", "swap", "replace"))
        if edit == "delete":
            del tokens[i]
        elif edit == "insert":
            tokens.insert(i, rng.choice(tokens))
        elif edit == "swap":
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = rng.choice([t for t in tokens if t.kind == tokens[i].kind])
    return tokens


def test_mutated_catalog_scripts_end_in_an_exit_code(tmp_path, capsys):
    # The typed-error promise end to end: 105 token mutants of the catalog
    # scripts (comments dropped by the tokenizer), run beside a copy of
    # the goldens, each end in exit 0, 1 or 2 and never in a traceback.
    shutil.copytree(_data_dir() / "goldens", tmp_path / "goldens")
    scripts = [tokenize(path.read_text(encoding="utf-8"))[:-1]
               for path in sorted(_data_dir().glob("*.scs"))]
    rng = random.Random(1)
    codes = set()
    start = time.perf_counter()
    for k in range(105):
        path = tmp_path / f"mutant{k}.scs"
        path.write_text(" ".join(t.text for t in mutate(scripts[k % len(scripts)], rng)))
        code, _ = run_cli("run", str(path))
        err = capsys.readouterr().err
        assert code in (0, 1, 2), path.read_text()
        assert (code == 2) == err.startswith("symcomp: error: "), path.read_text()
        codes.add(code)
    assert time.perf_counter() - start < 2.0
    assert codes == {0, 1, 2}
