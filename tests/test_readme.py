"""The README's examples run as shown."""
import contextlib
import io
import re
import shlex
from pathlib import Path

from symcomp.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(start: str) -> str:
    """The text of the README's fenced block whose first line starts with `start`."""
    m = re.search(r"^```[a-z]*\n(" + re.escape(start) + r".*?)^```$", README,
                  re.MULTILINE | re.DOTALL)
    assert m is not None, start
    return m.group(1)


def test_readme_session_script_passes(tmp_path):
    path = tmp_path / "flip.scs"
    path.write_text(fenced_block("# flip.scs"), encoding="utf-8")
    out = io.StringIO()
    assert main(["run", str(path)], out=out) == 0
    assert out.getvalue().endswith("  => PASS\n")


def test_readme_library_example_prints_true():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("from symcomp import"), {})
    assert out.getvalue().splitlines()[-1] == "True"


def test_readme_oracle_limit_passes_as_shown():
    # The oracle's known limit: an identity that fails in the para-octonions
    # passes in the para-quaternions, with exit code 0.
    command, expected = fenced_block('symcomp oracle "y.(z.w)').splitlines()
    out = io.StringIO()
    assert main(shlex.split(command)[1:], out=out) == 0
    assert out.getvalue() == expected + "\n"


def test_readme_oracle_failure_prints_as_shown():
    # The text form of a failing report: the status line, then the
    # counterexample as one line of JSON.
    command, *expected = fenced_block("symcomp oracle --seed 42").splitlines()
    out = io.StringIO()
    assert main(shlex.split(command)[1:], out=out) == 1
    assert out.getvalue().splitlines() == expected
