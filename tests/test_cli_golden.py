"""Byte-for-byte golden output of the command-line front end.

Each case runs `cli.main` in process and compares stdout, stderr and the
exit code with `tests/data/cli_golden.json`.  The cases cover every
subcommand, `verify-all` included, text and `--json` output, malformed
payloads (exit 2) and argparse errors (exit 2).

To regenerate the golden file after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from powerops.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

CASES = [
    ["nf", "Q1 Q0"],
    ["nf", "Q1 Q0", "--json"],
    ["nf", "a^2 Q2 Q2 Q0"],
    ["nf", "Q3 bogus"],
    ["nf", "2*a Q1"],
    ["mul", "Q1", "Q0"],
    ["mul", "Q2 Q1", "a Q0", "--json"],
    ["act", "Q0"],
    ["act", "Q1", "--module", "omega"],
    ["act", "Q1 Q2", "--vec", '[["1", "2"]]'],
    ["act", "Q2", "--module", "omega x omega", "--json"],
    ["act", "Q0", "--vec", '[["1"], ["2"]]'],
    ["tensor", "omega", "omega^2"],
    ["tensor", "omega", "R", "--json"],
    ["tensor", "foo", "R"],
    ["act", "Q0", "--module", "R x omega"],
    ["tensor", "omega x omega^2", "R"],
    ["act", "Q1", "--module", "omegaxR"],
    ["act", "Q1", "--module", "omega^ 2"],
    ["act", "Q1", "--module", "xomega"],
    ["act", "Q1", "--module", "R^2"],
    ["act", "Q1", "--module", "omega^-1"],
    ["act", "Q1", "--module", "omega omega"],
    ["koszul", "acyclic", "--module", "omegaxR", "--kmax", "1"],
    ["theta", "2"],
    ["theta", "t x + Q[1] x"],
    ["theta", "a x^2 - 3 t Q[2] x", "--json"],
    ["theta", "(t Q[2] x)^2 - a t x"],
    ["theta", "(a + 1) x"],
    ["theta", "t^4 x"],
    ["theta", "Q[1] t x"],
    ["norm", "a - 3"],
    ["norm", "a^2 + 1", "--json"],
    ["norm", "d"],
    ["norm", "-a^3 + 9*a^2 - 27*a + 27"],
    ["norm", "a -- 1"],
    ["ell", "1 + 2 a"],
    ["ell", "1 + 2 a", "--prec2", "8", "--precA", "6", "--json"],
    ["ell", "1 + 2a"],
    ["ell", "a"],
    ["koszul", "tor", "--k", "1"],
    ["koszul", "tor", "--k", "1", "--json"],
    ["tor", "--k", "2", "--field", "f2"],
    ["tor", "--k", "-1"],
    ["tor", "--k", "257"],
    ["koszul", "tor", "--k", "257", "--json"],
    ["koszul", "acyclic", "--module", "omega", "--kmax", "2"],
    ["koszul", "acyclic", "--module", "R", "--kmax", "2", "--field", "f2",
     "--json"],
    ["koszul", "acyclic", "--module", "omega", "--kmax", "8"],
    ["isogeny", "--order", "6"],
    ["isogeny", "--order", "4", "--json"],
    ["isogeny", "--order", "1"],
    ["isogeny", "--order", "65"],
    ["derive"],
    ["derive", "--json"],
    [],
    ["bogus"],
    ["nf"],
    ["tor", "--k", "x"],
    ["koszul", "tor", "--k", "1", "--field", "r"],
    ["act", "Q1", "--vec", "[[1.5]]"],
    ["act", "Q1", "--vec", "[[true]]"],
    ["mul", "a - 18446744073709551616", "Q0"],
    ["verify-all"],
    ["verify-all", "--json"],
    ["koszul", "acyclic", "--module",
     '{"rank": 1.0, "Q0": [[[1]]], "Q1": [[[]]], "Q2": [[[]]]}'],
    ["koszul", "acyclic", "--module",
     '{"rank": true, "Q0": [[[1]]], "Q1": [[[]]], "Q2": [[[]]]}'],
    ["koszul", "acyclic", "--module",
     '{"rank": "1", "Q0": [[[1]]], "Q1": [[[]]], "Q2": [[[]]]}'],
    ["ell", "1 + 2 a", "--prec2", "257"],
    ["ell", "1 + 2 a", "--precA", "257", "--json"],
    ["norm", "a^257"],
    ["ell", "1 + a^257", "--json"],
    ["nf", "99999999999999999999999999^99999"],
    ["nf", "7^174763 Q1"],
    ["theta", "7^174763 x", "--json"],
    ["norm", "7^174763"],
    ["theta", "x^16 + (Q[1] x)^5"],
    ["nf", "Q1 a^256", "--json"],
    ["act", "Q1", "--module", "omega^513"],
    ["nf", "Q2 Q0^6"],
    ["mul", "Q1 a^108", "Q2 a^84"],
    ["nf", "Q1^255 Q0", "--json"],
    ["ell", "1 + 2 a + a^3", "--prec2", "64", "--precA", "48"],
    ["ell", "1 + 2 a + a^3", "--prec2", "64", "--precA", "48", "--json"],
]


def run(argv):
    """(stdout, stderr, exit code) of one in-process run of the CLI."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return {"argv": list(argv), "stdout": out.getvalue(),
            "stderr": err.getvalue(), "code": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


def test_golden_file_lists_the_cases(golden):
    assert [case["argv"] for case in golden] == CASES


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[" ".join(argv) or "(none)" for argv in CASES])
def test_output_is_byte_identical(golden, index):
    assert run(CASES[index]) == golden[index]


def test_parser_is_built_once():
    from powerops.cli import _build_parser
    assert _build_parser() is _build_parser()


def test_reused_parser_leaks_no_state(golden):
    # through the one parser: ell with its default flags right after ell
    # with --prec2 8, and a valid tor right after an argparse error that
    # raised SystemExit in the middle of parsing tor's flags
    for argv in (["ell", "1 + 2 a", "--prec2", "8", "--precA", "6", "--json"],
                 ["ell", "1 + 2 a"],
                 ["tor", "--k", "x"],
                 ["tor", "--k", "2", "--field", "f2"]):
        assert run(argv) == golden[CASES.index(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    os.environ["COLUMNS"] = "80"
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1,
                                 ensure_ascii=False) + "\n")
