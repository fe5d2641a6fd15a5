"""A grammar-based property net over the expression subcommands.

A fixed list of inputs, drawn once from a seeded generator over the atoms
of `nf`, `mul`, `act`, `theta`, `norm` and `ell` and a set of malformed
tokens, goes through `cli.main` in process.  Every input must exit 0, 1
or 2 (never 3, an internal error); exit 2 must print nothing on stdout and
name the error on stderr; and stdout must not depend on what ran before
it in the process: a second pass in the same process and one fresh
interpreter that runs the list backwards print the same bytes.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from powerops.cli import main
from test_cli import child_env

SEED = 812_1320
COUNT = 600

INTEGERS = ["0", "1", "2", "3", "7", "12", "65536", "18446744073709551617"]
MALFORMED = ["2a", "a^-1", "Q3", "a^ 2", "(", "t^4 x", ")", "a^", "**",
             "Q[3] x", "d''", "1.5", "a^2^2", "Q", "x y"]
ATOMS = {
    "op": ["a", "Q0", "Q1", "Q2"],
    "tower": ["a"] * 6 + ["d", "d'"],
    "theta": ["a", "x", "t x", "Q[1] x", "t Q[2] x", "t^2 Q[1 2] x",
              "(t Q[1] x)", "(x)"],
}
MODULES = ["R", "omega", "omega^2", "omega x R", "R x omega", "R^2",
           "omegaxR", "omega^ 2", "x"]
VECTORS = ['[["1"]]', '[[1, 2]]', '[["-3", "0", "1"]]', '[["1.5"]]',
           '[[true]]', "[]", "[[1], [2]]", "not json"]


def expression(rng, kind):
    """A sum of one to three products of one to three factors, each an
    atom of kind (or, one time in 25, a malformed token) with an optional
    power, joined by the separators the grammar accepts."""
    summands = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.04:
                atom = rng.choice(MALFORMED)
            elif roll < 0.35:
                atom = rng.choice(INTEGERS)
            else:
                atom = rng.choice(ATOMS[kind])
            if rng.random() < 0.3:
                atom += "^%d" % rng.randint(0, 3)
            factors.append(atom)
        summands.append(rng.choice([" ", " * ", "*"]).join(factors))
    text = rng.choice(["", "-", "- ", "- - "]) + summands[0]
    for summand in summands[1:]:
        text += rng.choice([" + ", " - ", " -- ", "+", "-"]) + summand
    return text


def draw(rng):
    """One argv for one of the six subcommands."""
    command = rng.choice(["nf", "mul", "act", "theta", "norm", "ell"])
    if command == "nf":
        argv = [command, expression(rng, "op")]
    elif command == "mul":
        argv = [command, expression(rng, "op"), expression(rng, "op")]
    elif command == "act":
        argv = [command, expression(rng, "op"),
                "--module", rng.choice(MODULES)]
        if rng.random() < 0.3:
            argv += ["--vec", rng.choice(VECTORS)]
    elif command == "theta":
        argv = [command, expression(rng, "theta")]
    elif command == "norm":
        argv = [command, expression(rng, "tower")]
    else:
        # the logarithm needs an odd constant term, which 1 + 2 x has
        prefix = "1 + 2 " if rng.random() < 0.7 else ""
        argv = [command, prefix + expression(rng, "tower")]
        if rng.random() < 0.3:
            argv += [rng.choice(["--prec2", "--precA"]),
                     rng.choice(["0", "1", "4", "257", "x"])]
    if rng.random() < 0.2:
        argv.append("--json")
    return argv


_rng = random.Random(SEED)
INPUTS = [draw(_rng) for _ in range(COUNT)]


def run(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)`; argparse's
    SystemExit counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


CHILD = """
import json, sys
from test_cli_property import INPUTS, run
json.dump([run(argv)[:2] for argv in reversed(INPUTS)], sys.stdout)
"""


@pytest.fixture(scope="module")
def first_pass():
    return [run(argv) for argv in INPUTS]


def test_every_input_exits_0_1_or_2(first_pass):
    codes = [code for code, _, _ in first_pass]
    bugs = [(argv, err) for argv, (code, _, err) in zip(INPUTS, first_pass)
            if code not in (0, 1, 2)]
    assert not bugs
    # the net reaches each outcome: answers and usage errors alike
    assert codes.count(0) >= COUNT // 4 and codes.count(2) >= COUNT // 4


def test_exit_2_prints_only_the_error(first_pass):
    for argv, (code, out, err) in zip(INPUTS, first_pass):
        if code == 2:
            assert out == "", argv
            # argparse's own message comes after its usage line
            last = err.splitlines()[-1]
            assert err.startswith("error: ") or (
                err.startswith("usage: ") and ": error: " in last), argv


def test_stdout_is_the_same_on_a_second_pass(first_pass):
    for argv, (code, out, _) in zip(INPUTS, first_pass):
        assert run(argv)[:2] == (code, out), argv


def test_stdout_is_the_same_in_a_fresh_process_run_backwards(first_pass):
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, env=env, check=True)
    backwards = [tuple(pair) for pair in json.loads(proc.stdout)]
    assert backwards[::-1] == [(code, out) for code, out, _ in first_pass]
