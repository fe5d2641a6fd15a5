"""Command-line front end: output bytes, JSON payloads, and exit codes."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from powerops.amplified import AmplifiedRing
from powerops.cli import main
from powerops.normlog import NormContext
from powerops.opalgebra import Operation, normal_form
from powerops.poly import Poly

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with path.open("rb") as fh:
        return tomllib.load(fh)


class TestNormalForm:
    def test_adem_composite(self, capsys):
        code, out, _ = run_cli(capsys, "nf", "Q1 Q0")
        assert code == 0
        assert out == "- 2 Q0 Q2 + 2 Q2 Q1\n"

    def test_adem_composite_matches_displayed_form(self, capsys):
        # the same element written with the positive term first
        code, out, _ = run_cli(capsys, "nf", "Q1 Q0")
        assert code == 0
        assert normal_form(out.strip()) == normal_form("2 Q2 Q1 - 2 Q0 Q2")

    def test_plain_scalar(self, capsys):
        code, out, _ = run_cli(capsys, "nf", "a")
        assert code == 0
        assert out == "a\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "nf", "Q1 Q0", "--json")
        assert code == 0
        assert Operation.from_json(json.loads(out)) == normal_form("Q1 Q0")

    def test_mul_agrees_with_nf_of_concatenation(self, capsys):
        _, out_mul, _ = run_cli(capsys, "mul", "Q1", "Q0")
        _, out_nf, _ = run_cli(capsys, "nf", "Q1 Q0")
        assert out_mul == out_nf

    def test_malformed_expression_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "nf", "Q3 bogus")
        assert code == 2
        assert "cannot parse" in err


class TestActAndTensor:
    def test_act_on_standard_generator(self, capsys):
        code, out, _ = run_cli(capsys, "act", "Q0")
        assert code == 0
        assert out == "(1)\n"

    def test_act_on_omega_generator(self, capsys):
        code, out, _ = run_cli(capsys, "act", "Q1", "--module", "omega")
        assert code == 0
        assert out == "(-1)\n"

    def test_act_with_explicit_vector(self, capsys):
        # Q0(a . 1) = a^2 . 1 by the twisted commutation rule
        code, out, _ = run_cli(capsys, "act", "Q0", "--module", "R",
                               "--vec", '[["0","1"]]')
        assert code == 0
        assert out == "(a^2)\n"

    def test_act_json_vector(self, capsys):
        code, out, _ = run_cli(capsys, "act", "Q1", "--module", "omega",
                               "--json")
        assert code == 0
        assert [Poly.from_json(c) for c in json.loads(out)] == [Poly(-1)]

    def test_vector_length_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "act", "Q0", "--vec", '[["1"],["1"]]')
        assert code == 2
        assert "rank" in err

    def test_tensor_of_omega_powers(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", "omega", "omega^2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank: 1"
        assert "Q0 e0 = (-2)" in lines
        assert "Q1 e0 = (-a)" in lines
        assert "Q2 e0 = (0)" in lines
        assert lines[-1] == "five-relation check: ok"

    def test_tensor_module_grammar(self, capsys):
        # omega x omega^2 as a module name for act
        code, out, _ = run_cli(capsys, "act", "Q0", "--module",
                               "omega x omega^2")
        assert code == 0
        assert out == "(-2)\n"

    def test_unknown_module_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "act", "Q0", "--module", "sigma")
        assert code == 2
        assert "unknown module" in err


class TestScalarOperators:
    def test_theta_of_two(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "2")
        assert code == 0
        assert out == "- 1\n"

    def test_theta_of_generator_sum(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "x + x")
        assert code == 0
        # theta(x + x) = 2 theta(x) - x^2
        assert out == "- x^2 + 2 t x\n"

    def test_norm_of_scalar_is_cube(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "3")
        assert code == 0
        assert out == "27\n"

    def test_norm_of_antifixed_point(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "a - 3")
        assert code == 0
        assert out == "-a^3 + 9*a^2 - 27*a + 27\n"

    def test_norm_reads_its_own_output(self, capsys):
        _, first, _ = run_cli(capsys, "norm", "a - 3")
        code, out, _ = run_cli(capsys, "norm", first.strip())
        assert code == 0
        norm = NormContext("R").norm_N
        assert out == "%s\n" % norm(norm(Poly([-3, 1])))

    def test_norm_prints_answers_past_the_int_digit_limit(self, capsys):
        # 2^60000 has 18062 digits, past Python's default limit of 4300 for
        # int <-> str conversion; the input is well formed, so exit 0.
        code, out, err = run_cli(capsys, "norm", "2^20000")
        assert (code, err) == (0, "")
        assert len(out) == 18063
        assert int(out) == 2 ** 60000

    def test_norm_rejects_tower_elements(self, capsys):
        code, _, err = run_cli(capsys, "norm", "d")
        assert code == 2
        assert "Z[a]" in err

    def test_ell_matches_direct_evaluation(self, capsys):
        code, out, _ = run_cli(capsys, "ell", "1 + 2 a",
                               "--prec2", "12", "--precA", "10")
        assert code == 0
        direct = NormContext("Shat", prec2=12, precA=10).log_ell(
            Poly([1, 2]))
        assert out == str(direct) + "\n"
        assert out.endswith("(mod 2^12, a^10)\n")

    def test_ell_rejects_nonunits(self, capsys):
        code, _, err = run_cli(capsys, "ell", "2 a")
        assert code == 2
        assert "unit" in err


class TestInputSyntax:
    # (argv, exit code, and for exit 0 argv with the same output, for exit
    # 2 the whole stderr, or None).  Consecutive
    # signs compose, `*` separates factors, a power is an unsigned integer
    # written directly after its atom, and a generator reads t^j Q[w] x.
    CASES = [
        (["norm", "a -- 1"], 0, ["norm", "a + 1"]),
        (["nf", "Q1 - - Q2"], 0, ["nf", "Q1 + Q2"]),
        (["theta", "x - - x"], 0, ["theta", "x + x"]),
        (["nf", "2*a Q1"], 0, ["nf", "2 a Q1"]),
        (["norm", "-a^3 + 9*a^2 - 27*a + 27"], 0,
         ["norm", "- a^3 + 9 a^2 - 27 a + 27"]),
        (["norm", "a^-1"], 2, None),
        (["norm", "a^ 2"], 2, None),
        (["norm", "2a"], 2, None),
        (["ell", "1 + 2a"], 2, None),
        (["nf", "Q1 +"], 2, None),
        (["nf", "Q1 * * Q2"], 2, None),
        (["theta", "x^-2"], 2, None),
        (["theta", "a^-1 x"], 2, None),
        (["theta", "Q[1] t x"], 2, None),
        # input errors found past the parser: theta t^3 x needs t^4 x,
        # and precisions or degree caps out of range
        (["theta", "t^3 x"], 2, None),
        (["ell", "1 + 2 a", "--prec2", "0"], 2, None),
        (["ell", "1 + 2 a", "--precA", "0"], 2,
         "error: precision out of range\n"),
        (["ell", "1 + 2 a", "--precA", "-1"], 2, None),
        (["koszul", "acyclic", "--module", "omega", "--kmax", "-1"], 2, None),
        (["koszul", "acyclic", "--module",
          '{"rank": 1, "Q0": [["1"]], "Q1": [["1"]], "Q2": [["0"]]}'], 2,
         None),
    ]

    @pytest.mark.parametrize("argv, code, expect", CASES,
                             ids=[" ".join(c[0]) for c in CASES])
    def test_exit_code_and_value(self, capsys, argv, code, expect):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        if code == 2:
            assert out == "" and err.startswith("error: ")
            assert expect is None or err == expect
        elif expect is not None:
            assert out == run_cli(capsys, *expect)[1] != ""


class TestInternalErrors:
    # exit 2 is for malformed input only: an exception that escapes a
    # handler is a bug, whatever its type
    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_escaped_exception_exits_3(self, capsys, monkeypatch, error):
        import powerops.cli as cli

        def broken(order):
            raise error("broken")
        monkeypatch.setattr(cli, "isogeny_series", broken)
        code, out, err = run_cli(capsys, "isogeny", "--order", "4")
        assert code == 3 and out == ""
        assert err.startswith("internal error: %s: " % error.__name__)


class TestKoszulCommands:
    def test_tor_k1_text(self, capsys):
        code, out, _ = run_cli(capsys, "tor", "--k", "1")
        assert code == 0
        assert out == ("Tor(Gamma/I, omega^1) over Z\n"
                       "position 0: 0\n"
                       "position 1: Z/2\n"
                       "position 2: 0\n")

    def test_tor_k1_json(self, capsys):
        code, out, _ = run_cli(capsys, "koszul", "tor", "--k", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["field"] == "Z"
        assert [(p["free"], p["divisors"]) for p in payload["positions"]] \
            == [(0, []), (0, [2]), (0, [])]

    def test_tor_nested_form_matches_shorthand(self, capsys):
        _, nested, _ = run_cli(capsys, "koszul", "tor", "--k", "1")
        _, short, _ = run_cli(capsys, "tor", "--k", "1")
        assert nested == short

    def test_tor_k2_integral_slice_unavailable(self, capsys):
        code, out, _ = run_cli(capsys, "tor", "--k", "2")
        assert code == 0
        assert "integral slice not defined" in out

    def test_tor_k2_over_field(self, capsys):
        code, out, _ = run_cli(capsys, "tor", "--k", "2", "--field", "q")
        assert code == 0
        assert out.count("position") == 3
        assert "Z/" not in out

    def test_tor_negative_k_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "tor", "--k", "-1")
        assert code == 2
        assert "nonnegative" in err

    def test_acyclic_named_module(self, capsys):
        code, out, _ = run_cli(capsys, "koszul", "acyclic",
                               "--module", "omega", "--kmax", "3",
                               "--field", "f2")
        assert code == 0
        assert out.splitlines()[-1] == "acyclic in positions 1 and 2: yes"

    def test_acyclic_json_module_payload(self, capsys):
        from powerops.opmodules import standard_module
        blob = json.dumps(standard_module().to_json())
        code, out, _ = run_cli(capsys, "koszul", "acyclic",
                               "--module", blob, "--kmax", "2")
        assert code == 0
        assert "acyclic in positions 1 and 2: yes" in out


class TestCurveCommands:
    def test_isogeny_low_order(self, capsys):
        code, out, _ = run_cli(capsys, "isogeny", "--order", "4")
        assert code == 0
        assert out == (
            "u' = ((-1)*d)*u^1 + ((3)*1 + (a)*d)*u^2 + "
            "((-2*a)*1 + (-a^2)*d + (-3)*d^2)*u^3 + O(u^4)\n"
            "v' = ((-2)*1 + (-a)*d)*u^3 + O(u^4)\n"
            "a' = (a^2)*1 + (3)*d + (-a)*d^2\n")

    def test_isogeny_order_too_small(self, capsys):
        code, _, err = run_cli(capsys, "isogeny", "--order", "1")
        assert code == 2
        assert "order" in err

    def test_derive_reports_relations_and_mismatch(self, capsys):
        code, out, _ = run_cli(capsys, "derive")
        assert code == 0
        lines = out.splitlines()
        assert "Q0 a = a^2 Q0 - 2 a Q1 + 6 Q2" in lines
        assert "Q1 a = 3 Q0 + a Q2" in lines
        assert "Q2 a = - a Q0 + 3 Q1" in lines
        assert "Q1 Q0 relation: 2 Q0 Q2 + Q1 Q0 - 2 Q2 Q1 = 0" in lines
        assert ("Psi = Q0 Q0 + a Q0 Q1 + a^2 Q0 Q2 - 2 Q1 Q1 "
                "- 2 a Q1 Q2 + 4 Q2 Q2") in lines
        assert "q-series mismatches: 1 (known u^2 disagreement only: yes)" \
            in lines
        assert "  Q0 at u^2: isogeny gives 3, table gives -3" in lines

    def test_derive_json_is_ok(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["q_series"]["only_known_mismatch"] is True


class TestVerifyAll:
    def test_exit_code_reflects_known_failure(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "overall: FAIL"
        passes = [l for l in lines if "  PASS  " in l]
        fails = [l for l in lines if "  FAIL  " in l]
        assert len(passes) == 11
        assert len(fails) == 1
        assert "continuity" in fails[0]
        assert "generator level ok: True" in fails[0]


def child_env():
    """Environment for a child interpreter that imports the same package."""
    root = Path(importlib.import_module("powerops.cli").__file__).parents[1]
    return dict(os.environ, PYTHONPATH=str(root.resolve()))


class TestDeepDegrees:
    DEGREE = 250
    CHILD = """
import contextlib, io, json, sys
from powerops.cli import main
from powerops.opalgebra import push_through
sys.setrecursionlimit(%d)
rows = [[c.to_json() for c in push_through(i, %d)] for i in range(3)]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["theta", "a^%d x"])
print(json.dumps({"rows": rows, "code": code, "theta": out.getvalue()}))
"""

    def test_no_recursion_per_a_degree(self):
        # The child's recursion limit is below the a-degree, so any code
        # path that recurses once per degree fails there.
        n = self.DEGREE
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD % (n - 100, n, n)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        for i, row in enumerate(doc["rows"]):
            # straightening Q_i a^n by repeated a-multiplication
            want = Operation.q(i) * Poly.a_power(n)
            got = Operation({(1, ()): Poly.from_json(row[0]),
                             (0, (1,)): Poly.from_json(row[1]),
                             (0, (2,)): Poly.from_json(row[2])})
            assert got == want
        assert doc["code"] == 0, proc.stderr
        ring = AmplifiedRing(theta_depth=3, word_depth=4)
        p = ring.parse("a^%d x" % n)
        theta = ring.parse(doc["theta"])
        assert theta + theta == ring.q(0, p) - p * p


class TestClosedStdout:
    @pytest.mark.parametrize("expr", ["x", "a^120 x"])
    def test_reader_gone_is_not_a_bug(self, expr):
        # The pipe has no reader before the child starts, so its first
        # write to stdout fails: the small output when main flushes it,
        # the large one (past the buffer) while it prints.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "powerops.cli", "theta", expr],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=child_env())
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""


class TestEntryPoint:
    def test_console_script(self):
        # The declared [project.scripts] entry, run as its own process the
        # way the installed wrapper runs it, so no install is needed.
        scripts = load_toml(PYPROJECT)["project"]["scripts"]
        assert "powerops" in scripts
        module_name, _, attr = scripts["powerops"].partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr))
        # the directory this process imported the package from, so the
        # child runs the same code whatever the cwd
        root = Path(module.__file__).resolve().parents[module_name.count(".")]
        env = dict(os.environ, PYTHONPATH=str(root))
        code = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
        proc = subprocess.run([sys.executable, "-c", code, "nf", "a"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "a\n"

    @pytest.mark.skipif(shutil.which("powerops") is None,
                        reason="powerops script not on PATH (pip install -e .)")
    def test_installed_console_script(self):
        proc = subprocess.run(["powerops", "nf", "a"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "a\n"

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "powerops.cli",
                               "tor", "--k", "1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "position 1: Z/2" in proc.stdout

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
