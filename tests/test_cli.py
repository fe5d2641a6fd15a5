"""Command-line front end: output bytes, JSON payloads, and exit codes."""

import contextlib
import importlib
import io
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
        # an argument that starts with "-" and a letter goes after "--",
        # or argparse reads it as an option
        (["norm", "--", "-a"], 0, ["norm", "0 - a"]),
        (["ell", "--", "-1 - 2 a"], 0, ["ell", "0 - 1 - 2 a"]),
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
        # a module's rank is an int >= 0, as a JSON coefficient is an int
        (["koszul", "acyclic", "--module",
          '{"rank": 1.0, "Q0": [[[1]]], "Q1": [[[]]], "Q2": [[[]]]}'], 2,
         "error: bad module JSON: rank 1.0 is not a nonnegative integer\n"),
        (["koszul", "acyclic", "--module",
          '{"rank": true, "Q0": [[[1]]], "Q1": [[[]]], "Q2": [[[]]]}'], 2,
         None),
        (["koszul", "acyclic", "--module",
          '{"rank": "1", "Q0": [[[1]]], "Q1": [[[]]], "Q2": [[[]]]}'], 2,
         None),
        # precisions past their limits exit before any work
        (["ell", "1 + 2 a", "--prec2", "257"], 2,
         "error: --prec2 must be at most 256\n"),
        (["ell", "1 + 2 a", "--precA", "257"], 2,
         "error: --precA must be at most 256\n"),
        # so are terms of degree past 256 in a, d and d' together, before
        # they are built; a term of degree 256 is accepted
        (["norm", "a^257"], 2, "error: 'a^257' has a term of degree above "
         "256 in a, d and d'\n"),
        (["ell", "1 + a^257"], 2, None),
        (["norm", "a^128 d^127 d'^2"], 2, None),
        (["norm", "a^99999999"], 2, None),
        (["norm", "a^256 - a^128 a^128"], 0, ["norm", "0"]),
        # and so are terms whose integer factors n^k count more than 2^19
        # bits, as k times the bits of n; 7 has 3 bits and 4 has 3, and
        # 2^262144 counts exactly 2^19
        (["nf", "7^174763 Q1"], 2, "error: integer factor 7^174763 takes a "
         "term of '7^174763 Q1' past 524288 bits (n^k counts k times the "
         "bits of n)\n"),
        (["mul", "Q1", "2^262144 1 Q2"], 2, "error: integer factor 1 takes "
         "a term of '2^262144 1 Q2' past 524288 bits (n^k counts k times "
         "the bits of n)\n"),
        (["act", "7^174763 Q1", "--module", "omega"], 2, None),
        (["theta", "x - 7^174763 a x"], 2, None),
        (["ell", "1 + 2 7^174763"], 2, None),
        (["norm", "99999999999999999999999999^99999"], 2, None),
        (["nf", "2^262144 Q1"], 0, ["nf", "4^131072 Q1"]),
        # theta's argument is bounded in a-degree before it is built, and
        # theta stops once its work passes the budget; cheap powers of
        # several generators pass
        (["theta", "x^16 + (Q[1] x)^5"], 0, ["theta", "(Q[1] x)^5 + x^8 x^8"]),
        (["theta", "x^8 (t x)^2"], 0, ["theta", "(t x)^2 x^4 x^4"]),
        (["theta", "t^2 x^5 + a Q[1 2] x^3"], 2, "error: 't^2 x^5 + a Q[1 2] "
         "x^3' takes more than 600000000 units of work\n"),
        (["theta", "a^257 x"], 2, "error: 'a^257 x' has a term of degree "
         "above 256 in a, d and d'\n"),
        (["theta", "x^40000"], 2, None),
        (["theta", "x^8 x^8"], 0, ["theta", "x^16"]),
        # operation terms hold at most 256 letters a, Q0, Q1 and Q2
        (["nf", "Q1 a^256"], 2, "error: 'Q1 a^256' has a term of more than "
         "256 letters a, Q0, Q1 and Q2\n"),
        (["nf", "a^50000 Q1"], 2, None),
        (["mul", "Q1", "a^128 Q2 a^128"], 2, None),
        (["act", "Q0^257"], 2, None),
        (["nf", "a^255 Q1"], 0, ["nf", "a^200 a^55 Q1"]),
        # and straightening stops once its work passes the budget, which
        # counts the work done, so cheap words of many terms pass
        (["nf", "Q1^18 a"], 0, ["nf", "Q1^9 Q1^9 a"]),
        (["nf", "Q1^19 a"], 0, ["nf", "Q1^10 Q1^9 a"]),
        (["nf", "Q2 Q0^5"], 0, ["nf", "Q2 Q0^2 Q0^3"]),
        (["nf", "Q2 Q0^6"], 0, ["mul", "Q2 Q0^3", "Q0^3"]),
        (["nf", "Q2^8 Q0"], 2, "error: 'Q2^8 Q0' takes more than 600000000 "
         "units of work\n"),
        (["nf", "Q0^200"], 0, ["nf", "Q0^100 Q0^100"]),
        # a product is budgeted as one call: both factors and the product
        (["mul", "Q1^8", "a"], 0, ["nf", "Q1^8 a"]),
        (["mul", "Q1 a^108", "Q2 a^84"], 0, ["mul", "Q1 a^100 a^8",
                                             "Q2 a^84"]),
        (["mul", "Q1 a^255", "Q2 a^255"], 2, "error: 'Q1 a^255' times "
         "'Q2 a^255' takes more than 600000000 units of work\n"),
        # and a module name at most 512 tensor factors, omega^N counting N
        (["act", "Q1", "--module", "omega^513"], 2, "error: module "
         "'omega^513' has more than 512 tensor factors (omega^N counts N)\n"),
        (["tensor", "omega^512 x R", "R"], 2, None),
        (["act", "Q1", "--module", "omega^8000"], 2, None),
        (["act", "Q1", "--module", "omega^256 x omega^256"], 0,
         ["act", "Q1", "--module", "omega^512"]),
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

    @pytest.mark.parametrize("choices", ["q, f2, z", "'q', 'f2', 'z'"])
    def test_invalid_choice_quoted_on_every_python(self, capsys, choices):
        # later Python releases print the alternatives bare
        from powerops.cli import _build_parser
        with pytest.raises(SystemExit):
            _build_parser().error("argument --field: invalid choice: 'r' "
                                  "(choose from %s)" % choices)
        assert capsys.readouterr().err.endswith(
            "error: argument --field: invalid choice: 'r' "
            "(choose from 'q', 'f2', 'z')\n")


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


def charged(argv, budget):
    """(exit code, stdout, units of work charged) of one in-process call of
    the CLI at the given work budget."""
    import powerops.cli as cli
    from powerops import opalgebra
    spent, real = [], (cli._budget, cli._WORK_BUDGET)

    @contextlib.contextmanager
    def spy(units):
        with real[0](units):
            try:
                yield
            finally:
                spent.append(units - opalgebra._left)

    cli._budget, cli._WORK_BUDGET = spy, budget
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        cli._budget, cli._WORK_BUDGET = real
    return [code, out.getvalue(), spent[0]]


class TestWorkBudget:
    # the budget counts the work the engines charge, which must not depend
    # on what ran before in the process: a budgeted call straightens on a
    # state of its own, and theta charges nothing that hangs on the fields
    # its generators are packed in
    CASES = [["nf", "Q2 Q0^5"], ["mul", "Q1 a^3", "Q2 Q0^4"],
             ["theta", "x^8 (t x)^2"]]
    BUDGET = 10 ** 8
    CHILD = """
import json, sys
from powerops.amplified import AmplifiedRing
from test_cli import charged
AmplifiedRing(3, 4).parse("(t^2 x) (t Q[1] x) (t x) (Q[2] x) (Q[1] x)")
print(json.dumps(charged(sys.argv[1:], %d)))
"""

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        from powerops import opalgebra
        monkeypatch.setattr(opalgebra, "_SHARED", {})
        monkeypatch.setattr(opalgebra, "_width", 64)
        monkeypatch.setattr(opalgebra, "_table", {})

    @pytest.mark.parametrize("argv", CASES, ids=" ".join)
    def test_charge_is_the_same_cold_and_warm(self, argv):
        from powerops import opalgebra
        first = charged(argv, self.BUDGET)
        code, out, units = first
        assert code == 0 and out and 0 < units <= self.BUDGET
        assert charged(argv, self.BUDGET) == first
        # after library calls that widened the width and gave out theta
        # fields in another order
        Operation.from_word(["Q1"] + ["a"] * 60)
        assert opalgebra._width > 64
        ring = AmplifiedRing(theta_depth=3, word_depth=4)
        ring.theta(ring.parse("t^2 Q[2 1] x + t Q[1 2 2] x"))
        assert charged(argv, self.BUDGET) == first
        # the budget refuses exactly past the charge
        assert charged(argv, units)[:2] == first[:2]
        assert charged(argv, units - 1)[:2] == [2, ""]
        # and so does a fresh interpreter that gave theta's generators
        # their fields in another order
        env = child_env()
        env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
        proc = subprocess.run([sys.executable, "-c",
                               self.CHILD % self.BUDGET] + argv,
                              capture_output=True, text=True, env=env,
                              check=True)
        assert json.loads(proc.stdout) == first

    def test_leaves_the_straightening_state_as_it_found_it(self):
        from powerops import opalgebra
        Operation.from_word(["Q1"] + ["a"] * 60)
        width, table = opalgebra._width, opalgebra._table
        state = dict(table)
        for argv in self.CASES:
            for budget in (self.BUDGET, 1000):  # answered, then refused
                charged(argv, budget)
                assert opalgebra._width == width
                assert opalgebra._table is table and dict(table) == state
                assert opalgebra._left is None


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
        from powerops.opmodules import standard_module, two_sphere
        blob = json.dumps(standard_module().to_json())
        code, out, _ = run_cli(capsys, "koszul", "acyclic",
                               "--module", blob, "--kmax", "2")
        assert code == 0
        assert "acyclic in positions 1 and 2: yes" in out
        # a free h0 of rank 2 prints as a power of the ring
        blob = json.dumps(two_sphere().to_json())
        code, out, _ = run_cli(capsys, "koszul", "acyclic",
                               "--module", blob, "--kmax", "1")
        assert code == 0
        assert out.splitlines()[1] == ("cap 1: h0 = Q[a]^2, h1 = 0, h2 = 0"
                                       "  [ok]")


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

    def test_failed_derivation_exits_1(self, capsys, monkeypatch):
        # a derivation that cannot finish is a failed assertion, not a bug
        import powerops.cli as cli

        def broken():
            raise ValueError("x")
        monkeypatch.setattr(cli, "derive_commutation", broken)
        code, out, err = run_cli(capsys, "derive")
        assert (code, out, err) == (1, "", "assertion failed: x\n")


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
