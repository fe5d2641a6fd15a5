"""Batch command-line front end.

One subcommand per capability: normal forms and products in the operation
algebra, module actions and tensor constructions, theta in the free
amplified ring, the norm and logarithm, Koszul homology and Tor, the
isogeny series, the curve-side derivation of the relations, and the full
verification suite.

Each handler computes its answer and returns (exit code, JSON payload,
text) without printing; `main` alone prints, the payload under --json and
the text otherwise.  Output is deterministic: every printed form uses the
fixed canonical term ordering, JSON is emitted with sorted keys, and all
randomized checks run from fixed seeds, so repeated runs are
byte-identical.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 malformed
input or usage, 3 internal error, 141 stdout closed by its reader.  Input
is checked where it enters: a handler raises `UsageError` for anything
malformed, so any other exception is a bug and exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .poly import Poly, summands
from .opalgebra import Operation, normal_form, _budget, _OverBudget
from .opmodules import (ModulePresentation, standard_module, omega_power,
                        tensor, act, check_well_defined)
from .amplified import AmplifiedRing, WindowOverflowError
from .normlog import NormContext
from .padic import DEFAULT_PREC2, DEFAULT_PRECA
from .tower import _TOWER_ATOMS, parse_tower_expr
from .koszul import acyclicity_check, tor_gamma_mod_I, _require_well_defined
from .curve import (DEFAULT_ORDER, isogeny_series, derive_commutation,
                    derive_adem_and_psi, q_series_mismatch_report,
                    format_word_combo)
from .verify import run_checks

__all__ = ["main"]


class UsageError(ValueError):
    """Malformed input payload (exit code 2)."""


# --- input payload parsing --------------------------------------------------

def _read(fn, arg, prefix="", errors=ValueError):
    """fn(arg), where raising one of errors means the input is malformed."""
    try:
        return fn(arg)
    except errors as exc:
        raise UsageError("%s%s" % (prefix, exc))


def _check(text: str, prefix: str, degree: bool = False):
    """Refuse, by a scan that builds nothing, any term of text whose
    integer factors n^k pass `_BITS_LIMIT` bits (k times the bits of n),
    with degree set any term whose exponents of a, d and d' pass
    `_DEGREE_LIMIT`, and any term with more than `_LETTER_LIMIT` letters
    a, Q0, Q1 and Q2."""
    for _, factors in _read(summands, text, prefix):
        bits = 0
        for tok, k in factors:
            if tok.isdigit():
                bits += k * int(tok).bit_length()
                if bits > _BITS_LIMIT:
                    raise UsageError(
                        "integer factor %s takes a term of %r past %d bits "
                        "(n^k counts k times the bits of n)"
                        % (tok if k == 1 else "%s^%d" % (tok, k), text,
                           _BITS_LIMIT))
        if degree and sum(k for tok, k in factors
                          if tok in _TOWER_ATOMS) > _DEGREE_LIMIT:
            raise UsageError("%r has a term of degree above %d in a, d and "
                             "d'" % (text, _DEGREE_LIMIT))
        if sum(k for tok, k in factors if tok in _LETTERS) > _LETTER_LIMIT:
            raise UsageError("%r has a term of more than %d letters a, Q0, "
                             "Q1 and Q2" % (text, _LETTER_LIMIT))


def _parse(fn, text: str, prefix: str, degree: bool = False):
    """_read(fn, text, prefix) for every expression argument, once
    `_check` has passed it."""
    _check(text, prefix, degree)
    return _read(fn, text, prefix)


def _operation(text: str) -> Operation:
    return _parse(normal_form, text,
                  "cannot parse operation expression %r: " % text)


def _base_ring_elem(text: str) -> Poly:
    """Parse an expression that must lie in the base ring Z[a]."""
    elem = _parse(parse_tower_expr, text, "cannot parse %r: " % text, True)
    const = elem.c[0].c[0]
    if not const.is_in_R():
        raise UsageError("%r does not lie in Z[a]: denominators remain" % text)
    if elem != const:
        raise UsageError("%r does not lie in Z[a]: it involves d or d'" % text)
    return const.num


def _module_spec(text: str) -> ModulePresentation:
    """R | omega | omega^N, or tensors joined with `x`: "omega x omega^2".

    The name is read by the one grammar (`poly.summands`): a single
    summand whose factors alternate between a module atom and `x`.  Its
    size, the number of tensor factors with omega^N counted N times, is
    at most `_OMEGA_LIMIT`.
    """
    terms = _read(summands, text, "bad module name %r: " % text)
    factors = terms[0][1] if len(terms) == 1 and terms[0][0] == 1 else []
    if len(factors) % 2 == 0 or any(f != ("x", 1) for f in factors[1::2]):
        raise UsageError("bad module name %r (join modules with x, as in "
                         "'omega x R')" % text)
    if sum(n if name == "omega" else 1
           for name, n in factors[::2]) > _OMEGA_LIMIT:
        raise UsageError("module %r has more than %d tensor factors "
                         "(omega^N counts N)" % (text, _OMEGA_LIMIT))
    mod = None
    for name, n in factors[::2]:
        if name == "omega":
            atom = omega_power(n)
        elif (name, n) == ("R", 1):
            atom = standard_module()
        else:
            raise UsageError("unknown module %r (use R, omega, or omega^N)"
                             % (name if n == 1 else "%s^%d" % (name, n)))
        mod = atom if mod is None else tensor(mod, atom)
    return mod


def _module_json_or_name(text: str) -> ModulePresentation:
    stripped = text.strip()
    if stripped.startswith("{"):
        return _read(lambda t: ModulePresentation.from_json(json.loads(t)),
                     stripped, "bad module JSON: ",
                     (ValueError, KeyError, TypeError))
    return _module_spec(stripped)


def _vector(m: ModulePresentation, text: str):
    vec = _read(lambda t: tuple(Poly.from_json(c) for c in json.loads(t)),
                text, "bad vector payload %r: " % text, (ValueError, TypeError))
    if len(vec) != m.rank:
        raise UsageError("vector has %d components; module has rank %d"
                         % (len(vec), m.rank))
    return vec


# --- formatting -------------------------------------------------------------

_LABELS = {"z": "Z", "q": "Q", "f2": "F2"}
# Each limit keeps a cold command within seconds; the README ("Command-line
# interface") gives the measured times at each limit and past it.
# The rank of the Koszul complex doubles with each degree of --kmax.
_KMAX_LIMIT = 7
# Tor's cost grows with k, and the isogeny series' with its order.
_K_LIMIT = 256
_ORDER_LIMIT = 128
# The norm and the logarithm grow with the degree in a, d and d'.
_DEGREE_LIMIT = 256
# Arithmetic on the input's integers grows with their bits.
_BITS_LIMIT = 1 << 19
# A Q letter on a^k costs about k^3, and a long word costs tuple work
# that the work budget does not see.
_LETTERS = ("a", "Q0", "Q1", "Q2")
_LETTER_LIMIT = 256
# nf, mul, act and theta stop once the engines have charged this many
# units of work (see `opalgebra._budget`).
_WORK_BUDGET = 600_000_000
# A module takes one tensor product per factor, on coefficients whose
# degree grows with each.
_OMEGA_LIMIT = 512
# The logarithm's cost grows with both precisions.
_PREC2_LIMIT = 256
_PRECA_LIMIT = 256
_RING_NAMES = {"Z": "Z", "Q": "Q[a]", "F2": "F2[a]"}


def _fmt_slice(label: str, pair: dict) -> str:
    """Render {"free": f, "divisors": [...]} as a direct sum of cyclics."""
    ring = _RING_NAMES[label]
    parts = []
    if pair["free"] == 1:
        parts.append(ring)
    elif pair["free"] > 1:
        parts.append("%s^%d" % (ring, pair["free"]))
    for div in pair["divisors"]:
        parts.append("%s/(%s)" % (ring, div) if label != "Z"
                     else "Z/%s" % div)
    return " + ".join(parts) if parts else "0"


def _fmt_vector(vec) -> str:
    return "(" + ", ".join(str(p) for p in vec) + ")"


# --- subcommand handlers: each returns (exit code, payload, text) -----------

def _budgeted(handler):
    """handler, refused as malformed once its work passes `_WORK_BUDGET`."""
    def run(args):
        try:
            with _budget(_WORK_BUDGET):
                return handler(args)
        except _OverBudget:
            text = (repr(args.expr) if "expr" in args
                    else "%r times %r" % (args.left, args.right))
            raise UsageError("%s takes more than %d units of work"
                             % (text, _WORK_BUDGET)) from None
    return run


@_budgeted
def _cmd_nf(args):
    op = _operation(args.expr)
    return 0, op.to_json(), str(op)


@_budgeted
def _cmd_mul(args):
    product = _operation(args.left) * _operation(args.right)
    return 0, product.to_json(), str(product)


@_budgeted
def _cmd_act(args):
    mod = _module_spec(args.module)
    op = _operation(args.expr)
    vec = (_vector(mod, args.vec) if args.vec is not None
           else mod.basis_vector(0))
    out = act(mod, op, vec)
    return 0, [p.to_json() for p in out], _fmt_vector(out)


def _cmd_tensor(args):
    mod = tensor(_module_spec(args.left), _module_spec(args.right))
    report = check_well_defined(mod)
    ok = report["ok"]
    lines = ["rank: %d" % mod.rank]
    lines += ["Q%d e%d = %s" % (i, k, _fmt_vector(mod.column(i, k)))
              for i in range(3) for k in range(mod.rank)]
    lines.append("five-relation check: %s"
                 % ("ok" if ok else "FAILED (%d)" % len(report["failures"])))
    payload = dict(mod.to_json(), well_defined=ok)
    return (0 if ok else 1), payload, "\n".join(lines)


@_budgeted
def _cmd_theta(args):
    ring = AmplifiedRing(theta_depth=3, word_depth=4)
    p = _parse(ring.parse, args.expr, "", True)
    # "t^3 x" parses, but its theta leaves the window
    value = str(_read(ring.theta, p, errors=WindowOverflowError))
    return 0, {"input": args.expr, "theta": value}, value


def _cmd_norm(args):
    value = str(NormContext("R").norm_N(_base_ring_elem(args.expr)))
    return 0, {"input": args.expr, "norm": value}, value


def _cmd_ell(args):
    if args.prec2 > _PREC2_LIMIT:
        raise UsageError("--prec2 must be at most %d" % _PREC2_LIMIT)
    if args.precA > _PRECA_LIMIT:
        raise UsageError("--precA must be at most %d" % _PRECA_LIMIT)
    x = _base_ring_elem(args.expr)
    # N x = (Q0 x)^3 = x^6 mod (2, a), so N x is a unit exactly when x is
    if x.constant_term() % 2 == 0:
        raise UsageError("N x has even constant term; x is not a unit")
    if args.prec2 < 1 or args.precA < 1:
        raise UsageError("precision out of range")
    ctx = NormContext("Shat", prec2=args.prec2, precA=args.precA)
    value = str(ctx.log_ell(x))
    return 0, {"input": args.expr, "ell": value, "prec2": args.prec2,
               "precA": args.precA}, value


def _cmd_tor(args):
    if args.k < 0:
        raise UsageError("k must be nonnegative")
    if args.k > _K_LIMIT:
        raise UsageError("--k must be at most %d" % _K_LIMIT)
    label = _LABELS[args.field]
    slices = tor_gamma_mod_I(args.k)[label]
    lines = ["Tor(Gamma/I, omega^%d) over %s" % (args.k, _RING_NAMES[label])]
    if slices is None:
        lines.append("integral slice not defined: the differentials have "
                     "nonconstant entries; use --field q or --field f2")
    else:
        lines += ["position %d: %s" % (pos, _fmt_slice(label, pair))
                  for pos, pair in enumerate(slices)]
    payload = {"k": args.k, "field": label, "positions": slices}
    return 0, payload, "\n".join(lines)


def _cmd_acyclic(args):
    if args.kmax > _KMAX_LIMIT:
        raise UsageError("--kmax must be at most %d" % _KMAX_LIMIT)
    mod = _module_json_or_name(args.module)
    if args.kmax < 0:
        raise UsageError("k_max must be nonnegative")
    _read(_require_well_defined, mod)
    report = acyclicity_check(mod, args.kmax, args.field)
    label = _LABELS[args.field]
    lines = ["module rank %d over %s[a], degree caps 1..%d"
             % (report["module_rank"], label, args.kmax)]
    for cap in sorted(report["caps"]):
        entry = report["caps"][cap]
        lines.append("cap %d: h0 = %s, h1 = %s, h2 = %s  [%s]"
                     % (cap, _fmt_slice(label, entry["h0"]),
                        _fmt_slice(label, entry["h1"]),
                        _fmt_slice(label, entry["h2"]),
                        "ok" if entry["ok"] else "FAILED"))
    lines.append("acyclic in positions 1 and 2: %s"
                 % ("yes" if report["ok"] else "NO"))
    return (0 if report["ok"] else 1), report, "\n".join(lines)


def _cmd_isogeny(args):
    if args.order < 2:
        raise UsageError("--order must be at least 2")
    if args.order > _ORDER_LIMIT:
        raise UsageError("--order must be at most %d" % _ORDER_LIMIT)
    iso = isogeny_series(args.order)
    payload = {"order": args.order, "u": iso.u_series.to_json(),
               "v": iso.v_series.to_json(), "a_prime": iso.a_target.to_json()}
    text = "u' = %s\nv' = %s\na' = %s" % (iso.u_series, iso.v_series,
                                           iso.a_target)
    return 0, payload, text


def _cmd_derive(args):
    try:
        comm = derive_commutation()
        adem = derive_adem_and_psi()
        qrep = q_series_mismatch_report()
    except ValueError as exc:
        raise AssertionError(exc) from exc
    relations = {"Q%d Q0" % k: "%s = 0" % format_word_combo(adem["rows"][k])
                 for k in (1, 2)}
    commutation = ["Q%d a = %s" % (i, normal_form((c, [j])
                                                  for j, c in enumerate(row)))
                   for i, row in enumerate(comm["matrix"])]
    ok = comm["ok"] and adem["ok"] and qrep["only_known_mismatch"]
    lines = commutation + ["%s relation: %s" % item
                           for item in relations.items()]
    lines.append("Psi = %s" % adem["psi"])
    lines.append("q-series mismatches: %d (known u^2 disagreement only: %s)"
                 % (len(qrep["mismatches"]),
                    "yes" if qrep["only_known_mismatch"] else "NO"))
    lines += ["  Q%d at u^%d: isogeny gives %s, table gives %s"
              % (m["series"], m["degree"], m["from_isogeny"], m["tabulated"])
              for m in qrep["mismatches"]]
    payload = {"commutation": commutation, "relations": relations,
               "psi": str(adem["psi"]), "q_series": qrep, "ok": ok}
    return (0 if ok else 1), payload, "\n".join(lines)


def _cmd_verify_all(args):
    results = list(run_checks())
    ok = all(passed for _, passed, _ in results)
    lines = ["%2d/%d  %s  %-22s %s" % (idx, len(results),
                                       "PASS" if passed else "FAIL", name,
                                       detail)
             for idx, (name, passed, detail) in enumerate(results, start=1)]
    lines.append("overall: %s" % ("PASS" if ok else "FAIL"))
    checks = [{"name": name, "ok": passed, "detail": detail}
              for name, passed, detail in results]
    return (0 if ok else 1), {"checks": checks, "ok": ok}, "\n".join(lines)


# --- parser -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse, with the alternatives of an invalid choice quoted as
    Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0 quote them, so that usage
    errors stay byte-identical on later releases that print them bare,
    such as 3.13.13."""

    def error(self, message):
        head, sep, rest = message.rpartition("(choose from ")
        if "invalid choice" in head and "'" not in rest:
            rest = ", ".join(map(repr, rest[:-1].split(", "))) + ")"
        super().error(head + sep + rest)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: it holds no state of a
    parse (no action has a mutable default, handlers are bound here, and
    argparse reads COLUMNS when it formats a message), so every `main`
    call can reuse it."""
    parser = _Parser(
        prog="powerops",
        description="Exact computations in the algebra of power operations.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    tor_flags = argparse.ArgumentParser(add_help=False)
    tor_flags.add_argument("--k", type=int, required=True)
    tor_flags.add_argument("--field", choices=("q", "f2", "z"), default="z")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    sub.required = True

    p = sub.add_parser("nf", parents=[common],
                       help="normal form of an operation expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("mul", parents=[common],
                       help="product of two operation expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("act", parents=[common],
                       help="apply an operation to a module element")
    p.add_argument("expr")
    p.add_argument("--module", default="R",
                   help="R, omega, omega^N, or tensors joined with x")
    p.add_argument("--vec", default=None,
                   help="JSON list of coefficient lists (default: generator)")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("tensor", parents=[common],
                       help="tensor product module and its action")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("theta", parents=[common],
                       help="theta of an element of the free amplified ring")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("norm", parents=[common],
                       help="norm N(x) for x in the base ring")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("ell", parents=[common],
                       help="logarithm ell(x) in the completed ring")
    p.add_argument("expr")
    p.add_argument("--prec2", type=int, default=DEFAULT_PREC2)
    p.add_argument("--precA", type=int, default=DEFAULT_PRECA)
    p.set_defaults(func=_cmd_ell)

    p = sub.add_parser("koszul", parents=[common],
                       help="homology of the induced Koszul complex")
    ksub = p.add_subparsers(dest="koszul_command", metavar="FORM")
    ksub.required = True
    kt = ksub.add_parser("tor", parents=[common, tor_flags],
                         help="Tor against the k-th power of omega")
    kt.set_defaults(func=_cmd_tor)
    ka = ksub.add_parser("acyclic", parents=[common],
                         help="acyclicity after base change to a field")
    ka.add_argument("--module", required=True,
                    help="module name or ModulePresentation JSON")
    ka.add_argument("--kmax", type=int, default=3)
    ka.add_argument("--field", choices=("q", "f2"), default="q")
    ka.set_defaults(func=_cmd_acyclic)

    p = sub.add_parser("tor", parents=[common, tor_flags],
                       help="shorthand for `koszul tor`")
    p.set_defaults(func=_cmd_tor)

    p = sub.add_parser("isogeny", parents=[common],
                       help="the isogeny series u', v' and the target curve")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.set_defaults(func=_cmd_isogeny)

    p = sub.add_parser("derive", parents=[common],
                       help="re-derive the relations from the curve")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("verify-all", parents=[common],
                       help="run the twelve-check verification suite")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Exact answers are printed in full, however many digits they have.
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        code, payload, text = args.func(args)
        print(json.dumps(payload, sort_keys=True, indent=2) if args.json
              else text)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away, as in `powerops ... | head`: not
        # a bug.  stdout now points at devnull, so that the interpreter's
        # last flush cannot raise again; 141 is what a shell reports for a
        # writer killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        print("assertion failed: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the contract maps these to 3
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
