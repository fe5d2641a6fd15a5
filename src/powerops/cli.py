"""Batch command-line front end.

One subcommand per capability: normal forms and products in the operation
algebra, module actions and tensor constructions, theta in the free
amplified ring, the norm and logarithm, Koszul homology and Tor, the
isogeny series, the curve-side derivation of the relations, and the full
verification suite.

Output is deterministic: every printed form uses the fixed canonical
term ordering, JSON is emitted with sorted keys, and all randomized
checks run from fixed seeds, so repeated runs are byte-identical.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 malformed
input or usage, 3 internal error, 141 stdout closed by its reader.  Input
is checked where it enters: a handler raises `UsageError` for anything
malformed, so any other exception is a bug and exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .poly import Poly, summands
from .opalgebra import Operation, normal_form
from .opmodules import (ModulePresentation, standard_module, omega_power,
                        tensor, act, check_well_defined)
from .amplified import AmplifiedRing, WindowOverflowError
from .normlog import NormContext
from .padic import DEFAULT_PREC2, DEFAULT_PRECA
from .tower import parse_tower_expr
from .koszul import acyclicity_check, tor_gamma_mod_I, _require_well_defined
from .curve import (DEFAULT_ORDER, isogeny_series, derive_commutation,
                    derive_adem_and_psi, q_series_mismatch_report,
                    format_word_combo)
from .verify import run_checks, run_all

__all__ = ["main"]


class UsageError(ValueError):
    """Malformed input payload (exit code 2)."""


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


# --- input payload parsing --------------------------------------------------

def _read(fn, arg, prefix="", errors=ValueError):
    """fn(arg), where raising one of errors means the input is malformed."""
    try:
        return fn(arg)
    except errors as exc:
        raise UsageError("%s%s" % (prefix, exc))


def _operation(text: str) -> Operation:
    return _read(normal_form, text,
                 "cannot parse operation expression %r: " % text)


def _base_ring_elem(text: str) -> Poly:
    """Parse an expression that must lie in the base ring Z[a]."""
    elem = _read(parse_tower_expr, text, "cannot parse %r: " % text)
    const = elem.c[0].c[0]
    if not const.is_in_R():
        raise UsageError("%r does not lie in Z[a]: denominators remain" % text)
    if elem != const:
        raise UsageError("%r does not lie in Z[a]: it involves d or d'" % text)
    return const.num


def _module_spec(text: str) -> ModulePresentation:
    """R | omega | omega^N, or tensors joined with `x`: "omega x omega^2".

    The name is read by the one grammar (`poly.summands`): a single
    summand whose factors alternate between a module atom and `x`.
    """
    terms = _read(summands, text, "bad module name %r: " % text)
    factors = terms[0][1] if len(terms) == 1 and terms[0][0] == 1 else []
    if len(factors) % 2 == 0 or any(f != ("x", 1) for f in factors[1::2]):
        raise UsageError("bad module name %r (join modules with x, as in "
                         "'omega x R')" % text)
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
# Assembling the complex takes seconds at degree 7 and minutes at 8.
_KMAX_LIMIT = 7
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


# --- subcommand handlers ----------------------------------------------------

def _cmd_nf(args) -> int:
    op = _operation(args.expr)
    if args.json:
        _emit_json(op.to_json())
    else:
        print(op)
    return 0


def _cmd_mul(args) -> int:
    product = _operation(args.left) * _operation(args.right)
    if args.json:
        _emit_json(product.to_json())
    else:
        print(product)
    return 0


def _cmd_act(args) -> int:
    mod = _module_spec(args.module)
    op = _operation(args.expr)
    vec = (_vector(mod, args.vec) if args.vec is not None
           else mod.basis_vector(0))
    out = act(mod, op, vec)
    if args.json:
        _emit_json([p.to_json() for p in out])
    else:
        print(_fmt_vector(out))
    return 0


def _cmd_tensor(args) -> int:
    mod = tensor(_module_spec(args.left), _module_spec(args.right))
    report = check_well_defined(mod)
    if args.json:
        payload = mod.to_json()
        payload["well_defined"] = report["ok"]
        _emit_json(payload)
    else:
        print("rank: %d" % mod.rank)
        for i in range(3):
            for k in range(mod.rank):
                print("Q%d e%d = %s" % (i, k, _fmt_vector(mod.column(i, k))))
        print("five-relation check: %s"
              % ("ok" if report["ok"] else
                 "FAILED (%d)" % len(report["failures"])))
    return 0 if report["ok"] else 1


def _cmd_theta(args) -> int:
    ring = AmplifiedRing(theta_depth=3, word_depth=4)
    # "t^3 x" parses, but its theta leaves the window
    value = _read(ring.theta, _read(ring.parse, args.expr),
                  errors=WindowOverflowError)
    if args.json:
        _emit_json({"input": args.expr, "theta": str(value)})
    else:
        print(value)
    return 0


def _cmd_norm(args) -> int:
    value = NormContext("R").norm_N(_base_ring_elem(args.expr))
    if args.json:
        _emit_json({"input": args.expr, "norm": str(value)})
    else:
        print(value)
    return 0


def _cmd_ell(args) -> int:
    x = _base_ring_elem(args.expr)
    # N x = (Q0 x)^3 = x^6 mod (2, a), so N x is a unit exactly when x is
    if x.constant_term() % 2 == 0:
        raise UsageError("N x has even constant term; x is not a unit")
    if args.prec2 < 1 or args.precA < 1:
        raise UsageError("precision out of range")
    ctx = NormContext("Shat", prec2=args.prec2, precA=args.precA)
    value = ctx.log_ell(x)
    if args.json:
        _emit_json({"input": args.expr, "ell": str(value),
                    "prec2": args.prec2, "precA": args.precA})
    else:
        print(value)
    return 0


def _cmd_tor(args) -> int:
    if args.k < 0:
        raise UsageError("k must be nonnegative")
    label = _LABELS[args.field]
    slices = tor_gamma_mod_I(args.k)[label]
    if args.json:
        _emit_json({"k": args.k, "field": label, "positions": slices})
        return 0
    print("Tor(Gamma/I, omega^%d) over %s" % (args.k, _RING_NAMES[label]))
    if slices is None:
        print("integral slice not defined: the differentials have "
              "nonconstant entries; use --field q or --field f2")
        return 0
    for pos, pair in enumerate(slices):
        print("position %d: %s" % (pos, _fmt_slice(label, pair)))
    return 0


def _cmd_acyclic(args) -> int:
    if args.kmax > _KMAX_LIMIT:
        raise UsageError("--kmax must be at most %d" % _KMAX_LIMIT)
    mod = _module_json_or_name(args.module)
    if args.kmax < 0:
        raise UsageError("k_max must be nonnegative")
    _read(_require_well_defined, mod)
    report = acyclicity_check(mod, args.kmax, args.field)
    if args.json:
        _emit_json(report)
        return 0 if report["ok"] else 1
    label = _LABELS[args.field]
    print("module rank %d over %s[a], degree caps 1..%d"
          % (report["module_rank"], label, args.kmax))
    for cap in sorted(report["caps"]):
        entry = report["caps"][cap]
        print("cap %d: h0 = %s, h1 = %s, h2 = %s  [%s]"
              % (cap, _fmt_slice(label, entry["h0"]),
                 _fmt_slice(label, entry["h1"]),
                 _fmt_slice(label, entry["h2"]),
                 "ok" if entry["ok"] else "FAILED"))
    print("acyclic in positions 1 and 2: %s"
          % ("yes" if report["ok"] else "NO"))
    return 0 if report["ok"] else 1


def _cmd_isogeny(args) -> int:
    if args.order < 2:
        raise UsageError("--order must be at least 2")
    iso = isogeny_series(args.order)
    if args.json:
        _emit_json({"order": args.order, "u": iso.u_series.to_json(),
                    "v": iso.v_series.to_json(),
                    "a_prime": iso.a_target.to_json()})
    else:
        print("u' = %s" % iso.u_series)
        print("v' = %s" % iso.v_series)
        print("a' = %s" % iso.a_target)
    return 0


def _cmd_derive(args) -> int:
    try:
        comm = derive_commutation()
        adem = derive_adem_and_psi()
        qrep = q_series_mismatch_report()
    except ValueError as exc:
        print("assertion failed: %s" % exc, file=sys.stderr)
        return 1
    relation = {}
    for k in (1, 2):
        lhs = "Q%d Q0" % k
        relation[lhs] = format_word_combo(adem["rows"][k])
    commutation = ["Q%d a = %s" % (i, normal_form((c, [j])
                                                  for j, c in enumerate(row)))
                   for i, row in enumerate(comm["matrix"])]
    ok = comm["ok"] and adem["ok"] and qrep["only_known_mismatch"]
    if args.json:
        _emit_json({"commutation": commutation,
                    "relations": {k: "%s = 0" % v
                                  for k, v in relation.items()},
                    "psi": str(adem["psi"]),
                    "q_series": qrep, "ok": ok})
        return 0 if ok else 1
    for line in commutation:
        print(line)
    for lhs in ("Q1 Q0", "Q2 Q0"):
        print("%s relation: %s = 0" % (lhs, relation[lhs]))
    print("Psi = %s" % adem["psi"])
    print("q-series mismatches: %d (known u^2 disagreement only: %s)"
          % (len(qrep["mismatches"]),
             "yes" if qrep["only_known_mismatch"] else "NO"))
    for m in qrep["mismatches"]:
        print("  Q%d at u^%d: isogeny gives %s, table gives %s"
              % (m["series"], m["degree"], m["from_isogeny"], m["tabulated"]))
    return 0 if ok else 1


def _cmd_verify_all(args) -> int:
    if args.json:
        results = [{"name": name, "ok": ok, "detail": detail}
                   for name, ok, detail in run_checks()]
        all_ok = all(r["ok"] for r in results)
        _emit_json({"checks": results, "ok": all_ok})
        return 0 if all_ok else 1
    return 0 if run_all() else 1


# --- parser -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerops",
        description="Exact computations in the algebra of power operations.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
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
    kt = ksub.add_parser("tor", parents=[common],
                         help="Tor against the k-th power of omega")
    kt.add_argument("--k", type=int, required=True)
    kt.add_argument("--field", choices=("q", "f2", "z"), default="z")
    kt.set_defaults(func=_cmd_tor)
    ka = ksub.add_parser("acyclic", parents=[common],
                         help="acyclicity after base change to a field")
    ka.add_argument("--module", required=True,
                    help="module name or ModulePresentation JSON")
    ka.add_argument("--kmax", type=int, default=3)
    ka.add_argument("--field", choices=("q", "f2"), default="q")
    ka.set_defaults(func=_cmd_acyclic)

    p = sub.add_parser("tor", parents=[common],
                       help="shorthand for `koszul tor`")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--field", choices=("q", "f2", "z"), default="z")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
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
