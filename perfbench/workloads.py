"""The benchmark's four workloads.

A workload has three parts:

* ``build(seed)`` draws plain-data specs from the seed; the same seed gives
  the same specs.  Each pass holds a fixed number of operations of each
  kind and size class, and the seed picks the operands and the order, so
  the work in a pass barely depends on the seed.
* ``prepare(specs)`` turns the specs into operations on fresh program
  state (a new ring, new modules).  An operation is a call with no
  arguments and a check of its output.
* ``solve_case(seed)`` gives the headline computation, run cold in a
  child interpreter, and the check of its result.

Checks use properties or independent computations, never stored outputs.
Only the calls are timed; checks run after the pass.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from functools import partial

from checks import horner, product_vanishes, parse_sorted_json


class Workload:
    """Common part of the four workloads; see the module docstring."""

    name = ""
    #: the powerops modules a user of this workload imports
    modules = ()
    #: cold headline solves per run; each sample takes a fresh interpreter
    solves = 3
    #: passes of the traced run, after its warm-up pass
    trace_passes = 2

    def stdout_bytes(self, outs) -> int:
        """Bytes the operations printed (only the cli workload prints)."""
        return 0


class Op:
    """One operation of a pass: ``call()`` is timed, ``check(out)`` is not."""

    __slots__ = ("call", "check")

    def __init__(self, call, check):
        self.call = call
        self.check = check


def _rng(name: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (name, seed))


def _small_poly(rng, degree, bound):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    return coeffs + [rng.choice([-1, 1]) * rng.randint(1, bound)]


# --- theta: the amplified ring ---------------------------------------------

_THETA_GENS = [(j, w) for j in (0, 1) for w in ((), (1,), (2,))]
_THETA_PAIRS = [(g, h) for n, g in enumerate(_THETA_GENS)
                for h in _THETA_GENS[n:]]
# Shapes of window elements: (number of terms, factors per term).  A cycle
# of shapes has 6 one-factor and 6 two-factor terms.
_THETA_SHAPES = [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (1, 1)]
_NONZERO = (-3, -2, -1, 1, 2, 3)


def _deck(rng, cards, n):
    """n cards, each of cards equally often (up to one), in seeded order."""
    deck = (list(cards) * (n // len(cards) + 1))[:n]
    rng.shuffle(deck)
    return deck


def _window_spec(rng, shape, monomials):
    """A window element: a constant plus terms (c0 + c1 a) m, with each
    monomial m taken from monomials[number of factors]."""
    terms, factors = shape
    out = [((rng.choice(_NONZERO),), ())]
    for _ in range(terms):
        coeff = (rng.choice(_NONZERO), rng.choice(_NONZERO))
        out.append((coeff, next(monomials[factors])))
    return out


class ThetaWorkload(Workload):
    name = "theta"
    modules = ("powerops.amplified",)
    # per pass: theta of 14 cycles of shapes, sums, a-multiples, products
    THETA_CYCLES = 14
    PAIRS = 12
    WITNESS_EVERY = 12
    SCALAR_DEGREE = 60

    def build(self, seed):
        rng = _rng(self.name, seed)
        # theta is memoized per ring, so a pass costs about what its set of
        # distinct monomials costs.  Every generator and every pair of
        # generators appears equally often; the seed deals them out to the
        # elements and draws the coefficients, so the work in a pass hardly
        # depends on the seed.
        n = self.THETA_CYCLES * 6
        monomials = {1: iter(_deck(rng, [(g,) for g in _THETA_GENS], n)),
                     2: iter(_deck(rng, _THETA_PAIRS, n))}
        specs = [("theta", _window_spec(rng, shape, monomials))
                 for shape in _THETA_SHAPES * self.THETA_CYCLES]
        for kind in ("add", "amul", "mul"):
            for n in range(self.PAIRS):
                shape = _THETA_SHAPES[n % len(_THETA_SHAPES)]
                left = _window_spec(rng, shape, self._monomials(rng))
                if kind == "amul":  # c a^k
                    right = (0,) * rng.randint(1, 3) + (rng.choice(_NONZERO),)
                else:
                    right = _window_spec(rng, shape, self._monomials(rng))
                specs.append((kind, left, right))
        rng.shuffle(specs)
        thetas = [n for n, s in enumerate(specs) if s[0] == "theta"]
        witness = set(rng.sample(thetas, len(thetas) // self.WITNESS_EVERY))
        # where sums, a-multiples and products are evaluated
        point = {g: rng.getrandbits(61) for g in ["a"] + _THETA_GENS}
        return {"ops": specs, "witness": witness, "point": point}

    @staticmethod
    def _monomials(rng):
        return {1: iter([(g,) for g in _deck(rng, _THETA_GENS, 3)]),
                2: iter(_deck(rng, _THETA_PAIRS, 3))}

    def prepare(self, specs):
        from powerops.amplified import AmplifiedRing, WitnessModel
        from powerops.poly import Poly
        ring = AmplifiedRing(theta_depth=2, word_depth=3)
        model = WitnessModel(max_degree=6)
        point = specs["point"]

        def element(spec):
            total = ring.zero()
            for coeff, gens in spec:
                term = ring.const(Poly(coeff))
                for j, w in gens:
                    term = term * ring.gen(j, w)
                total = total + term
            return total

        def value(p):
            return _eval_amplified(p, point)

        ops = []
        for n, spec in enumerate(specs["ops"]):
            kind = spec[0]
            p = element(spec[1])
            if kind == "theta":
                ops.append(Op(partial(ring.theta, p),
                              _theta_check(ring, p, model if n in
                                           specs["witness"] else None)))
            elif kind == "amul":
                scalar = Poly(spec[2])
                factor = horner(spec[2], point["a"])
                ops.append(Op(partial(p.__rmul__, scalar),
                              _value_check(value, value(p) * factor)))
            else:
                q = element(spec[2])
                op = p.__add__ if kind == "add" else p.__mul__
                want = (value(p) + value(q) if kind == "add"
                        else value(p) * value(q))
                ops.append(Op(partial(op, q), _value_check(value, want)))
        return ops

    def solve_case(self, seed):
        from powerops.amplified import AmplifiedRing
        from powerops.poly import Poly
        rng = _rng(self.name + "-solve", seed)
        ring = AmplifiedRing(theta_depth=1, word_depth=1)
        x16 = ring.x() ** 16
        scalar = ring.const(Poly(_small_poly(rng, self.SCALAR_DEGREE, 9)))

        def call():
            return ring.theta(x16), ring.theta(scalar)

        def check(out):
            return (_theta_check(ring, x16, None)(out[0])
                    and _theta_check(ring, scalar, None)(out[1]))
        return call, check


def _eval_amplified(p, point):
    """Value of a window polynomial at integer values of a and of each
    generator: a ring homomorphism to Z, computed without the ring."""
    total = 0
    alpha = point["a"]
    for mono, c in p.terms.items():
        v = horner(c.coeffs, alpha)
        for g, e in mono:
            v *= point[g] ** e
        total += v
    return total


def _value_check(value, want):
    return lambda out: value(out) == want


def _theta_check(ring, p, model):
    """2 theta(p) = Q0(p) - p^2, and on a subsample the witness model's
    theta (defined by division) agrees with the embedded result."""
    def check(out):
        if out + out != ring.q(0, p) - p * p:
            return False
        return model is None or model.theta(model.embed(p)) == \
            model.embed(out)
    return check


# --- koszul: straightening, assembly and Smith forms ------------------------

_KOSZUL_MODULES = ("R", "omega", "omega^2", "two_sphere")


def _module(name):
    from powerops import opmodules
    return {"R": opmodules.standard_module, "omega": opmodules.omega,
            "omega^2": partial(opmodules.omega_power, 2),
            "two_sphere": opmodules.two_sphere}[name]()


class KoszulWorkload(Workload):
    name = "koszul"
    modules = ("powerops.koszul",)
    solves = 2
    trace_passes = 1
    DSQ_DEGREE = 5

    def build(self, seed):
        rng = _rng(self.name, seed)
        specs = [("acyclic", m, kmax, field) for m in _KOSZUL_MODULES
                 for kmax in (2, 3) for field in ("q", "f2")]
        specs += [("tor", k) for k in range(4)]
        specs.append(("dsq", self.DSQ_DEGREE))
        rng.shuffle(specs)
        return {"ops": specs}

    def prepare(self, specs):
        from powerops.koszul import (acyclicity_check, tor_gamma_mod_I,
                                     build_complex)
        from powerops.opmodules import omega
        ops = []
        for spec in specs["ops"]:
            kind = spec[0]
            if kind == "acyclic":
                _, name, kmax, field = spec
                module = _module(name)
                ops.append(Op(partial(acyclicity_check, module, kmax, field),
                              _acyclic_check(module.rank, kmax)))
            elif kind == "tor":
                ops.append(Op(partial(tor_gamma_mod_I, spec[1]),
                              _tor_check(spec[1])))
            else:
                module = omega()
                ops.append(Op(_dsq_call(build_complex, module, spec[1]),
                              _dsq_check))
        return ops

    def solve_case(self, seed):
        from powerops.koszul import acyclicity_check, build_complex
        from powerops.opmodules import omega
        module = omega()

        def call():
            report = acyclicity_check(module, 4, "q")
            return report, _dsq_call(build_complex, module, 6)()

        def check(out):
            return _acyclic_check(1, 4)(out[0]) and _dsq_check(out[1])
        return call, check


def _dsq_call(build_complex, module, k):
    def call():
        cx = build_complex(module, k)
        return cx, cx.d_squared_checks()
    return call


def _dsq_check(out):
    cx, flags = out
    return (tuple(flags) == (True, True)
            and product_vanishes(cx.d0, cx.d1)
            and product_vanishes(cx.d1, cx.d2))


_ZERO_SLICE = {"free": 0, "divisors": []}


def _acyclic_check(rank, kmax):
    """Every cap vanishes in positions 1 and 2 and is free of the module's
    rank in position 0."""
    def check(report):
        caps = report["caps"]
        if sorted(caps) != list(range(1, kmax + 1)):
            return False
        for entry in caps.values():
            if (entry["h1"] != _ZERO_SLICE or entry["h2"] != _ZERO_SLICE
                    or entry["h0"] != {"free": rank, "divisors": []}):
                return False
        return report["ok"] is True
    return check


def _tor_check(k):
    """Over each field slice the free ranks have alternating sum
    rank - 3 rank + 2 rank = 0; the reduced differentials compose to zero;
    and Tor over Z of omega is (0, Z/2, 0), the paper's value."""
    def check(report):
        from powerops.koszul import reduced_matrices
        from powerops.opmodules import omega_power
        for label in ("Q", "F2"):
            slices = report[label]
            if slices[0]["free"] - slices[1]["free"] + slices[2]["free"]:
                return False
        d1, d2 = reduced_matrices(omega_power(k))
        if not product_vanishes(d1, d2):
            return False
        if k == 1:
            z = [(s["free"], [str(d) for d in s["divisors"]])
                 for s in report["Z"]]
            return z == [(0, []), (0, ["2"]), (0, [])]
        return True
    return check


# --- isogeny_norm: tower, series, p-adics, norm and logarithm ---------------

# (sign, k) for the units sign * D^k whose logarithm must vanish
_LOG_UNITS = ((1, 1), (-1, 2), (1, -1), (-1, -2))


class IsogenyNormWorkload(Workload):
    name = "isogeny_norm"
    modules = ("powerops.normlog", "powerops.curve")
    solves = 5
    # (kind, host, count per pass)
    MIX = (("norm_pair", "R", 20), ("norm_pair", "S", 6), ("norm_int", "R", 8),
           ("trace", "R", 10), ("trace", "S", 4), ("psi", "R", 10),
           ("psi", "S", 3), ("log_pair", "Shat", 10),
           ("log_unit", "Shat", 4), ("derive", None, 1))

    def build(self, seed):
        rng = _rng(self.name, seed)
        specs = []
        for kind, host, count in self.MIX:
            for n in range(count):
                if kind == "norm_int":
                    args = (rng.choice([-1, 1]) * rng.randint(1, 60),)
                elif kind == "log_pair":
                    args = tuple([2 * rng.randint(-4, 4) + 1]
                                 + _small_poly(rng, 1, 4) for _ in range(2))
                elif kind == "log_unit":
                    args = _LOG_UNITS[n]
                elif kind == "derive":
                    args = ()
                elif host == "S":
                    # D-power denominators 1 and 2, alternately
                    args = tuple((_small_poly(rng, 2, 5), 1 + (n + i) % 2)
                                 for i in range(2))
                else:
                    args = tuple(_small_poly(rng, 3, 5) for _ in range(2))
                specs.append((kind, host) + args)
        rng.shuffle(specs)
        return {"ops": specs}

    def prepare(self, specs):
        from powerops.normlog import NormContext
        from powerops.poly import Poly, DISC
        from powerops.tower import SFrac
        from powerops.padic import PadicElem
        from powerops.curve import derive_commutation
        hosts = {"R": NormContext("R"), "S": NormContext("S"),
                 "Shat": NormContext("Shat")}

        def element(host, arg):
            if host == "S":
                return SFrac(Poly(arg[0]), arg[1])
            return Poly(arg)

        ops = []
        for spec in specs["ops"]:
            kind, host = spec[0], spec[1]
            ctx = hosts.get(host)
            if kind == "norm_int":
                n = spec[2]
                ops.append(Op(partial(ctx.norm_N, Poly(n)),
                              _equals(Poly(n ** 3))))
            elif kind == "log_unit":
                sign, k = spec[2], spec[3]
                if k >= 0:
                    x, log_ctx = Poly(sign) * DISC ** k, ctx
                else:
                    # negative powers live in S, where M is exact
                    x, log_ctx = SFrac(Poly(sign), -k), hosts["S"]
                zero = PadicElem.zero(ctx.prec2, ctx.precA)
                ops.append(Op(partial(log_ctx.log_ell, x),
                              lambda out, z=zero: out.agrees_with(z)))
            elif kind == "derive":
                ops.append(Op(derive_commutation, _derive_check))
            else:
                x, y = element(host, spec[2]), element(host, spec[3])
                ops.append(_pair_op(kind, ctx, x, y))
        return ops

    def solve_case(self, seed):
        from powerops.curve import isogeny_series, derive_commutation

        def check(out):
            low = isogeny_series(12)
            return (_series_equal(out.u_series.truncate(12), low.u_series)
                    and _series_equal(out.v_series.truncate(12),
                                      low.v_series)
                    and out.a_target == low.a_target
                    and _derive_check(derive_commutation()))
        return partial(isogeny_series, 24), check


def _series_equal(s, t):
    return s.order == t.order and s.coeffs == t.coeffs


def _equals(want):
    return lambda out: out == want


def _derive_check(report):
    """The curve-derived commutation matrix agrees with push_through."""
    from powerops.opalgebra import push_through
    return report["ok"] is True and all(
        tuple(report["matrix"][i]) == tuple(push_through(i, 1))
        for i in range(3))


def _pair_op(kind, ctx, x, y):
    """Three calls on x, y and their sum or product, checked together:
    N and Psi are multiplicative, T is additive, ell turns products into
    sums to the stated precision."""
    if kind == "trace":
        fn, z = ctx.trace_T, x + y
    else:
        fn, z = {"norm_pair": ctx.norm_N, "psi": ctx.psi_value,
                 "log_pair": ctx.log_ell}[kind], x * y

    def call():
        return fn(x), fn(y), fn(z)

    def check(out):
        fx, fy, fz = out
        if kind == "trace":
            return fz == fx + fy
        if kind == "log_pair":
            return fz.agrees_with(fx + fy)
        return fz == fx * fy
    return Op(call, check)


# --- cli: the command-line front end, in process ---------------------------

_CLI_MODULES = ("R", "omega", "omega^2", "omega^3")
_QS = ("Q0", "Q1", "Q2")
_THETA_FACTORS = ("x", "t x", "Q[1] x", "Q[2] x", "t Q[1] x", "x^2")


def _word(rng, length, qs):
    """A word of the given length with one a, in the middle, and Q letters
    from the iterator qs."""
    letters = [next(qs) for _ in range(length - 1)]
    letters.insert(length // 2, "a")
    return rng.choice(["", "2 ", "3 "]) + " ".join(letters)


def _sum_text(coeffs, var):
    """Render integer coefficients (little-endian) as "3 a^2 - a + 1"."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        mono = "" if k == 0 else (var if k == 1 else "%s^%d" % (var, k))
        body = (str(abs(c)) + (" " + mono if mono else "")
                if abs(c) != 1 or not mono else mono)
        parts.append(("- " if c < 0 else ("+ " if parts else "")) + body)
    return " ".join(parts) or "0"


class CliWorkload(Workload):
    name = "cli"
    modules = ("powerops.cli",)
    solves = 2

    def build(self, seed):
        rng = _rng(self.name, seed)
        # Q letters and theta factors are dealt from decks, and each
        # command keeps its size class, so the work in a pass hardly
        # depends on the seed.
        qs = iter(_deck(rng, _QS, 8 * 4 + 8 * 3 + 6 * 2))
        factors = iter(_deck(rng, _THETA_FACTORS, 8))
        cmds = []
        for n in range(8):
            cmds.append(["nf", _word(rng, 3 + n % 4, qs)])
        for n in range(8):
            cmds.append(["mul", _word(rng, 1 + n % 3, qs),
                         _word(rng, 3 - n % 3, qs)])
        for n in range(6):
            cmds.append(["act", _word(rng, 1 + n % 4, qs), "--module",
                         rng.choice(_CLI_MODULES)])
        for _ in range(4):
            cmds.append(["tensor", rng.choice(_CLI_MODULES),
                         rng.choice(_CLI_MODULES)])
        for _ in range(4):
            terms = ["%d a %s" % (rng.randint(1, 3), next(factors))
                     for _ in range(2)]
            cmds.append(["theta", " - ".join(terms)])
        for _ in range(6):
            cmds.append(["norm", _sum_text(_small_poly(rng, 3, 5), "a")])
        for _ in range(4):
            coeffs = [2 * rng.randint(-4, 4) + 1] + _small_poly(rng, 1, 4)
            cmds.append(["ell", _sum_text(coeffs, "a")])
        for k in range(4):
            cmds.append(["tor", "--k", str(k), "--field",
                         rng.choice(["z", "q", "f2"])])
            cmds.append(["koszul", "tor", "--k", str(3 - k), "--field",
                         rng.choice(["z", "q", "f2"])])
        for kmax, field in ((1, "q"), (2, "f2"), (3, "q"), (3, "f2")):
            cmds.append(["koszul", "acyclic", "--module",
                         rng.choice(_CLI_MODULES[:3]), "--kmax", str(kmax),
                         "--field", field])
        for _ in range(2):
            cmds.append(["isogeny", "--order", str(rng.randint(2, 12))])
        cmds += [["derive"], ["derive"]]
        for n, cmd in enumerate(cmds):
            if n % 2:
                cmd.append("--json")
        rng.shuffle(cmds)
        return {"ops": cmds}

    def stdout_bytes(self, outs) -> int:
        return sum(len(out[1].encode()) for out in outs
                   if isinstance(out, tuple))

    def prepare(self, specs):
        from powerops.cli import main
        seen = specs.setdefault("stdout", {})
        return [Op(_cli_call(main, argv), _cli_check(argv, seen))
                for argv in specs["ops"]]

    def solve_case(self, seed):
        from powerops.cli import main

        def check(out):
            code, text = out
            doc = parse_sorted_json(text)
            if code != 1 or doc is None:
                return False
            failing = [c["name"] for c in doc["checks"] if not c["ok"]]
            detail = {c["name"]: c["detail"] for c in doc["checks"]}
            return (len(doc["checks"]) == 12 and failing == ["continuity"]
                    and "(0, (1, 1))(a^3) = 4*a^6 - 96*a^3 + 243"
                    in detail["continuity"])
        return _cli_call(main, ["verify-all", "--json"]), check


def _cli_call(main, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue()
    return call


def _cli_check(argv, seen):
    """Exit 0; the same stdout whenever the argv recurs; JSON parses with
    sorted keys; nf and mul print what the library computes."""
    key = tuple(argv)

    def check(out):
        code, text = out
        if code != 0 or seen.setdefault(key, text) != text:
            return False
        as_json = argv[-1] == "--json"
        doc = parse_sorted_json(text) if as_json else None
        if as_json and doc is None:
            return False
        if argv[0] in ("nf", "mul"):
            from powerops.opalgebra import normal_form, Operation
            want = normal_form(argv[1])
            if argv[0] == "mul":
                want = want * normal_form(argv[2])
            got = (Operation.from_json(doc) if as_json
                   else normal_form(text.strip()))
            return got == want
        return True
    return check


class Raised:
    """Stands in for the output of an operation that raised."""

    __slots__ = ("error",)

    def __init__(self, error):
        self.error = "%s: %s" % (type(error).__name__, error)


def run_pass(workload, specs, tracer=None, clock=None):
    """Prepare one pass, run its calls back to back, and time them.

    Returns (ops, outputs, seconds).  With a tracer, tracing is on only
    while the calls run; with a ``HostClock``, so is the clock (and
    seconds then include its sampling).
    """
    ops = workload.prepare(specs)
    outs = []
    if tracer is not None:
        tracer.start()
    with clock or contextlib.nullcontext():
        start = time.perf_counter()
        for op in ops:
            try:
                outs.append(op.call())
            except Exception as exc:  # an operation that raises has failed
                outs.append(Raised(exc))
        seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.stop()
    return ops, outs, seconds


def check_pass(ops, outs):
    """(failed, wrong): operations that raised or gave a wrong output, and
    those that gave a wrong output."""
    failed = wrong = 0
    for op, out in zip(ops, outs):
        if isinstance(out, Raised):
            failed += 1
            continue
        try:
            ok = op.check(out)
        except Exception:  # a check that cannot read the output fails it
            ok = False
        if not ok:
            failed += 1
            wrong += 1
    return failed, wrong


WORKLOADS = {w.name: w for w in (ThetaWorkload(), KoszulWorkload(),
                                 IsogenyNormWorkload(), CliWorkload())}
