"""Span tracing of the powerops layers, for the traced child only.

``install`` wraps the public functions and methods of every module of the
package.  It patches class attributes in place, and rebinds every module's
global names that refer to a wrapped function, because
``from .opalgebra import push_poly`` binds a reference of its own.  Each
call records a span: name, start, end and the span that was open when it
began.  Spans stay in memory until ``write`` stores them.  A layer is a
module; its self time is its spans' durations minus the time their child
spans cover.  Sizes (degrees, coefficient bits, matrix shapes, term counts)
are probed at the same boundaries.

Accessors and predicates (``is_zero``, ``degree``, ``__eq__``, ...) are not
wrapped: they are called millions of times and do too little to time.
Their cost lands in the self time of the span that calls them.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from types import FunctionType

LAYERS = ("poly", "tower", "series", "padic", "mpoly", "opalgebra",
          "opmodules", "amplified", "linalg", "koszul", "normlog", "curve",
          "verify", "cli")

_TRACED_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__neg__", "__pow__", "__str__"}
_ACCESSORS = {"degree", "constant_term", "leading", "coerce", "column",
              "zero_vector", "basis_vector", "size", "canon_unit"}


def _traced_attr(attr: str) -> bool:
    if attr.startswith("__"):
        return attr in _TRACED_DUNDERS
    return not (attr.startswith("_") or attr.startswith("is_")
                or attr in _ACCESSORS)


class Tracer:
    """Spans in parallel arrays, plus counters and maxima from probes."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._depth = []
        self.active = [False]
        self.counters = {}
        self.maxima = {}
        self._caches = {}

    def watch_cache(self, name: str, cached) -> None:
        """Count the hits and misses of an lru_cache while tracing is on,
        as <name>_hits and <name>_misses."""
        self._caches[name] = [cached, None]
        self.add(name + "_hits", 0)
        self.add(name + "_misses", 0)

    def start(self) -> None:
        for entry in self._caches.values():
            entry[1] = entry[0].cache_info()
        self.active[0] = True

    def stop(self) -> None:
        self.active[0] = False
        for name, (cached, before) in self._caches.items():
            after = cached.cache_info()
            self.add(name + "_hits", after.hits - before.hits)
            self.add(name + "_misses", after.misses - before.misses)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def span(self, name: str, fn, probe=None):
        """fn wrapped so that each call while active records a span."""
        nid = self._name_id(name)
        ids, parents, outer = self.span_name, self.span_parent, self.span_outer
        starts, ends, stack = self.span_start, self.span_end, self._stack
        depth, active = self._depth, self.active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(ids)
            level = depth[nid]
            depth[nid] = level + 1
            ids.append(nid)
            parents.append(stack[-1])
            outer.append(level == 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[nid] = level
            if probe is not None:
                probe(args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        """fn wrapped so that each call while active bumps a counter."""
        counters, active = self.counters, self.active
        counters.setdefault(name, 0)

        def counted(*args, **kwargs):
            if active[0]:
                counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds of the outermost spans,
        and self seconds."""
        n = len(self.span_name)
        covered = array("d", bytes(8 * n))
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        k = len(self.names)
        calls, incl, own = [0] * k, [0.0] * k, [0.0] * k
        ids, outer = self.span_name, self.span_outer
        for i in range(n):
            nid = ids[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            own[nid] += dur - covered[i]
            if outer[i]:
                incl[nid] += dur
        return {name: {"calls": calls[i], "inclusive_s": incl[i],
                       "self_s": own[i]}
                for i, name in enumerate(self.names)}

    def write(self, path_prefix: str, summary: dict) -> None:
        """Store the span table (<prefix>.spans) and its index
        (<prefix>.json).  The span file holds n int32 name ids, n int32
        parent indices (-1 for none), n float64 starts and n float64 ends,
        in that order."""
        with open(path_prefix + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
        with open(path_prefix + ".json", "w") as fh:
            json.dump({"spans": len(self.span_name), "names": self.names,
                       "per_name": summary, "counters": self.counters,
                       "maxima": self.maxima}, fh, indent=1, sort_keys=True)


# --- installation -----------------------------------------------------------

def install(tracer: Tracer) -> None:
    """Wrap the package's layers so that their calls record spans."""
    mods = {layer: importlib.import_module("powerops." + layer)
            for layer in LAYERS}
    probes = _probes(tracer)
    tracer.watch_cache("opalgebra.push_through", mods["opalgebra"].push_through)
    wrapped = {}
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ \
                    or attr.startswith("_"):
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, layer, obj, probes)
            elif callable(obj):
                name = "%s.%s" % (layer, attr)
                wrapped[id(obj)] = (obj, tracer.span(name, obj,
                                                     probes.get(name)))
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    checks = mods["verify"].CHECKS
    for n, (check_name, fn) in enumerate(checks):
        hit = wrapped.get(id(fn))
        if hit is not None:
            checks[n] = (check_name, hit[1])
    poly_cls = mods["poly"].Poly
    poly_cls.__init__ = tracer.count("poly.new", poly_cls.__init__)
    cx_cls = mods["koszul"].TruncatedComplex
    cx_cls.__init__ = tracer.span("koszul.TruncatedComplex.__init__",
                                  cx_cls.__init__,
                                  probes["koszul.TruncatedComplex.__init__"])


def _wrap_class(tracer, layer, cls, probes):
    for attr, raw in list(vars(cls).items()):
        if not _traced_attr(attr):
            continue
        if isinstance(raw, staticmethod):
            fn, rewrap = raw.__func__, staticmethod
        elif isinstance(raw, FunctionType):
            fn, rewrap = raw, None
        else:
            continue
        name = "%s.%s.%s" % (layer, cls.__name__, fn.__name__)
        traced = tracer.span(name, fn, probes.get(name))
        setattr(cls, attr, rewrap(traced) if rewrap else traced)


def _probes(tracer):
    """Size probes, keyed by span name: each gets (args, result)."""
    def poly_mul(args, out):
        coeffs = getattr(out, "coeffs", None)
        if coeffs:
            tracer.peak("poly.max_mul_degree", len(coeffs) - 1)
            tracer.peak("poly.max_coeff_bits",
                        max(abs(c) for c in coeffs).bit_length())

    def sfrac(args, out):
        tracer.peak("tower.max_tpow", getattr(out, "tpow", 0))

    def amplified(args, out):
        tracer.peak("amplified.max_terms", len(getattr(out, "terms", ())))

    def snf(args, out):
        ring, mat = args[0], args[1]
        tracer.add("linalg.snf_entries", mat.m * mat.n)
        tracer.add("linalg.snf_nonzero", sum(
            1 for row in mat.rows for e in row if not ring.is_zero(e)))

    def complex_built(args, out):
        d1 = args[0].d1
        tracer.add("koszul.d1_entries", d1.m * d1.n)
        tracer.add("koszul.d1_nonzero", sum(
            1 for row in d1.rows for e in row if e.coeffs))

    probes = {"poly.Poly.__mul__": poly_mul,
              "linalg.smith_normal_form": snf,
              "koszul.TruncatedComplex.__init__": complex_built}
    for op in ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "inv",
               "div"):
        probes["tower.SFrac." + op] = sfrac
    for name in ("amplified.AmplifiedRing.theta", "amplified.AmplifiedRing.q",
                 "amplified.AmplifiedPoly.__mul__"):
        probes[name] = amplified
    return probes


# --- per-layer metrics ------------------------------------------------------

_VERIFY_CHECKS = ("ranks", "centrality", "psi_multiplicativity",
                  "module_relations", "theta_suite", "continuity",
                  "norm_identities", "logarithm", "koszul_homology",
                  "isogeny_series", "derivation_closure",
                  "trace_norm_symbolic")


def layer_metrics(traced: dict, untraced_wall_s: float) -> dict:
    """Every per-layer metric by name, from a traced child's result and the
    wall time of the same work untraced."""
    per_name = traced["summary"]
    counters, maxima = traced["counters"], traced["maxima"]

    def calls(*names):
        return sum(per_name.get(n, {}).get("calls", 0) for n in names)

    def own(*names):
        return sum(per_name.get(n, {}).get("self_s", 0.0) for n in names)

    def inclusive(name):
        return per_name.get(name, {}).get("inclusive_s", 0.0)

    def self_under(prefix):
        return sum(v["self_s"] for n, v in per_name.items()
                   if n.startswith(prefix + "."))

    out = {
        "poly.mul_calls": calls("poly.Poly.__mul__"),
        "poly.mul_self_s": own("poly.Poly.__mul__"),
        "poly.add_calls": calls("poly.Poly.__add__"),
        "poly.add_self_s": own("poly.Poly.__add__"),
        "poly.new_calls": counters.get("poly.new", 0),
        "poly.max_mul_degree": maxima.get("poly.max_mul_degree", 0),
        "poly.max_coeff_bits": maxima.get("poly.max_coeff_bits", 0),
        "tower.sfrac_add_calls": calls("tower.SFrac.__add__"),
        "tower.sfrac_mul_calls": calls("tower.SFrac.__mul__"),
        "tower.sfrac_self_s": self_under("tower.SFrac"),
        "tower.s2_mul_calls": calls("tower.S2Elem.__mul__"),
        "tower.s2_self_s": self_under("tower.S2Elem"),
        "tower.max_tpow": maxima.get("tower.max_tpow", 0),
        "series.mul_calls": calls("series.Series.__mul__"),
        "series.inverse_calls": calls("series.Series.inverse"),
        "series.self_s": self_under("series"),
        "padic.mul_calls": calls("padic.PadicElem.__mul__"),
        "padic.log_calls": calls("padic.log_half"),
        "padic.self_s": self_under("padic"),
        "mpoly.mul_calls": calls("mpoly.MPoly.__mul__"),
        "mpoly.self_s": self_under("mpoly"),
        "opalgebra.mul_calls": calls("opalgebra.Operation.__mul__",
                                     "opalgebra.Operation.__rmul__"),
        "opalgebra.normal_form_calls": calls("opalgebra.normal_form"),
        "opalgebra.self_s": self_under("opalgebra"),
        "opalgebra.push_through_hits":
            counters.get("opalgebra.push_through_hits", 0),
        "opalgebra.push_through_misses":
            counters.get("opalgebra.push_through_misses", 0),
        "opmodules.act_calls": calls("opmodules.act"),
        "opmodules.tensor_calls": calls("opmodules.tensor"),
        "opmodules.self_s": self_under("opmodules"),
        "amplified.theta_calls": calls("amplified.AmplifiedRing.theta"),
        "amplified.theta_s": inclusive("amplified.AmplifiedRing.theta"),
        "amplified.q_calls": calls("amplified.AmplifiedRing.q"),
        "amplified.poly_mul_calls": calls("amplified.AmplifiedPoly.__mul__"),
        "amplified.self_s": self_under("amplified"),
        "amplified.max_terms": maxima.get("amplified.max_terms", 0),
        "linalg.snf_calls": calls("linalg.smith_normal_form"),
        "linalg.snf_entries": counters.get("linalg.snf_entries", 0),
        "linalg.snf_nonzero": counters.get("linalg.snf_nonzero", 0),
        "linalg.ring_op_calls": calls(
            "linalg.IntRing.mul", "linalg.IntRing.divmod_pair",
            "linalg.FieldPolyRing.mul", "linalg.FieldPolyRing.divmod_pair"),
        "linalg.snf_self_s": self_under("linalg"),
        "koszul.build_s": inclusive("koszul.TruncatedComplex.__init__"),
        "koszul.build_self_s": own("koszul.TruncatedComplex.__init__"),
        "koszul.d_squared_s":
            inclusive("koszul.TruncatedComplex.d_squared_checks"),
        "koszul.d1_entries": counters.get("koszul.d1_entries", 0),
        "koszul.d1_nonzero": counters.get("koszul.d1_nonzero", 0),
        "normlog.norm_calls": calls("normlog.NormContext.norm_N"),
        "normlog.log_calls": calls("normlog.NormContext.log_ell"),
        "normlog.self_s": self_under("normlog"),
        "curve.isogeny_s": inclusive("curve.isogeny_series"),
        "curve.self_s": self_under("curve"),
        "cli.main_calls": calls("cli.main"),
        "cli.self_s": self_under("cli"),
        "cli.stdout_bytes": counters.get("cli.stdout_bytes", 0),
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_ratio": traced["wall_s"] / untraced_wall_s,
        "trace.spans": traced["spans"],
    }
    for check in _VERIFY_CHECKS:
        out["verify.%s_s" % check] = inclusive("verify.check_" + check)
    return out
