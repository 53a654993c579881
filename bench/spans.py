"""Per-layer tracing by wrapping each layer's public functions.

A layer is one module of the library.  ``Tracer.install()`` replaces every
public function and method of each layer (plus the arithmetic dunders)
with a wrapper that records a span for each call: its name, start, end and
parent.  The wrapper is patched into every module namespace that holds the
function, because ``forms``, ``operators`` and ``cli`` bind names such as
``from .series import moebius_of_series`` at import time.
``Tracer.uninstall()`` puts every original back.

Spans are folded into per-function totals as they close instead of being
kept: one round of ``eis-rank`` closes millions of them.  The parent of a
span is the span below it on the stack, so a span's self time is its
duration minus the durations of its direct children, which is the usual
definition for spans that nest.

Skipped: ``__init__``, ``__bool__``, ``__eq__``, ``__hash__``, ``__repr__``
and the other non-arithmetic dunders, properties, and the trivial
constructors and predicates in ``SKIP``.  They run millions of times a
round (``RF.__bool__`` 2.1 M, ``Pol.is_one`` 1.0 M, ``Pol.one`` 0.5 M for
one ``eisenstein_rank(p, 2, 28)``) and do no arithmetic.  Their time is
counted as self time of the span that calls them.
"""

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = {
    "field": "drinfeld.algebra.field",
    "poly": "drinfeld.algebra.poly",
    "ratfunc": "drinfeld.algebra.ratfunc",
    "quotient": "drinfeld.algebra.quotient",
    "carlitz": "drinfeld.carlitz",
    "characters": "drinfeld.characters",
    "series": "drinfeld.series",
    "operators": "drinfeld.operators",
    "forms": "drinfeld.forms",
    "cli": "drinfeld.cli",
}

ARITH_DUNDERS = frozenset((
    "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__truediv__",
    "__floordiv__", "__mod__", "__divmod__"))

SKIP = frozenset(("Pol.one", "Pol.zero", "Pol.is_one", "Pol.is_monic",
                  "Pol.leading", "Pol.constant", "RF.one", "RF.zero",
                  "RF.is_pol", "REl.is_scalar"))


def _targets():
    """(layer, key, owner, attr, descriptor) for every function to wrap.

    ``owner`` is the module or class that defines it; ``descriptor`` is the
    raw object found in ``vars(owner)`` (a function, classmethod or
    staticmethod)."""
    out = []
    for layer, modname in LAYERS.items():
        mod = importlib.import_module(modname)
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                out.append((layer, name, mod, name, obj))
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, raw in vars(obj).items():
                    key = "%s.%s" % (name, attr)
                    if key in SKIP:
                        continue
                    if attr.startswith("_") and attr not in ARITH_DUNDERS:
                        continue
                    func = raw.__func__ if isinstance(
                        raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(func):
                        out.append((layer, key, obj, attr, raw))
    return out


def _namespaces():
    """Every loaded module of the library, plus the benchmark's own."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "drinfeld"
                                  or name.startswith("drinfeld.")
                                  or name == "workloads")]


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Install with ``install()``; record only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.stats = {}           # key -> Stat
        self.layer_of = {}        # key -> layer
        self.stack = []           # child-time accumulators of open spans
        self.den_products = 0     # RF products off the denominator-free path
        self.op = 0               # index of the running operation
        self.moebius_keys = {}    # input value -> operations that used it
        self.exp_keys = set()
        self._patches = []        # (owner, attr, original) to restore

    # -- probes: counts that need the arguments or the result ------------

    def _probe_rf_mul(self, args, result):
        a, b = args
        if a.den.c != (1,) or b.den.c != (1,):
            self.den_products += 1

    def _probe_moebius(self, args, result):
        X, lam = args
        key = (X.ctx.modulus.c, X.prec, tuple(c.coords for c in X.coeffs),
               lam.coords)
        self.moebius_keys.setdefault(key, set()).add(self.op)

    def _probe_exp_value(self, args, result):
        ctx, beta = args
        self.exp_keys.add((ctx.modulus.c, ctx.big.order, beta.c))

    def _wrap(self, key, fn):
        stat = self.stats[key] = Stat()
        stack = self.stack
        probe = {"RF.__mul__": self._probe_rf_mul,
                 "moebius_of_series": self._probe_moebius,
                 "TorsionContext.exp_value": self._probe_exp_value}.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                children = stack.pop()
                stat.calls += 1
                stat.total += span
                stat.self_time += span - children
                if stack:
                    stack[-1] += span
            if probe is not None:
                probe(args, result)
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = _namespaces()
        for layer, key, owner, attr, raw in _targets():
            self.layer_of[key] = layer
            if inspect.isclass(owner):
                kind = type(raw) if isinstance(
                    raw, (classmethod, staticmethod)) else None
                func = raw.__func__ if kind else raw
                wrapped = self._wrap(key, func)
                setattr(owner, attr, kind(wrapped) if kind else wrapped)
                self._patches.append((owner, attr, raw))
                continue
            wrapped = self._wrap(key, raw)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is raw:
                        setattr(ns, name, wrapped)
                        self._patches.append((ns, name, raw))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------

    def layer_totals(self):
        """layer -> (calls, self seconds)."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for key, stat in self.stats.items():
            acc = out[self.layer_of[key]]
            acc[0] += stat.calls
            acc[1] += stat.self_time
        return out


# -- the per-layer metrics ---------------------------------------------------
#
# (names, unit, better, the end-to-end metric it should move, the workloads
# it should move on).  Every ``.calls`` and ``_frac`` count except
# ``trace.overhead_frac`` repeats exactly for a given seed: the inputs and
# the program are deterministic, so later changes can cite them as counts.

_ALL = "all three"
_SERIES_ON = "eis-rank and verify-mix; not distribution"
_METRIC_TABLE = [
    (("quotient.mul.calls", "quotient.add.calls", "quotient.invert.calls",
      "quotient.calls"), "count", "lower", "wall_s",
     _ALL + ", most on distribution"),
    (("quotient.mul.us",), "us", "lower", "wall_s",
     _ALL + ", most on distribution"),
    (("quotient.self_s",), "s", "lower", "wall_s",
     _ALL + ", most on distribution"),
    (("ratfunc.mul.calls", "ratfunc.add.calls", "ratfunc.calls",
      "poly.mul.calls", "poly.add.calls", "poly.calls", "field.calls"),
     "count", "lower", "wall_s", _ALL),
    (("ratfunc.self_s", "poly.self_s", "field.self_s"), "s", "lower",
     "wall_s", _ALL),
    (("ratfunc.mul.den_frac",), "ratio", "lower",
     "none; names the property a flat coefficient ring relies on", _ALL),
    (("series.mul.calls", "series.inverse.calls", "series.moebius.calls",
      "series.calls"), "count", "lower", "wall_s", _SERIES_ON),
    (("series.self_s",), "s", "lower", "wall_s", _SERIES_ON),
    (("series.moebius.distinct_frac", "series.moebius.cross_op_distinct_frac"),
     "ratio", "higher",
     "wall_s; the redundancy a shared power-sum basis removes", "eis-rank"),
    (("carlitz.exp_value.calls", "carlitz.calls"), "count", "lower",
     "wall_s and setup_s", _ALL),
    (("carlitz.exp_value.distinct_frac",), "ratio", "higher",
     "wall_s and setup_s", _ALL),
    (("carlitz.self_s",), "s", "lower", "wall_s and setup_s", _ALL),
    (("characters.calls", "operators.calls"), "count", "lower", "wall_s",
     "verify-mix only"),
    (("characters.self_s", "operators.self_s"), "s", "lower", "wall_s",
     "verify-mix only"),
    (("forms.calls", "cli.calls"), "count", "lower", "wall_s (glue)", _ALL),
    (("forms.self_s", "cli.self_s"), "s", "lower", "wall_s (glue)", _ALL),
    (("trace.overhead_frac",), "ratio", "lower",
     "none; traced over untraced round time, minus 1", _ALL),
]

# name -> (unit, better, moves, on, repeats exactly)
LAYER_METRICS = {
    name: (unit, better, moves, on,
           unit in ("count", "ratio") and name != "trace.overhead_frac")
    for names, unit, better, moves, on in _METRIC_TABLE for name in names}


def _frac(part, whole):
    return part / whole if whole else 0.0


def round_metrics(tracer):
    """The per-layer metrics of one traced round, except the overhead."""
    st = tracer.stats
    out = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        out[layer + ".calls"] = calls
        out[layer + ".self_s"] = self_s
    rel_mul = st["REl.__mul__"]
    out["quotient.mul.calls"] = rel_mul.calls
    out["quotient.mul.us"] = 1e6 * _frac(rel_mul.total, rel_mul.calls)
    out["quotient.add.calls"] = st["REl.__add__"].calls
    out["quotient.invert.calls"] = st["REl.invert"].calls
    out["ratfunc.mul.calls"] = st["RF.__mul__"].calls
    out["ratfunc.add.calls"] = st["RF.__add__"].calls
    out["ratfunc.mul.den_frac"] = _frac(tracer.den_products,
                                        st["RF.__mul__"].calls)
    out["poly.mul.calls"] = st["Pol.__mul__"].calls
    out["poly.add.calls"] = st["Pol.__add__"].calls
    out["series.mul.calls"] = st["UExpansion.__mul__"].calls
    out["series.inverse.calls"] = st["UExpansion.inverse"].calls
    moebius = st["moebius_of_series"].calls
    out["series.moebius.calls"] = moebius
    keys = tracer.moebius_keys
    # all redundancy, and only the reuse of one operation's inputs by another
    out["series.moebius.distinct_frac"] = _frac(len(keys), moebius)
    out["series.moebius.cross_op_distinct_frac"] = _frac(
        len(keys), sum(len(ops) for ops in keys.values()))
    exp_calls = st["TorsionContext.exp_value"].calls
    out["carlitz.exp_value.calls"] = exp_calls
    out["carlitz.exp_value.distinct_frac"] = _frac(len(tracer.exp_keys),
                                                   exp_calls)
    return out
