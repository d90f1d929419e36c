"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ffmzv layer from the
benchmark's side; the program itself is not changed.  Every call of a
wrapped function is one span with a name, a start, an end and the span
that caused it.  Spans are kept in memory in flat arrays (about 28 bytes
each, since the hot wrappers run 10^5-10^6 times) and written out once,
at the end of the repetition.

Self time of a span is its duration minus the durations of the wrapped
spans it directly caused.  The wrapper's own cost inside a parent span
lands in the parent's self time, so compare self times only between two
traced runs, never with an untraced one.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, attribute path, span name).  A span name is also the prefix of
# the per-layer metrics "<name>.calls" and "<name>.self_s".  Entries whose
# attribute no longer exists are skipped, so their metrics read 0.
PROBES = [
    ("algebra", "RatFunc.__init__", "algebra.RatFunc.new"),
    ("algebra", "Poly.gcd", "algebra.Poly.gcd"),
    ("algebra", "Poly.__mul__", "algebra.Poly.mul"),
    ("algebra", "Poly.__rmul__", "algebra.Poly.mul"),
    ("algebra", "Poly.divmod", "algebra.Poly.divmod"),
    ("algebra", "LaurentSeries.__mul__", "algebra.LaurentSeries.mul"),
    ("algebra", "LaurentSeries.__add__", "algebra.LaurentSeries.add"),
    ("algebra", "rat_to_laurent", "algebra.rat_to_laurent"),
    ("indices", "IndexAlgebra.product", "indices.product"),
    ("indices", "IndexAlgebra.d_op", "indices.d_op"),
    ("indices", "IndexAlgebra.boxplus", "indices.boxplus"),
    ("indices", "IndexAlgebra.alpha", "indices.alpha"),
    ("indices", "IndexPoly.__add__", "indices.IndexPoly.add"),
    ("reduction", "Reducer.reduce_to_T", "reduction.reduce_to_T"),
    ("reduction", "Reducer.u_step", "reduction.u_step"),
    ("reduction", "Reducer.gen_A", "reduction.gen_A"),
    ("reduction", "Reducer.dagger_expand", "reduction.dagger_expand"),
    ("reduction", "Reducer.quotient_space", "reduction.quotient_space"),
    ("reduction", "QuotientSpace.class_vector", "reduction.class_vector"),
    ("reduction", "Reducer.iota_matrix", "reduction.iota_matrix"),
    ("reduction", "IotaMatrix.squared_is_identity", "reduction.squared_is_identity"),
    # The checkers carry no metric of their own; their spans keep the
    # checkers' loops out of cli.run's self time.
    ("reduction", "Reducer.check_theorem", "reduction.check_theorem"),
    ("reduction", "Reducer.check_prop41", "reduction.check_prop41"),
    ("reduction", "Reducer.check_prop42", "reduction.check_prop42"),
    ("evaluate", "Evaluator.value_of_index", "evaluate.value_of_index"),
    ("evaluate", "Evaluator.eval_value", "evaluate.eval_value"),
    ("evaluate", "Evaluator.power_sum", "evaluate.power_sum"),
    ("evaluate", "Evaluator.fundamental_identity_check", "evaluate.fundamental_identity_check"),
    ("_gfnum", "GFVec.conv", "gfnum.conv"),
    ("_gfnum", "GFVec.brute_power_sum", "gfnum.brute_power_sum"),
    ("_gfnum", "GFVec.kernel", "gfnum.kernel"),
    ("dependence", "find_dependence", "dependence.find_dependence"),
    ("cli", "run", "cli.run"),
]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counters taken from a call's arguments and result: name -> fn(args, kwargs, result).
COUNTERS = {
    "algebra.Poly.gcd": {"algebra.gcd_useful": lambda a, k, r: int(r.degree > 0)},
    "reduction.reduce_to_T": {
        "reduction.terms_in": lambda a, k, r: len(_arg(a, k, 2, "P").terms),
        "reduction.terms_out": lambda a, k, r: len(r.terms),
    },
    "gfnum.brute_power_sum": {
        "gfnum.brute_power_sum.rows": lambda a, k, r: a[0].q ** _arg(a, k, 1, "d"),
    },
    "gfnum.kernel": {
        "gfnum.kernel.cells": lambda a, k, r: len(a[1]) * len(a[1][0]) if len(a[1]) else 0,
        "gfnum.kernel.basis": lambda a, k, r: len(r),
    },
    "dependence.find_dependence": {"dependence.kept": lambda a, k, r: len(r)},
}


def _product_kind(args, kwargs):
    kind = _arg(args, kwargs, 3, "kind")
    return "indices." + str(getattr(kind, "value", kind))


# IndexAlgebra.product is reported split by kind: indices.harmonic / indices.qshuffle.
SPLIT = {"indices.product": (_product_kind, ("indices.harmonic", "indices.qshuffle"))}


class Tracer:
    """In-memory spans plus per-name call counts, self times and counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.leaf_calls = []  # calls that caused no wrapped span (memo hits)
        self.counters = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._child = [0.0]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.leaf_calls.append(0)
        return nid

    def wrap(self, fn, name: str):
        """A wrapper of fn that records one span per call."""
        split = SPLIT.get(name)
        if split is None:
            nid = self.name_id(name)
            pick = None
        else:
            kind_of, kinds = split
            ids = {k: self.name_id(k) for k in kinds}
            other = self.name_id(name)
            pick = lambda a, k: ids.get(kind_of(a, k), other)  # noqa: E731
        counters = [(c, f) for c, f in COUNTERS.get(name, {}).items()]
        for c, _ in counters:
            self.counters.setdefault(c, 0)
        totals = self.counters
        perf = time.perf_counter
        stack, child = self._stack, self._child
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end, ends = self.span_start.append, self.span_end.append, self.span_end
        calls, selfs, leaves = self.calls, self.self_s, self.leaf_calls

        def wrapper(*args, **kwargs):
            n = nid if pick is None else pick(args, kwargs)
            sid = len(ends)
            add_name(n)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = perf()
            add_start(t0)
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                ends[sid] = t1
                stack.pop()
                dur = t1 - t0
                selfs[n] += dur - child.pop()
                child[-1] += dur
                calls[n] += 1
                if len(ends) == sid + 1:
                    leaves[n] += 1
            for c, f in counters:
                totals[c] += f(args, kwargs, res)
            return res

        return wrapper

    def install(self):
        """Wrap every probe that exists in the loaded ffmzv modules."""
        for mod_name, path, name in PROBES:
            module = sys.modules.get("ffmzv." + mod_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                split = SPLIT.get(name)
                for n in (split[1] if split else (name,)):
                    self.name_id(n)
                for c in COUNTERS.get(name, {}):
                    self.counters.setdefault(c, 0)
                continue
            wrapped = self.wrap(fn, name)
            if owner is module:
                # a module function is also bound by name in modules that import it
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").startswith("ffmzv") and \
                            getattr(m, attr, None) is fn:
                        setattr(m, attr, wrapped)
            else:
                setattr(owner, attr, wrapped)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span of its own (for the benchmark's step spans)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def summary(self) -> dict:
        """Counts and self times by span name, plus the argument counters."""
        return {
            "spans": {n: {"calls": self.calls[i], "self_s": self.self_s[i],
                          "leaf_calls": self.leaf_calls[i]}
                      for i, n in enumerate(self.names)},
            "counters": dict(self.counters),
        }

    def dump(self, path):
        """Write every span (name, parent, start, end) to an .npz file."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
