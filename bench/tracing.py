"""Spans and counters for the traced benchmark run.

Imported only by a traced run (``--trace 1``); untraced runs never load
this module, so their timings carry no wrapper.  ``Tracer.install`` wraps
every public module-level function of the ``picforms`` modules in a span
and rebinds it in every module namespace that holds it, so a name one
module imports from another (``equivalence.act``) is wrapped where it is
looked up.  The per-element kernels (``FieldElement`` mul/inverse/div,
``Polynomial`` mul/divmod, ``Field.elements``) get counters only.

A span records its name, start, end, parent span and the id of the op it
belongs to; spans stay in memory (up to ``SPAN_CAP``) and are written out
when the run ends.  Self time is a span's duration minus its child spans.
Calls made during set-up and during the timed ops are kept apart.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

MODULES = ("fields", "poly", "curves", "triples", "ortho", "linalg", "quadform",
           "equivalence", "galois", "sampling", "serialize", "cli")
SPAN_CAP = 100_000
CAVEAT_SEARCH = "galois.find_caveat_example"

# the per-layer metrics (BENCHMARK.json lists the same names); README.md says which
# end-to-end metric each one should move
COUNTERS = ("fields.mul.calls", "fields.inv.calls", "fields.elements.yielded",
            "poly.mul.calls", "poly.divmod.calls")
SPAN_CALLS = ("fields.sqrt", "linalg.det", "linalg.mat_mul", "ortho.classify",
              "triples.make_triple", "triples.act", "triples.canonicalize_with_matrix",
              "quadform.gram", "equivalence.same_class", "galois.class_rational_mod_conj",
              "sampling.random_triple")
SPAN_SELF = ("fields.sqrt", "fields.embed", "fields.unembed", "poly.gcd",
             "poly.roots_in_field", "ortho.classify", "triples.make_triple", "triples.act",
             "triples.canonicalize_with_matrix", "quadform.gram", "quadform.decompose",
             "equivalence.same_class", "galois.class_rational_mod_conj",
             "galois.galois_image", "sampling.random_triple", "cli.build_parser")
SETUP_SPANS = ("fields.sqrt", "sampling.random_triple")


class Tracer:
    def __init__(self):
        self.enabled = True
        self.stats = {"setup": {}, "ops": {}}       # name -> [calls, total_s, self_s]
        self.counts = {"setup": Counter(), "ops": Counter()}
        self.cur_stats = self.stats["setup"]
        self.cur_counts = self.counts["setup"]
        self.stack = []                              # [name, child_s, span_id]
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = None

    def begin_ops(self):
        self.cur_stats = self.stats["ops"]
        self.cur_counts = self.counts["ops"]

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        witnesses = name == "equivalence.same_class"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [name, 0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                st = tracer.cur_stats.get(name)
                if st is None:
                    st = tracer.cur_stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                    if parent[0] == CAVEAT_SEARCH:
                        tracer.cur_counts[name + "<-caveat"] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.op_id, sid, parent and parent[2], name,
                                         start, end))
                else:
                    tracer.dropped += 1
            if witnesses and parent is not None and parent[0].startswith("galois."):
                # the galois predicates keep only the verdict
                tracer.cur_counts["equivalence.same_class.witnesses"] += (
                    (result.witness is not None) + (result.conjugate_witness is not None))
            return result
        return wrapper

    def _counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.enabled:
                tracer.cur_counts[key] += 1
            return fn(*args)
        return wrapper

    def _yield_counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            for x in fn(*args):
                if tracer.enabled:
                    tracer.cur_counts[key] += 1
                yield x
        return wrapper

    def install(self):
        import picforms
        mods = [importlib.import_module("picforms." + m) for m in MODULES]
        wrapped = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._span(short + "." + name, obj)
        for mod in mods + [picforms]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        fields, poly = mods[0], mods[1]
        Field, Elem, Poly = fields.Field, fields.FieldElement, poly.Polynomial
        Field.sqrt = self._span("fields.sqrt", Field.sqrt)
        Field.elements = self._yield_counter("fields.elements.yielded", Field.elements)
        for attr in ("__mul__", "__rmul__"):
            setattr(Elem, attr, self._counter("fields.mul.calls", getattr(Elem, attr)))
        for attr in ("inverse", "__truediv__", "__rtruediv__"):
            setattr(Elem, attr, self._counter("fields.inv.calls", getattr(Elem, attr)))
        for attr in ("__mul__", "__rmul__"):
            setattr(Poly, attr, self._counter("poly.mul.calls", getattr(Poly, attr)))
        Poly.__divmod__ = self._counter("poly.divmod.calls", Poly.__divmod__)

    # -- results ----------------------------------------------------------------

    def per_layer(self, rounds):
        """Per-layer metrics of the timed ops, per round of the pool, plus the
        set-up totals of the square-root tables and the sampler."""
        ops, cnt = self.stats["ops"], self.counts["ops"]
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for key in COUNTERS:
            put(key, cnt[key] / rounds, "count")
        for name in SPAN_CALLS:
            put(name + ".calls", ops.get(name, (0, 0, 0))[0] / rounds, "count")
        for name in SPAN_SELF:
            put(name + ".self_s", ops.get(name, (0, 0, 0))[2] / rounds, "s")
        put("equivalence.same_class.total_s",
            ops.get("equivalence.same_class", (0, 0, 0))[1] / rounds, "s")
        put("equivalence.same_class.witnesses",
            cnt["equivalence.same_class.witnesses"] / rounds, "count")
        drawn = cnt["sampling.random_triple<-caveat"]
        put("galois.filter_pass_ratio",
            cnt["equivalence.same_class<-caveat"] / drawn if drawn else 0.0, "ratio")
        put("serialize.from_json.self_s", sum(
            st[2] for n, st in ops.items()
            if n.startswith("serialize.") and n.endswith("_from_json")) / rounds, "s")
        put("serialize.to_json.self_s", sum(
            st[2] for n, st in ops.items()
            if n.startswith("serialize.") and (n.endswith("_to_json") or n.endswith(".dumps"))
        ) / rounds, "s")
        setup = self.stats["setup"]
        for name in SETUP_SPANS:
            st = setup.get(name, (0, 0, 0))
            put("setup.%s.calls" % name, st[0], "count")
            put("setup.%s.self_s" % name, st[2], "s")
        return out

    def dump(self):
        return {
            "span_fields": ["op", "id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "stats": {phase: {n: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
                              for n, st in sorted(stats.items())}
                      for phase, stats in self.stats.items()},
            "counts": {phase: dict(sorted(c.items())) for phase, c in self.counts.items()},
        }
