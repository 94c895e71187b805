"""Per-layer tracing from outside the program.

Wraps public functions and methods of tlcat's modules and records, per
layer name, the number of calls and the self time (a span's duration minus
the time of the traced spans it contains), plus a few work counters.
Spans are folded into these totals as they close rather than kept one by
one: the scalar layer alone closes millions of them.

A function is replaced wherever it is looked up: ``tlcat.fusion`` imports
``rref`` by name, so patching ``tlcat.linalg.rref`` alone would miss the
calls fusion makes.  Every module global and class attribute that holds
the original object is swapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

from tlcat import braid, cyclotomic, diagram, dilute, fusion, integrable, linalg
from tlcat import morphism, scalar, standard, twist

__all__ = ["Tracer", "PER_LAYER_METRICS"]

# Every per-layer metric the traced run reports, with its unit.  A layer a
# workload does not reach reports 0.
PER_LAYER_METRICS = {
    "diagram.compose.calls": "count",
    "diagram.compose.self_s": "s",
    "diagram.compose_cache.lookups": "count",
    "diagram.compose_cache.hit_ratio": "ratio",
    "diagram.enumerate_diagrams.self_s": "s",
    "scalar.mul.calls": "count",
    "scalar.mul.self_s": "s",
    "scalar.mul.mean_terms": "terms",
    "scalar.add.calls": "count",
    "scalar.add.self_s": "s",
    "cyclotomic.mul.calls": "count",
    "cyclotomic.mul.self_s": "s",
    "cyclotomic.add.self_s": "s",
    "cyclotomic.inv.calls": "count",
    "morphism.compose.calls": "count",
    "morphism.compose.self_s": "s",
    "morphism.compose.term_pairs": "count",
    "morphism.tensor.self_s": "s",
    "braid.commutor.calls": "count",
    "braid.commutor.distinct_ratio": "ratio",
    "braid.commutor.self_s": "s",
    "twist.twist_element.calls": "count",
    "twist.twist_element.distinct_ratio": "ratio",
    "twist.twist_element.self_s": "s",
    "standard.act_on_element.calls": "count",
    "standard.act_on_element.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.max_cols": "count",
    "linalg.rref.cells": "count",
    "linalg.rank.self_s": "s",
    "linalg.mat_mul.self_s": "s",
    "fusion.FusedModule.calls": "count",
    "fusion.FusedModule.self_s": "s",
    "fusion.raw_dim.max": "count",
    "fusion.monodromy_matrix.self_s": "s",
    "fusion.jordan_type.self_s": "s",
    "integrable.transfer_matrix.self_s": "s",
    "integrable.face.calls": "count",
    "dilute.dilute_commutor.calls": "count",
    "dilute.dilute_commutor.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Call counts, self times and counters for one traced process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._open: list = []  # time covered by traced children, per open span

    def _wrap(self, name, fn, after=None):
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self, extra_modules=()):
        """Wrap every traced function of tlcat, in the tlcat modules and in
        ``extra_modules`` (the callers outside tlcat)."""
        counters, distinct = self.counters, self.distinct

        def scalar_terms(args, kwargs, result):
            for x in args:
                counters["scalar.mul.operand_terms"] += (
                    len(x.num) if isinstance(x, scalar.Scalar) else 1
                )

        def term_pairs(args, kwargs, result):
            counters["morphism.compose.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def distinct_args(name, fn):
            sig = inspect.signature(fn)

            def record(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                distinct[name].add(tuple(bound.arguments.values()))

            return record

        def rref_size(args, kwargs, result):
            rows, ncols = args[0], args[1]
            counters["linalg.rref.cells"] += len(rows) * ncols
            counters["linalg.rref.max_cols"] = max(counters["linalg.rref.max_cols"], ncols)

        def raw_dim(args, kwargs, result):
            counters["fusion.raw_dim.max"] = max(counters["fusion.raw_dim.max"], args[0].raw_dim)

        targets = [
            ("diagram.compose", diagram.Diagram, "compose", None),
            ("diagram.enumerate_diagrams", diagram, "enumerate_diagrams", None),
            ("scalar.mul", scalar.Scalar, "__mul__", scalar_terms),
            ("scalar.add", scalar.Scalar, "__add__", None),
            ("cyclotomic.mul", cyclotomic.CycloElement, "__mul__", None),
            ("cyclotomic.add", cyclotomic.CycloElement, "__add__", None),
            ("cyclotomic.inv", cyclotomic.CycloElement, "inv", None),
            ("morphism.compose", morphism.Morphism, "compose", term_pairs),
            ("morphism.tensor", morphism.Morphism, "tensor", None),
            ("braid.commutor", braid, "commutor",
             distinct_args("braid.commutor", braid.commutor)),
            ("twist.twist_element", twist, "twist_element",
             distinct_args("twist.twist_element", twist.twist_element)),
            ("standard.act_on_element", standard.StandardModule, "act_on_element", None),
            ("standard.act_on_element", standard.RegularModule, "act_on_element", None),
            ("linalg.rref", linalg, "rref", rref_size),
            ("linalg.rank", linalg, "rank", None),
            ("linalg.mat_mul", linalg, "mat_mul", None),
            ("fusion.FusedModule", fusion.FusedModule, "__init__", raw_dim),
            ("fusion.monodromy_matrix", fusion.FusedModule, "monodromy_matrix", None),
            ("fusion.jordan_type", fusion, "jordan_type", None),
            ("integrable.transfer_matrix", integrable, "transfer_matrix", None),
            # face() only builds a FaceOperator; the work is in calling it
            ("integrable.face", integrable.FaceOperator, "__call__", None),
            ("dilute.dilute_commutor", dilute, "dilute_commutor", None),
        ]
        namespaces = [m for name, m in sys.modules.items()
                      if name == "tlcat" or name.startswith("tlcat.")]
        namespaces += list(extra_modules)
        for name, owner, attr, after in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, original, after)
            # a class can expose one function under two names (__rmul__ = __mul__)
            holders = [owner] if isinstance(owner, type) else namespaces
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def metrics(self) -> dict:
        """Per-layer values (all but trace.overhead_s) and the counts that
        must repeat exactly between two traced runs of one seed."""
        out = {}
        for name in PER_LAYER_METRICS:
            layer, _, quantity = name.rpartition(".")
            if quantity == "calls":
                out[name] = self.calls[layer]
            elif quantity == "self_s":
                out[name] = self.self_s[layer]
        for name in ("morphism.compose.term_pairs", "linalg.rref.cells",
                     "linalg.rref.max_cols", "fusion.raw_dim.max"):
            out[name] = self.counters[name]
        info = diagram._compose_cached.cache_info()
        lookups = info.hits + info.misses
        out["diagram.compose_cache.lookups"] = lookups
        out["diagram.compose_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
        mul_calls = self.calls["scalar.mul"]
        out["scalar.mul.mean_terms"] = (
            self.counters["scalar.mul.operand_terms"] / (2 * mul_calls) if mul_calls else 0.0
        )
        for layer in ("braid.commutor", "twist.twist_element"):
            calls = self.calls[layer]
            out[f"{layer}.distinct_ratio"] = len(self.distinct[layer]) / calls if calls else 0.0
        counts = {name: out[name] for name, unit in PER_LAYER_METRICS.items()
                  if unit == "count"}
        counts["braid.commutor.distinct"] = len(self.distinct["braid.commutor"])
        counts["twist.twist_element.distinct"] = len(self.distinct["twist.twist_element"])
        counts["diagram.compose_cache.hits"] = info.hits
        counts["scalar.mul.operand_terms"] = self.counters["scalar.mul.operand_terms"]
        return {"layers": out, "counts": counts}
