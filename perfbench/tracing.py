"""Spans and counters around the public functions of the `cwkoszul` modules.

Tracing lives entirely in the benchmark: `Tracer.installed()` replaces each
listed function, in every `cwkoszul` module that holds it under some name,
by a wrapper that records a span (name, start, end, parent, request) and
updates counters from the call's arguments and result; on exit the original
objects go back.  A class attribute (`Class.method`) is patched on its class.

Self time of a span is its duration minus that of its child spans.  Each
span name also keeps an inclusive total over its outermost calls; the entry
points (decide, comparison, annihilator, obstructions, relative) report that.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _n(key):
    return lambda c, args, result: c.update({key: 1})


def _rref(c, args, result):
    c.update(rref_calls=1, rref_rows_in=len(args[0]), rref_pivots=len(result))


def _chains(c, args, result):
    c.update(chains_calls=1, chains_listed=len(result))


def _integral_quotient(c, args, result):
    # the dense relation matrix plus the two tracked square transforms
    labels, relations = args[1], args[2]
    c.update(snf_cells=relations.rows * len(labels) + 2 * len(labels) ** 2)


def _presentation(c, args, result):
    c.update(presentations=1, ambient_words=len(args[0]), quotient_dim=result.dim)


def _apply(c, args, result):
    matrix, vec = args
    c.update(apply_calls=1, apply_scanned=len(matrix.entries),
             apply_multiplied=sum(1 for _, j in matrix.entries if j in vec))


# (module, attribute, span name or None for counters only, counter, every importer)
HOOKS = [
    ("cli", "main", "cli.main", None, True),
    ("cli", "load_complex", "cli.load", None, True),
    ("cw", "RegularCWComplex.validate", "cw.validate", _n("validate_calls"), True),
    ("layered", "LayeredGraph.__init__", "layered.graph_build", _n("graphs_built"), True),
    ("layered", "LayeredGraph.maximal_chains", "layered.chains", _chains, True),
    ("dualalg", "koszul_decide", "dualalg.decide",
     lambda c, a, r: c.update(vertices_checked=len(r.checked)), True),
    ("dualalg", "block_component", "dualalg.presentation", None, True),
    ("dualalg", "graded_component", "dualalg.presentation", None, True),
    ("dualalg", "quotient", None, _presentation, False),
    ("dualalg", "word_complex", "dualalg.word_complex", None, True),
    ("dualalg", "comparison_iso_check", "dualalg.comparison", None, True),
    ("dualalg", "annihilator_check", "dualalg.annihilator", None, True),
    ("bigraded", "koszul_obstructions", "bigraded.obstructions", None, True),
    ("bigraded", "relative_cohomology", "bigraded.relative", _n("relative_calls"), True),
    ("bigraded", "build_layer", "bigraded.layer",
     lambda c, a, r: c.update(pairs=sum(len(b) for b in r.bases.values())), True),
    ("bigraded", "reduced_layer", "bigraded.reduce", None, True),
    ("linalg", "rref_rows", "linalg.rref", _rref, True),
    ("linalg", "QuotientPresentation.__init__", "linalg.quotient", None, True),
    ("linalg", "induced_map", "linalg.induced_map", None, True),
    ("linalg", "cochain_cohomology", "linalg.cohomology", None, True),
    ("linalg", "smith_normal_form", "linalg.snf",
     lambda c, a, r: c.update(snf_cells=a[0].rows * a[0].cols), True),
    ("linalg", "IntegralQuotient.__init__", "linalg.snf", _integral_quotient, True),
    ("linalg", "integral_cochain_cohomology", "linalg.integral_cohomology", None, True),
    ("linalg", "SparseExactMatrix.apply", None, _apply, True),
]

def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(self_s: dict, incl_s: dict, c: Counter) -> dict:
    """Per-layer metrics of one pass, by the names BENCHMARK.json lists."""
    return {
        "cli.self_s": self_s["cli.main"],
        "cli.load_s": self_s["cli.load"],
        "cw.validate_s": self_s["cw.validate"],
        "cw.validate_calls": c["validate_calls"],
        "layered.graph_build_s": self_s["layered.graph_build"],
        "layered.graphs_built": c["graphs_built"],
        "layered.chains_s": self_s["layered.chains"],
        "layered.chains_listed": c["chains_listed"],
        "layered.chain_use": _ratio(c["chains_calls"], c["chains_listed"]),
        "dualalg.decide_s": incl_s["dualalg.decide"],
        "dualalg.vertices_checked": c["vertices_checked"],
        "dualalg.presentation_s": self_s["dualalg.presentation"],
        "dualalg.presentations": c["presentations"],
        "dualalg.ambient_words": c["ambient_words"],
        "dualalg.quotient_yield": _ratio(c["quotient_dim"], c["ambient_words"]),
        "dualalg.word_complex_s": self_s["dualalg.word_complex"],
        "dualalg.comparison_s": incl_s["dualalg.comparison"],
        "dualalg.annihilator_s": incl_s["dualalg.annihilator"],
        "bigraded.obstructions_s": incl_s["bigraded.obstructions"],
        "bigraded.relative_s": incl_s["bigraded.relative"],
        "bigraded.relative_calls": c["relative_calls"],
        "bigraded.layer_s": self_s["bigraded.layer"],
        "bigraded.pairs": c["pairs"],
        "bigraded.reduce_s": self_s["bigraded.reduce"],
        "linalg.rref_s": self_s["linalg.rref"],
        "linalg.rref_calls": c["rref_calls"],
        "linalg.rref_rows_in": c["rref_rows_in"],
        "linalg.rref_pivots": c["rref_pivots"],
        "linalg.rref_yield": _ratio(c["rref_pivots"], c["rref_rows_in"]),
        "linalg.quotient_s": self_s["linalg.quotient"],
        "linalg.induced_map_s": self_s["linalg.induced_map"],
        "linalg.cohomology_s": self_s["linalg.cohomology"],
        "linalg.apply_calls": c["apply_calls"],
        "linalg.apply_scanned": c["apply_scanned"],
        "linalg.apply_yield": _ratio(c["apply_multiplied"], c["apply_scanned"]),
        "linalg.snf_s": self_s["linalg.snf"],
        "linalg.snf_cells": c["snf_cells"],
        "linalg.integral_cohomology_s": self_s["linalg.integral_cohomology"],
    }


class Tracer:
    """Records spans and counters while installed; one request at a time."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, request]
        self.request = None
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._pass_start = 0
        self._incl: dict = defaultdict(float)
        self._counts: Counter = Counter()

    def _wrap(self, fn, name, count):
        spans, stack, active = self.spans, self._stack, self._active
        incl, counts = self._incl, self._counts
        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, result)
                return result
            return counted

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(idx)
            active[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                active[name] -= 1
                spans[idx] = span
                if not active[name]:
                    incl[name] += span[2] - span[1]
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        undo = []
        try:
            for mod_name, attr, name, count, everywhere in HOOKS:
                mod = importlib.import_module(f"cwkoszul.{mod_name}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(orig, name, count))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(orig, name, count)
                holders = [mod]
                if everywhere:
                    holders = [m for k, m in list(sys.modules.items())
                               if k == "cwkoszul" or k.startswith("cwkoszul.")]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            undo.append((holder, key, orig))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    def begin_pass(self):
        self._pass_start = len(self.spans)
        self._incl.clear()
        self._counts.clear()

    def end_pass(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since begin_pass."""
        first = self._pass_start
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        self_s: dict = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(spans):
            self_s[name] += t1 - t0 - child[i]
        return layer_metrics(self_s, self._incl, self._counts)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
