"""Per-layer tracing from outside the library.

``Tracer.installed()`` replaces the public entry points of each layer with
wrappers that time every call and count it, and puts the originals back on
exit.  Each name is patched where its callers look it up: methods on
their class, module functions in the module that calls them (filter_l0
and filter_l1 bind ``scan_scored_neighbors`` at import, matching binds
``edge_rank``, functions reaches ``evaluate`` through the exprs module).

A layer's self time is the time of its spans minus the time of their
child spans.  Spans of the structural layers are kept in memory as
``(id, parent, op, name, start, end)`` and written out by ``dump``.  The
hot leaf calls (dist, canon, lookup, eval, rank) and the callbacks the
filters hand to scans and to the matching are counted and timed but not
kept one by one, since they number in the millions.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from lipfilter import (
    cli, exprs, filter_l0, filter_l1, functions, graphs, matching, privacy,
    tester, violation,
)

# layers whose spans are counted and timed but not kept one by one
_LEAVES = {"graphs.dist", "graphs.canon", "functions.lookup", "exprs.eval",
           "seeds.rank", "filter_l0.callback", "filter_l1.callback"}
# callbacks handed to scans and to the matching count toward these layers
_CALLBACK_LAYERS = {"lipfilter.filter_l0": "filter_l0.callback",
                    "lipfilter.filter_l1": "filter_l1.callback"}

# self time metrics: metric name -> the span names it sums
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "functions.self_s": ("functions.lookup",),
    "exprs.self_s": ("exprs.eval",),
    "graphs.ball_self_s": ("graphs.ball",),
    "graphs.dist_self_s": ("graphs.dist",),
    "graphs.canon_self_s": ("graphs.canon",),
    "violation.self_s": ("violation.scan",),
    "seeds.self_s": ("seeds.rank",),
    "matching.self_s": ("matching.match_of",),
    "filter_l0.self_s": ("filter_l0.value", "filter_l0.callback"),
    "filter_l1.self_s": ("filter_l1.table", "filter_l1.value", "filter_l1.callback"),
    "tester.self_s": ("tester.tolerant_test",),
    "privacy.self_s": ("privacy.answer",),
}
# count metrics: metric name -> counter key
COUNTS = {
    "functions.lookup_calls": "functions.lookup",
    "exprs.eval_calls": "exprs.eval",
    "graphs.ball_calls": "graphs.ball",
    "graphs.ball_vertices": "graphs.ball_vertices",
    "graphs.dist_calls": "graphs.dist",
    "graphs.canon_calls": "graphs.canon",
    "violation.scan_calls": "violation.scan",
    "violation.scan_pairs": "violation.scan_pairs",
    "seeds.rank_calls": "seeds.rank",
    "matching.match_of_calls": "matching.match_of",
    "filter_l0.value_calls": "filter_l0.value",
    "privacy.probes": "privacy.probes",
}


class Tracer:
    """Spans and counters for one traced run, split by operation."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []
        self._stack = []  # open frames: [child time, recorded id, name]
        self._next_id = 0
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.per_op = []  # (counts, self_s) of each finished operation

    # -- operation boundaries --------------------------------------------

    @contextlib.contextmanager
    def operation(self, op_id):
        """Trace one operation with every patch installed."""
        self.op = op_id
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        with self.installed():
            self.active = True
            try:
                yield
            finally:
                self.active = False
                self.per_op.append((dict(self.counts), dict(self.self_s)))

    # -- spans -----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span called ``name``; ``after(result, parent)``
        may add counts once the call returns."""
        leaf = name in _LEAVES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            if leaf:
                rec = parent[1] if parent else None
            else:
                rec = self._next_id
                self._next_id += 1
            frame = [0.0, rec, name]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                took = end - start
                if parent is not None:
                    parent[0] += took
                self.self_s[name] += took - frame[0]
                self.counts[name] += 1
                if not leaf:
                    self.spans.append((rec, parent[1] if parent else None,
                                       self.op, name, start, end))
            if after is not None:
                after(result, parent)
            return result

        return traced

    def _ball_done(self, result, parent):
        self.counts["graphs.ball_vertices"] += len(result)
        if parent is not None and parent[2] == "violation.scan":
            self.counts["violation.scan_pairs"] += max(0, len(result) - 1)

    def _answer_done(self, result, parent):
        self.counts["privacy.probes"] += result.iterations

    def _scan(self, original):
        wrapped = self.wrap("violation.scan", original)

        def scan(graph, lookup, *args, **kwargs):
            layer = _CALLBACK_LAYERS.get(getattr(lookup, "__module__", None))
            if layer is not None and self.active:
                lookup = self.wrap(layer, lookup)
            return wrapped(graph, lookup, *args, **kwargs)

        return scan

    def _matcher_init(self, original):
        def init(lca, neighbors, *args, **kwargs):
            layer = _CALLBACK_LAYERS.get(getattr(neighbors, "__module__", None))
            if layer is not None:
                neighbors = self.wrap(layer, neighbors)
            original(lca, neighbors, *args, **kwargs)

        return init

    def _evaluate(self, original):
        wrapped = self.wrap("exprs.eval", original)

        def evaluate(expr, coords):
            # evaluate recurses through the module attribute: count and
            # time only the outermost call
            if self._stack and self._stack[-1][2] == "exprs.eval":
                return original(expr, coords)
            return wrapped(expr, coords)

        return evaluate

    # -- patching --------------------------------------------------------

    def _patches(self):
        """(owner, attribute, replacement builder) for every entry point."""
        def span(name, after=None):
            return lambda fn: self.wrap(name, fn, after)

        out = [
            (cli, "main", span("cli.main")),
            (functions.FunctionOracle, "lookup", span("functions.lookup")),
            (exprs, "evaluate", self._evaluate),
            (graphs._BallMixin, "ball", span("graphs.ball", self._ball_done)),
            # every workload runs on hypercubes
            (graphs.Hypercube, "dist", span("graphs.dist")),
            (graphs.Hypercube, "canon", span("graphs.canon")),
            (matching, "edge_rank", span("seeds.rank")),
            (matching.MatchingLCA, "match_of", span("matching.match_of")),
            (matching.MatchingLCA, "__init__", self._matcher_init),
            (filter_l0.LocalFilterL0, "value", span("filter_l0.value")),
            (filter_l1.LocalFilterL1, "table", span("filter_l1.table")),
            (filter_l1.LocalFilterL1, "value", span("filter_l1.value")),
            (tester, "tolerant_test", span("tester.tolerant_test")),
            (privacy.BinarySearchMechanism, "answer",
             span("privacy.answer", self._answer_done)),
        ]
        for owner in (violation, filter_l0, filter_l1):
            out.append((owner, "scan_scored_neighbors", self._scan))
        return out

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, build in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, build(original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self, count_ops: int, overhead: float) -> dict:
        """Per-operation counts over the first ``count_ops`` operations and
        per-operation self times over all of them."""
        out = {}
        head = self.per_op[:count_ops]
        for metric, key in COUNTS.items():
            out[metric] = sum(c.get(key, 0) for c, _ in head) / len(head)
        for metric, names in SELF_TIME.items():
            total = sum(s.get(n, 0.0) for _, s in self.per_op for n in names)
            out[metric] = total / len(self.per_op)
        out["trace.overhead_frac"] = overhead
        return out

    def dump(self, path) -> None:
        """Write the kept spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
