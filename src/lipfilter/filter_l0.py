"""Hamming-distance Lipschitz filter.

The local filter answers per-vertex queries for a corrected function that
is 1-Lipschitz, agrees with f outside the matched vertices of the
0-violation graph, and changes at most 2 * minVC values in total.  The
global form extends f from an arbitrary vertex cover of the violation
graph and is the reference the local filter must reproduce when handed the
matched set as the cover.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotACover, PartialFunction
from .matching import DEFAULT_EDGE_BUDGET, MatchingLCA
from .seeds import Seed
from .violation import DEFAULT_SCAN_BUDGET, scan_scored_neighbors


def global_filter_l0(graph, f, cover, *, lo=None):
    """Lipschitz extension from the complement of ``cover``.

    Every cover vertex u gets max(lo, max_{v not in cover} f(v) - dist(u, v))
    with the empty maximum reading as lo (0 for plain oracles); all other
    vertices keep their f value.  Raises NotACover if some violated pair
    avoids the cover.  Undefined cover members stay undefined so that
    g(x) = ? exactly where f(x) = ?.
    """
    values = {x: f.lookup(x) for x in graph.vertices()}
    floor = Fraction(f.lo if lo is None else lo)
    cover = set(cover)
    for u in cover:
        graph.check_vertex(u)

    outside = [
        (v, fv) for v, fv in values.items() if v not in cover and fv is not None
    ]
    # the uncovered part must already be Lipschitz
    for i, (x, fx) in enumerate(outside):
        for y, fy in outside[i + 1 :]:
            d = graph.dist(x, y)
            if d is not math.inf and abs(fx - fy) > d:
                raise NotACover(f"violated pair ({x!r}, {y!r}) not covered")

    g = dict(values)
    for u in cover:
        if values[u] is None:
            continue
        best = floor
        for v, fv in outside:
            d = graph.dist(u, v)
            if d is math.inf:
                continue
            cand = fv - d
            if cand > best:
                best = cand
        g[u] = best
    return g


class LocalFilterL0:
    """Per-query access to the corrected function for one (f, seed) pair.

    Matched vertices (under the seeded greedy matching of the 0-violation
    graph) are re-extended from the unmatched values within distance r;
    everything else passes through.  Caches inside a session are logically
    transparent: answers equal a fresh computation for every query order.
    The range [lo, lo + r] is the oracle's; wrap it with ``clip`` for
    another one.
    """

    def __init__(self, graph, f, seed: Seed, *,
                 scan_budget=DEFAULT_SCAN_BUDGET, match_budget=DEFAULT_EDGE_BUDGET):
        self.graph = graph
        self.f = f
        self.r = f.r
        self.lo = f.lo
        self.scan_budget = scan_budget
        self._values: dict = {}
        self._matcher = MatchingLCA(
            self._viol_adjacent, seed, encode=graph.canon, budget=match_budget
        )

    def _lookup(self, x):
        if x in self._values:
            return self._values[x]
        v = self.f.lookup(x)
        self._values[x] = v
        return v

    def _viol_adjacent(self, v):
        # the matcher caches adjacency, so each vertex is scanned once
        scored = scan_scored_neighbors(
            self.graph, self._lookup, self.r, v, budget=self.scan_budget
        )
        return [y for y, _ in scored]

    def match_of(self, x):
        return self._matcher.match_of(x)

    def value(self, x):
        """g(x).  Undefined exactly where f is undefined."""
        fx = self._lookup(x)
        if self.match_of(x) is None:
            return fx
        best = self.lo
        for y, d in self.graph.ball(x, self.r, budget=self.scan_budget):
            fy = self._lookup(y)
            if fy is None or self.match_of(y) is not None:
                continue
            cand = fy - d
            if cand > best:
                best = cand
        return best

    def matched_set(self):
        """All matched vertices; a vertex cover of the violation graph."""
        return {x for x in self.graph.vertices() if self.match_of(x) is not None}

    def table(self) -> dict:
        return {x: self.value(x) for x in self.graph.vertices()}
