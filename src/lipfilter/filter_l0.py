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

from .errors import NotACover
from .functions import ValueMemo
from .matching import DEFAULT_EDGE_BUDGET, MatchingLCA
from .seeds import Seed
from .violation import DEFAULT_SCAN_BUDGET, scan_radius, scan_scored_neighbors


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
    graph) are re-extended from the unmatched values nearer than r: g(x) =
    max(lo, f(y) - d(x, y)) over the unmatched, defined y with d(x, y) < r;
    everything else passes through.  The open ball loses nothing, since a
    y at distance >= r scores at most hi - r = lo.  ``value`` walks it in
    (distance, vertex) order with a running best, asks the matching only
    about a y with f(y) - d > best, and stops at the first y with hi - d
    <= best, which is exact because values stay in [lo, hi].  Caches
    inside a session are logically transparent: answers equal a fresh
    computation for every query order.  The session memo is a dict of f's
    values that reads f on a miss, so f is read once per distinct vertex;
    scans read it through its ``__getitem__``, which makes a hit one dict
    access.  The range [lo, lo + r] is the oracle's; wrap it with ``clip``
    for another one.
    """

    def __init__(self, graph, f, seed: Seed, *,
                 scan_budget=DEFAULT_SCAN_BUDGET, match_budget=DEFAULT_EDGE_BUDGET):
        self.graph = graph
        self.f = f
        self.r = f.r
        self.lo = f.lo
        self.hi = f.hi
        self.scan_budget = scan_budget
        self._radius = scan_radius(f.r, 0)
        self._values = ValueMemo(f)
        self._matcher = MatchingLCA(
            self._viol_adjacent, seed, encode=graph.canon, budget=match_budget
        )

    def _viol_adjacent(self, v):
        # the matcher caches adjacency, so each vertex is scanned once
        return list(scan_scored_neighbors(
            self.graph, self._values.__getitem__, v, radius=self._radius,
            lo=self.lo, hi=self.hi, budget=self.scan_budget))

    def read_table(self):
        """Read f at every vertex into the session memo, so that no query
        reads f again.  Call it before the first query."""
        self._values.update((x, self.f.lookup(x)) for x in self.graph.vertices())

    def match_of(self, x):
        return self._matcher.match_of(x)

    def value(self, x):
        """g(x).  Undefined exactly where f is undefined."""
        # a memo hit skips f's vertex check, and (0.0, True) would hit (0, 1)
        self.graph.check_vertex(x)
        values = self._values
        fx = values[x]
        if self.match_of(x) is None:
            return fx
        # The open ball is exact: a y at d >= r scores at most hi - r = lo.
        # The stop is exact: the ball is sorted by d and f(y) <= hi, so once
        # d >= hi - best no later y beats best.  With best = bn/bd and f(y)
        # = c/e, f(y) - d > best is decided in ints, and only such a y is
        # asked whether it is matched.
        hi = self.hi
        best = self.lo
        bn, bd = best.numerator, best.denominator
        stop = math.ceil(hi - best)
        for y, d in self.graph.ball(x, self.r, open_=True, budget=self.scan_budget):
            if d >= stop:
                break
            fy = values[y]
            if fy is None:
                continue
            c, e = fy.numerator, fy.denominator
            if (c - d * e) * bd > bn * e and self.match_of(y) is None:
                best = fy - d
                bn, bd = best.numerator, best.denominator
                stop = math.ceil(hi - best)
        return best

    def matched_set(self):
        """All matched vertices; a vertex cover of the violation graph."""
        return {x for x in self.graph.vertices() if self.match_of(x) is not None}

    def table(self) -> dict:
        return {x: self.value(x) for x in self.graph.vertices()}
