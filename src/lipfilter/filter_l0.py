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

from .errors import NotACover
from .functions import ValueMemo
from .matching import MatchingLCA
from .seeds import Seed
from .violation import scan_scored_neighbors


def global_filter_l0(graph, f, cover):
    """Lipschitz extension from the complement of ``cover``.

    Every cover vertex u gets max(lo, max_{v not in cover} f(v) - dist(u, v))
    with lo = f.lo, so the empty maximum reads as lo; all other
    vertices keep their f value.  Raises NotACover if some violated pair
    avoids the cover.  Undefined cover members stay undefined so that
    g(x) = ? exactly where f(x) = ?.
    """
    values = {x: f.lookup(x) for x in graph.vertices()}
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
                raise NotACover(
                    f"violated pair ({graph.canon(x)}, {graph.canon(y)}) not covered")

    g = dict(values)
    for u in cover:
        if values[u] is None:
            continue
        best = f.lo
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
    graph) are re-extended from the unmatched values: g(x) = max(lo, f(y) -
    d(x, y)) over the unmatched, defined y, where lo = f.lo is the floor.
    Every defined value lies in f.bounds = [blo, bhi] (inside [lo, hi]),
    so a y at d(x, y) >= bhi - lo scores at most lo, and only the closed
    ball of radius ceil(bhi - lo) - 1 is walked; everything else passes
    through.  ``value`` walks it in (distance, vertex) order, sorting each
    shell of the ball when it reaches it, with a running best, asks the
    matching only about a y with f(y) - d > best, and stops at the first y
    with bhi - d <= best.  Scans take f.bounds too.  Caches
    inside a session are logically transparent: answers equal a fresh
    computation for every query order.  Inside the session every vertex is
    its id (see ``graphs``): the memo, the answers, the scans and the
    matching all key by id, and each public method converts its vertex
    once.  The session memo is a dict of f's values by id that reads f on
    a miss, so f is read once per distinct vertex; scans read it through
    its ``__getitem__``, which makes a hit one dict access, and ``read``
    hands it to callers.  Answers are memoized per vertex too, as the
    matching's partners are, so a repeated query walks no ball and opens
    no edge.  The floor and the bounds are the oracle's; wrap it with
    ``clip`` for others.
    """

    def __init__(self, graph, f, seed: Seed):
        self.graph = graph
        self.f = f
        self.lo = f.lo
        self.bounds = f.bounds
        self._values = ValueMemo(lambda i: f.lookup(graph.vertex(i)))
        self._answers = ValueMemo(self._value)
        self._matcher = MatchingLCA(self._viol_adjacent, seed, encode=graph.canon_of)

    def _viol_adjacent(self, v):
        # the matcher caches adjacency, so each vertex is scanned once
        return list(scan_scored_neighbors(
            self.graph, self._values.__getitem__, v, tau=0, bounds=self.bounds))

    def read_table(self):
        """Read f at every vertex into the session memo, so that no query
        reads f again.  Call it before the first query."""
        self._values.update(enumerate(map(self.f.lookup, self.graph.vertices())))

    def match_of(self, x):
        partner = self._matcher.match_of(self.graph.index(x))
        return None if partner is None else self.graph.vertex(partner)

    def read(self, x):
        """f(x) as this session reads it: from the memo, or from f once."""
        return self._values[self.graph.index(x)]

    def value(self, x):
        """g(x).  Undefined exactly where f is undefined."""
        return self._answers[self.graph.index(x)]

    def _value(self, i):
        values = self._values
        match_of = self._matcher.match_of
        fx = values[i]
        if match_of(i) is None:
            return fx
        # One rule bounds the walk and stops it: f(y) <= hi = bounds.hi, so
        # a y at d >= hi - best scores at most best.  The ball is the one of
        # radius ceil(hi - lo) - 1, walked in (d, id) order by sorting each
        # shell as it is reached, and the walk stops once d reaches
        # ceil(hi - best), most often a shell or two out.  With best =
        # bn/bd and f(y) = c/e, f(y) - d > best is decided in ints, and only
        # such a y is asked whether it is matched.
        hi = self.bounds.hi
        best = self.lo
        bn, bd = best.as_integer_ratio()
        stop = math.ceil(hi - best)
        ball = self.graph.ball(i, stop - 1)
        start = 0
        for d, end in enumerate(ball.ends):
            if d >= stop:
                break
            for y in sorted(ball[start:end]):
                fy = values[y]
                if fy is None:
                    continue
                c, e = fy.as_integer_ratio()
                if (c - d * e) * bd > bn * e and match_of(y) is None:
                    best = fy - d
                    bn, bd = best.as_integer_ratio()
                    stop = math.ceil(hi - best)
                    if d >= stop:
                        break
            start = end
        return best

    def matched_set(self):
        """All matched vertices; a vertex cover of the violation graph."""
        match_of = self._matcher.match_of
        return {x for i, x in enumerate(self.graph.vertices())
                if match_of(i) is not None}

    def table(self) -> dict:
        return {x: self._answers[i] for i, x in enumerate(self.graph.vertices())}
