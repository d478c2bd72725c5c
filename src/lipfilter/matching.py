"""Local computation of the random-greedy maximal matching.

Every edge gets a pseudorandom rank from the seed.  An edge is matched iff
every adjacent edge of smaller rank is unmatched; this recursion is
well-founded because ranks strictly decrease along it, and it is explored
in ascending rank, stopping at the first matched blocker (the local
simulation of Yoshida, Yamamoto and Ito, STOC 2009).  Verdicts and
partners depend only on the seed and the graph, never on query order, and
both are memoized per instance.

The neighbor oracle must be symmetric (y in nbrs(x) iff x in nbrs(y));
violation-graph oracles built in this package are.
"""
from __future__ import annotations

import threading
from bisect import bisect_left

from .errors import BudgetExceeded
from .seeds import Seed, edge_rank

DEFAULT_EDGE_BUDGET = 1_000_000


class MatchingLCA:
    """match_of queries against the greedy matching defined by ``seed``.

    Each vertex's incident edges are read from the neighbor oracle once and
    cached as ``(rank, edge)`` pairs in ascending rank, each edge ranked
    once.  ``match_of`` walks that list; the blockers of an edge are the
    entries of smaller rank in its endpoints' lists.  Every edge whose
    verdict a ``match_of`` query has to compute counts once against
    ``budget``; memoized verdicts are free.  Each vertex's partner is
    memoized once its query finishes, so a repeated query is one dict
    read, and a query that runs out of budget leaves no partner behind.

    Args:
        neighbors: callable vertex -> iterable of adjacent vertices.
        seed: rank PRF key.
        encode: canonical encoding of what the oracle names a vertex by
            (graph.canon for vertices, graph.canon_of for ids).
        budget: cap on newly explored edges per ``match_of`` query.
    """

    def __init__(self, neighbors, seed: Seed, *, encode, budget=DEFAULT_EDGE_BUDGET):
        self._nbrs = neighbors
        self._seed = seed
        self._encode = encode
        self._budget = budget
        self._used = 0  # edges explored by the current top-level query
        self._incident_of: dict = {}  # vertex -> [(rank, edge)], ascending
        self._ranks: dict = {}
        self._verdict: dict = {}
        self._partner: dict = {}  # vertex -> partner or None
        self._lock = threading.RLock()

    def _incident(self, v) -> list:
        out = self._incident_of.get(v)
        if out is None:
            out = []
            for w in self._nbrs(v):
                e = (v, w) if v < w else (w, v)
                r = self._ranks.get(e)
                if r is None:
                    r = self._ranks[e] = edge_rank(
                        self._seed, self._encode(e[0]), self._encode(e[1]))
                out.append((r, e))
            out.sort()
            self._incident_of[v] = out
        return out

    def _open(self, rank, e) -> list:
        """Charge ``e`` to the budget; its frame [edge, blockers, next]."""
        self._used += 1
        if self._used > self._budget:
            raise BudgetExceeded(f"matching exploration exceeded {self._budget} edges at "
                                 f"({self._encode(e[0])}, {self._encode(e[1])})")
        below = (rank,)  # sorts before every entry of this rank
        pu, pv = self._incident(e[0]), self._incident(e[1])
        blockers = pu[:bisect_left(pu, below)] + pv[:bisect_left(pv, below)]
        blockers.sort()
        return [e, blockers, 0]

    def _eval(self, rank, root) -> bool:
        verdict = self._verdict
        if root in verdict:
            return verdict[root]
        stack = [self._open(rank, root)]
        while stack:
            frame = stack[-1]
            e, blockers, i = frame
            while i < len(blockers) and verdict.get(blockers[i][1]) is False:
                i += 1
            frame[2] = i
            if i < len(blockers) and blockers[i][1] not in verdict:
                stack.append(self._open(*blockers[i]))
                continue
            # matched iff no smaller-rank neighbouring edge is matched
            verdict[e] = i == len(blockers)
            stack.pop()
        return verdict[root]

    def match_of(self, x):
        """Partner of ``x`` in the matching, or None if unmatched."""
        with self._lock:
            try:
                return self._partner[x]
            except KeyError:
                pass
            self._used = 0
            partner = None
            for rank, e in self._incident(x):
                if self._eval(rank, e):
                    partner = e[1] if e[0] == x else e[0]
                    break
            self._partner[x] = partner
            return partner


def greedy_maximal_matching(edges, seed: Seed, *, encode) -> dict:
    """Global reference: scan all edges by ascending rank, keep the free ones.

    Returns a symmetric partner map.  Produces exactly the matching that
    MatchingLCA answers pointwise for the same seed.
    """
    ordered = sorted(
        {(u, v) if u < v else (v, u) for u, v in edges},
        key=lambda e: edge_rank(seed, encode(e[0]), encode(e[1])),
    )
    partner: dict = {}
    for u, v in ordered:
        if u not in partner and v not in partner:
            partner[u] = v
            partner[v] = u
    return partner
