"""Exact distance-to-Lipschitz oracles for small instances.

The l0 distance equals |minimum vertex cover of the violation graph| / N:
any Lipschitz rewrite must touch at least one endpoint of every violated
pair, and conversely rewriting a cover suffices.  The l1 distance is the
optimum of a small LP solved exactly over rationals.

Both oracles enumerate the whole domain, so they are test equipment, not
part of the sublinear query path.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import CapExceeded, InvalidParam, PartialFunction, SizeExceeded
from .simplex import solve_min
from .violation import violation_edges

# Largest domain exact_l1_distance solves: its LP tableau is dense.
MAX_L1_VERTICES = 64


def min_vertex_cover(edges, *, cap=None):
    """Minimum vertex cover of an undirected graph given as an edge list.

    Branch and bound: branch on the endpoints of the first uncovered edge,
    prune with a greedy-matching lower bound.  Deterministic for a fixed
    edge list.  `cap` bounds the number of search nodes; exceeding it
    raises CapExceeded.  A cap that is not an int of at least 1 (a bool
    included) raises InvalidParam before any search.
    """
    if cap is not None and (type(cap) is not int or cap < 1):
        raise InvalidParam(f"cover search cap must be an int >= 1, got {cap!r}")
    norm = sorted({(u, v) if u <= v else (v, u) for u, v in edges})
    for u, v in norm:
        if u == v:
            raise InvalidParam("self-loop in cover instance")
    if not norm:
        return frozenset()

    best = [None]
    nodes = [0]

    def matching_lb(rem):
        used = set()
        k = 0
        for u, v in rem:
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                k += 1
        return k

    def rec(chosen, rem):
        nodes[0] += 1
        if cap is not None and nodes[0] > cap:
            raise CapExceeded(f"vertex cover search exceeded {cap} nodes")
        if best[0] is not None and len(chosen) + matching_lb(rem) >= len(best[0]):
            return
        if not rem:
            best[0] = frozenset(chosen)
            return
        u, v = rem[0]
        for pick in (u, v):
            chosen.add(pick)
            rec(chosen, [e for e in rem if pick not in e])
            chosen.discard(pick)

    rec(set(), norm)
    return best[0]


def min_violation_cover(graph, f, *, cap=None):
    return min_vertex_cover(violation_edges(graph, f), cap=cap)


def exact_l0_distance(graph, f, *, cap=None):
    """Fraction of points that must change to make f Lipschitz."""
    cover = min_violation_cover(graph, f, cap=cap)
    return Fraction(len(cover), graph.n_vertices)


def exact_l1_distance(graph, f, *, with_witness=False):
    """Normalized l1 distance from f to the nearest Lipschitz function.

    Solves min (1/N) sum |g(x) - f(x)| over 1-Lipschitz g exactly.  With
    `with_witness` also returns an optimal g as a dict.  Raises
    PartialFunction at the first ? value.  Restricted to tiny domains
    because the LP tableau is dense.
    """
    n = graph.n_vertices
    if n > MAX_L1_VERTICES:
        raise SizeExceeded(f"domain has {n} > {MAX_L1_VERTICES} vertices")
    verts = sorted(graph.vertices())
    index = {x: i for i, x in enumerate(verts)}
    lo = f.lo

    # variables: y_i = g(x_i) - lo >= 0 at [0..n), slack e_i >= 0 at [n..2n)
    c = [Fraction(0)] * n + [Fraction(1)] * n
    A = []
    b = []
    for i, x in enumerate(verts):
        fx = f.lookup(x)
        if fx is None:
            raise PartialFunction(
                f"l1 distance needs a total function; f({graph.canon(x)}) = ?")
        fx -= lo
        row = [Fraction(0)] * (2 * n)
        row[i] = Fraction(1)
        row[n + i] = Fraction(1)
        A.append(row)
        b.append(fx)  # e + y >= fx
        row = [Fraction(0)] * (2 * n)
        row[i] = Fraction(-1)
        row[n + i] = Fraction(1)
        A.append(row)
        b.append(-fx)  # e - y >= -fx
    for u, v in graph.edges():
        i, j = index[u], index[v]
        for a, bb in ((i, j), (j, i)):
            row = [Fraction(0)] * (2 * n)
            row[a] = Fraction(1)
            row[bb] = Fraction(-1)
            A.append(row)
            b.append(Fraction(-1))  # y_a - y_b >= -1

    value, x = solve_min(c, A, b)
    dist = value / n
    if not with_witness:
        return dist
    witness = {v: lo + x[index[v]] for v in verts}
    return dist, witness
