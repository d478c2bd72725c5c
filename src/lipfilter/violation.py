"""Violation scores, the one violation scan, and the edge-scan Lipschitz
check.

A pair (x, y) is tau-violated when |f(x) - f(y)| - dist(x, y) > tau.
Pairs with an undefined endpoint or infinite distance are never violated.
``scan_scored_neighbors`` is the one routine that decides which partners
of x are tau-violated and how far to look for them: it takes tau and the
interval ``bounds`` = [lo, hi] that every defined value lies in (an
oracle's ``bounds``, not its claimed range).  A partner needs
dist(x, y) < |f(x) - f(y)| - tau <= max(hi - f(x), f(x) - lo) - tau, so
the scan walks the ball of radius ceil(max(hi - f(x), f(x) - lo) - tau)
- 1 and nothing farther: a centre whose value sits mid-range, or a large
tau, walks a small ball.  Distinct vertices sit at least 1 apart, so a
reach below 1 holds no partner and walks no ball; callers leave that
rule to the scan.  An upward scan finds each violated pair once, from
its lower end: it keeps only the partners with f(y) > f(x), which sit
within ceil(hi - f(x) - tau) - 1, so a centre at hi walks nothing.  The
l1 table's first pass makes upward scans; every other caller, and the
whole-graph references below, scan both ways.

A scan works on vertex ids (see ``graphs``): its centre is an id, its
``lookup`` reads by id, and it returns ids, so no coordinate tuple is
built or hashed in the scan.  It walks the ball shell by shell, from
shell 1 out, in the ball's own order within a shell: its output feeds
matchings that order their edges by rank, so nothing is sorted.  The
whole-graph functions below take and return vertices.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import PartialFunction
from .functions import ValueMemo


def violation_score(graph, f, x, y) -> Fraction:
    """max(0, |f(x) - f(y)| - dist(x, y)); 0 when either value is ?."""
    fx = f.lookup(x)
    fy = f.lookup(y)
    if fx is None or fy is None:
        return Fraction(0)
    d = graph.dist(x, y)
    if d is math.inf:
        return Fraction(0)
    return max(Fraction(0), abs(fx - fy) - d)


def scan_scored_neighbors(graph, lookup, x, *, tau, bounds, upward=False):
    """{y: score} for every id y whose violation score against the id x
    exceeds ``tau`` (>= 0), in ball order (shell by shell, unsorted within
    a shell), with every score a Fraction.

    ``lookup`` is any callable id -> Fraction | None whose defined values
    all lie in the Interval ``bounds`` = [lo, hi]; the scan trusts that
    and does not check it.  No such y sits farther than
    ceil(max(hi - f(x), f(x) - lo) - tau) - 1, so that is the ball walked.
    With ``upward=True`` only the y with f(y) > f(x) are kept; none sits
    farther than ceil(hi - f(x) - tau) - 1, so that smaller ball is walked.
    A reach below 1 holds no vertex but x, so then no ball is walked and
    the scan returns {} once ``x`` passes the graph's ``check_id``, the
    check ``ball`` makes.  Either ball is held to the ball layer's vertex
    budget.
    """
    fx = lookup(x)
    if fx is None:
        return {}
    # With fx = a/b, tau = u/v, hi = p/q and lo = s/t, fx + tau and fx - tau
    # are A/B and C/B with B = b*v; ceil(hi - fx - tau) is -((A*q - p*B) //
    # (B*q)) and ceil(fx - tau - lo) is -((s*B - C*t) // (B*t)): the radius
    # is decided in ints, and without min() and max(), which here cost more
    # than the arithmetic.
    a, b = fx.as_integer_ratio()
    u, v = tau.as_integer_ratio()
    p, q = bounds.hi.as_integer_ratio()
    s, t = bounds.lo.as_integer_ratio()
    av, ub, B = a * v, u * b, b * v
    up = ((av + ub) * q - p * B) // (B * q)    # -ceil(hi - fx - tau)
    if upward:
        radius = -up - 1
    else:
        down = (s * B - (av - ub) * t) // (B * t)  # -ceil(fx - tau - lo)
        radius = -(up if up < down else down) - 1
    if radius < 1:
        graph.check_id(x)
        return {}
    # With fy = c/e, read in one call, the score at distance d is (|a*e -
    # c*b| - d*b*e) / (b*e): whether it exceeds tau is decided in ints, an
    # upward scan drops fy <= fx (c*b <= a*e) before the score is computed,
    # a non-positive numerator is rejected before tau is looked at, and
    # only kept scores become Fractions.  Shell 0 is x itself.
    out = {}
    ball = graph.ball(x, radius)
    ends = ball.ends
    for d in range(1, len(ends)):
        db = d * b
        for y in ball[ends[d - 1]:ends[d]]:
            fy = lookup(y)
            if fy is None:
                continue
            c, e = fy.as_integer_ratio()
            if upward and c * b <= a * e:
                continue
            num = abs(a * e - c * b) - db * e
            if num > 0 and num * v > ub * e:
                out[y] = Fraction(num, b * e)
    return out


def _violated_pairs(graph, lookup, *, tau, bounds):
    """Every tau-violated pair, once each, as (low id, high id, score).
    ``lookup`` reads by id, and its defined values lie in ``bounds``.

    It scans both ways and keeps a pair from its smaller id, not upward
    scans from its lower value: ``global_filter_l1`` and the whole-graph
    checks build on it, so it stays the independent reference that the l1
    table's one-sided first pass is checked against."""
    for x in range(graph.n_vertices):
        for y, score in scan_scored_neighbors(
            graph, lookup, x, tau=tau, bounds=bounds
        ).items():
            if x < y:
                yield x, y, score


def _all_violated_pairs(graph, f):
    """_violated_pairs of f at tau = 0, by id, reading f once per vertex."""
    values = list(map(f.lookup, graph.vertices()))
    return _violated_pairs(graph, values.__getitem__, tau=0, bounds=f.bounds)


def violation_edges(graph, f):
    """Every 0-violated pair of f, each once as an ordered (low, high) edge."""
    # ids sort as their vertices do
    pairs = sorted((x, y) for x, y, _ in _all_violated_pairs(graph, f))
    return [(graph.vertex(x), graph.vertex(y)) for x, y in pairs]


def max_violation_score(graph, f) -> Fraction:
    """Largest violation score over all pairs (0 when f is 1-Lipschitz)."""
    return max((s for _, _, s in _all_violated_pairs(graph, f)),
               default=Fraction(0))


def is_c_lipschitz(graph, f, c) -> bool:
    """Edge-scan Lipschitz check: |f(x) - f(y)| <= c for every edge.

    Reads each vertex at most once and never reads an isolated one.
    Raises PartialFunction when an edge has a ? endpoint.  For connected
    graphs the edge condition is equivalent to the pairwise one;
    ``max_violation_score(graph, f) == 0`` is the pairwise check at c = 1,
    which also takes partial functions.
    """
    c = Fraction(c)
    values = ValueMemo(f.lookup)
    for u, v in graph.edges():
        fu = values[u]
        fv = values[v]
        if fu is None or fv is None:
            raise PartialFunction(f"edge scan hit undefined value at "
                                  f"{graph.canon(u)} or {graph.canon(v)}")
        if abs(fu - fv) > c:
            return False
    return True
