"""Violation scores, the one violation scan, and the edge-scan Lipschitz
check.

A pair (x, y) is tau-violated when |f(x) - f(y)| - dist(x, y) > tau.
Pairs with an undefined endpoint or infinite distance are never violated.
Because defined values span at most the range diameter r, every
tau-violated partner of x sits within ``scan_radius(r, tau)``, which is
the radius every caller hands ``scan_scored_neighbors``.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import PartialFunction
from .functions import ValueMemo

DEFAULT_SCAN_BUDGET = 200_000


def scan_radius(r, tau) -> int:
    """ceil(r - tau) - 1, floored at 0: the farthest a tau-violated partner
    can sit when values differ by at most r."""
    return max(0, math.ceil(r - tau) - 1)


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


def scan_scored_neighbors(graph, lookup, x, *, radius, budget=DEFAULT_SCAN_BUDGET):
    """{y: score} for every y within ``radius`` of x whose violation score
    against x is positive, in ball order, with every score a Fraction.

    ``lookup`` is any callable vertex -> Fraction | None.  The tau-violated
    partners of x are the entries scoring above tau at radius
    ``scan_radius(r, tau)``.
    """
    fx = lookup(x)
    if fx is None:
        return {}
    # With fx = a/b and fy = c/e the score is (|a*e - c*b| - d*b*e) / (b*e):
    # its sign is decided in ints, and only positive scores become Fractions.
    a, b = fx.numerator, fx.denominator
    out = {}
    for y, d in graph.ball(x, radius, budget=budget):
        if d == 0:
            continue
        fy = lookup(y)
        if fy is None:
            continue
        c, e = fy.numerator, fy.denominator
        num = abs(a * e - c * b) - d * b * e
        if num > 0:
            out[y] = Fraction(num, b * e)
    return out


def _violated_pairs(graph, lookup, *, radius, budget=DEFAULT_SCAN_BUDGET):
    """Every pair within ``radius`` with a positive score, once each, as
    (low, high, score)."""
    for x in graph.vertices():
        for y, score in scan_scored_neighbors(
            graph, lookup, x, radius=radius, budget=budget
        ).items():
            if x < y:
                yield x, y, score


def _all_violated_pairs(graph, f, budget):
    """_violated_pairs of f at tau = 0, reading f once per vertex."""
    values = {x: f.lookup(x) for x in graph.vertices()}
    return _violated_pairs(graph, values.get, radius=scan_radius(f.r, 0), budget=budget)


def violation_edges(graph, f, *, budget=DEFAULT_SCAN_BUDGET):
    """Every 0-violated pair of f, each once as an ordered (low, high) edge."""
    return sorted((x, y) for x, y, _ in _all_violated_pairs(graph, f, budget))


def max_violation_score(graph, f, *, budget=DEFAULT_SCAN_BUDGET) -> Fraction:
    """Largest violation score over all pairs (0 when f is 1-Lipschitz)."""
    return max((s for _, _, s in _all_violated_pairs(graph, f, budget)),
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
    values = ValueMemo(f)
    for u, v in graph.edges():
        fu = values[u]
        fv = values[v]
        if fu is None or fv is None:
            raise PartialFunction(f"edge scan hit undefined value at {u!r} or {v!r}")
        if abs(fu - fv) > c:
            return False
    return True
