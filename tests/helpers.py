"""Shared builders for the test suite."""
from fractions import Fraction

from lipfilter import ExplicitGraph, Seed, TableFunction, scan_scored_neighbors
from lipfilter.violation import _violated_pairs


def seed_of(i: int) -> Seed:
    return Seed.from_int(i)


def random_connected_graph(rng, n, extra=0) -> ExplicitGraph:
    """Random spanning tree plus `extra` chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    for _ in range(extra * 10):
        if len(edges) >= n - 1 + extra:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return ExplicitGraph(n, sorted(edges))


def lipschitz_table(graph, rng, r, anchors=3, halves=False) -> TableFunction:
    """Random 1-Lipschitz function: min of shifted distance cones, clipped."""
    r = Fraction(r)
    verts = list(graph.vertices())
    shift = Fraction(1, 2) if halves else Fraction(0)
    pool = [
        (verts[rng.randrange(len(verts))],
         Fraction(rng.randrange(-int(r), int(r) + 1)) + shift)
        for _ in range(anchors)
    ]
    values = {}
    for x in verts:
        best = min(Fraction(graph.dist(x, a)) + c for a, c in pool)
        values[x] = min(max(best, Fraction(0)), r)
    return TableFunction(graph, values, r)


def random_table(graph, rng, r, denom=2) -> TableFunction:
    """Uniform random values on the grid {0, 1/denom, ..., r}."""
    r = Fraction(r)
    steps = int(r * denom)
    values = {
        x: Fraction(rng.randrange(steps + 1), denom) for x in graph.vertices()
    }
    return TableFunction(graph, values, r)


def corrupted_lipschitz(graph, rng, r, k) -> TableFunction:
    """Lipschitz base with k values slammed to an extreme."""
    base = lipschitz_table(graph, rng, r)
    verts = list(graph.vertices())
    table = {x: base.lookup(x) for x in verts}
    for x in rng.sample(verts, k):
        table[x] = Fraction(0) if rng.random() < 0.5 else Fraction(r)
    return TableFunction(graph, table, r)


# The ball and the scans work on vertex ids; these take and return vertices,
# so a test can state what it expects in vertices.

def ball_of(graph, x, radius, **kw):
    """``graph.ball`` around the vertex ``x``, as (vertex, dist) pairs in
    (dist, vertex) order: each shell is sorted, since ids sort as their
    vertices do."""
    vertex = graph.vertex
    shells = graph.ball(graph.index(x), radius, **kw).shells()
    return [(vertex(y), d) for d, shell in enumerate(shells) for y in sorted(shell)]


def scan_of(graph, lookup, x, **kw):
    """``scan_scored_neighbors`` around the vertex ``x``, with ``lookup``
    reading vertices, as {vertex: score}."""
    vertex = graph.vertex
    got = scan_scored_neighbors(graph, lambda i: lookup(vertex(i)), graph.index(x), **kw)
    return {vertex(y): score for y, score in got.items()}


def violated_pairs_of(graph, lookup, **kw):
    """``_violated_pairs`` with ``lookup`` reading vertices, as a list of
    (low vertex, high vertex, score)."""
    vertex = graph.vertex
    return [(vertex(x), vertex(y), score) for x, y, score in
            _violated_pairs(graph, lambda i: lookup(vertex(i)), **kw)]
