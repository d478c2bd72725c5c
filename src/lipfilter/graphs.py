"""Graph oracles: hypergrids, hypercubes, and explicit adjacency lists.

Vertices of product graphs are coordinate tuples (1-based for hypergrids,
0/1 for hypercubes); explicit graphs use integer ids.  Every graph exposes
the same small surface: ``neighbors``, ``dist``, ``ball``, iteration, and a
canonical string encoding used for ordering, hashing, and JSON keys.
Hypercube balls are enumerated layer by layer by flipping coordinates, with
no BFS; the other graphs share a BFS ball.
"""
from __future__ import annotations

import itertools
import json
import math
from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded, OutOfDomain, PartialFunction

Vertex = "tuple[int, ...] | int"


class InvalidArgs(OutOfDomain):
    """Constructor arguments do not describe a graph."""


def _ball_limit(radius, open_: bool) -> int:
    """Largest integer distance admitted by a (possibly fractional) radius."""
    if open_:
        return math.ceil(radius) - 1
    return math.floor(radius)


class _BallMixin:
    """Ball enumeration with an optional vertex budget.

    ``ball`` validates its arguments and hands the integer distance limit
    to ``_ball``; the default ``_ball`` is a BFS over ``neighbors``, and a
    graph with a closed form for its balls overrides ``_ball`` alone.
    """

    def ball(self, x, radius, *, open_: bool = False, budget: int | None = None):
        """Vertices within ``radius`` of ``x`` as (vertex, dist) pairs.

        Closed by default; ``open_=True`` means strict inequality.  Results
        are sorted by (distance, vertex).  Raises BudgetExceeded if and only
        if the ball has more than ``budget`` vertices.
        """
        self.check_vertex(x)
        limit = _ball_limit(radius, open_)
        if limit < 0:
            return []
        out = self._ball(x, limit, budget)
        if out is None:
            raise BudgetExceeded(f"ball({x}, {radius}) exceeded vertex budget {budget}")
        return out

    def _ball(self, x, limit: int, budget: int | None):
        """Sorted ball of integer radius ``limit``, or None past ``budget``."""
        out = [(x, 0)]
        seen = {x}
        queue = deque([(x, 0)])
        while queue:
            # every collected vertex is queued, so this also sees the last
            if budget is not None and len(out) > budget:
                return None
            v, d = queue.popleft()
            if d == limit:
                continue
            for w in self.neighbors(v):
                if w in seen:
                    continue
                seen.add(w)
                out.append((w, d + 1))
                queue.append((w, d + 1))
        out.sort(key=lambda p: (p[1], p[0]))
        return out


class Hypergrid(_BallMixin):
    """The graph H_{n,d} on [n]^d with edges between points at l1-distance 1."""

    kind = "hypergrid"

    def __init__(self, n: int, d: int):
        if n < 1 or d < 1:
            raise InvalidArgs(f"hypergrid needs n >= 1 and d >= 1, got n={n}, d={d}")
        self.n = n
        self.d = d
        self.n_vertices = n**d
        # two neighbours per coordinate at an inner point, one when n = 2
        self.max_degree = min(n - 1, 2) * d
        self.diameter = (n - 1) * d
        self._width = len(str(n))

    def __repr__(self):
        return f"Hypergrid(n={self.n}, d={self.d})"

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == self.d
            and all(isinstance(c, int) and 1 <= c <= self.n for c in x)
        )

    def check_vertex(self, x) -> None:
        if not self.contains(x):
            raise OutOfDomain(f"{x!r} is not a vertex of {self!r}")

    def vertices(self) -> Iterator[tuple]:
        return itertools.product(range(1, self.n + 1), repeat=self.d)

    def neighbors(self, x) -> list[tuple]:
        out = []
        for i, c in enumerate(x):
            if c > 1:
                out.append(x[:i] + (c - 1,) + x[i + 1 :])
            if c < self.n:
                out.append(x[:i] + (c + 1,) + x[i + 1 :])
        out.sort()
        return out

    def dist(self, x, y) -> int:
        return sum(abs(a - b) for a, b in zip(x, y))

    def edges(self) -> Iterator[tuple]:
        """Each edge once, as (low, high) in coordinate order."""
        for x in self.vertices():
            for i, c in enumerate(x):
                if c < self.n:
                    yield (x, x[:i] + (c + 1,) + x[i + 1 :])

    def canon(self, x) -> str:
        return "".join(str(c).zfill(self._width) for c in x)

    def from_canon(self, s: str) -> tuple:
        w = self._width
        if len(s) != w * self.d:
            raise OutOfDomain(f"bad canonical vertex {s!r} for {self!r}")
        x = tuple(int(s[i : i + w]) for i in range(0, len(s), w))
        self.check_vertex(x)
        return x


class Hypercube(_BallMixin):
    """The Boolean cube {0,1}^d under Hamming distance."""

    kind = "hypercube"

    def __init__(self, d: int):
        if d < 1:
            raise InvalidArgs(f"hypercube needs d >= 1, got {d}")
        self.d = d
        self.n = 2
        self.n_vertices = 2**d
        self.max_degree = d
        self.diameter = d

    def __repr__(self):
        return f"Hypercube(d={self.d})"

    def contains(self, x) -> bool:
        return isinstance(x, tuple) and len(x) == self.d and all(c in (0, 1) for c in x)

    def check_vertex(self, x) -> None:
        if not self.contains(x):
            raise OutOfDomain(f"{x!r} is not a vertex of {self!r}")

    def vertices(self) -> Iterator[tuple]:
        return itertools.product((0, 1), repeat=self.d)

    def neighbors(self, x) -> list[tuple]:
        out = [x[:i] + (1 - x[i],) + x[i + 1 :] for i in range(self.d)]
        out.sort()
        return out

    def dist(self, x, y) -> int:
        return sum(a != b for a, b in zip(x, y))

    def _ball(self, x, limit: int, budget: int | None):
        # The ball has sum_{k <= limit} C(d, k) vertices, so the budget is
        # decided before any is built.  Layer k flips one coordinate past
        # the last one flipped in layer k - 1, which builds each vertex once.
        d = self.d
        limit = min(limit, d)
        if budget is not None and sum(math.comb(d, k) for k in range(limit + 1)) > budget:
            return None
        out = [(x, 0)]
        layer = [(x, -1)]
        for k in range(1, limit + 1):
            layer = [
                (v[:i] + (1 - v[i],) + v[i + 1 :], i)
                for v, last in layer
                for i in range(last + 1, d)
            ]
            layer.sort()  # vertices in a layer are distinct: sorts by vertex
            out.extend([(v, k) for v, _ in layer])
        return out

    def edges(self) -> Iterator[tuple]:
        for x in self.vertices():
            for i in range(self.d):
                if x[i] == 0:
                    yield (x, x[:i] + (1,) + x[i + 1 :])

    def canon(self, x) -> str:
        return "".join(str(c) for c in x)

    def from_canon(self, s: str) -> tuple:
        x = tuple(int(c) for c in s)
        self.check_vertex(x)
        return x


class ExplicitGraph(_BallMixin):
    """An undirected graph given by an edge list over vertices 0..N-1.

    Distances come from BFS (cached per source).  Disconnected pairs get
    math.inf, which downstream code treats as "never violated".
    """

    kind = "explicit"

    def __init__(self, n_vertices: int, edges: Iterable[Sequence[int]]):
        if n_vertices < 1:
            raise InvalidArgs("explicit graph needs at least one vertex")
        self.n_vertices = n_vertices
        adj: list[set] = [set() for _ in range(n_vertices)]
        edge_set = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise OutOfDomain(f"edge {e!r} leaves vertex range 0..{n_vertices - 1}")
            if u == v:
                raise InvalidArgs(f"self-loop at {u} not allowed")
            adj[u].add(v)
            adj[v].add(u)
            edge_set.add((min(u, v), max(u, v)))
        self._adj = [tuple(sorted(s)) for s in adj]
        self._edges = sorted(edge_set)
        self.max_degree = max((len(a) for a in self._adj), default=0)
        self._dist_cache: dict[int, list] = {}
        self._width = len(str(n_vertices - 1))

    def __repr__(self):
        return f"ExplicitGraph(n_vertices={self.n_vertices}, edges={len(self._edges)})"

    def contains(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.n_vertices

    def check_vertex(self, x) -> None:
        if not self.contains(x):
            raise OutOfDomain(f"{x!r} is not a vertex of {self!r}")

    def vertices(self) -> Iterator[int]:
        return iter(range(self.n_vertices))

    def neighbors(self, x) -> tuple:
        self.check_vertex(x)
        return self._adj[x]

    def _dists_from(self, x) -> list:
        cached = self._dist_cache.get(x)
        if cached is not None:
            return cached
        dist = [math.inf] * self.n_vertices
        dist[x] = 0
        queue = deque([x])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if dist[w] is math.inf:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        self._dist_cache[x] = dist
        return dist

    def dist(self, x, y):
        self.check_vertex(x)
        self.check_vertex(y)
        return self._dists_from(x)[y]

    def edges(self) -> Iterator[tuple]:
        return iter(self._edges)

    def canon(self, x) -> str:
        return str(x).zfill(self._width)

    def from_canon(self, s: str) -> int:
        x = int(s)
        self.check_vertex(x)
        return x


def random_vertex(graph, rng):
    """Uniform vertex draw that never materializes the vertex set."""
    first = next(iter(graph.vertices()))
    if isinstance(first, tuple):
        base = first[0]
        return tuple(base + rng.randrange(graph.n) for _ in range(graph.d))
    return rng.randrange(graph.n_vertices)


def load_graph(source) -> ExplicitGraph:
    """Build an ExplicitGraph from {"vertices": N, "edges": [[u, v], ...]}.

    ``source`` may be a dict, a JSON string, or a path to a JSON file.
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except ValueError:
            with open(source) as fh:
                data = json.load(fh)
    else:
        data = source
    return ExplicitGraph(int(data["vertices"]), data.get("edges", []))


def graph_to_json(graph: ExplicitGraph) -> dict:
    return {"vertices": graph.n_vertices, "edges": [list(e) for e in graph.edges()]}


def is_c_lipschitz(graph, f, c) -> bool:
    """Edge-scan Lipschitz check: |f(x) - f(y)| <= c for every edge.

    Requires a total function; raises PartialFunction on any ? value.  For
    connected graphs the edge condition is equivalent to the pairwise one.
    """
    c = Fraction(c)
    for u, v in graph.edges():
        fu = f.lookup(u)
        fv = f.lookup(v)
        if fu is None or fv is None:
            raise PartialFunction(f"edge scan hit undefined value at {u!r} or {v!r}")
        if abs(fu - fv) > c:
            return False
    return True


def is_c_lipschitz_pairwise(graph, f, c) -> bool:
    """All-pairs Lipschitz check; skips ? values and disconnected pairs.

    Quadratic in the number of vertices, intended for small graphs and for
    partial functions where the edge scan does not apply.
    """
    c = Fraction(c)
    defined = []
    for x in graph.vertices():
        v = f.lookup(x)
        if v is not None:
            defined.append((x, v))
    for i, (x, fx) in enumerate(defined):
        for y, fy in defined[i + 1 :]:
            d = graph.dist(x, y)
            if d is math.inf:
                continue
            if abs(fx - fy) > c * d:
                return False
    return True
