"""Graph oracles: hypergrids, hypercubes, and explicit adjacency lists.

Vertices of product graphs are coordinate tuples, from ``base`` to
``base + n - 1`` in each coordinate: 1-based for hypergrids, and 0/1 for the
hypercube, which is the hypergrid with n = 2 and coordinates from 0.
Explicit graphs use integer ids.  Every graph exposes the same small
surface: ``neighbors``, ``dist``, ``ball``, iteration, and a canonical
string encoding used for ordering, hashing, and JSON keys, which
``from_canon`` inverts exactly.

Every graph also numbers its vertices: ``index(x)`` and ``vertex(i)`` are
inverse, order-preserving maps between the vertices and
``range(n_vertices)``, and ``vertices()`` lists the vertices in id order.
A product graph's id reads the coordinates, less ``base``, as the digits
of a base-n number, coordinate 0 most significant; an explicit graph's
ids are its vertices.  ``ball`` takes a centre's id and returns a
``Ball`` of ids, so the filters' scans and memos work on ints and never
build or hash a coordinate tuple.  A ball comes shell by shell, each
shell's ids in the order its kernel makes them, unsorted: hypercube balls
XOR the centre's id with cached masks of each Hamming weight, and the
other graphs share a BFS over an id adjacency, in discovery order.  A
caller that needs a shell in id order sorts that shell alone.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded, InvalidParam, OutOfDomain

Vertex = "tuple[int, ...] | int"

# the most vertices a ball may hold: the cap on every scan and extension
DEFAULT_SCAN_BUDGET = 200_000

_ZERO_ONE = frozenset((0, 1))
_INT = frozenset((int,))
# canon of a 0/1 tuple: its bytes with 0 and 1 read as the digits
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# and back: the digits' bytes read as 0 and 1
_UNDIGITS = bytes.maketrans(b"01", b"\x00\x01")


class InvalidArgs(OutOfDomain):
    """Constructor arguments do not describe a graph."""


class Ball(list):
    """The ids of a ball, shell after shell, with ``ends[k]`` the offset
    one past shell k: shell k is ``ball[ends[k - 1]:ends[k]]``, and shell 0,
    ``ball[:ends[0]]``, is the centre alone.  Shells come out to the ball's
    radius or to the last non-empty one, whichever is nearer, so ``ends``
    strictly increases and ``ends[-1] == len(ball)``; the empty ball of a
    negative radius has no shells.  Within a shell the order is the
    kernel's (see ``graphs``).
    """

    __slots__ = ("ends",)

    def __init__(self, ids, ends):
        super().__init__(ids)
        self.ends = ends

    def shells(self) -> Iterator[list]:
        """Each shell's ids as a list, from shell 0 out."""
        start = 0
        for end in self.ends:
            yield self[start:end]
            start = end


class _BallMixin:
    """Vertex and id checks, canonical decoding, and balls with a vertex
    budget.

    ``check_vertex`` raises OutOfDomain unless the graph's ``contains``
    accepts its argument, and ``check_id`` unless its argument is an int
    id, not a bool, in ``range(n_vertices)``.  ``from_canon`` inverts
    ``canon`` exactly: it decodes through the graph's ``_decode`` and
    raises OutOfDomain unless the result is a vertex whose ``canon`` gives
    the text back.  ``ball`` validates its arguments and hands them to
    ``_ball``; the default ``_ball`` is a BFS over ``_id_neighbors``, the
    ids adjacent to an id, and a graph with a closed form for its balls
    overrides ``_ball`` alone.
    """

    def check_vertex(self, x) -> None:
        if not self.contains(x):
            raise OutOfDomain(f"{x!r} is not a vertex of {self!r}")

    def check_id(self, i) -> None:
        if type(i) is not int or not 0 <= i < self.n_vertices:
            raise OutOfDomain(f"{i!r} is not a vertex id of {self!r}")

    def canon_of(self, i) -> str:
        """``canon`` of the vertex whose id is ``i``."""
        return self.canon(self.vertex(i))

    def from_canon(self, s: str):
        """The vertex whose ``canon`` is ``s``; OutOfDomain if there is none."""
        try:
            x = self._decode(s)
        except ValueError:
            pass
        else:
            # a decoder reads more than canon writes: int() takes signs,
            # spaces and non-ASCII digits, the cube's table other bytes
            if self.contains(x) and self.canon(x) == s:
                return x
        raise OutOfDomain(f"bad canonical vertex {s!r} for {self!r}")

    def ball(self, i, radius: int, *, budget: int = DEFAULT_SCAN_BUDGET) -> Ball:
        """The ids at distance at most ``radius`` from the vertex whose id
        is ``i``, as a ``Ball``: shell k holds the ids at distance k, in
        the kernel's order; the empty Ball for a negative radius.

        ``i`` must pass ``check_id``.  ``radius`` and ``budget`` are ints;
        anything else, a bool or an integral float included, raises
        InvalidParam.  Raises BudgetExceeded, naming the centre in
        canonical form, if and only if the ball has more than ``budget``
        vertices.
        """
        self.check_id(i)
        if type(radius) is not int or type(budget) is not int:
            raise InvalidParam(
                f"ball needs an int radius and budget, got {radius!r} and {budget!r}")
        if radius < 0:
            return Ball((), [])
        out = self._ball(i, radius, budget)
        if out is None:
            raise BudgetExceeded(
                f"ball({self.canon_of(i)}, {radius}) exceeded vertex budget {budget}")
        return out

    def _ball(self, i, radius: int, budget: int):
        """Ball of ``radius`` >= 0, or None past ``budget``."""
        # BFS a layer at a time, each layer in discovery order; shells
        # 0 .. len(ends) - 1 are built
        nbrs = self._id_neighbors
        seen = {i}
        ends = [1]
        out = Ball([i], ends)
        layer = [i]
        while layer and len(ends) <= radius and len(seen) <= budget:
            nxt = []
            for v in layer:
                for w in nbrs(v):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
                if len(seen) > budget:
                    break
            if nxt:
                out += nxt
                ends.append(len(out))
            layer = nxt
        return out if len(seen) <= budget else None


class Hypergrid(_BallMixin):
    """The graph H_{n,d} on [n]^d with edges between points at l1-distance 1.

    Coordinates run from the class attribute ``base`` to ``base + n - 1``.
    """

    base = 1

    def __init__(self, n: int, d: int):
        if n < 1 or d < 1:
            raise InvalidArgs(f"hypergrid needs n >= 1 and d >= 1, got n={n}, d={d}")
        self.n = n
        self.d = d
        self.n_vertices = n**d
        self.diameter = (n - 1) * d
        self._width = len(str(n))

    def __repr__(self):
        return f"Hypergrid(n={self.n}, d={self.d})"

    def contains(self, x) -> bool:
        lo, hi = self.base, self.base + self.n - 1
        return (
            isinstance(x, tuple)
            and len(x) == self.d
            and all(type(c) is int and lo <= c <= hi for c in x)
        )

    def vertices(self) -> Iterator[tuple]:
        return itertools.product(range(self.base, self.base + self.n), repeat=self.d)

    def neighbors(self, x) -> list[tuple]:
        lo, hi = self.base, self.base + self.n - 1
        out = []
        for i, c in enumerate(x):
            if c > lo:
                out.append(x[:i] + (c - 1,) + x[i + 1 :])
            if c < hi:
                out.append(x[:i] + (c + 1,) + x[i + 1 :])
        out.sort()
        return out

    def dist(self, x, y) -> int:
        return sum(abs(a - b) for a, b in zip(x, y))

    def index(self, x) -> int:
        """The id of the vertex ``x``: its coordinates less ``base`` read as
        base-n digits, coordinate 0 most significant."""
        self.check_vertex(x)
        n, base = self.n, self.base
        i = 0
        for c in x:
            i = i * n + c - base
        return i

    def vertex(self, i) -> tuple:
        """The vertex whose id is ``i``."""
        self.check_id(i)
        n, base = self.n, self.base
        out = [0] * self.d
        for j in range(self.d - 1, -1, -1):
            i, out[j] = divmod(i, n)
            out[j] += base
        return tuple(out)

    def _id_neighbors(self, i) -> list:
        # peel the id's base-n digits, last coordinate first: digit c sits
        # at place value s; a ball's shells are unordered, so output order
        # is free
        n = self.n
        out = []
        q, s = i, 1
        for _ in range(self.d):
            q, c = divmod(q, n)
            if c > 0:
                out.append(i - s)
            if c < n - 1:
                out.append(i + s)
            s *= n
        return out

    def edges(self) -> Iterator[tuple]:
        """Each edge once, as (low, high) in coordinate order."""
        hi = self.base + self.n - 1
        for x in self.vertices():
            for i, c in enumerate(x):
                if c < hi:
                    yield (x, x[:i] + (c + 1,) + x[i + 1 :])

    def canon(self, x) -> str:
        return "".join(str(c).zfill(self._width) for c in x)

    def _decode(self, s: str) -> tuple:
        w = self._width
        return tuple(int(s[i : i + w]) for i in range(0, len(s), w))


class Hypercube(Hypergrid):
    """The Boolean cube {0,1}^d under Hamming distance: the hypergrid with
    n = 2 and coordinates from 0.

    It keeps its own fast kernels for ``contains``, ``canon``, decoding,
    vertices from ids and balls: ``canon`` and ``_decode`` map a tuple's
    bytes through a byte table and back, with no per-coordinate ``int()``.
    An id is the coordinates read as the bits of an int, which is
    ``Hypergrid.index`` at n = 2 and base 0, so ``canon_of`` writes an
    id's bits and builds no tuple.
    """

    base = 0

    def __init__(self, d: int):
        if d < 1:
            raise InvalidArgs(f"hypercube needs d >= 1, got {d}")
        super().__init__(2, d)
        self._bits = f"0{d}b"  # format spec of an id's d bits
        # _sizes[k]: the vertices within distance k, sum_{j <= k} C(d, j),
        # and _masks[k]: the d-bit ints of Hamming weight k, both extended
        # by _ball on use
        self._sizes = [1]
        self._masks = [[0]]

    def __repr__(self):
        return f"Hypercube(d={self.d})"

    def contains(self, x) -> bool:
        # two C-level set tests: every coordinate is 0 or 1, and an exact int
        return (isinstance(x, tuple) and len(x) == self.d
                and {*x} <= _ZERO_ONE and {*map(type, x)} == _INT)

    def dist(self, x, y) -> int:
        return sum(a != b for a, b in zip(x, y))

    def vertex(self, i) -> tuple:
        self.check_id(i)
        return tuple(format(i, self._bits).encode().translate(_UNDIGITS))

    def canon_of(self, i) -> str:
        # an id's d bits are its vertex's canon, with no tuple built
        self.check_id(i)
        return format(i, self._bits)

    def _ball(self, i, radius: int, budget: int):
        # The ball has _sizes[limit] vertices, limit = min(radius, d), so the
        # budget is decided before any mask is built, and sizes grow with
        # the radius, so the table stops at the first size past the budget.
        # An id's bits are its coordinates, so shell k is i XOR each
        # weight-k mask, and _sizes[k] is where it ends.
        d = self.d
        limit = min(radius, d)
        sizes = self._sizes
        while len(sizes) <= limit:
            if sizes[-1] > budget:
                return None
            sizes.append(sizes[-1] + math.comb(d, len(sizes)))
        if sizes[limit] > budget:
            return None
        masks = self._masks
        while len(masks) <= limit:
            # a mask gains only bits above its highest, so each is built once
            masks.append([m | (1 << j) for m in masks[-1] for j in range(m.bit_length(), d)])
        out = Ball([i], sizes[:limit + 1])
        for k in range(1, limit + 1):
            out += [i ^ m for m in masks[k]]
        return out

    def canon(self, x) -> str:
        return bytes(x).translate(_DIGITS).decode()

    def _decode(self, s: str) -> tuple:
        # non-ASCII text raises UnicodeEncodeError, a ValueError; other
        # bytes pass through, and from_canon's round trip rejects them
        return tuple(s.encode("ascii").translate(_UNDIGITS))


class ExplicitGraph(_BallMixin):
    """An undirected graph given by an edge list over vertices 0..N-1.

    Distances are read from the whole ball of each source, cached.
    Disconnected pairs get math.inf, which downstream code treats as
    "never violated".
    """

    def __init__(self, n_vertices: int, edges: Iterable[Sequence[int]]):
        if n_vertices < 1:
            raise InvalidArgs("explicit graph needs at least one vertex")
        self.n_vertices = n_vertices
        adj: list[set] = [set() for _ in range(n_vertices)]
        edge_set = set()
        try:
            pairs = [(operator.index(u), operator.index(v)) for u, v in edges]
        except (TypeError, ValueError) as exc:
            raise InvalidArgs(f"edges must be a list of integer pairs: {exc}") from None
        for u, v in pairs:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise OutOfDomain(f"edge {[u, v]!r} leaves vertex range 0..{n_vertices - 1}")
            if u == v:
                raise InvalidArgs(f"self-loop at {u} not allowed")
            adj[u].add(v)
            adj[v].add(u)
            edge_set.add((min(u, v), max(u, v)))
        self._adj = [tuple(sorted(s)) for s in adj]
        self._edges = sorted(edge_set)
        self._dist_cache: dict[int, dict] = {}
        self._width = len(str(n_vertices - 1))

    def __repr__(self):
        return f"ExplicitGraph(n_vertices={self.n_vertices}, edges={len(self._edges)})"

    def contains(self, x) -> bool:
        return type(x) is int and 0 <= x < self.n_vertices

    def vertices(self) -> Iterator[int]:
        return iter(range(self.n_vertices))

    def neighbors(self, x) -> tuple:
        self.check_vertex(x)
        return self._adj[x]

    def index(self, x) -> int:
        """The id of ``x``, which is ``x``."""
        self.check_vertex(x)
        return x

    def vertex(self, i) -> int:
        self.check_id(i)
        return i

    def _id_neighbors(self, i) -> tuple:
        return self._adj[i]

    def dist(self, x, y):
        self.check_vertex(x)
        self.check_vertex(y)
        dists = self._dist_cache.get(x)
        if dists is None:
            # no ball outgrows the graph, so this one never runs out
            n = self.n_vertices
            dists = self._dist_cache[x] = {
                y: k for k, shell in enumerate(self.ball(x, n, budget=n).shells())
                for y in shell}
        return dists.get(y, math.inf)

    def edges(self) -> Iterator[tuple]:
        return iter(self._edges)

    def canon(self, x) -> str:
        return str(x).zfill(self._width)

    def _decode(self, s: str) -> int:
        return int(s)


def random_vertex(graph, rng):
    """Uniform vertex draw that never materializes the vertex set."""
    if isinstance(graph, Hypergrid):
        return tuple(graph.base + rng.randrange(graph.n) for _ in range(graph.d))
    return rng.randrange(graph.n_vertices)


def read_json(source, what: str) -> dict:
    """The JSON object ``source`` names: a dict, JSON text, or a file path.

    Raises InvalidParam, naming ``what`` was being read, when the text or
    the file cannot be read or does not hold a JSON object.
    """
    data = source
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except ValueError:
            try:
                with open(source) as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise InvalidParam(f"cannot read {what} {source!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParam(f"{what} document is not a JSON object")
    return data


def read_int(data: dict, key: str, what: str) -> int:
    """``data[key]`` where it is a JSON integer; InvalidParam, naming
    ``what`` was being read, where it is missing or anything else (a
    boolean, a float or a string)."""
    v = data.get(key)
    if type(v) is not int:
        raise InvalidParam(f"{what} needs an integer {key!r}, got {v!r}")
    return v


def load_graph(source) -> ExplicitGraph:
    """Build an ExplicitGraph from {"vertices": N, "edges": [[u, v], ...]}.

    ``source`` may be a dict, a JSON string, or a path to a JSON file.
    """
    data = read_json(source, "graph")
    return ExplicitGraph(read_int(data, "vertices", "graph document"),
                         data.get("edges", []))


def graph_to_json(graph: ExplicitGraph) -> dict:
    return {"vertices": graph.n_vertices, "edges": [list(e) for e in graph.edges()]}

