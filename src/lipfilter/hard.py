"""Planted peak/valley instances with controllable distance to Lipschitz.

Each instance places m anchor pairs (a, a') at distance r - b.  Inside
the open ball of radius r/2 around a the function is r - dist(x, a); in
the ball around a' it is dist(x, a'); elsewhere it is the baseline r/2.
Cross-pair anchors are kept further than max(d/4, r - 1) apart, so with
b = 0 the instance is exactly 1-Lipschitz and with b = 1 every pair of
geodesic twins violates by exactly 1.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParam, RetryExhausted
from .functions import CallableFunction, _domain_to_json, _graph_from_domain
from .graphs import Hypergrid, random_vertex, read_int
from .seeds import Seed

DEFAULT_PAIRS = 8
DEFAULT_RETRY_CAP = 1000


def separation_threshold(d: int, r: int) -> Fraction:
    return max(Fraction(d, 4), Fraction(r - 1))


@dataclass(frozen=True)
class HardInstance:
    graph: object
    r: int
    b: int
    pairs: tuple

    def value(self, x):
        half = self.r // 2
        for a, ap in self.pairs:
            da = self.graph.dist(x, a)
            if da < half:
                return self.r - da
            dap = self.graph.dist(x, ap)
            if dap < half:
                return dap
        return half

    def to_oracle(self) -> CallableFunction:
        return CallableFunction(self.graph, self.value, self.r)

    def corresponding_pairs(self):
        """Geodesic twin pairs (x, y); each has violation score exactly b.

        Walks a canonical shortest path from a to a' (coordinates fixed in
        index order) and pairs off equidistant vertices.
        """
        out = []
        length = self.r - self.b
        for a, ap in self.pairs:
            path = [a]
            cur = list(a)
            for j in range(self.graph.d):
                while cur[j] != ap[j]:
                    cur[j] += 1 if ap[j] > cur[j] else -1
                    path.append(tuple(cur))
            assert len(path) == length + 1
            for k in range(self.r // 2):
                out.append((path[k], path[length - k]))
        return out

    def to_json(self) -> dict:
        return {
            "domain": _domain_to_json(self.graph),
            "r": self.r,
            "b": self.b,
            "anchors": [
                [self.graph.canon(a), self.graph.canon(ap)] for a, ap in self.pairs
            ],
        }


def check_separation(graph, pairs, r: int, b: int) -> bool:
    """Within-pair distance exactly r - b; cross-pair anchors far apart."""
    thr = separation_threshold(graph.d, r)
    for a, ap in pairs:
        if graph.dist(a, ap) != r - b:
            return False
    flat = [(i, v) for i, pair in enumerate(pairs) for v in pair]
    for idx, (i, u) in enumerate(flat):
        for j, v in flat[idx + 1 :]:
            if i != j and graph.dist(u, v) <= thr:
                return False
    return True


def _random_at_distance(graph, a, dist, rng):
    """Uniform-ish point exactly `dist` steps from a: monotone coordinate moves."""
    base = graph.base
    top = base + graph.n - 1
    cur = list(a)
    moved_dir = {}
    remaining = dist
    while remaining > 0:
        options = []
        for j in range(graph.d):
            dir_ = moved_dir.get(j)
            if (dir_ is None or dir_ == 1) and cur[j] < top:
                options.append((j, 1))
            if (dir_ is None or dir_ == -1) and cur[j] > base:
                options.append((j, -1))
        if not options:
            raise InvalidParam(f"distance {dist} unreachable from {a!r}")
        j, dir_ = options[rng.randrange(len(options))]
        cur[j] += dir_
        moved_dir[j] = dir_
        remaining -= 1
    return tuple(cur)


def _check_params(graph, r, b):
    if not (type(r) is int and r >= 2 and r % 2 == 0):
        raise InvalidParam("r must be an even integer >= 2")
    if not (type(b) is int and b in (0, 1)):
        raise InvalidParam("b must be 0 or 1")
    if not isinstance(graph, Hypergrid):
        raise InvalidParam("hard instances need a hypergrid-style domain")
    if r - b > (graph.n - 1) * graph.d:
        raise InvalidParam("r exceeds the domain diameter")


def sample_hard_instance(graph, r, b, seed: Seed, *, m: int = DEFAULT_PAIRS,
                         retry_cap: int = DEFAULT_RETRY_CAP) -> HardInstance:
    _check_params(graph, r, b)
    if type(m) is not int or m < 1:
        raise InvalidParam(f"m must be an int >= 1, got {m!r}")
    if type(retry_cap) is not int or retry_cap < 1:
        raise InvalidParam(f"retry_cap must be an int >= 1, got {retry_cap!r}")

    rng = random.Random(int(seed.hex, 16))
    thr = separation_threshold(graph.d, r)
    pairs = []
    placed = []
    for _ in range(m):
        for _attempt in range(retry_cap):
            a = random_vertex(graph, rng)
            ap = _random_at_distance(graph, a, r - b, rng)
            if all(
                graph.dist(u, w) > thr for u in (a, ap) for w in placed
            ):
                pairs.append((a, ap))
                placed.extend((a, ap))
                break
        else:
            raise RetryExhausted(
                f"could not place {m} separated pairs in {retry_cap} tries")
    return HardInstance(graph=graph, r=r, b=b, pairs=tuple(pairs))


def hard_instance_from_json(data) -> HardInstance:
    """The instance ``to_json`` wrote; InvalidParam unless r, b, the domain
    and the anchors pass the checks ``sample_hard_instance`` makes."""
    if not isinstance(data, dict):
        raise InvalidParam(f"hard instance must be a JSON object, got {data!r}")
    graph = _graph_from_domain(data.get("domain"), "hard instance")
    r = read_int(data, "r", "hard instance")
    b = read_int(data, "b", "hard instance")
    _check_params(graph, r, b)
    anchors = data.get("anchors")
    if not isinstance(anchors, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in anchors):
        raise InvalidParam(f"hard instance needs 'anchors' as a list of [a, a'] "
                           f"pairs, got {anchors!r}")
    pairs = tuple((graph.from_canon(a), graph.from_canon(ap)) for a, ap in anchors)
    if not check_separation(graph, pairs, r, b):
        raise InvalidParam(f"anchor pairs must sit at distance r - b = {r - b} and "
                           f"more than {separation_threshold(graph.d, r)} from other pairs")
    return HardInstance(graph=graph, r=r, b=b, pairs=pairs)
