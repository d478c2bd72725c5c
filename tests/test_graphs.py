import bisect
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lipfilter import (
    DEFAULT_SCAN_BUDGET,
    BudgetExceeded,
    ExplicitGraph,
    ExprFunction,
    Hypercube,
    Hypergrid,
    Interval,
    InvalidParam,
    LocalFilterL0,
    OutOfDomain,
    PartialFunction,
    Seed,
    TableFunction,
    graph_to_json,
    is_c_lipschitz,
    load_graph,
    random_vertex,
)
from lipfilter.graphs import InvalidArgs, _BallMixin

from helpers import ball_of, random_connected_graph


class BfsHypercube(Hypercube):
    """A hypercube whose balls come from the shared BFS, as reference."""

    _ball = _BallMixin._ball


@pytest.mark.parametrize("g", [
    *(Hypergrid(n, d) for n in (1, 2, 3) for d in (1, 2, 3)),
    *(Hypercube(d) for d in range(1, 5)),
], ids=repr)
def test_max_degree_is_largest_neighbourhood(g):
    # two neighbours per coordinate at an inner point, one when n = 2
    assert max(len(g.neighbors(x)) for x in g.vertices()) == min(g.n - 1, 2) * g.d


class TestHypergrid:
    def test_basics(self):
        g = Hypergrid(3, 2)
        assert g.n_vertices == 9
        assert g.diameter == 4
        assert list(g.vertices())[0] == (1, 1)
        assert len(list(g.vertices())) == 9

    def test_neighbors_sorted_and_correct(self):
        g = Hypergrid(3, 2)
        assert g.neighbors((1, 1)) == [(1, 2), (2, 1)]
        assert g.neighbors((2, 2)) == [(1, 2), (2, 1), (2, 3), (3, 2)]

    def test_dist(self):
        g = Hypergrid(4, 3)
        assert g.dist((1, 1, 1), (4, 2, 1)) == 4
        assert g.dist((2, 2, 2), (2, 2, 2)) == 0

    def test_degenerate_single_point(self):
        g = Hypergrid(1, 3)
        assert g.n_vertices == 1
        assert g.neighbors((1, 1, 1)) == []

    def test_check_vertex(self):
        g = Hypergrid(3, 2)
        with pytest.raises(OutOfDomain):
            g.check_vertex((0, 1))
        with pytest.raises(OutOfDomain):
            g.check_vertex((1, 1, 1))
        with pytest.raises(OutOfDomain):
            g.check_vertex("11")

    def test_contains_exact_ints_only(self):
        g = Hypergrid(3, 2)
        for x in [(1.0, 2), (1, 2.0), (True, 2), (2, True), (1, 2, 3), [1, 2]]:
            assert not g.contains(x)
            with pytest.raises(OutOfDomain):
                ball_of(g, x, 1)
        assert g.contains((1, 2))

    def test_canon_round_trip_wide(self):
        g = Hypergrid(12, 2)
        assert g.canon((1, 12)) == "0112"
        assert g.from_canon("0112") == (1, 12)
        with pytest.raises(OutOfDomain):
            g.from_canon("011")
        with pytest.raises(OutOfDomain):
            g.from_canon("0013")

    @given(st.integers(2, 4), st.integers(1, 3), st.data())
    def test_dist_is_l1(self, n, d, data):
        g = Hypergrid(n, d)
        coord = st.tuples(*[st.integers(1, n)] * d)
        x = data.draw(coord)
        y = data.draw(coord)
        assert g.dist(x, y) == sum(abs(a - b) for a, b in zip(x, y))
        assert g.dist(x, y) == g.dist(y, x)


class TestHypercube:
    def test_basics(self):
        g = Hypercube(3)
        assert g.n_vertices == 8
        assert g.diameter == 3
        assert g.n == 2

    def test_dist_is_hamming(self):
        g = Hypercube(4)
        assert g.dist((0, 1, 0, 1), (1, 1, 0, 0)) == 2

    def test_canon(self):
        g = Hypercube(4)
        assert g.canon((0, 1, 0, 1)) == "0101"
        assert g.from_canon("0101") == (0, 1, 0, 1)
        with pytest.raises(OutOfDomain):
            g.from_canon("012")

    @pytest.mark.parametrize("d", range(1, 11))
    def test_canon_is_digit_string(self, d):
        g = Hypercube(d)
        for x in g.vertices():
            s = g.canon(x)
            assert s == "".join(str(c) for c in x)
            assert g.from_canon(s) == x

    @pytest.mark.parametrize("x", [
        (0.0, 1, 1), (0, 1, 1.0), (False, 1, 1), (0, True, 1), (True,) * 3,
        (0, 1, 2), (0, -1, 1), (0, 1), (0, 1, 1, 0), [0, 1, 1], "011",
    ], ids=repr)
    def test_non_vertices_rejected(self, x):
        g = Hypercube(3)
        f = TableFunction(g, {v: sum(v) for v in g.vertices()}, 3)
        assert not g.contains(x)
        with pytest.raises(OutOfDomain):
            f.lookup(x)
        with pytest.raises(OutOfDomain):
            ball_of(g, x, 1)


class TestHypercubeIsGrid:
    """The cube is the hypergrid with n = 2 and coordinates from 0; the
    references below are the cube's own definitions, written out."""

    def test_is_a_hypergrid(self):
        g = Hypercube(3)
        assert isinstance(g, Hypergrid)
        assert (g.base, g.n, g.d) == (0, 2, 3)
        assert Hypergrid.base == 1

    @pytest.mark.parametrize("d", range(1, 7))
    def test_equals_cube_definitions(self, d):
        g = Hypercube(d)
        cube = list(itertools.product((0, 1), repeat=d))
        assert list(g.vertices()) == cube
        for x in cube:
            flips = sorted(x[:i] + (1 - x[i],) + x[i + 1 :] for i in range(d))
            assert g.neighbors(x) == flips
            assert g.from_canon(g.canon(x)) == x
        assert list(g.edges()) == [
            (x, x[:i] + (1,) + x[i + 1 :]) for x in cube for i in range(d) if x[i] == 0
        ]
        assert (g.n_vertices, g.diameter) == (2**d, d)


class TestFromCanon:
    @pytest.mark.parametrize("g, s", [
        (Hypercube(1), "\u0661"),  # ARABIC-INDIC DIGIT ONE
        (Hypercube(3), "0 1"),
        (Hypercube(3), ""),
        (Hypercube(3), "0101"),
        (Hypercube(3), "01\u0661"),
        # the cube's byte table passes these bytes through as coordinates
        # 0 and 1; only the canon round trip rejects them
        (Hypercube(2), "\x00\x01"),
        (Hypercube(2), "\x01\x00"),
        (Hypergrid(12, 2), " 1+2"),
        (Hypergrid(12, 2), "010"),
        (Hypergrid(12, 2), "01012"),
        (ExplicitGraph(12, [(0, 11)]), "+1"),
        (ExplicitGraph(12, [(0, 11)]), " 1"),
        (ExplicitGraph(12, [(0, 11)]), "1"),
        (ExplicitGraph(12, [(0, 11)]), "\u0661\u0661"),
    ], ids=repr)
    def test_non_canonical_text_rejected(self, g, s):
        with pytest.raises(OutOfDomain):
            g.from_canon(s)

    @pytest.mark.parametrize("g", [
        Hypergrid(12, 2), Hypergrid(3, 2), ExplicitGraph(12, [(0, 11)]),
        Hypercube(1), Hypercube(8), Hypercube(9),
    ], ids=repr)
    def test_inverts_canon(self, g):
        for x in g.vertices():
            assert g.from_canon(g.canon(x)) == x


class TestBall:
    def test_sorted_by_dist_then_vertex(self):
        g = Hypercube(3)
        out = ball_of(g, (0, 0, 0), 1)
        assert out == [
            ((0, 0, 0), 0),
            ((0, 0, 1), 1),
            ((0, 1, 0), 1),
            ((1, 0, 0), 1),
        ]

    def test_closed_int_radius_only(self):
        g = Hypercube(4)
        x = (0, 0, 0, 0)
        assert len(ball_of(g, x, 2)) == 11
        assert len(ball_of(g, x, 0)) == 1
        assert ball_of(g, x, -1) == []
        for radius in (Fraction(3, 2), Fraction(2), 1.0, True, "1", None):
            with pytest.raises(InvalidParam):
                ball_of(g, x, radius)
        for budget in (None, 11.0, True):
            with pytest.raises(InvalidParam):
                ball_of(g, x, 2, budget=budget)

    def test_budget(self):
        g = Hypercube(4)
        with pytest.raises(BudgetExceeded):
            ball_of(g, (0,) * 4, 2, budget=5)
        assert len(ball_of(g, (0,) * 4, 2, budget=11)) == 11

    def test_budget_error_names_canon(self):
        # the cube decides the budget before it builds the ball
        x = (0, 1) + (0,) * 30
        with pytest.raises(BudgetExceeded, match=r"^ball\(01" + "0" * 30 + r", 59\) "):
            ball_of(Hypercube(32), x, 59, budget=10)

    def test_budget_error_names_radius_walked(self):
        # the l0 extension around a matched x walks the closed ball of
        # radius ceil(bounds.hi - lo) - 1 = ceil(2 + 299/10) - 1 = 31 on a
        # parity restricted to a window reaching far below its values
        g = Hypercube(32)
        parity = ExprFunction(g, "2*(sum() - 2*floor(1/2*sum()))", 2)
        f = parity.restrict(Interval(Fraction(-299, 10), Fraction(319, 10)))
        filt = LocalFilterL0(g, f, Seed.from_int(0))
        x = (0,) * 32
        assert filt.match_of(x) is not None
        with pytest.raises(BudgetExceeded, match=r"^ball\(0{32}, 31\) "):
            filt.value(x)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_hypercube_equals_bfs(self, d):
        # every integer radius up to past the diameter, with the budget
        # verdict at the ball's size and one below it
        g, ref = Hypercube(d), BfsHypercube(d)
        for x in g.vertices():
            for radius in range(d + 2):
                want = ball_of(ref, x, radius)
                assert ball_of(g, x, radius, budget=len(want)) == want
                with pytest.raises(BudgetExceeded):
                    ball_of(g, x, radius, budget=len(want) - 1)

    @pytest.mark.parametrize("d", [7, 8, 9, 15, 16, 17])
    def test_hypercube_equals_bfs_multibyte(self, d):
        # Past d = 8 a vertex is built from several bytes.  A centre's BFS
        # ball of radius d lists every smaller ball first, so the expected
        # ball of each radius is a prefix of it.  Past d = 9 one centre:
        # its BFS alone takes seconds.
        g, ref = Hypercube(d), BfsHypercube(d)
        rng = random.Random(d)
        for _ in range(3 if d <= 9 else 1):
            x = tuple(rng.randrange(2) for _ in range(d))
            whole = ball_of(ref, x, d)
            dists = [dist for _, dist in whole]
            for radius in range(d + 2):
                want = whole[: bisect.bisect_right(dists, radius)]
                assert ball_of(g, x, radius, budget=len(want)) == want
                with pytest.raises(BudgetExceeded):
                    ball_of(g, x, radius, budget=len(want) - 1)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_hypercube_budget_verdict_equals_bfs(self, d):
        g, ref = Hypercube(d), BfsHypercube(d)
        x = (0, 1) * (d // 2) + (1,) * (d % 2)
        for radius in range(d + 2):
            size = len(ball_of(ref, x, radius))
            for graph in (g, ref):
                assert len(ball_of(graph, x, radius, budget=size)) == size
            raised = []
            for graph in (g, ref):
                with pytest.raises(BudgetExceeded) as err:
                    ball_of(graph, x, radius, budget=size - 1)
                raised.append(str(err.value))
            assert raised[0] == raised[1]

    def test_hypercube_budget_decided_before_enumeration(self):
        # C(40, <= 20) vertices: only an up-front size check answers at once
        g = Hypercube(40)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            ball_of(g, (0,) * 40, 20, budget=200_000)
        assert time.perf_counter() - start < 0.5

    def test_hypercube_budget_read_from_size_table(self):
        # the ball sizes are a table extended towards the radius asked, so a
        # ball of the 32-cube over budget raises before any mask is built;
        # sizes taken from the masks would build 2^32 of them for radius 31.
        # The table stops at the first size past the budget: sum_{j <= 5}
        # C(32, j) = 242,825.
        g = Hypercube(32)
        with pytest.raises(BudgetExceeded, match=r"^ball\(0{32}, 31\) "):
            g.ball(0, 31)
        assert g._sizes == [sum(math.comb(32, j) for j in range(k + 1)) for k in range(6)]
        assert g._sizes[-2] <= DEFAULT_SCAN_BUDGET < g._sizes[-1]
        assert g._masks == [[0]]

    def test_hypercube_budget_verdict_stops_the_size_table(self):
        # on the 5,000-cube the ball passes the budget at radius 2, so
        # asking for radius 5,000 builds no size further out
        g = Hypercube(5_000)
        with pytest.raises(BudgetExceeded):
            g.ball(0, 5_000)
        assert len(g._sizes) <= 3

    @pytest.mark.parametrize("g", [Hypercube(5_000), Hypergrid(2, 5_000)], ids=repr)
    def test_large_dimension_builds_no_per_dimension_table(self, g):
        # a table with an entry per dimension, built with the graph, makes
        # construction quadratic in d; the radius-1 ball needs none of it
        held = [len(v) for v in vars(g).values() if isinstance(v, (list, tuple, dict))]
        assert max(held, default=0) <= 1
        ball = g.ball(0, 1)
        assert len(ball) == g.d + 1
        assert list(ball) == [0] + [1 << k for k in range(g.d)]
        assert ball.ends == [1, g.d + 1]

    def test_membership_matches_dist(self):
        cube = Hypercube(4)
        grid = Hypergrid(4, 3)
        explicit = random_connected_graph(random.Random(3), 20, extra=6)
        for g, x in ((cube, (0, 1, 1, 0)), (grid, (2, 1, 4)), (explicit, 7)):
            for radius in range(g.n_vertices.bit_length() + 6):
                members = {v for v, _ in ball_of(g, x, radius)}
                expect = {v for v in g.vertices() if g.dist(x, v) <= radius}
                assert members == expect


def tuple_bfs(g, x):
    """The whole ball around ``x`` as (vertex, dist) pairs in (dist, vertex)
    order, by a BFS over public ``neighbors``: the reference for id balls."""
    seen = {x}
    out = [(x, 0)]
    layer = [x]
    while layer:
        d = out[-1][1] + 1
        layer = sorted({w for v in layer for w in g.neighbors(v)} - seen)
        seen.update(layer)
        out += [(w, d) for w in layer]
    return out


def sparse_graph(rng, n):
    """Random edges, none at vertex n - 1, which stays isolated."""
    return ExplicitGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n - 1)
                             if rng.random() < 1.5 / n])


ID_GRAPHS = [
    *(Hypercube(d) for d in (*range(1, 10), 17)),
    *(Hypergrid(n, d) for n in range(1, 5) for d in range(1, 4)),
    *(random_connected_graph(random.Random(s), 6 + 5 * s, extra=s) for s in range(3)),
    *(sparse_graph(random.Random(s), 6 + 5 * s) for s in range(3)),
]


class TestIds:
    """``index`` and ``vertex`` are inverse, order-preserving maps between
    the vertices and range(n_vertices), and ``ball`` by ids is the tuple
    ball."""

    @pytest.mark.parametrize("g", ID_GRAPHS, ids=repr)
    def test_index_is_an_order_preserving_bijection(self, g):
        verts = sorted(g.vertices())
        assert list(g.vertices()) == verts
        assert [g.index(x) for x in verts] == list(range(g.n_vertices))
        assert all(g.vertex(g.index(x)) == x for x in verts)
        assert [g.canon_of(i) for i in range(g.n_vertices)] == list(map(g.canon, verts))

    @pytest.mark.parametrize("g", ID_GRAPHS, ids=repr)
    def test_bad_ids_rejected(self, g):
        for i in (-1, g.n_vertices, True, False, 0.0, 1.0, None, "0"):
            for call in (g.vertex, g.canon_of, lambda i: g.ball(i, 1)):
                with pytest.raises(OutOfDomain):
                    call(i)

    @pytest.mark.parametrize("g", ID_GRAPHS, ids=repr)
    def test_ball_equals_tuple_bfs(self, g):
        # shell by shell, each compared as a sorted list, at every radius up
        # to past the farthest vertex, with the budget verdict at the
        # ball's size and one below it; the ball of each radius is a prefix
        # of the whole ball, in ids as in vertices
        rng = random.Random(g.n_vertices)
        for x in self.centres(g, rng):
            want = tuple_bfs(g, x)
            far = want[-1][1]
            i = g.index(x)
            whole = g.ball(i, far)
            assert [sorted(map(g.vertex, shell)) for shell in whole.shells()] == [
                [v for v, d in want if d == k] for k in range(far + 1)]
            for radius in range(far + 2):
                size = whole.ends[min(radius, far)]
                ball = g.ball(i, radius, budget=size)
                assert ball == whole[:size]
                assert ball.ends == whole.ends[:radius + 1]
                with pytest.raises(BudgetExceeded):
                    g.ball(i, radius, budget=size - 1)

    @pytest.mark.parametrize("g", ID_GRAPHS, ids=repr)
    def test_shells_partition_the_ball(self, g):
        # every id once, ends strictly increasing from the centre's shell,
        # the last end the ball's size, and a shell per distance walked
        rng = random.Random(g.n_vertices)
        for x in self.centres(g, rng):
            i = g.index(x)
            far = tuple_bfs(g, x)[-1][1]
            for radius in range(far + 2):
                ball = g.ball(i, radius)
                ends = ball.ends
                assert len(set(ball)) == len(ball)
                assert ball[:1] == [i] and ends[0] == 1
                assert all(a < b for a, b in zip(ends, ends[1:]))
                assert ends[-1] == len(ball)
                assert len(ends) == min(radius, far) + 1
                assert [y for shell in ball.shells() for y in shell] == ball
            empty = g.ball(i, -1)
            assert (empty, empty.ends) == ([], [])

    @staticmethod
    def centres(g, rng):
        """Every vertex of a small graph; of a large one the first, the
        last and a random one, and past 2^9 vertices a random one only."""
        verts = list(g.vertices())
        return (verts if len(verts) <= 64 else [verts[0], verts[-1], rng.choice(verts)]
                if len(verts) <= 512 else [rng.choice(verts)])

    @pytest.mark.parametrize("g, x, text", [
        (Hypercube(32), (0, 1) + (0,) * 30, "01" + "0" * 30),
        (Hypergrid(12, 2), (1, 12), "0112"),
        (ExplicitGraph(12, [(0, 11), (7, 11)]), 7, "07"),
    ], ids=repr)
    def test_budget_error_names_centre_in_canonical_form(self, g, x, text):
        with pytest.raises(BudgetExceeded, match=rf"^ball\({text}, 31\) exceeded "
                                                 rf"vertex budget 1$"):
            g.ball(g.index(x), 31, budget=1)


def floyd_warshall(n, edges):
    """All-pairs hop distances, math.inf between components."""
    dist = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


class TestRejects:
    @pytest.mark.parametrize("build, message", [
        (lambda: Hypergrid(0, 2), "hypergrid needs n >= 1 and d >= 1, got n=0, d=2"),
        (lambda: Hypergrid(3, 0), "hypergrid needs n >= 1 and d >= 1, got n=3, d=0"),
        (lambda: Hypercube(0), "hypercube needs d >= 1, got 0"),
        (lambda: ExplicitGraph(0, []), "explicit graph needs at least one vertex"),
    ], ids=["grid n=0", "grid d=0", "cube d=0", "explicit n=0"])
    def test_constructor_rejects_empty_graphs(self, build, message):
        with pytest.raises(InvalidArgs, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("source", ["[1, 2]", "3", [1, 2]], ids=repr)
    def test_graph_document_must_be_an_object(self, source):
        with pytest.raises(InvalidParam, match="^graph document is not a JSON object$"):
            load_graph(source)


class TestExplicitGraph:
    def test_adjacency_and_dist(self):
        g = ExplicitGraph(4, [(0, 1), (1, 2)])
        assert g.neighbors(1) == (0, 2)
        assert g.dist(0, 2) == 2
        assert g.dist(0, 3) is math.inf
        assert list(g.edges()) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("seed", range(6))
    def test_dist_equals_floyd_warshall(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 16)
        if seed % 2:
            g = random_connected_graph(rng, n, extra=rng.randrange(n))
        else:
            g = sparse_graph(rng, n)
        want = floyd_warshall(n, g.edges())
        assert [[g.dist(x, y) for y in range(n)] for x in range(n)] == want
        assert (math.inf in want[-1]) == (seed % 2 == 0)

    def test_bools_are_not_vertices(self):
        g = ExplicitGraph(3, [(0, 1), (1, 2)])
        for x in (True, False, 1.0):
            assert not g.contains(x)
            for call in (lambda: ball_of(g, x, 1), lambda: g.dist(x, 0),
                         lambda: g.dist(0, x), lambda: g.neighbors(x)):
                with pytest.raises(OutOfDomain):
                    call()
        g.dist(1, 2)  # a cached source still rejects True, which hashes as 1
        with pytest.raises(OutOfDomain):
            g.dist(True, 2)

    def test_validation(self):
        with pytest.raises(OutOfDomain):
            ExplicitGraph(3, [(0, 0)])
        with pytest.raises(OutOfDomain):
            ExplicitGraph(3, [(0, 3)])

    def test_canon_zero_padded(self):
        g = ExplicitGraph(12, [(0, 11)])
        assert g.canon(7) == "07"
        assert g.from_canon("11") == 11

    def test_json_round_trip(self, tmp_path):
        g = ExplicitGraph(5, [(0, 1), (2, 3), (3, 4)])
        doc = graph_to_json(g)
        assert load_graph(doc).neighbors(3) == (2, 4)
        path = tmp_path / "g.json"
        path.write_text(__import__("json").dumps(doc))
        assert load_graph(str(path)).n_vertices == 5


class TestLipschitzChecks:
    def test_edge_scan(self):
        g = ExplicitGraph(3, [(0, 1), (1, 2)])
        good = TableFunction(g, {0: 0, 1: 1, 2: 2}, 2)
        assert is_c_lipschitz(g, good, 1)
        bad = TableFunction(g, {0: 0, 1: 2, 2: 2}, 2)
        assert not is_c_lipschitz(g, bad, 1)
        assert is_c_lipschitz(g, bad, 2)

    def test_edge_scan_needs_total(self):
        g = ExplicitGraph(2, [(0, 1)])
        partial = TableFunction(g, {0: 0}, 1)
        with pytest.raises(PartialFunction):
            is_c_lipschitz(g, partial, 1)

    def test_edge_scan_reads_each_vertex_once(self):
        g = Hypercube(4)
        f = TableFunction(g, {x: sum(x) for x in g.vertices()}, 4)
        assert is_c_lipschitz(g, f, 1)
        assert f.lookups == g.n_vertices

    def test_edge_scan_never_reads_an_isolated_vertex(self):
        # vertex 2 has no edge, so its ? is never read and does not raise
        g = ExplicitGraph(3, [(0, 1)])
        f = TableFunction(g, {0: 0, 1: 1, 2: "?"}, 1)
        assert is_c_lipschitz(g, f, 1)
        assert f.lookups == 2


def test_random_vertex_stays_in_domain():
    rng = random.Random(0)
    grid = Hypergrid(3, 2)
    cube = Hypercube(5)
    ex = ExplicitGraph(7, [(0, 1)])
    for _ in range(200):
        grid.check_vertex(random_vertex(grid, rng))
        cube.check_vertex(random_vertex(cube, rng))
        ex.check_vertex(random_vertex(ex, rng))


# the first 20 draws from random.Random(5), pinned when the cube became a
# grid subclass: every seeded output that uses random_vertex stays the same
RANDOM_VERTEX_DRAWS = [
    (Hypercube(5), [
        (1, 1, 0, 1, 0), (0, 0, 0, 1, 1), (0, 1, 0, 0, 0), (0, 1, 1, 0, 1),
        (0, 0, 0, 1, 0), (0, 0, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1),
        (0, 1, 1, 0, 0), (1, 0, 1, 1, 0), (1, 0, 1, 1, 1), (1, 1, 0, 1, 1),
        (0, 0, 1, 0, 1), (1, 0, 1, 1, 1), (0, 1, 0, 0, 0), (0, 0, 1, 1, 1),
        (1, 1, 0, 1, 1), (0, 1, 0, 0, 1), (1, 0, 1, 1, 0), (1, 1, 1, 0, 0),
    ]),
    (Hypergrid(3, 2), [
        (3, 2), (3, 2), (3, 3), (3, 3), (1, 2), (1, 3), (1, 1), (1, 2), (2, 1),
        (2, 3), (1, 3), (1, 1), (3, 1), (2, 2), (1, 2), (1, 1), (1, 3), (3, 2),
        (1, 1), (1, 1),
    ]),
    (ExplicitGraph(7, [(i, i + 1) for i in range(6)]), [
        4, 2, 5, 2, 6, 5, 6, 5, 5, 4, 0, 6, 3, 6, 1, 5, 0, 1, 0, 2,
    ]),
]


@pytest.mark.parametrize("g, want", RANDOM_VERTEX_DRAWS,
                         ids=["Hypercube(5)", "Hypergrid(3, 2)", "ExplicitGraph(7)"])
def test_random_vertex_draws_pinned(g, want):
    rng = random.Random(5)
    assert [random_vertex(g, rng) for _ in range(20)] == want


def test_random_vertex_covers_domain():
    rng = random.Random(1)
    g = Hypercube(3)
    seen = {random_vertex(g, rng) for _ in range(400)}
    assert len(seen) == 8
