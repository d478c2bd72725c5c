import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lipfilter import (
    BudgetExceeded,
    ExplicitGraph,
    Hypercube,
    Hypergrid,
    OutOfDomain,
    PartialFunction,
    TableFunction,
    graph_to_json,
    is_c_lipschitz,
    is_c_lipschitz_pairwise,
    load_graph,
    random_vertex,
)
from lipfilter.graphs import _BallMixin


class BfsHypercube(Hypercube):
    """A hypercube whose balls come from the shared BFS, as reference."""

    _ball = _BallMixin._ball


@pytest.mark.parametrize("g", [
    *(Hypergrid(n, d) for n in (1, 2, 3) for d in (1, 2, 3)),
    *(Hypercube(d) for d in range(1, 5)),
], ids=repr)
def test_max_degree_is_largest_neighbourhood(g):
    assert g.max_degree == max(len(g.neighbors(x)) for x in g.vertices())


class TestHypergrid:
    def test_basics(self):
        g = Hypergrid(3, 2)
        assert g.n_vertices == 9
        assert g.max_degree == 4
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
        assert g.max_degree == 0
        assert g.neighbors((1, 1, 1)) == []

    def test_check_vertex(self):
        g = Hypergrid(3, 2)
        with pytest.raises(OutOfDomain):
            g.check_vertex((0, 1))
        with pytest.raises(OutOfDomain):
            g.check_vertex((1, 1, 1))
        with pytest.raises(OutOfDomain):
            g.check_vertex("11")

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
        assert g.max_degree == 3
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


class TestBall:
    def test_sorted_by_dist_then_vertex(self):
        g = Hypercube(3)
        out = g.ball((0, 0, 0), 1)
        assert out == [
            ((0, 0, 0), 0),
            ((0, 0, 1), 1),
            ((0, 1, 0), 1),
            ((1, 0, 0), 1),
        ]

    def test_closed_vs_open_limits(self):
        g = Hypercube(4)
        x = (0, 0, 0, 0)
        # closed ball truncates at floor(radius), open at ceil(radius) - 1
        assert len(g.ball(x, Fraction(3, 2))) == 5
        assert len(g.ball(x, Fraction(3, 2), open_=True)) == 5
        assert len(g.ball(x, 2)) == 11
        assert len(g.ball(x, 2, open_=True)) == 5
        assert len(g.ball(x, 0)) == 1

    def test_budget(self):
        g = Hypercube(4)
        with pytest.raises(BudgetExceeded):
            g.ball((0,) * 4, 2, budget=5)
        assert len(g.ball((0,) * 4, 2, budget=11)) == 11

    @pytest.mark.parametrize("d", range(1, 7))
    def test_hypercube_equals_bfs(self, d):
        g, ref = Hypercube(d), BfsHypercube(d)
        radii = [Fraction(k, 2) for k in range(2 * d + 3)]  # 0, 1/2, ..., d + 1
        for x in g.vertices():
            for radius in radii:
                for open_ in (False, True):
                    want = ref.ball(x, radius, open_=open_)
                    assert g.ball(x, radius, open_=open_) == want

    @pytest.mark.parametrize("d", range(1, 7))
    def test_hypercube_budget_verdict_equals_bfs(self, d):
        g, ref = Hypercube(d), BfsHypercube(d)
        x = (0, 1) * (d // 2) + (1,) * (d % 2)
        for radius in range(d + 2):
            size = len(ref.ball(x, radius))
            for graph in (g, ref):
                assert len(graph.ball(x, radius, budget=size)) == size
            raised = []
            for graph in (g, ref):
                with pytest.raises(BudgetExceeded) as err:
                    graph.ball(x, radius, budget=size - 1)
                raised.append(str(err.value))
            assert raised[0] == raised[1]

    def test_hypercube_budget_decided_before_enumeration(self):
        # C(40, <= 20) vertices: only an up-front size check answers at once
        g = Hypercube(40)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            g.ball((0,) * 40, 20, budget=200_000)
        assert time.perf_counter() - start < 0.5

    def test_membership_matches_dist(self):
        g = Hypercube(4)
        x = (0, 1, 1, 0)
        for radius in range(5):
            members = {v for v, _ in g.ball(x, radius)}
            expect = {v for v in g.vertices() if g.dist(x, v) <= radius}
            assert members == expect


class TestExplicitGraph:
    def test_adjacency_and_dist(self):
        g = ExplicitGraph(4, [(0, 1), (1, 2)])
        assert g.neighbors(1) == (0, 2)
        assert g.dist(0, 2) == 2
        assert g.dist(0, 3) is math.inf
        assert list(g.edges()) == [(0, 1), (1, 2)]

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

    def test_pairwise_skips_holes_and_islands(self):
        g = ExplicitGraph(4, [(0, 1)])  # 2 and 3 disconnected
        f = TableFunction(g, {0: 0, 1: 1, 2: 5, 3: 0}, 5)
        assert is_c_lipschitz_pairwise(g, f, 1)
        partial = TableFunction(g, {0: 0, 1: 3}, 5)
        assert not is_c_lipschitz_pairwise(g, partial, 1)


def test_random_vertex_stays_in_domain():
    rng = random.Random(0)
    grid = Hypergrid(3, 2)
    cube = Hypercube(5)
    ex = ExplicitGraph(7, [(0, 1)])
    for _ in range(200):
        grid.check_vertex(random_vertex(grid, rng))
        cube.check_vertex(random_vertex(cube, rng))
        ex.check_vertex(random_vertex(ex, rng))


def test_random_vertex_covers_domain():
    rng = random.Random(1)
    g = Hypercube(3)
    seen = {random_vertex(g, rng) for _ in range(400)}
    assert len(seen) == 8
