import itertools
import random
from fractions import Fraction

import pytest

from lipfilter import (
    CapExceeded,
    ExplicitGraph,
    Hypergrid,
    InvalidParam,
    PartialFunction,
    SizeExceeded,
    TableFunction,
    exact_l0_distance,
    exact_l1_distance,
    is_c_lipschitz,
    min_vertex_cover,
    min_violation_cover,
    violation_edges,
)
from lipfilter.simplex import LPInfeasible, LPUnbounded, solve_min
from helpers import corrupted_lipschitz, random_connected_graph, random_table


def brute_force_cover(edges):
    verts = sorted({v for e in edges for v in e})
    for k in range(len(verts) + 1):
        for cand in itertools.combinations(verts, k):
            s = set(cand)
            if all(u in s or v in s for u, v in edges):
                return k
    return 0


class TestMinVertexCover:
    def test_small_frozen(self):
        assert min_vertex_cover([]) == frozenset()
        assert min_vertex_cover([(0, 1)]) in ({0}, {1})
        # star: center covers everything
        assert min_vertex_cover([(0, 1), (0, 2), (0, 3)]) == {0}
        # triangle needs two
        assert len(min_vertex_cover([(0, 1), (1, 2), (0, 2)])) == 2

    def test_matches_brute_force(self):
        rng = random.Random(0)
        for trial in range(15):
            n = 4 + rng.randrange(6)
            edges = set()
            for _ in range(rng.randrange(2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            edges = sorted(edges)
            assert len(min_vertex_cover(edges)) == brute_force_cover(edges)

    def test_duplicates_and_orientation_ignored(self):
        a = min_vertex_cover([(0, 1), (1, 0), (0, 1)])
        assert len(a) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParam):
            min_vertex_cover([(2, 2)])

    def test_cap(self):
        # crown-like graph with forced deep branching
        edges = [(i, j) for i in range(8) for j in range(8, 16)]
        with pytest.raises(CapExceeded):
            min_vertex_cover(edges, cap=3)

    @pytest.mark.parametrize("cap", [0, -1, True, False, 3.0, "3"], ids=repr)
    def test_cap_below_one_rejected_up_front(self, cap):
        # rejected before any search, so an edgeless instance rejects it too
        for edges in ([], [(0, 1), (1, 2)]):
            with pytest.raises(InvalidParam, match="cap must be an int >= 1"):
                min_vertex_cover(edges, cap=cap)

    def test_cap_of_one(self):
        assert min_vertex_cover([], cap=1) == frozenset()
        with pytest.raises(CapExceeded):
            min_vertex_cover([(0, 1)], cap=1)

    def test_is_actually_a_cover(self):
        rng = random.Random(1)
        edges = sorted(
            {(min(u, v), max(u, v)) for u, v in
             ((rng.randrange(12), rng.randrange(12)) for _ in range(25))
             if u != v}
        )
        cover = min_vertex_cover(edges)
        assert all(u in cover or v in cover for u, v in edges)


def path3(values, r=3):
    g = ExplicitGraph(3, [(0, 1), (1, 2)])
    return g, TableFunction(g, dict(enumerate(values)), r)


class TestL0Distance:
    def test_frozen_spike(self):
        g, f = path3([0, 3, 0])
        assert min_violation_cover(g, f) == {1}
        assert exact_l0_distance(g, f) == Fraction(1, 3)

    def test_lipschitz_is_zero(self):
        g, f = path3([0, 1, 2])
        assert exact_l0_distance(g, f) == 0

    def test_changing_cover_fixes_function(self):
        rng = random.Random(2)
        for trial in range(5):
            g = random_connected_graph(rng, 10, extra=4)
            f = corrupted_lipschitz(g, rng, 3, k=2)
            cover = min_violation_cover(g, f)
            covered = set(cover)
            for u, v in violation_edges(g, f):
                assert u in covered or v in covered


class TestL1Distance:
    def test_frozen_spike(self):
        g, f = path3([0, 3, 0])
        dist, witness = exact_l1_distance(g, f, with_witness=True)
        assert dist == Fraction(2, 3)
        assert witness == {0: 0, 1: 1, 2: 0}

    def test_partial_names_vertex(self):
        g, f = path3([0, 3, "?"])
        with pytest.raises(PartialFunction, match=r"f\(2\) = \?"):
            exact_l1_distance(g, f)

    def test_two_point(self):
        g = ExplicitGraph(2, [(0, 1)])
        f = TableFunction(g, {0: 0, 1: 4}, 4)
        assert exact_l1_distance(g, f) == Fraction(3, 2)

    def test_lipschitz_is_zero(self):
        g, f = path3([0, 1, 2])
        dist, witness = exact_l1_distance(g, f, with_witness=True)
        assert dist == 0
        assert witness == {0: 0, 1: 1, 2: 2}

    def test_witness_properties(self):
        rng = random.Random(3)
        for trial in range(8):
            g = random_connected_graph(rng, 8, extra=3)
            f = random_table(g, rng, 3)
            dist, witness = exact_l1_distance(g, f, with_witness=True)
            h = TableFunction(g, witness, f.r)
            assert is_c_lipschitz(g, h, 1)
            total = sum(abs(witness[x] - f.lookup(x)) for x in g.vertices())
            assert Fraction(total, g.n_vertices) == dist

    def test_l1_at_most_r_times_l0(self):
        rng = random.Random(4)
        for trial in range(8):
            g = random_connected_graph(rng, 8, extra=3)
            f = random_table(g, rng, 3)
            l0 = exact_l0_distance(g, f)
            l1 = exact_l1_distance(g, f)
            assert l1 <= f.r * l0
            if l0 > 0:
                assert l1 > 0

    def test_size_limit(self):
        g = Hypergrid(3, 4)  # 81 vertices > 64
        f = TableFunction(g, {x: 0 for x in g.vertices()}, 1)
        with pytest.raises(SizeExceeded):
            exact_l1_distance(g, f)

    def test_scipy_cross_check(self):
        scipy = pytest.importorskip("scipy")
        import numpy as np
        from scipy.optimize import linprog

        rng = random.Random(5)
        for trial in range(5):
            g = random_connected_graph(rng, 7, extra=3)
            f = random_table(g, rng, 3)
            exact = exact_l1_distance(g, f)
            n = g.n_vertices
            # vars: y_0..y_{n-1}, e_0..e_{n-1}; minimize sum e
            c = np.concatenate([np.zeros(n), np.ones(n)])
            A_ub = []
            b_ub = []
            for i in range(n):
                fx = float(f.lookup(i))
                row = np.zeros(2 * n)
                row[i], row[n + i] = 1.0, -1.0  # y - e <= fx
                A_ub.append(row.copy())
                b_ub.append(fx)
                row = np.zeros(2 * n)
                row[i], row[n + i] = -1.0, -1.0  # -y - e <= -fx
                A_ub.append(row)
                b_ub.append(-fx)
            for u, v in g.edges():
                row = np.zeros(2 * n)
                row[u], row[v] = 1.0, -1.0
                A_ub.append(row.copy())
                b_ub.append(1.0)
                row = np.zeros(2 * n)
                row[u], row[v] = -1.0, 1.0
                A_ub.append(row)
                b_ub.append(1.0)
            res = linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                          bounds=[(0, None)] * (2 * n), method="highs")
            assert res.status == 0
            assert abs(res.fun / n - float(exact)) < 1e-7


class TestSimplex:
    def test_basic_min(self):
        # min x1 + x2 s.t. x1 + x2 >= 2, x1 >= 0.5
        val, x = solve_min(
            [Fraction(1), Fraction(1)],
            [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]],
            [Fraction(2), Fraction(1, 2)],
        )
        assert val == 2

    def test_exact_fractions(self):
        # min 3x s.t. x >= 7/3
        val, x = solve_min([Fraction(3)], [[Fraction(1)]], [Fraction(7, 3)])
        assert val == 7
        assert x[0] == Fraction(7, 3)

    def test_negative_rhs_rows(self):
        # min x s.t. -x >= -5 (i.e. x <= 5) and x >= 1
        val, x = solve_min(
            [Fraction(1)], [[Fraction(-1)], [Fraction(1)]],
            [Fraction(-5), Fraction(1)],
        )
        assert val == 1

    def test_infeasible(self):
        with pytest.raises(LPInfeasible):
            solve_min(
                [Fraction(1)], [[Fraction(1)], [Fraction(-1)]],
                [Fraction(3), Fraction(-1)],  # x >= 3 and x <= 1
            )

    def test_unbounded(self):
        with pytest.raises(LPUnbounded):
            solve_min([Fraction(-1)], [[Fraction(1)]], [Fraction(0)])

    def test_lingering_artificial_pivoted_out(self):
        # min x1 s.t. 2 x1 >= 2 and x1 + x2 <= 1: phase 1 ends with an
        # artificial still basic at 0, and the cleanup pivots it out
        assert solve_min([1, 0], [[2, 0], [-1, -1]], [2, -1]) == (1, [1, 0])

    def test_degenerate_cycling_guard(self):
        # classic degenerate instance; Bland's rule must terminate
        c = [Fraction(-3, 4), Fraction(150), Fraction(-1, 50), Fraction(6)]
        A = [
            [Fraction(-1, 4), Fraction(60), Fraction(1, 25), Fraction(-9)],
            [Fraction(-1, 2), Fraction(90), Fraction(1, 50), Fraction(-3)],
            [Fraction(0), Fraction(0), Fraction(-1), Fraction(0)],
        ]
        b = [Fraction(0), Fraction(0), Fraction(-1)]
        # rows already negated into Ax >= b from the usual <= form
        val, x = solve_min(c, A, b)
        assert val == Fraction(-1, 20)
