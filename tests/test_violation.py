import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lipfilter import (
    BudgetExceeded,
    ExplicitGraph,
    ExprFunction,
    Hypercube,
    Hypergrid,
    TableFunction,
    max_violation_score,
    scan_scored_neighbors,
    violation_edges,
    violation_score,
)
from lipfilter.violation import _violated_pairs, scan_radius
from helpers import lipschitz_table, random_connected_graph


def path3(values, r=3):
    g = ExplicitGraph(3, [(0, 1), (1, 2)])
    return g, TableFunction(g, dict(enumerate(values)), r)


class TestScore:
    def test_basic_and_symmetry(self):
        g, f = path3([0, 3, 0])
        assert violation_score(g, f, 0, 1) == 2
        assert violation_score(g, f, 1, 0) == 2
        assert violation_score(g, f, 0, 2) == 0  # |0-0| - 2 < 0

    def test_self_is_zero(self):
        g, f = path3([0, 3, 0])
        assert violation_score(g, f, 1, 1) == 0

    def test_partial_is_zero(self):
        g, f = path3([0, "?", 3])
        assert violation_score(g, f, 0, 1) == 0
        assert violation_score(g, f, 0, 2) == 1

    def test_disconnected_is_zero(self):
        g = ExplicitGraph(2, [])
        f = TableFunction(g, {0: 0, 1: 3}, 3)
        assert violation_score(g, f, 0, 1) == 0

    def test_fractional(self):
        g, f = path3([0, Fraction(5, 2), 0], r=3)
        assert violation_score(g, f, 0, 1) == Fraction(3, 2)


class TestScan:
    def test_positive_only(self):
        g = Hypergrid(5, 1)
        f = TableFunction(g, {(i,): 0 for i in range(1, 6)} | {(3,): 4}, 4)
        got = scan_scored_neighbors(g, f.lookup, (3,), radius=scan_radius(f.r, 0),
                                    lo=f.lo, hi=f.hi)
        assert got == {(1,): 2, (2,): 3, (4,): 3, (5,): 2}

    def test_radius_truncation(self):
        g = Hypergrid(9, 1)
        values = {(i,): 0 for i in range(1, 10)}
        values[(1,)] = 4
        f = TableFunction(g, values, 4)
        # radius ceil(r) - 1 = 3 reaches only up to (4,)
        got = scan_scored_neighbors(g, f.lookup, (1,), radius=scan_radius(f.r, 0),
                                    lo=f.lo, hi=f.hi)
        assert got == {(2,): 3, (3,): 2, (4,): 1}
        wider = scan_scored_neighbors(g, f.lookup, (1,), radius=8, lo=f.lo, hi=f.hi)
        assert wider == got

    def test_undefined_center(self):
        g, f = path3(["?", 3, 0])
        assert scan_scored_neighbors(g, f.lookup, 0, radius=2, lo=f.lo, hi=f.hi) == {}

    def test_budget(self):
        g = Hypergrid(4, 4)
        f = TableFunction(g, {x: 0 for x in g.vertices()}, 4)
        with pytest.raises(BudgetExceeded, match=r"ball\(1111, 3\)"):
            scan_scored_neighbors(g, f.lookup, (1, 1, 1, 1), radius=3,
                                  lo=f.lo, hi=f.hi, budget=3)


CUBE4 = Hypercube(4)
_value = st.one_of(
    st.none(),
    st.integers(0, 4),
    st.builds(Fraction, st.integers(0, 48), st.integers(1, 12)),
)


def brute_force_scores(values, x, radius):
    """{y: score} for y within radius of x in CUBE4 with a positive score."""
    f = SimpleNamespace(lookup=values.get)
    out = {}
    for y in CUBE4.vertices():
        if y != x and CUBE4.dist(x, y) <= radius:
            score = violation_score(CUBE4, f, x, y)
            if score > 0:
                out[y] = score
    return out


class TestScanProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_value, min_size=16, max_size=16), st.integers(0, 5))
    def test_equals_brute_force(self, table, radius):
        values = dict(zip(CUBE4.vertices(), table))
        for x in CUBE4.vertices():
            got = scan_scored_neighbors(CUBE4, values.get, x, radius=radius,
                                        lo=0, hi=48)
            assert got == brute_force_scores(values, x, radius)
            assert all(type(s) is Fraction for s in got.values())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_value, min_size=16, max_size=16), st.integers(0, 5))
    def test_pairs_equal_brute_force(self, table, radius):
        values = dict(zip(CUBE4.vertices(), table))
        got = list(_violated_pairs(CUBE4, values.get, radius=radius, lo=0, hi=48))
        want = {
            (x, y, score)
            for x in CUBE4.vertices()
            for y, score in brute_force_scores(values, x, radius).items()
            if x < y
        }
        assert len(got) == len(set(got))
        assert set(got) == want


def tau_violated(g, f, tau, x):
    """The l1 matcher's rule: partners scoring above tau within
    scan_radius(r, tau)."""
    scan = scan_scored_neighbors(g, f.lookup, x, radius=scan_radius(f.r, tau),
                                 lo=f.lo, hi=f.hi)
    return [y for y, s in scan.items() if s > tau]


class TestThreshold:
    def test_strict_above_tau(self):
        g, f = path3([0, 3, 0])
        # score of (0,1) is exactly 2: kept for tau < 2, dropped at tau = 2
        assert tau_violated(g, f, Fraction(199, 100), 0) == [1]
        assert tau_violated(g, f, 2, 0) == []

    def test_truncation_radius_zero(self):
        g = Hypergrid(6, 1)
        f = TableFunction(g, {(i,): 0 for i in range(1, 7)}, 4)
        # tau >= r - 1 makes ceil(r - tau) - 1 <= 0: nothing to scan
        assert scan_radius(f.r, Fraction(7, 2)) == 0
        assert tau_violated(g, f, Fraction(7, 2), (3,)) == []

    def test_dangerous(self):
        # a vertex is dangerous when it has a 0-violated partner
        g, f = path3([0, 3, 0])
        assert tau_violated(g, f, 0, 0)
        assert tau_violated(g, f, 0, 1)
        g2, f2 = path3([0, 1, 2])
        assert not tau_violated(g2, f2, 0, 1)


class TestWholeGraph:
    def test_edges_frozen_example(self):
        g, f = path3([0, 3, 0])
        assert violation_edges(g, f) == [(0, 1), (1, 2)]
        assert max_violation_score(g, f) == 2

    def test_lipschitz_has_none(self):
        rng = random.Random(0)
        for trial in range(5):
            g = random_connected_graph(rng, 12, extra=6)
            f = lipschitz_table(g, rng, 4)
            assert violation_edges(g, f) == []
            assert max_violation_score(g, f) == 0

    def test_skips_holes_and_islands(self):
        g = ExplicitGraph(4, [(0, 1)])  # 2 and 3 disconnected
        f = TableFunction(g, {0: 0, 1: 1, 2: 5, 3: 0}, 5)
        assert max_violation_score(g, f) == 0
        partial = TableFunction(g, {0: 0, 1: 3}, 5)  # 2 and 3 undefined
        assert max_violation_score(g, partial) == 2

    def test_edges_listed_once(self):
        g = Hypergrid(3, 2)
        values = {x: 0 for x in g.vertices()}
        values[(2, 2)] = 3
        f = TableFunction(g, values, 3)
        edges = violation_edges(g, f)
        assert len(edges) == len(set(edges))
        assert all(x < y for x, y in edges)
        # center violates against its four neighbors (gap 3 > dist 1)
        assert ((1, 2), (2, 2)) in edges
        assert ((2, 2), (2, 3)) in edges

    def test_one_lookup_per_vertex(self):
        g = Hypergrid(4, 2)
        values = {x: 0 for x in g.vertices()}
        values[(2, 2)] = 3
        f = TableFunction(g, values, 3)
        for whole_graph in (violation_edges, max_violation_score):
            f.reset_lookups()
            whole_graph(g, f)
            assert f.lookups == g.n_vertices


_in_range = st.one_of(
    st.none(),
    st.integers(0, 4),
    st.fractions(min_value=0, max_value=4, max_denominator=12),
)
_widen = st.fractions(min_value=0, max_value=3, max_denominator=4)


class TestScanCap:
    """The scan walks min(radius, ceil(max(hi - f(x), f(x) - lo)) - 1)."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_in_range, min_size=16, max_size=16), st.integers(0, 5),
           _widen, _widen)
    def test_any_enclosing_interval_equals_brute_force(self, table, radius, below, above):
        values = dict(zip(CUBE4.vertices(), table))
        defined = [v for v in table if v is not None] or [Fraction(0)]
        lo, hi = min(defined) - below, max(defined) + above
        for x in CUBE4.vertices():
            got = scan_scored_neighbors(CUBE4, values.get, x, radius=radius,
                                        lo=lo, hi=hi)
            assert got == brute_force_scores(values, x, radius)
        pairs = list(_violated_pairs(CUBE4, values.get, radius=radius, lo=lo, hi=hi))
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {
            (x, y, score)
            for x in CUBE4.vertices()
            for y, score in brute_force_scores(values, x, radius).items()
            if x < y
        }

    CUBE8 = Hypercube(8)
    MID = (1, 1, 1, 1, 0, 0, 0, 0)  # sum 4: both ends of [0, 8] are 4 away

    def test_mid_range_centre_walks_radius_3(self, monkeypatch):
        g = self.CUBE8
        f = ExprFunction(g, "sum()", 8)
        sizes = []

        def ball(x, radius, **kw):
            out = Hypercube.ball(g, x, radius, **kw)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(g, "ball", ball)
        scan_scored_neighbors(g, f.lookup, self.MID, radius=scan_radius(f.r, 0),
                              lo=f.lo, hi=f.hi)
        assert sizes == [1 + 8 + 28 + 56]  # Hamming ball of radius 3: 93

    def test_budget_applies_to_the_capped_ball(self):
        g = self.CUBE8
        f = ExprFunction(g, "sum()", 8)
        radius = scan_radius(f.r, 0)
        assert scan_scored_neighbors(g, f.lookup, self.MID, radius=radius,
                                     lo=f.lo, hi=f.hi, budget=93) == {}
        with pytest.raises(BudgetExceeded, match=r"ball\(11110000, 3\)"):
            scan_scored_neighbors(g, f.lookup, self.MID, radius=radius,
                                  lo=f.lo, hi=f.hi, budget=92)
