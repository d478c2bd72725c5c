import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from lipfilter import (
    DEFAULT_SCAN_BUDGET,
    DEFAULT_SLACK,
    BudgetExceeded,
    ExplicitGraph,
    ExprFunction,
    Hypercube,
    Hypergrid,
    Interval,
    OutOfDomain,
    TableFunction,
    make_schedule,
    max_violation_score,
    scan_scored_neighbors,
    violation_edges,
    violation_score,
)
from helpers import lipschitz_table, random_connected_graph, scan_of, violated_pairs_of


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
        got = scan_of(g, f.lookup, (3,), tau=0, bounds=f.bounds)
        assert got == {(1,): 2, (2,): 3, (4,): 3, (5,): 2}

    def test_radius_truncation(self):
        g = Hypergrid(9, 1)
        values = {(i,): 0 for i in range(1, 10)}
        values[(1,)] = 4
        f = TableFunction(g, values, 4)
        # radius ceil(4 - tau) - 1 reaches (4,) at tau = 0 and (3,) at tau = 1
        got = scan_of(g, f.lookup, (1,), tau=0, bounds=f.bounds)
        assert got == {(2,): 3, (3,): 2, (4,): 1}
        assert scan_of(g, f.lookup, (1,), tau=1,
                       bounds=f.bounds) == {(2,): 3, (3,): 2}

    def test_undefined_center(self):
        g, f = path3(["?", 3, 0])
        assert scan_of(g, f.lookup, 0, tau=0, bounds=f.bounds) == {}

    def test_budget(self):
        # the scan's ball is held to the ball layer's vertex budget: on the
        # 18-cube the ball of radius 11 has 230,964 vertices
        g = Hypercube(18)
        x = (0,) * 18
        with pytest.raises(BudgetExceeded, match=rf"ball\(0{{18}}, 11\) exceeded "
                                                 rf"vertex budget {DEFAULT_SCAN_BUDGET}$"):
            scan_of(g, {x: Fraction(6)}.get, x, tau=0,
                    bounds=Interval.of(0, 18))


CUBE4 = Hypercube(4)
_value = st.one_of(
    st.none(),
    st.integers(0, 4),
    st.builds(Fraction, st.integers(0, 48), st.integers(1, 12)),
)
WIDE = Interval.of(0, 48)  # every _value lies in it
# tau = 0 (the l0 filter), every round threshold of the r = 2 and r = 3
# schedules (the l1 filter), and any fraction in [0, 4)
SCHEDULE_TAUS = sorted({
    sched.tau(t)
    for sched in (make_schedule(2, DEFAULT_SLACK), make_schedule(3, DEFAULT_SLACK))
    for t in range(2, sched.rounds + 1)
})
_tau = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from(SCHEDULE_TAUS),
    st.fractions(min_value=0, max_value=4, max_denominator=12).filter(lambda t: t < 4),
)


def brute_force_scores(values, x, tau):
    """{y: score} for every y in CUBE4 scoring above tau against x."""
    f = SimpleNamespace(lookup=values.get)
    out = {}
    for y in CUBE4.vertices():
        score = violation_score(CUBE4, f, x, y)
        if y != x and score > tau:
            out[y] = score
    return out


def brute_force_pairs(values, tau):
    return {
        (x, y, score)
        for x in CUBE4.vertices()
        for y, score in brute_force_scores(values, x, tau).items()
        if x < y
    }


def tight_bounds(table):
    """[min, max] of the defined values in ``table``; [0, 0] if none is."""
    defined = [v for v in table if v is not None] or [Fraction(0)]
    return Interval(min(defined), max(defined))


class TestScanProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_value, min_size=16, max_size=16), _tau)
    def test_equals_brute_force(self, table, tau):
        values = dict(zip(CUBE4.vertices(), table))
        for x in CUBE4.vertices():
            got = scan_of(CUBE4, values.get, x, tau=tau, bounds=WIDE)
            assert got == brute_force_scores(values, x, tau)
            assert all(type(s) is Fraction for s in got.values())

    # With bounds as tight as the values, a centre at one end has all its
    # partners towards the other end, and the walk is cut exactly at the
    # farthest one that can score: a reach one short misses it.

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_value, min_size=16, max_size=16), _tau)
    def test_tight_bounds_equal_brute_force(self, table, tau):
        values = dict(zip(CUBE4.vertices(), table))
        bounds = tight_bounds(table)
        for x in CUBE4.vertices():
            got = scan_of(CUBE4, values.get, x, tau=tau, bounds=bounds)
            assert got == brute_force_scores(values, x, tau)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_value, min_size=16, max_size=16), _tau)
    def test_upward_tight_bounds_equal_brute_force(self, table, tau):
        values = dict(zip(CUBE4.vertices(), table))
        bounds = tight_bounds(table)
        for x in CUBE4.vertices():
            got = scan_of(CUBE4, values.get, x, tau=tau, bounds=bounds, upward=True)
            assert got == {y: s for y, s in brute_force_scores(values, x, tau).items()
                           if values[y] > values[x]}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_value, min_size=16, max_size=16), _tau)
    def test_pairs_equal_brute_force(self, table, tau):
        values = dict(zip(CUBE4.vertices(), table))
        got = list(violated_pairs_of(CUBE4, values.get, tau=tau, bounds=WIDE))
        assert len(got) == len(set(got))
        assert set(got) == brute_force_pairs(values, tau)


def tau_violated(g, f, tau, x):
    """The l1 matcher's rule: the partners scoring above tau."""
    return list(scan_of(g, f.lookup, x, tau=tau, bounds=f.bounds))


def recording_ball(monkeypatch, g):
    """Patch g.ball to record (radius, size) of every ball it builds."""
    walked = []
    original = g.ball

    def ball(x, radius, **kw):
        out = original(x, radius, **kw)
        walked.append((radius, len(out)))
        return out

    monkeypatch.setattr(g, "ball", ball)
    return walked


class TestThreshold:
    def test_strict_above_tau(self):
        g, f = path3([0, 3, 0])
        # score of (0,1) is exactly 2: kept for tau < 2, dropped at tau = 2
        assert tau_violated(g, f, Fraction(199, 100), 0) == [1]
        assert tau_violated(g, f, 2, 0) == []

    def test_truncation_radius_zero(self, monkeypatch):
        g = Hypergrid(6, 1)
        f = TableFunction(g, {(i,): 0 for i in range(1, 7)}, 4)
        # tau >= r - 1 makes ceil(r - tau) - 1 <= 0: nothing is walked, not
        # even the centre
        walked = recording_ball(monkeypatch, g)
        assert tau_violated(g, f, Fraction(7, 2), (3,)) == []
        assert walked == []

    @pytest.mark.parametrize("g", [Hypergrid(6, 1), Hypercube(3),
                                   ExplicitGraph(6, [(0, 1), (1, 2)])], ids=repr)
    def test_reach_below_one_walks_nothing_but_checks_the_centre(self, monkeypatch, g):
        # every value 3 in [0, 4]: the reach ceil(3 - tau) - 1 is 1 at
        # tau = 3/2 and 0 at tau = 2
        def three(i):
            return Fraction(3)

        bounds = Interval.of(0, 4)
        unit_ball = len(g.ball(0, 1))
        walked = recording_ball(monkeypatch, g)
        assert scan_scored_neighbors(g, three, 0, tau=2, bounds=bounds) == {}
        assert walked == []
        assert scan_scored_neighbors(g, three, 0, tau=Fraction(3, 2),
                                     bounds=bounds) == {}
        assert walked == [(1, unit_ball)]
        # a centre that is not an id raises as the ball's own check does
        for tau in (2, Fraction(3, 2)):
            for bad in (-1, g.n_vertices, True, 0.0):
                with pytest.raises(OutOfDomain, match="is not a vertex id"):
                    scan_scored_neighbors(g, three, bad, tau=tau, bounds=bounds)
        assert len(walked) == 1

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
    """The scan walks ceil(max(hi - f(x), f(x) - lo) - tau) - 1, and an
    upward scan ceil(hi - f(x) - tau) - 1."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_in_range, min_size=16, max_size=16), _tau, _widen, _widen)
    def test_any_enclosing_interval_equals_brute_force(self, table, tau, below, above):
        values = dict(zip(CUBE4.vertices(), table))
        defined = [v for v in table if v is not None] or [Fraction(0)]
        bounds = Interval(min(defined) - below, max(defined) + above)
        upward_pairs = []
        for x in CUBE4.vertices():
            want = brute_force_scores(values, x, tau)
            got = scan_of(CUBE4, values.get, x, tau=tau, bounds=bounds)
            assert got == want
            up = scan_of(CUBE4, values.get, x, tau=tau,
                         bounds=bounds, upward=True)
            assert up == {y: s for y, s in want.items() if values[y] > values[x]}
            upward_pairs += [(min(x, y), max(x, y), s) for y, s in up.items()]
        # every violated pair is found once, from its lower end
        assert len(upward_pairs) == len(set(upward_pairs))
        assert set(upward_pairs) == brute_force_pairs(values, tau)
        pairs = list(violated_pairs_of(CUBE4, values.get, tau=tau, bounds=bounds))
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == brute_force_pairs(values, tau)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_in_range, min_size=16, max_size=16), _tau, _widen, _widen)
    def test_walks_the_bound_computed_in_fractions(self, table, tau, below, above):
        values = dict(zip(CUBE4.vertices(), table))
        defined = [v for v in table if v is not None] or [Fraction(0)]
        lo, hi = min(defined) - below, max(defined) + above
        for x in CUBE4.vertices():
            radii = []

            def ball(centre, radius, **kw):
                radii.append(radius)
                return Hypercube.ball(CUBE4, centre, radius, **kw)

            graph = SimpleNamespace(ball=ball, index=CUBE4.index, vertex=CUBE4.vertex,
                                    check_id=CUBE4.check_id)
            for upward in (False, True):
                scan_of(graph, values.get, x, tau=tau,
                        bounds=Interval(lo, hi), upward=upward)
            fx = values[x]
            # a ball is asked for exactly when the bound is at least 1
            want = [] if fx is None else [bound for bound in (
                math.ceil(max(hi - fx, fx - lo) - tau) - 1,
                math.ceil(hi - fx - tau) - 1,
            ) if bound >= 1]
            assert radii == want

    CUBE8 = Hypercube(8)
    MID = (1, 1, 1, 1, 0, 0, 0, 0)  # sum 4: both ends of [0, 8] are 4 away

    def walked(self, monkeypatch, tau):
        g = self.CUBE8
        f = ExprFunction(g, "sum()", 8)
        walked = recording_ball(monkeypatch, g)
        scan_of(g, f.lookup, self.MID, tau=tau, bounds=f.bounds)
        return walked

    def test_mid_range_centre_walks_radius_3(self, monkeypatch):
        # ceil(4 - 0) - 1 = 3: the Hamming ball of radius 3 has 93 vertices
        assert self.walked(monkeypatch, 0) == [(3, 1 + 8 + 28 + 56)]

    def test_tau_shrinks_the_walked_ball(self, monkeypatch):
        # ceil(4 - 3/2) - 1 = 2: 37 vertices
        assert self.walked(monkeypatch, Fraction(3, 2)) == [(2, 1 + 8 + 28)]

    def test_budget_applies_to_the_capped_ball(self):
        # The budget holds the ball the scan walks, not the whole range's:
        # on the 18-cube a centre at 6 or 12 of [0, 18] scans radius 11,
        # 230,964 vertices, over the budget, but radius 5 at tau = 6 or
        # upward from 12, 12,616 vertices.
        g = Hypercube(18)
        x = (0,) * 18
        wide = Interval.of(0, 18)
        for fx, tau, upward in [(6, 6, False), (12, 0, True)]:
            lookup = {x: Fraction(fx)}.get
            assert scan_of(g, lookup, x, tau=tau, bounds=wide,
                           upward=upward) == {}
            with pytest.raises(BudgetExceeded, match=r"ball\(0{18}, 11\)"):
                scan_of(g, lookup, x, tau=0, bounds=wide)
