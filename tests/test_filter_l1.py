import random
from fractions import Fraction

import pytest

from lipfilter import filter_l1
from lipfilter.violation import scan_radius
from lipfilter import (
    ExplicitGraph,
    Hypercube,
    Hypergrid,
    InvalidParam,
    LocalFilterL1,
    PartialFunction,
    TableFunction,
    global_filter_l1,
    is_c_lipschitz,
    local_filter_l1,
    make_schedule,
    max_violation_score,
)
from helpers import (
    corrupted_lipschitz,
    lipschitz_table,
    random_connected_graph,
    random_table,
    seed_of,
)


class TestSchedule:
    def test_frozen_r4(self):
        s = make_schedule(4, 1)
        assert s.rounds == 5
        assert s.tau(2) == Fraction(8, 3)
        assert s.delta(2) == Fraction(4, 3)
        assert s.tau(5) == 4 * Fraction(2, 3) ** 4
        assert s.final_threshold <= 1

    def test_frozen_fractional(self):
        s = make_schedule(Fraction(9, 4), 1)
        assert s.rounds == 3

    def test_default_slack_round_count(self):
        s = make_schedule(4, Fraction(1, 100))
        assert s.rounds == 16
        assert s.tau(16) <= Fraction(1, 100)
        assert s.r * Fraction(2, 3) ** (s.rounds - 2) > Fraction(1, 100)

    def test_degenerate_identity(self):
        assert make_schedule(Fraction(1, 2), 1).rounds == 1
        assert make_schedule(0, 1).rounds == 1

    def test_validation(self):
        with pytest.raises(InvalidParam):
            make_schedule(-1, 1)
        with pytest.raises(InvalidParam):
            make_schedule(4, 0)
        with pytest.raises(InvalidParam):
            make_schedule(4, 1).tau(1)
        with pytest.raises(InvalidParam):
            make_schedule(4, 1).tau(6)


def two_path():
    g = ExplicitGraph(2, [(0, 1)])
    return g, TableFunction(g, {0: 0, 1: 4}, 4)


class TestTwoPointTrace:
    def test_single_round_moves_by_delta(self):
        g, f = two_path()
        filt = LocalFilterL1(g, f, seed_of(0), slack=1)
        # round 2: score 3 > tau_2 = 8/3, the only edge matches
        assert filt.value(0, t=2) == Fraction(4, 3)
        assert filt.value(1, t=2) == Fraction(8, 3)

    def test_final_gap_within_slack(self):
        g, f = two_path()
        filt = LocalFilterL1(g, f, seed_of(0), slack=1)
        lo = filt.value(0)
        hi = filt.value(1)
        assert hi - lo <= 1 + 1  # dist 1 plus slack
        assert lo + hi == 4  # mass is conserved on a matched pair

    def test_matches_global(self):
        g, f = two_path()
        for i in range(5):
            mine = LocalFilterL1(g, f, seed_of(i), slack=1).table()
            ref = global_filter_l1(g, f, seed_of(i), slack=1)
            assert mine == ref


class TestLocalAgainstGlobal:
    def test_random_instances(self):
        rng = random.Random(0)
        for trial in range(8):
            g = random_connected_graph(rng, 10, extra=4)
            f = random_table(g, rng, 3)
            seed = seed_of(trial)
            filt = LocalFilterL1(g, f, seed, slack=Fraction(1, 4))
            ref = global_filter_l1(g, f, seed, slack=Fraction(1, 4))
            assert filt.table() == ref

    def test_point_queries_match_table(self):
        rng = random.Random(1)
        g = random_connected_graph(rng, 9, extra=3)
        f = random_table(g, rng, 3)
        seed = seed_of(11)
        table = LocalFilterL1(g, f, seed).table()
        for x in g.vertices():
            fresh = LocalFilterL1(g, f, seed)
            assert fresh.value(x) == table[x]

    def test_one_shot_helper(self):
        g, f = two_path()
        assert local_filter_l1(g, f, seed_of(0), 0, slack=1) == Fraction(4, 3)


def scan_radii(filt):
    return {t: scan_radius(filt.schedule.r, filt.schedule.tau(t))
            for t in range(2, filt.schedule.rounds + 1)}


def carried_moves(filt, trace):
    """Values of a global trace that moved in a round s whose next round
    scans at round s's radius > 0: the rescans table() makes in place."""
    radius = scan_radii(filt)
    return sum(
        trace[s - 1][x] != trace[s - 2][x]
        for s in range(2, filt.schedule.rounds)
        if radius[s + 1] == radius[s] > 0
        for x in trace[s - 1]
    )


class TestScanCarry:
    """When round s + 1 scans at round s's radius, table() updates the
    round s scans in place once round s completes: every value that moved
    in round s is rescanned once, against the round-s table, and its
    scores are written into its own scan and its partners'.  A round at a
    new radius scans every vertex.  At r = 3 rounds 2, 3 and 4 have scan
    radius 0, 1 and 2, and later rounds 2; at r = 2 round 2 has radius 0
    and later rounds 1.  A radius-0 round makes no scan, since no pair can
    be violated in it."""

    CUBE = Hypercube(8)

    def instances(self):
        for i in range(3):
            rng = random.Random(100 + i)
            yield corrupted_lipschitz(self.CUBE, rng, 3, k=8), seed_of(i)
            yield random_table(self.CUBE, rng, 2), seed_of(i)

    def graph_instances(self):
        """The cube instances, plus a grid and an explicit graph, whose balls
        come from the breadth-first search."""
        for f, seed in self.instances():
            yield self.CUBE, f, seed
        grid = Hypergrid(4, 3)
        yield grid, random_table(grid, random.Random(200), 3), seed_of(3)
        rng = random.Random(201)
        g = random_connected_graph(rng, 40, extra=20)
        yield g, random_table(g, rng, 3), seed_of(4)

    def test_table_matches_global(self):
        for f, seed in self.instances():
            ref = global_filter_l1(self.CUBE, f, seed)
            assert LocalFilterL1(self.CUBE, f, seed).table() == ref

    def test_every_round_matches_global_trace(self):
        for g, f, seed in self.graph_instances():
            trace = global_filter_l1(g, f, seed, trace=True)
            filt = LocalFilterL1(g, f, seed)
            assert carried_moves(filt, trace) > 0
            for t in range(1, filt.schedule.rounds + 1):
                assert filt.table(t) == trace[t - 1], (g, t)

    def test_scan_count(self, monkeypatch):
        """One scan per vertex in a round at a new radius > 0, and one per
        moved value in a round at the previous round's radius."""
        f = corrupted_lipschitz(self.CUBE, random.Random(100), 3, k=8)
        trace = global_filter_l1(self.CUBE, f, seed_of(0), trace=True)
        calls = []
        scan = filter_l1.scan_scored_neighbors

        def counting(*args, **kwargs):
            calls.append(args[3])
            return scan(*args, **kwargs)

        monkeypatch.setattr(filter_l1, "scan_scored_neighbors", counting)
        filt = LocalFilterL1(self.CUBE, f, seed_of(0))
        radius = scan_radii(filt)
        full = sum(self.CUBE.n_vertices for t in radius
                   if radius[t] > 0 and radius[t] != radius.get(t - 1))
        carried = carried_moves(filt, trace)
        assert filt.table() == trace[-1]
        assert carried > 0
        assert len(calls) == full + carried

    def test_radius_zero_round_makes_no_scan(self, monkeypatch):
        radii = []
        scan = filter_l1.scan_scored_neighbors

        def recording(*args, radius, **kwargs):
            radii.append(radius)
            return scan(*args, radius=radius, **kwargs)

        monkeypatch.setattr(filter_l1, "scan_scored_neighbors", recording)
        f = random_table(self.CUBE, random.Random(7), 2)
        filt = LocalFilterL1(self.CUBE, f, seed_of(0))
        assert scan_radius(2, filt.schedule.tau(2)) == 0
        assert filt.table() == global_filter_l1(self.CUBE, f, seed_of(0))
        assert radii and 0 not in radii

    def test_partial_table_then_full(self):
        for f, seed in self.instances():
            filt = LocalFilterL1(self.CUBE, f, seed)
            filt.table(3)
            assert filt.table() == LocalFilterL1(self.CUBE, f, seed).table()

    def test_point_queries_after_partial_table(self):
        for f, seed in self.instances():
            filt = LocalFilterL1(self.CUBE, f, seed)
            filt.table(4)
            fresh = LocalFilterL1(self.CUBE, f, seed)
            for x in self.CUBE.vertices():
                assert filt.value(x) == fresh.value(x)


class TestInvariants:
    def test_round_threshold_invariant(self):
        rng = random.Random(2)
        for trial in range(4):
            g = random_connected_graph(rng, 9, extra=4)
            f = random_table(g, rng, 3)
            seed = seed_of(trial)
            trace = global_filter_l1(g, f, seed, slack=Fraction(1, 2), trace=True)
            sched = make_schedule(f.r, Fraction(1, 2))
            for t in range(2, sched.rounds + 1):
                out = TableFunction(g, trace[t - 1], f.r)
                assert max_violation_score(g, out) <= sched.tau(t)

    def test_output_nearly_lipschitz(self):
        rng = random.Random(3)
        for trial in range(4):
            g = random_connected_graph(rng, 9, extra=4)
            f = random_table(g, rng, 3)
            table = LocalFilterL1(g, f, seed_of(trial)).table()
            out = TableFunction(g, table, f.r)
            assert is_c_lipschitz(g, out, 1 + Fraction(1, 100))

    def test_identity_on_lipschitz(self):
        rng = random.Random(4)
        for trial in range(5):
            g = random_connected_graph(rng, 10, extra=4)
            f = lipschitz_table(g, rng, 3)
            filt = LocalFilterL1(g, f, seed_of(trial))
            for x in g.vertices():
                assert filt.value(x) == f.lookup(x)

    def test_range_preserved(self):
        rng = random.Random(5)
        for trial in range(5):
            g = random_connected_graph(rng, 10, extra=4)
            f = random_table(g, rng, 3)
            for v in LocalFilterL1(g, f, seed_of(trial)).table().values():
                assert 0 <= v <= 3


class TestErrors:
    def test_partial_function_rejected(self):
        g = ExplicitGraph(2, [(0, 1)])
        f = TableFunction(g, {0: 0}, 2)
        filt = LocalFilterL1(g, f, seed_of(0))
        with pytest.raises(PartialFunction):
            filt.value(1)
        with pytest.raises(PartialFunction):
            global_filter_l1(g, f, seed_of(0))

    def test_round_out_of_range(self):
        g, f = two_path()
        filt = LocalFilterL1(g, f, seed_of(0), slack=1)
        with pytest.raises(InvalidParam):
            filt.value(0, t=0)
        with pytest.raises(InvalidParam):
            filt.value(0, t=99)

    def test_round_one_is_input(self):
        g, f = two_path()
        filt = LocalFilterL1(g, f, seed_of(0), slack=1)
        assert filt.value(0, t=1) == 0
        assert filt.value(1, t=1) == 4
