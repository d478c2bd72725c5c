import random
from fractions import Fraction

import pytest

from lipfilter import filter_l1, matching
from lipfilter.seeds import edge_rank
from lipfilter.violation import _violated_pairs, scan_radius
from lipfilter import (
    ExplicitGraph,
    Hypercube,
    Hypergrid,
    InvalidParam,
    LocalFilterL1,
    OutOfDomain,
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
    """Values of a global trace that moved in rounds 2..T - 1: the rescans
    table() makes in place before the next round."""
    return sum(
        trace[s - 1][x] != trace[s - 2][x]
        for s in range(2, filt.schedule.rounds)
        for x in trace[s - 1]
    )


class TestScanCarry:
    """table() scans every vertex once, at the final round's radius, and
    updates those scans in place after each round s < T: every value that
    moved in round s is rescanned once, against the round-s table, and its
    scores are written into its own scan and its partners'.  Each round
    reads its edges from the same scans, filtered on score > tau_s.  At
    r = 3 rounds 2, 3 and 4 have scan radius 0, 1 and 2, and later rounds
    2; at r = 2 round 2 has radius 0 and later rounds 1.  A final radius
    of 0 makes no scan, since no round can have a violated pair."""

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
        """One scan per vertex when the final radius is > 0, and one per
        value moved in rounds 2..T - 1."""
        f = corrupted_lipschitz(self.CUBE, random.Random(100), 3, k=8)
        trace = global_filter_l1(self.CUBE, f, seed_of(0), trace=True)
        calls = []
        scan = filter_l1.scan_scored_neighbors

        def counting(*args, **kwargs):
            calls.append(args[2])
            return scan(*args, **kwargs)

        monkeypatch.setattr(filter_l1, "scan_scored_neighbors", counting)
        filt = LocalFilterL1(self.CUBE, f, seed_of(0))
        assert scan_radii(filt)[filt.schedule.rounds] > 0
        full = self.CUBE.n_vertices
        carried = carried_moves(filt, trace)
        assert filt.table() == trace[-1]
        assert carried > 0
        assert len(calls) == full + carried

    def record_radii(self, monkeypatch):
        radii = []
        scan = filter_l1.scan_scored_neighbors

        def recording(*args, radius, **kwargs):
            radii.append(radius)
            return scan(*args, radius=radius, **kwargs)

        monkeypatch.setattr(filter_l1, "scan_scored_neighbors", recording)
        return radii

    def test_radius_zero_round_makes_no_scan(self, monkeypatch):
        radii = self.record_radii(monkeypatch)
        f = random_table(self.CUBE, random.Random(7), 2)
        filt = LocalFilterL1(self.CUBE, f, seed_of(0))
        assert scan_radius(2, filt.schedule.tau(2)) == 0
        assert filt.table() == global_filter_l1(self.CUBE, f, seed_of(0))
        assert radii and 0 not in radii

    def test_final_radius_zero_makes_no_scan(self, monkeypatch):
        radii = self.record_radii(monkeypatch)
        f = random_table(self.CUBE, random.Random(7), 2)
        slack = Fraction(4, 3)
        filt = LocalFilterL1(self.CUBE, f, seed_of(0), slack=slack)
        assert scan_radii(filt) == {2: 0}
        assert filt.table() == global_filter_l1(self.CUBE, f, seed_of(0), slack=slack)
        assert radii == []

    def test_scans_only_at_final_radius(self, monkeypatch):
        """At r = 3 rounds scan at radii 0, 1 and 2 in value(); table()
        scans at the last round's radius only."""
        radii = self.record_radii(monkeypatch)
        f = corrupted_lipschitz(self.CUBE, random.Random(100), 3, k=8)
        filt = LocalFilterL1(self.CUBE, f, seed_of(0))
        final = scan_radius(3, filt.schedule.final_threshold)
        assert set(scan_radii(filt).values()) == {0, 1, 2}
        assert filt.table() == global_filter_l1(self.CUBE, f, seed_of(0))
        assert radii and set(radii) == {final}

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


class TestGlobalRounds:
    """table() computes each round after the first globally: it reads the
    round's violated pairs from its scans at the final radius, matches
    them with the global greedy matching and moves the matched values, so
    it never queries the matching LCA that value() uses."""

    def graph_instances(self):
        return TestScanCarry().graph_instances()

    def test_table_makes_no_match_of_call(self, monkeypatch):
        def refuse(lca, x):
            raise AssertionError("table() queried the matching LCA")

        monkeypatch.setattr(matching.MatchingLCA, "match_of", refuse)
        for g, f, seed in self.graph_instances():
            assert LocalFilterL1(g, f, seed).table() == global_filter_l1(g, f, seed)

    def test_mixed_session_matches_global_trace(self):
        """Point queries before, between and after table() calls share one
        session's round memos without changing any value."""
        for g, f, seed in self.graph_instances():
            trace = global_filter_l1(g, f, seed, trace=True)
            filt = LocalFilterL1(g, f, seed)
            rounds = filt.schedule.rounds
            vertices = list(g.vertices())
            rng = random.Random(7)
            for x in rng.sample(vertices, 4):
                assert filt.value(x) == trace[-1][x]
            assert filt.table(3) == trace[2]
            for x in rng.sample(vertices, 4):
                assert filt.value(x, rounds - 1) == trace[-2][x]
            assert filt.table() == trace[-1]
            for t in range(1, rounds + 1):
                assert filt.table(t) == trace[t - 1], (g, t)
            for t in (2, 4, rounds):
                for x in vertices:
                    assert filt.value(x, t) == trace[t - 1][x], (g, t, x)

    def test_each_violated_edge_ranked_once_per_round(self, monkeypatch):
        g = TestScanCarry.CUBE
        f = corrupted_lipschitz(g, random.Random(100), 3, k=8)
        trace = global_filter_l1(g, f, seed_of(0), trace=True)
        filt = LocalFilterL1(g, f, seed_of(0))
        r = filt.schedule.r
        expected = []
        for t in range(2, filt.schedule.rounds + 1):
            tau = filt.schedule.tau(t)
            key = filt.seed.derive("iter", t).hex
            expected += [
                (key, g.canon(x), g.canon(y))
                for x, y, score in _violated_pairs(
                    g, trace[t - 2].get, radius=scan_radius(r, tau),
                    lo=f.lo, hi=f.hi)
                if score > tau
            ]
        ranked = []

        def counting(seed, a, b):
            ranked.append((seed.hex, *sorted((a, b))))
            return edge_rank(seed, a, b)

        monkeypatch.setattr(matching, "edge_rank", counting)
        assert filt.table() == trace[-1]
        assert expected
        assert sorted(ranked) == sorted(expected)
        assert len(set(ranked)) == len(ranked)


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
        with pytest.raises(InvalidParam):
            filt.table(0)
        with pytest.raises(InvalidParam):
            filt.table(99)

    def test_memo_hit_still_checks_the_vertex(self):
        g = Hypercube(3)
        f = TableFunction(g, {x: sum(x) for x in g.vertices()}, 3)
        filt = LocalFilterL1(g, f, seed_of(0))
        filt.value((0, 1, 1))
        for x in [(0.0, 1, 1), (0, True, 1)]:
            with pytest.raises(OutOfDomain):
                filt.value(x)

    def test_round_one_is_input(self):
        g, f = two_path()
        filt = LocalFilterL1(g, f, seed_of(0), slack=1)
        assert filt.value(0, t=1) == 0
        assert filt.value(1, t=1) == 4
