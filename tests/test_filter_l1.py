import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lipfilter import filter_l1, matching
from lipfilter.seeds import edge_rank
from lipfilter import (
    ExplicitGraph,
    ExprFunction,
    FilterMechanism,
    Hypercube,
    Hypergrid,
    InvalidParam,
    LocalFilterL1,
    OutOfDomain,
    PartialFunction,
    Seed,
    TableFunction,
    global_filter_l1,
    is_c_lipschitz,
    make_schedule,
    max_violation_score,
)
from helpers import (
    corrupted_lipschitz,
    lipschitz_table,
    random_connected_graph,
    random_table,
    seed_of,
    violated_pairs_of,
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

    @pytest.mark.parametrize("r, slack", [(4, True), (True, 1), (False, 1), (4, False)])
    def test_bools_rejected(self, r, slack):
        # Fraction(True) is 1: slack True ran 5 rounds at r = 4, and r True
        # ran as r = 1
        with pytest.raises(InvalidParam, match="not a rational number"):
            make_schedule(r, slack)

    def test_filter_rejects_bool_slack(self):
        g, f = two_path()
        with pytest.raises(InvalidParam, match="not a rational number"):
            LocalFilterL1(g, f, seed_of(0), slack=True)
        # the same slack as a number is fine
        assert LocalFilterL1(g, f, seed_of(0), slack=1).schedule.rounds == 5


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
        assert LocalFilterL1(g, f, seed_of(0), slack=1).value(0) == Fraction(4, 3)


def scan_radii(filt):
    """{t: the farthest a tau_t-violated partner can sit}: ceil(r - tau_t)
    - 1, floored at 0.  A round at 0 has no violated pair."""
    return {t: max(0, math.ceil(filt.schedule.r - filt.schedule.tau(t)) - 1)
            for t in range(2, filt.schedule.rounds + 1)}


def carried_moves(filt, trace):
    """Values of a global trace that moved in rounds 2..T - 1: the rescans
    table() makes in place before the next round."""
    return sum(
        trace[s - 1][x] != trace[s - 2][x]
        for s in range(2, filt.schedule.rounds)
        for x in trace[s - 1]
    )


def clipped_cone(cube, rng, lo=Fraction(-1, 2), r=3, k=8):
    """lo plus the distance from a random anchor, less 1, clipped to [0, r],
    with k of the values at the top, lo + r, slammed to lo."""
    anchor = tuple(rng.randrange(2) for _ in range(cube.d))
    values = {x: lo + min(max(cube.dist(x, anchor) - 1, 0), r)
              for x in cube.vertices()}
    for x in rng.sample([x for x, v in values.items() if v == lo + r], k):
        values[x] = lo
    return TableFunction(cube, values, r, lo=lo)


class TestScanCarry:
    """table() scans every vertex once, at the final round's threshold,
    and rescans after each round s < T every value that moved in round s,
    once, against the round-s table.  Each round reads its edges from
    those scans: the pairs scoring above tau_s whose ends have not moved
    since they were found.  At r = 3 a tau_t-violated partner sits within
    0, 1 and 2 in rounds 2, 3 and 4, and within 2 later; at r = 2 within 0
    in round 2 and 1 later.  A scan at a threshold with r - tau <= 1
    walks no ball, since no round can have a violated pair there."""

    CUBE = Hypercube(8)

    def instances(self):
        for i in range(3):
            rng = random.Random(100 + i)
            yield corrupted_lipschitz(self.CUBE, rng, 3, k=8), seed_of(i)
            yield random_table(self.CUBE, rng, 2), seed_of(i)

    def graph_instances(self):
        """The cube instances, plus a grid and an explicit graph, whose balls
        come from the breadth-first search, plus a cube whose values mostly
        sit at the top of a range that starts below 0, where the upward
        first-pass scans walk nothing."""
        for f, seed in self.instances():
            yield self.CUBE, f, seed
        grid = Hypergrid(4, 3)
        yield grid, random_table(grid, random.Random(200), 3), seed_of(3)
        rng = random.Random(201)
        g = random_connected_graph(rng, 40, extra=20)
        yield g, random_table(g, rng, 3), seed_of(4)
        yield self.CUBE, clipped_cone(self.CUBE, random.Random(202)), seed_of(5)

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

    def record_taus(self, monkeypatch):
        taus = []
        scan = filter_l1.scan_scored_neighbors

        def recording(*args, tau, **kwargs):
            taus.append(tau)
            return scan(*args, tau=tau, **kwargs)

        monkeypatch.setattr(filter_l1, "scan_scored_neighbors", recording)
        return taus

    def record_walks(self, monkeypatch):
        """Patch the scans of ``filter_l1`` and the cube's balls; returns
        the list of scanned taus and the list of the taus of the scans
        that walked a ball, one entry per ball.  A point query's scan
        reads values that may scan lower rounds first, so a ball belongs
        to the innermost scan open when it is walked."""
        scanned, walked, open_taus = [], [], []
        scan = filter_l1.scan_scored_neighbors
        ball = self.CUBE.ball

        def recording(*args, tau, **kwargs):
            scanned.append(tau)
            open_taus.append(tau)
            try:
                return scan(*args, tau=tau, **kwargs)
            finally:
                open_taus.pop()

        def walking(*args, **kwargs):
            walked.append(open_taus[-1])
            return ball(*args, **kwargs)

        monkeypatch.setattr(filter_l1, "scan_scored_neighbors", recording)
        monkeypatch.setattr(self.CUBE, "ball", walking)
        return scanned, walked

    def test_radius_zero_round_walks_no_ball(self, monkeypatch):
        """Round 2 at r = 2 has r - tau_2 = 2/3 <= 1: neither table() nor
        a point query walks a ball at its threshold."""
        f = random_table(self.CUBE, random.Random(7), 2)
        want = global_filter_l1(self.CUBE, f, seed_of(0))
        scanned, walked = self.record_walks(monkeypatch)
        filt = LocalFilterL1(self.CUBE, f, seed_of(0))
        tau2 = filt.schedule.tau(2)
        assert scan_radii(filt)[2] == 0
        table = filt.table()
        assert table == want
        assert walked and tau2 not in walked
        # the first vertex sits at 1, mid-range, and walks no ball at any
        # tau > 0, so the query is at a vertex off the middle
        x = next(x for x in self.CUBE.vertices() if f.lookup(x) != 1)
        scanned.clear()
        walked.clear()
        assert LocalFilterL1(self.CUBE, f, seed_of(0)).value(x) == table[x]
        assert tau2 in scanned
        assert len(set(walked)) > 2 and tau2 not in walked

    def test_final_radius_zero_walks_no_ball(self, monkeypatch):
        f = random_table(self.CUBE, random.Random(7), 2)
        slack = Fraction(4, 3)
        want = global_filter_l1(self.CUBE, f, seed_of(0), slack=slack)
        scanned, walked = self.record_walks(monkeypatch)
        filt = LocalFilterL1(self.CUBE, f, seed_of(0), slack=slack)
        assert scan_radii(filt) == {2: 0}
        assert filt.table() == want
        assert walked == []

    def test_scans_only_at_final_radius(self, monkeypatch):
        """At r = 3 a partner sits within 0, 1 and 2 in rounds 2, 3 and 4;
        table() scans at the last round's threshold only."""
        taus = self.record_taus(monkeypatch)
        f = corrupted_lipschitz(self.CUBE, random.Random(100), 3, k=8)
        filt = LocalFilterL1(self.CUBE, f, seed_of(0))
        assert set(scan_radii(filt).values()) == {0, 1, 2}
        assert filt.table() == global_filter_l1(self.CUBE, f, seed_of(0))
        assert taus and set(taus) == {filt.schedule.final_threshold}

    def test_each_round_matches_its_violated_pairs_once(self, monkeypatch):
        """Each round hands the matching the tau_s-violated pairs of the
        round s - 1 table, each pair once."""
        handed = []
        match = filter_l1.greedy_maximal_matching

        def recording(edges, seed, **kwargs):
            handed.append([(x, y) if x < y else (y, x) for x, y in edges])
            return match(edges, seed, **kwargs)

        monkeypatch.setattr(filter_l1, "greedy_maximal_matching", recording)
        for g, f, seed in self.graph_instances():
            trace = global_filter_l1(g, f, seed, trace=True)
            filt = LocalFilterL1(g, f, seed)
            handed.clear()
            assert filt.table() == trace[-1]
            schedule = filt.schedule
            assert len(handed) == schedule.rounds - 1
            for s, pairs in enumerate(handed, start=2):
                expected = {(g.index(x), g.index(y)) for x, y, _ in violated_pairs_of(
                    g, trace[s - 2].get, tau=schedule.tau(s), bounds=f.bounds)}
                assert len(set(pairs)) == len(pairs), (g, s)
                assert set(pairs) == expected, (g, s)

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
        expected = []
        for t in range(2, filt.schedule.rounds + 1):
            key = filt.seed.derive("iter", t).hex
            expected += [
                (key, g.canon(x), g.canon(y))
                for x, y, _ in violated_pairs_of(
                    g, trace[t - 2].get, tau=filt.schedule.tau(t),
                    bounds=f.bounds)
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


def entry_rounds(g, filt, trace, x, y):
    """The rounds table() files the pair (x, y) under, in order: from its
    first-pass score, then after each round s < T that moves x or y, from
    its score against round s's table, from round s + 1 on.  A score the
    final threshold does not exceed leaves the pair unfiled and reads
    None.  Scores are compared with each tau as Fractions."""
    schedule = filt.schedule

    def entry(table, start):
        score = abs(table[x] - table[y]) - g.dist(x, y)
        if score <= schedule.final_threshold:
            return None
        return next(s for s in range(start, schedule.rounds + 1)
                    if score > schedule.tau(s))

    out = [entry(trace[0], 2)]
    for s in range(2, schedule.rounds):
        if any(trace[s - 1][v] != trace[s - 2][v] for v in (x, y)):
            out.append(entry(trace[s - 1], s + 1))
    return out


class TestFiling:
    """table() files each pair under the first round whose tau its score
    exceeds, strictly, and a rescan after round s files from round s + 1;
    a round matches the pairs filed by then whose ends have not moved
    since."""

    def test_score_equal_to_tau_enters_next_round(self):
        # 0 and 3 one edge apart at r = 3 score 2 = tau_2, so the pair
        # enters at round 3 and round 2 moves nothing
        g = Hypercube(1)
        f = TableFunction(g, {(0,): Fraction(0), (1,): Fraction(3)}, 3)
        trace = global_filter_l1(g, f, seed_of(0), trace=True)
        filt = LocalFilterL1(g, f, seed_of(0))
        assert filt.schedule.tau(2) == 2
        assert entry_rounds(g, filt, trace, (0,), (1,))[0] == 3
        assert trace[1] == trace[0] != trace[2]
        for t in range(1, filt.schedule.rounds + 1):
            assert filt.table(t) == trace[t - 1], t

    def test_pair_dropped_then_refiled_at_another_round(self):
        # the first pass files the pair at round 4 and the rescans at 7 and
        # 11; then a rescan leaves it unfiled and a later one files it
        # again, at round 12
        g = Hypercube(3)
        f = random_table(g, random.Random(30), 3)
        trace = global_filter_l1(g, f, seed_of(0), trace=True)
        filt = LocalFilterL1(g, f, seed_of(0))
        x, y = (1, 0, 0), (1, 0, 1)
        assert entry_rounds(g, filt, trace, x, y)[:5] == [4, 7, 11, None, 12]
        for t in range(1, filt.schedule.rounds + 1):
            assert filt.table(t) == trace[t - 1], t


@st.composite
def l1_instances(draw):
    """(graph, f, slack): a cube with d <= 5, a grid with n <= 4 and d <= 3,
    or a random connected graph of at most 30 vertices; lo in [-3, 3) and
    r > 0 with a denominator of 1, 2 or 3, and values on lo + (1/den)Z."""
    kind = draw(st.sampled_from(["cube", "grid", "explicit"]))
    if kind == "cube":
        g = Hypercube(draw(st.integers(1, 5)))
    elif kind == "grid":
        g = Hypergrid(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        g = random_connected_graph(rng, draw(st.integers(1, 30)),
                                   extra=draw(st.integers(0, 10)))
    den = draw(st.sampled_from([1, 2, 3]))
    steps = draw(st.integers(1, 4 * den))
    r = Fraction(steps, den)
    lo = Fraction(draw(st.integers(-3 * den, 3 * den - 1)), den)
    values = draw(st.lists(st.integers(0, steps), min_size=g.n_vertices,
                           max_size=g.n_vertices))
    f = TableFunction(g, {x: lo + Fraction(j, den) for x, j in zip(g.vertices(), values)},
                      r, lo=lo)
    slack = draw(st.sampled_from([Fraction(1, 100), Fraction(1, 3), Fraction(1)]))
    return g, f, slack


class TestRoundsProperty:
    """Every round of table() equals the global reference's round."""

    @settings(max_examples=400, deadline=None)
    @given(l1_instances(), st.integers(0, 2 ** 16))
    def test_every_round_equals_global_trace(self, instance, i):
        g, f, slack = instance
        trace = global_filter_l1(g, f, seed_of(i), slack=slack, trace=True)
        filt = LocalFilterL1(g, f, seed_of(i), slack=slack)
        assert filt.schedule.rounds == len(trace)
        for t in range(1, filt.schedule.rounds + 1):
            assert filt.table(t) == trace[t - 1], t


class TestPointQueryCost:
    """Five noise-free ``FilterMechanism`` answers on a 12-cube, pinned.

    Each round's scan asks for the pairs scoring above its tau_t and walks
    ceil(max(hi - f(x), f(x) - lo) - tau_t) - 1.  When the scans walked
    the wider ceil(r - tau_t) - 1 (capped by the tau-free reach) and the
    filter dropped the scores at or below tau_t itself, the same answers
    took 3,627 balls of 47,811 vertices and read 13,102 values."""

    ANSWERS = [Fraction(2, 3), Fraction(2, 3), Fraction(2, 3), Fraction(4, 9),
               Fraction(7, 3)]

    def test_answers_and_work(self, monkeypatch):
        g = Hypercube(12)
        f = ExprFunction(g, "3*(sum() - 2*floor(1/2*sum()))", 3)
        balls = []
        ball = g.ball

        def counting(x, radius, **kw):
            out = ball(x, radius, **kw)
            balls.append(len(out))
            return out

        monkeypatch.setattr(g, "ball", counting)
        rng = random.Random(5)
        answers = []
        for i in range(5):
            x = tuple(rng.randrange(2) for _ in range(12))
            answers.append(FilterMechanism(g, f, 1, Seed.from_int(i)).answer(x))
        assert answers == self.ANSWERS
        assert (len(balls), sum(balls), f.lookups) == (1510, 19828, 6519)


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

    @pytest.mark.parametrize("t", [2.5, 2.0, True], ids=repr)
    def test_round_must_be_an_int(self, t):
        # a float used to raise KeyError or AttributeError, and True to read round 1
        g, f = two_path()
        filt = LocalFilterL1(g, f, seed_of(0), slack=1)
        for call in (lambda: filt.value(0, t), lambda: filt.table(t),
                     lambda: filt.schedule.tau(t)):
            with pytest.raises(InvalidParam, match="round t must be an int"):
                call()

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
