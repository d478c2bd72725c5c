import math
import random
from fractions import Fraction

import pytest

from lipfilter import (
    ExplicitGraph,
    ExprFunction,
    Hypercube,
    Hypergrid,
    Interval,
    LocalFilterL0,
    NotACover,
    OutOfDomain,
    Seed,
    TableFunction,
    global_filter_l0,
    is_c_lipschitz,
    min_violation_cover,
    sample_hard_instance,
    violation_edges,
)
from lipfilter import filter_l0
from helpers import (
    corrupted_lipschitz,
    lipschitz_table,
    random_connected_graph,
    random_table,
    seed_of,
)


def path3(values, r=3):
    g = ExplicitGraph(3, [(0, 1), (1, 2)])
    return g, TableFunction(g, dict(enumerate(values)), r)


class TestGlobal:
    def test_spike_collapses(self):
        g, f = path3([0, 3, 0])
        assert global_filter_l0(g, f, {1}) == {0: 0, 1: 0, 2: 0}

    def test_larger_cover_still_works(self):
        g, f = path3([0, 3, 0])
        assert global_filter_l0(g, f, {0, 1}) == {0: 0, 1: 0, 2: 0}

    def test_not_a_cover(self):
        g, f = path3([0, 3, 0])
        with pytest.raises(NotACover):
            global_filter_l0(g, f, {0})

    def test_empty_maximum_reads_lo(self):
        g = ExplicitGraph(2, [(0, 1)])
        f = TableFunction(g, {0: 0, 1: 4}, 4)
        assert global_filter_l0(g, f, {0, 1}) == {0: 0, 1: 0}
        f = TableFunction(g, {0: 2, 1: 6}, 4, lo=2)
        assert global_filter_l0(g, f, {0, 1}) == {0: 2, 1: 2}

    def test_other_component_ignored(self):
        # vertex 2 is in another component, so it bounds nothing at 1
        g = ExplicitGraph(3, [(0, 1)])
        f = TableFunction(g, {0: 0, 1: 3, 2: 3}, 3)
        assert global_filter_l0(g, f, {1}) == {0: 0, 1: 0, 2: 3}

    def test_undefined_cover_members_stay_undefined(self):
        g, f = path3([0, 3, "?"])
        assert global_filter_l0(g, f, {1, 2}) == {0: 0, 1: 0, 2: None}


class TestLocal:
    def test_frozen_spike_any_seed(self):
        for i in range(10):
            g, f = path3([0, 3, 0])
            filt = LocalFilterL0(g, f, seed_of(i))
            assert filt.table() == {0: 0, 1: 0, 2: 0}

    def test_identity_on_lipschitz(self):
        rng = random.Random(0)
        for trial in range(8):
            g = random_connected_graph(rng, 14, extra=6)
            f = lipschitz_table(g, rng, 4)
            filt = LocalFilterL0(g, f, seed_of(trial))
            for x in g.vertices():
                assert filt.value(x) == f.lookup(x)
                assert filt.match_of(x) is None

    def test_output_lipschitz(self):
        rng = random.Random(1)
        for trial in range(8):
            g = random_connected_graph(rng, 12, extra=5)
            f = random_table(g, rng, 3)
            table = LocalFilterL0(g, f, seed_of(trial)).table()
            out = TableFunction(g, table, f.r)
            assert is_c_lipschitz(g, out, 1)

    def test_blowup_bound(self):
        rng = random.Random(2)
        for trial in range(6):
            g = random_connected_graph(rng, 14, extra=6)
            f = corrupted_lipschitz(g, rng, 4, k=2)
            filt = LocalFilterL0(g, f, seed_of(trial))
            cover = min_violation_cover(g, f)
            changed = {x for x in g.vertices() if filt.value(x) != f.lookup(x)}
            assert changed <= filt.matched_set()
            assert len(filt.matched_set()) <= 2 * len(cover)

    def test_local_equals_global_on_matched_cover(self):
        rng = random.Random(3)
        for trial in range(6):
            g = random_connected_graph(rng, 12, extra=5)
            f = random_table(g, rng, 3)
            filt = LocalFilterL0(g, f, seed_of(trial))
            ref = global_filter_l0(g, f, filt.matched_set())
            assert filt.table() == ref

    def test_matched_set_covers_violations(self):
        rng = random.Random(4)
        g = random_connected_graph(rng, 12, extra=5)
        f = random_table(g, rng, 3)
        matched = LocalFilterL0(g, f, seed_of(0)).matched_set()
        for u, v in violation_edges(g, f):
            assert u in matched or v in matched

    def test_undefined_iff_undefined(self):
        g = Hypergrid(3, 1)
        f = TableFunction(g, {(1,): 0, (2,): 3, (3,): "?"}, 3)
        filt = LocalFilterL0(g, f, seed_of(5))
        got = filt.table()
        assert got[(3,)] is None
        assert got[(1,)] is not None and got[(2,)] is not None

    def test_query_order_and_repeat_stability(self):
        rng = random.Random(6)
        g = random_connected_graph(rng, 10, extra=4)
        f = random_table(g, rng, 3)
        verts = list(g.vertices())
        session = LocalFilterL0(g, f, seed_of(9))
        baseline = {x: session.value(x) for x in verts}
        for _ in range(4):
            rng.shuffle(verts)
            filt = LocalFilterL0(g, f, seed_of(9))
            assert {x: filt.value(x) for x in verts} == baseline

    def test_range_preserved(self):
        rng = random.Random(7)
        for trial in range(5):
            g = random_connected_graph(rng, 10, extra=3)
            f = random_table(g, rng, 3)
            for v in LocalFilterL0(g, f, seed_of(trial)).table().values():
                assert 0 <= v <= 3

    def test_memo_reads_each_vertex_once(self):
        g = Hypercube(6)
        rng = random.Random(8)
        values = {x: "?" if rng.random() < 0.1 else rng.randrange(4) for x in g.vertices()}
        f = TableFunction(g, values, 3)
        filt = LocalFilterL0(g, f, seed_of(2))
        first = filt.table()
        assert f.lookups == g.n_vertices
        assert filt.table() == first
        assert f.lookups == g.n_vertices

    def test_answers_memoized(self, monkeypatch):
        # a matched vertex's first answer walks a ball; its second is read
        g = Hypercube(6)
        rng = random.Random(9)
        f = TableFunction(g, {x: rng.randrange(4) for x in g.vertices()}, 3)
        filt = LocalFilterL0(g, f, seed_of(4))
        x = next(v for v in g.vertices() if filt.match_of(v) is not None)
        first = filt.value(x), filt.match_of(x)
        work = []
        for owner, name in [(g, "ball"), (filt._matcher, "_eval"), (filt._matcher, "_open")]:
            def record(*args, _name=name, _fn=getattr(owner, name), **kwargs):
                work.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, record)
        assert (filt.value(x), filt.match_of(x)) == first
        assert work == []

    def test_memo_hit_still_checks_the_vertex(self):
        g = Hypercube(3)
        f = TableFunction(g, {x: sum(x) for x in g.vertices()}, 3)
        filt = LocalFilterL0(g, f, seed_of(0))
        assert filt.value((0, 1, 1)) == 2
        for x in [(0.0, 1, 1), (0, True, 1)]:
            with pytest.raises(OutOfDomain):
                filt.value(x)


def brute_force_value(filt, g, f, x):
    """g(x) from the definition: a maximum over the closed radius-r ball,
    with matched vertices read from the session's own matching."""
    fx = f.lookup(x)
    if filt.match_of(x) is None:
        return fx
    best = f.lo
    for y in g.vertices():
        d = g.dist(x, y)
        fy = f.lookup(y)
        if d <= f.r and fy is not None and filt.match_of(y) is None:
            best = max(best, fy - d)
    return best


def rational_table(g, rng, r):
    """Values in [0, r] with denominators 1 to 6, about one in eight ?."""
    top = Fraction(r)
    values = {}
    for x in g.vertices():
        den = rng.randint(1, 6)
        values[x] = "?" if rng.random() < 0.125 else Fraction(
            rng.randint(0, int(top * den)), den)
    return TableFunction(g, values, top)


class TestExtension:
    """The matched branch of ``value``: its ball, its stop at hi - d <=
    best and its int comparisons against the definition."""

    def instances(self):
        rng = random.Random(10)
        graphs = [Hypercube(d) for d in range(3, 7)]
        graphs += [Hypergrid(3, 3), random_connected_graph(rng, 30, extra=12)]
        for g in graphs:
            base = rational_table(g, rng, Fraction(9, 2))
            yield g, base
            # lo != 0 and a non-integer r: clipping keeps ?, restricting
            # makes more of them
            yield g, base.clip(Fraction(1, 2), Fraction(10, 3))
            yield g, base.restrict(Interval.of(Fraction(2, 3), Fraction(17, 4)))

    def test_equals_brute_force(self):
        matched_seen = 0
        for i, (g, f) in enumerate(self.instances()):
            filt = LocalFilterL0(g, f, seed_of(100 + i))
            for x in g.vertices():
                assert filt.value(x) == brute_force_value(filt, g, f, x)
            matched_seen += len(filt.matched_set())
        assert matched_seen > 100

    def test_asks_the_matching_only_about_winners(self):
        # one matched query on a cube: the candidates asked about are the
        # ones that beat the running best in (distance, vertex) order
        g = Hypercube(6)
        f = rational_table(g, random.Random(11), 4)
        filt = LocalFilterL0(g, f, seed_of(12))
        for x in g.vertices():
            if filt.match_of(x) is None:
                continue
            # the session asks its matching by id
            asked = []
            matcher = filt._matcher
            session_match_of = matcher.match_of
            matcher.match_of = lambda i: asked.append(g.vertex(i)) or session_match_of(i)
            got = filt.value(x)
            del matcher.match_of
            # value() first asks about x itself, then about each winner
            winners, best = [], f.lo
            for y in sorted(g.vertices(), key=lambda y: (g.dist(x, y), y)):
                fy, d = f.lookup(y), g.dist(x, y)
                if fy is not None and fy - d > best:
                    winners.append(y)
                    if filt.match_of(y) is None:
                        best = fy - d
            if any(y != x and filt.match_of(y) is not None for y in winners):
                break
        else:
            pytest.fail("no query met a matched candidate that beat its best")
        assert asked == [x] + winners
        assert got == best == brute_force_value(filt, g, f, x)
        ball = [y for y in g.vertices() if g.dist(x, y) <= f.r]
        assert len(asked) < len(ball) // 4


class TestReachAndFloor:
    """A restriction to a window wider than f's range: the scans reach only
    as far as f.bounds lets a partner sit, while the extension's floor
    stays the window's low end, below every value."""

    def instances(self):
        cube = Hypercube(6)
        parity = ExprFunction(cube, "2*(sum() - 2*floor(1/2*sum()))", 2)
        yield cube, parity.restrict(Interval.of(-5, 7))
        grid = Hypergrid(4, 2)
        base = rational_table(grid, random.Random(13), 3)
        yield grid, base.restrict(Interval.of(Fraction(-7, 2), 9))

    def test_local_equals_global_and_scans_reach_bounds(self, monkeypatch):
        for i, (g, f) in enumerate(self.instances()):
            assert f.lo < f.bounds.lo and f.bounds.hi < f.hi
            # (radius, walked inside a scan?) for every ball
            walked, scanning = [], []
            ball, scan = g.ball, filter_l0.scan_scored_neighbors

            def recording(x, radius, **kw):
                walked.append((radius, bool(scanning)))
                return ball(x, radius, **kw)

            def scanning_scan(*args, **kw):
                scanning.append(True)
                try:
                    return scan(*args, **kw)
                finally:
                    scanning.pop()

            monkeypatch.setattr(g, "ball", recording)
            monkeypatch.setattr(filter_l0, "scan_scored_neighbors", scanning_scan)
            filt = LocalFilterL0(g, f, seed_of(200 + i))
            got = filt.table()
            monkeypatch.undo()
            assert got == global_filter_l0(g, f, filt.matched_set())
            assert len(filt.matched_set()) > 4
            # answers below bounds.lo: a floor at bounds.lo would differ
            assert min(v for v in got.values() if v is not None) < f.bounds.lo
            # scans walk ceil(max(hi - f(x), f(x) - lo)) - 1 with [lo, hi]
            # the bounds: radius 1 on parity, whose bounds are [0, 2]
            reach = math.ceil(f.bounds.width) - 1
            scans = [radius for radius, in_scan in walked if in_scan]
            assert scans and max(scans) <= reach
            if i == 0:
                assert set(scans) == {1}
            # each extension walks ceil(bounds.hi - lo) - 1, from the floor
            extensions = [radius for radius, in_scan in walked if not in_scan]
            assert set(extensions) == {math.ceil(f.bounds.hi - f.lo) - 1}


class TestAnchorCost:
    """Pinned cost of l0 queries where the filter has to work: the 16
    planted anchors of a b = 1 instance at r = 4, each matched and
    re-extended in a fresh session.  The lookups are exact for the seed.
    They averaged 10,034.5 a query before the extension skipped the
    candidates that cannot win, 1,528.8 after, and 745.7 once each scan
    walked only as far as a violation of its centre can reach."""

    LOOKUPS = [866, 866, 591, 866, 536, 866, 536, 866,
               536, 866, 536, 866, 536, 866, 866, 866]
    VALUES = [2, 0, 2, 0, 2, 1, 2, 0, 2, 0, 2, 0, 2, 0, 2, 1]

    def test_d14_anchor_lookups(self):
        g = Hypercube(14)
        seed = Seed(b"\x01" * 32)
        inst = sample_hard_instance(g, 4, 1, seed, m=8)
        f = inst.to_oracle()
        counts, values = [], []
        for k, x in enumerate(v for pair in inst.pairs for v in pair):
            f.reset_lookups()
            values.append(LocalFilterL0(g, f, seed.derive("session", k)).value(x))
            counts.append(f.lookups)
        assert counts == self.LOOKUPS
        assert values == self.VALUES
        assert {type(v) for v in values} == {Fraction}
