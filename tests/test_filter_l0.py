import random
from fractions import Fraction

import pytest

from lipfilter import (
    ExplicitGraph,
    Hypercube,
    Hypergrid,
    LocalFilterL0,
    NotACover,
    OutOfDomain,
    TableFunction,
    global_filter_l0,
    is_c_lipschitz,
    min_violation_cover,
    violation_edges,
)
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
        assert global_filter_l0(g, f, {0, 1}, lo=2) == {0: 2, 1: 2}

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

    def test_memo_hit_still_checks_the_vertex(self):
        g = Hypercube(3)
        f = TableFunction(g, {x: sum(x) for x in g.vertices()}, 3)
        filt = LocalFilterL0(g, f, seed_of(0))
        assert filt.value((0, 1, 1)) == 2
        for x in [(0.0, 1, 1), (0, True, 1)]:
            with pytest.raises(OutOfDomain):
                filt.value(x)
