import random
import threading

import pytest

from lipfilter import matching
from lipfilter import (
    BudgetExceeded,
    Hypercube,
    InvalidParam,
    MatchingLCA,
    Seed,
    edge_rank,
    greedy_maximal_matching,
)
from helpers import random_connected_graph, seed_of


class TestSeed:
    def test_hex_round_trip(self):
        s = Seed.from_int(12345)
        assert Seed.from_hex(s.hex) == s
        assert len(s.hex) == 64

    def test_bad_inputs(self):
        with pytest.raises(InvalidParam):
            Seed(b"short")
        with pytest.raises(InvalidParam):
            Seed.from_hex("zz")

    def test_repr_and_hash(self):
        s = Seed.from_int(12345)
        assert repr(s) == f"Seed({s.hex[:16]}...)"
        assert len({s, Seed.from_hex(s.hex), s.derive("a")}) == 2

    def test_derive_is_separated(self):
        s = seed_of(7)
        assert s.derive("round", 1) == s.derive("round", 1)
        assert s.derive("round", 1) != s.derive("round", 2)
        assert s.derive("round", 1) != s.derive("rep", 1)
        assert s.derive("a", -1) != s.derive("a", 1)

    def test_rank_deterministic(self):
        s = seed_of(3)
        assert s.rank(b"edge") == s.rank(b"edge")
        assert s.rank(b"edge") != s.rank(b"other")

    def test_edge_rank_symmetric(self):
        s = seed_of(11)
        assert edge_rank(s, "03", "07") == edge_rank(s, "07", "03")


def check_matching(graph, partner):
    # symmetry + edges of the graph only
    for u, v in partner.items():
        assert partner[v] == u
        assert v in graph.neighbors(u)


def check_maximal(graph, partner):
    for u, v in graph.edges():
        assert u in partner or v in partner


class TestMatchingLCA:
    def lca(self, graph, seed, **kw):
        return MatchingLCA(graph.neighbors, seed, encode=graph.canon, **kw)

    def test_matches_global_greedy(self):
        rng = random.Random(0)
        for trial in range(20):
            g = random_connected_graph(rng, 4 + rng.randrange(12), extra=rng.randrange(8))
            seed = seed_of(trial)
            ref = greedy_maximal_matching(g.edges(), seed, encode=g.canon)
            lca = self.lca(g, seed)
            for x in g.vertices():
                assert lca.match_of(x) == ref.get(x)

    def test_valid_and_maximal(self):
        rng = random.Random(1)
        for trial in range(10):
            g = random_connected_graph(rng, 10, extra=5)
            lca = self.lca(g, seed_of(100 + trial))
            partner = {}
            for x in g.vertices():
                m = lca.match_of(x)
                if m is not None:
                    partner[x] = m
            check_matching(g, partner)
            check_maximal(g, partner)

    def test_query_order_irrelevant(self):
        rng = random.Random(2)
        g = random_connected_graph(rng, 12, extra=6)
        seed = seed_of(42)

        def partners(order):
            lca = self.lca(g, seed)
            return {x: lca.match_of(x) for x in order}

        baseline = partners(g.vertices())
        for _ in range(5):
            order = list(g.vertices())
            rng.shuffle(order)
            assert partners(order) == baseline

    def test_budget(self):
        rng = random.Random(4)
        g = random_connected_graph(rng, 40, extra=30)
        lca = self.lca(g, seed_of(5), budget=2)
        with pytest.raises(BudgetExceeded):
            for x in g.vertices():
                lca.match_of(x)
        # a roomy budget answers everything
        roomy = self.lca(g, seed_of(5), budget=10_000)
        assert any(roomy.match_of(x) is not None for x in g.vertices())

    def test_budget_error_names_edge_canon(self):
        g = Hypercube(4)
        a, b = (0, 1, 1, 0), (0, 1, 1, 1)
        lca = MatchingLCA({a: [b], b: [a]}.get, seed_of(5), encode=g.canon, budget=0)
        with pytest.raises(BudgetExceeded, match=r"edges at \(0110, 0111\)$"):
            lca.match_of(b)

    def test_memoized_answers_do_not_recharge_budget(self):
        rng = random.Random(5)
        g = random_connected_graph(rng, 8, extra=3)
        lca = self.lca(g, seed_of(6), budget=10_000)
        first = [lca.match_of(x) for x in g.vertices()]
        # all verdicts cached now; a tiny budget must still succeed
        lca._budget = 1
        second = [lca.match_of(x) for x in g.vertices()]
        assert first == second

    def test_partner_memoized_only_when_found(self, monkeypatch):
        g = random_connected_graph(random.Random(5), 40, extra=30)
        ref = greedy_maximal_matching(g.edges(), seed_of(5), encode=g.canon)
        lca = self.lca(g, seed_of(5), budget=2)
        x = next(v for v in g.vertices() if v in ref)
        with pytest.raises(BudgetExceeded):
            for v in g.vertices():
                lca.match_of(v)
        # a query cut short left no partner: with room, every answer is right
        lca._budget = 10_000
        assert [lca.match_of(v) for v in g.vertices()] == [ref.get(v) for v in g.vertices()]
        # a second query is a memo hit: no verdict is looked at again
        looked = []
        monkeypatch.setattr(lca, "_eval", lambda *a: looked.append(a))
        assert lca.match_of(x) == ref[x] and looked == []

    # (graph, seed, smallest budget that answers every vertex in order)
    BOUNDARIES = [
        ("random 40", lambda: random_connected_graph(random.Random(4), 40, extra=30), 4, 10),
        ("random 60", lambda: random_connected_graph(random.Random(6), 60, extra=120), 6, 23),
        ("Hypercube(6)", lambda: Hypercube(6), 9, 13),
    ]

    @pytest.mark.parametrize("name,build,seed,budget", BOUNDARIES,
                             ids=[b[0] for b in BOUNDARIES])
    def test_budget_boundary(self, name, build, seed, budget):
        g = build()
        lca = self.lca(g, seed_of(seed), budget=budget)
        for x in g.vertices():
            lca.match_of(x)
        tight = self.lca(g, seed_of(seed), budget=budget - 1)
        with pytest.raises(BudgetExceeded):
            for x in g.vertices():
                tight.match_of(x)

    def test_neighbor_oracle_read_once_per_vertex(self):
        # LocalFilterL1's point queries scan inside the neighbor oracle
        # with no scan cache, which costs one scan per vertex only
        # because no vertex is read twice
        g = random_connected_graph(random.Random(10), 50, extra=60)
        calls = []

        def nbrs(x):
            calls.append(x)
            return g.neighbors(x)

        lca = MatchingLCA(nbrs, seed_of(10), encode=g.canon)
        for x in g.vertices():
            lca.match_of(x)
        assert sorted(calls) == sorted(set(calls))
        assert set(calls) == set(g.vertices())

    def test_each_edge_ranked_once(self, monkeypatch):
        g = Hypercube(5)
        ranked = []

        def counting_rank(seed, a, b):
            ranked.append(tuple(sorted((a, b))))
            return edge_rank(seed, a, b)

        monkeypatch.setattr(matching, "edge_rank", counting_rank)
        lca = self.lca(g, seed_of(11))
        for x in g.vertices():
            lca.match_of(x)
        assert len(ranked) == len(set(ranked)) == len(list(g.edges()))

    def test_thread_safety(self):
        rng = random.Random(6)
        g = random_connected_graph(rng, 30, extra=20)
        seed = seed_of(77)
        ref = greedy_maximal_matching(g.edges(), seed, encode=g.canon)
        lca = self.lca(g, seed)
        errors = []

        def worker(offset):
            try:
                verts = list(g.vertices())
                for x in verts[offset::4]:
                    assert lca.match_of(x) == ref.get(x)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_isolated_vertex(self):
        g = random_connected_graph(random.Random(7), 5)
        lca = MatchingLCA(lambda x: (), seed_of(1), encode=str)
        assert lca.match_of(3) is None
