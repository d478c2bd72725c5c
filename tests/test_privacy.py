import dataclasses
import math
import random
from fractions import Fraction

import pytest

from lipfilter import (
    BinarySearchMechanism,
    CallableFunction,
    ExprFunction,
    FilterMechanism,
    Hypercube,
    Hypergrid,
    InvalidParam,
    MechanismResult,
    NoiseSource,
    PartialFunction,
    TableFunction,
)
from helpers import lipschitz_table, seed_of


class TestNoiseSource:
    def test_deterministic(self):
        a = NoiseSource(seed_of(1))
        b = NoiseSource(seed_of(1))
        assert [a.laplace(2) for _ in range(10)] == [b.laplace(2) for _ in range(10)]

    def test_seeds_differ(self):
        a = NoiseSource(seed_of(1))
        b = NoiseSource(seed_of(2))
        assert [a.laplace(2) for _ in range(5)] != [b.laplace(2) for _ in range(5)]

    def test_no_seed_draws_a_random_one(self):
        a, b = NoiseSource(), NoiseSource()
        assert [a.laplace(2) for _ in range(5)] != [b.laplace(2) for _ in range(5)]

    def test_scale_and_symmetry(self):
        src = NoiseSource(seed_of(3))
        draws = [src.laplace(2) for _ in range(20000)]
        mean_abs = sum(abs(v) for v in draws) / len(draws)
        assert abs(mean_abs - 2.0) < 0.1  # E|X| = scale
        frac_pos = sum(v > 0 for v in draws) / len(draws)
        assert abs(frac_pos - 0.5) < 0.02

    def test_distribution_shape(self):
        stats = pytest.importorskip("scipy.stats")
        src = NoiseSource(seed_of(4))
        draws = [src.laplace(1) for _ in range(20000)]
        ks = stats.kstest(draws, stats.laplace(scale=1).cdf)
        assert ks.statistic < 0.02


def line_function(n, r):
    g = Hypergrid(n, 1)
    return g, TableFunction(g, {(i,): min(i - 1, r) for i in range(1, n + 1)}, r)


def out_of_range_line():
    """f(i) = 4i - 10 on a 6-path claiming [1, 7], and its clip as a table.

    The values leave the range on both sides.
    """
    g = Hypergrid(6, 1)
    f = CallableFunction(g, lambda x: Fraction(4 * x[0] - 10), 6, lo=1)
    clipped = TableFunction(
        g, {(i,): min(max(4 * i - 10, 1), 7) for i in range(1, 7)}, 6, lo=1)
    return g, f, clipped


class TestFilterMechanism:
    def test_eps_validated(self):
        g, f = line_function(5, 4)
        with pytest.raises(InvalidParam):
            FilterMechanism(g, f, 0, seed_of(0))

    def test_exact_when_noise_none(self):
        g, f = line_function(5, 4)
        mech = FilterMechanism(g, f, 1, seed_of(0))
        # f is Lipschitz: the slack-1 filter passes it through
        for i in range(1, 6):
            assert mech.answer((i,)) == f.lookup((i,))

    def test_out_of_range_values_clamped(self):
        g, f, clipped = out_of_range_line()
        mech = FilterMechanism(g, f, 1, seed_of(1))
        ref = FilterMechanism(g, clipped, 1, seed_of(1))
        answers = [mech.answer(x) for x in g.vertices()]
        assert answers == [ref.answer(x) for x in g.vertices()]
        assert answers != [clipped.lookup(x) for x in g.vertices()]  # moved some

    def test_noise_added(self):
        g, f = line_function(5, 4)
        mech = FilterMechanism(g, f, 1, seed_of(2))
        noisy = mech.answer((3,), NoiseSource(seed_of(3)))
        assert noisy != f.lookup((3,))
        assert mech.scale == 2

    def test_indistinguishable_on_adjacent_queries(self):
        # empirical eps check: histograms at adjacent points x, x'
        g, f = line_function(6, 5)
        eps = 1.0
        mech = FilterMechanism(g, f, 1, seed_of(4))
        gx = float(mech.answer((3,)))
        gy = float(mech.answer((4,)))
        src = NoiseSource(seed_of(5))
        n = 40000
        a = [gx + src.laplace(2) for _ in range(n)]
        b = [gy + src.laplace(2) for _ in range(n)]
        bins = [(-4 + i, -3 + i) for i in range(12)]
        for lo, hi in bins:
            ca = sum(lo <= v < hi for v in a) / n
            cb = sum(lo <= v < hi for v in b) / n
            if min(ca, cb) < 0.01:
                continue  # too few samples for a stable ratio
            assert max(ca, cb) / min(ca, cb) < math.exp(eps) * 1.25


class TestBinarySearchMechanism:
    def test_validation(self):
        g, f = line_function(6, 5)
        with pytest.raises(InvalidParam):
            BinarySearchMechanism(g, f, 0, seed_of(0))
        g2 = Hypergrid(2, 1)
        f2 = TableFunction(g2, {(1,): 0, (2,): 1}, 1)
        with pytest.raises(InvalidParam):
            BinarySearchMechanism(g2, f2, 1, seed_of(0))  # range below 2

    def test_range_clamped_to_diameter(self):
        g = Hypercube(8)
        f = TableFunction(g, {x: 0 for x in g.vertices()}, 10**6)
        mech = BinarySearchMechanism(g, f, 1, seed_of(0))
        assert mech.r == 16  # 2 * diameter = 2 * 8
        assert list(mech._probes()) == [2, 3, 4]

    def test_alpha_frozen(self):
        g = Hypercube(8)
        f = TableFunction(g, {x: 0 for x in g.vertices()}, 16)
        mech = BinarySearchMechanism(g, f, 1, seed_of(0))
        assert mech.kappa == 4
        assert float(mech.alpha) == pytest.approx(4 * math.log2(800))
        assert float(mech.noise_scale) == pytest.approx(4.0)

    def test_out_of_range_values_clamped(self):
        g, f, clipped = out_of_range_line()
        mech = BinarySearchMechanism(g, f, 1, seed_of(6))
        ref = BinarySearchMechanism(g, clipped, 1, seed_of(6))
        for x in g.vertices():
            assert mech.answer(x).value == ref.answer(x).value

    def test_anchored_window_stays_in_range(self):
        # c + sum() leaves [0, 20] at one end; the anchor f(0000) = c, read
        # clipped, sits within D = 4 of that end, so the window [L, L + 8]
        # is moved inside [0, 20] and the answers are clipped to it
        g = Hypercube(4)
        for c, lo in [(18, 12), (-2, 0)]:
            f = CallableFunction(g, lambda x: Fraction(c + sum(x)), 20)
            mech = BinarySearchMechanism(g, f, 1, seed_of(6))
            assert (mech.lo, mech.r) == (lo, 8)
            for x in g.vertices():
                assert mech.answer(x).value == min(max(c + sum(x), 0), 20)

    def test_noise_free_returns_exact_value(self):
        rng = random.Random(0)
        g = Hypercube(8)
        f = lipschitz_table(g, rng, 8)
        mech = BinarySearchMechanism(g, f, 1, seed_of(1))
        cap = max(1, math.ceil(mech.kappa) - 1)
        for x in [tuple(rng.randrange(2) for _ in range(8)) for _ in range(6)]:
            res = mech.answer(x)
            assert res.value == f.lookup(x)
            assert res.iterations <= cap

    def test_answer_releases_value_and_probe_count_only(self):
        # Work counts and timing lie outside eps, so the record carries
        # none; the probe count is a function of the readings alone.
        assert [f.name for f in dataclasses.fields(MechanismResult)] == [
            "value", "iterations"]
        g = Hypercube(8)
        iterations = set()
        for k in range(9):
            f = ExprFunction(g, "sum()", 8)
            mech = BinarySearchMechanism(g, f, 1, seed_of(2))
            res = mech.answer((1,) * k + (0,) * (8 - k))
            assert res.value == k
            iterations.add(res.iterations)
        assert len(iterations) == 1

    def test_lookups_do_not_reveal_the_value(self):
        # Scans stop where f(x) can no longer be violated: without the
        # table read, the first answer read 93 values at f(x) = 4 and 255
        # at f(x) = 0 or 8.  With it, the first answer reads the whole
        # table for every f(x), and a repeat reads nothing.
        g = Hypercube(8)
        lookups = set()
        for k in range(9):
            f = ExprFunction(g, "sum()", 8)
            mech = BinarySearchMechanism(g, f, 1, seed_of(2))
            x = (1,) * k + (0,) * (8 - k)
            before = f.lookups
            first = mech.answer(x)
            middle = f.lookups
            again = mech.answer(x)
            assert first.value == again.value == k
            lookups.add((middle - before, f.lookups - middle))
        assert lookups == {(256, 0)}

    def test_undefined_point_raises(self):
        g = Hypercube(4)
        f = TableFunction(g, {x: None if x == (0,) * 4 else 2
                              for x in g.vertices()}, 4)
        mech = BinarySearchMechanism(g, f, 1, seed_of(0))
        with pytest.raises(PartialFunction, match=r"f\(0000\) = \?"):
            mech.answer((0,) * 4)
        assert mech.answer((0, 0, 0, 1)).value == 2

    def test_undefined_anchor_raises(self):
        # the window is narrower than r, so it is anchored at f(0000)
        g = Hypercube(4)
        f = TableFunction(g, {x: None if x == (0,) * 4 else 12
                              for x in g.vertices()}, 20)
        with pytest.raises(PartialFunction, match=r"f\(0000\) = \?"):
            BinarySearchMechanism(g, f, 1, seed_of(0))

    @pytest.mark.parametrize("graph, expr, r", [
        (Hypercube(10), "sum() + 37", 80),
        (Hypergrid(6, 3), "x1 + x2 + x3 + 40", 90),
    ], ids=["cube", "grid"])
    def test_offset_clients_answered(self, graph, expr, r):
        # Every value sits far above lo, so a window [lo, lo + 2D] would
        # miss them all; the one anchored at f's first vertex covers them.
        f = ExprFunction(graph, expr, r)
        mech = BinarySearchMechanism(graph, f, 10, seed_of(7))
        rng = random.Random(7)
        points = [tuple(rng.randrange(graph.base, graph.base + graph.n)
                        for _ in range(graph.d)) for _ in range(10)]
        for x in points:
            assert mech.answer(x).value == f.lookup(x)
        noise = NoiseSource(seed_of(8))
        hits = sum(
            abs(float(mech.answer(x, noise).value) - float(f.lookup(x)))
            <= float(mech.alpha)
            for x in points * 5
        )
        assert hits >= 48

    def test_noisy_answers_near_truth(self):
        rng = random.Random(2)
        g = Hypercube(8)
        f = lipschitz_table(g, rng, 8)
        mech = BinarySearchMechanism(g, f, 1, seed_of(3))
        noise = NoiseSource(seed_of(4))
        x = (1, 0) * 4
        hits = sum(
            abs(float(mech.answer(x, noise).value) - float(f.lookup(x)))
            <= float(mech.alpha)
            for _ in range(50)
        )
        assert hits >= 48

    def test_sessions_cached(self):
        rng = random.Random(3)
        g = Hypercube(6)
        f = lipschitz_table(g, rng, 6)
        mech = BinarySearchMechanism(g, f, 1, seed_of(5))
        for x in [(0,) * 6, (1,) * 6]:
            first = mech.answer(x)
            sessions = dict(mech._sessions)
            lookups = f.lookups
            assert mech.answer(x) == first
            # a repeat reuses every session and reads no value
            assert mech._sessions == sessions
            assert f.lookups == lookups


def adversarial_clients(count=60):
    """Seeded (graph, f, k) triples: random values in quarter steps on
    small cubes and grids, a third of them leaving [0, r] on both sides.

    Each f is a CallableFunction, which does not clamp, so the
    mechanisms' own clipping is what keeps the out-of-range ones in.
    """
    rng = random.Random(21)
    graphs = [Hypercube(d) for d in (3, 4, 5)] + [Hypergrid(n, 2) for n in (3, 4, 5)]
    for k in range(count):
        graph = graphs[k % len(graphs)]
        r = (2, 5, 12, 40)[k // len(graphs) % 4]
        lo, hi = (-2 * r, 6 * r) if k % 3 == 0 else (0, 4 * r)
        table = {x: Fraction(rng.randint(lo, hi), 4) for x in graph.vertices()}
        yield graph, CallableFunction(graph, table.__getitem__, r), k


def largest_edge_gap(graph, g):
    return max(abs(g[x] - g[y]) for x, y in graph.edges())


class TestEpsAudit:
    """Exact checks, over adversarial clients, of the three facts eps rests
    on: the FilterMechanism filter is 2-Lipschitz, every binary-search
    session filters to a 1-Lipschitz function, and no answer makes more
    than max(2, ceil(kappa)) - 1 probes."""

    def test_filter_mechanism_output_is_2_lipschitz(self):
        for graph, f, k in adversarial_clients():
            mech = FilterMechanism(graph, f, (1, 3, 10)[k % 3], seed_of(k))
            g = {x: mech.answer(x) for x in graph.vertices()}
            assert largest_edge_gap(graph, g) <= 2, k

    def test_binary_search_sessions_are_1_lipschitz(self):
        for graph, f, k in adversarial_clients():
            mech = BinarySearchMechanism(graph, f, (3, 10, 30)[k % 3], seed_of(k))
            cap = max(2, math.ceil(mech.kappa)) - 1
            sources = [None] + [NoiseSource(seed_of(100 + j)) for j in range(3)]
            for noise in sources:
                for x in graph.vertices():
                    assert mech.answer(x, noise).iterations <= cap, k
            for sess in mech._sessions.values():
                assert largest_edge_gap(graph, sess.table()) <= 1, k
