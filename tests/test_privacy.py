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
    NoiseSource,
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

    def test_scale_and_symmetry(self):
        draws = [NoiseSource(seed_of(3)).laplace(2) for _ in range(1)]
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
        f = TableFunction(g, {x: 0 for x in g.vertices()}, 2)
        mech = BinarySearchMechanism(g, f, 1, seed_of(0), r_opt=10**6)
        assert mech.r == 16  # n * d = 2 * 8
        assert list(mech._probes()) == [2, 3, 4]

    def test_alpha_frozen(self):
        g = Hypercube(8)
        f = TableFunction(g, {x: 0 for x in g.vertices()}, 2)
        mech = BinarySearchMechanism(g, f, 1, seed_of(0), r_opt=16)
        assert mech.kappa == 4
        assert float(mech.alpha) == pytest.approx(4 * math.log2(800))
        assert float(mech.noise_scale) == pytest.approx(4.0)

    def test_out_of_range_values_clamped(self):
        g, f, clipped = out_of_range_line()
        mech = BinarySearchMechanism(g, f, 1, seed_of(6))
        ref = BinarySearchMechanism(g, clipped, 1, seed_of(6))
        for x in g.vertices():
            assert mech.answer(x).value == ref.answer(x).value

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

    def test_result_counts_lookups(self):
        rng = random.Random(1)
        g = Hypercube(6)
        f = lipschitz_table(g, rng, 6)
        mech = BinarySearchMechanism(g, f, 1, seed_of(2))
        res = mech.answer((0,) * 6)
        assert res.lookups > 0

    def test_lookups_do_not_reveal_the_value(self):
        # Scans stop where f(x) can no longer be violated: without the
        # table read, the first answer read 93 values at f(x) = 4 and 255
        # at f(x) = 0 or 8.
        g = Hypercube(8)
        lookups = set()
        for k in range(9):
            f = ExprFunction(g, "sum()", 8)
            mech = BinarySearchMechanism(g, f, 1, seed_of(2))
            x = (1,) * k + (0,) * (8 - k)
            first, again = mech.answer(x), mech.answer(x)
            assert first.value == again.value == k
            lookups.add((first.lookups, again.lookups))
        assert lookups == {(256, 0)}

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
        mech.answer((0,) * 6)
        first = len(mech._sessions)
        mech.answer((1,) * 6)
        assert len(mech._sessions) >= first  # reuse, never rebuild per query
