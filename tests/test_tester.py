import math
import random
from fractions import Fraction

import pytest

from lipfilter import (
    CallableFunction,
    ExprFunction,
    Hypercube,
    Hypergrid,
    Interval,
    InvalidParam,
    PartialFunction,
    TableFunction,
    exact_l0_distance,
    make_params,
    tolerant_test,
    tolerant_test_once,
)
from helpers import seed_of


class TestParams:
    def test_frozen_d8(self):
        p = make_params(8, Fraction(1, 10))
        assert float(p.t) == pytest.approx(2 * math.sqrt(8 * math.log2(80)))
        assert p.m == 225000000
        assert p.threshold == Fraction(401, 2000)
        assert p.reps == 1

    def test_m_override(self):
        p = make_params(8, Fraction(1, 10), m=5000)
        assert p.m == 5000

    def test_validation(self):
        with pytest.raises(InvalidParam):
            make_params(3, Fraction(1, 10))
        with pytest.raises(InvalidParam):
            make_params(8.0, Fraction(1, 10))
        with pytest.raises(InvalidParam):
            make_params(8, Fraction(1, 3))
        with pytest.raises(InvalidParam):
            make_params(8, 0)
        with pytest.raises(InvalidParam):
            make_params(8, Fraction(1, 10), reps=2)
        with pytest.raises(InvalidParam):
            make_params(8, Fraction(1, 10), reps=-1)
        with pytest.raises(InvalidParam):
            make_params(8, Fraction(1, 10), m=0)

    @pytest.mark.parametrize("kw, message", [
        ({"m": 2.5}, "m must be an int"), ({"m": True}, "m must be an int"),
        ({"m": 2, "reps": 3.0}, "reps must be a positive odd int"),
        ({"m": 2, "reps": True}, "reps must be a positive odd int"),
    ], ids=repr)
    def test_whole_number_params_must_be_ints(self, kw, message):
        # a float used to raise TypeError from range, and True to run once
        g = Hypercube(4)
        f = TableFunction(g, {x: 0 for x in g.vertices()}, 1)
        with pytest.raises(InvalidParam, match=f"^{message}"):
            tolerant_test(g, f, Fraction(1, 10), seed_of(0), **kw)


def cone_function(d, r):
    g = Hypercube(d)
    anchor = (0,) * d
    return g, CallableFunction(
        g, lambda x: Fraction(min(sum(x), r)), r)


def scaled_parity(d):
    g = Hypercube(d)
    return g, CallableFunction(g, lambda x: Fraction(2 * (sum(x) % 2)), 2)


class TestDichotomySmallScale:
    # d = 8 keeps the window scans cheap; the window [f(p) - t, f(p) + t]
    # already spans the whole range there, which is the regime the larger
    # dimensions share
    def test_lipschitz_accepted(self):
        g, f = cone_function(8, 2)
        report = tolerant_test(g, f, Fraction(1, 10), seed_of(0), m=200)
        assert report.accept
        assert report.estimates == (0,)

    def test_far_function_rejected(self):
        g, f = scaled_parity(8)
        report = tolerant_test(g, f, Fraction(1, 10), seed_of(1), m=200)
        assert not report.accept
        # about half the points get rewritten
        assert report.estimates[0] > Fraction(2, 5)

    def test_majority_vote(self):
        g, f = cone_function(8, 2)
        report = tolerant_test(g, f, Fraction(1, 10), seed_of(2), m=60, reps=3)
        assert report.accept
        assert len(report.estimates) == 3

    def test_certified_distance_of_reject_instance(self):
        # parity * 2 is exactly 1/2-far inside any window covering [0, 2]
        g, f = scaled_parity(4)
        got = exact_l0_distance(g, f.restrict(Interval(Fraction(0), Fraction(2))))
        assert got == Fraction(1, 2)
        assert got >= Fraction(201, 100) * Fraction(1, 10)


class TestMechanics:
    @pytest.mark.parametrize("n, d", [(20, 4), (2, 8)])
    def test_grid_rejected(self, n, d):
        # t is the cube's concentration bound: on [20]^4 the Lipschitz
        # sum() spreads past it and was rejected at seeds 0 and 2
        g = Hypergrid(n, d)
        f = ExprFunction(g, "sum()", n * d)
        with pytest.raises(InvalidParam, match="hypercube, not Hypergrid"):
            tolerant_test(g, f, Fraction(1, 4), seed_of(0), m=200)
        p = make_params(d, Fraction(1, 4), m=200)
        for i in (0, 2):
            with pytest.raises(InvalidParam, match="hypercube, not Hypergrid"):
                tolerant_test_once(g, f, p, seed_of(i))

    def test_deterministic_for_seed(self):
        g, f = scaled_parity(8)
        p = make_params(8, Fraction(1, 10), m=200)
        a = tolerant_test_once(g, f, p, seed_of(5))
        b = tolerant_test_once(g, f, p, seed_of(5))
        assert a == b

    def test_reads_each_vertex_once(self):
        # the samples are compared with the values the session read; only
        # the pivot, read first, may be read again by the session
        g = Hypercube(6)
        reads = []

        def parity(x):
            reads.append(x)
            return Fraction(2 * (sum(x) % 2))

        f = CallableFunction(g, parity, 2)
        ok, estimate = tolerant_test_once(
            g, f, make_params(6, Fraction(1, 10), m=200), seed_of(3))
        assert not ok and estimate > 0
        rest = reads[1:]
        assert len(rest) == len(set(rest)) == f.lookups - 1

    def test_partial_pivot_rejected(self):
        g = Hypercube(4)
        f = TableFunction(g, {}, 2)  # default "?" everywhere
        p = make_params(4, Fraction(1, 10), m=10)
        with pytest.raises(PartialFunction):
            tolerant_test_once(g, f, p, seed_of(0))

    def test_window_concentration_motivation(self):
        # at d=32 a Lipschitz function stays within t of the pivot value
        # for almost all points, so the restriction rarely bites
        d = 32
        g, f = cone_function(d, d)
        p = make_params(d, Fraction(1, 4))
        rng = random.Random(7)
        pivot = tuple(rng.randrange(2) for _ in range(d))
        center = f.lookup(pivot)
        inside = 0
        trials = 400
        for _ in range(trials):
            x = tuple(rng.randrange(2) for _ in range(d))
            if abs(f.lookup(x) - center) <= p.t:
                inside += 1
        assert inside / trials > 0.95
