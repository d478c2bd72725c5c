import json
import random
import re
from fractions import Fraction

import pytest

from lipfilter import (
    Hypercube,
    Hypergrid,
    InvalidParam,
    RetryExhausted,
    check_separation,
    hard_instance_from_json,
    is_c_lipschitz,
    sample_hard_instance,
    separation_threshold,
    violation_score,
)
from lipfilter.hard import _random_at_distance
from helpers import seed_of


class TestValidation:
    def test_r_must_be_even_int(self):
        g = Hypercube(10)
        for bad in (3, 2.0, 0, -2):
            with pytest.raises(InvalidParam):
                sample_hard_instance(g, bad, 1, seed_of(0))

    def test_b_and_m(self):
        g = Hypercube(10)
        with pytest.raises(InvalidParam):
            sample_hard_instance(g, 2, 2, seed_of(0))
        with pytest.raises(InvalidParam):
            sample_hard_instance(g, 2, 0, seed_of(0), m=0)

    def test_bool_b_rejected(self):
        # a bool b would be written as true or false, which the reader rejects
        g = Hypercube(6)
        for bad in (True, False):
            with pytest.raises(InvalidParam, match="b must be 0 or 1"):
                sample_hard_instance(g, 2, bad, seed_of(0), m=2)

    def test_r_beyond_diameter(self):
        g = Hypercube(4)
        with pytest.raises(InvalidParam):
            sample_hard_instance(g, 6, 0, seed_of(0))

    def test_retry_exhaustion(self):
        g = Hypercube(6)
        with pytest.raises(RetryExhausted):
            # 6 separated pairs cannot fit in a 6-cube
            sample_hard_instance(g, 4, 1, seed_of(0), m=6, retry_cap=50)

    @pytest.mark.parametrize("cap", [0, -5, True, 2.0], ids=repr)
    def test_retry_cap_below_one_rejected(self, cap):
        with pytest.raises(InvalidParam, match="retry_cap must be an int >= 1"):
            sample_hard_instance(Hypercube(6), 2, 1, seed_of(0), m=1, retry_cap=cap)

    @pytest.mark.parametrize("m", [2.5, 2.0, True], ids=repr)
    def test_m_must_be_an_int(self, m):
        # a float used to raise TypeError, and True to place one pair
        with pytest.raises(InvalidParam, match="m must be an int >= 1"):
            sample_hard_instance(Hypercube(6), 2, 1, seed_of(0), m=m)

    def test_unreachable_distance_rejected(self):
        # from a corner of the 2-cube no monotone walk is 3 steps long
        with pytest.raises(InvalidParam, match=re.escape(
                "distance 3 unreachable from (0, 0)")):
            _random_at_distance(Hypercube(2), (0, 0), 3, random.Random(0))

    def test_threshold(self):
        assert separation_threshold(12, 2) == 3
        assert separation_threshold(4, 6) == 5


class TestStructure:
    def test_separation_holds(self):
        for i in range(5):
            g = Hypercube(14)
            inst = sample_hard_instance(g, 4, 1, seed_of(i), m=2)
            assert check_separation(g, inst.pairs, 4, 1)
            for a, ap in inst.pairs:
                assert g.dist(a, ap) == 3

    def test_check_separation_rejects_close_pairs(self):
        g = Hypercube(12)
        a = (0,) * 12
        ap = (1, 1, 1) + (0,) * 9
        other = (1,) + (0,) * 11  # distance 1 from a: too close
        pairs = ((a, ap), (other, (0, 1, 1, 1) + (0,) * 8))
        assert not check_separation(g, pairs, 4, 1)

    def test_value_profile_on_pair_path(self):
        g = Hypercube(12)
        inst = sample_hard_instance(g, 4, 0, seed_of(3), m=1)
        (a, ap), = inst.pairs
        assert inst.value(a) == 4
        assert inst.value(ap) == 0
        # baseline far away
        far = tuple(1 - c for c in a)
        if all(g.dist(far, v) >= 2 for v in (a, ap)):
            assert inst.value(far) == 2

    def test_range_respected(self):
        g = Hypercube(12)
        inst = sample_hard_instance(g, 4, 1, seed_of(5), m=2)
        f = inst.to_oracle()
        for _ in range(50):
            x = tuple(random.Random(99).randrange(2) for _ in range(12))
            assert 0 <= f.lookup(x) <= 4


class TestLipschitzness:
    def test_b0_is_lipschitz(self):
        for i in range(4):
            g = Hypercube(10)
            inst = sample_hard_instance(g, 4, 0, seed_of(10 + i), m=2)
            assert is_c_lipschitz(g, inst.to_oracle(), 1)

    def test_b1_pairs_have_unit_violation(self):
        for i in range(4):
            g = Hypercube(10)
            inst = sample_hard_instance(g, 4, 1, seed_of(20 + i), m=2)
            f = inst.to_oracle()
            twins = inst.corresponding_pairs()
            assert len(twins) == 2 * (4 // 2)
            for x, y in twins:
                assert violation_score(g, f, x, y) == 1

    def test_b1_on_grid(self):
        g = Hypergrid(4, 4)
        inst = sample_hard_instance(g, 6, 1, seed_of(30), m=1)
        f = inst.to_oracle()
        for x, y in inst.corresponding_pairs():
            assert violation_score(g, f, x, y) == 1


class TestJson:
    def test_round_trip(self):
        g = Hypercube(10)
        inst = sample_hard_instance(g, 4, 1, seed_of(40), m=2)
        doc = json.loads(json.dumps(inst.to_json()))
        back = hard_instance_from_json(doc)
        assert back.r == 4 and back.b == 1
        assert back.pairs == inst.pairs
        xs = [(0,) * 10, (1,) * 10, inst.pairs[0][0]]
        for x in xs:
            assert back.value(x) == inst.value(x)

    def anchors_doc(self, anchors, r=4, b=0):
        return {"domain": {"kind": "hypercube", "d": 10}, "r": r, "b": b,
                "anchors": anchors}

    def test_rejects_non_integer_r_and_b(self):
        doc = {"domain": {"kind": "hypercube", "d": 4}, "r": 2.9, "b": True,
               "anchors": [["0000", "1100"]]}
        with pytest.raises(InvalidParam, match="'r'"):
            hard_instance_from_json(doc)
        with pytest.raises(InvalidParam, match="'b'"):
            hard_instance_from_json(doc | {"r": 2})

    @pytest.mark.parametrize("r, b", [(3, 1), (0, 0), (4, 2), (4, -1)])
    def test_rejects_bad_parameters(self, r, b):
        with pytest.raises(InvalidParam):
            hard_instance_from_json(self.anchors_doc([], r=r, b=b))

    @pytest.mark.parametrize("doc", [
        {"domain": {"kind": "hypercube", "d": 4}, "r": 2, "b": 0},
        {"r": 2, "b": 0, "anchors": [["0000", "1100"]]},
        {"domain": {"kind": "hypercube", "d": 4}, "r": 2, "b": 0,
         "anchors": [["0000"]]},
        {"domain": {"kind": "hypercube", "d": 4}, "r": 2, "b": 0, "anchors": 5},
        [["0000", "1100"]],
    ], ids=["no-anchors", "no-domain", "one-anchor-pair", "anchors-not-a-list",
            "not-an-object"])
    def test_rejects_malformed_document(self, doc):
        with pytest.raises(InvalidParam):
            hard_instance_from_json(doc)

    @pytest.mark.parametrize("doc", [
        {"r": 2, "b": 0, "anchors": []},
        {"domain": 5, "r": 2, "b": 0, "anchors": []},
    ], ids=["no-domain", "domain-not-an-object"])
    def test_domain_error_names_a_hard_instance(self, doc):
        msg = f"hard instance domain must be a JSON object, got {doc.get('domain')!r}"
        with pytest.raises(InvalidParam, match=f"^{re.escape(msg)}$"):
            hard_instance_from_json(doc)

    def test_rejects_explicit_domain(self):
        doc = {"domain": {"kind": "explicit", "vertices": 3, "edges": [[0, 1]]},
               "r": 2, "b": 0, "anchors": []}
        with pytest.raises(InvalidParam, match="hypergrid"):
            hard_instance_from_json(doc)

    def test_rejects_pair_at_wrong_distance(self):
        # distance 3, not r - b = 4
        doc = self.anchors_doc([["0000000000", "1110000000"]])
        with pytest.raises(InvalidParam, match="distance r - b = 4"):
            hard_instance_from_json(doc)

    def test_rejects_pairs_too_close(self):
        # each pair sits at distance 4, but the two pairs' first anchors
        # are 2 apart, within separation_threshold(10, 4) = 3
        doc = self.anchors_doc([["0000000000", "1111000000"],
                                ["0000000011", "0000111111"]])
        assert separation_threshold(10, 4) == 3
        with pytest.raises(InvalidParam, match="more than 3"):
            hard_instance_from_json(doc)
        hard_instance_from_json(self.anchors_doc(doc["anchors"][:1]))
