import json
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from lipfilter import (
    CallableFunction,
    ExplicitGraph,
    ExprFunction,
    Hypercube,
    Hypergrid,
    Interval,
    InvalidInterval,
    InvalidParam,
    LocalFilterL0,
    OutOfDomain,
    RangeViolation,
    Seed,
    TableFunction,
    format_value,
    function_to_json,
    load_function,
    parse_rational,
    parse_value,
    sample_hard_instance,
)
from lipfilter import functions


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(" 2 ") == 2
        assert parse_rational(5) == 5
        assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)

    def test_floats_parse_decimally(self):
        # CLI flags arrive as floats; 0.25 must mean exactly 1/4
        assert parse_rational(0.25) == Fraction(1, 4)
        assert parse_rational(0.1) == Fraction(1, 10)

    @pytest.mark.parametrize("b", [True, False])
    def test_bools_rejected(self, b):
        with pytest.raises(InvalidParam, match="not a rational number"):
            parse_rational(b)

    def test_values(self):
        assert parse_value("?") is None
        assert parse_value(None) is None
        assert parse_value("5/2") == Fraction(5, 2)
        assert format_value(None) == "?"
        assert format_value(Fraction(5, 2)) == "5/2"


class TestInterval:
    def test_empty_rejected(self):
        with pytest.raises(InvalidInterval):
            Interval(Fraction(2), Fraction(1))

    def test_contains_and_width(self):
        box = Interval.of("1/2", "5/2")
        assert box.width == 2
        assert box.contains(Fraction(1, 2))
        assert box.contains(2)
        assert not box.contains(3)


class TestTableFunction:
    def test_lookup_and_default(self):
        g = ExplicitGraph(3, [(0, 1), (1, 2)])
        f = TableFunction(g, {0: 0, 1: "3/2"}, 2)
        assert f.lookup(0) == 0
        assert f.lookup(1) == Fraction(3, 2)
        assert f.lookup(2) is None  # default "?"

    def test_negative_range_diameter_rejected(self):
        g = ExplicitGraph(2, [(0, 1)])
        with pytest.raises(RangeViolation, match="range diameter must be nonnegative"):
            CallableFunction(g, lambda x: 0, -1)

    def test_range_validated_at_construction(self):
        g = ExplicitGraph(2, [(0, 1)])
        with pytest.raises(RangeViolation):
            TableFunction(g, {0: 5}, 2)
        with pytest.raises(RangeViolation):
            TableFunction(g, {0: -1}, 2)

    def test_default_validated_at_construction(self):
        g = ExplicitGraph(2, [(0, 1)])
        for default in (3, "-1/2"):
            with pytest.raises(RangeViolation, match="^default value .* out of range$"):
                TableFunction(g, {0: 1}, 2, default=default)

    def test_domain_validated(self):
        g = ExplicitGraph(2, [(0, 1)])
        with pytest.raises(OutOfDomain):
            TableFunction(g, {7: 0}, 2)
        f = TableFunction(g, {0: 1}, 2)
        with pytest.raises(OutOfDomain):
            f.lookup(9)

    def test_lookup_counter(self):
        g = ExplicitGraph(2, [(0, 1)])
        f = TableFunction(g, {0: 1, 1: 2}, 2)
        assert f.lookups == 0
        f.lookup(0)
        f.lookup(1)
        f.lookup(0)
        assert f.lookups == 3
        f.reset_lookups()
        assert f.lookups == 0


class TestWrappers:
    def g_and_f(self):
        g = ExplicitGraph(3, [(0, 1), (1, 2)])
        return g, TableFunction(g, {0: 0, 1: 3, 2: 5}, 5)

    def test_clip(self):
        g, f = self.g_and_f()
        c = f.clip(1, 4)
        assert c.lookup(0) == 1
        assert c.lookup(1) == 3
        assert c.lookup(2) == 4
        assert c.lo == 1 and c.r == 3

    def test_clip_propagates_counts(self):
        g, f = self.g_and_f()
        c = f.clip(0, 2)
        c.lookup(0)
        assert c.lookups == 1
        assert f.lookups == 1

    def test_clip_bad_bounds(self):
        g, f = self.g_and_f()
        with pytest.raises(InvalidInterval):
            f.clip(4, 1)

    def test_restrict(self):
        g, f = self.g_and_f()
        w = f.restrict(Interval.of(1, 4))
        assert w.lookup(0) is None
        assert w.lookup(1) == 3
        assert w.lookup(2) is None
        assert w.lo == 1 and w.r == 3

    def test_restrict_keeps_holes(self):
        g = ExplicitGraph(2, [(0, 1)])
        f = TableFunction(g, {0: 1}, 4)
        w = f.restrict(Interval.of(0, 4))
        assert w.lookup(1) is None


class TestExprFunction:
    def test_values(self):
        g = Hypergrid(4, 2)
        f = ExprFunction(g, "min(x1 + x2, 4)", 4)
        assert f.lookup((1, 1)) == 2
        assert f.lookup((4, 4)) == 4

    def test_range_enforced_on_lookup(self):
        g = Hypergrid(4, 1)
        f = ExprFunction(g, "x1 * x1", 3)
        assert f.lookup((1,)) == 1
        with pytest.raises(RangeViolation):
            f.lookup((4,))

    def test_wrappers_read_out_of_range_base(self):
        g = Hypergrid(4, 1)
        f = ExprFunction(g, "x1 * x1", 3)  # 1, 4, 9, 16 against [0, 3]
        c = f.clip(0, 3)
        w = f.restrict(Interval.of(0, 3))
        f.reset_lookups()
        assert [c.lookup((i,)) for i in range(1, 5)] == [1, 3, 3, 3]
        assert [w.lookup((i,)) for i in range(1, 5)] == [1, None, None, None]
        assert c.lookups == 4 and w.lookups == 4
        assert f.lookups == 8  # once per wrapper read
        with pytest.raises(RangeViolation):
            f.lookup((2,))

    def test_dimension_checked_at_build(self):
        g = Hypergrid(4, 2)
        from lipfilter import DimensionError

        with pytest.raises(DimensionError):
            ExprFunction(g, "x3", 4)


def test_callable_function():
    g = Hypercube(3)
    f = CallableFunction(g, lambda x: sum(x), 3)
    assert f.lookup((1, 1, 0)) == 2
    assert f.lookups == 1


class TestCallableResults:
    G = Hypercube(3)

    def test_ints_become_fractions(self):
        f = CallableFunction(self.G, lambda x: sum(x), 3)
        assert [type(f.lookup(x)) for x in self.G.vertices()] == [Fraction] * 8
        assert CallableFunction(self.G, lambda x: None, 3).lookup((0, 0, 0)) is None

    @pytest.mark.parametrize("result", [0.5, 1.0, True, "1", Decimal(1)],
                             ids=["float", "whole float", "bool", "str", "Decimal"])
    def test_other_results_rejected(self, result):
        f = CallableFunction(self.G, lambda x: result, 3)
        with pytest.raises(RangeViolation, match=r"^f\(110\) = "):
            f.lookup((1, 1, 0))
        with pytest.raises(RangeViolation, match=r"^f\(110\) = "):
            f.clip(0, 3).lookup((1, 1, 0))

    def test_float_fails_the_filter_with_range_violation(self):
        f = CallableFunction(self.G, lambda x: 0.5 * sum(x), 3)
        with pytest.raises(RangeViolation, match=r"^f\(000\) = 0\.0 "):
            LocalFilterL0(self.G, f, Seed(b"\x00" * 32)).value((0, 0, 0))


def _oracles():
    """Every oracle kind, with clip and restrict over an expression whose
    values (-2 to 13) leave its claimed range [0, 3]."""
    g = Hypergrid(4, 2)
    wild = ExprFunction(g, "x1 * x2 - 3", 3)
    inst = sample_hard_instance(Hypercube(8), 4, 1, Seed(b"\x02" * 32), m=2)
    cases = {
        "table": TableFunction(g, {(1, 1): 0, (2, 3): "5/2"}, 3, default=1),
        "expr": ExprFunction(g, "min(x1 + x2, 5) - 2", 3),
        "expr out of range": wild,
        "callable": CallableFunction(g, lambda x: x[0] - 1, 3),
        "hard instance": inst.to_oracle(),
        "clip": wild.clip(0, 3),
        "clip shifted": wild.clip(2, "9/2"),
        "restrict": wild.restrict(Interval.of(1, 6)),
        "restrict wider than base": wild.restrict(Interval.of(-5, 9)),
        "restrict of clip": wild.clip(0, 8).restrict(Interval.of(-1, 2)),
        "clip of restrict": wild.restrict(Interval.of(-2, 5)).clip(1, 4),
    }
    return [pytest.param(f, id=name) for name, f in cases.items()]


@pytest.mark.parametrize("f", _oracles())
def test_lookup_values_lie_in_lo_hi(f):
    """Violation scans trust that every defined value lies in ``bounds``,
    which lies in [lo, hi]: ``lookup`` returns such a value, None, or
    raises RangeViolation."""
    assert f.lo <= f.bounds.lo <= f.bounds.hi <= f.hi
    defined = 0
    for x in f.graph.vertices():
        try:
            v = f.lookup(x)
        except RangeViolation:
            assert f.checks_range, x
            continue
        if v is not None:
            assert type(v) is Fraction and f.bounds.contains(v), (x, v)
            defined += 1
    assert defined


@pytest.mark.parametrize("window", [(5, 9), (-9, -1)], ids=["above", "below"])
def test_window_disjoint_from_base_range_is_all_undefined(window):
    """The base claims [0, 3] but takes values in both windows; a
    restriction keeps to the base's range, so none is defined, and the l0
    filter answers ? everywhere."""
    g = Hypergrid(4, 2)
    wild = ExprFunction(g, "x1 * x2 - 3", 3)
    f = wild.restrict(Interval.of(*window))
    assert f.lo <= f.bounds.lo <= f.bounds.hi <= f.hi
    assert any(Interval.of(*window).contains(wild._value(x)) for x in g.vertices())
    assert all(f.lookup(x) is None for x in g.vertices())
    filt = LocalFilterL0(g, f, Seed(b"\x03" * 32))
    assert all(filt.value(x) is None for x in g.vertices())


class TestJson:
    def test_round_trip_explicit(self, tmp_path):
        g = ExplicitGraph(3, [(0, 1), (1, 2)])
        f = TableFunction(g, {0: 0, 1: "3/2"}, 2)
        doc = function_to_json(g, f)
        assert doc["domain"] == {"kind": "explicit", "vertices": 3,
                                 "edges": [[0, 1], [1, 2]]}
        g2, f2 = load_function(doc)
        assert [f2.lookup(x) for x in g2.vertices()] == [0, Fraction(3, 2), None]
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        g3, f3 = load_function(str(path))
        assert f3.r == 2

    def test_round_trip_hypercube(self):
        g = Hypercube(2)
        f = TableFunction(g, {x: sum(x) for x in g.vertices()}, 2)
        doc = function_to_json(g, f)
        assert doc["domain"] == {"kind": "hypercube", "d": 2}
        g2, f2 = load_function(json.dumps(doc))
        assert f2.lookup((1, 1)) == 2

    def test_round_trip_hypergrid(self):
        g = Hypergrid(3, 2)
        f = TableFunction(g, {x: 0 for x in g.vertices()}, 1)
        g2, f2 = load_function(function_to_json(g, f))
        assert g2.n == 3 and g2.d == 2

    @pytest.mark.parametrize("doc", [
        {"r": True},
        {"r": "2", "values": {"0": True}},
        {"r": "2", "default": False},
        # true equals 1, so it must not read the entry parsed for 1
        {"r": "2", "values": {"0": 1, "1": True}},
    ], ids=["r", "value", "default", "value-after-1"])
    def test_json_booleans_are_not_numbers(self, doc):
        domain = {"kind": "explicit", "vertices": 2, "edges": [[0, 1]]}
        with pytest.raises(InvalidParam, match="not a rational number"):
            load_function({"domain": domain, **doc})

    @pytest.mark.parametrize("domain", [5, None, [3, 2]])
    def test_non_object_domain_named_as_function_domain(self, domain):
        msg = f"function domain must be a JSON object, got {domain!r}"
        with pytest.raises(InvalidParam, match=f"^{re.escape(msg)}$"):
            load_function({"domain": domain, "r": "2"})

    @pytest.mark.parametrize("doc, missing", [
        ({"r": "2"}, "'domain'"),
        ({"domain": {"kind": "hypercube", "d": 2}}, "'r'"),
    ])
    def test_missing_domain_or_r_named(self, doc, missing):
        with pytest.raises(InvalidParam, match=f"^function document missing {missing}$"):
            load_function(doc)

    def test_unknown_domain_kind_rejected(self):
        with pytest.raises(OutOfDomain, match="^unknown domain kind 'torus'$"):
            load_function({"domain": {"kind": "torus", "d": 2}, "r": "2"})

    def test_repeated_values_in_mixed_forms(self):
        g = Hypercube(4)
        forms = ["1", "2/2", "1/2", "0.5", "?", 3, 2.5]
        doc = {g.canon(x): forms[i % len(forms)]
               for i, x in enumerate(list(g.vertices())[:14])}
        g2, f = load_function({"domain": {"kind": "hypercube", "d": 4},
                               "r": "3", "values": doc, "default": "2"})
        expected = {g.from_canon(k): parse_value(v) for k, v in doc.items()}
        got = {x: f.lookup(x) for x in g2.vertices()}
        assert got == {x: expected.get(x, Fraction(2)) for x in g.vertices()}
        assert {type(v) for v in got.values()} == {Fraction, type(None)}

    @pytest.mark.parametrize("values, error, match", [
        ({"00": "1", "0x": "1"}, OutOfDomain, "'0x'"),
        ({"00": "1", "01": "1/0"}, InvalidParam, "not a rational number: '1/0'"),
        ({"00": "1", "01": "one"}, InvalidParam, "not a rational number: 'one'"),
        ({"00": "1", "01": [1]}, InvalidParam, r"\[1\]"),
        ({"00": "1", "01": {"v": 1}}, InvalidParam, "not a rational number"),
        # the first bad entry in document order is the one named
        ({"00": "x", "0x": "1"}, InvalidParam, "'x'"),
        ({"0x": "1", "00": "x"}, OutOfDomain, "'0x'"),
        ({"0x": "x", "00": "y"}, OutOfDomain, "'0x'"),
        ({"00": "x", "01": "y"}, InvalidParam, "'x'"),
        ({"00": [1], "01": "y"}, InvalidParam, r"\[1\]"),
    ], ids=repr)
    def test_bad_entry_named(self, values, error, match):
        doc = {"domain": {"kind": "hypercube", "d": 2}, "r": "2", "values": values}
        with pytest.raises(error, match=match):
            load_function(doc)

    def test_each_key_checked_once(self, monkeypatch):
        checked = []
        contains = Hypercube.contains

        def counted(self, x):
            checked.append(x)
            return contains(self, x)

        monkeypatch.setattr(Hypercube, "contains", counted)
        g = Hypercube(10)
        doc = {"domain": {"kind": "hypercube", "d": 10}, "r": "1",
               "values": {g.canon(x): "1" for x in g.vertices()}}
        _, f = load_function(doc)
        assert len(checked) == 1024
        assert f.lookup((0,) * 10) == 1

    def test_each_distinct_value_text_parsed_once(self, monkeypatch):
        texts = []
        parse = functions.parse_rational

        def counted(s):
            if isinstance(s, str):
                texts.append(s)
            return parse(s)

        monkeypatch.setattr(functions, "parse_rational", counted)
        g = Hypercube(10)
        forms = ["0", "1/2", "3/2", "2"]
        doc = {"domain": {"kind": "hypercube", "d": 10}, "r": "2", "default": "?",
               "values": {g.canon(x): forms[i % 4] for i, x in enumerate(g.vertices())}}
        _, f = load_function(doc)
        # the four value texts and r, not one parse per entry
        assert sorted(texts) == sorted(forms + ["2"])
        assert f.lookup((1,) * 10) == 2
