from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lipfilter import DimensionError, InvalidInterval, ParseError
from lipfilter.exprs import (
    MAX_DEPTH,
    BinOp,
    Call,
    Coord,
    CoordSum,
    Lit,
    evaluate,
    format_expr,
    parse_expr,
)


def ev(text, coords, d=None):
    return evaluate(parse_expr(text, d=d), coords)


class TestEvaluate:
    def test_arithmetic(self):
        assert ev("1 + 2 * 3", ()) == 7
        assert ev("(1 + 2) * 3", ()) == 9
        assert ev("7/2 - 1/2", ()) == 3

    def test_coords_and_sum(self):
        assert ev("x1 + x2", (3, 4)) == 7
        assert ev("sum()", (1, 2, 3)) == 6
        assert ev("x2 * x2", (0, 5)) == 25

    def test_functions(self):
        assert ev("min(x1 + x2, 3)", (2, 2)) == 3
        assert ev("max(1, 2, 3)", ()) == 3
        assert ev("abs(0 - 5)", ()) == 5
        assert ev("floor(7/2)", ()) == 3
        assert ev("floor(0 - 1/2)", ()) == -1
        assert ev("clip(x1, 1, 2)", (9,)) == 2
        assert ev("clip(x1, 1, 2)", (0,)) == 1

    def test_clip_bad_bounds(self):
        with pytest.raises(InvalidInterval):
            ev("clip(1, 3, 2)", ())

    def test_exact_fractions(self):
        v = ev("1/3 + 1/6", ())
        assert v == Fraction(1, 2)
        assert isinstance(v, Fraction)


class TestPrecedence:
    """The parser, evaluate and format_expr read one operator table, so a
    round trip cannot see a change to it; these pin the table's meaning."""

    def test_times_binds_tighter_as_trees(self):
        x1, x2, x3 = Coord(1), Coord(2), Coord(3)
        assert parse_expr("x1 + x2 * x3") == BinOp("+", x1, BinOp("*", x2, x3))
        assert parse_expr("x1 * x2 - x3") == BinOp("-", BinOp("*", x1, x2), x3)

    def test_times_binds_tighter_as_values(self):
        assert ev("2 * 3 + 4", ()) == 10
        assert ev("4 + 2 * 3", ()) == 10
        assert ev("10 - 2 * 3", ()) == 4

    def test_left_associative_as_trees(self):
        x1, x2, x3 = Coord(1), Coord(2), Coord(3)
        assert parse_expr("x1 - x2 - x3") == BinOp("-", BinOp("-", x1, x2), x3)
        assert parse_expr("x1 - x2 + x3") == BinOp("+", BinOp("-", x1, x2), x3)
        assert parse_expr("x1 * x2 * x3") == BinOp("*", BinOp("*", x1, x2), x3)

    def test_left_associative_as_values(self):
        assert ev("10 - 4 - 3", ()) == 3
        assert ev("10 - 4 + 3", ()) == 9
        assert ev("x1 - x2 - x3", (10, 4, 3)) == 3

    def test_format_brackets_by_precedence(self):
        x1, x2, x3 = Coord(1), Coord(2), Coord(3)
        assert format_expr(BinOp("-", x1, BinOp("-", x2, x3))) == "x1 - (x2 - x3)"
        assert format_expr(BinOp("-", BinOp("-", x1, x2), x3)) == "x1 - x2 - x3"
        assert format_expr(BinOp("*", BinOp("+", x1, x2), x3)) == "(x1 + x2) * x3"
        assert format_expr(BinOp("+", x1, BinOp("*", x2, x3))) == "x1 + x2 * x3"


class TestTokens:
    def test_whitespace_is_ignored(self):
        assert parse_expr(" \tx1\n+\r2 \n") == BinOp("+", Coord(1), Lit(Fraction(2)))

    @pytest.mark.parametrize("text, at", [("x1 ^ 2", 3), ("\t\n#", 2), ("x1\u00a0\u00a0$", 4)])
    def test_unexpected_character_position(self, text, at):
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_expr(text)
        assert info.value.position == at

    @pytest.mark.parametrize("text, at", [("\u0661", 0), ("x1 + \u0661", 5), ("1\u0662", 1)])
    def test_digits_are_ascii(self, text, at):
        # an Arabic-Indic digit is not a number
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_expr(text)
        assert info.value.position == at


class TestParseErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as info:
            parse_expr("1 + $")
        assert info.value.position == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_expr("1 2")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_expr("1/0")

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_expr("spam(1)")

    def test_arity(self):
        with pytest.raises(ParseError):
            parse_expr("abs(1, 2)")
        with pytest.raises(ParseError):
            parse_expr("clip(1, 2)")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_expr("min(1, 2")

    def test_no_unary_minus(self):
        with pytest.raises(ParseError):
            parse_expr("-1")

    def test_coord_index_zero(self):
        with pytest.raises(ParseError):
            parse_expr("x0")

    def test_dimension_checked_at_parse(self):
        parse_expr("x3")  # fine without a dimension
        with pytest.raises(DimensionError):
            parse_expr("x3", d=2)

    def test_dimension_checked_at_eval(self):
        with pytest.raises(DimensionError):
            ev("x3", (1, 2))


# 1,000 bracket pairs used to exhaust the parser's recursion, and a
# 3,000-term sum parsed into a tree that exhausted evaluate's
DEEP_BRACKETS = "(" * 1000 + "1" + ")" * 1000
LONG_SUM = "+".join(["x1"] * 3000)


class TestDepth:
    """An operator, a call, a bracket pair and a leaf are each one level;
    past MAX_DEPTH levels the parse fails at the token that goes deeper."""

    @pytest.mark.parametrize("text, position", [
        (DEEP_BRACKETS, MAX_DEPTH),
        # the MAX_DEPTH-th '+' puts the first x1 MAX_DEPTH + 1 levels down
        (LONG_SUM, 3 * MAX_DEPTH - 1),
        ("min(" * 1000 + "1" + ")" * 1000, 4 * MAX_DEPTH),
        ("1*(" * 1000 + "1" + ")" * 1000, 3 * (MAX_DEPTH // 2)),
    ], ids=["brackets", "sum", "calls", "products"])
    def test_too_deep_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError, match=rf"nested deeper than {MAX_DEPTH} levels "
                                             rf"\(at {position}\)$"):
            parse_expr(text)

    def test_at_the_limit_parses_and_evaluates(self):
        for text, value in [
            ("(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1), 1),
            ("+".join(["x1"] * MAX_DEPTH), MAX_DEPTH),
            ("abs(" * (MAX_DEPTH - 1) + "2" + ")" * (MAX_DEPTH - 1), 2),
        ]:
            e = parse_expr(text)
            assert evaluate(e, (1,)) == value
            assert parse_expr(format_expr(e)) == e
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr("(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH)
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr("+".join(["x1"] * (MAX_DEPTH + 1)))


def test_evaluate_rejects_a_non_node():
    with pytest.raises(TypeError, match="not an expression node"):
        evaluate("x1", (1,))


_lits = st.builds(Lit, st.fractions(min_value=0, max_value=20))
_base = st.one_of(_lits, st.builds(Coord, st.integers(1, 4)), st.just(CoordSum()))
_exprs = st.recursive(
    _base,
    lambda kids: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*"]), kids, kids),
        st.builds(lambda a: Call("abs", (a,)), kids),
        st.builds(lambda a, b: Call("min", (a, b)), kids, kids),
        st.builds(lambda a, b, c: Call("max", (a, b, c)), kids, kids, kids),
        st.builds(lambda a: Call("floor", (a,)), kids),
        st.builds(lambda a, b, c: Call("clip", (a, b, c)), kids, kids, kids),
    ),
    max_leaves=25,
)


@given(_exprs)
def test_format_parse_round_trip(e):
    assert parse_expr(format_expr(e)) == e


@given(st.integers(0, 30), st.integers(1, 30))
def test_rational_literals_round_trip(num, den):
    e = Lit(Fraction(num, den))
    assert parse_expr(format_expr(e)) == e


def test_format_minimal_parens():
    e = parse_expr("(x1 + 1) * x2 - 3")
    assert format_expr(e) == "(x1 + 1) * x2 - 3"
    assert parse_expr(format_expr(e)) == e
