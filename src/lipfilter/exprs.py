"""A tiny arithmetic DSL for describing functions on coordinate tuples.

Grammar (no unary minus, no division operator; '/' only inside rational
literals):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := rational | coord | 'sum' '(' ')' | fn '(' expr (',' expr)* ')'
              | '(' expr ')'
    rational := INT ('/' INT)?
    coord    := 'x' INT                      (1-based coordinate index)
    fn       := 'min' | 'max' | 'abs' | 'floor' | 'clip'

INT is a run of the ASCII digits 0-9.  Whitespace separates tokens and is
otherwise ignored.  An expression may nest at most MAX_DEPTH levels deep,
where each operator, call, bracket pair and leaf is one level, so that
parsing, evaluation and printing all stay well inside Python's recursion
limit; a deeper one is a ParseError at the token that passes the limit.

Evaluation is total and exact over Fractions.  parse/format round-trip to
structurally equal trees.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, InvalidInterval, ParseError


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Coord:
    index: int  # 1-based


@dataclass(frozen=True)
class CoordSum:
    """sum(): the sum of all coordinates."""


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str  # min, max, abs, floor, clip
    args: tuple


Expr = "Lit | Coord | CoordSum | BinOp | Call"

# the most levels an expression may nest; see the module docstring
MAX_DEPTH = 200

# each operator's precedence (higher binds tighter; all associate to the
# left) and meaning, for the parser, evaluate and format_expr alike
_OPS = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul)}


def _clip(args):
    v, lo, hi = args
    if lo > hi:
        raise InvalidInterval(f"clip bounds out of order: {lo} > {hi}")
    return min(max(v, lo), hi)


# name -> (least arity, greatest arity or None, implementation on the
# list of argument values)
_FUNCTIONS = {
    "min": (1, None, min),
    "max": (1, None, max),
    "abs": (1, 1, lambda args: abs(args[0])),
    "floor": (1, 1, lambda args: Fraction(math.floor(args[0]))),
    "clip": (3, 3, _clip),
}

_TOKEN_RE = re.compile(
    r"(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[+\-*/(),])|(?P<bad>\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", position=m.start())
        tokens.append((tok if kind == "sym" else kind, tok, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, d: int | None):
        self.tokens = tokens
        self.i = 0
        self.d = d

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", position=tok[2])
        self.i += 1
        return tok

    def parse(self):
        e, _ = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", position=tok[2])
        return e

    # ``level`` counts the levels above the tree a method parses, and each
    # method returns that tree with its height, bracket pairs counted, so
    # level + height is the depth the tree reaches.

    def expr(self, prec=1, level=0):
        """Operators binding at least as tightly as ``prec``; each right
        operand binds tighter still, so equal precedence nests left."""
        left, height = self.factor(level)
        op, _, start = self.peek()
        while op in _OPS and _OPS[op][0] >= prec:
            self.take()
            right, right_height = self.expr(_OPS[op][0] + 1, level + 1)
            left = BinOp(op, left, right)
            height = 1 + max(height, right_height)
            if level + height > MAX_DEPTH:
                raise _too_deep(start)
            op, _, start = self.peek()
        return left, height

    def factor(self, level):
        kind, text, start = self.peek()
        if level >= MAX_DEPTH:
            raise _too_deep(start)
        if kind == "num":
            self.take()
            num = int(text)
            if self.peek()[0] == "/":
                self.take()
                den_tok = self.take("num")
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError("zero denominator", position=den_tok[2])
                return Lit(Fraction(num, den)), 1
            return Lit(Fraction(num)), 1
        if kind == "(":
            self.take()
            e, height = self.expr(level=level + 1)
            self.take(")")
            return e, height + 1
        if kind == "name":
            self.take()
            if text == "sum":
                self.take("(")
                self.take(")")
                return CoordSum(), 1
            coord = re.fullmatch(r"x([0-9]+)", text)
            if coord:
                k = int(coord.group(1))
                if k < 1:
                    raise ParseError("coordinate indices start at x1", position=start)
                if self.d is not None and k > self.d:
                    raise DimensionError(
                        f"x{k} out of range for dimension {self.d}"
                    )
                return Coord(k), 1
            if text in _FUNCTIONS:
                lo, hi, _ = _FUNCTIONS[text]
                self.take("(")
                args = [self.expr(level=level + 1)]
                while self.peek()[0] == ",":
                    self.take()
                    args.append(self.expr(level=level + 1))
                self.take(")")
                if len(args) < lo or (hi is not None and len(args) > hi):
                    raise ParseError(
                        f"{text} takes {lo if hi == lo else f'{lo}..{hi or chr(8734)}'} "
                        f"arguments, got {len(args)}",
                        position=start,
                    )
                return (Call(text, tuple(e for e, _ in args)),
                        1 + max(height for _, height in args))
            raise ParseError(f"unknown name {text!r}", position=start)
        raise ParseError(f"unexpected token {text!r}", position=start)


def _too_deep(position) -> ParseError:
    return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", position=position)


def parse_expr(text: str, d: int | None = None):
    """Parse an expression; with d given, reject coordinates beyond x<d>."""
    return _Parser(_tokenize(text), d).parse()


def evaluate(expr, coords) -> Fraction:
    """Evaluate on a coordinate tuple.  Exact and total."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Coord):
        if expr.index > len(coords):
            raise DimensionError(f"x{expr.index} out of range for {coords!r}")
        return Fraction(coords[expr.index - 1])
    if isinstance(expr, CoordSum):
        return Fraction(sum(coords))
    if isinstance(expr, BinOp):
        return _OPS[expr.op][1](evaluate(expr.left, coords), evaluate(expr.right, coords))
    if isinstance(expr, Call):
        return _FUNCTIONS[expr.name][2]([evaluate(a, coords) for a in expr.args])
    raise TypeError(f"not an expression node: {expr!r}")


def format_expr(expr) -> str:
    """Render with minimal parentheses; parse(format(e)) == e."""

    def fmt(e, parent_prec):
        if isinstance(e, Lit):
            return str(e.value)
        if isinstance(e, Coord):
            return f"x{e.index}"
        if isinstance(e, CoordSum):
            return "sum()"
        if isinstance(e, Call):
            return f"{e.name}({', '.join(fmt(a, 0) for a in e.args)})"
        prec = _OPS[e.op][0]
        # left-associative grammar: the right child needs parens at equal
        # precedence or the tree would re-parse differently
        text = f"{fmt(e.left, prec)} {e.op} {fmt(e.right, prec + 1)}"
        if prec < parent_prec:
            return f"({text})"
        return text

    return fmt(expr, 0)
