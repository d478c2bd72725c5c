"""Lookup oracles for (possibly partial) bounded-range functions.

Values are exact Fractions; ``None`` is the undefined marker (written "?"
in JSON).  Every oracle counts lookups; wrapper oracles count their own
lookups and forward to the wrapped oracle, whose counter moves as well.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from fractions import Fraction

from . import exprs
from .errors import InvalidInterval, InvalidParam, OutOfDomain, RangeViolation
from .graphs import ExplicitGraph, Hypercube, Hypergrid

UNDEFINED = None


def parse_rational(s) -> Fraction:
    """Parse "p/q", "3", "0.25", ints, or Fractions into a Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        # floats arrive from CLI flags; use their decimal rendering so that
        # 0.25 means 1/4, not the nearest binary fraction of a repr quirk
        return Fraction(repr(s))
    return Fraction(str(s).strip())


def format_rational(v: Fraction) -> str:
    return str(v)


def parse_value(s):
    if s == "?" or s is None:
        return None
    return parse_rational(s)


def format_value(v) -> str:
    return "?" if v is None else str(v)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidInterval(f"interval [{self.lo}, {self.hi}] is empty")

    def contains(self, v) -> bool:
        return self.lo <= v <= self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @staticmethod
    def of(lo, hi) -> "Interval":
        return Interval(parse_rational(lo), parse_rational(hi))


class FunctionOracle:
    """Base class: lookup with domain check, range check, and counting.

    Defined values live in [lo, lo + r]; ``r`` is the claimed range
    diameter.  ``lo`` is 0 for ordinary oracles and shifts for clipped or
    interval-restricted views.
    """

    def __init__(self, r, *, lo=0, graph=None, validate_range: bool = True):
        self.r = parse_rational(r)
        self.lo = parse_rational(lo)
        if self.r < 0:
            raise RangeViolation(f"range diameter must be nonnegative, got {self.r}")
        self.graph = graph
        self.validate_range = validate_range
        self._lookups = 0
        self._lock = threading.Lock()

    @property
    def hi(self) -> Fraction:
        return self.lo + self.r

    @property
    def lookups(self) -> int:
        """Calls to ``lookup``.  Inside a filter session: the distinct vertices
        read (the session memo's misses), not the filter's lookup calls."""
        return self._lookups

    def reset_lookups(self) -> None:
        with self._lock:
            self._lookups = 0

    def lookup(self, x):
        if self.graph is not None:
            self.graph.check_vertex(x)
        with self._lock:
            self._lookups += 1
        v = self._value(x)
        if v is not None and self.validate_range and not (self.lo <= v <= self.hi):
            raise RangeViolation(
                f"f({x!r}) = {v} outside claimed range [{self.lo}, {self.hi}]"
            )
        return v

    def _value(self, x):
        raise NotImplementedError

    def clip(self, lo, hi) -> "ClippedFunction":
        return ClippedFunction(self, parse_rational(lo), parse_rational(hi))

    def restrict(self, interval: Interval) -> "RestrictedFunction":
        return RestrictedFunction(self, interval)


class TableFunction(FunctionOracle):
    """Dense or defaulted table of values, validated at construction."""

    def __init__(self, graph, values: dict, r, *, default="?", lo=0):
        super().__init__(r, lo=lo, graph=graph)
        self.default = parse_value(default)
        table = {}
        for x, v in values.items():
            graph.check_vertex(x)
            v = parse_value(v)
            if v is not None and not (self.lo <= v <= self.hi):
                raise RangeViolation(
                    f"table value f({x!r}) = {v} outside [{self.lo}, {self.hi}]"
                )
            table[x] = v
        if self.default is not None and not (self.lo <= self.default <= self.hi):
            raise RangeViolation(f"default value {self.default} out of range")
        self._table = table
        self.validate_range = False  # everything checked above

    def _value(self, x):
        return self._table.get(x, self.default)


class ExprFunction(FunctionOracle):
    """Oracle backed by a DSL expression, evaluated per lookup.

    Out-of-range values surface as RangeViolation at the first offending
    lookup unless ``validate_range=False`` (mechanisms clip instead).
    """

    def __init__(self, graph, program, r, *, lo=0, validate_range=True):
        super().__init__(r, lo=lo, graph=graph, validate_range=validate_range)
        if isinstance(program, str):
            d = getattr(graph, "d", None)
            program = exprs.parse_expr(program, d)
        self.program = program

    def _value(self, x):
        coords = x if isinstance(x, tuple) else (x,)
        return exprs.evaluate(self.program, coords)


class CallableFunction(FunctionOracle):
    """Oracle over a plain callable returning Fraction | None."""

    def __init__(self, graph, fn, r, *, lo=0, validate_range=True):
        super().__init__(r, lo=lo, graph=graph, validate_range=validate_range)
        self._fn = fn

    def _value(self, x):
        return self._fn(x)


class ClippedFunction(FunctionOracle):
    """The truncation f[lo, hi]: identity inside, clamped outside."""

    def __init__(self, base: FunctionOracle, lo, hi):
        if lo > hi:
            raise InvalidInterval(f"clip bounds out of order: {lo} > {hi}")
        super().__init__(hi - lo, lo=lo, graph=base.graph, validate_range=False)
        self.base = base

    def _value(self, x):
        v = self.base.lookup(x)
        if v is None:
            return None
        return min(max(v, self.lo), self.hi)


class RestrictedFunction(FunctionOracle):
    """The interval restriction f_I: f where f lands in I, else undefined."""

    def __init__(self, base: FunctionOracle, interval: Interval):
        super().__init__(
            interval.width, lo=interval.lo, graph=base.graph, validate_range=False
        )
        self.base = base
        self.interval = interval

    def _value(self, x):
        v = self.base.lookup(x)
        if v is None or not self.interval.contains(v):
            return None
        return v


def _graph_from_domain(dom: dict):
    kind = dom.get("kind")
    if kind == "hypergrid":
        return Hypergrid(int(dom["n"]), int(dom["d"]))
    if kind == "hypercube":
        return Hypercube(int(dom["d"]))
    if kind == "explicit":
        return ExplicitGraph(int(dom["vertices"]), dom.get("edges", []))
    raise OutOfDomain(f"unknown domain kind {kind!r}")


def _domain_to_json(graph) -> dict:
    if isinstance(graph, Hypercube):
        return {"kind": "hypercube", "d": graph.d}
    if isinstance(graph, Hypergrid):
        return {"kind": "hypergrid", "n": graph.n, "d": graph.d}
    return {"kind": "explicit", "vertices": graph.n_vertices,
            "edges": [list(e) for e in graph.edges()]}


def load_function(source) -> tuple:
    """Read a function-table JSON document; returns (graph, TableFunction).

    Format: {"domain": {...}, "r": "p/q", "values": {canon: "p/q" | "?"},
    "default": "p/q" | "?"}.  ``source`` is a dict, JSON text, or a path.
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except ValueError:
            try:
                with open(source) as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise InvalidParam(f"cannot read function {source!r}: {exc}") from exc
    else:
        data = source
    try:
        domain = data["domain"]
        r = data["r"]
    except (TypeError, KeyError) as exc:
        raise InvalidParam(f"function document missing {exc}") from exc
    graph = _graph_from_domain(domain)
    values = {
        graph.from_canon(k): parse_value(v) for k, v in data.get("values", {}).items()
    }
    f = TableFunction(
        graph, values, parse_rational(r), default=data.get("default", "?")
    )
    return graph, f


def function_to_json(graph, f, *, default=None) -> dict:
    """Serialize a total or partial function by exhaustive lookup."""
    values = {}
    for x in graph.vertices():
        v = f.lookup(x) if isinstance(f, FunctionOracle) else f.get(x)
        values[graph.canon(x)] = format_value(v)
    r = f.r if isinstance(f, FunctionOracle) else default
    return {
        "domain": _domain_to_json(graph),
        "r": format_rational(parse_rational(r)),
        "values": values,
        "default": "?",
    }
