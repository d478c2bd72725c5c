"""Lookup oracles for (possibly partial) bounded-range functions.

Values are exact Fractions; ``None`` is the undefined marker (written "?"
in JSON).  Every oracle counts the values read from it.  ``lookup`` checks
the vertex and, for oracles whose values are computed (expressions and
callables), the claimed range.  The clip and restrict wrappers read their
base unchecked, since they exist to absorb values outside its range; the
base counter still moves once per wrapper read.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from . import exprs
from .errors import InvalidInterval, InvalidParam, OutOfDomain, RangeViolation
from .graphs import Hypercube, Hypergrid, load_graph, read_int, read_json


def parse_rational(s) -> Fraction:
    """Parse "p/q", "3", "0.25", ints, or Fractions into a Fraction.

    Raises InvalidParam on text that is not a finite rational.
    """
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    # floats arrive from CLI flags; use their decimal rendering so that
    # 0.25 means 1/4, not the nearest binary fraction of a repr quirk
    text = repr(s) if isinstance(s, float) else str(s).strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidParam(f"not a rational number: {text!r}") from None


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
    """Base class: a counted read, and ``lookup``'s checks around it.

    Defined values live in [lo, lo + r]; ``r`` is the claimed range
    diameter.  ``lo`` is 0 for ordinary oracles and shifts for clipped or
    interval-restricted views.  ``lookup`` checks the vertex, reads the
    value with ``_read``, and raises RangeViolation for a value outside
    [lo, hi] if the class sets ``checks_range``; classes whose values are
    in range by construction clear it.  Violation scans trust that every
    defined value ``lookup`` returns lies in [lo, hi]: each scan walks only
    as far as a partner of its centre can sit, which that interval bounds.
    """

    checks_range = True

    def __init__(self, r, *, lo=0, graph=None):
        self.r = parse_rational(r)
        self.lo = parse_rational(lo)
        if self.r < 0:
            raise RangeViolation(f"range diameter must be nonnegative, got {self.r}")
        self.graph = graph
        self._lookups = 0
        self._lock = threading.Lock()

    @property
    def hi(self) -> Fraction:
        return self.lo + self.r

    @property
    def lookups(self) -> int:
        """Values read: ``lookup`` calls plus wrapper reads.  Inside a filter
        session: the distinct vertices read (the session memo's misses), not
        the filter's lookup calls."""
        return self._lookups

    def reset_lookups(self) -> None:
        with self._lock:
            self._lookups = 0

    def lookup(self, x):
        if self.graph is not None:
            self.graph.check_vertex(x)
        v = self._read(x)
        if v is not None and self.checks_range and not (self.lo <= v <= self.hi):
            raise RangeViolation(
                f"f({x!r}) = {v} outside claimed range [{self.lo}, {self.hi}]"
            )
        return v

    def _read(self, x):
        """The value at x, counted, with neither check."""
        with self._lock:
            self._lookups += 1
        return self._value(x)

    def _value(self, x):
        raise NotImplementedError

    def clip(self, lo, hi) -> "ClippedFunction":
        return ClippedFunction(self, parse_rational(lo), parse_rational(hi))

    def restrict(self, interval: Interval) -> "RestrictedFunction":
        return RestrictedFunction(self, interval)


class ValueMemo(dict):
    """f's values by vertex; a missing vertex is read with ``f.lookup``
    once."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, x):
        v = self[x] = self.f.lookup(x)
        return v


class TableFunction(FunctionOracle):
    """Dense or defaulted table of values, validated at construction."""

    checks_range = False

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

    def _value(self, x):
        return self._table.get(x, self.default)


class ExprFunction(FunctionOracle):
    """Oracle backed by a DSL expression, evaluated per lookup.

    An out-of-range value raises RangeViolation at each lookup that reads
    it; ``clip`` and ``restrict`` views read it without raising.
    """

    def __init__(self, graph, program, r, *, lo=0):
        super().__init__(r, lo=lo, graph=graph)
        if isinstance(program, str):
            d = graph.d if isinstance(graph, Hypergrid) else None
            program = exprs.parse_expr(program, d)
        self.program = program

    def _value(self, x):
        coords = x if isinstance(x, tuple) else (x,)
        return exprs.evaluate(self.program, coords)


class CallableFunction(FunctionOracle):
    """Oracle over a plain callable returning Fraction | int | None.

    Ints become Fractions; any other result (a float, a bool, a string)
    raises RangeViolation naming the vertex.
    """

    def __init__(self, graph, fn, r, *, lo=0):
        super().__init__(r, lo=lo, graph=graph)
        self._fn = fn

    def _value(self, x):
        v = self._fn(x)
        if v is None or isinstance(v, Fraction):
            return v
        if type(v) is int:
            return Fraction(v)
        raise RangeViolation(
            f"f({self.graph.canon(x)}) = {v!r} is not a Fraction, an int or ?")


class ClippedFunction(FunctionOracle):
    """The truncation f[lo, hi]: identity inside, clamped outside."""

    checks_range = False

    def __init__(self, base: FunctionOracle, lo, hi):
        if lo > hi:
            raise InvalidInterval(f"clip bounds out of order: {lo} > {hi}")
        super().__init__(hi - lo, lo=lo, graph=base.graph)
        self.base = base

    def _value(self, x):
        v = self.base._read(x)
        if v is None:
            return None
        return min(max(v, self.lo), self.hi)


class RestrictedFunction(FunctionOracle):
    """The interval restriction f_I: f where f lands in I, else undefined."""

    checks_range = False

    def __init__(self, base: FunctionOracle, interval: Interval):
        super().__init__(interval.width, lo=interval.lo, graph=base.graph)
        self.base = base
        self.interval = interval

    def _value(self, x):
        v = self.base._read(x)
        if v is None or not self.interval.contains(v):
            return None
        return v


def _graph_from_domain(dom: dict):
    if not isinstance(dom, dict):
        raise InvalidParam(f"function domain must be a JSON object, got {dom!r}")
    kind = dom.get("kind")
    if kind == "explicit":
        return load_graph(dom)
    what = f"{kind} domain"
    if kind == "hypergrid":
        return Hypergrid(read_int(dom, "n", what), read_int(dom, "d", what))
    if kind == "hypercube":
        return Hypercube(read_int(dom, "d", what))
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
    data = read_json(source, "function")
    try:
        domain = data["domain"]
        r = data["r"]
    except (TypeError, KeyError) as exc:
        raise InvalidParam(f"function document missing {exc}") from exc
    graph = _graph_from_domain(domain)
    values = data.get("values", {})
    if not isinstance(values, dict):
        raise InvalidParam(f"function values must be a JSON object, got {values!r}")
    values = {graph.from_canon(k): parse_value(v) for k, v in values.items()}
    f = TableFunction(
        graph, values, parse_rational(r), default=data.get("default", "?")
    )
    return graph, f


def function_to_json(graph, f: FunctionOracle) -> dict:
    """Serialize a total or partial function by exhaustive lookup."""
    return {
        "domain": _domain_to_json(graph),
        "r": format_rational(f.r),
        "values": {graph.canon(x): format_value(f.lookup(x)) for x in graph.vertices()},
        "default": "?",
    }
