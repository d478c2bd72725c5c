"""Additive-error Lipschitz filter via rounds of violation matchings.

Round t (t = 2..T) takes a maximal matching of the tau_t-violation graph
of the previous round's function and moves each matched pair's values
toward each other by delta_t = tau_t / 2, where tau_t = r * (2/3)^(t-1).
After round T the maximum violation score is at most slack, so the output
is (1 + slack)-Lipschitz; values never leave [lo, lo + r] and the l1
distance to any fixed Lipschitz function never grows from round to round.

The matching of round t is the random-order greedy maximal matching on
ranks seeded by ``seed.derive("iter", t)``.  ``LocalFilterL1.table``
computes each round globally from one store of scans at the final round's
radius, which holds every round's violated pairs; ``value`` simulates the
same computation per query through the seeded matching LCA, which answers
exactly the global greedy matching, so both give the same values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParam, PartialFunction
from .matching import DEFAULT_EDGE_BUDGET, MatchingLCA, greedy_maximal_matching
from .seeds import Seed
from .violation import (
    DEFAULT_SCAN_BUDGET, _violated_pairs, scan_radius, scan_scored_neighbors,
)

DEFAULT_SLACK = Fraction(1, 100)


@dataclass(frozen=True)
class Schedule:
    """Round count and per-round thresholds for given r and slack."""

    r: Fraction
    slack: Fraction
    rounds: int  # T; rounds run for t = 2..T, so T = 1 means identity

    def tau(self, t: int) -> Fraction:
        if not 2 <= t <= self.rounds:
            raise InvalidParam(f"round {t} outside 2..{self.rounds}")
        return self.r * Fraction(2, 3) ** (t - 1)

    def delta(self, t: int) -> Fraction:
        return self.tau(t) / 2

    @property
    def final_threshold(self) -> Fraction:
        if self.rounds == 1:
            return self.r
        return self.tau(self.rounds)


def make_schedule(r, slack) -> Schedule:
    """T = 1 + (least k with (3/2)^k >= r / slack), computed exactly.

    Guarantees r * (2/3)^(T-1) <= slack; slack >= r degenerates to T = 1
    and the filter is the identity.
    """
    r = Fraction(r)
    slack = Fraction(slack)
    if r < 0:
        raise InvalidParam(f"range diameter must be nonnegative, got {r}")
    if slack <= 0:
        raise InvalidParam(f"slack must be positive, got {slack}")
    ratio = r / slack
    k = 0
    power = Fraction(1)
    while power < ratio:
        power *= Fraction(3, 2)
        k += 1
    return Schedule(r=r, slack=slack, rounds=k + 1)


class LocalFilterL1:
    """The round-based filter for one (f, seed), by point or by table.

    ``value(x)`` recurses through rounds, resolving each round's matching
    locally through the matching LCA; all verdicts and values are memoized
    so repeated queries share work.  Round t's neighbour oracle scans the
    round t - 1 values at round t's own radius ``scan_radius(r, tau_t)``;
    the LCA reads each vertex's neighbours once, so the scans need no
    cache of their own.

    ``table(t)`` computes each round globally instead, from one store of
    scans at the final round's radius (see ``table``).  It shares the
    round memos with ``value`` but not the scans, so the two can be mixed
    in one session without changing any value.
    """

    def __init__(self, graph, f, seed: Seed, *, slack=DEFAULT_SLACK,
                 scan_budget=DEFAULT_SCAN_BUDGET, match_budget=DEFAULT_EDGE_BUDGET):
        self.graph = graph
        self.f = f
        self.seed = seed
        self.schedule = make_schedule(f.r, slack)
        self.lo, self.hi = f.lo, f.hi
        self.scan_budget = scan_budget
        self.match_budget = match_budget
        self._tables: dict[int, dict] = {t: {} for t in range(1, self.schedule.rounds + 1)}
        self._radii = {t: scan_radius(self.schedule.r, self.schedule.tau(t))
                       for t in range(2, self.schedule.rounds + 1)}
        self._matchers: dict[int, MatchingLCA] = {}
        self._done = 0  # last round table() has completed
        self._scans: dict = {}  # table()'s {vertex: {y: score}} at the final radius

    # -- round values ---------------------------------------------------

    def _value(self, x, t: int) -> Fraction:
        memo = self._tables[t]
        v = memo.get(x)
        if v is not None:
            return v
        if t == 1:
            v = self.f.lookup(x)
            if v is None:
                raise PartialFunction(f"filter needs a total function; f({x!r}) = ?")
        else:
            v = self._value(x, t - 1)
            partner = self._matcher(t).match_of(x)
            if partner is not None:
                w = self._value(partner, t - 1)
                delta = self.schedule.delta(t)
                v = v + delta if w > v else v - delta
        memo[x] = v
        return v

    def _matcher(self, t: int) -> MatchingLCA:
        m = self._matchers.get(t)
        if m is None:
            tau = self.schedule.tau(t)
            radius = self._radii[t]

            def adjacent(v):
                # at radius 0 no pair can be tau-violated (r - tau <= 1)
                if radius == 0:
                    return []
                scan = scan_scored_neighbors(
                    self.graph, lambda y: self._value(y, t - 1), v, radius=radius,
                    lo=self.lo, hi=self.hi, budget=self.scan_budget,
                )
                return [y for y, s in scan.items() if s > tau]

            m = MatchingLCA(
                adjacent,
                self.seed.derive("iter", t),
                encode=self.graph.canon,
                budget=self.match_budget,
            )
            self._matchers[t] = m
        return m

    # -- public API -----------------------------------------------------

    def _round_arg(self, t: int | None) -> int:
        t = self.schedule.rounds if t is None else t
        if not 1 <= t <= self.schedule.rounds:
            raise InvalidParam(f"round {t} outside 1..{self.schedule.rounds}")
        return t

    def value(self, x, t: int | None = None) -> Fraction:
        """g_t(x); t defaults to the final round."""
        # a memo hit skips f's vertex check, and (0.0, True) would hit (0, 1)
        self.graph.check_vertex(x)
        return self._value(x, self._round_arg(t))

    def table(self, t: int | None = None) -> dict:
        """Full table at round t, computing rounds in order.

        A pair tau_s-violated in round s sits within ``scan_radius(r,
        tau_s)``, which grows with s, so one scan per vertex at the final
        round's radius holds every round's edges.  Round 2 makes those
        scans against round 1.  Each round s matches the pairs scoring
        above tau_s with the global greedy matching on the LCA's ranks,
        moves each matched value by delta_s, and replaces the values
        ``value`` memoized for round s, which equal the new table by
        construction.  Before the next round it updates the scans in
        place: each moved value c leaves the scans of its old partners,
        and one rescan of c against the new table writes every positive
        score into both scans[c] and scans[y].  Scores and ball membership
        are symmetric, so this gives the scans a fresh session would
        make.  The final round drops the scans.  A final radius of 0
        leaves every round without an edge and makes no scan.  A later
        call resumes after the last round done.
        """
        t = self._round_arg(t)
        rounds = self.schedule.rounds
        vertices = list(self.graph.vertices())
        radius = self._radii.get(rounds, 0)
        scans = self._scans

        def scan(v, table):
            return scan_scored_neighbors(
                self.graph, table.get, v, radius=radius, lo=self.lo, hi=self.hi,
                budget=self.scan_budget)

        for s in range(self._done + 1, t + 1):
            if s == 1:
                for x in vertices:
                    self._value(x, 1)
                self._done = 1
                continue
            old = self._tables[s - 1]
            if s == 2 and radius > 0:
                for v in vertices:
                    scans[v] = scan(v, old)
            tau = self.schedule.tau(s)
            edges = [(v, y) for v, vs in scans.items()
                     for y, score in vs.items() if v < y and score > tau]
            partner = greedy_maximal_matching(
                edges, self.seed.derive("iter", s), encode=self.graph.canon)
            new = dict(old)
            delta = self.schedule.delta(s)
            for u, w in partner.items():
                new[u] = old[u] + delta if old[w] > old[u] else old[u] - delta
            self._tables[s] = new
            self._done = s
            if s == rounds:
                scans.clear()
                continue
            for c in partner:
                for y in scans[c]:
                    del scans[y][c]
                scans[c] = scan(c, new)
                for y, score in scans[c].items():
                    scans[y][c] = score
        return {x: self._tables[t][x] for x in vertices}


def local_filter_l1(graph, f, seed: Seed, x, *, slack=DEFAULT_SLACK, **kw) -> Fraction:
    """One-shot query; see LocalFilterL1 for sessions."""
    return LocalFilterL1(graph, f, seed, slack=slack, **kw).value(x)


def global_filter_l1(graph, f, seed: Seed, *, slack=DEFAULT_SLACK,
                     trace=False, scan_budget=DEFAULT_SCAN_BUDGET):
    """Reference implementation: materialize every round over the domain.

    Uses the global greedy matching on the same seeded ranks as the LCA,
    so outputs match LocalFilterL1 exactly.  With ``trace=True`` returns
    the list [g_1, ..., g_T].
    """
    schedule = make_schedule(f.r, slack)
    lo, hi = f.lo, f.hi
    current = {}
    for x in graph.vertices():
        v = f.lookup(x)
        if v is None:
            raise PartialFunction(f"filter needs a total function; f({x!r}) = ?")
        current[x] = v
    tables = [dict(current)]
    for t in range(2, schedule.rounds + 1):
        tau = schedule.tau(t)
        delta = schedule.delta(t)
        edges = [
            (x, y)
            for x, y, s in _violated_pairs(
                graph, current.get, radius=scan_radius(schedule.r, tau),
                lo=lo, hi=hi, budget=scan_budget,
            )
            if s > tau
        ]
        partner = greedy_maximal_matching(
            edges, seed.derive("iter", t), encode=graph.canon
        )
        for u, v in partner.items():
            if u < v:
                low, high = (u, v) if current[u] < current[v] else (v, u)
                current[low] += delta
                current[high] -= delta
        if trace:
            tables.append(dict(current))
    if trace:
        return tables
    return current
