"""Additive-error Lipschitz filter via rounds of violation matchings.

Round t (t = 2..T) takes a maximal matching of the tau_t-violation graph
of the previous round's function and moves each matched pair's values
toward each other by delta_t = tau_t / 2, where tau_t = r * (2/3)^(t-1).
After round T the maximum violation score is at most slack, so the output
is (1 + slack)-Lipschitz; values never leave [lo, lo + r] and the l1
distance to any fixed Lipschitz function never grows from round to round.

The local filter simulates exactly this computation per query, sharing
per-round matchings through the seeded matching LCA.
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
    """Per-query simulation of the round-based filter for one (f, seed).

    ``value(x)`` recurses through rounds, resolving each round's matching
    locally; all verdicts, values, and violation scans are memoized so
    repeated or bulk queries share work.  Round t scans the round t - 1
    values at its own radius ``scan_radius(r, tau_t)``.  ``table(t)``
    drives the same recursion round by round over the whole domain; when
    it completes a round, it carries each scan forward to the next round
    unless a value moved within the scan radius, and drops the scans no
    matching will ask for again.
    """

    def __init__(self, graph, f, seed: Seed, *, slack=DEFAULT_SLACK, r=None,
                 scan_budget=DEFAULT_SCAN_BUDGET, match_budget=DEFAULT_EDGE_BUDGET):
        self.graph = graph
        self.f = f
        self.seed = seed
        self.schedule = make_schedule(f.r if r is None else r, slack)
        self.scan_budget = scan_budget
        self.match_budget = match_budget
        self._tables: dict[int, dict] = {t: {} for t in range(1, self.schedule.rounds + 1)}
        self._radii = {t: scan_radius(self.schedule.r, self.schedule.tau(t))
                       for t in range(2, self.schedule.rounds + 1)}
        self._matchers: dict[int, MatchingLCA] = {}
        self._scans: dict[int, dict] = {}  # version -> {vertex: [(y, score), ...]}
        self._complete: set[int] = set()

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

            def adjacent(v):
                # at radius 0 no pair can be tau-violated (r - tau <= 1)
                if self._radii[t] == 0:
                    return []
                scans = self._scans.setdefault(t - 1, {})
                if v not in scans:
                    scans[v] = scan_scored_neighbors(
                        self.graph,
                        lambda y: self._value(y, t - 1),
                        self.schedule.r,
                        v,
                        radius=self._radii[t],
                        budget=self.scan_budget,
                    )
                return [y for y, s in scans[v] if s > tau]

            m = MatchingLCA(
                adjacent,
                self.seed.derive("iter", t),
                encode=self.graph.canon,
                budget=self.match_budget,
            )
            self._matchers[t] = m
        return m

    def _carry(self, s: int, vertices) -> None:
        """Carry the round s - 1 scans forward once round s is complete.

        A scan against round s - 1 still holds against round s when no
        value within its radius moved, and round s + 1 can use it when it
        scans at the same radius.  Dropping the round s - 1 scans is safe:
        completing round s ran match_of on every vertex, so the round-s
        matcher has cached every adjacency and never asks for them again.
        A round at radius 0 makes no scans, so there is nothing to carry.
        """
        old = self._scans.pop(s - 1, None)
        radius = self._radii[s]
        if old is None or self._radii.get(s + 1) != radius:
            return
        dirty = set()
        for c in vertices:
            if self._tables[s][c] != self._tables[s - 1][c]:
                dirty.update(
                    y for y, _ in self.graph.ball(c, radius, budget=self.scan_budget)
                )
        self._scans.setdefault(s, {}).update(
            (v, scored) for v, scored in old.items() if v not in dirty
        )

    # -- public API -----------------------------------------------------

    def value(self, x, t: int | None = None) -> Fraction:
        """g_t(x); t defaults to the final round."""
        t = self.schedule.rounds if t is None else t
        if not 1 <= t <= self.schedule.rounds:
            raise InvalidParam(f"round {t} outside 1..{self.schedule.rounds}")
        return self._value(x, t)

    def table(self, t: int | None = None) -> dict:
        """Full table at round t, computing rounds in order.

        Each completed round carries its scans forward (see ``_carry``), so
        a round at the previous round's scan radius rescans only near
        moved values.
        """
        t = self.schedule.rounds if t is None else t
        vertices = list(self.graph.vertices())
        for s in range(1, t + 1):
            if s in self._complete:
                continue
            for x in vertices:
                self._value(x, s)
            self._complete.add(s)
            if s > 1:
                self._carry(s, vertices)
        return {x: self._tables[t][x] for x in vertices}

    def match_of(self, x, t: int):
        """Partner of x in the round-t matching (None if unmatched)."""
        return self._matcher(t).match_of(x)


def local_filter_l1(graph, f, seed: Seed, x, *, slack=DEFAULT_SLACK, **kw) -> Fraction:
    """One-shot query; see LocalFilterL1 for sessions."""
    return LocalFilterL1(graph, f, seed, slack=slack, **kw).value(x)


def global_filter_l1(graph, f, seed: Seed, *, slack=DEFAULT_SLACK, r=None,
                     trace=False, scan_budget=DEFAULT_SCAN_BUDGET):
    """Reference implementation: materialize every round over the domain.

    Uses the global greedy matching on the same seeded ranks as the LCA,
    so outputs match LocalFilterL1 exactly.  With ``trace=True`` returns
    the list [g_1, ..., g_T].
    """
    schedule = make_schedule(f.r if r is None else r, slack)
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
                graph, current.get, schedule.r,
                radius=scan_radius(schedule.r, tau), budget=scan_budget,
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
