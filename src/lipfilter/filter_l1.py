"""Additive-error Lipschitz filter via rounds of violation matchings.

Round t (t = 2..T) takes a maximal matching of the tau_t-violation graph
of the previous round's function and moves each matched pair's values
toward each other by delta_t = tau_t / 2, where tau_t = r * (2/3)^(t-1).
After round T the maximum violation score is at most slack, so the output
is (1 + slack)-Lipschitz; values never leave [lo, lo + r] and the l1
distance to any fixed Lipschitz function never grows from round to round.

The matching of round t is the random-order greedy maximal matching on
ranks seeded by ``seed.derive("iter", t)``.  Every round asks the one
violation scan for the pairs scoring above its tau_t and leaves the scan
to decide how far to look.  ``LocalFilterL1.table`` computes every round
globally, once, from scans at the final round's threshold, which find
every round's violated pairs: each pair found is filed once, under the
first round it enters, with a count of how often its ends' values have
moved, and a round matches the pairs filed by then whose ends have not
moved since.  ``value`` simulates the same computation per query through
the seeded matching LCA, which answers exactly the global greedy
matching, so both give the same values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParam, PartialFunction
from .functions import ValueMemo, parse_rational
from .matching import MatchingLCA, greedy_maximal_matching
from .seeds import Seed
from .violation import _violated_pairs, scan_scored_neighbors

DEFAULT_SLACK = Fraction(1, 100)


@dataclass(frozen=True)
class Schedule:
    """Round count and per-round thresholds for given r and slack."""

    r: Fraction
    slack: Fraction
    rounds: int  # T; rounds run for t = 2..T, so T = 1 means identity

    def tau(self, t: int) -> Fraction:
        if type(t) is not int or not 2 <= t <= self.rounds:
            raise InvalidParam(f"round t must be an int in 2..{self.rounds}, got {t!r}")
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
    and the filter is the identity.  ``r`` and ``slack`` are read with
    ``parse_rational``, so a bool raises InvalidParam.
    """
    r = parse_rational(r)
    slack = parse_rational(slack)
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
    round t - 1 values for the partners scoring above round t's own tau_t;
    the LCA reads each vertex's neighbours once, so the scans need no
    cache of their own.

    ``table(t)`` computes every round globally instead, once, from scans
    at the final round's threshold whose pairs are filed under the rounds
    they enter (see ``table``).  It shares the round memos with ``value``
    but not the scans, so the two can be mixed in one session without
    changing any value.  The round memos, the scans and the matchings key
    by vertex id (see ``graphs``); ``value`` and ``table`` take and return
    vertices.
    """

    def __init__(self, graph, f, seed: Seed, *, slack=DEFAULT_SLACK):
        self.graph = graph
        self.f = f
        self.seed = seed
        self.schedule = make_schedule(f.r, slack)
        self.bounds = f.bounds
        self._tables: dict[int, dict] = {t: {} for t in range(1, self.schedule.rounds + 1)}
        self._matchers = ValueMemo(self._new_matcher)

    # -- round values ---------------------------------------------------

    def _value(self, i, t: int) -> Fraction:
        memo = self._tables[t]
        v = memo.get(i)
        if v is not None:
            return v
        if t == 1:
            v = self.f.lookup(self.graph.vertex(i))
            if v is None:
                raise PartialFunction(
                    f"filter needs a total function; f({self.graph.canon_of(i)}) = ?")
        else:
            v = self._value(i, t - 1)
            partner = self._matchers[t].match_of(i)
            if partner is not None:
                w = self._value(partner, t - 1)
                delta = self.schedule.delta(t)
                v = v + delta if w > v else v - delta
        memo[i] = v
        return v

    def _new_matcher(self, t: int) -> MatchingLCA:
        tau = self.schedule.tau(t)

        def adjacent(v):
            return list(scan_scored_neighbors(
                self.graph, lambda y: self._value(y, t - 1), v, tau=tau,
                bounds=self.bounds))

        return MatchingLCA(
            adjacent, self.seed.derive("iter", t), encode=self.graph.canon_of)

    # -- public API -----------------------------------------------------

    def _round_arg(self, t: int | None) -> int:
        t = self.schedule.rounds if t is None else t
        if type(t) is not int or not 1 <= t <= self.schedule.rounds:
            raise InvalidParam(
                f"round t must be an int in 1..{self.schedule.rounds}, got {t!r}")
        return t

    def value(self, x, t: int | None = None) -> Fraction:
        """g_t(x); t defaults to the final round."""
        return self._value(self.graph.index(x), self._round_arg(t))

    def table(self, t: int | None = None) -> dict:
        """Full table at round t; the first call computes every round.

        tau_s shrinks as s grows, so one scan per vertex at the final
        round's threshold holds every round's edges.  The first scans are
        made against round 1, upward only: each vertex walks the ball a
        partner of higher value can sit in, so every violated pair is
        found once, from its lower end, and a vertex at the top of the
        range walks nothing.  Each pair found is filed under its entry
        round: the first round, from 2 on, whose tau the score exceeds,
        decided in ints.  No score is kept, since the taus are fixed and a
        score exceeding tau_s0 exceeds every later tau.  Beside the pair
        goes the sum of its ends' move counts, the number of times each
        end's value has moved so far.

        Round s matches those of the pairs filed under rounds <= s whose
        ends' counts have not changed, with the global greedy matching on
        the LCA's ranks; the others are stale and are dropped for good.
        Counts only grow, so the sum is unchanged only if both counts are.
        Each matched pair's values move toward each other by delta_s, and
        the round replaces the values ``value`` memoized for round s,
        which equal the new table by construction.  Before the next round
        the count of each moved value c goes up by one, and then one
        rescan of c against the new table, which looks both ways since c's
        partners may sit on either side, files every pair above the final
        threshold from round s + 1, except a partner that also moved and
        has the smaller id: scores are symmetric, so that partner's own
        rescan files the pair.  Each pair whose ends have not moved since
        it was filed is then filed once, as a fresh session would file it.
        """
        t = self._round_arg(t)
        rounds = self.schedule.rounds
        # a value memoized for round t sits on the round t - 1 value of
        # the same vertex, so a full last round means full rounds
        if len(self._tables[rounds]) < self.graph.n_vertices:
            self._run_rounds()
        table = self._tables[t]
        return {x: table[i] for i, x in enumerate(self.graph.vertices())}

    def _run_rounds(self) -> None:
        """Every round's table, computed globally; see ``table``."""
        rounds = self.schedule.rounds
        ids = range(self.graph.n_vertices)
        final = self.schedule.final_threshold
        # tau_s = A[s] / B[s] for s = 2..T
        A, B = [0, 0], [1, 1]
        for s in range(2, rounds + 1):
            tau = self.schedule.tau(s)
            A.append(tau.numerator)
            B.append(tau.denominator)
        moves = [0] * len(ids)  # times each value has moved
        # filed[s]: (x, y, moves[x] + moves[y]) for the pairs filed under s
        filed: list[list] = [[] for _ in range(rounds + 1)]

        def scan(v, table, start, upward=False, moved=()):
            # a score n/m enters at the first round s >= start with
            # n/m > A[s]/B[s]; it exceeds the final tau, so one exists
            for y, score in scan_scored_neighbors(
                    self.graph, table.get, v, tau=final, bounds=self.bounds,
                    upward=upward).items():
                if y < v and y in moved:
                    continue
                n, m = score.numerator, score.denominator
                s0 = start
                while n * B[s0] <= A[s0] * m:
                    s0 += 1
                filed[s0].append((v, y, moves[v] + moves[y]))

        for i in ids:
            self._value(i, 1)
        for v in ids:
            scan(v, self._tables[1], 2, upward=True)
        live = []
        for s in range(2, rounds + 1):
            live = [p for p in live + filed[s] if moves[p[0]] + moves[p[1]] == p[2]]
            partner = greedy_maximal_matching(
                [(x, y) for x, y, _ in live], self.seed.derive("iter", s),
                encode=self.graph.canon_of)
            old = self._tables[s - 1]
            new = dict(old)
            delta = self.schedule.delta(s)
            for u, w in partner.items():
                if u < w:
                    # old[u] < old[w], compared in ints
                    a, b = old[u], old[w]
                    if a.numerator * b.denominator < b.numerator * a.denominator:
                        new[u], new[w] = a + delta, b - delta
                    else:
                        new[u], new[w] = a - delta, b + delta
            self._tables[s] = new
            if s < rounds:
                for c in partner:
                    moves[c] += 1
                for c in partner:
                    scan(c, new, s + 1, moved=partner)


def global_filter_l1(graph, f, seed: Seed, *, slack=DEFAULT_SLACK,
                     trace=False):
    """Reference implementation: materialize every round over the domain.

    Uses the global greedy matching on the same seeded ranks as the LCA,
    so outputs match LocalFilterL1 exactly.  With ``trace=True`` returns
    the list [g_1, ..., g_T].
    """
    schedule = make_schedule(f.r, slack)
    vertices = list(graph.vertices())
    current = []  # the values by id
    for x in vertices:
        v = f.lookup(x)
        if v is None:
            raise PartialFunction(
                f"filter needs a total function; f({graph.canon(x)}) = ?")
        current.append(v)
    tables = [dict(zip(vertices, current))]
    for t in range(2, schedule.rounds + 1):
        delta = schedule.delta(t)
        edges = [(x, y) for x, y, _ in _violated_pairs(
            graph, current.__getitem__, tau=schedule.tau(t), bounds=f.bounds)]
        partner = greedy_maximal_matching(
            edges, seed.derive("iter", t), encode=graph.canon_of
        )
        for u, v in partner.items():
            if u < v:
                low, high = (u, v) if current[u] < current[v] else (v, u)
                current[low] += delta
                current[high] -= delta
        if trace:
            tables.append(dict(zip(vertices, current)))
    if trace:
        return tables
    return dict(zip(vertices, current))
