"""Differentially private release of values of a bounded-range function.

Two mechanisms, both built on the local filters so that a misbehaving
client function cannot leak more than a Lipschitz one:

- FilterMechanism: filter with slack 1, add Laplace(2/eps) noise.  One
  changed data point moves the filtered value by at most 2, so each
  answer is eps-DP.
- BinarySearchMechanism: locate f(x) by halving steps; each probe sees f
  clipped to a window around the current estimate and filtered, then
  noised.  Uses O(log r) probes with noise scale log2(r)/eps each.

All logarithms here are base 2.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParam
from .filter_l0 import LocalFilterL0
from .filter_l1 import LocalFilterL1
from .functions import Interval, parse_rational
from .graphs import Hypergrid
from .matching import DEFAULT_EDGE_BUDGET
from .seeds import Seed
from .violation import DEFAULT_SCAN_BUDGET


class NoiseSource:
    """Deterministic Laplace sampler; a random seed when none is given.

    Sampling inverts the CDF: X = -scale * sign(u) * ln(1 - 2|u|) for
    uniform u in (-1/2, 1/2).  For a noise-free, exact rational answer,
    pass ``noise=None`` to a mechanism instead of a source.
    """

    def __init__(self, seed: Seed | None = None):
        if seed is None:
            seed = Seed.random()
        self._rng = random.Random(int(seed.hex, 16))

    def laplace(self, scale):
        while True:
            u = self._rng.random() - 0.5
            if u > -0.5:
                break
        s = 1.0 if u >= 0 else -1.0
        return -float(scale) * s * math.log1p(-2.0 * abs(u))


def laplace_mechanism(value, scale, noise: NoiseSource):
    return value + noise.laplace(scale)


@dataclass(frozen=True)
class MechanismResult:
    value: object
    iterations: int
    lookups: int


class FilterMechanism:
    """Per-query eps-DP release of a 1-Lipschitz-corrected value.

    The client's function is clamped into [lo, lo+r] before filtering, so
    out-of-range submissions cannot widen the sensitivity.
    """

    def __init__(self, graph, f, eps, seed: Seed, *,
                 scan_budget: int = DEFAULT_SCAN_BUDGET,
                 match_budget: int = DEFAULT_EDGE_BUDGET):
        self.eps = parse_rational(eps)
        if self.eps <= 0:
            raise InvalidParam("eps must be positive")
        clipped = f.clip(f.lo, f.lo + f.r)
        self.filter = LocalFilterL1(
            graph, clipped, seed, slack=1,
            scan_budget=scan_budget, match_budget=match_budget)
        self.scale = Fraction(2) / self.eps

    def answer(self, x, noise: NoiseSource | None = None):
        g = self.filter.value(x)
        if noise is None:
            return g
        return laplace_mechanism(g, self.scale, noise)


class BinarySearchMechanism:
    """Estimate f(x) privately by noisy halving over the value range.

    The search range is min(r, n*d); each probe i in 2..ceil(log2 r)
    filters f restricted to [t - 2a, t + 2a] where a is the accuracy
    radius, then takes a noised reading.  A reading inside the band
    [t - a, t + a] is released immediately; otherwise the center t moves
    by ceil(r / 2^i) toward the reading and the search continues.  Filter
    sessions are cached per (probe, center) so repeated trials share
    their scans.  On a grid no wider than the window, a session reads
    the whole table when it opens, so the ``lookups`` of an answer do not
    depend on f(x).
    """

    def __init__(self, graph, f, eps, seed: Seed, *, r_opt=None,
                 scan_budget: int = DEFAULT_SCAN_BUDGET,
                 match_budget: int = DEFAULT_EDGE_BUDGET):
        self.eps = parse_rational(eps)
        if self.eps <= 0:
            raise InvalidParam("eps must be positive")

        r = parse_rational(f.r if r_opt is None else r_opt)
        if isinstance(graph, Hypergrid):
            r = min(r, Fraction(graph.n * graph.d))
        if r < 2:
            raise InvalidParam("search needs range at least 2")
        self.graph = graph
        self.f = f
        self.seed = seed
        self.r = r
        self.kappa = math.log2(r)
        # accuracy radius: (1/eps) log2(r) log2(200 log2 r)
        self.alpha = (
            Fraction(1) / self.eps
            * Fraction(self.kappa)
            * Fraction(math.log2(200 * self.kappa))
        )
        self.noise_scale = Fraction(self.kappa) / self.eps
        self._scan_budget = scan_budget
        self._match_budget = match_budget
        self._sessions = {}

    def _probes(self):
        last = max(2, math.ceil(self.kappa))
        return range(2, last + 1)

    def _session(self, i, t):
        key = (i, t)
        sess = self._sessions.get(key)
        if sess is None:
            lo = self.f.lo
            window = Interval(
                max(lo, lo + t - 2 * self.alpha),
                min(lo + self.r, lo + t + 2 * self.alpha),
            )
            f_i = self.f.clip(window.lo, window.hi)
            sess = LocalFilterL0(
                self.graph, f_i, self.seed.derive("search", i),
                scan_budget=self._scan_budget,
                match_budget=self._match_budget)
            # A scan walks only as far as f(x)'s distance to the window's
            # ends allows, so the values a first answer reads would tell
            # where f(x) sits, and ``lookups`` is released with the answer.
            # When the window is as wide as the grid's diameter, the table
            # costs at most a few reads more than one full-radius scan; if
            # it also fits the scan budget, the session reads it when it
            # opens, and an answer then reads n^d values for each session
            # it opens and nothing else.
            graph = self.graph
            if (isinstance(graph, Hypergrid) and f_i.r >= graph.diameter
                    and graph.n_vertices <= self._scan_budget):
                sess.read_table()
            self._sessions[key] = sess
        return sess

    def answer(self, x, noise: NoiseSource | None = None) -> MechanismResult:
        before = self.f.lookups
        t = self.r / 2
        count = 0
        reading = None
        for i in self._probes():
            count += 1
            g = self._session(i, t).value(x) - self.f.lo
            reading = g if noise is None else laplace_mechanism(
                g, self.noise_scale, noise)
            if t - self.alpha <= reading <= t + self.alpha:
                break  # reading certified close; release it as is
            step = math.ceil(self.r / 2 ** i)
            if reading > t:
                t = min(self.r, t + step)
            else:
                t = max(Fraction(0), t - step)
        return MechanismResult(
            value=self.f.lo + reading,
            iterations=count,
            lookups=self.f.lookups - before,
        )
