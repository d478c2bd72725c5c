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

from .errors import InvalidParam, PartialFunction
from .filter_l0 import LocalFilterL0
from .filter_l1 import LocalFilterL1
from .functions import ValueMemo, parse_rational
from .graphs import DEFAULT_SCAN_BUDGET, Hypergrid
from .seeds import Seed


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


@dataclass(frozen=True)
class MechanismResult:
    value: object
    iterations: int


class FilterMechanism:
    """Per-query eps-DP release of a 1-Lipschitz-corrected value.

    The client's function is clamped into [lo, lo+r] before filtering, so
    out-of-range submissions cannot widen the sensitivity.  An answer
    releases its noised value and nothing else.  The values it reads, and
    so ``f.lookups``, and the time it takes depend on f near x: each scan
    walks only as far as f(x)'s distance to the ends of [lo, lo+r] lets a
    partner sit.  They are outside eps and for the operator only.
    """

    def __init__(self, graph, f, eps, seed: Seed):
        self.eps = parse_rational(eps)
        if self.eps <= 0:
            raise InvalidParam("eps must be positive")
        clipped = f.clip(f.lo, f.lo + f.r)
        self.filter = LocalFilterL1(graph, clipped, seed, slack=1)
        self.scale = Fraction(2) / self.eps

    def answer(self, x, noise: NoiseSource | None = None):
        g = self.filter.value(x)
        if noise is None:
            return g
        return g + noise.laplace(self.scale)


class BinarySearchMechanism:
    """Estimate f(x) privately by noisy halving over the value range.

    The search window is [L, L + r'] with r' = min(r, 2D), D the graph's
    diameter (on a hypercube 2D = n*d).  A 1-Lipschitz f lies within D of
    its value v0 at x0, the first vertex in canonical order, so on a grid
    with 2D < r the window is anchored there: L = min(max(lo, v0 - D), hi
    - 2D), with v0 read through f clipped to [lo, hi].  Elsewhere L = lo.
    The anchor depends on f alone, not on the query, and a ? at x0
    raises PartialFunction.  Each probe i in 2..ceil(log2 r') filters f
    clipped to the part of [L + t - 2a, L + t + 2a] inside the window,
    where a is the accuracy radius, then takes a noised reading, read
    from L.  A reading inside the band [t - a, t + a] is released
    immediately; otherwise the center t moves by ceil(r' / 2^i) toward
    the reading and the search continues.  Filter sessions are
    cached per (probe, center) so repeated trials share their scans.  An
    answer releases its noised value and its probe count, a function of
    the noised readings.  On a grid no wider than the window, a session
    reads the whole table when it opens, so the values an answer reads,
    and so ``f.lookups``, do not depend on f(x); elsewhere they do, and
    the time an answer takes depends on f near x everywhere.  Work counts
    and timing are outside eps and for the operator only.  An answer at a
    point where f(x) = ? raises PartialFunction.
    """

    def __init__(self, graph, f, eps, seed: Seed):
        self.eps = parse_rational(eps)
        if self.eps <= 0:
            raise InvalidParam("eps must be positive")

        r = f.r
        if isinstance(graph, Hypergrid):
            r = min(r, Fraction(2 * graph.diameter))
        if r < 2:
            raise InvalidParam("search needs range at least 2")
        lo = f.lo
        if r < f.r:
            x0 = next(graph.vertices())
            v0 = f.clip(f.lo, f.hi).lookup(x0)
            if v0 is None:
                raise PartialFunction(
                    f"binary search needs a defined anchor; f({graph.canon(x0)}) = ?")
            lo = min(max(lo, v0 - graph.diameter), f.hi - r)
        self.graph = graph
        self.f = f
        self.seed = seed
        self.lo = lo
        self.r = r
        self.kappa = math.log2(r)
        # accuracy radius: (1/eps) log2(r) log2(200 log2 r)
        self.alpha = (
            Fraction(1) / self.eps
            * Fraction(self.kappa)
            * Fraction(math.log2(200 * self.kappa))
        )
        self.noise_scale = Fraction(self.kappa) / self.eps
        self._sessions = ValueMemo(self._session)

    def _probes(self):
        last = max(2, math.ceil(self.kappa))
        return range(2, last + 1)

    def _session(self, key):
        """The filter session of probe i at centre t, for key = (i, t)."""
        i, t = key
        lo = self.lo
        f_i = self.f.clip(max(lo, lo + t - 2 * self.alpha),
                          min(lo + self.r, lo + t + 2 * self.alpha))
        sess = LocalFilterL0(self.graph, f_i, self.seed.derive("search", i))
        # A scan walks only as far as f(x)'s distance to the window's
        # ends allows, so without this the values the first answers
        # read would depend on where x and f(x) sit.  When the window
        # is as wide as the grid's diameter, the table costs at most a
        # few reads more than one full-radius scan; if it also fits the
        # scan budget, the session reads it when it opens, and an
        # answer then reads n^d values for each session it opens and
        # nothing else.
        graph = self.graph
        if (isinstance(graph, Hypergrid) and f_i.r >= graph.diameter
                and graph.n_vertices <= DEFAULT_SCAN_BUDGET):
            sess.read_table()
        return sess

    def answer(self, x, noise: NoiseSource | None = None) -> MechanismResult:
        t = self.r / 2
        count = 0
        reading = None
        for i in self._probes():
            count += 1
            g = self._sessions[i, t].value(x)
            if g is None:
                raise PartialFunction(
                    f"binary search needs a defined value; f({self.graph.canon(x)}) = ?")
            g -= self.lo
            reading = g if noise is None else g + noise.laplace(self.noise_scale)
            if t - self.alpha <= reading <= t + self.alpha:
                break  # reading certified close; release it as is
            step = math.ceil(self.r / 2 ** i)
            if reading > t:
                t = min(self.r, t + step)
            else:
                t = max(Fraction(0), t - step)
        return MechanismResult(value=self.lo + reading, iterations=count)
