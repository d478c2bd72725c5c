"""Tolerant Lipschitz testing on the hypercube only, via the l0 filter.

A Lipschitz function on {0,1}^d concentrates within +-t of any fixed
value for t = 2 sqrt(d log2(d/eps)), so restricting f to that window and
filtering changes few points.  A function far from Lipschitz keeps many
violated pairs inside any window, so the filter must rewrite a constant
fraction.  The tester estimates the rewritten fraction from m uniform
samples and compares it against 2.005 eps.  The samples are compared with
the values the filter session read, so f is read once per distinct vertex
the session visits, plus once at the pivot.  The window is the cube's
concentration bound, so any other domain is rejected: a Lipschitz
function on a wider grid can spread past it and be rejected.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParam, PartialFunction
from .filter_l0 import LocalFilterL0
from .functions import Interval, parse_rational
from .graphs import Hypercube, random_vertex
from .seeds import Seed

MIN_DIMENSION = 4
MAX_EPS = Fraction(1, 3)


@dataclass(frozen=True)
class TesterParams:
    eps: Fraction
    t: Fraction           # half-width of the value window
    m: int                # samples per repetition
    threshold: Fraction   # accept iff estimate <= threshold
    reps: int


def make_params(d: int, eps, *, m: int | None = None, reps: int = 1) -> TesterParams:
    if not isinstance(d, int) or d < MIN_DIMENSION:
        raise InvalidParam(f"dimension must be an int >= {MIN_DIMENSION}")
    eps = parse_rational(eps)
    if not 0 < eps < MAX_EPS:
        raise InvalidParam(f"eps must lie in (0, {MAX_EPS})")
    if type(reps) is not int or reps < 1 or reps % 2 == 0:
        raise InvalidParam(f"reps must be a positive odd int, got {reps!r}")
    t = Fraction(2 * math.sqrt(d * math.log2(d / eps)))
    if m is None:
        m = math.ceil((Fraction(1500) / eps) ** 2)
    if type(m) is not int or m < 1:
        raise InvalidParam(f"m must be an int >= 1, got {m!r}")
    return TesterParams(
        eps=eps, t=t, m=m, threshold=Fraction(2005, 1000) * eps, reps=reps)


@dataclass(frozen=True)
class TestReport:
    accept: bool
    estimates: tuple
    params: TesterParams


def _cube_dimension(graph) -> int:
    """graph.d for a hypercube; InvalidParam for any other graph, since
    t is the cube's concentration bound."""
    if not isinstance(graph, Hypercube):
        raise InvalidParam(
            f"the tester needs a hypercube, not {type(graph).__name__}")
    return graph.d


def tolerant_test_once(graph, f, params: TesterParams, seed: Seed):
    """One repetition: (accept?, estimated changed fraction)."""
    _cube_dimension(graph)
    rng = random.Random(int(seed.hex, 16))
    pivot = random_vertex(graph, rng)
    center = f.lookup(pivot)
    if center is None:
        raise PartialFunction(f"tester pivot {graph.canon(pivot)} has no value")
    window = Interval(center - params.t, center + params.t)
    restricted = f.restrict(window)
    filt = LocalFilterL0(graph, restricted, seed.derive("filter"))
    changed = 0
    for _ in range(params.m):
        x = random_vertex(graph, rng)
        # g is defined iff f_I(x) is, and then f_I(x) = f(x), so the value
        # the session read at x is the one to compare with
        g = filt.value(x)
        if g is None or g != filt.read(x):
            changed += 1
    estimate = Fraction(changed, params.m)
    return estimate <= params.threshold, estimate


def tolerant_test(graph, f, eps, seed: Seed, *, m: int | None = None,
                  reps: int = 1) -> TestReport:
    """Majority verdict over `reps` independent repetitions."""
    params = make_params(_cube_dimension(graph), eps, m=m, reps=reps)
    votes = 0
    estimates = []
    for k in range(params.reps):
        ok, est = tolerant_test_once(graph, f, params, seed.derive("rep", k))
        votes += 1 if ok else 0
        estimates.append(est)
    return TestReport(
        accept=2 * votes > params.reps,
        estimates=tuple(estimates),
        params=params)
