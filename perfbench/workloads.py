"""The four benchmark workloads and their seeded input generators.

Each workload builds its inputs from the workload seed alone, runs one
operation at a time (a closed loop with one caller), and checks every
output against a reference computed outside the timed phase.  Nothing
here imports the test suite, so editing a test cannot move the benchmark.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from lipfilter import (
    ExprFunction,
    Hypercube,
    NoiseSource,
    Seed,
    TableFunction,
    global_filter_l1,
)
from lipfilter import cli, privacy, tester

L1_SLACK = Fraction(1, 100)
L1_EDGE_GAP = 1 + L1_SLACK
HIT_RATE = 0.98  # share of noised answers that must land within alpha


class OpFailed(Exception):
    """An operation ended in an error other than BudgetExceeded."""


def derive(seed: int, *labels) -> bytes:
    """32 bytes that depend only on the workload seed and the labels."""
    text = ":".join(str(part) for part in (seed, *labels))
    return hashlib.sha256(text.encode()).digest()


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random(int.from_bytes(derive(seed, *labels), "big"))


# -- input generators ----------------------------------------------------

def uniform_table(graph, rng, r, denom):
    """Uniform random values on the grid {0, 1/denom, ..., r}."""
    steps = int(r * denom)
    return {x: Fraction(rng.randrange(steps + 1), denom) for x in graph.vertices()}


def holed_cone(graph, rng, r, hole_dim=4):
    """A near-Lipschitz table on a hypercube: distance from a random anchor,
    less 2, clipped to [0, r], with the 2^hole_dim vertices of a random
    subcube slammed to 0.  The subcube lies at distance 5 to 5 + hole_dim
    from the anchor, where the cone reads r, so every seed gives the same
    input up to a symmetry of the cube, and the same amount of work."""
    anchor = tuple(rng.randrange(2) for _ in range(graph.d))
    table = {x: Fraction(min(max(graph.dist(x, anchor) - 2, 0), r))
             for x in graph.vertices()}
    coords = rng.sample(range(graph.d), 5 + hole_dim)
    corner = list(anchor)
    for i in coords[:5]:
        corner[i] ^= 1
    for bits in itertools.product((0, 1), repeat=hole_dim):
        x = list(corner)
        for i, bit in zip(coords[5:], bits):
            x[i] ^= bit
        table[tuple(x)] = Fraction(0)
    return table


def digest(obj) -> str:
    """Stable fingerprint of generated inputs, for the seed self-check."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# -- workloads -----------------------------------------------------------

class Workload:
    """One seeded workload: ``op(i)`` is timed, ``check(i, out)`` is not.

    ``op`` returns ``(output, lookups)``, where ``lookups`` is the move of
    the base oracle's own counter during the operation.  It raises
    BudgetExceeded when a query runs out of budget.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        """``workdir`` is where a workload may write its input files."""
        self.seed = seed

    def close(self) -> None:
        """Remove files the workload wrote."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def check_run(self, outs) -> bool:
        """Checks over the whole run; per-output checks come first."""
        return True


class L1Filter(Workload):
    """``lipfilter filter --mode l1 --all`` on one table, through cli.main."""

    r = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.graph = Hypercube(10)
        self.values = self.make_values(rng_for(seed, self.name, "input"))
        self.inputs = digest(sorted(self.values.items()))
        doc = {
            "domain": {"kind": "hypercube", "d": self.graph.d},
            "r": str(self.r),
            "values": {self.graph.canon(x): str(v) for x, v in self.values.items()},
            "default": "?",
        }
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / f"{self.name}-{seed}-{id(self)}.json"
        self.path.write_text(json.dumps(doc))
        self._reference = None

    def make_values(self, rng):
        raise NotImplementedError

    def close(self):
        self.path.unlink(missing_ok=True)

    def filter_seed(self):
        # every operation is a new CLI call with a new filter session, so
        # one seed per run shares no work between operations; it keeps the
        # check to one reference run
        return Seed(derive(self.seed, self.name, "filter"))

    def op(self, i):
        argv = ["filter", "--mode", "l1", "--all", "--slack", str(L1_SLACK),
                "--function", str(self.path), "--seed", self.filter_seed().hex]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0:
            # cli.main reports every library error, BudgetExceeded included,
            # as exit code 2 with the message on stderr
            raise OpFailed(f"filter exited {code}: {stderr.getvalue().strip()}")
        # keep the JSON text, not the parsed table, so that outputs held
        # for the check add little to peak RSS
        text = stdout.getvalue()
        return text, json.loads(text)["lookups"]

    def reference(self):
        if self._reference is None:
            f = TableFunction(self.graph, self.values, self.r)
            self._reference = global_filter_l1(
                self.graph, f, self.filter_seed(), slack=L1_SLACK)
        return self._reference

    def check(self, i, out):
        values = json.loads(out)["values"]
        got = {self.graph.from_canon(k): Fraction(v) for k, v in values.items()}
        if got != self.reference():
            return False
        return all(abs(got[u] - got[v]) <= L1_EDGE_GAP for u, v in self.graph.edges())


class L1Far(L1Filter):
    name = "l1_far"

    def make_values(self, rng):
        return uniform_table(self.graph, rng, self.r, denom=2)


class L1Near(L1Filter):
    name = "l1_near"
    r = 3

    def make_values(self, rng):
        return holed_cone(self.graph, rng, self.r)


class TesterDichotomy(Workload):
    """tolerant_test on a far and a Lipschitz oracle, with one seed."""

    name = "tester"
    eps = Fraction(1, 4)
    samples = 150
    cases = (("2*(sum() - 2*floor(1/2*sum()))", False), ("min(sum(), 2)", True))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.graph = Hypercube(8)
        self.oracles = [(ExprFunction(self.graph, text, 2), accept)
                        for text, accept in self.cases]
        self.inputs = digest([Seed(derive(seed, self.name, 0)).hex])

    def op(self, i):
        seed = Seed(derive(self.seed, self.name, i))
        before = sum(f.lookups for f, _ in self.oracles)
        verdicts = [
            tester.tolerant_test(self.graph, f, self.eps, seed,
                                 m=self.samples, reps=1).accept
            for f, _ in self.oracles
        ]
        return verdicts, sum(f.lookups for f, _ in self.oracles) - before

    def check(self, i, out):
        return out == [accept for _, accept in self.oracles]


class PrivateRelease(Workload):
    """Noised binary-search answers at fresh points, one mechanism per run."""

    name = "private_release"
    d = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.graph = Hypercube(self.d)
        self.f = ExprFunction(self.graph, "sum()", self.d)
        self.mech = privacy.BinarySearchMechanism(
            self.graph, self.f, 1, Seed(derive(seed, self.name, "mechanism")))
        self.noise = NoiseSource(Seed(derive(seed, self.name, "noise")))
        self.rng = rng_for(seed, self.name, "points")
        self.points = []
        self.inputs = digest([self.point(0), self.mech.seed.hex])

    def point(self, i):
        while len(self.points) <= i:
            self.points.append(tuple(self.rng.randrange(2) for _ in range(self.d)))
        return self.points[i]

    def op(self, i):
        x = self.point(i)
        before = self.f.lookups
        res = self.mech.answer(x, self.noise)
        return (x, res.value, res.iterations), self.f.lookups - before

    def check(self, i, out):
        x, _, _ = out
        return self.mech.answer(x).value == sum(x)

    def check_run(self, outs):
        alpha = float(self.mech.alpha)
        hits = sum(abs(float(value) - sum(x)) <= alpha for x, value, _ in outs)
        return hits >= HIT_RATE * len(outs)


WORKLOADS = {w.name: w for w in (L1Far, L1Near, TesterDichotomy, PrivateRelease)}
