"""Mutant runs: each named mutant must make each of its named tests fail.

Usage, from the root of a checkout:

    python3 tests/mutants.py             # every mutant
    python3 tests/mutants.py NAME ...    # the named mutants
    python3 tests/mutants.py --list      # names and test ids

A mutant is one exact text replacement in one file under ``src/``.  For
each mutant the script copies ``src/`` to a temporary directory, applies
the replacement there, which must match exactly once, and runs pytest on
the mutant's test ids with that copy alone on PYTHONPATH and a fixed
hypothesis seed, so a run repeats.  The mutant is killed when every one
of its tests fails; a test that passes lets it survive.  The checkout
itself is never written.  The exit status is 0 when every mutant run is
killed and 1 otherwise.

This file is not a test module: pytest does not collect it, and it uses
the standard library only.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]


L0 = "lipfilter/filter_l0.py"
L1 = "lipfilter/filter_l1.py"
SCAN = "lipfilter/violation.py"
BUMP = """                for c in partner:
                    moves[c] += 1
"""
RESCAN = """                for c in partner:
                    scan(c, new, s + 1, moved=partner)
"""
ROUNDS = "tests/test_filter_l1.py::TestRoundsProperty::test_every_round_equals_global_trace"
TRACE = "tests/test_filter_l1.py::TestScanCarry::test_every_round_matches_global_trace"
ONCE = ("tests/test_filter_l1.py::TestScanCarry::"
        "test_each_round_matches_its_violated_pairs_once")
FILING = "tests/test_filter_l1.py::TestFiling::test_pair_dropped_then_refiled_at_another_round"
TAU = "tests/test_filter_l1.py::TestFiling::test_score_equal_to_tau_enters_next_round"
STRICT = "tests/test_violation.py::TestThreshold::test_strict_above_tau"
BOUND = "tests/test_violation.py::TestScanCap::test_walks_the_bound_computed_in_fractions"
MEMO = "tests/test_filter_l0.py::TestLocal::test_answers_memoized"

MUTANTS = [
    # a pair filed before one of its ends moved stays live
    Mutant("l1-no-count-bump", L1, BUMP, "", (ROUNDS, TRACE, ONCE, FILING)),
    # the pairs a rescan files carry the counts from before the move
    Mutant("l1-bump-after-rescan", L1, BUMP + RESCAN, RESCAN + BUMP,
           (ROUNDS, TRACE, ONCE, FILING)),
    # a pair whose ends both moved is filed by neither rescan
    Mutant("l1-skip-every-moved-partner", L1, "if y < v and y in moved:",
           "if y in moved:", (ROUNDS, TRACE, ONCE, FILING)),
    # a pair is filed under its scan's start round, whatever its score
    Mutant("l1-file-at-start-round", L1, """                while n * B[s0] <= A[s0] * m:
                    s0 += 1
""", "", (ROUNDS, TRACE, ONCE, FILING, TAU)),
    # a scan whose reach is exactly 1 walks no ball, and misses the
    # partners at distance 1
    Mutant("scan-reach-below-two", SCAN, "if radius < 1:", "if radius < 2:",
           (STRICT, BOUND)),
    # every l0 answer is computed afresh, walking its ball again
    Mutant("l0-value-skips-memo", L0, "return self._answers[self.graph.index(x)]",
           "return self._value(self.graph.index(x))", (MEMO,)),
]


def outcomes(report: str, tests) -> dict[str, str]:
    """{test id: PASSED, FAILED or ERROR} from pytest's ``-rA`` summary,
    whose ids are relative to the directory pytest ran in."""
    out = {}
    for line in report.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            ran = rest.split(" - ")[0]
            out.update((t, word) for t in tests if ran.endswith("/" + t))
    return out


def run(mutant: Mutant) -> bool:
    """True when the mutant is killed: every one of its tests fails."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            sys.exit(f"{mutant.name}: the text to replace matches "
                     f"{text.count(mutant.old)} times in src/{mutant.path}, not once")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # run from the temporary directory, so hypothesis keeps its
        # example database there
        cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
               f"--rootdir={ROOT}", "--hypothesis-seed=0",
               *(str(ROOT / t) for t in mutant.tests)]
        done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
    got = outcomes(done.stdout, mutant.tests)
    survivors = [t for t in mutant.tests if got.get(t) != "FAILED"]
    for t in mutant.tests:
        print(f"  {got.get(t, 'NOT RUN'):7} {t}")
    print(f"{mutant.name}: {'survived' if survivors else 'killed'}")
    return not survivors


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    if argv == ["--list"]:
        for m in MUTANTS:
            print(m.name)
            for t in m.tests:
                print(f"  {t}")
        return 0
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}; see --list")
    chosen = [by_name[name] for name in argv] or MUTANTS
    killed = [run(m) for m in chosen]
    print(f"{sum(killed)} of {len(killed)} mutants killed")
    return 0 if all(killed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
