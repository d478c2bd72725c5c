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
of its tests fails; a test that passes lets it survive.  A parametrized
test named without a parameter id stands for all its cases and fails
when any case fails.  The checkout
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
EXPRS = "lipfilter/exprs.py"
PRIVACY = "lipfilter/privacy.py"
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
PRECEDENCE = ("tests/test_exprs.py::TestPrecedence::test_times_binds_tighter_as_trees",
              "tests/test_exprs.py::TestPrecedence::test_times_binds_tighter_as_values")
LEFT_ASSOC = ("tests/test_exprs.py::TestPrecedence::test_left_associative_as_trees",
              "tests/test_exprs.py::TestPrecedence::test_left_associative_as_values")
BRACKETS = "tests/test_exprs.py::TestPrecedence::test_format_brackets_by_precedence"
FLOOR = ("tests/test_filter_l0.py::TestReachAndFloor::"
         "test_local_equals_global_and_scans_reach_bounds")
ENCLOSING = "tests/test_violation.py::TestScanCap::test_any_enclosing_interval_equals_brute_force"
TIGHT = "tests/test_violation.py::TestScanProperty::test_tight_bounds_equal_brute_force"
UPWARD_TIGHT = ("tests/test_violation.py::TestScanProperty::"
                "test_upward_tight_bounds_equal_brute_force")
EPS_L0 = "tests/test_privacy.py::TestEpsAudit::test_filter_mechanism_output_is_2_lipschitz"
EPS_SEARCH = "tests/test_privacy.py::TestEpsAudit::test_binary_search_sessions_are_1_lipschitz"

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
    # the scan stops a shell short of the ball it asked for
    Mutant("scan-drops-last-shell", SCAN, "range(1, len(ends))", "range(1, len(ends) - 1)",
           (ENCLOSING, STRICT, TIGHT, "tests/test_violation.py::TestScan::test_positive_only")),
    # the l0 extension walks each shell in the ball's order, not by id, so
    # it meets its winners in another order and asks about other vertices
    Mutant("extension-walks-shells-unsorted", L0, "sorted(ball[start:end])",
           "ball[start:end]",
           ("tests/test_layer_counts.py::test_first_operation_counts[tester]",
            "tests/test_filter_l0.py::TestExtension::test_asks_the_matching_only_about_winners",
            "tests/test_filter_l0.py::TestAnchorCost::test_d14_anchor_lookups")),
    # every l0 answer is computed afresh, walking its ball again
    Mutant("l0-value-skips-memo", L0, "return self._answers[self.graph.index(x)]",
           "return self._value(self.graph.index(x))", (MEMO,)),
    # the l0 floor is the lowest value f takes, not the range's bottom
    Mutant("l0-floor-from-bounds", L0, "best = self.lo", "best = self.bounds.lo", (FLOOR,)),
    # a restriction claims the whole window as its bounds
    Mutant("restriction-claims-window", "lipfilter/functions.py",
           "lo = max(interval.lo, base.bounds.lo)", "lo = interval.lo", (FLOOR,)),
    # a two-way scan reaches only as far as a higher partner can sit
    Mutant("scan-reach-upward-only", SCAN, "radius = -(up if up < down else down) - 1",
           "radius = -up - 1", (ENCLOSING, TIGHT)),
    # the upward scan stops one short of its reach
    Mutant("upward-reach-short", SCAN, "radius = -up - 1", "radius = -up - 2",
           (ENCLOSING, UPWARD_TIGHT)),
    # from_canon accepts any text that decodes to a vertex
    Mutant("from-canon-no-round-trip", "lipfilter/graphs.py",
           "if self.contains(x) and self.canon(x) == s:", "if self.contains(x):",
           ("tests/test_graphs.py::TestFromCanon::test_non_canonical_text_rejected",)),
    # the filter mechanism filters f unclipped
    Mutant("eps-no-clip", PRIVACY, "clipped = f.clip(f.lo, f.lo + f.r)", "clipped = f",
           (EPS_L0,)),
    # the filter mechanism's l1 filter runs with slack 2
    Mutant("eps-slack-two", PRIVACY, "slack=1", "slack=2", (EPS_L0,)),
    # binary search makes one probe more than the privacy budget allows
    Mutant("eps-extra-probe", PRIVACY, "last = max(2, math.ceil(self.kappa))",
           "last = max(2, math.ceil(self.kappa)) + 1", (EPS_SEARCH,)),
    # the tester reads f again instead of the value its session read
    Mutant("tester-rereads-f", "lipfilter/tester.py", "g != filt.read(x)",
           "g != f.lookup(x)",
           ("tests/test_tester.py::TestMechanics::test_reads_each_vertex_once",)),
    # '*' binds no tighter than '+' and '-'
    Mutant("expr-times-binds-like-plus", EXPRS, '"*": (2, operator.mul)',
           '"*": (1, operator.mul)', PRECEDENCE + (BRACKETS,)),
    # a right operand is parsed at its operator's own precedence, so
    # equal precedence nests to the right
    Mutant("expr-right-associative", EXPRS, "self.expr(_OPS[op][0] + 1, level + 1)",
           "self.expr(_OPS[op][0], level + 1)", LEFT_ASSOC),
    # a right child at equal precedence prints without brackets
    Mutant("format-right-child-bare", EXPRS, "fmt(e.right, prec + 1)", "fmt(e.right, prec)",
           (BRACKETS,)),
    # JSON true reads the entry parsed for 1, which it equals
    Mutant("json-true-reads-1s-entry", "lipfilter/functions.py", """            fv = parsed[type(v), v]
        except KeyError:
            fv = parsed[type(v), v] = parse_value(v)
""", """            fv = parsed[v]
        except KeyError:
            fv = parsed[v] = parse_value(v)
""", ("tests/test_functions.py::TestJson::test_json_booleans_are_not_numbers",)),
    # a number token is any Unicode digit run, as str.isdigit reads it
    Mutant("expr-digits-any-script", EXPRS, "(?P<num>[0-9]+)", r"(?P<num>\d+)",
           ("tests/test_exprs.py::TestTokens::test_digits_are_ascii",)),
]

# worst first: one failing case makes a parametrized test fail
_RANK = {"PASSED": 0, "ERROR": 1, "FAILED": 2}


def outcomes(report: str, tests) -> dict[str, str]:
    """{test id: PASSED, FAILED or ERROR} from pytest's ``-rA`` summary,
    whose ids are relative to the directory pytest ran in.  An id without
    a parameter id in brackets matches each of its cases and takes the
    worst outcome among them, FAILED before ERROR before PASSED."""
    out = {}
    for line in report.splitlines():
        word, _, rest = line.partition(" ")
        if word in _RANK:
            ran = rest.split(" - ")[0]
            case_of = ran.split("[")[0]
            for t in tests:
                hit = ran.endswith("/" + t) or case_of.endswith("/" + t)
                if hit and _RANK[word] >= _RANK.get(out.get(t), -1):
                    out[t] = word
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
