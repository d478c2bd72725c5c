"""Per-layer work counts of the benchmark workloads, pinned.

The counts are exact for a seed, so a change that moves work between
layers shows up here, in tier-1, and not only in a traced benchmark run.
Each workload builds its seed-1 inputs and traces its first operation
with the benchmark's own tracer; both files are loaded read-only.

Pinned values and their history:
- ``graphs.canon`` on ``l1_far`` and ``l1_near`` went from 5,296 and 1,722
  to 6,320 and 2,746 when ``from_canon`` started checking that ``canon``
  gives the decoded text back: ``filter --all`` decodes the 1,024 keys of
  its function document.
- ``matching.match_of`` on ``tester`` went from 34,860 to 2,167 when the
  l0 extension started asking the matching only about candidates that
  beat its running best, and stopping once none further out can.
- When each violation scan started walking only as far as a violation of
  its centre can reach, ceil(max(hi - f(x), f(x) - lo)) - 1:
  ``graphs.ball_vertices`` and ``violation.scan_pairs`` went from 32,164
  and 29,240 to 30,554 and 27,630 on ``l1_far`` and from 69,552 and
  68,310 to 50,652 and 49,410 on ``l1_near``; on ``private_release``
  ``exprs.eval``, ``functions.lookup`` and ``graphs.ball_vertices`` went
  from 65,535 to 26,333 and ``violation.scan_pairs`` from 65,534 to
  26,332.  ``tester`` did not move: its window is wider than the cube.
- ``exprs.eval`` and ``functions.lookup`` on ``private_release`` went
  from 26,333 to 65,536 when a binary-search probe session whose window
  is as wide as the grid's diameter started reading the whole table when
  it opens, so that an answer's lookups do not reveal f(x).
- When the scan started taking the threshold tau and walking
  ceil(max(hi - f(x), f(x) - lo) - tau) - 1, so that the l1 table scans
  at its final tau a ball no wider than a partner can sit:
  ``graphs.ball_vertices`` and ``violation.scan_pairs`` on ``l1_near``
  went from 50,652 and 49,410 to 50,562 and 49,320.  The other workloads
  scan at tau = 0, where the ball is the one walked before.
- When an oracle started reporting ``bounds``, the interval its defined
  values lie in, and the scans took it in place of the claimed range
  [lo, hi]: a restriction's bounds are its window cut down to its base's
  range, [0, 2] on ``tester`` instead of a window about 25 wide, so a
  scan walks radius 1 instead of the whole 8-cube.  On ``tester``
  ``graphs.ball_vertices`` went from 127,744 to 37,788,
  ``violation.scan_pairs`` from 92,820 to 2,864, and ``exprs.eval`` and
  ``functions.lookup`` from 814 to 813.  The extension floor stayed at the
  window's low end, so no answer moved.
- When the l1 table's first scan pass started scanning upward only, so
  that each violated pair is scored once, from its lower end, within
  ceil(hi - f(x) - tau) - 1: ``graphs.ball_vertices`` and
  ``violation.scan_pairs`` went from 30,554 and 27,630 to 25,978 and
  23,280 on ``l1_far`` and from 50,562 and 49,320 to 13,630 and 13,010 on
  ``l1_near``.  The scan and ball calls stayed, since a vertex at the top
  of the range still makes its scan, of an empty ball.
- When the tester started comparing each sample with the value its filter
  session read instead of looking f up again, and the session started
  keeping each vertex's answer and matched partner: on ``tester``
  ``exprs.eval`` and ``functions.lookup`` went from 813 to 513,
  ``matching.match_of`` from 2,167 to 1,601, ``graphs.ball`` from 499 to
  460 and ``graphs.ball_vertices`` from 37,788 to 27,804.  A resampled
  vertex walks no second extension ball, and the calls still counted are
  the first-time queries plus the memo hits.
- When the sessions started working on vertex ids and a matching's ranks
  started encoding an edge's ids with ``Hypercube.canon_of``, which writes
  an id's bits without building the vertex: ``graphs.canon`` went from
  6,320 and 2,746 to 2,048 on ``l1_far`` and ``l1_near``, the document's
  1,024 keys decoded and the 1,024 output keys written, and from 2,048 to
  none on ``tester``, whose 2,048 were all for ranks.
- When the scan started returning at once, with no ball, where its reach
  is below 1 (distinct vertices sit at least 1 apart, so no partner can
  sit there), and the l1 filter stopped stating that rule itself:
  ``graphs.ball`` and ``graphs.ball_vertices`` went from 2,924 and 25,978
  to 2,328 and 25,608 on ``l1_far``, from 1,242 and 13,630 to 410 and
  13,420 on ``l1_near``, and from 460 and 27,804 to 454 and 27,798 on
  ``tester``.  Each ball no longer walked held the centre alone, or
  nothing; the scans, their pairs and every answer stayed.
"""
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PINNED = {
    "l1_far": {
        "cli.main": 1, "filter_l1.table": 1, "functions.lookup": 1024,
        "graphs.ball": 2328, "graphs.ball_vertices": 25608, "graphs.canon": 2048,
        "seeds.rank": 2136, "violation.scan": 2924, "violation.scan_pairs": 23280,
    },
    "l1_near": {
        "cli.main": 1, "filter_l1.table": 1, "functions.lookup": 1024,
        "graphs.ball": 410, "graphs.ball_vertices": 13420, "graphs.canon": 2048,
        "seeds.rank": 349, "violation.scan": 1242, "violation.scan_pairs": 13010,
    },
    "tester": {
        "exprs.eval": 513, "filter_l0.callback": 364, "filter_l0.value": 300,
        "functions.lookup": 513, "graphs.ball": 454, "graphs.ball_vertices": 27798,
        "matching.match_of": 1601, "seeds.rank": 1024,
        "tester.tolerant_test": 2, "violation.scan": 364, "violation.scan_pairs": 2864,
    },
    "private_release": {
        "exprs.eval": 65536, "filter_l0.callback": 1, "filter_l0.value": 1,
        "functions.lookup": 65536, "graphs.ball": 1, "graphs.ball_vertices": 26333,
        "matching.match_of": 1, "privacy.answer": 1, "privacy.probes": 1,
        "violation.scan": 1, "violation.scan_pairs": 26332,
    },
}


@pytest.mark.parametrize("name", PINNED)
def test_first_operation_counts(name, tmp_path):
    layertrace, workloads = load("layertrace"), load("workloads")
    workload = workloads.WORKLOADS[name](1, tmp_path)
    tracer = layertrace.Tracer()
    try:
        with tracer.operation(0):
            workload.op(0)
    finally:
        workload.close()
    counts, _ = tracer.per_op[0]
    assert counts == PINNED[name]
