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
        "graphs.ball": 2924, "graphs.ball_vertices": 30554, "graphs.canon": 6320,
        "seeds.rank": 2136, "violation.scan": 2924, "violation.scan_pairs": 27630,
    },
    "l1_near": {
        "cli.main": 1, "filter_l1.table": 1, "functions.lookup": 1024,
        "graphs.ball": 1242, "graphs.ball_vertices": 50652, "graphs.canon": 2746,
        "seeds.rank": 349, "violation.scan": 1242, "violation.scan_pairs": 49410,
    },
    "tester": {
        "exprs.eval": 814, "filter_l0.callback": 364, "filter_l0.value": 300,
        "functions.lookup": 814, "graphs.ball": 499, "graphs.ball_vertices": 127744,
        "graphs.canon": 2048, "matching.match_of": 2167, "seeds.rank": 1024,
        "tester.tolerant_test": 2, "violation.scan": 364, "violation.scan_pairs": 92820,
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
