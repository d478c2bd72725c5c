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
        "graphs.ball": 2924, "graphs.ball_vertices": 32164, "graphs.canon": 6320,
        "seeds.rank": 2136, "violation.scan": 2924, "violation.scan_pairs": 29240,
    },
    "l1_near": {
        "cli.main": 1, "filter_l1.table": 1, "functions.lookup": 1024,
        "graphs.ball": 1242, "graphs.ball_vertices": 69552, "graphs.canon": 2746,
        "seeds.rank": 349, "violation.scan": 1242, "violation.scan_pairs": 68310,
    },
    "tester": {
        "exprs.eval": 814, "filter_l0.callback": 364, "filter_l0.value": 300,
        "functions.lookup": 814, "graphs.ball": 499, "graphs.ball_vertices": 127744,
        "graphs.canon": 2048, "matching.match_of": 2167, "seeds.rank": 1024,
        "tester.tolerant_test": 2, "violation.scan": 364, "violation.scan_pairs": 92820,
    },
    "private_release": {
        "exprs.eval": 65535, "filter_l0.callback": 1, "filter_l0.value": 1,
        "functions.lookup": 65535, "graphs.ball": 1, "graphs.ball_vertices": 65535,
        "matching.match_of": 1, "privacy.answer": 1, "privacy.probes": 1,
        "violation.scan": 1, "violation.scan_pairs": 65534,
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
