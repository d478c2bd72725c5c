"""The benchmark's layer tracer patches library entry points by name.

A rename in the library would otherwise surface only as a KeyError in a
traced benchmark run; this pins every hook the tracer installs.
"""
import importlib.util
import random
from pathlib import Path

from lipfilter import Hypercube, LocalFilterL1
from helpers import random_table, seed_of

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_exist_and_are_restored():
    tracer = load_layertrace().Tracer()
    hooks = [(owner, attr) for owner, attr, _ in tracer._patches()]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in hooks
               if attr not in owner.__dict__]
    assert missing == []
    originals = [owner.__dict__[attr] for owner, attr in hooks]
    with tracer.installed():
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(hooks, originals))
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(hooks, originals))


def test_table_ranks_are_traced():
    """The tracer counts ranks by patching ``matching.edge_rank``, so an
    l1 table must take its ranks through that module attribute."""
    tracer = load_layertrace().Tracer()
    g = Hypercube(5)
    f = random_table(g, random.Random(3), 2)
    with tracer.operation(0):
        LocalFilterL1(g, f, seed_of(0)).table()
    counts, _ = tracer.per_op[0]
    assert counts.get("seeds.rank", 0) > 0


def test_l1_point_query_is_traced():
    """A point query of the l1 filter hands the scan a lookup and the
    matching a neighbour oracle, both defined in ``filter_l1``, so the
    tracer counts them as that layer's callbacks."""
    tracer = load_layertrace().Tracer()
    g = Hypercube(5)
    f = random_table(g, random.Random(3), 3)
    with tracer.operation(0):
        LocalFilterL1(g, f, seed_of(0)).value((0,) * 5)
    counts, _ = tracer.per_op[0]
    assert counts.get("filter_l1.value", 0) == 1
    assert counts.get("violation.scan", 0) > 0
    assert counts.get("filter_l1.callback", 0) > 0
