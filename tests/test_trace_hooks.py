"""The benchmark's layer tracer patches library entry points by name.

A rename in the library would otherwise surface only as a KeyError in a
traced benchmark run; this pins every hook the tracer installs.
"""
import importlib.util
from pathlib import Path

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
