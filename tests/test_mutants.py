"""The mutant list in ``tests/mutants.py`` stays runnable.

Each mutant's text must match exactly once in its file under ``src/``,
and each test id it names must exist, so a refactor that moves the text
or renames a test shows up here and not only in an opt-in mutant run.
Nothing is mutated and pytest is not run.
"""
import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


mutants = load_mutants()
MUTANTS = mutants.MUTANTS


def defines(path, names):
    """True when the module at ``path`` defines the class and function
    chain ``names``, e.g. ["TestScan", "test_budget"]; a test's
    parameter id in brackets is ignored."""
    body = ast.parse(path.read_text()).body
    for name in names:
        name = name.split("[")[0]
        node = next((n for n in body if isinstance(
            n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


# the tail of a ``pytest -rA`` run from a temporary directory
REPORT = """\
=========================== short test summary info ============================
PASSED ../../repo/tests/test_a.py::TestX::test_plain
FAILED ../../repo/tests/test_a.py::TestX::test_cases[1] - assert 1 == 2
PASSED ../../repo/tests/test_a.py::TestX::test_cases[2]
PASSED ../../repo/tests/test_a.py::test_all_pass[a-b]
PASSED ../../repo/tests/test_a.py::test_all_pass[c]
ERROR ../../repo/tests/test_b.py::test_broken[1] - fixture 'x' not found
FAILED ../../repo/tests/test_b.py::test_broken[2] - assert False
ERROR ../../repo/tests/test_b.py::test_errs - fixture 'x' not found
========================= 3 failed, 4 passed in 0.10s ==========================
"""


def test_outcomes_read_cases_and_bare_ids():
    ids = ["tests/test_a.py::TestX::test_plain", "tests/test_a.py::TestX::test_cases",
           "tests/test_a.py::TestX::test_cases[2]", "tests/test_a.py::test_all_pass",
           "tests/test_b.py::test_broken", "tests/test_b.py::test_errs",
           "tests/test_a.py::TestX::test_case", "a.py::TestX::test_plain"]
    assert mutants.outcomes(REPORT, ids) == {
        "tests/test_a.py::TestX::test_plain": "PASSED",
        # a bare id fails when any case fails, whatever the order
        "tests/test_a.py::TestX::test_cases": "FAILED",
        "tests/test_a.py::TestX::test_cases[2]": "PASSED",
        "tests/test_a.py::test_all_pass": "PASSED",
        "tests/test_b.py::test_broken": "FAILED",
        "tests/test_b.py::test_errs": "ERROR",
    }


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_text_matches_once(mutant):
    assert (ROOT / "src" / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, *names = test_id.split("::")
        assert (ROOT / path).is_file(), test_id
        assert names and defines(ROOT / path, names), test_id
