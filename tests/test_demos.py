"""Every demo runs to completion against the library in ``src/`` and prints
exactly its recorded output in ``tests/golden/``.

The demos are deterministic, so a changed byte means a changed answer.
Rewrite a golden file (``PYTHONPATH=src python demos/<name>.py >
tests/golden/<name>.txt``) only for a change that is meant to change what
the demo prints.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("demo", [
    "filter_walkthrough.py", "hard_instance_bench.py",
    "private_release.py", "tolerant_testing.py",
])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / demo).with_suffix(".txt").read_text()
