"""How fast the host runs right now, measured by a fixed stdlib-only task.

The benchmark's VM shares its host: the same operation, repeated back to
back in one process, runs up to 2x slower in phases that last from seconds
to minutes, and CPU time slows with wall time.  The calibration task does
the same kind of work lipfilter does (tuples as keys of dicts and sets,
Fraction arithmetic, sorting) and shares no code with lipfilter, so no
change to the library can move it.  It runs in a child process, started
once per run and idle while operations run, so that its memory never
counts toward the benchmark process's peak RSS.  Times taken next to it
are scaled to a host on which it takes REFERENCE_S seconds: a time of t
seconds between calibrations that took c0 and c1 seconds reports as

    t * REFERENCE_S / ((c0 + c1) / 2)

Run as a script, this file is the child: it times the task once for every
line it reads and writes the seconds it took.
"""
from __future__ import annotations

import contextlib
import gc
import random
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.15
ENTRIES = 16000
CHILD_TIMEOUT_S = 30


def _task() -> int:
    rng = random.Random(7)
    table = {}
    for i in range(ENTRIES):
        key = tuple(rng.randrange(2) for _ in range(8))
        table[i, key] = Fraction(i % 7, 3) + Fraction(1, 2)
    seen = set()
    for (_, key), _ in sorted(table.items(), key=lambda kv: (kv[1], kv[0][0])):
        seen.add(key)
    return len(seen)


def _time_task() -> float:
    """Seconds the task takes now, with the collector out of the way."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _task()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Calibrator:
    """``calibrate()`` times the task once in the child process.

    Use it as a context manager; leaving it ends the child and waits for
    it.  The first timing, which warms the child up, is thrown away."""

    def __enter__(self) -> Calibrator:
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        try:
            self.calibrate()
        except BaseException:
            self.__exit__()
            raise
        return self

    def calibrate(self) -> float:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("calibration child ended early")
        return float(line)

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(OSError):
            self._child.stdin.close()
        try:
            self._child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


def scale(before: float, after: float) -> float:
    """The factor that takes a time measured between calibrations that
    took ``before`` and ``after`` seconds to the reference host."""
    return REFERENCE_S * 2 / (before + after)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(_time_task(), flush=True)
