"""Benchmark for lipfilter: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload l1_far --seed 1 --seconds 22 --trace 0

Each run is a closed loop with one caller in one process: it runs one
operation of the workload at a time until ``--seconds`` have passed (and at
least COUNT_OPS operations), then checks every output outside the timed
phase.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
every operation twice, untraced and traced, and reports the per-layer
metrics and the tracing overhead.  Every time is scaled to a reference
host speed by a calibration task timed next to it (see hostspeed.py).
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Calibrator, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

COUNT_OPS = 3       # count metrics cover the first COUNT_OPS operations
SETUP_SAMPLES = 5   # setup_s is the median of this many fresh processes
SETUP_TIMEOUT_S = 60


def import_library() -> None:
    """Import lipfilter from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lipfilter" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lipfilter sources in {src}")
    sys.path.insert(0, str(src))
    import lipfilter

    if Path(lipfilter.__file__).resolve().parent != (src / "lipfilter").resolve():
        sys.exit(f"perfbench: lipfilter imported from {lipfilter.__file__}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (times setup_s)")
    return p.parse_args(argv)


def setup_seconds(args, host) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh process until it has imported
    lipfilter and built the workload's inputs, as that process reports:
    (scaled, raw)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    raw, before = [], host.calibrate()
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        ready = float(done.stdout.split()[-1])
        raw.append(ready - start)
    factor = scale(before, host.calibrate())
    return [t * factor for t in raw], raw


def run_op(workload, i, failures):
    """One timed operation; returns (output or None, lookups, seconds).

    Garbage from earlier operations (filter sessions hold reference cycles)
    is collected first, untimed, so that every operation starts from the
    same heap, as a fresh CLI process would."""
    from lipfilter import BudgetExceeded
    from workloads import OpFailed

    gc.collect()
    start = time.perf_counter()
    try:
        out, lookups = workload.op(i)
    except (BudgetExceeded, OpFailed) as exc:
        failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        out, lookups = None, 0
    return out, lookups, time.perf_counter() - start


def check_outputs(workload, outs, failures) -> None:
    """Check every output, then the run as a whole."""
    for i, out in enumerate(outs):
        if out is not None and not workload.check(i, out):
            failures.append(f"op {i}: wrong output")
    done = [out for out in outs if out is not None]
    if done and not workload.check_run(done):
        failures.append("whole-run check")


def plain_run(cls, args, host):
    setups, raw_setups = setup_seconds(args, host)
    workload = cls(args.seed, OUT)
    failures, outs, lookups, raw = [], [], [], []
    try:
        calibs = [host.calibrate()]
        start = time.perf_counter()
        while len(outs) < COUNT_OPS or time.perf_counter() - start < args.seconds:
            out, n, seconds = run_op(workload, len(outs), failures)
            calibs.append(host.calibrate())
            outs.append(out)
            lookups.append(n)
            raw.append(seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        check_outputs(workload, outs, failures)
    finally:
        workload.close()
    completed = sum(out is not None for out in outs)
    latencies = [t * scale(c0, c1)
                 for t, c0, c1 in zip(raw, calibs, calibs[1:])]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "lookups_per_op": (sum(lookups[:COUNT_OPS]) / COUNT_OPS, "count"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    notes = [f"inputs {workload.inputs}",
             f"ops {len(outs)}; op_p50_ms is the median of {len(latencies)} latencies",
             f"latencies_ms {' '.join(f'{t * 1000:.1f}' for t in latencies)}",
             f"setup_s samples {' '.join(f'{t:.3f}' for t in setups)}",
             f"unscaled: op_p50_ms {statistics.median(raw) * 1000:.1f}, "
             f"ops_per_s {completed / sum(raw):.4f}, "
             f"setup_s {statistics.median(raw_setups):.4f}; calibration_s "
             f"median {statistics.median(calibs):.4f} "
             f"min {min(calibs):.4f} max {max(calibs):.4f}"]
    return metrics, len(outs), failures, notes


def traced_run(cls, args, host):
    from layertrace import Tracer

    tracer = Tracer()
    plain, traced = cls(args.seed, OUT), cls(args.seed, OUT)
    failures, outs, times = [], [], {False: [], True: []}
    try:
        calibs = [host.calibrate()]
        start = time.perf_counter()
        # an even number of pairs, so that each side runs first equally often
        while (len(outs) < COUNT_OPS or len(outs) % 2
               or time.perf_counter() - start < args.seconds):
            i = len(outs)
            pair = {}
            # alternate which side runs first so drift hits both alike
            for side in ((False, True) if i % 2 == 0 else (True, False)):
                if side:
                    with tracer.operation(i):
                        out, _, seconds = run_op(traced, i, failures)
                else:
                    out, _, seconds = run_op(plain, i, failures)
                pair[side] = out
                times[side].append(seconds)
            calibs.append(host.calibrate())
            if pair[False] != pair[True]:
                failures.append(f"op {i}: tracing changed the output")
            outs.append(pair[True])
        check_outputs(traced, outs, failures)
    finally:
        plain.close()
        traced.close()
    overhead = sum(times[True]) / sum(times[False]) - 1
    # self times are scaled to the reference host like the end-to-end times
    median = statistics.median(calibs)
    speed = scale(median, median)
    metrics = {}
    for name, value in tracer.metrics(COUNT_OPS, overhead).items():
        if name == "trace.overhead_frac":
            metrics[name] = (value, "frac")
        elif name.endswith("_s"):
            metrics[name] = (value * speed, "s")
        else:
            metrics[name] = (value, "count")
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    tracer.dump(spans_path)
    notes = [f"inputs {plain.inputs}",
             f"op pairs {len(outs)}; counts per op over the first {COUNT_OPS}, "
             f"self times per op over all",
             f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, 2 * len(outs), failures, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        workload = cls(args.seed, OUT)
        ready = time.time()
        workload.close()
        print(workload.inputs, ready)
        return 0
    run = traced_run if args.trace else plain_run
    with Calibrator() as host:
        metrics, attempted, failures, notes = run(cls, args, host)

    print(f"# {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for failure in failures:
        print(f"# FAILED {failure}")
    print(f"# failed_frac {len(failures) / attempted} ({len(failures)}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
