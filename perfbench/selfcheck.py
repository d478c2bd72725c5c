"""Count-determinism self-check for the benchmark.

For each workload: two runs with one seed must report identical counts
(lookups_per_op, and every per-layer count of the traced run), and a
different seed must generate different inputs.  Exits 1 on a mismatch.

    python3 perfbench/selfcheck.py [--seed 1] [workload ...]
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
WORKLOADS = ("l1_far", "l1_near", "tester", "private_release")


def run(*args) -> str:
    done = subprocess.run([sys.executable, str(RUN), *args], cwd=HERE.parent,
                          check=True, capture_output=True, text=True, timeout=600)
    return done.stdout


def counts(workload, seed, trace) -> dict:
    """Count metrics of one short run (it still completes COUNT_OPS ops)."""
    out = run("--workload", workload, "--seed", str(seed), "--seconds", "0",
              "--trace", str(trace))
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run was not correct")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def inputs(workload, seed) -> str:
    out = run("--workload", workload, "--seed", str(seed), "--seconds", "0",
              "--setup-only")
    return out.split()[0]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = p.parse_args(argv)
    ok = True
    for workload in args.workloads:
        for trace in (0, 1):
            first = counts(workload, args.seed, trace)
            second = counts(workload, args.seed, trace)
            same = first == second
            ok &= same
            print(f"{workload} trace {trace}: {len(first)} counts "
                  f"{'repeat' if same else 'DIFFER'}")
            if not same:
                for name in first:
                    if first[name] != second.get(name):
                        print(f"  {name}: {first[name]} then {second.get(name)}")
        differ = inputs(workload, args.seed) != inputs(workload, args.seed + 1)
        ok &= differ
        print(f"{workload}: seeds {args.seed} and {args.seed + 1} give "
              f"{'different' if differ else 'THE SAME'} inputs")
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
