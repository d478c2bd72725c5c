"""Command line front end.

Subcommands:

- filter    run a local filter and print corrected values
- oracle    exact Lipschitz check and l0/l1 distances for small inputs
- test      tolerant Lipschitz tester on a hypercube function
- mechanism private value release (Laplace filter or binary search)
- gen-hard  sample a planted hard instance
- bench     per-query lookup counts of the l0 filter on hard instances

All output is JSON on stdout with sorted keys.  Exit codes: 0 success
(or tester accept), 1 tester reject / Lipschitz check failure, 2 errors.

The ``lookups`` fields of ``filter`` and ``bench`` count the distinct
vertices each filter session read (its memo's misses), not the filter's
lookup calls.  ``mechanism`` prints the released answer only: its value,
and with ``--binary-search`` its probe count ``iterations``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .errors import Error, InvalidParam
from .filter_l0 import LocalFilterL0
from .filter_l1 import DEFAULT_SLACK, LocalFilterL1
from .functions import (
    ExprFunction, format_value, function_to_json, load_function, parse_rational,
)
from .graphs import Hypercube, Hypergrid, load_graph, random_vertex
from .hard import sample_hard_instance
from .privacy import BinarySearchMechanism, FilterMechanism, NoiseSource
from .seeds import Seed
from .tester import tolerant_test
from . import exact


def _parse_domain(spec: str):
    """'cube:d' hypercube, 'n,d' hypergrid, or a graph JSON source: JSON
    text or a file path, either of which may contain commas."""
    if spec.lstrip().startswith("{") or os.path.exists(spec):
        return load_graph(spec)
    try:
        if spec.startswith("cube:"):
            return Hypercube(int(spec[len("cube:"):]))
        if "," in spec:
            n, d = spec.split(",")
            return Hypergrid(int(n), int(d))
    except ValueError:
        raise InvalidParam(f"bad domain {spec!r}: expected 'cube:d' or 'n,d'") from None
    return load_graph(spec)


def _cap(text: str) -> int:
    """An argparse type for a search cap or a pair count: an int of at
    least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _parse_seed(text: str | None) -> Seed:
    if text is None:
        return Seed.random()
    return Seed.from_hex(text)


def _fmt(v):
    if v is None or isinstance(v, Fraction):
        return format_value(v)
    return v


def _load_fn(args, parser):
    if getattr(args, "function", None):
        return load_function(args.function)
    if getattr(args, "expr", None) is not None:
        if not args.domain or args.range is None:
            parser.error("--expr needs --domain and --range")
        graph = _parse_domain(args.domain)
        return graph, ExprFunction(graph, args.expr, parse_rational(args.range))
    parser.error("provide --function FILE or --expr TEXT")


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _add_fn_args(p):
    p.add_argument("--function", help="path to a function JSON file")
    p.add_argument("--expr", help="coordinate expression, e.g. 'min(x1+x2, 3)'")
    p.add_argument("--domain",
                   help="'n,d' hypergrid, 'cube:d', or graph JSON text or path")
    p.add_argument("--range", help="range size r for --expr functions")
    p.add_argument("--seed", help="64 hex chars; random when omitted")


def _cmd_filter(args, parser):
    graph, f = _load_fn(args, parser)
    seed = _parse_seed(args.seed)
    if args.mode == "l1":
        filt = LocalFilterL1(graph, f, seed, slack=parse_rational(args.slack))
    else:
        filt = LocalFilterL0(graph, f, seed)
    out = {"mode": args.mode, "seed": seed.hex}
    if args.mode == "l1":
        out["rounds"] = filt.schedule.rounds
    if args.all:
        table = filt.table()
        out["values"] = {graph.canon(x): _fmt(v) for x, v in table.items()}
    else:
        if not args.query:
            parser.error("provide --query CANON (repeatable) or --all")
        out["values"] = {
            q: _fmt(filt.value(graph.from_canon(q))) for q in args.query
        }
    out["lookups"] = f.lookups
    _emit(out)
    return 0


def _cmd_oracle(args, parser):
    graph, f = _load_fn(args, parser)
    # f is Lipschitz exactly when no pair is violated, i.e. the cover is
    # empty; a pair with a ? is never violated
    cover = exact.min_violation_cover(graph, f, cap=args.l0_cap)
    lipschitz = not cover
    out = {"lipschitz": lipschitz}
    out["l0"] = _fmt(Fraction(len(cover), graph.n_vertices))
    out["cover"] = sorted(graph.canon(x) for x in cover)
    if not args.no_l1:
        if args.witness:
            dist, witness = exact.exact_l1_distance(graph, f, with_witness=True)
            out["witness"] = {graph.canon(x): _fmt(v) for x, v in witness.items()}
        else:
            dist = exact.exact_l1_distance(graph, f)
        out["l1"] = _fmt(dist)
    _emit(out)
    return 0 if lipschitz else 1


def _cmd_test(args, parser):
    graph, f = _load_fn(args, parser)
    seed = _parse_seed(args.seed)
    report = tolerant_test(
        graph, f, parse_rational(args.eps), seed,
        m=args.m, reps=args.reps)
    _emit({
        "accept": report.accept,
        "estimates": [_fmt(e) for e in report.estimates],
        "m": report.params.m,
        "threshold": _fmt(report.params.threshold),
        "window_halfwidth": float(report.params.t),
        "seed": seed.hex,
    })
    return 0 if report.accept else 1


def _cmd_mechanism(args, parser):
    graph, f = _load_fn(args, parser)
    seed = _parse_seed(args.seed)
    noise = None
    noise_hex = None
    if not args.no_noise:
        noise_seed = _parse_seed(args.noise_seed)
        noise_hex = noise_seed.hex
        noise = NoiseSource(noise_seed)
    eps = parse_rational(args.eps)
    x = graph.from_canon(args.query)
    out = {"seed": seed.hex, "noise_seed": noise_hex, "query": args.query}
    if args.binary_search:
        mech = BinarySearchMechanism(graph, f, eps, seed)
        res = mech.answer(x, noise)
        out.update({
            "value": _fmt(res.value),
            "iterations": res.iterations,
        })
    else:
        mech = FilterMechanism(graph, f, eps, seed)
        value = mech.answer(x, noise)
        out["value"] = _fmt(value)
    _emit(out)
    return 0


def _cmd_gen_hard(args, parser):
    graph = _parse_domain(args.domain)
    seed = _parse_seed(args.seed)
    inst = sample_hard_instance(
        graph, args.r, args.b, seed, m=args.pairs, retry_cap=args.retry_cap)
    out = inst.to_json()
    out["seed"] = seed.hex
    if args.values:
        if graph.n_vertices > 1 << 16:
            parser.error("--values only for domains with at most 2^16 vertices")
        out["function"] = function_to_json(graph, inst.to_oracle())
    _emit(out)
    return 0


def run_bench(dims, r, seed: Seed, *, queries: int = 30, pairs: int = 8):
    """Lookup counts for the l0 filter on planted b=1 cubes.

    Every query runs in a fresh filter session so nothing is amortized
    across queries.  Returns one row per dimension.
    """
    if type(queries) is not int or queries < 1:
        raise InvalidParam(f"queries must be an int >= 1, got {queries!r}")
    rows = []
    for i, d in enumerate(dims):
        graph = Hypercube(d)
        inst = sample_hard_instance(
            graph, r, 1, seed.derive("inst", i), m=pairs)
        f = inst.to_oracle()
        rng = random.Random(int(seed.derive("queries", i).hex, 16))
        counts = []
        for q in range(queries):
            x = random_vertex(graph, rng)
            f.reset_lookups()
            filt = LocalFilterL0(graph, f, seed.derive("session", i * queries + q))
            filt.value(x)
            counts.append(f.lookups)
        rows.append({
            "d": d,
            "queries": queries,
            "lookups_mean": sum(counts) / len(counts),
            "lookups_max": max(counts),
        })
    return rows


def _cmd_bench(args, parser):
    seed = _parse_seed(args.seed)
    try:
        dims = [int(s) for s in args.dims.split(",")]
    except ValueError:
        raise InvalidParam(f"bad --dims {args.dims!r}: expected integers") from None
    rows = run_bench(
        dims, args.r, seed, queries=args.queries, pairs=args.pairs)
    _emit({"r": args.r, "rows": rows, "seed": seed.hex})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipfilter",
        description="Local Lipschitz filters for bounded-range functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="run a local filter")
    _add_fn_args(p)
    p.add_argument("--mode", choices=("l1", "l0"), default="l1")
    p.add_argument("--slack", default=str(DEFAULT_SLACK),
                   help="l1 slack, e.g. 1/100")
    p.add_argument("--query", action="append",
                   help="canonical vertex, repeatable")
    p.add_argument("--all", action="store_true", help="filter every vertex")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("oracle", help="exact distances for small inputs")
    _add_fn_args(p)
    p.add_argument("--l0-cap", type=_cap, default=None,
                   help="search node cap for the cover computation")
    p.add_argument("--no-l1", action="store_true")
    p.add_argument("--witness", action="store_true",
                   help="also print a closest Lipschitz function")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("test", help="tolerant Lipschitz tester")
    _add_fn_args(p)
    p.add_argument("--eps", required=True)
    p.add_argument("--m", type=int, default=None,
                   help="samples per repetition (default scales as eps^-2)")
    p.add_argument("--reps", type=int, default=1)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("mechanism", help="private value release")
    _add_fn_args(p)
    p.add_argument("--eps", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--binary-search", action="store_true")
    p.add_argument("--no-noise", action="store_true",
                   help="deterministic run, exact rational output")
    p.add_argument("--noise-seed", help="64 hex chars for the noise stream")
    p.set_defaults(func=_cmd_mechanism)

    p = sub.add_parser("gen-hard", help="sample a planted hard instance")
    p.add_argument("--domain", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--pairs", type=_cap, default=8)
    p.add_argument("--retry-cap", type=_cap, default=1000)
    p.add_argument("--seed")
    p.add_argument("--values", action="store_true",
                   help="also emit the full value table")
    p.set_defaults(func=_cmd_gen_hard)

    p = sub.add_parser("bench", help="per-query l0 filter lookup counts")
    p.add_argument("--dims", required=True, help="comma list, e.g. 8,10,12")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--queries", type=int, default=30)
    p.add_argument("--pairs", type=_cap, default=8)
    p.add_argument("--seed")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
