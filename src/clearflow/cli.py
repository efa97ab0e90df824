"""Command-line front end.

Subcommands: solve, family, bailout, trace, gen, compare. Networks come in
as JSON documents (file path or standard input) or as a pair of CSV files;
results go to standard output as JSON. Exit codes: 0 success, 2 invalid
input or configuration, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

from .errors import InvalidParamsError, SolverError, ValidationError
from .flow import run_flow, trace_line
from .generate import generate_network
from .markov import decompose_nonactive
from .network import (
    FinancialNetwork,
    convert_network,
    parse_network,
    parse_network_csv,
    serialize_network,
)
from .scalars import FLOAT, RATIONAL, scalar_to_json
from .solvers import (
    bailout_vector,
    fictitious_defaults,
    picard_iterate,
    result_from_payments,
    solution_family,
    verify_clearing,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_network(args) -> FinancialNetwork:
    if getattr(args, "csv_liabilities", None):
        banks_text = _read_text(args.input)
        liab_text = _read_text(args.csv_liabilities)
        return parse_network_csv(banks_text, liab_text, mode=args.mode)
    return parse_network(_read_text(args.input), mode=args.mode)


def _write_output(args, payload: str) -> None:
    out = getattr(args, "out", None)
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)


def _result_payload(net: FinancialNetwork, result, unique: bool) -> dict:
    payload = {
        "algorithm": result.algorithm,
        "payments": [scalar_to_json(x) for x in result.payments],
        "defaults": [net.ids[i] for i in sorted(result.defaults)],
        "unique": unique,
        "residual": scalar_to_json(verify_clearing(net, result.payments)),
    }
    if result.total_time is not None:
        payload["total_time"] = scalar_to_json(result.total_time)
    return payload


def _run_algorithm(net: FinancialNetwork, algorithm: str, args):
    if algorithm == "flow":
        result = run_flow(net, record_trajectory=args.trace)
        for event in result.trajectory:
            print(json.dumps(trace_line(net, event)), file=sys.stderr)
        return result
    if algorithm == "fd":
        result, _trace = fictitious_defaults(net)
        return result
    if algorithm == "picard":
        payments = picard_iterate(net, max_iter=args.max_iter, tol=args.tol)
        return result_from_payments(net, payments, "picard")


def _cmd_solve(args) -> int:
    net = _load_network(args)
    unique = not decompose_nonactive(net).swamps
    if args.algorithm == "all":
        results = {}
        for name in ("flow", "fd", "picard"):
            results[name] = _run_algorithm(net, name, args)
        pairs = itertools.combinations(results.values(), 2)
        diff = max(abs(x - y) for a, b in pairs for x, y in zip(a.payments, b.payments))
        payload = {
            "algorithm": "all",
            "results": {
                name: _result_payload(net, res, unique) for name, res in results.items()
            },
            "max_difference": scalar_to_json(diff),
        }
        _write_output(args, json.dumps(payload, indent=2))
        return EXIT_OK
    result = _run_algorithm(net, args.algorithm, args)
    payload = _result_payload(net, result, unique)
    _write_output(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_family(args) -> int:
    net = _load_network(args)
    family = solution_family(net)
    payload = {
        "unique": family.unique,
        "basic": [scalar_to_json(x) for x in family.basic],
        "greatest": [scalar_to_json(x) for x in family.greatest],
        "swamps": [
            {
                "banks": [net.ids[i] for i in swamp.banks],
                "pi": [scalar_to_json(w) for w in swamp.weights],
                "m": scalar_to_json(swamp.scale),
                "payments": [scalar_to_json(x) for x in swamp.payments],
            }
            for swamp in family.swamps
        ],
    }
    _write_output(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_bailout(args) -> int:
    net = _load_network(args)
    plan = bailout_vector(net)
    payload = {
        "unpaid": [scalar_to_json(x) for x in plan.unpaid],
        "injections": [scalar_to_json(x) for x in plan.injections],
        "verified": plan.verified,
        "seed_required": [[net.ids[i] for i in swamp] for swamp in plan.seed_required],
    }
    _write_output(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_trace(args) -> int:
    net = _load_network(args)
    result = run_flow(net, record_trajectory=True)
    lines = [json.dumps(trace_line(net, event)) for event in result.trajectory]
    _write_output(args, "\n".join(lines) if lines else "")
    return EXIT_OK


def _cmd_gen(args) -> int:
    net = generate_network(
        seed=args.seed,
        n=args.n,
        density=args.density,
        cash_scale=args.cash_scale,
        mode=args.mode,
    )
    _write_output(args, serialize_network(net))
    return EXIT_OK


def _cmd_compare(args) -> int:
    if args.count < 0:
        raise InvalidParamsError(f"--count must be nonnegative, got {args.count}")
    tol = args.tol_compare
    if not 0 <= tol < math.inf:
        raise InvalidParamsError(f"--tol-compare must be finite and nonnegative, got {tol}")
    worst = 0.0
    failures = 0
    for k in range(args.count):
        net = generate_network(
            seed=args.seed + k,
            n=args.n,
            density=args.density,
            cash_scale=args.cash_scale,
        )
        flow_result = run_flow(net, record_trajectory=False)
        fd_result, _ = fictitious_defaults(net)
        exact_match = flow_result.payments == fd_result.payments
        picard = picard_iterate(convert_network(net, FLOAT))
        drift = max(
            (abs(float(flow_result.payments[i]) - picard[i]) for i in range(net.n)),
            default=0.0,
        )
        worst = max(worst, drift)
        if not exact_match or drift > tol:
            failures += 1
            print(
                f"instance seed={args.seed + k}: flow/fd match={exact_match}, "
                f"picard drift={drift:.3e}",
                file=sys.stderr,
            )
    payload = {
        "instances": args.count,
        "failures": failures,
        "max_picard_drift": worst,
    }
    _write_output(args, json.dumps(payload, indent=2))
    return EXIT_OK if failures == 0 else EXIT_SOLVER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clearflow",
        description="Clearing payment vectors for financial liability networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", nargs="?", default="-",
                       help="network JSON file, or - for standard input")
        p.add_argument("--csv-liabilities", metavar="PATH",
                       help="treat input as the id,cash CSV and read from,to,amount here")
        p.add_argument("--mode", choices=(RATIONAL, FLOAT), default=RATIONAL)
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    p_solve = sub.add_parser("solve", help="compute a clearing vector")
    add_io(p_solve)
    p_solve.add_argument("--algorithm", choices=("flow", "fd", "picard", "all"),
                         default="flow")
    p_solve.add_argument("--trace", action="store_true",
                         help="emit one JSON event per flow status change on stderr")
    p_solve.add_argument("--tol", type=float, default=None,
                         help="fixed-point tolerance (float mode only)")
    p_solve.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    p_solve.set_defaults(func=_cmd_solve)

    p_family = sub.add_parser("family", help="describe every clearing vector")
    add_io(p_family)
    p_family.set_defaults(func=_cmd_family)

    p_bailout = sub.add_parser("bailout", help="minimal injections ending all defaults")
    add_io(p_bailout)
    p_bailout.set_defaults(func=_cmd_bailout)

    p_trace = sub.add_parser("trace", help="run the flow and print its event log")
    add_io(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_gen = sub.add_parser("gen", help="generate a seeded random network")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--cash-scale", default="1", dest="cash_scale")
    p_gen.add_argument("--mode", choices=(RATIONAL, FLOAT), default=RATIONAL)
    p_gen.add_argument("--out", metavar="PATH")
    p_gen.set_defaults(func=_cmd_gen)

    p_cmp = sub.add_parser("compare", help="batch cross-check of all three algorithms")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--count", type=int, default=100)
    p_cmp.add_argument("--n", type=int, default=5)
    p_cmp.add_argument("--density", type=float, default=0.5)
    p_cmp.add_argument("--cash-scale", default="1", dest="cash_scale")
    p_cmp.add_argument("--tol-compare", type=float, default=1e-9, dest="tol_compare")
    p_cmp.add_argument("--out", metavar="PATH")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: every parser holds reference cycles that only
    # a full garbage collection frees
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "tol", None) is not None and args.mode == RATIONAL:
        print("error: --tol requires --mode float (rational mode is exact)",
              file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
