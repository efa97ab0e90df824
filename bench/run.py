#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the clearflow CLI.

    python3 bench/run.py --workload exact-cascade --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1          # the three workloads in turn

One process, one client in a closed loop: each operation is one CLI
subcommand called through `clearflow.cli.main` on a network JSON file written
at set-up, and the next starts when it returns. Rounds of operations repeat
until `--seconds` have passed, always ending on a whole round. Every output is
checked by `checker.py`, which does its own arithmetic and does not import
clearflow.

`--trace 0` times the operations and reports the end-to-end metrics.
`--trace 1` runs each round twice, untraced and then with every public layer
function wrapped by `tracer.py`, and reports per-layer self time and calls
per operation plus the tracing overhead; spans and a per-command breakdown
go to `.bench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The program is imported from
`src/` next to this directory; without it the script exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import Timeline
from checker import CheckFailed, NetworkCheck
from tracer import Tracer, layer_names
from workloads import COMMANDS, build_pool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("exact-cascade", "exact-swamps", "float-dense")
#: networks generated at set-up; rounds past the pool reuse it from the start
POOL_SIZE = {"exact-cascade": 48, "exact-swamps": 20, "float-dense": 24}
#: set-up is repeated this often and its median reported
SETUP_REPEATS = 3

UNITS = {"ops_per_s": "ops/s", "peak_rss_mb": "MB"}


class SourceMissing(Exception):
    pass


def import_clearflow():
    """Import clearflow afresh from `src/`, never from anywhere else."""
    if not (SRC / "clearflow" / "__init__.py").is_file():
        raise SourceMissing(f"no clearflow sources under {SRC}")
    for key in [k for k in sys.modules if k == "clearflow" or k.startswith("clearflow.")]:
        del sys.modules[key]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    cli = importlib.import_module("clearflow.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "clearflow").resolve():
        raise SourceMissing(f"clearflow was imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int):
    """Import, generate and write the inputs; repeated, the median is set-up time."""
    timeline = Timeline()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_clearflow()
        rounds = build_pool(workload, seed, POOL_SIZE[workload], OUT / "inputs")
        timeline.add(time.perf_counter() - start)
    return rounds, statistics.median(timeline.calibrated(k) for k in range(SETUP_REPEATS))


def run_op(op) -> tuple[float, int, str]:
    """Call the CLI once; returns (seconds, exit code, standard output)."""
    cli = sys.modules["clearflow.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv())
    except Exception:  # a crash is a failed operation; the run goes on
        code = -1
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"operation {op.command} {op.instance.name} exited {code}: "
              f"{err.getvalue().strip()[-400:]}", file=sys.stderr)
    return elapsed, code, out.getvalue()


class Checks:
    """Independent checks, with the flow payments seen so far per network.

    `new_round` forgets the networks of the previous round, so the
    checker's memory does not grow with the number of rounds and
    `peak_rss_mb` does not depend on how many rounds a run gets through.
    """

    def __init__(self):
        self.networks: dict[Path, NetworkCheck] = {}
        self.flow: dict[Path, list] = {}
        self.errors: list[str] = []

    def new_round(self) -> None:
        self.networks.clear()
        self.flow.clear()

    def __call__(self, op, text: str) -> None:
        path = op.instance.path
        if path not in self.networks:
            self.networks[path] = NetworkCheck(path.read_text(encoding="utf-8"), op.instance.mode)
        net = self.networks[path]
        flow = self.flow.get(path)
        try:
            if op.command == "solve":
                self.flow[path] = net.check_solve(text, flow)
            elif op.command == "fd":
                net.check_solve(text, flow)
            elif op.command == "trace":
                net.check_trace(text, flow)
            elif op.command == "family":
                net.check_family(text, flow)
            elif op.command == "bailout":
                net.check_bailout(text, flow)
        except (CheckFailed, KeyError, ValueError, TypeError) as exc:
            message = f"{op.command} {op.instance.name}: {type(exc).__name__}: {exc}"
            self.errors.append(message)
            print(f"check failed: {message}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set up, run whole rounds for `seconds`, check every output, and return
    the result object (end-to-end metrics, or per-layer ones when traced)."""
    rounds, setup_s = set_up(workload, seed)
    checks = Checks()
    tracer = Tracer() if traced else None
    timeline = Timeline()
    # per timed operation: (command, network, traced pass, exit code, timeline index)
    records: list[tuple[str, str, bool, int, int]] = []
    op_commands: list[str] = []  # traced operations, by tracer operation id

    def timed(op, traced_pass: bool) -> None:
        wall, code, text = run_op(op)
        records.append((op.command, op.instance.name, traced_pass, code, timeline.add(wall)))
        if code == 0:
            checks(op, text)

    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        ops = rounds[r % len(rounds)]
        checks.new_round()
        for op in ops:
            timed(op, False)
        if tracer is not None:
            tracer.install()
            try:
                for op in ops:
                    tracer.operation = len(op_commands)
                    op_commands.append(op.command)
                    timed(op, True)
            finally:
                tracer.uninstall()
        r += 1

    OUT.mkdir(parents=True, exist_ok=True)
    times: dict[str, list[float]] = {c: [] for c in COMMANDS}
    pass_time = {False: 0.0, True: 0.0}
    scale: dict[int, float] = {}  # traced operation id -> calibration factor
    with open(OUT / f"ops-{workload}-seed{seed}-trace{int(traced)}.jsonl", "w", encoding="utf-8") as log:
        for command, network, traced_pass, code, k in records:
            elapsed = timeline.calibrated(k)
            log.write(json.dumps({"command": command, "network": network, "traced": traced_pass,
                                  "exit": code, "wall_s": timeline.wall[k],
                                  "calibrated_s": elapsed}) + "\n")
            if traced_pass:
                scale[len(scale)] = elapsed / timeline.wall[k]
            if code != 0:
                continue
            pass_time[traced_pass] += elapsed
            if not traced_pass:
                times[command].append(elapsed)

    failed = sum(1 for record in records if record[3] != 0)
    result = {"correct": not checks.errors, "attempted": len(records), "failed": failed}
    if tracer is None:
        count = sum(len(v) for v in times.values())
        metrics = {f"{c}_p50_s": statistics.median(v) for c, v in times.items() if v}
        metrics["ops_per_s"] = count / pass_time[False] if count else 0.0
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"] = {
            name: {"value": value, "unit": UNITS.get(name, "s")} for name, value in metrics.items()
        }
    else:
        result["metrics"] = layer_metrics(tracer, scale, pass_time[True] - pass_time[False])
        write_trace_files(workload, seed, tracer, op_commands, scale)
    result["rounds"] = r
    return result


def layer_metrics(tracer: Tracer, scale: dict[int, float], overhead: float) -> dict:
    """Calibrated self time and calls per traced operation, for every layer."""
    ops = len(scale)
    totals = tracer.layer_totals(scale=scale)
    installed = tracer.installed
    metrics = {}
    for name in layer_names():
        if name not in installed:
            continue  # the function is gone from the package
        entry = totals.get(name, {"self_s": 0.0, "calls": 0})
        metrics[f"{name}.self_s"] = {"value": entry["self_s"] / ops, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": entry["calls"] / ops, "unit": "count"}
    if "markov.solve_linear" in installed:
        metrics["markov.solve_linear.max_m"] = {"value": tracer.max_solve_size, "unit": "count"}
    if "solvers.fictitious_defaults" in installed and tracer.fd_rounds:
        metrics["solvers.fictitious_defaults.rounds"] = {
            "value": statistics.mean(tracer.fd_rounds), "unit": "count"}
    metrics["tracing.overhead_s"] = {"value": overhead / ops, "unit": "s"}
    return metrics


def write_trace_files(workload: str, seed: int, tracer: Tracer, op_commands: list[str],
                      scale: dict[int, float]) -> None:
    """Spans as JSON lines, and self time per layer per command."""
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    breakdown = {}
    for command in COMMANDS:
        ops = {k for k, c in enumerate(op_commands) if c == command}
        if not ops:
            continue
        totals = tracer.layer_totals(ops, scale)
        breakdown[command] = {
            name: {"self_s": t["self_s"] / len(ops), "calls": t["calls"] / len(ops)}
            for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])
        }
    path = OUT / f"layers-{workload}-seed{seed}.json"
    path.write_text(json.dumps(breakdown, indent=1) + "\n", encoding="utf-8")
    for command, layers in breakdown.items():
        top = list(layers.items())[:4]
        print(f"{workload} {command}: " + ", ".join(
            f"{name} {t['self_s']:.4f} s" for name, t in top))


def report(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{workload} attempted {result['attempted']} failed {result['failed']} "
          f"rounds {result['rounds']} correct {result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name])
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items() for k, v in res["metrics"].items()}
    summary = {
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
