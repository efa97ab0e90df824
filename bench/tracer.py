"""Span tracing of clearflow's public functions, from outside the package.

`Tracer.install` replaces each listed function, in every clearflow module
that binds it by name (`fundamental_solve` lives in `markov` and is imported
into `flow` and `solvers`), with a wrapper that records one span per call:
name, start, end, parent span and operation id. Spans stay in memory;
`Tracer.layer_totals` derives per-function self time (duration minus the
time covered by child spans) and call counts, and `Tracer.write_spans`
writes them out. A listed function that no longer exists is skipped, so its
metrics come out absent rather than the run failing. `uninstall` puts every
original back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

#: public functions per module whose calls are timed
LAYERS = {
    "markov": (
        "solve_linear",
        "fundamental_solve",
        "is_transient",
        "restrict",
        "active_set",
        "closed_classes",
        "decompose_nonactive",
        "invariant_distribution",
    ),
    "flow": (
        "run_flow",
        "big_bang_partition",
        "equilibrium_rates",
        "balance_rates",
        "step",
        "trace_line",
    ),
    "solvers": (
        "fictitious_defaults",
        "phi",
        "verify_clearing",
        "solution_family",
        "bailout_vector",
    ),
    "network": ("parse_network", "build_network"),
    "cli": ("main",),
}


def layer_names() -> list[str]:
    return [f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs]


PACKAGE = "clearflow"


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.max_solve_size = 0
        self.fd_rounds: list[int] = []
        self.operation = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        #: names of the listed functions found in the package
        self.installed: set[str] = set()

    def _wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.operation])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if name == "markov.solve_linear":
                tracer.max_solve_size = max(tracer.max_solve_size, len(args[0]))
            elif name == "solvers.fictitious_defaults":
                tracer.fd_rounds.append(result[1].outer_iterations)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, funcs in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            for func_name in funcs:
                original = getattr(home, func_name, None)
                if original is None:
                    continue
                name = f"{module_name}.{func_name}"
                self.installed.add(name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if getattr(module, func_name, None) is original:
                        setattr(module, func_name, wrapper)
                        self._patched.append((module, func_name, original))

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._patched):
            setattr(module, func_name, original)
        self._patched.clear()

    def layer_totals(self, operations=None, scale=None) -> dict[str, dict[str, float]]:
        """{name: {"self_s", "calls"}} over the spans of the given operations;
        `scale` maps an operation id to a factor applied to its self times."""
        child_time = defaultdict(float)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            if operations is not None and op not in operations:
                continue
            entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0})
            factor = scale.get(op, 1.0) if scale else 1.0
            entry["self_s"] += (end - start - child_time[index]) * factor
            entry["calls"] += 1
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent if parent >= 0 else None, "op": op}
                ) + "\n")
