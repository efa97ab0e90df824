"""Self-test of the benchmark at tiny sizes, with no timing bounds.

    python3 -m pytest bench -q        (or: python3 bench/test_bench.py)

Runs one round of every workload with all checks, and shows that each
checker rejects an answer with one payment, injection or weight changed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads
from checker import CheckFailed, NetworkCheck

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CASCADE_N", 8)
    monkeypatch.setattr(workloads, "FLOAT_N", 12)
    monkeypatch.setattr(workloads, "SWAMP_ROLES", (
        ("core", 6), ("revealed", 2), ("zero", 2), ("sink", 2), ("transient", 3)))
    monkeypatch.setattr(workloads, "SWAMP_SIZES", (2, 3))
    monkeypatch.setattr(run, "POOL_SIZE", dict.fromkeys(run.WORKLOADS, 2))
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_round_passes_checks(tiny, workload):
    result = run.measure(workload, seed=5, seconds=0, traced=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.COMMANDS) + workloads.EXTRA_FD[workload]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_round_reports_every_layer(tiny, workload):
    result = run.measure(workload, seed=5, seconds=0, traced=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] == 1
    assert (tiny / f"spans-{workload}-seed5.jsonl").stat().st_size > 0


def _outputs(tiny, workload, mode_commands=workloads.COMMANDS):
    """(checker, {command: output}) for the first network of a tiny pool."""
    run.import_clearflow()
    ops = workloads.build_pool(workload, 7, 1, tiny)[0]
    outputs = {}
    for op in ops:
        if op.command in mode_commands and op.instance == ops[0].instance:
            _elapsed, code, text = run.run_op(op)
            assert code == 0
            outputs[op.command] = text
    net = NetworkCheck(ops[0].instance.path.read_text(encoding="utf-8"), ops[0].instance.mode)
    return net, outputs


def _bump(value, mode):
    if mode == "rational":
        return str(Fraction(value) + Fraction(1, 7))
    return value + 1e-3


def _edited(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("workload", ["exact-cascade", "float-dense"])
def test_checkers_accept_and_reject(tiny, workload):
    net, out = _outputs(tiny, workload, ("solve", "fd", "trace", "family"))
    mode = net.mode
    flow = net.check_solve(out["solve"])
    net.check_solve(out["fd"], flow)
    net.check_trace(out["trace"], flow)
    net.check_family(out["family"], flow)

    def bump_payment(doc):
        doc["payments"][1] = _bump(doc["payments"][1], mode)

    for command in ("solve", "fd"):
        with pytest.raises(CheckFailed):
            net.check_solve(_edited(out[command], bump_payment))

    lines = out["trace"].splitlines()
    last = json.loads(lines[-1])
    last["debt"][2] = _bump(last["debt"][2], mode)
    with pytest.raises(CheckFailed):
        net.check_trace("\n".join(lines[:-1] + [json.dumps(last)]))

    def bump_basic(doc):
        doc["basic"][0] = _bump(doc["basic"][0], mode)

    with pytest.raises(CheckFailed):
        net.check_family(_edited(out["family"], bump_basic))


def test_swamp_checkers_reject_changed_weight_and_injection(tiny):
    net, out = _outputs(tiny, "exact-swamps")
    assert len(net.swamps) == 2
    flow = net.check_solve(out["solve"])
    net.check_family(out["family"], flow)
    net.check_bailout(out["bailout"], flow)

    def bump_pi(doc):
        doc["swamps"][0]["pi"][0] = _bump(doc["swamps"][0]["pi"][0], "rational")

    def bump_injection(doc):
        doc["injections"][0] = _bump(doc["injections"][0], "rational")

    with pytest.raises(CheckFailed):
        net.check_family(_edited(out["family"], bump_pi))
    with pytest.raises(CheckFailed):
        net.check_bailout(_edited(out["bailout"], bump_injection))


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-cascade", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
