"""Seeded inputs and per-round operations of the three workloads.

Every input is a network JSON file written at set-up; the program only sees
those files. A round runs every command on one network and `fd` on
EXTRA_FD[workload] further networks (fd is cheap, and its time varies most
from network to network, so it needs more samples). Round r uses the r-th
networks of the workload's pool, so every round runs the same commands on
fresh networks of the same make-up.

- exact-cascade: `generate_network(density=0.3, cash_scale="1/4")` at n=20,
  rational. Nearly every bank defaults and the zero group grows towards n,
  so the exact zero-group solve dominates the flow.
- exact-swamps: sparse networks of 80 banks from `swamp_network` below,
  rational. Zero groups stay small; the dense inflow kernel, the graph
  passes and the bailout's flow runs dominate.
- float-dense: the cascade generator at n=64 in float mode. Float bailout
  fails on these inputs (see CHANGES.md), so `bailout` here runs in exact
  mode on an n=20 cascade network drawn from the same seed.

The sizes are smaller than first planned, so that a 35 s run gathers enough
samples for its medians to repeat on a noisy 2-core host; see README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

COMMANDS = ("solve", "fd", "trace", "family", "bailout")

CASCADE_N = 20
FLOAT_N = 64
EXTRA_FD = {"exact-cascade": 2, "exact-swamps": 1, "float-dense": 1}

#: (role, count) of one swamp network; swamp sizes follow
SWAMP_ROLES = (("core", 38), ("revealed", 6), ("zero", 6), ("sink", 5), ("transient", 11))
SWAMP_SIZES = (2, 2, 3, 3, 4)

_DENOMINATORS = (1, 2, 3, 4, 6, 8)


@dataclass(frozen=True)
class Instance:
    mode: str
    path: Path

    @property
    def name(self) -> str:
        return self.path.stem


@dataclass(frozen=True)
class Op:
    command: str
    instance: Instance

    def argv(self) -> list[str]:
        head = {
            "solve": ["solve"],
            "fd": ["solve", "--algorithm", "fd"],
            "trace": ["trace"],
            "family": ["family"],
            "bailout": ["bailout"],
        }[self.command]
        return head + [str(self.instance.path), "--mode", self.instance.mode]


def instance_seed(workload: str, seed: int, k: int) -> int:
    """Seed of the k-th network of a workload run; string seeding is stable."""
    return random.Random(f"{workload}/{seed}/{k}").getrandbits(32)


def _amount(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 8), rng.choice(_DENOMINATORS))


def swamp_network(seed: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Liabilities and cash of one sparse network with swamps.

    - core: 2-4 debts each to core, zero-group and sink banks, funded with
      3/4 to 2 times their total debt, so most pay in full;
    - revealed: cashless, but three core banks owe each of them more than
      twice their other debts, so the in-rate at time zero is above 1 and
      the bank is revealed as positive;
    - zero: cashless, fed a sliver by one core bank; they stay in the zero
      group and forward what arrives;
    - sink: no debts, absorbing from the start;
    - transient: cashless and owed by no active bank, so nonactive; they owe
      each other, the core and swamp members, so their flow can escape;
    - swamps: closed, strongly connected, cashless groups with random debts.
      A swamp whose members are each owed exactly what they owe is redrawn:
      `bailout` cannot verify such a swamp (see CHANGES.md).
    """
    rng = random.Random(seed)
    roles = [role for role, count in SWAMP_ROLES for _ in range(count)]
    roles += [f"swamp{k}" for k, size in enumerate(SWAMP_SIZES) for _ in range(size)]
    n = len(roles)
    positions = list(range(n))
    rng.shuffle(positions)
    members: dict[str, list[int]] = {}
    for pos, role in zip(positions, roles):
        members.setdefault(role, []).append(pos)
    core, revealed, zero = members["core"], members["revealed"], members["zero"]
    sink, transient = members["sink"], members["transient"]
    swamps = [members[f"swamp{k}"] for k in range(len(SWAMP_SIZES))]

    debts = [[Fraction(0)] * n for _ in range(n)]
    cash = [Fraction(0)] * n
    core_targets = core + zero + sink
    for i in core:
        for j in rng.sample([x for x in core_targets if x != i], rng.randint(2, 4)):
            debts[i][j] += _amount(rng)
    for r in revealed:
        for j in rng.sample(core, 3):
            debts[j][r] += 2 * sum(debts[j]) + _amount(rng)
        for j in rng.sample(core + sink, 2):
            debts[r][j] += _amount(rng)
    for z in zero:
        for j in rng.sample(core + sink, 2):
            debts[z][j] += _amount(rng)
        debts[rng.choice(core)][z] += Fraction(1, 16)
    for i in core:
        cash[i] = sum(debts[i]) * Fraction(rng.randint(6, 16), 8)
    swamp_members = [i for s in swamps for i in s]
    for t in transient:
        for j in rng.sample([x for x in transient + core + swamp_members if x != t], 2):
            debts[t][j] += _amount(rng)
    for s in swamps:
        m = len(s)
        while True:
            for a in range(m):
                for b in range(m):
                    if a != b:
                        ring = b == (a + 1) % m
                        debts[s[a]][s[b]] = _amount(rng) if ring or rng.random() < 0.5 else Fraction(0)
            owes = [sum(debts[i]) for i in s]
            owed = [sum(debts[j][i] for j in s) for i in s]
            if owes != owed:
                break
    return debts, cash


def _document(debts, cash) -> str:
    n = len(cash)
    doc = {
        "banks": [{"id": str(i + 1), "cash": str(cash[i])} for i in range(n)],
        "liabilities": [
            {"from": str(i + 1), "to": str(j + 1), "amount": str(debts[i][j])}
            for i in range(n) for j in range(n) if debts[i][j] != 0
        ],
    }
    return json.dumps(doc, indent=1)


def _write(path: Path, text: str) -> None:
    path.write_text(text + "\n", encoding="utf-8")


def _network(workload: str, seed: int, path: Path) -> Instance:
    from clearflow.generate import generate_network
    from clearflow.network import serialize_network

    if workload == "exact-swamps":
        _write(path, _document(*swamp_network(seed)))
        return Instance("rational", path)
    mode = "float" if workload == "float-dense" else "rational"
    n = FLOAT_N if mode == "float" else CASCADE_N
    net = generate_network(seed=seed, n=n, density=0.3, cash_scale="1/4", mode=mode)
    _write(path, serialize_network(net))
    return Instance(mode, path)


def build_pool(workload: str, seed: int, size: int, directory: Path) -> list[list[Op]]:
    """Write `size` rounds' worth of inputs under `directory` and return the
    operations of each round."""
    if workload not in EXTRA_FD:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    rounds = []
    for k in range(size):
        s = instance_seed(workload, seed, k)
        main = _network(workload, s, directory / f"{workload}-{k}.json")
        ops = [Op(c, main) for c in COMMANDS]
        if workload == "float-dense":
            ops[-1] = Op("bailout", _network("exact-cascade", s, directory / f"{workload}-{k}-exact.json"))
        for e in range(EXTRA_FD[workload]):
            extra = instance_seed(workload, seed, size * (e + 1) + k)
            ops.append(Op("fd", _network(workload, extra, directory / f"{workload}-{k}-fd{e}.json")))
        rounds.append(ops)
    return rounds
