"""Shared fixtures: the five-bank worked example in its parameter variants.

The base instance has banks 1..5 (indices 0..4), debts
b_12 = a, b_15 = 1 - a, b_25 = 2b, b_23 = 2(1 - b), b_34 = 3, b_42 = 4,
and cash (1, eps, eps, eps, 0). Different (a, b, eps) choices exercise the
unique, big-bang, and swamp regimes.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import clearflow as cf


def example_net(a=F(1, 3), b=F(1, 2), eps=F(1, 36), cash1=F(1), mode=cf.RATIONAL):
    liabilities = [
        [0, a, 0, 0, 1 - a],
        [0, 0, 2 * (1 - b), 0, 2 * b],
        [0, 0, 0, 3, 0],
        [0, 4, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    cash = [cash1, eps, eps, eps, 0]
    return cf.build_network(liabilities, cash, mode=mode)


def with_cash(net, cash):
    """Same liabilities, different cash vector."""
    return cf.build_network(net.liabilities, cash, mode=net.mode, ids=net.ids)


def swampy_network(seed, mode=cf.RATIONAL):
    """Sparse network of about 20 banks with every kind of bank.

    Core banks hold 0 to 3/2 times their debt in cash, so some default;
    cashless "fed" banks are owed by the core and forward what arrives;
    cashless "stray" banks are owed by no active bank and owe the core and
    the swamps; swamps are cashless rings (a chord on the larger one) owing
    only each other; sinks owe nothing. Positions are shuffled.
    """
    rng = random.Random(seed)
    sizes = {"core": 8, "fed": 4, "stray": 3, "sink": 2}
    swamp_sizes = (2, 3)
    roles = [role for role, count in sizes.items() for _ in range(count)]
    roles += [f"swamp{k}" for k, size in enumerate(swamp_sizes) for _ in range(size)]
    positions = list(range(len(roles)))
    rng.shuffle(positions)
    members = {}
    for pos, role in zip(positions, roles):
        members.setdefault(role, []).append(pos)
    n = len(roles)

    def amount():
        return F(rng.randint(1, 8), rng.choice((1, 2, 3, 4, 6, 8)))

    debts = [[F(0)] * n for _ in range(n)]
    core, fed, stray = members["core"], members["fed"], members["stray"]
    swamps = [members[f"swamp{k}"] for k in range(len(swamp_sizes))]
    for i in core:
        for j in rng.sample([x for x in core + fed + members["sink"] if x != i], 3):
            debts[i][j] += amount()
    for i in fed:
        for j in rng.sample([x for x in core + fed if x != i], 2):
            debts[i][j] += amount()
    for i in stray:
        for j in rng.sample([x for x in core + stray + swamps[0] if x != i], 2):
            debts[i][j] += amount()
    for ring in swamps:
        for k, i in enumerate(ring):
            debts[i][ring[(k + 1) % len(ring)]] += amount()
        if len(ring) > 2:
            debts[ring[0]][ring[2]] += amount()
    cash = [F(0)] * n
    for i in core:
        cash[i] = sum(debts[i]) * F(rng.randint(0, 12), 8)
    return cf.build_network(debts, cash, mode=mode)


def wide_magnitude_network(seed, mode=cf.FLOAT):
    """Up to 24 banks with debts and cash spread over twelve orders of
    magnitude, 1e-6 to 1e6; about 30 % of the banks hold no cash."""
    rng = random.Random(seed)
    n = rng.randint(2, 24)
    liabilities = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.4:
                liabilities[i][j] = 10 ** rng.uniform(-6, 6)
    cash = [10 ** rng.uniform(-6, 6) if rng.random() < 0.7 else 0.0 for _ in range(n)]
    return cf.build_network(liabilities, cash, mode=mode)


#: two cashless swamps: banks 0 and 1 each owe the other 2/3; banks 2 and 3
#: owe each other 2 and 1, and bank 4, owed nothing, owes bank 2 one more
BESIDE_LIABILITIES = [
    [0, F(2, 3), 0, 0, 0],
    [F(2, 3), 0, 0, 0, 0],
    [0, 0, 0, 2, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0],
]


def statuses_of(partition):
    """Compact view: 'p', 'z', 'a' per bank."""
    return "".join(s.value[0] for s in partition)


@pytest.fixture
def net_1a():
    return example_net()


@pytest.fixture
def net_1a_boundary():
    return example_net(eps=F(1, 18))


@pytest.fixture
def net_1b():
    return example_net(a=F(2, 3), eps=0)


@pytest.fixture
def net_1c():
    return example_net(a=0, b=0, eps=0)


@pytest.fixture
def net_1c_variant():
    # same swamp {2,3,4} but bank 4 owes 2 to each of banks 2 and 3
    liabilities = [
        [0, 0, 0, 0, 1],
        [0, 0, 2, 0, 0],
        [0, 0, 0, 3, 0],
        [0, 2, 2, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    return cf.build_network(liabilities, [1, 0, 0, 0, 0])
