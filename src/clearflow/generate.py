"""Seeded random instance generator for tests and batch experiments.

Amounts are small rationals with denominators up to 16 so that exact
arithmetic stays fast; a fixed seed reproduces the exact same network.

Every ordered pair of distinct banks draws one uniform number, n² - n
draws in all; only the debts drawn are kept, as (debtor, creditor, amount)
entries for the entry validator, so the work past the draws is O(n +
debts).
"""

from __future__ import annotations

import random

from .errors import InvalidParamsError
from .network import FinancialNetwork, _cell_name, _network_from_entries
from .scalars import RATIONAL, check_mode, reduced, to_scalar

_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12, 16)


def generate_network(
    seed: int,
    n: int,
    density: float,
    cash_scale=1,
    mode: str = RATIONAL,
) -> FinancialNetwork:
    """Draw a valid network: each directed pair carries a debt with probability
    `density`, cash is uniform on a grid over [0, cash_scale].

    Each pair i ≠ j, in row order, draws a uniform number; below `density`,
    the debt L_ij = a/d follows from two more draws, a in 1..8 and d from
    `_DENOMINATORS`. Then each bank draws its cash k/8 of `cash_scale`, k
    in 0..8."""
    check_mode(mode)
    if n < 1:
        raise InvalidParamsError(f"need at least one bank, got n={n}")
    if not 0 < density <= 1:
        raise InvalidParamsError(f"density must lie in (0, 1], got {density}")
    scale = to_scalar(cash_scale, RATIONAL)
    if scale < 0:
        raise InvalidParamsError(f"cash_scale must be nonnegative, got {cash_scale}")

    rng = random.Random(seed)
    draw, randint, choice = rng.random, rng.randint, rng.choice
    entries = []
    for i in range(n):
        for j in range(n):
            if i != j and draw() < density:
                entries.append((i, j, reduced(randint(1, 8), choice(_DENOMINATORS))))
    p, q = scale.numerator, scale.denominator
    cash = [reduced(p * randint(0, 8), q * 8) for _ in range(n)]
    return _network_from_entries(entries, cash, mode, None, _cell_name)
