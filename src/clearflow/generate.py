"""Seeded random instance generator for tests and batch experiments.

Amounts are small rationals with denominators up to 16 so that exact
arithmetic stays fast; a fixed seed reproduces the exact same network.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InvalidParamsError
from .network import FinancialNetwork, build_network
from .scalars import RATIONAL, check_mode, to_scalar

_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12, 16)


def generate_network(
    seed: int,
    n: int,
    density: float,
    cash_scale=1,
    mode: str = RATIONAL,
) -> FinancialNetwork:
    """Draw a valid network: each directed pair carries a debt with probability
    `density`, cash is uniform on a grid over [0, cash_scale]."""
    check_mode(mode)
    if n < 1:
        raise InvalidParamsError(f"need at least one bank, got n={n}")
    if not 0 < density <= 1:
        raise InvalidParamsError(f"density must lie in (0, 1], got {density}")
    scale = to_scalar(cash_scale, RATIONAL)
    if scale < 0:
        raise InvalidParamsError(f"cash_scale must be nonnegative, got {cash_scale}")

    rng = random.Random(seed)
    zero = Fraction(0)
    liabilities = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rng.random() < density:
                liabilities[i][j] = Fraction(rng.randint(1, 8), rng.choice(_DENOMINATORS))
    cash = [scale * Fraction(rng.randint(0, 8), 8) for _ in range(n)]
    return build_network(liabilities, cash, mode=mode)
