"""The scalar kernels of the flow's event bookkeeping, `advance` and `total`,
and the shared scalars of `zero_one`."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from clearflow.scalars import FLOAT, RATIONAL, advance, total, zero_one


def random_fraction(rng: random.Random, bits: int) -> F:
    """A signed fraction whose numerator and denominator have up to `bits` bits."""
    return F(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))


def random_float(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-12, 12)


def fraction_cases(seed: int):
    """(values, rates, t, banks): about a fifth of the rates are zero, and
    the sizes run from a few bits to well past 100."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    bits = rng.choice((4, 40, 130, 300))
    values = [random_fraction(rng, bits) for _ in range(n)]
    rates = [F(0) if rng.random() < 0.2 else random_fraction(rng, bits) for _ in range(n)]
    t = random_fraction(rng, bits)
    banks = sorted(rng.sample(range(n), rng.randint(0, n)))
    return values, rates, t, banks


@pytest.mark.parametrize("seed", range(40))
def test_rational_advance_matches_fraction_arithmetic(seed):
    values, rates, t, banks = fraction_cases(seed)
    for step in (t, -t):
        moved = list(values)
        advance(moved, rates, step, banks)
        expected = [
            x + rates[i] * step if i in banks and rates[i] else x for i, x in enumerate(values)
        ]
        # by repr, so each result is a normalized Fraction
        assert repr(moved) == repr(expected)


@pytest.mark.parametrize("seed", range(40))
def test_rational_total_matches_fraction_sum(seed):
    values, _, _, _ = fraction_cases(seed)
    assert repr(total(values)) == repr(sum(values))
    assert repr(total([F(0)] * 3)) == repr(F(0))


def test_float_advance_is_bit_equal_to_the_plain_update():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 12)
        values = [random_float(rng) for _ in range(n)] + [0.0, -0.0]
        rates = [0.0 if rng.random() < 0.2 else random_float(rng) for _ in range(n)] + [1.0, 1.0]
        t = abs(random_float(rng))
        banks = range(n + 2)
        up, down = list(values), list(values)
        advance(up, rates, t, banks)
        advance(down, rates, -t, banks)
        assert [x.hex() for x in up] == [
            (x + r * t if r else x).hex() for x, r in zip(values, rates)
        ]
        assert [x.hex() for x in down] == [
            (x - r * t if r else x).hex() for x, r in zip(values, rates)
        ]


def test_float_total_is_the_sum_in_index_order():
    rng = random.Random(11)
    for _ in range(200):
        values = [random_float(rng) for _ in range(rng.randint(1, 30))]
        expected = 0
        for x in values:
            expected += x
        assert total(values).hex() == expected.hex()


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_zero_one_returns_the_same_scalars_on_every_call(mode):
    # the factor's held-rate carry recognises an unchanged 1 by identity
    zero, one = zero_one(mode)
    assert zero == 0 and one == 1
    assert all(a is b for a, b in zip(zero_one(mode), (zero, one)))
    assert type(one) is (F if mode == RATIONAL else float)
