"""The scalar kernels of the flow's event bookkeeping (`advance`,
`differences`, `total` and `order_key`), the Q^T p kernel `scatter`, the
kernels at the edges of every command (`clamp`, `signed_sums`, `outside`
and `quotients`), the shared scalars of `zero_one`, the reading of one
amount and the serialization of one scalar."""

from __future__ import annotations

import random
import math
from decimal import Decimal
from fractions import Fraction as F

import pytest

from oracles import exact_form, primes_from
from clearflow.errors import SchemaError
from clearflow.scalars import (
    FLOAT,
    RATIONAL,
    _fraction_from_str,
    advance,
    clamp,
    differences,
    order_key,
    order_keys,
    outside,
    quotients,
    scalar_to_json,
    scatter,
    signed_sums,
    to_scalar,
    total,
    zero_one,
)


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


def sparse_rows_case(seed: int, digits: int):
    """(values, rows, rates) for a random sparse Q^T p: each row's entries
    have their own prime denominators just above 10^6, numerators of up to
    `digits` digits, and some rates are 0, 1, negative or ints."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    primes = iter(primes_from(10**6 + 7919 * seed, n * n + n))
    rows = []
    for j in range(n):
        columns = sorted(rng.sample(range(n), rng.randint(0, min(n, 4))))
        rows.append(tuple(
            (i, F(rng.randint(1, 10**digits), next(primes))) for i in columns
        ))
    rates = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.2:
            rates.append(F(0))
        elif kind < 0.4:
            rates.append(F(1))
        elif kind < 0.5:
            rates.append(rng.randint(-3, 3))
        else:
            rates.append(F(rng.randint(-(10**digits), 10**digits), next(primes)))
    values = [F(0) if rng.random() < 0.5 else random_fraction(rng, 60) for _ in range(n)]
    return values, rows, rates


@pytest.mark.parametrize("digits", [3, 4400])
@pytest.mark.parametrize("seed", range(20))
def test_rational_scatter_matches_fraction_sums(seed, digits):
    # each receiver gets one Fraction formed from integers, equal by repr
    # to the plain sum of Fraction products, also past 4300 digits; it
    # reports the receivers it wrote
    values, rows, rates = sparse_rows_case(seed, digits)
    banks = random.Random(seed).sample(range(len(rows)), len(rows))
    expected = list(values)
    for j in banks:
        if rates[j]:
            for i, q in rows[j]:
                expected[i] += rates[j] * q
    got = list(values)
    written = scatter(got, rows, banks, rates)
    assert exact_form(got) == exact_form(expected)
    assert set(written) == {i for j in banks if rates[j] for i, _ in rows[j]}
    # a float rate in rational mode counts at its exact value
    floats = [float(r) if isinstance(r, F) and abs(r) < 2**60 else r for r in rates]
    exact = list(values)
    assert set(scatter(exact, rows, banks, floats)) == set(written)
    expected = list(values)
    for j in banks:
        for i, q in rows[j]:
            expected[i] += F(floats[j]) * q
    assert exact_form(exact) == exact_form(expected)
    # a mapping of rates serves as well, and a signed pass undoes one
    undo = {j: -F(rates[j]) for j in banks}
    scatter(got, rows, undo, undo)
    assert exact_form(got) == exact_form(F(x) for x in values)


def test_float_scatter_is_bit_equal_to_the_plain_loop():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(1, 12)
        rows = [
            tuple((i, random_float(rng)) for i in sorted(rng.sample(range(n), rng.randint(0, n))))
            for _ in range(n)
        ]
        rates = [0.0 if rng.random() < 0.2 else random_float(rng) for _ in range(n)]
        values = [0.0] * n
        banks = rng.sample(range(n), rng.randint(0, n))
        expected = list(values)
        for j in banks:
            if rates[j]:
                for i, q in rows[j]:
                    expected[i] += rates[j] * q
        assert scatter(values, rows, banks, rates) is None
        assert [x.hex() for x in values] == [x.hex() for x in expected]


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_zero_one_returns_the_same_scalars_on_every_call(mode):
    # the factor's held-rate carry recognises an unchanged 1 by identity
    zero, one = zero_one(mode)
    assert zero == 0 and one == 1
    assert all(a is b for a, b in zip(zero_one(mode), (zero, one)))
    assert type(one) is (F if mode == RATIONAL else float)


@pytest.mark.parametrize("seed", range(40))
def test_rational_total_less_matches_fraction_sums(seed):
    values, rates, _, _ = fraction_cases(seed)
    assert repr(total(values, rates)) == repr(sum(values) - sum(rates))


def test_float_total_less_is_the_difference_of_the_sums_in_index_order():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 30)
        values = [random_float(rng) for _ in range(n)]
        less = [random_float(rng) for _ in range(n)]
        assert total(values, less).hex() == (sum(values) - sum(less)).hex()


@pytest.mark.parametrize("seed", range(40))
def test_rational_differences_match_fraction_arithmetic(seed):
    # about a fifth of the subtrahends are 0 and a fifth 1, and some equal
    # their minuend: each must still give the normalized difference
    values, rates, _, banks = fraction_cases(seed)
    rng = random.Random(seed)
    rates = [F(1) if rng.random() < 0.2 else r for r in rates]
    rates = [x if rng.random() < 0.1 else r for x, r in zip(values, rates)]
    formed = [F(-99)] * len(values)
    differences(formed, values, rates, banks)
    expected = [
        (values[i] - rates[i] if rates[i] else values[i]) if i in banks else F(-99)
        for i in range(len(values))
    ]
    assert repr(formed) == repr(expected)


def test_float_differences_are_bit_equal_to_the_plain_subtraction():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 12)
        values = [random_float(rng) for _ in range(n)] + [0.0, -0.0, 2.5]
        rates = [0.0 if rng.random() < 0.2 else random_float(rng) for _ in range(n)]
        rates += [1.0, 0.0, 2.5]
        formed = [0.0] * len(values)
        differences(formed, values, rates, range(len(values)))
        assert [x.hex() for x in formed] == [
            (x - r if r else x).hex() for x, r in zip(values, rates)
        ]


def test_order_key_keeps_the_order_of_fractions():
    # correct rounding keeps order; past float range the key is infinite
    rng = random.Random(14)
    values = [random_fraction(rng, rng.choice((4, 60, 2000))) for _ in range(300)]
    values += [F(10) ** 400, -F(10) ** 400, F(1, 10**400), F(0), F(1, 3), F(1, 3) + F(1, 10**30)]
    values.sort()
    keys = [order_key(x) for x in values]
    assert keys == sorted(keys)
    assert order_key(F(10) ** 400) == math.inf and order_key(-F(10) ** 400) == -math.inf
    assert order_key(F(1, 3)) == order_key(F(1, 3) + F(1, 10**30)) == 1 / 3


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_order_keys_of_a_mode(mode):
    key = order_keys(mode)
    zero, one = zero_one(mode)
    assert key(one) == 1.0 and key(zero) == 0.0 and type(key(one)) is float
    if mode == FLOAT:
        x = 0.1 + 0.2
        assert key(x) is x


def test_scalar_to_json_gives_the_same_output_for_every_type():
    # floats return at once, before the Fraction test; every other type
    # keeps its path: Fractions as "p/q" strings, past Python's digit limit
    # through Decimal, and ints (an integer residual) as themselves
    for x in (0.1, -0.0, 1e308, 2.5e-320, float("inf")):
        assert scalar_to_json(x) is x
    assert scalar_to_json(F(3, 4)) == "3/4"
    assert scalar_to_json(F(-5)) == "-5"
    assert scalar_to_json(7) == 7 and type(scalar_to_json(7)) is int
    huge = 10**4500 + 1
    assert scalar_to_json(huge) is huge
    assert scalar_to_json(F(huge)) == str(Decimal(huge))
    assert scalar_to_json(F(huge, 3)) == f"{Decimal(huge)}/3"
    assert scalar_to_json(F(1, huge)) == f"1/{Decimal(huge)}"


def prime_amounts(seed: int, digits: int, count: int):
    """A source of `count` Fractions, each over its own prime just above
    10^6 with a numerator of up to `digits` digits; about a tenth are 0."""
    rng = random.Random(seed)
    primes = iter(primes_from(10**6 + 7919 * seed, count))

    def amount() -> F:
        return F(0) if rng.random() < 0.1 else F(rng.randint(1, 10**digits), next(primes))

    return rng, amount


@pytest.mark.parametrize("digits", [3, 4400])
@pytest.mark.parametrize("seed", range(12))
def test_rational_clamp_matches_fraction_arithmetic(seed, digits):
    # caps exactly reached, caps of 0 and sums over one shared denominator
    # among them; a reached cap is the cap itself
    n = 12
    rng, amount = prime_amounts(seed, digits, 4 * n)
    base = [amount() for _ in range(n)]
    received = []
    for b in base:
        shared = rng.random() < 0.3 and b.denominator > 1
        received.append(F(rng.randint(1, 10**digits), b.denominator) if shared else amount())
    cap = []
    for b, r in zip(base, received):
        kind = rng.random()
        cap.append(b + r if kind < 0.3 else F(0) if kind < 0.4 else amount())
    banks = rng.sample(range(n), rng.randint(0, n))
    values = [F(-7)] * n
    below = clamp(values, base, received, cap, banks)
    expected = [min(base[i] + received[i], cap[i]) if i in banks else F(-7) for i in range(n)]
    assert exact_form(values) == exact_form(expected)
    assert below == [i for i in banks if expected[i] < cap[i]]
    assert all(values[i] is cap[i] for i in banks if i not in below)


def test_float_clamp_is_bit_equal_to_the_plain_min():
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 12)
        base = [random_float(rng) for _ in range(n)] + [0.0, -0.0, 1.0]
        received = [random_float(rng) for _ in range(n)] + [0.0, 0.0, 1.5]
        cap = [random_float(rng) for _ in range(n)] + [0.0, 0.0, 2.5]
        banks = rng.sample(range(n + 3), rng.randint(0, n + 3))
        values = [9.0] * (n + 3)
        below = clamp(values, base, received, cap, banks)
        expected = [
            min(base[i] + received[i], cap[i]) if i in banks else 9.0 for i in range(n + 3)
        ]
        assert [x.hex() for x in values] == [x.hex() for x in expected]
        assert below == [i for i in banks if expected[i] < cap[i]]


@pytest.mark.parametrize("digits", [3, 4400])
@pytest.mark.parametrize("seed", range(12))
def test_rational_signed_sums_match_fraction_arithmetic(seed, digits):
    # sums that cancel to 0 exactly among them, and ints, which a replaced
    # network may hold
    n = 10
    rng, amount = prime_amounts(seed, digits, 6 * n)
    plus = [[amount() for _ in range(n)] for _ in range(rng.randint(1, 3))]
    minus = [[amount() for _ in range(n)] for _ in range(rng.randint(0, 2))]
    for i in rng.sample(range(n), 3):
        minus.append([F(0)] * n)
        minus[-1][i] = sum(v[i] for v in plus) - sum(v[i] for v in minus[:-1])
    plus[0][0] = 3
    banks = rng.sample(range(n), rng.randint(0, n))
    values = [F(-7)] * n
    signed_sums(values, plus, minus, banks)
    expected = [F(-7)] * n
    for i in banks:
        x = plus[0][i]
        for v in plus[1:]:
            x = x + v[i]
        for v in minus:
            x = x - v[i]
        expected[i] = F(x)
    assert exact_form(values) == exact_form(expected)


def test_float_signed_sums_are_bit_equal_to_the_plain_expression():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 12)
        vectors = [[random_float(rng) for _ in range(n)] + [0.0, -0.0] for _ in range(4)]
        banks = rng.sample(range(n + 2), rng.randint(0, n + 2))
        c, r, p, b = vectors
        values = [9.0] * (n + 2)
        signed_sums(values, (c, r), (p,), banks)
        assert [values[i].hex() for i in banks] == [(c[i] + r[i] - p[i]).hex() for i in banks]
        signed_sums(values, (b,), (c, r), banks)
        assert [values[i].hex() for i in banks] == [(b[i] - c[i] - r[i]).hex() for i in banks]
        signed_sums(values, (c, r), (), banks)
        assert [values[i].hex() for i in banks] == [(c[i] + r[i]).hex() for i in banks]


def first_outside(values, low, high):
    return next((i for i, x in enumerate(values) if x < low or x > high[i]), None)


@pytest.mark.parametrize("seed", range(20))
def test_rational_outside_matches_fraction_comparisons(seed):
    # ints and floats among the values, infinities and NaN too, and values
    # at each bound
    rng, amount = prime_amounts(seed, 40, 40)
    n = 10
    high = [amount() for _ in range(n)]
    low = rng.choice((F(0), -amount()))
    for _ in range(20):
        values = [rng.choice((low, h, h / 2, h + F(1, 10**9), low - F(1, 10**9))) for h in high]
        k = rng.randrange(n)
        values[k] = rng.choice((0, 1, -1, 0.5, -0.0, math.inf, -math.inf, math.nan, values[k]))
        assert outside(values, low, high) == first_outside(values, low, high)


def test_float_outside_matches_the_plain_comparisons():
    rng = random.Random(18)
    for _ in range(200):
        n = rng.randint(1, 12)
        high = [abs(random_float(rng)) for _ in range(n)]
        low = rng.choice((0.0, -0.0, -1e-12))
        values = [rng.choice((low, h, h * 0.5, h * 1.5, -h, math.nan)) for h in high]
        assert outside(values, low, high) == first_outside(values, low, high)


@pytest.mark.parametrize("digits", [3, 4400])
@pytest.mark.parametrize("seed", range(12))
def test_rational_quotients_match_fraction_division(seed, digits):
    _, amount = prime_amounts(seed, digits, 12)
    values = [amount() for _ in range(10)] + [F(0), F(3)]
    divisor = sum(values) or F(1)
    assert exact_form(quotients(values, divisor)) == exact_form(x / divisor for x in values)


def test_float_quotients_are_bit_equal_to_the_plain_division():
    rng = random.Random(19)
    for _ in range(200):
        values = [abs(random_float(rng)) for _ in range(rng.randint(1, 12))]
        t = sum(values)
        assert [x.hex() for x in quotients(values, t)] == [(x / t).hex() for x in values]


#: amount strings that the rational reader's fast path takes, and strings
#: beside it that the exact reader keeps: signs, spaces inside, a zero
#: denominator, decimals, non-ASCII digits, and the 40-character and
#: 4300-digit edges
AMOUNT_STRINGS = [
    "7", "007", "0", "0/5", "12/8", " 3/4 ", "3 /4",
    "+3", "-3", "3/-4", "5/0", "3.0", "1e3",
    "\u0663", "\u00b2", "1/\u0663",
    "9" * 40, "9" * 41, "12345678901234567890/9876543210987654321", "1" * 20 + "/" + "3" * 20,
    "1" * 20 + "/" + "3" * 21, "1" * 4301, "1" * 4300, "", "/", "3/", "/4", "3/4/5", "1_000",
]


@pytest.mark.parametrize("text", AMOUNT_STRINGS)
def test_rational_amount_strings_read_as_the_exact_reader_reads_them(text):
    # the same Fraction, or the same error type and message
    def read(reader):
        try:
            return exact_form([reader(text)])
        except SchemaError as exc:
            return type(exc), str(exc)

    assert read(lambda s: to_scalar(s, RATIONAL)) == read(_fraction_from_str)
