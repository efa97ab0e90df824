"""Scalar arithmetic modes.

All solver code is generic over the scalar type: exact `fractions.Fraction`
("rational" mode, the default) or IEEE doubles ("float" mode). Rational mode
makes every piecewise-linear quantity in the dynamics bit-exact; float mode
trades exactness for speed on larger batches.

The helpers here convert user-facing values (ints, decimal strings, "p/q"
strings, floats) into the scalar type of a mode and back into JSON-friendly
form ("p/q" strings in rational mode, plain numbers in float mode). The
vector kernels of the flow's event bookkeeping, the one Q^T p kernel and
the per-bank arithmetic at the edges of every command live here too, so
that exact arithmetic stays in this module: `advance` moves amounts
linearly in time, `differences` forms the balances in-rate - out-rate,
`total` sums amounts, `scatter` adds rate-weighted sparse rows into a
vector (the in-rates Q^T p), `clamp` forms min(base + received, cap) (the
clearing map), `signed_sums` forms per-bank sums and differences such as
a result's final cash, `outside` finds the first amount outside a range
and `quotients` divides a row by its total (the proportions). Each tests
the scalar type once per call; in rational mode it works on the integers
of each `Fraction`, in float mode it does exactly the float operations of
the plain loop.
`order_key` maps a time to a float that keeps its order, so that most
comparisons of exact times are comparisons of floats.

In rational mode every result is built by one constructor, `reduced`: one
gcd of two ints, then the `Fraction`'s two slots set directly, with no
pass through `Fraction.__new__`. A kernel reads a known `Fraction`'s ints
from its slots, `_numerator` and `_denominator`, not through the
`numerator` and `denominator` properties; where an int or a float may
arrive (`scatter`'s rates, the operands of `differences`, `clamp` and
`signed_sums`) it reads `as_integer_ratio()`. This module alone touches
the slots: `markov` builds its exact answers with `reduced`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Collection, Iterable, Mapping, MutableSequence, Sequence
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import InvalidParamsError, SchemaError

RATIONAL = "rational"
FLOAT = "float"

MODES = (RATIONAL, FLOAT)

Scalar = Fraction | float

#: ε, the one relative factor of every float-mode zero test: a rate within ε
#: counts as zero, and so does an amount within ε times the network's largest
#: cash or debt entry (`FinancialNetwork.zero_tol`)
FLOAT_ZERO_REL = 1e-12

#: digits allowed in the integer form of one decimal amount: the limit that
#: Python's int() already puts on each side of a "p/q" amount, so that no
#: short string like "1e100000000" can demand a huge integer
MAX_AMOUNT_DIGITS = sys.int_info.default_max_str_digits


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise InvalidParamsError(f"unknown arithmetic mode {mode!r}; expected one of {MODES}")
    return mode


#: rational 0 and 1; a `Fraction` is immutable, so every caller shares these
#: two, and a rate that is this 1 can be recognised by identity
_RATIONAL_ZERO_ONE = (Fraction(0), Fraction(1))


def zero_one(mode: str) -> tuple[Scalar, Scalar]:
    """The scalars 0 and 1 of `mode`, the same objects on every call."""
    if mode == RATIONAL:
        return _RATIONAL_ZERO_ONE
    return 0.0, 1.0


def advance(
    values: MutableSequence[Scalar], rates: Sequence[Scalar], t: Scalar, banks: Iterable[int]
) -> None:
    """values[i] += rates[i] * t in place for each bank i of `banks` whose
    rate is not zero; a negative t moves values down.

    Rational mode forms each sum from integers, (x_n r_d t_d + r_n t_n x_d)
    over x_d r_d t_d: one `reduced` per amount, not a product and a sum.
    Float mode computes x + r * t, which for t = -s is bit for bit
    x - r * s."""
    if isinstance(t, Fraction):
        p, q = t._numerator, t._denominator
        for i in banks:
            rate = rates[i]
            c = rate._numerator
            if c:
                x, d = values[i], rate._denominator
                b = x._denominator
                values[i] = reduced(x._numerator * d * q + c * p * b, b * d * q)
    else:
        for i in banks:
            rate = rates[i]
            if rate:
                values[i] += rate * t


def scatter(
    values: MutableSequence[Scalar],
    rows: Sequence[Sequence[tuple[int, Scalar]]],
    banks: Iterable[int],
    rates: Sequence[Scalar] | Mapping[int, Scalar],
) -> Collection[int] | None:
    """values[i] += sum_j rates[j] * q_ji in place, over the entries (i, q_ji)
    of rows[j] for each bank j of `banks` whose rate is not zero: Q^T p on
    sparse rows.

    Rational mode keeps, per receiver, one integer numerator over the lcm
    of its terms' denominators, adds each term r_n q_n / (r_d q_d) to it with
    one gcd, and forms one `Fraction` per receiver at the end by `reduced`,
    from it and the receiver's old value; it returns the receivers it
    wrote. A rate there may be any number with an exact integer ratio (an
    int, or a float read exactly). Float mode adds rate * q in the order of
    `banks`, as the plain loop did, and returns None."""
    if not values or not isinstance(values[0], Fraction):
        for j in banks:
            rate = rates[j]
            if rate:
                for i, q in rows[j]:
                    values[i] += rate * q
        return None
    gcd = math.gcd
    numerators: dict[int, int] = {}
    denominators: dict[int, int] = {}
    for j in banks:
        c, d = rates[j].as_integer_ratio()
        if c:
            for i, q in rows[j]:
                b = d * q._denominator
                if i in denominators:
                    y = denominators[i]
                    g = gcd(y, b)
                    numerators[i] = numerators[i] * (b // g) + c * q._numerator * (y // g)
                    denominators[i] = y // g * b
                else:
                    numerators[i], denominators[i] = c * q._numerator, b
    for i, y in denominators.items():
        x = values[i]
        p, q = x._numerator, x._denominator
        values[i] = reduced(p * y + numerators[i] * q, q * y)
    return denominators.keys()


def differences(
    values: MutableSequence[Scalar],
    minuends: Sequence[Scalar],
    subtrahends: Sequence[Scalar],
    banks: Iterable[int],
) -> None:
    """values[i] = minuends[i] - subtrahends[i] for each bank i of `banks`,
    or minuends[i] itself when the subtrahend is zero.

    Rational mode takes a subtrahend of 1 from the minuend's integers,
    (p - q)/q, and an equal subtrahend gives 0 with no arithmetic; any
    other pair is one `reduced` of the cross-multiplied integers. Either
    operand may be any number with an exact integer ratio. Float mode
    computes x - r, as the plain loop did."""
    if not minuends or not isinstance(minuends[0], Fraction):
        if banks == range(len(minuends)):
            values[:] = [x - rate if rate else x for x, rate in zip(minuends, subtrahends)]
            return
        for i in banks:
            rate = subtrahends[i]
            values[i] = minuends[i] - rate if rate else minuends[i]
        return
    zero = _RATIONAL_ZERO_ONE[0]
    for i in banks:
        x, rate = minuends[i], subtrahends[i]
        c, d = rate.as_integer_ratio()
        if not c:
            values[i] = x
            continue
        p, q = x.as_integer_ratio()
        if c == d:
            values[i] = reduced(p - q, q)
        elif p == c and q == d:
            values[i] = zero
        else:
            values[i] = reduced(p * d - c * q, q * d)


def clamp(
    values: MutableSequence[Scalar],
    base: Sequence[Scalar],
    received: Sequence[Scalar],
    cap: Sequence[Scalar],
    banks: Iterable[int],
) -> list[int]:
    """values[i] = min(base[i] + received[i], cap[i]) for each bank i of
    `banks`; returns the banks left below their cap, in the order of
    `banks`.

    Rational mode decides by cross-multiplied integers: a sum that reaches
    the cap gives cap[i] itself, any other one `reduced` of the sum.
    Float mode computes min(b + r, c), as the plain loop did."""
    below = []
    if not received or not isinstance(received[0], Fraction):
        for i in banks:
            x, c = base[i] + received[i], cap[i]
            if c < x:
                values[i] = c
            else:
                values[i] = x
                if x < c:
                    below.append(i)
        return below
    for i in banks:
        a, b = base[i].as_integer_ratio()
        r, d = received[i].as_integer_ratio()
        c, e = cap[i].as_integer_ratio()
        if b == d:
            p, q = a + r, b
        else:
            p, q = a * d + r * b, b * d
        if p * e < c * q:
            values[i] = reduced(p, q)
            below.append(i)
        else:
            values[i] = cap[i]
    return below


def signed_sums(
    values: MutableSequence[Scalar],
    plus: Sequence[Sequence[Scalar]],
    minus: Sequence[Sequence[Scalar]],
    banks: Iterable[int],
) -> None:
    """values[i] = the sum of v[i] over the vectors v of `plus`, less v[i]
    over those of `minus`, for each bank i of `banks`; `plus` is not empty.

    Rational mode forms each as one `reduced` of integers; a float there
    counts at its exact value. Float mode adds and subtracts in the order
    given, left to right, as the plain expression did."""
    first, *more = plus
    if not first or not isinstance(first[0], Fraction):
        for i in banks:
            x = first[i]
            for v in more:
                x = x + v[i]
            for v in minus:
                x = x - v[i]
            values[i] = x
        return
    for i in banks:
        p, q = first[i].as_integer_ratio()
        for v in more:
            a, b = v[i].as_integer_ratio()
            p, q = (p + a, q) if b == q else (p * b + a * q, q * b)
        for v in minus:
            a, b = v[i].as_integer_ratio()
            p, q = (p - a, q) if b == q else (p * b - a * q, q * b)
        values[i] = reduced(p, q)


def outside(values: Sequence[Scalar], low: Scalar, high: Sequence[Scalar]) -> int | None:
    """The first index i with values[i] < low or values[i] > high[i], or
    None. Rational mode compares integers; an infinite or NaN float among
    the values is compared as it is."""
    if not isinstance(low, Fraction):
        for i, x in enumerate(values):
            if x < low or x > high[i]:
                return i
        return None
    m, n = low.as_integer_ratio()
    for i, x in enumerate(values):
        try:
            a, b = x.as_integer_ratio()
        except (OverflowError, ValueError):
            if x < low or x > high[i]:
                return i
            continue
        c, d = high[i].as_integer_ratio()
        if a * n < m * b or a * d > c * b:
            return i
    return None


def quotients(values: Iterable[Scalar], divisor: Scalar) -> list[Scalar]:
    """x / divisor for each x of `values`, the divisor positive. Rational
    mode forms each from the integers of both, by one `reduced`."""
    if not isinstance(divisor, Fraction):
        return [x / divisor for x in values]
    m, n = divisor.as_integer_ratio()
    out = []
    for x in values:
        a, b = x.as_integer_ratio()
        out.append(reduced(a * n, b * m))
    return out


def reduced(numerator: int, denominator: int) -> Fraction:
    """The `Fraction` numerator/denominator in lowest terms, the denominator
    positive: one gcd, and the two slots set directly, without
    `Fraction.__new__`. The exact kernels build their results here."""
    g = math.gcd(numerator, denominator)
    x = object.__new__(Fraction)
    if g == 1:
        x._numerator, x._denominator = numerator, denominator
    else:
        x._numerator, x._denominator = numerator // g, denominator // g
    return x


def total(values: Sequence[Scalar], less: Sequence[Scalar] = ()) -> Scalar:
    """Σ values - Σ less: in rational mode one `Fraction`, the integer
    numerators over the lcm of the denominators; in float mode the builtin
    `sum` of each in index order, then their difference."""
    if not values or not isinstance(values[0], Fraction):
        return sum(values) - sum(less) if less else sum(values)
    common = math.lcm(*[x._denominator for x in values], *[x._denominator for x in less])
    plus = sum([x._numerator * (common // x._denominator) for x in values])
    return reduced(plus - sum([x._numerator * (common // x._denominator) for x in less]), common)


def order_key(x: Scalar) -> float:
    """A float that orders as x does: x <= y implies order_key(x) <=
    order_key(y). A `Fraction` converts with correct rounding, which keeps
    order, and past float range to an infinity of its sign; a float is
    itself. So equal keys leave the order open, and unequal keys settle it
    without `Fraction` arithmetic. A `Fraction`'s key is the true division
    of its two ints, which is what `float` computes for it."""
    try:
        if isinstance(x, Fraction):
            return x._numerator / x._denominator
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def order_keys(mode: str) -> Callable[[Scalar], float]:
    """`order_key` for the scalars of `mode`: in float mode, where each key
    is the value itself, the builtin `float`."""
    return order_key if mode == RATIONAL else float


def to_scalar(value, mode: str) -> Scalar:
    """Convert a user-facing amount to the scalar type of `mode`.

    Accepts ints, Fractions, floats and strings. Strings may be decimal
    ("1.25") or rational ("5/4"). Floats fed to rational mode are read
    through their shortest decimal repr, so 0.1 becomes exactly 1/10.
    """
    check_mode(mode)
    if isinstance(value, bool):
        raise SchemaError(f"boolean is not a valid amount: {value!r}")
    if mode == RATIONAL:
        if isinstance(value, str):
            s = value.strip()
            # an unsigned "p" or "p/q", q not 0, of at most 40 ASCII
            # characters is read from its two ints, to the Fraction the exact
            # reader gives; every other string takes that reader and its errors
            if len(s) <= 40 and s.isascii():
                num, slash, den = s.partition("/")
                if num.isdigit():
                    if not slash:
                        return reduced(int(num), 1)
                    if den.isdigit() and (q := int(den)):
                        return reduced(int(num), q)
            return _fraction_from_str(value)
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise SchemaError(f"amount is not finite: {value!r}")
            return Fraction(Decimal(repr(value)))
        raise SchemaError(f"cannot read amount of type {type(value).__name__}: {value!r}")
    # float mode
    if isinstance(value, str):
        s = value.strip()
        # an unsigned plain decimal of at most 40 characters is finite, within
        # the digit bound, and read by float() to the double the exact reader
        # gives (both round correctly); every other string takes that reader
        if len(s) <= 40 and s.isascii() and s.replace(".", "", 1).isdigit():
            return float(s)
    exact = _fraction_from_str(value) if isinstance(value, str) else value
    if not isinstance(exact, (int, float, Fraction)):
        raise SchemaError(f"cannot read amount of type {type(value).__name__}: {value!r}")
    try:
        if isinstance(exact, Fraction):
            # the true division of its two ints, as `order_key`: what `float`
            # computes through `numbers.Rational.__float__` and its properties
            return exact._numerator / exact._denominator
        return float(exact)
    except OverflowError as exc:
        # the repr of an int or Fraction past 4300 digits raises ValueError
        shown = repr(value) if isinstance(value, str) else f"of type {type(value).__name__}"
        raise SchemaError(f"amount {shown} is beyond float range") from exc


def _fraction_from_str(text: str) -> Fraction:
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            p = int(num.strip())
            q = int(den.strip())
        except ValueError as exc:
            raise SchemaError(f"malformed rational string {text!r}") from exc
        if q <= 0:
            raise SchemaError(f"rational string must have a positive denominator: {text!r}")
        return Fraction(p, q)
    try:
        number = Decimal(s)
    except InvalidOperation as exc:
        raise SchemaError(f"malformed number {text!r}") from exc
    if not number.is_finite():
        raise SchemaError(f"amount is not finite: {text!r}")
    _, digits, exponent = number.as_tuple()
    if len(digits) + abs(exponent) > MAX_AMOUNT_DIGITS:
        raise SchemaError(
            f"amount {text!r} has more than {MAX_AMOUNT_DIGITS} digits in integer form"
        )
    return Fraction(number)


def scalar_to_json(x: Scalar):
    """Serialize one scalar: "p/q" string for Fractions, number for floats.

    A `Fraction` is written from its two ints, "p" when q is 1, as `str`
    writes it. `str` refuses integers past Python's digit limit
    (`MAX_AMOUNT_DIGITS`), which exact arithmetic can reach; their digits
    are written through `Decimal`, which that limit does not bind. A float
    returns at once: `Fraction` subclasses `numbers.Rational`, so an
    `isinstance` test against it goes through `ABCMeta` for a float.
    """
    if type(x) is float:
        return x
    if isinstance(x, Fraction):
        p, q = x._numerator, x._denominator
        try:
            return str(p) if q == 1 else f"{p}/{q}"
        except ValueError:
            numerator = str(Decimal(p))
            return numerator if q == 1 else f"{numerator}/{Decimal(q)}"
    return x

