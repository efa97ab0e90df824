"""Static problem data: liability networks, derived matrices, status partitions.

A network holds the liability matrix (entry (i, j) is the debt of bank i to
bank j), the cash vector, and two derived objects: the total-debt vector and
the row-stochastic matrix of debt proportions. Banks with no debt get a unit
self-loop in the proportion matrix so that every row sums to one.

Everything here is immutable after construction and safe to share across
concurrent solver runs.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    ParseError,
    SchemaError,
    SelfDebtError,
)
from .scalars import FLOAT_ZERO_REL, RATIONAL, Scalar, check_mode, scalar_to_json, to_scalar, zero_one


class Status(enum.Enum):
    """Where a bank stands: indebted with cash, indebted without cash, or debt-free."""

    POSITIVE = "positive"
    ZERO = "zero"
    ABSORBING = "absorbing"


def classify_status(debt: Scalar, cash: Scalar, tol: Scalar) -> Status:
    """Trichotomy by (remaining debt, cash): debt-free banks absorb regardless of cash."""
    if debt <= tol:
        return Status.ABSORBING
    if cash > tol:
        return Status.POSITIVE
    return Status.ZERO


@dataclass(frozen=True)
class Partition:
    """Split of the banks into positive / zero / absorbing groups."""

    statuses: tuple[Status, ...]

    @cached_property
    def positive(self) -> frozenset[int]:
        return frozenset(i for i, s in enumerate(self.statuses) if s is Status.POSITIVE)

    @cached_property
    def zero(self) -> frozenset[int]:
        return frozenset(i for i, s in enumerate(self.statuses) if s is Status.ZERO)

    @cached_property
    def absorbing(self) -> frozenset[int]:
        return frozenset(i for i, s in enumerate(self.statuses) if s is Status.ABSORBING)

    def groups(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return self.positive, self.zero, self.absorbing

    def __iter__(self):
        return iter(self.statuses)

    def __len__(self) -> int:
        return len(self.statuses)


@dataclass(frozen=True)
class FinancialNetwork:
    """Immutable liability network with derived total debts and proportions.

    `relative[i][j]` is the share of bank i's total debt owed to j; rows of
    `relative` sum to one exactly in rational mode. Bank ids are only used at
    the serialization boundary; all internal indexing is positional.
    """

    liabilities: tuple[tuple[Scalar, ...], ...]
    cash: tuple[Scalar, ...]
    total_debt: tuple[Scalar, ...]
    relative: tuple[tuple[Scalar, ...], ...]
    mode: str
    ids: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.cash)

    @cached_property
    def zero_rel(self) -> Scalar:
        """Relative factor ε of every zero test (0 in rational mode); a rate within ε is zero."""
        return Fraction(0) if self.mode == RATIONAL else FLOAT_ZERO_REL

    @cached_property
    def zero_tol(self) -> Scalar:
        """ε times the largest cash or debt entry: an amount within it counts as zero."""
        zero, _ = zero_one(self.mode)
        return self.zero_rel * max([abs(x) for x in self.cash + self.total_debt], default=zero)

    def index_of(self, bank_id: str) -> int:
        try:
            return self.ids.index(bank_id)
        except ValueError as exc:
            raise SchemaError(f"unknown bank id {bank_id!r}") from exc


def build_network(
    liabilities: Sequence[Sequence],
    cash: Sequence,
    mode: str = RATIONAL,
    ids: Sequence[str] | None = None,
) -> FinancialNetwork:
    """Validate raw data and derive the total-debt vector and proportion matrix.

    Rejects non-square matrices, entries that are negative or not finite, a
    total debt that overflows to infinity, and any nonzero diagonal
    (self-debt is an input error, not something to normalize away).
    """
    check_mode(mode)
    n = len(cash)
    if len(liabilities) != n:
        raise DimensionMismatchError(
            f"liability matrix has {len(liabilities)} rows for {n} cash entries"
        )
    rows: list[tuple[Scalar, ...]] = []
    for i, raw_row in enumerate(liabilities):
        if len(raw_row) != n:
            raise DimensionMismatchError(f"liability row {i} has length {len(raw_row)}, expected {n}")
        row = tuple(to_scalar(x, mode) for x in raw_row)
        for j, x in enumerate(row):
            if isinstance(x, float) and not math.isfinite(x):
                raise NegativeEntryError(f"liability[{i}][{j}] is not finite")
            if x < 0:
                raise NegativeEntryError(f"liability[{i}][{j}] = {x} is negative")
        if row[i] != 0:
            raise SelfDebtError(f"bank {i} has nonzero self-debt {row[i]}")
        rows.append(row)
    cash_vec = tuple(to_scalar(x, mode) for x in cash)
    for i, c in enumerate(cash_vec):
        if isinstance(c, float) and not math.isfinite(c):
            raise NegativeEntryError(f"cash[{i}] is not finite")
        if c < 0:
            raise NegativeEntryError(f"cash[{i}] = {c} is negative")

    zero, one = zero_one(mode)
    total = tuple(sum((x for x in row if x), zero) for row in rows)
    for i, t in enumerate(total):
        if isinstance(t, float) and not math.isfinite(t):
            raise NegativeEntryError(f"total debt of bank {i} is not finite")
    relative: list[tuple[Scalar, ...]] = []
    for i, row in enumerate(rows):
        if total[i] > 0:
            relative.append(tuple(x / total[i] if x else zero for x in row))
        else:
            unit = [zero] * n
            unit[i] = one
            relative.append(tuple(unit))

    if ids is None:
        id_tuple = tuple(str(i + 1) for i in range(n))
    else:
        id_tuple = tuple(str(b) for b in ids)
        if len(id_tuple) != n:
            raise DimensionMismatchError(f"{len(id_tuple)} ids for {n} banks")
        if len(set(id_tuple)) != n:
            raise SchemaError("bank ids must be unique")

    return FinancialNetwork(
        liabilities=tuple(rows),
        cash=cash_vec,
        total_debt=total,
        relative=tuple(relative),
        mode=mode,
        ids=id_tuple,
    )


def initial_partition(net: FinancialNetwork) -> Partition:
    """Statuses at time zero, straight from (total debt, cash)."""
    tol = net.zero_tol
    return Partition(
        tuple(classify_status(net.total_debt[i], net.cash[i], tol) for i in range(net.n))
    )


def convert_network(net: FinancialNetwork, mode: str) -> FinancialNetwork:
    """Rebuild the same network under a different arithmetic mode."""
    check_mode(mode)
    if mode == net.mode:
        return net
    return build_network(net.liabilities, net.cash, mode=mode, ids=net.ids)


# -- JSON document format ------------------------------------------------------
#
# {"banks": [{"id": "1", "cash": "1/2"}, ...],
#  "liabilities": [{"from": "1", "to": "2", "amount": "2/3"}, ...]}
#
# Amounts are numbers or "p/q" strings; omitted pairs are zero. Bank order in
# all outputs follows the order of the "banks" list.


def parse_network(text: str, mode: str = RATIONAL) -> FinancialNetwork:
    """Parse the JSON document format. Numbers are read exactly in rational mode."""
    check_mode(mode)
    try:
        doc = json.loads(text, parse_float=str, parse_int=str)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return network_from_document(doc, mode)


def network_from_document(doc, mode: str = RATIONAL) -> FinancialNetwork:
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    banks = doc.get("banks")
    if not isinstance(banks, list) or not banks:
        raise SchemaError('"banks" must be a nonempty list')
    ids: list[str] = []
    cash: list = []
    for entry in banks:
        if not isinstance(entry, dict) or "id" not in entry or "cash" not in entry:
            raise SchemaError('each bank needs "id" and "cash"')
        ids.append(str(entry["id"]))
        cash.append(entry["cash"])
    if len(set(ids)) != len(ids):
        raise SchemaError("bank ids must be unique")
    index = {bank_id: k for k, bank_id in enumerate(ids)}
    n = len(ids)
    zero, _ = zero_one(mode)
    matrix = [[zero] * n for _ in range(n)]
    liability_entries = doc.get("liabilities", [])
    if not isinstance(liability_entries, list):
        raise SchemaError('"liabilities" must be a list')
    for entry in liability_entries:
        if not isinstance(entry, dict) or not {"from", "to", "amount"} <= set(entry):
            raise SchemaError('each liability needs "from", "to" and "amount"')
        src, dst = str(entry["from"]), str(entry["to"])
        if src not in index:
            raise SchemaError(f"liability from unknown bank {src!r}")
        if dst not in index:
            raise SchemaError(f"liability to unknown bank {dst!r}")
        amount = to_scalar(entry["amount"], mode)
        matrix[index[src]][index[dst]] += amount
    return build_network(matrix, cash, mode=mode, ids=ids)


def serialize_network(net: FinancialNetwork) -> str:
    """Emit the JSON document format; exact round-trip in rational mode."""
    doc = {
        "banks": [
            {"id": net.ids[i], "cash": scalar_to_json(net.cash[i])} for i in range(net.n)
        ],
        "liabilities": [
            {"from": net.ids[i], "to": net.ids[j], "amount": scalar_to_json(net.liabilities[i][j])}
            for i in range(net.n)
            for j in range(net.n)
            if net.liabilities[i][j] != 0
        ],
    }
    return json.dumps(doc, indent=2)


# -- CSV alternative: one id,cash file and one from,to,amount file -------------


def parse_network_csv(banks_text: str, liabilities_text: str, mode: str = RATIONAL) -> FinancialNetwork:
    check_mode(mode)
    try:
        bank_rows = list(csv.reader(io.StringIO(banks_text)))
        liab_rows = list(csv.reader(io.StringIO(liabilities_text)))
    except csv.Error as exc:
        raise ParseError(f"invalid CSV: {exc}") from exc
    bank_rows = [row for row in bank_rows if row and any(cell.strip() for cell in row)]
    liab_rows = [row for row in liab_rows if row and any(cell.strip() for cell in row)]
    if bank_rows and [c.strip().lower() for c in bank_rows[0]] == ["id", "cash"]:
        bank_rows = bank_rows[1:]
    if liab_rows and [c.strip().lower() for c in liab_rows[0]] == ["from", "to", "amount"]:
        liab_rows = liab_rows[1:]
    if not bank_rows:
        raise SchemaError("banks CSV has no data rows")
    banks = []
    for row in bank_rows:
        if len(row) != 2:
            raise SchemaError(f"banks CSV row needs id,cash: {row!r}")
        banks.append({"id": row[0].strip(), "cash": row[1].strip()})
    liabilities = []
    for row in liab_rows:
        if len(row) != 3:
            raise SchemaError(f"liabilities CSV row needs from,to,amount: {row!r}")
        liabilities.append(
            {"from": row[0].strip(), "to": row[1].strip(), "amount": row[2].strip()}
        )
    return network_from_document({"banks": banks, "liabilities": liabilities}, mode)


def serialize_network_csv(net: FinancialNetwork) -> tuple[str, str]:
    banks_out = io.StringIO()
    writer = csv.writer(banks_out, lineterminator="\n")
    writer.writerow(["id", "cash"])
    for i in range(net.n):
        writer.writerow([net.ids[i], format_amount(net.cash[i])])
    liab_out = io.StringIO()
    writer = csv.writer(liab_out, lineterminator="\n")
    writer.writerow(["from", "to", "amount"])
    for i in range(net.n):
        for j in range(net.n):
            if net.liabilities[i][j] != 0:
                writer.writerow([net.ids[i], net.ids[j], format_amount(net.liabilities[i][j])])
    return banks_out.getvalue(), liab_out.getvalue()


def format_amount(x: Scalar) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)
