"""Static problem data: liability networks, derived matrices, status partitions.

A network holds the liability matrix (entry (i, j) is the debt of bank i to
bank j), the cash vector, and two derived objects: the total-debt vector and
the row-stochastic matrix of debt proportions. Banks with no debt get a unit
self-loop in the proportion matrix so that every row sums to one.

Interbank networks are sparse: a bank owes a few others among n. So each
network also holds, once, every bank's nonzero proportion entries
(`FinancialNetwork.shares`), which the entry validator forms from the
columns it already holds, and every pass over the rows (the Q^T p kernel,
the active set, the graph search for swamps) walks those lists. The dense
`liabilities` and `relative` fields remain, with the same values.

Both input forms, a dense matrix (`build_network`) and a document of
(from, to, amount) entries (JSON or CSV), go through one entry validator,
which reads and checks each amount once, before repeated pairs are summed.

Everything here is immutable after construction and safe to share across
concurrent solver runs.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    ParseError,
    SchemaError,
    SelfDebtError,
)
from .scalars import (
    FLOAT_ZERO_REL,
    RATIONAL,
    Scalar,
    check_mode,
    quotients,
    scalar_to_json,
    to_scalar,
    total,
    zero_one,
)


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

    def moved(self, absorbed: Iterable[int], emptied: Iterable[int]) -> Partition:
        """The partition once the banks of `absorbed` are absorbing and
        those of `emptied` zero; its bank sets are derived from this one's,
        not by a pass over every status."""
        absorbed, emptied = frozenset(absorbed), frozenset(emptied)
        statuses = list(self.statuses)
        for i in absorbed:
            statuses[i] = Status.ABSORBING
        for i in emptied:
            statuses[i] = Status.ZERO
        after = Partition(tuple(statuses))
        # cached_property values live in the instance dict; each set is built
        # in index order, as the pass over the statuses builds it, so that it
        # iterates in the same order
        derived = after.__dict__
        derived["positive"] = frozenset(sorted(self.positive - absorbed - emptied))
        derived["zero"] = frozenset(sorted((self.zero | emptied) - absorbed))
        if "absorbing" in self.__dict__:
            derived["absorbing"] = frozenset(sorted(self.absorbing | absorbed))
        return after

    def __iter__(self):
        return iter(self.statuses)

    def __len__(self) -> int:
        return len(self.statuses)


@dataclass(frozen=True)
class FinancialNetwork:
    """Immutable liability network with derived total debts and proportions.

    `relative[i][j]` is the share of bank i's total debt owed to j; rows of
    `relative` sum to one exactly in rational mode. Bank ids are only used
    at the serialization boundary; all internal indexing is positional.

    `shares[i]` lists the nonzero entries (j, q_ij) of row i, j ascending:
    bank i's creditors, or the unit self-entry of a debt-free bank. The
    entry validator forms them from the columns it holds, and
    `dataclasses.replace` carries them over; a network built without them
    forms them from the dense rows. They take no part in equality, hashing
    or `repr`, which the other fields determine.
    """

    liabilities: tuple[tuple[Scalar, ...], ...]
    cash: tuple[Scalar, ...]
    total_debt: tuple[Scalar, ...]
    relative: tuple[tuple[Scalar, ...], ...]
    mode: str
    ids: tuple[str, ...]
    shares: tuple[tuple[tuple[int, Scalar], ...], ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.shares is None:
            rows = []
            for i, (debts, relative) in enumerate(zip(self.liabilities, self.relative)):
                creditors = list(compress(range(self.n), debts)) or [i]
                rows.append(tuple([(j, relative[j]) for j in creditors]))
            object.__setattr__(self, "shares", tuple(rows))

    @property
    def n(self) -> int:
        return len(self.cash)

    @cached_property
    def zero_rel(self) -> Scalar:
        """Relative factor ε of every zero test (0 in rational mode); a rate within ε is zero."""
        return Fraction(0) if self.mode == RATIONAL else FLOAT_ZERO_REL

    @cached_property
    def zero_tol(self) -> Scalar:
        """ε times the largest cash or debt entry: an amount within it counts
        as zero. With ε = 0 (rational mode) it is 0, with no pass over the
        amounts."""
        zero, _ = zero_one(self.mode)
        if not self.zero_rel:
            return zero
        return self.zero_rel * max([abs(x) for x in self.cash + self.total_debt], default=zero)

    @cached_property
    def total_cash(self) -> Scalar:
        """Σ c, which the flow conserves (`scalars.total`)."""
        return total(self.cash)

    @cached_property
    def active(self) -> frozenset[int]:
        """Banks that move money: positive-cash banks plus, transitively, every
        creditor of an already active debtor. Every payment starts from cash
        and runs along debts, so the set holds for the whole clearing."""
        tol = self.zero_tol
        frontier = [i for i in range(self.n) if self.cash[i] > tol]
        active = set(frontier)
        while frontier:
            for j, _ in self.shares[frontier.pop()]:
                if j not in active:
                    active.add(j)
                    frontier.append(j)
        return frozenset(active)


def build_network(
    liabilities: Sequence[Sequence],
    cash: Sequence,
    mode: str = RATIONAL,
    ids: Sequence[str] | None = None,
) -> FinancialNetwork:
    """Build a network from a dense n×n liability matrix and n cash amounts;
    `_network_from_entries` checks every cell."""
    n = len(cash)
    if len(liabilities) != n:
        raise DimensionMismatchError(
            f"liability matrix has {len(liabilities)} rows for {n} cash entries"
        )
    for i, row in enumerate(liabilities):
        if len(row) != n:
            raise DimensionMismatchError(f"liability row {i} has length {len(row)}, expected {n}")
    entries = ((i, j, x) for i, row in enumerate(liabilities) for j, x in enumerate(row))
    return _network_from_entries(entries, cash, mode, ids, lambda i, j: f"liability[{i}][{j}]")


def _network_from_entries(
    entries: Iterable[tuple[int, int, object]], cash: Sequence, mode: str,
    ids: Sequence[str] | None, name: Callable[[int, int], str],
) -> FinancialNetwork:
    """The one validator of raw amounts. Each (debtor, creditor, amount) entry
    is read and checked once, before repeated pairs are summed: it must be
    finite, nonnegative and, if nonzero, no self-debt; `name(i, j)` labels it
    in errors. Totals and proportions come from the nonzero entries, each
    row summed in column order (`scalars.total`) and divided by its total
    (`scalars.quotients`); no total may overflow. In rational mode the sign
    tests read each amount's numerator, and the totals and proportions are
    formed from integers."""
    check_mode(mode)
    n = len(cash)
    if ids is None:
        id_tuple = tuple(str(i + 1) for i in range(n))
    else:
        id_tuple = tuple(str(b) for b in ids)
        if len(id_tuple) != n:
            raise DimensionMismatchError(f"{len(id_tuple)} ids for {n} banks")
        if len(set(id_tuple)) != n:
            raise SchemaError("bank ids must be unique")
    zero, one = zero_one(mode)
    rational = mode == RATIONAL
    debts: list[dict[int, Scalar]] = [{} for _ in range(n)]
    for i, j, raw in entries:
        x = to_scalar(raw, mode)
        sign = x.numerator if rational else x
        if not rational and not math.isfinite(x):
            raise NegativeEntryError(f"{name(i, j)} is not finite")
        if sign < 0:
            raise NegativeEntryError(f"{name(i, j)} = {x} is negative")
        if sign:
            if i == j:
                raise SelfDebtError(f"{name(i, j)} = {x} is a self-debt")
            debts[i][j] = debts[i][j] + x if j in debts[i] else x
    # `or zero` stores a float -0.0 as 0.0, as the parsers read it
    cash_vec = tuple(to_scalar(x, mode) or zero for x in cash)
    for i, c in enumerate(cash_vec):
        if not rational and not math.isfinite(c):
            raise NegativeEntryError(f"cash[{i}] is not finite")
        if (c.numerator if rational else c) < 0:
            raise NegativeEntryError(f"cash[{i}] = {c} is negative")
    if not rational and not math.isfinite(total(cash_vec)):
        # the flow conserves total cash, so a finite total keeps every position finite
        raise NegativeEntryError("total cash is not finite")

    rows, totals, relative, shares = [], [], [], []
    for i, row_debts in enumerate(debts):
        columns = sorted(row_debts)
        amounts = [row_debts[j] for j in columns]
        t = total(amounts) if columns else zero
        if not rational and not math.isfinite(t):
            raise NegativeEntryError(f"total debt of bank {i} is not finite")
        row, proportions = [zero] * n, [zero] * n
        for j, x, q in zip(columns, amounts, quotients(amounts, t)):
            row[j], proportions[j] = x, q
        if not columns:
            proportions[i] = one
        rows.append(tuple(row))
        totals.append(t)
        relative.append(tuple(proportions))
        shares.append(tuple([(j, proportions[j]) for j in columns]) or ((i, one),))

    return FinancialNetwork(liabilities=tuple(rows), cash=cash_vec, total_debt=tuple(totals),
                            relative=tuple(relative), mode=mode, ids=id_tuple,
                            shares=tuple(shares))


def initial_partition(net: FinancialNetwork) -> Partition:
    """Statuses at time zero, straight from (total debt, cash)."""
    tol = net.zero_tol
    return Partition(
        tuple(classify_status(net.total_debt[i], net.cash[i], tol) for i in range(net.n))
    )


def convert_network(net: FinancialNetwork, mode: str) -> FinancialNetwork:
    """Rebuild the same network under a different arithmetic mode."""
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
    liability_entries = doc.get("liabilities", [])
    if not isinstance(liability_entries, list):
        raise SchemaError('"liabilities" must be a list')
    index = {bank_id: k for k, bank_id in enumerate(ids)}
    entries = []
    for entry in liability_entries:
        if not (
            isinstance(entry, dict) and "from" in entry and "to" in entry and "amount" in entry
        ):
            raise SchemaError('each liability needs "from", "to" and "amount"')
        src, dst = str(entry["from"]), str(entry["to"])
        if src not in index:
            raise SchemaError(f"liability from unknown bank {src!r}")
        if dst not in index:
            raise SchemaError(f"liability to unknown bank {dst!r}")
        entries.append((index[src], index[dst], entry["amount"]))
    return _network_from_entries(
        entries, cash, mode, ids, lambda i, j: f"liability from {ids[i]!r} to {ids[j]!r}"
    )


def _document(net: FinancialNetwork) -> dict:
    return {
        "banks": [
            {"id": net.ids[i], "cash": scalar_to_json(net.cash[i])} for i in range(net.n)
        ],
        "liabilities": [
            {"from": net.ids[i], "to": net.ids[j], "amount": scalar_to_json(net.liabilities[i][j])}
            for i in range(net.n)
            for j, _ in net.shares[i]
            if j != i
        ],
    }


def serialize_network(net: FinancialNetwork) -> str:
    """Emit the JSON document format; exact round-trip in rational mode."""
    return json.dumps(_document(net), indent=2)


# -- CSV alternative: one id,cash file and one from,to,amount file -------------

#: the columns of each CSV table, named by its list in the JSON document
_CSV_COLUMNS = {"banks": ["id", "cash"], "liabilities": ["from", "to", "amount"]}


def _read_csv_table(text: str, table: str) -> list[dict[str, str]]:
    """The entries of one CSV table, as in the JSON document: blank rows and an
    optional header dropped, each row's width checked and its cells stripped."""
    columns = _CSV_COLUMNS[table]
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise ParseError(f"invalid CSV: {exc}") from exc
    if rows and [c.strip().lower() for c in rows[0]] == columns:
        rows = rows[1:]
    for row in rows:
        if len(row) != len(columns):
            raise SchemaError(f"{table} CSV row needs {','.join(columns)}: {row!r}")
    return [{c: cell.strip() for c, cell in zip(columns, row)} for row in rows]


def parse_network_csv(banks_text: str, liabilities_text: str, mode: str = RATIONAL) -> FinancialNetwork:
    check_mode(mode)
    banks = _read_csv_table(banks_text, "banks")
    if not banks:
        raise SchemaError("banks CSV has no data rows")
    liabilities = _read_csv_table(liabilities_text, "liabilities")
    return network_from_document({"banks": banks, "liabilities": liabilities}, mode)


def serialize_network_csv(net: FinancialNetwork) -> tuple[str, str]:
    doc = _document(net)
    texts = []
    for table, columns in _CSV_COLUMNS.items():
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([entry[c] for c in columns] for entry in doc[table])
        texts.append(out.getvalue())
    return texts[0], texts[1]
