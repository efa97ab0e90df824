"""Event-driven continuous-time clearing dynamics.

Money flows through the network in intervals of constant rates: indebted
banks with cash pay at unit rate, debt-free banks pay nothing, and cashless
indebted banks pay exactly what flows in (their rates solve a small linear
system over the zero group). An event happens whenever a bank's debt or cash
hits zero; statuses only ever move from positive to zero or absorbing, and
from zero to absorbing, so a run takes at most 2n events.

The initial instant needs special care when some banks start indebted with
no cash: whether such a bank behaves as "positive" depends on rates that in
turn depend on that classification. `big_bang_partition` resolves it as the
greatest fixed point of the clamped rate map r = min(1, Q^T r), computed
exactly by the same fictitious-defaults loop that gives `solvers` its
clearing payments, instead of by numeric probing.

Nonactive banks (no cash and unreachable from any cash along debt edges)
never move money; they are pinned to zero rates for the whole run and stay
out of every linear solve.

Every linear solve here is a `markov.ZeroGroupFactor` of (diag(b) - L^T)_B,
carried rather than rebuilt. The zero group changes by a bank or two per
event, so `run_flow` carries one through its events; `step` and
`equilibrium_rates`, called on their own, start from a fresh one. The
fictitious-defaults loop carries one through its rounds, where the short
set only grows, so each round borders just the banks new to it. A join that
makes the zero group non-transient raises `NonTransientZeroGroupError`.

Both arithmetic modes run the same code, with every zero test derived from
one relative factor ε (`FinancialNetwork.zero_rel`, 0 in rational mode): a
rate within ε counts as zero, and so does an amount within `zero_tol`, ε
times the largest cash or debt entry. Cash changes only by the linear update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InvariantViolationError,
    NoConvergenceError,
    NonTransientZeroGroupError,
    SingularSystemError,
    StalledError,
)
from .markov import ZeroGroupFactor, active_set
from .network import FinancialNetwork, Partition, Status, initial_partition
from .scalars import Scalar, scalar_to_json, zero_one


@dataclass(frozen=True)
class IntervalRates:
    """Out-rates, in-rates and their difference, constant on one interval."""

    out: tuple[Scalar, ...]
    inflow: tuple[Scalar, ...]
    balance: tuple[Scalar, ...]


@dataclass(frozen=True)
class SystemState:
    """Snapshot between events: elapsed time, statuses, debts, cash, payments."""

    time: Scalar
    partition: Partition
    remaining_debt: tuple[Scalar, ...]
    cash: tuple[Scalar, ...]
    paid: tuple[Scalar, ...]

    @property
    def statuses(self) -> tuple[Status, ...]:
        return self.partition.statuses


@dataclass(frozen=True)
class Transition:
    bank: int
    before: Status
    after: Status


@dataclass(frozen=True)
class FlowEvent:
    """One status change: when, who, and the state right after."""

    index: int
    time: Scalar
    movers: tuple[int, ...]
    transitions: tuple[Transition, ...]
    rates: IntervalRates
    state_after: SystemState


@dataclass(frozen=True)
class ClearingResult:
    """Outcome of a clearing computation by any of the algorithms."""

    payments: tuple[Scalar, ...]
    final_partition: Partition
    defaults: frozenset[int]
    total_time: Scalar | None
    final_cash: tuple[Scalar, ...]
    trajectory: tuple[FlowEvent, ...]
    algorithm: str


def pinned_banks(net: FinancialNetwork) -> frozenset[int]:
    """Nonactive indebted banks: they hold zero status with zero rates forever."""
    act, tol = active_set(net), net.zero_tol
    return frozenset(i for i in range(net.n) if i not in act and net.total_debt[i] > tol)


def _network_factor(
    net: FinancialNetwork, scope: frozenset[int] | None = None
) -> ZeroGroupFactor:
    """A factor of (diag(b) - L^T)_B for zero groups and default sets B
    within `scope`."""
    return ZeroGroupFactor(net.liabilities, net.total_debt, net.mode, scope)


def balance_rates(
    net: FinancialNetwork, out: Sequence[Scalar]
) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """In-rates (columns of the proportion matrix applied to out-rates) and
    the per-bank balance inflow - outflow; balances sum to zero.

    The one Q^T p kernel: the clamped payment map and the final cash of a
    payment vector use it too, with payments in place of rates.
    """
    zero, _ = zero_one(net.mode)
    inflow = [zero] * net.n
    for j, rate in enumerate(out):
        if rate:
            for i, q in enumerate(net.relative[j]):
                if q:
                    inflow[i] += rate * q
    balance = tuple(inflow[i] - out[i] for i in range(net.n))
    return tuple(inflow), balance


def equilibrium_rates(
    net: FinancialNetwork,
    partition: Partition,
    pinned: frozenset[int] = frozenset(),
) -> IntervalRates:
    """Rates for one interval: 1 on positives, 0 on absorbing and pinned banks,
    and the unique balanced solution on the remaining zero group.

    The zero-group system is solvable exactly when the group (minus pinned
    banks) is transient; during a well-formed run that is guaranteed.
    """
    return _equilibrium_rates(net, partition, pinned, _network_factor(net))


def _equilibrium_rates(
    net: FinancialNetwork,
    partition: Partition,
    pinned: frozenset[int],
    factor: ZeroGroupFactor,
) -> IntervalRates:
    """`equilibrium_rates`, solving the zero group with `factor`, which is
    left on this interval's zero group for the next one."""
    zero, one = zero_one(net.mode)
    out: list[Scalar] = [zero] * net.n
    for i in partition.positive:
        out[i] = one
    solve_set = sorted(partition.zero - pinned)
    if solve_set:
        e = []
        for i in solve_set:
            acc = zero
            for j in partition.positive:
                acc += net.relative[j][i]
            e.append(acc)
        try:
            v = factor.solve(solve_set, e)
        except SingularSystemError as exc:
            raise NonTransientZeroGroupError(
                f"zero group {solve_set} contains a closed subnetwork"
            ) from exc
        for k, i in enumerate(solve_set):
            out[i] = v[k]
    inflow, balance = balance_rates(net, out)
    return IntervalRates(out=tuple(out), inflow=inflow, balance=balance)


def _select_event(
    net: FinancialNetwork, state: SystemState, rates: IntervalRates
) -> tuple[Scalar, list[tuple[Scalar, int, str]]]:
    """Duration t' until the next status change, and every candidate as
    (time, bank, kind): "debt" runs out for a paying bank, "cash" for a
    positive bank with negative balance. Rates within ε count as zero."""
    eps, low = net.zero_rel, -net.zero_rel
    zero, _ = zero_one(net.mode)
    candidates: list[tuple[Scalar, int, str]] = []
    for i in range(net.n):
        status = state.statuses[i]
        if status is Status.ABSORBING:
            continue
        if rates.out[i] > eps:
            candidates.append((state.remaining_debt[i] / rates.out[i], i, "debt"))
        if status is Status.POSITIVE and rates.balance[i] < low:
            t = -state.cash[i] / rates.balance[i]
            candidates.append((t if t > 0 else zero, i, "cash"))
    if not candidates:
        raise StalledError("no finite event candidate; positive group should be nonempty")
    return min(t for t, _, _ in candidates), candidates


def next_event(
    net: FinancialNetwork, state: SystemState, rates: IntervalRates
) -> tuple[Scalar, tuple[int, ...]]:
    """Duration until the next status change and every bank whose candidate
    time is exactly that minimum (`step` also moves the near-ties).

    Candidates: debt runs out (any paying bank) or cash runs out (positive
    banks with negative balance). A zero duration can only arise for a
    positive bank already sitting at zero cash whose balance has turned
    negative; callers treat that as an instantaneous reclassification.
    `step` never meets the no-candidate `StalledError`: it runs only with
    positive banks, which pay at rate 1.
    """
    t_prime, candidates = _select_event(net, state, rates)
    return t_prime, tuple(sorted({i for t, i, _ in candidates if t == t_prime}))


def step(
    net: FinancialNetwork,
    state: SystemState,
    pinned: frozenset[int] | None = None,
    index: int = 0,
) -> FlowEvent:
    """Advance to the next event: compute rates, move time forward linearly,
    and reclassify every mover (debt hitting zero wins over cash hitting zero).

    A candidate moves when its debt or cash at t' is within `zero_tol` of 0
    (in rational mode: when its time is exactly t'). Only a debt mover's
    debt and payment are set; cash changes by the linear update alone."""
    if pinned is None:
        pinned = pinned_banks(net)
    return _step(net, state, pinned, index, _network_factor(net))


def _step(
    net: FinancialNetwork,
    state: SystemState,
    pinned: frozenset[int],
    index: int,
    factor: ZeroGroupFactor,
) -> FlowEvent:
    """`step`, with the zero group solved by `factor` (see `_equilibrium_rates`)."""
    if not state.partition.positive:
        raise StalledError(
            f"cannot step: no positive banks remain (event {index}, time {state.time})"
        )
    rates = _equilibrium_rates(net, state.partition, pinned, factor)
    t_prime, candidates = _select_event(net, state, rates)
    zero, _ = zero_one(net.mode)
    tol = net.zero_tol
    now = state.time + t_prime
    where = f"event {index}, time {now}"

    debt = [state.remaining_debt[i] - rates.out[i] * t_prime for i in range(net.n)]
    cash = [state.cash[i] + rates.balance[i] * t_prime for i in range(net.n)]
    paid = [state.paid[i] + rates.out[i] * t_prime for i in range(net.n)]
    hits: dict[int, set[str]] = {}
    for _, i, kind in candidates:
        quantity = debt[i] if kind == "debt" else cash[i]
        if quantity <= tol:
            if quantity < -tol:
                raise InvariantViolationError(
                    f"negative {kind} {quantity} at bank {net.ids[i]} ({where})"
                )
            hits.setdefault(i, set()).add(kind)
    movers = tuple(sorted(hits))

    statuses = list(state.statuses)
    transitions = []
    for i in movers:
        before = statuses[i]
        if "debt" in hits[i]:
            after = Status.ABSORBING
            debt[i] = zero
            paid[i] = net.total_debt[i]
        else:
            after = Status.ZERO
        if before is Status.ABSORBING or (before is Status.ZERO and after is not Status.ABSORBING):
            raise InvariantViolationError(
                f"forbidden transition {before.value} -> {after.value} "
                f"for bank {net.ids[i]} ({where})"
            )
        statuses[i] = after
        transitions.append(Transition(bank=i, before=before, after=after))

    if t_prime <= 0:
        # only the degenerate instant reclassification is allowed at zero duration
        for tr in transitions:
            if not (tr.before is Status.POSITIVE and tr.after is Status.ZERO
                    and state.cash[tr.bank] <= tol):
                raise InvariantViolationError(
                    "zero-duration event outside degenerate case: bank "
                    f"{net.ids[tr.bank]} {tr.before.value} -> {tr.after.value} ({where})"
                )

    total = sum(net.cash)
    if abs(sum(cash) - total) > 1000 * net.zero_rel * max(1, total):
        raise InvariantViolationError(f"cash conservation violated ({where})")

    after_state = SystemState(
        time=now,
        partition=Partition(tuple(statuses)),
        remaining_debt=tuple(debt),
        cash=tuple(cash),
        paid=tuple(paid),
    )
    return FlowEvent(
        index=index,
        time=after_state.time,
        movers=movers,
        transitions=tuple(transitions),
        rates=rates,
        state_after=after_state,
    )


def _greatest_fixed_point(
    net: FinancialNetwork,
    banks: frozenset[int],
    base: Sequence[Scalar],
    cap: Sequence[Scalar],
    held: Sequence[Scalar],
    tol: Scalar,
) -> tuple[list[tuple[Scalar, ...]], list[frozenset[int]], list[tuple]]:
    """Greatest fixed point of x = min(cap, base + Q^T x) on `banks`, with
    every other bank held at its value in `held` (fictitious defaults).

    Starts with every bank in `banks` at its cap. Each round clamps, collects
    the banks that fall short of their cap by more than `tol`, and solves
    x = base + Q^T x exactly on that short set, the rest of `banks` at cap.
    The short set only grows, so this stops within |banks| rounds, and one
    factor, scaled over `banks`, serves every round by bordering the banks
    new to the set. It never holds a closed group fed from outside: the
    members' in-rates sum to their out-rates plus the feed, so one of them
    stays at its cap.

    Returns the iterates (the start, then each clamp), the short set of
    each clamp and the (set, input, solution) triple of each solve.
    """
    zero, _ = zero_one(net.mode)
    start = list(held)
    for i in banks:
        start[i] = cap[i]
    iterates = [tuple(start)]
    short_sets: list[frozenset[int]] = []
    solves = []
    x = start
    previous: frozenset[int] = frozenset()
    factor = _network_factor(net, banks)
    while True:
        received, _ = balance_rates(net, x)
        x = list(held)
        for i in banks:
            x[i] = min(base[i] + received[i], cap[i])
        short = frozenset(i for i in banks if x[i] < cap[i] - tol)
        iterates.append(tuple(x))
        short_sets.append(short)
        if short == previous:
            return iterates, short_sets, solves
        if not previous <= short:
            raise NoConvergenceError("defaulting sets did not grow monotonically")
        previous = short

        fed = list(start)
        for i in short:
            fed[i] = zero
        inflow, _ = balance_rates(net, fed)
        solve_set = sorted(short)
        e = [base[i] + inflow[i] for i in solve_set]
        try:
            r = factor.solve(solve_set, e)
        except SingularSystemError as exc:
            raise SingularSystemError(
                f"defaulting set {solve_set} is not transient: {exc}"
            ) from exc
        solves.append((tuple(solve_set), tuple(e), tuple(r)))
        x = list(start)
        for k, i in enumerate(solve_set):
            x[i] = r[k]


def big_bang_partition(net: FinancialNetwork) -> tuple[Partition, frozenset[int]]:
    """Resolve the time-zero classification of cashless indebted banks.

    Their time-zero rates are the greatest fixed point of
    r = min(1, Q^T r) over the active cashless banks, with positive banks
    held at rate 1 and every other bank at 0, found exactly by the
    fictitious-defaults loop. A bank whose rate stays within ε of 1 is
    revealed as positive: its in-rate covers its unit out-rate.

    Returns the modified partition for the first interval and the revealed
    set. Nonactive banks are never candidates; they stay zero with no flow.
    """
    part = initial_partition(net)
    cashless = part.zero & active_set(net)
    zero, one = zero_one(net.mode)
    held = [one if s is Status.POSITIVE else zero for s in part.statuses]
    _, short_sets, _ = _greatest_fixed_point(
        net, cashless, [zero] * net.n, [one] * net.n, held, net.zero_rel
    )
    revealed = cashless - short_sets[-1]
    statuses = list(part.statuses)
    for i in revealed:
        statuses[i] = Status.POSITIVE
    return Partition(tuple(statuses)), revealed


def run_flow(net: FinancialNetwork, record_trajectory: bool = True) -> ClearingResult:
    """Run the dynamics to completion and return the clearing payments.

    Applies the time-zero normalization, then steps until no positive bank
    remains. The resulting payment vector solves the clearing equation; total
    time never exceeds the largest single debt.
    """
    zero, _ = zero_one(net.mode)
    pinned = pinned_banks(net)
    start_partition, _revealed = big_bang_partition(net)
    state = SystemState(
        time=zero,
        partition=start_partition,
        remaining_debt=net.total_debt,
        cash=net.cash,
        paid=(zero,) * net.n,
    )
    events: list[FlowEvent] = []
    factor = _network_factor(net)
    k = 0
    while state.partition.positive:
        event = _step(net, state, pinned, k, factor)
        state = event.state_after
        if record_trajectory:
            events.append(event)
        k += 1
        if k > 2 * net.n:
            raise InvariantViolationError("event count exceeded 2n")

    max_debt = max(net.total_debt, default=zero)
    if state.time > max_debt + net.zero_tol:
        raise InvariantViolationError(
            f"total time {state.time} exceeds the largest debt {max_debt}"
        )
    return ClearingResult(
        payments=state.paid,
        final_partition=state.partition,
        defaults=frozenset(state.partition.zero),
        total_time=state.time,
        final_cash=state.cash,
        trajectory=tuple(events),
        algorithm="flow",
    )


def trace_line(net: FinancialNetwork, event: FlowEvent) -> dict:
    """One JSON-ready object per event, for the line-oriented trace output."""
    after = event.state_after
    return {
        "k": event.index,
        "time": scalar_to_json(event.time),
        "movers": [net.ids[i] for i in event.movers],
        "transitions": [
            {"id": net.ids[t.bank], "from": t.before.value, "to": t.after.value}
            for t in event.transitions
        ],
        "debt": [scalar_to_json(x) for x in after.remaining_debt],
        "cash": [scalar_to_json(x) for x in after.cash],
        "out_rates": [scalar_to_json(x) for x in event.rates.out],
    }
