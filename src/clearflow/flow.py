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

Every pass over the proportion matrix walks each bank's nonzero entries
(`FinancialNetwork.shares`). The in-rates of an interval, and of a
fictitious-defaults round, come in two parts from the factor that solves
it. The held banks (the positive ones in the flow, those at their cap in
fd) give Q^T h, which is also the solve's input on the zero group; the
solved banks give the rest. In rational mode the factor carries Q^T h from
call to call, moving it by one row when a bank leaves the held set, and
forms the solved part from the integers of its solve, so no
O(n m) `Fraction` sum is built. In float mode `markov.in_rates` sums both
afresh: the input in the order of the held banks, the in-rates bank by
bank in index order.

Nonactive banks (no cash and unreachable from any cash along debt edges)
never move money: the active set is fixed for the whole run
(`FinancialNetwork.active`), the zero-group solve covers the group's active
members only, and the others keep rate zero.

Every linear solve here is a `markov.ZeroGroupFactor` of (diag(b) - L^T)_B,
carried rather than rebuilt. The zero group changes by a bank or two per
event, so `run_flow` passes one factor to `step`, which passes it on to
`equilibrium_rates`, event after event; called without one, they start from
a fresh one. The fictitious-defaults loop carries one through its rounds,
where the short set only grows, so each round borders just the banks new to
it. A join that makes the zero group non-transient raises
`NonTransientZeroGroupError`.

Both arithmetic modes run the same code, with every zero test derived from
one relative factor ε (`FinancialNetwork.zero_rel`, 0 in rational mode): a
rate within ε counts as zero, and so does an amount within `zero_tol`, ε
times the largest cash or debt entry. Cash changes only by the linear update.

Each event sorts the banks by status, not by testing rates: a positive
bank pays at rate exactly 1, so its time to the event is its remaining debt
and it moves by t' itself; only the zero group's members need a rate test,
a division and a product. The linear update is one kernel,
`scalars.advance`, called once per vector (debt, payment, cash), and the
conservation check is one `scalars.total`. In rational mode both work on
the integers of each `Fraction`; in float mode they do the float operations
of the plain loop, x + r t and a sum in index order. This module
names no scalar type: exact arithmetic lives in `scalars` and `markov`.
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
from .markov import ZeroGroupFactor, in_rates
from .network import FinancialNetwork, Partition, Status, initial_partition
from .scalars import Scalar, advance, scalar_to_json, total, zero_one


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


def _network_factor(
    net: FinancialNetwork, scope: frozenset[int] | None = None
) -> ZeroGroupFactor:
    """A factor of (diag(b) - L^T)_B for zero groups and default sets B
    within `scope`."""
    return ZeroGroupFactor(net.liabilities, net.total_debt, net.mode, scope)


def balance_rates(net: FinancialNetwork, out: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """In-rates Q^T out: the columns of the proportion matrix applied to the
    out-rates, by `markov.in_rates` over every bank in index order.

    The clamped payment map, Picard and the final cash of a payment vector
    use it, with payments in place of rates.
    """
    return tuple(in_rates(net, range(net.n), out))


def equilibrium_rates(
    net: FinancialNetwork,
    partition: Partition,
    factor: ZeroGroupFactor | None = None,
) -> IntervalRates:
    """Rates for one interval: 1 on positives, the unique balanced solution
    on the zero group's active members, and 0 on every other bank.

    The system is solvable exactly when those members form a transient set;
    during a well-formed run that is guaranteed. It is solved by `factor`,
    a factor of the network's liabilities over every bank, which is left on
    this interval's set and held rates for the next one; a fresh factor
    when none is given. The factor gives the input e (what the positive
    banks pay each member) and the in-rates Q^T out.
    """
    if factor is None:
        factor = _network_factor(net)
    zero, one = zero_one(net.mode)
    out: list[Scalar] = [zero] * net.n
    for i in partition.positive:
        out[i] = one
    solve_set = sorted(partition.zero & net.active)
    # e_i = sum of q_ji over the positive banks j, in the order of
    # `partition.positive`
    e = factor.held_inflow(net, partition.positive, out, solve_set)
    if solve_set:
        try:
            v = factor.solve(solve_set, e)
        except SingularSystemError as exc:
            raise NonTransientZeroGroupError(
                f"zero group {solve_set} contains a closed subnetwork"
            ) from exc
        for k, i in enumerate(solve_set):
            out[i] = v[k]
    inflow = tuple(factor.inflow(net, out))
    balance = tuple([x - rate if rate else x for x, rate in zip(inflow, out)])
    return IntervalRates(out=tuple(out), inflow=inflow, balance=balance)


def _where(index: int, time: Scalar) -> str:
    """The event and time that an error message names."""
    return f"event {index}, time {time}"


def step(
    net: FinancialNetwork,
    state: SystemState,
    index: int = 0,
    factor: ZeroGroupFactor | None = None,
) -> FlowEvent:
    """Advance to the next event: compute rates, move time forward linearly,
    and reclassify every mover (debt hitting zero wins over cash hitting zero).

    One pass over the statuses, in index order, sorts the banks by status.
    A positive bank pays at rate exactly 1, so it is `paying` (its debt can
    run out) with no rate test, its time is its remaining debt, and it is
    `draining` (its cash can run out) when its balance is below -ε. A
    zero-group bank with a nonzero rate moves debt, and is `paying` when
    that rate is above ε, with time debt / rate. t' is the least of these
    times and the draining banks'; positive banks pay at rate 1, so it
    exists. `scalars.advance` moves debt, payment and cash by rate * t',
    once per vector, over the banks with a nonzero rate. A listed amount
    within `zero_tol` of 0 at t' (in rational mode: exactly 0) makes a
    mover; `paying` movers are absorbed, debt and payment set exactly, so
    every transition is P→Z, P→A or Z→A. Checks guard the movers: no
    listed amount ends below -`zero_tol`, none is absorbed when t' <= 0, and
    cash is conserved (`scalars.total`, exact in rational mode). The zero
    group is solved by `factor` (see `equilibrium_rates`)."""
    if not state.partition.positive:
        raise StalledError(
            f"cannot step: no positive banks remain ({_where(index, state.time)})"
        )
    rates = equilibrium_rates(net, state.partition, factor)
    out, balance = rates.out, rates.balance
    eps, low = net.zero_rel, -net.zero_rel
    zero, _ = zero_one(net.mode)
    debt, cash, paid = list(state.remaining_debt), list(state.cash), list(state.paid)
    moving, paying, draining, times = [], [], [], []
    for i, status in enumerate(state.statuses):
        if status is Status.POSITIVE:
            moving.append(i)
            paying.append(i)
            times.append(debt[i])
            if balance[i] < low:
                draining.append(i)
        elif status is Status.ZERO and out[i]:
            moving.append(i)
            if out[i] > eps:
                paying.append(i)
                times.append(debt[i] / out[i])
    for i in draining:
        t = -cash[i] / balance[i]
        times.append(t if t > 0 else zero)
    t_prime = min(times)
    tol, neg_tol = net.zero_tol, -net.zero_tol
    now = state.time + t_prime

    advance(debt, out, -t_prime, moving)
    advance(paid, out, t_prime, moving)
    advance(cash, balance, t_prime, range(net.n))
    absorbed = []
    for i in paying:
        if debt[i] <= tol:
            if debt[i] < neg_tol:
                raise InvariantViolationError(
                    f"negative debt {debt[i]} at bank {net.ids[i]} ({_where(index, now)})"
                )
            absorbed.append(i)
    emptied = []
    for i in draining:
        if cash[i] <= tol:
            if cash[i] < neg_tol:
                raise InvariantViolationError(
                    f"negative cash {cash[i]} at bank {net.ids[i]} ({_where(index, now)})"
                )
            if i not in absorbed:
                emptied.append(i)
    if absorbed and t_prime <= 0:
        raise InvariantViolationError(
            f"zero-duration event absorbs bank {net.ids[absorbed[0]]} ({_where(index, now)})"
        )

    statuses = list(state.statuses)
    for i in absorbed:
        statuses[i] = Status.ABSORBING
        debt[i] = zero
        paid[i] = net.total_debt[i]
    for i in emptied:
        statuses[i] = Status.ZERO
    movers = tuple(sorted(absorbed + emptied))

    if abs(total(cash) - net.total_cash) > 1000 * net.zero_rel * max(1, net.total_cash):
        raise InvariantViolationError(f"cash conservation violated ({_where(index, now)})")

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
        transitions=tuple(Transition(i, state.statuses[i], statuses[i]) for i in movers),
        rates=rates,
        state_after=after_state,
    )


@dataclass(frozen=True)
class FDTrace:
    """Audit trail of the fictitious-defaults iteration.

    `iterates[k]` is the payment vector after k applications of the clamped
    map, `default_sets[k]` the defaulting set it induces, and `solves` the
    (set, input, solution) triple of each restricted linear solve.
    """

    iterates: tuple[tuple[Scalar, ...], ...]
    default_sets: tuple[frozenset[int], ...]
    solves: tuple[tuple[tuple[int, ...], tuple[Scalar, ...], tuple[Scalar, ...]], ...]

    @property
    def outer_iterations(self) -> int:
        return len(self.iterates) - 1


def _greatest_fixed_point(
    net: FinancialNetwork,
    banks: frozenset[int],
    base: Sequence[Scalar],
    cap: Sequence[Scalar],
    held: Sequence[Scalar],
    tol: Scalar,
) -> FDTrace:
    """Greatest fixed point of x = min(cap, base + Q^T x) on `banks`, with
    every other bank held at its value in `held` (fictitious defaults).

    Starts with every bank in `banks` at its cap. Each round clamps, collects
    the banks that fall short of their cap by more than `tol`, and solves
    x = base + Q^T x exactly on that short set, the rest of `banks` at cap.
    The short set only grows, so this stops within |banks| rounds, and one
    factor, scaled over `banks`, serves every round by bordering the banks
    new to the set. It also gives each round's in-rates: the held part, Q^T
    applied to the start with the short set zeroed (the solve's input, less
    `base`), and the short set's part from its solve. It never holds a closed group
    fed from outside: the members' in-rates sum to their out-rates plus the
    feed, so one of them stays at its cap.

    Returns the trace: the iterates (the start, then each clamp), the short
    set of each clamp and the (set, input, solution) triple of each solve.
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
    everyone = range(net.n)
    factor.held_inflow(net, everyone, start, ())
    while True:
        received = factor.inflow(net, x)
        x = list(held)
        for i in banks:
            x[i] = min(base[i] + received[i], cap[i])
        short = frozenset(i for i in banks if x[i] < cap[i] - tol)
        iterates.append(tuple(x))
        short_sets.append(short)
        if short == previous:
            return FDTrace(tuple(iterates), tuple(short_sets), tuple(solves))
        if not previous <= short:
            raise NoConvergenceError("defaulting sets did not grow monotonically")
        previous = short

        fed = list(start)
        for i in short:
            fed[i] = zero
        solve_set = sorted(short)
        inflow = factor.held_inflow(net, everyone, fed, solve_set)
        e = [base[i] + h for i, h in zip(solve_set, inflow)]
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
    cashless = part.zero & net.active
    zero, one = zero_one(net.mode)
    held = [one if s is Status.POSITIVE else zero for s in part.statuses]
    trace = _greatest_fixed_point(
        net, cashless, [zero] * net.n, [one] * net.n, held, net.zero_rel
    )
    revealed = cashless - trace.default_sets[-1]
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
        event = step(net, state, k, factor)
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
