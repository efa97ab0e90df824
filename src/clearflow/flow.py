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
call to call, moving it by one sparse row when a bank leaves the held set,
in the one Q^T p kernel (`scalars.scatter`, on integers), and forms the
solved part from the integers of its solve, over each solved bank's row
scaled to integers by its own denominators; so no O(n m) `Fraction` sum is
built. In float mode `markov.in_rates` sums both afresh: the input in the
order of the held banks, the in-rates bank by bank in index order.

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

Between events every debt, payment and cash amount is linear in time, and
a bank's slope changes only when its own status changes or a debtor's rate
does. So a state keeps each bank's amounts at its anchor, the time its
rates last changed, and an event touches only the banks whose out-rate or
balance changed (`equilibrium_rates` reports them): it moves them to the
event with one kernel, `scalars.advance`, once per vector (debt, payment,
cash), and gives them new absolute hit times, when their debt or cash
reaches 0. t' runs to the least hit time, found by the float order keys of
the hit times (`scalars.order_key`) and settled exactly among the few
whose keys are close; only the banks near their hit are moved there and
tested. The cash is conserved as a running sum, moved by the change in
Σ balance at each re-anchor. A state's amounts are formed when it is
first read: its own anchors move to its time in place, by the routine that
moves them at an event (`_move`). A run that records no trajectory forms
only the last state; a recorded run forms each as it records it, so the
next step finds every bank anchored at its time. In rational mode the
kernels work on the integers of each `Fraction`. In float mode the
in-rates are summed afresh and every one counts as changed, so every bank
moves by t' at every event, bit for bit as the plain update x + r t did.
This module names no scalar type: exact arithmetic lives in `scalars` and
`markov`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from math import inf
from typing import Iterable, Sequence

from .errors import (
    InvariantViolationError,
    NoConvergenceError,
    NonTransientZeroGroupError,
    SingularSystemError,
    StalledError,
)
from .markov import ZeroGroupFactor, in_rates
from .network import FinancialNetwork, Partition, Status, initial_partition
from .scalars import (
    Scalar,
    advance,
    clamp,
    differences,
    order_keys,
    scalar_to_json,
    total,
    zero_one,
)


@dataclass(frozen=True)
class IntervalRates:
    """Out-rates, in-rates and their difference, constant on one interval."""

    out: tuple[Scalar, ...]
    inflow: tuple[Scalar, ...]
    balance: tuple[Scalar, ...]


class SystemState:
    """Snapshot between events: elapsed time, statuses, debts, cash, payments.

    Built from plain tuples, or by `step` from anchors (`_Anchors`): each
    bank's amounts at the time its rates last changed, which then move
    linearly at the rates of the state's last interval. The first read of
    `remaining_debt`, `cash` or `paid` moves every bank to the state's time,
    in place, and the anchors then hold the three tuples; so a run that
    records no trajectory never builds the vectors of the events it passes.
    Immutable, and equal, hashed and shown as a dataclass of its five
    fields."""

    __slots__ = ("time", "partition", "_anchors")

    def __init__(
        self,
        time: Scalar,
        partition: Partition,
        remaining_debt: Sequence[Scalar],
        cash: Sequence[Scalar],
        paid: Sequence[Scalar],
    ):
        debt = tuple(remaining_debt)
        anchors = _Anchors([time] * len(debt), debt, tuple(paid), tuple(cash), None, None, None)
        self._fill(time, partition, anchors)

    @classmethod
    def _anchored(cls, time: Scalar, partition: Partition, anchors: _Anchors) -> SystemState:
        state = object.__new__(cls)
        state._fill(time, partition, anchors)
        return state

    def _fill(self, time, partition, anchors) -> None:
        fill = object.__setattr__
        fill(self, "time", time)
        fill(self, "partition", partition)
        fill(self, "_anchors", anchors)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _formed(self) -> _Anchors:
        """The anchors, every bank moved to the state's time on the first read."""
        anchors = self._anchors
        if anchors.previous is not None:
            _move(anchors, range(len(anchors.since)), self.time)
            anchors.debt, anchors.paid, anchors.cash = (
                tuple(anchors.debt), tuple(anchors.paid), tuple(anchors.cash))
            anchors.previous = anchors.elapsed = None
        return anchors

    @property
    def remaining_debt(self) -> tuple[Scalar, ...]:
        return self._formed().debt

    @property
    def cash(self) -> tuple[Scalar, ...]:
        return self._formed().cash

    @property
    def paid(self) -> tuple[Scalar, ...]:
        return self._formed().paid

    @property
    def statuses(self) -> tuple[Status, ...]:
        return self.partition.statuses

    def _fields(self) -> tuple:
        return (self.time, self.partition, self.remaining_debt, self.cash, self.paid)

    def __repr__(self) -> str:
        return (
            f"SystemState(time={self.time!r}, partition={self.partition!r}, "
            f"remaining_debt={self.remaining_debt!r}, cash={self.cash!r}, paid={self.paid!r})"
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return SystemState, self._fields()


class _Anchors:
    """Each bank's debt, payment and cash at `since[i]`, the time its rates
    last changed, and the rates they move by from then on: those of the
    interval that led to the state (`rates`; None when nothing moves).

    A bank anchored at `previous`, the event before the state, moves by
    `elapsed`, that interval's length, itself, and any other by the time
    since its anchor (`_move`); so where every rate changes at every event,
    each amount is moved exactly as an event-by-event update would move it.
    A state's first read moves every bank to the state's time, leaves the
    three amounts as tuples and `previous` None, as a state built from
    tuples has them; that is the only change made to a state's anchors,
    and `step` moves a copy of them."""

    __slots__ = ("since", "debt", "paid", "cash", "rates", "previous", "elapsed")

    def __init__(self, since, debt, paid, cash, rates, previous, elapsed):
        self.since, self.debt, self.paid, self.cash = since, debt, paid, cash
        self.rates, self.previous, self.elapsed = rates, previous, elapsed


def _move(anchors: _Anchors, banks: Iterable[int], time: Scalar) -> None:
    """Move the amounts of `banks` to `time` at the anchors' rates and
    anchor them there, in place: `scalars.advance` once per vector and old
    anchor, by `elapsed` from `previous` and by the time since it from any
    other. The banks already anchored at `time` stay, and the rates are
    read only when some bank moves."""
    since, previous = anchors.since, anchors.previous
    moved: list[int] = []
    groups: dict[int, tuple[Scalar, list[int]]] = {}
    for i in banks:
        start = since[i]
        if start is previous:
            moved.append(i)
        elif start is time:
            continue
        elif (group := groups.get(id(start))) is None:
            groups[id(start)] = (start, [i])
        else:
            group[1].append(i)
        since[i] = time
    rates = anchors.rates
    for start, group in [(previous, moved), *groups.values()] if moved else groups.values():
        t = anchors.elapsed if start is previous else time - start
        advance(anchors.debt, rates.out, -t, group)
        advance(anchors.paid, rates.out, t, group)
        advance(anchors.cash, rates.balance, t, group)


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


def _network_factor(net: FinancialNetwork) -> ZeroGroupFactor:
    """A factor of (diag(b) - L^T)_B for zero groups and default sets B."""
    return ZeroGroupFactor(net.debts, net.total_debt, net.mode)


def balance_rates(net: FinancialNetwork, out: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """In-rates Q^T out: the columns of the proportion matrix applied to the
    out-rates, by `markov.in_rates` over every bank in index order.

    The clamped payment map, Picard and the final cash of a payment vector
    use it, with payments in place of rates.
    """
    return tuple(in_rates(net, range(net.n), out))


class _Carry:
    """What the flow carries with its factor from event to event.

    `equilibrium_rates` leaves its interval: the partition, the rates, the
    solve set and `changed`, the banks whose out-rate or in-rate differs
    from the interval before on this factor (None: any bank's may). `step`
    leaves the state it ended in and that state's hit times: for each bank
    whose debt (`due`) or cash (`dry`) can run out, a tuple (key, near, d,
    start). start is the bank's anchor, d the time from it to the amount's
    0 and key the order key of that hit time, start + d (see `_reach`);
    near is the time the amount comes within `zero_tol` of 0, with a
    margin, or key itself when `zero_tol` is 0. `cash_sums` holds the sum
    of the cash at the state's time and Σ balance_i, the rate at which it
    moves."""

    __slots__ = ("partition", "rates", "solve_set", "changed", "state", "due", "dry", "cash_sums")

    def __init__(self):
        self.partition = self.rates = self.changed = self.state = self.cash_sums = None
        self.solve_set: list[int] = []
        self.due: dict[int, tuple] = {}
        self.dry: dict[int, tuple] = {}


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

    The factor also carries the previous interval it gave (`_Carry`). The
    out-rates start from it, and only the banks that left or joined the
    positive set or the solve set get a new one; the in-rates that may
    have changed are the factor's `touched` receivers (all in float mode).
    The banks among these whose out-rate or in-rate did change are the
    interval's `changed` banks, and only they get a new balance
    (`scalars.differences`); every other balance is the previous one.
    """
    if factor is None:
        factor = _network_factor(net)
    carry = factor.carried
    if carry is None:
        carry = factor.carried = _Carry()
    zero, one = zero_one(net.mode)
    positive = partition.positive
    solve_set = sorted(partition.zero & net.active)
    last = carry.rates
    if last is None:
        out: list[Scalar] = [zero] * net.n
        for i in positive:
            out[i] = one
        candidates = None
    else:
        out = list(last.out)
        # the banks that joined or left the positive set or the solve set;
        # the solve gives the members theirs
        candidates = set(positive ^ carry.partition.positive)
        candidates.update(carry.solve_set)
        for i in candidates.difference(solve_set):
            out[i] = one if i in positive else zero
    # e_i = sum of q_ji over the positive banks j, in the order of
    # `partition.positive`
    e = factor.held_inflow(net, positive, out, solve_set)
    if solve_set:
        try:
            v = factor.solve(solve_set, e)
        except SingularSystemError as exc:
            carry.rates = None
            raise NonTransientZeroGroupError(
                f"zero group {solve_set} contains a closed subnetwork"
            ) from exc
        for k, i in enumerate(solve_set):
            out[i] = v[k]
    inflow = factor.inflow(net, out)
    if candidates is None or factor.touched is None:
        changed = None
        balance = [zero] * net.n
        differences(balance, inflow, out, range(net.n))
    else:
        before, received = last.out, last.inflow
        changed = sorted([
            i for i in candidates.union(solve_set, factor.touched)
            if not ((a := out[i]) is (b := before[i]) or a == b)
            or not ((a := inflow[i]) is (b := received[i]) or a == b)
        ])
        balance = list(last.balance)
        differences(balance, inflow, out, changed)
    rates = IntervalRates(out=tuple(out), inflow=tuple(inflow), balance=tuple(balance))
    carry.partition, carry.rates, carry.solve_set, carry.changed = (
        partition, rates, solve_set, changed)
    return rates


def _reach(key: float, slack: float = 2.0**-48) -> float:
    """A key above that of every time equal to one with this key: a hit
    time's key is the float sum of two keys when both are nonnegative,
    within a few units in the last place of the hit time, and else the key
    of the exact sum (`scalars.order_key`). A larger relative `slack`
    reaches further."""
    return key + abs(key) * slack + 2.0**-1000 if key > -inf else key


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

    The state holds each bank's amounts at its anchor (`SystemState`). The
    interval's changed banks are moved to the state's time with the old
    rates and anchored there, in a copy of the state's anchors; when the
    factor did not step to this state (a fresh one, or another run's), every
    bank is. A bank already anchored at the state's time stays, so a state
    built from tuples or already read moves nothing. Each changed bank then
    gets its hit times, absolute. A positive bank pays at rate exactly 1,
    so its debt runs out at τ + debt, with no rate test, and its cash at
    τ - cash / balance when its balance is below -ε (at τ when that is
    past); a zero-group bank whose rate is above ε runs out of debt at
    τ + debt / rate. Every other bank keeps its anchor and hit times. t'
    runs to the least hit time; an entry made at this event gives its own
    time to the hit, as the plain update did. The banks whose amount may be
    within `zero_tol` at t' (in rational mode: those whose hit time is t')
    are moved to the new time and tested: an amount within `zero_tol` of 0
    (in rational mode: exactly 0) makes a mover; a debt mover is absorbed,
    debt and payment set exactly, so every transition is P→Z, P→A or Z→A.
    Checks guard the movers: no tested amount ends below -`zero_tol`, none
    is absorbed when t' <= 0, and cash is conserved: the sum of the cash at
    the state's time moves by t' Σ balance, and Σ balance by the change of
    each re-anchored bank's balance (`scalars.total`, exact in rational
    mode). The zero group is solved by `factor` (see `equilibrium_rates`),
    which also carries the hit times and the cash sums from event to
    event."""
    if not state.partition.positive:
        raise StalledError(
            f"cannot step: no positive banks remain ({_where(index, state.time)})"
        )
    if factor is None:
        factor = _network_factor(net)
    carry = factor.carried
    book = state._anchors
    carried = carry is not None and carry.state is state and carry.rates is book.rates
    rates = equilibrium_rates(net, state.partition, factor)
    carry = factor.carried
    out, balance = rates.out, rates.balance
    eps, low = net.zero_rel, -net.zero_rel
    tol, neg_tol = net.zero_tol, -net.zero_tol
    zero, _ = zero_one(net.mode)
    now = state.time
    changed = carry.changed if carried and carry.changed is not None else range(net.n)
    anchors = _Anchors(
        list(book.since), list(book.debt), list(book.paid), list(book.cash),
        book.rates, book.previous, book.elapsed,
    )
    _move(anchors, changed, now)
    # the copy moves on at this interval's rates, from now
    anchors.rates, anchors.previous = rates, now
    if not carried:
        carry.due, carry.dry = {}, {}
        held, drift = total(anchors.cash), total(balance)
    elif carry.changed is None:
        held, drift = carry.cash_sums[0], total(balance)
    else:
        held, drift = carry.cash_sums
        drift += total([balance[i] for i in changed], [book.rates.balance[i] for i in changed])

    due, dry = carry.due, carry.dry
    debt, cash = anchors.debt, anchors.cash
    statuses = state.statuses
    # a hit's key is the float sum of the keys of now and of the time d to
    # it when both are nonnegative (see `_reach`); its near time matters
    # only when zero_tol is not 0, in float mode, where each key is exact
    margin = 4 * tol if tol else tol
    key_of = order_keys(net.mode)
    knot = key_of(now)
    # a sum of keys below floor had a negative part: use the exact sum's key
    floor = knot if knot >= 0 else inf
    positive_status, zero_status = Status.POSITIVE, Status.ZERO
    for i in changed:
        status = statuses[i]
        if status is positive_status:
            d = debt[i]
            if (key := knot + key_of(d)) < floor:
                key = key_of(now + d)
            due[i] = (key, now + (d - margin) if tol else key, d, now)
            rate = balance[i]
            if rate < low:
                d = -cash[i] / rate
                d = d if d > 0 else zero
                if (key := knot + key_of(d)) < floor:
                    key = key_of(now + d)
                dry[i] = (key, now + (cash[i] - margin) / -rate if tol else key, d, now)
            elif dry:
                dry.pop(i, None)
        elif status is zero_status and (rate := out[i]) > eps:
            d = debt[i] / rate
            if (key := knot + key_of(d)) < floor:
                key = key_of(now + d)
            due[i] = (key, now + (debt[i] - margin) / rate if tol else key, d, now)
        else:
            due.pop(i, None)
    # only the entries whose near time is within reach of the least key
    # can hold the least hit time or a mover. Among those whose key is in
    # reach, t' is the least time to the hit: an entry made now gives its
    # own d, any other its hit time less now. Those whose near time t'
    # reaches are moved there and tested.
    first = min(due.values())[0]
    if dry:
        first = min(first, min(dry.values())[0])
    reach = _reach(first, 2.0**-46)
    due_near = [i for i, v in due.items() if v[1] <= reach]
    dry_near = [i for i, v in dry.items() if v[1] <= reach]
    reach = _reach(first)
    t_prime = min([
        d if start is now else start + d - now
        for key, _, d, start in [due[i] for i in due_near] + [dry[i] for i in dry_near]
        if key <= reach
    ])
    after = now + t_prime
    limit = _reach(key_of(after))
    paying = sorted([i for i in due_near if due[i][1] <= limit])
    draining = sorted([i for i in dry_near if dry[i][1] <= limit])
    anchors.elapsed = t_prime
    _move(anchors, set(paying).union(draining), after)
    absorbed = []
    for i in paying:
        if debt[i] <= tol:
            if debt[i] < neg_tol:
                raise InvariantViolationError(
                    f"negative debt {debt[i]} at bank {net.ids[i]} ({_where(index, after)})"
                )
            absorbed.append(i)
    emptied = []
    for i in draining:
        if cash[i] <= tol:
            if cash[i] < neg_tol:
                raise InvariantViolationError(
                    f"negative cash {cash[i]} at bank {net.ids[i]} ({_where(index, after)})"
                )
            if i not in absorbed:
                emptied.append(i)
    if absorbed and t_prime <= 0:
        raise InvariantViolationError(
            f"zero-duration event absorbs bank {net.ids[absorbed[0]]} ({_where(index, after)})"
        )

    for i in absorbed:
        debt[i] = zero
        anchors.paid[i] = net.total_debt[i]
    movers = tuple(sorted(absorbed + emptied))
    for i in movers:
        # no longer positive: its cash cannot run out
        dry.pop(i, None)

    if drift:
        held += drift * t_prime
    if abs(held - net.total_cash) > 1000 * net.zero_rel * max(1, net.total_cash):
        raise InvariantViolationError(f"cash conservation violated ({_where(index, after)})")

    after_state = SystemState._anchored(after, state.partition.moved(absorbed, emptied), anchors)
    carry.state, carry.cash_sums = after_state, (held, drift)
    return FlowEvent(
        index=index,
        time=after,
        movers=movers,
        transitions=tuple(
            Transition(i, statuses[i], after_state.statuses[i]) for i in movers
        ),
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

    Starts with every bank in `banks` at its cap. Each round clamps
    (`scalars.clamp`), collects the banks that fall short of their cap by
    more than `tol` (the thresholds cap - tol are formed once, and not at
    all when `tol` is 0), and solves
    x = base + Q^T x exactly on that short set, the rest of `banks` at cap.
    The short set only grows, so this stops within |banks| rounds, and one
    factor serves every round by bordering the banks new to the set; it
    reads only the rows of the banks that join. It also gives each round's
    in-rates: the held part, Q^T applied to the start with the short set
    zeroed (the solve's input, less `base`), and the short set's part from
    its solve. It never holds a closed group
    fed from outside: the members' in-rates sum to their out-rates plus the
    feed, so one of them stays at its cap.

    Returns the trace: the iterates (the start, then each clamp), the short
    set of each clamp and the (set, input, solution) triple of each solve.
    """
    zero, _ = zero_one(net.mode)
    start = list(held)
    for i in banks:
        start[i] = cap[i]
    # a bank is short when its clamp is below cap - tol; with tol 0, below its cap
    floor = {i: cap[i] - tol for i in banks} if tol else None
    iterates = [tuple(start)]
    short_sets: list[frozenset[int]] = []
    solves = []
    x = start
    previous: frozenset[int] = frozenset()
    factor = _network_factor(net)
    everyone = range(net.n)
    factor.held_inflow(net, everyone, start, ())
    while True:
        received = factor.inflow(net, x)
        x = list(held)
        below = clamp(x, base, received, cap, banks)
        short = frozenset(below if floor is None else [i for i in below if x[i] < floor[i]])
        iterates.append(tuple(x))
        short_sets.append(short)
        if short == previous:
            return FDTrace(tuple(iterates), tuple(short_sets), tuple(solves))
        if not previous <= short:
            raise NoConvergenceError(
                f"defaulting sets did not grow monotonically (round {len(short_sets)})"
            )
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
            # a recorded state is read (trace prints its debts and cash): form
            # it now, so the next step finds every bank anchored at its time
            state.cash
            events.append(event)
        if k >= 2 * net.n:
            raise InvariantViolationError(f"event count exceeded 2n ({_where(k, state.time)})")
        k += 1

    max_debt = max(net.total_debt, default=zero)
    if state.time > max_debt + net.zero_tol:
        raise InvariantViolationError(
            f"total time {state.time} exceeds the largest debt {max_debt} "
            f"({_where(k - 1, state.time)})"
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
