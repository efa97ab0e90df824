"""Flow engine: rates, events, stepping, time-zero normalization, full runs."""

from __future__ import annotations

import dataclasses
import pickle
import random
import re
from fractions import Fraction as F

import pytest

import clearflow as cf
from clearflow.errors import (
    InvariantViolationError,
    NoConvergenceError,
    NonTransientZeroGroupError,
    SingularSystemError,
    StalledError,
)
from clearflow.markov import ZeroGroupFactor
from clearflow.scalars import zero_one
from conftest import statuses_of, swampy_network, wide_magnitude_network, with_cash
from oracles import eager_run_flow, probe_revealed


def make_partition(pattern: str) -> cf.Partition:
    lookup = {"p": cf.Status.POSITIVE, "z": cf.Status.ZERO, "a": cf.Status.ABSORBING}
    return cf.Partition(tuple(lookup[ch] for ch in pattern))


def initial_state(net, partition=None) -> cf.SystemState:
    part = partition if partition is not None else cf.initial_partition(net)
    zero = F(0) if net.mode == cf.RATIONAL else 0.0
    return cf.SystemState(
        time=zero,
        partition=part,
        remaining_debt=net.total_debt,
        cash=net.cash,
        paid=(zero,) * net.n,
    )


class TestEquilibriumRates:
    def test_two_zero_banks(self, net_1a):
        rates = cf.equilibrium_rates(net_1a, make_partition("ppzza"))
        assert rates.out == (1, 1, F(1, 2), F(1, 2), 0)

    def test_three_zero_banks(self, net_1a):
        rates = cf.equilibrium_rates(net_1a, make_partition("pzzza"))
        assert rates.out == (1, F(2, 3), F(1, 3), F(1, 3), 0)

    def test_empty_zero_group_is_positive_indicator(self, net_1a):
        rates = cf.equilibrium_rates(net_1a, make_partition("ppppa"))
        assert rates.out == (1, 1, 1, 1, 0)

    def test_zero_balance_on_zero_group(self, net_1a):
        rates = cf.equilibrium_rates(net_1a, make_partition("ppzza"))
        assert rates.balance[2] == 0 and rates.balance[3] == 0

    def test_balances_sum_to_zero(self, net_1a):
        for pattern in ("ppppa", "ppzza", "pzzza"):
            rates = cf.equilibrium_rates(net_1a, make_partition(pattern))
            assert sum(rates.balance) == 0

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_swamp_in_zero_group_raises(self, mode):
        # bank 0 pays into the closed group {1, 2}, so the group is active
        net = cf.build_network([[0, 1, 0], [0, 0, 2], [0, 2, 0]], [1, 0, 0], mode=mode)
        message = re.escape("zero group [1, 2] contains a closed subnetwork")
        with pytest.raises(NonTransientZeroGroupError, match=message):
            cf.equilibrium_rates(net, make_partition("pzz"))

    def test_pinned_banks_are_excluded(self, net_1c):
        # the swamp {1, 2, 3} is nonactive: it keeps rate 0 and is not solved
        rates = cf.equilibrium_rates(net_1c, make_partition("pzzza"))
        assert rates.out == (1, 0, 0, 0, 0)


class TestBalanceRates:
    def test_interval_zero(self, net_1a):
        out = (1, 1, 1, 1, 0)
        inflow = cf.balance_rates(net_1a, out)
        balance = tuple(x - y for x, y in zip(inflow, out))
        assert balance[:4] == (-1, F(1, 3), F(-1, 2), 0)
        assert balance[4] == F(7, 6)

    def test_interval_two(self, net_1a):
        out = (1, 1, F(1, 2), F(1, 2), 0)
        inflow = cf.balance_rates(net_1a, out)
        balance = tuple(x - y for x, y in zip(inflow, out))
        assert balance[:4] == (-1, F(-1, 6), 0, 0)

    def test_zero_rates(self, net_1a):
        out = (0, 0, 0, 0, 0)
        inflow = cf.balance_rates(net_1a, out)
        balance = tuple(x - y for x, y in zip(inflow, out))
        assert inflow == (0, 0, 0, 0, 0)
        assert balance == (0, 0, 0, 0, 0)


class TestNextEvent:
    def test_first_event_is_bank_three_cash(self, net_1a):
        event = cf.step(net_1a, initial_state(net_1a))
        assert event.time == 2 * F(1, 36)
        assert event.movers == (2,)

    def test_event_from_interval_two(self, net_1a):
        eps = F(1, 36)
        state = initial_state(net_1a)
        for k in range(2):
            state = cf.step(net_1a, state, index=k).state_after
        assert state.time == 4 * eps
        assert statuses_of(state.partition) == "ppzza"
        event = cf.step(net_1a, state)
        assert event.time - state.time == 14 * eps
        assert event.movers == (1,)
        assert event.time == 18 * eps

    def test_single_funded_bank(self):
        net = cf.build_network([[0, 1], [0, 0]], [2, 0])
        event = cf.step(net, initial_state(net))
        assert event.time == 1
        assert event.movers == (0,)

    def test_stalled_when_no_candidates(self, net_1a):
        state = cf.SystemState(
            time=F(0),
            partition=make_partition("aaaaa"),
            remaining_debt=(F(0),) * 5,
            cash=net_1a.cash,
            paid=net_1a.total_debt,
        )
        with pytest.raises(StalledError):
            cf.step(net_1a, state)


class TestStep:
    def test_first_step_reclassifies_bank_three(self, net_1a):
        event = cf.step(net_1a, initial_state(net_1a))
        assert event.time == F(1, 18)
        assert event.movers == (2,)
        assert statuses_of(event.state_after.partition) == "ppzpa"
        only = event.transitions[0]
        assert (only.before, only.after) == (cf.Status.POSITIVE, cf.Status.ZERO)

    def test_last_step_absorbs_on_simultaneous_zero(self, net_1a):
        result = cf.run_flow(net_1a)
        last = result.trajectory[-1]
        assert last.time == 1
        assert last.transitions[0].bank == 0
        assert last.transitions[0].after is cf.Status.ABSORBING
        assert result.final_cash[0] == 0

    def test_trivial_two_bank(self):
        net = cf.build_network([[0, 1], [0, 0]], [2, 0])
        event = cf.step(net, initial_state(net))
        assert event.time == 1
        assert event.transitions[0].after is cf.Status.ABSORBING
        assert event.state_after.cash[0] == 1

    def test_float_debt_snapped_to_zero_is_absorbed_at_once(self):
        # bank 2's debt runs out 5e-12 after bank 1's: not an exact tie, but
        # its debt at that time is within zero_tol, so it must be absorbed
        # now and not left for a zero-duration event
        net = cf.build_network([[0, 0, 1], [0, 0, 1], [0, 0, 0]], [10, 10, 0], mode=cf.FLOAT)
        state = cf.SystemState(
            time=0.0,
            partition=make_partition("ppa"),
            remaining_debt=(1.0, 1.0 + 5e-12, 0.0),
            cash=net.cash,
            paid=(0.0, 0.0, 0.0),
        )
        event = cf.step(net, state)
        assert event.time == 1.0
        assert event.movers == (0, 1)
        assert statuses_of(event.state_after.partition) == "aaa"

    def test_invariant_errors_name_bank_event_and_time(self):
        net = cf.build_network([[0, 1], [0, 0]], [1, 0], mode=cf.FLOAT)
        state = cf.SystemState(
            time=0.5,
            partition=make_partition("pa"),
            remaining_debt=net.total_debt,
            cash=(-1.0, 0.0),
            paid=(0.0, 0.0),
        )
        with pytest.raises(InvariantViolationError, match=r"bank 1 \(event 3, time 0\.5\)"):
            cf.step(net, state, index=3)

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_cash_conservation_is_checked_at_every_event(self, mode):
        # the state holds 3 in cash where the network holds 2
        net = cf.build_network([[0, 1], [0, 0]], [1, 1], mode=mode)
        scalar = F if mode == cf.RATIONAL else float
        state = cf.SystemState(
            time=scalar(0),
            partition=make_partition("pa"),
            remaining_debt=net.total_debt,
            cash=(scalar(2), scalar(1)),
            paid=(scalar(0), scalar(0)),
        )
        with pytest.raises(
            InvariantViolationError, match=r"^cash conservation violated \(event 3, time 1"
        ):
            cf.step(net, state, index=3)

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_zero_duration_absorption_is_rejected(self, mode):
        # bank 1 is positive with no debt left, so it would be absorbed at
        # t' = 0: no trajectory reaches that state
        net = cf.build_network([[0, 1], [0, 0]], [1, 0], mode=mode)
        zero = F(0) if mode == cf.RATIONAL else 0.0
        state = cf.SystemState(
            time=zero,
            partition=make_partition("pa"),
            remaining_debt=(zero, zero),
            cash=net.cash,
            paid=(zero, zero),
        )
        with pytest.raises(InvariantViolationError, match=r"bank 1 .*\(event 2, time 0"):
            cf.step(net, state, index=2)

    def test_stall_error_names_event_and_time(self, net_1a):
        state = initial_state(net_1a, make_partition("zzzza"))
        with pytest.raises(StalledError, match=r"\(event 4, time 0\)"):
            cf.step(net_1a, state, index=4)

    @pytest.mark.parametrize("seed", range(3))
    def test_step_alone_matches_the_recorded_event(self, seed):
        # on its own, step builds a fresh factor; run_flow carries one
        net = cf.generate_network(seed, 20, 0.3, "1/4")
        state = initial_state(net, cf.big_bang_partition(net)[0])
        for event in cf.run_flow(net).trajectory:
            assert repr(cf.step(net, state, index=event.index)) == repr(event)
            state = event.state_after
        # carried steps whose states nobody reads keep each bank's amounts
        # where its rates last changed, often before the previous event; a
        # fresh step moves every bank from there
        older = 0
        for swamp_seed in range(5 * seed, 5 * seed + 5):
            net = swampy_network(swamp_seed)
            carried = unread_steps(net)
            for event in carried:
                state = event.state_after
                anchors = state._anchors
                older += sum(1 for t in anchors.since if t is not state.time
                             and t is not anchors.previous)
            state = initial_state(net, cf.big_bang_partition(net)[0])
            for event in carried:
                assert repr(cf.step(net, state, index=event.index)) == repr(event)
                state = event.state_after
        assert older > 0

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_run_flow_steps_through_the_public_names(self, monkeypatch, mode):
        # each event is one call of flow.step and one of flow.equilibrium_rates,
        # looked up on the module, so a wrapper placed there sees them all
        calls = {"step": 0, "equilibrium_rates": 0}
        for name in calls:
            original = getattr(cf.flow, name)

            def counted(*args, name=name, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cf.flow, name, counted)
        for seed in range(4):
            for name in calls:
                calls[name] = 0
            net = cf.generate_network(seed, 16, 0.3, "1/4", mode=mode)
            events = len(cf.run_flow(net).trajectory)
            assert events > 0
            assert calls == {"step": events, "equilibrium_rates": events}


def unread_steps(net) -> list[cf.FlowEvent]:
    """The events of a run stepped on one carried factor, reading no state:
    each state keeps its amounts where its banks' rates last changed."""
    state = initial_state(net, cf.big_bang_partition(net)[0])
    factor = ZeroGroupFactor(net.debts, net.total_debt, net.mode)
    events = []
    while state.partition.positive:
        events.append(cf.step(net, state, len(events), factor))
        state = events[-1].state_after
    return events


def moved_amounts(monkeypatch) -> list[int]:
    """Count the amounts the event kernel moves: a one-item list, the banks
    with a nonzero rate over every `scalars.advance` call of the flow."""
    count = [0]
    advance = cf.flow.advance

    def counted(values, rates, t, banks):
        banks = list(banks)
        count[0] += sum(1 for i in banks if rates[i])
        advance(values, rates, t, banks)

    monkeypatch.setattr(cf.flow, "advance", counted)
    return count


def changed_banks(trajectory) -> int:
    """Σ over the events of the banks whose out-rate or balance differs from
    the interval before (the first interval's: from none)."""
    total = 0
    before = None
    for event in trajectory:
        out, balance = event.rates.out, event.rates.balance
        if before is None:
            total += sum(1 for r, x in zip(out, balance) if r or x)
        else:
            total += sum(
                1 for r, x, r0, x0 in zip(out, balance, *before) if r != r0 or x != x0
            )
        before = (out, balance)
    return total


def hexed(trajectory):
    """Every float of a trajectory as `float.hex`, beside its other fields."""

    def h(values):
        return tuple(float.hex(x) for x in values)

    return [
        (
            float.hex(e.time), e.movers, e.transitions, h(e.rates.out), h(e.rates.inflow),
            h(e.rates.balance), e.state_after.partition, h(e.state_after.remaining_debt),
            h(e.state_after.cash), h(e.state_after.paid),
        )
        for e in trajectory
    ]


class TestAnchoredAmounts:
    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_an_event_moves_only_the_banks_whose_rates_changed(self, monkeypatch, seed):
        # a run that records nothing moves each bank's amounts when its
        # out-rate or balance changes, or when it is tested at a hit time,
        # and once more for the result; not every moving bank at every event
        net = swampy_network(seed)
        trajectory = cf.run_flow(net).trajectory
        count = moved_amounts(monkeypatch)
        result = cf.run_flow(net, record_trajectory=False)
        assert result.payments == trajectory[-1].state_after.paid
        assert count[0] <= 3 * changed_banks(trajectory) + 3 * net.n
        moving = sum(
            2 * sum(1 for r in e.rates.out if r) + sum(1 for x in e.rates.balance if x)
            for e in trajectory
        )
        assert count[0] < moving

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_equilibrium_rates_reports_exactly_the_changed_banks(self, mode):
        # on a carried factor each interval names the banks whose out-rate
        # or balance differs from the interval before; float mode, which
        # sums every in-rate afresh, names none and so every bank
        for seed in range(10):
            net = swampy_network(seed, mode=mode)
            factor = ZeroGroupFactor(net.debts, net.total_debt, net.mode)
            partitions = [cf.big_bang_partition(net)[0]]
            partitions += [e.state_after.partition for e in cf.run_flow(net).trajectory[:-1]]
            before = None
            for partition in partitions:
                rates = cf.equilibrium_rates(net, partition, factor)
                if mode == cf.FLOAT or before is None:
                    assert factor.carried.changed is None
                else:
                    assert factor.carried.changed == [
                        i for i in range(net.n)
                        if rates.out[i] != before.out[i] or rates.balance[i] != before.balance[i]
                    ]
                before = rates

    @pytest.mark.parametrize("seed", range(30))
    def test_rational_run_matches_eager_bookkeeping_on_swamp_networks(self, seed):
        net = swampy_network(seed)
        assert repr(cf.run_flow(net)) == repr(eager_run_flow(net))

    @pytest.mark.parametrize("seed", range(20))
    def test_rational_run_matches_eager_bookkeeping_on_cascades(self, seed):
        net = cf.generate_network(seed, 20, 0.3, "1/4")
        assert repr(cf.run_flow(net)) == repr(eager_run_flow(net))

    def test_rational_run_matches_eager_bookkeeping_after_a_big_bang(self, net_1b):
        # bank 2 is revealed positive at time zero
        assert cf.big_bang_partition(net_1b)[1]
        assert repr(cf.run_flow(net_1b)) == repr(eager_run_flow(net_1b))

    @pytest.mark.parametrize("seed", range(6))
    def test_float_run_is_bit_equal_to_eager_bookkeeping(self, seed):
        net = cf.generate_network(seed, 64, 0.3, "1/4", mode=cf.FLOAT)
        run, eager = cf.run_flow(net), eager_run_flow(net)
        assert hexed(run.trajectory) == hexed(eager.trajectory)
        assert [float.hex(x) for x in run.payments] == [float.hex(x) for x in eager.payments]

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_running_cash_sum_catches_a_balance_that_breaks_conservation(
        self, monkeypatch, mode
    ):
        # from the third interval on, one changed bank's balance is off by
        # 1/2: the carried sum of the cash must see it at that event
        net = cf.generate_network(1, 20, 0.3, "1/4", mode=mode)
        assert len(cf.run_flow(net).trajectory) > 3
        _, one = zero_one(mode)
        calls = []
        differences = cf.flow.differences

        def skewed(values, minuends, subtrahends, banks):
            banks = list(banks)
            differences(values, minuends, subtrahends, banks)
            calls.append(banks)
            if len(calls) == 3:
                values[banks[0]] += one / 2

        monkeypatch.setattr(cf.flow, "differences", skewed)
        message = r"^cash conservation violated \(event 2,"
        with pytest.raises(InvariantViolationError, match=message):
            cf.run_flow(net, record_trajectory=False)

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_a_run_that_records_nothing_ends_as_a_recorded_one(self, mode):
        # a recorded run forms every state as it goes, the other only the
        # last one, from amounts anchored at many different events
        for seed in range(10):
            net = swampy_network(seed, mode=mode)
            recorded = cf.run_flow(net)
            alone = cf.run_flow(net, record_trajectory=False)
            assert alone.trajectory == ()
            assert repr(dataclasses.replace(recorded, trajectory=())) == repr(alone)


#: the fields of a state's anchors that a later read or step could change
ANCHORED_FIELDS = ("since", "debt", "paid", "cash")


class TestSystemState:
    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_a_stepped_state_equals_one_built_from_its_tuples(self, mode):
        # equality, hash and repr see the five fields, not how they are held
        net = swampy_network(1, mode=mode)
        recorded = cf.run_flow(net).trajectory
        for event, kept in zip(unread_steps(net), recorded, strict=True):
            s = kept.state_after
            built = cf.SystemState(s.time, s.partition, s.remaining_debt, s.cash, s.paid)
            stepped = event.state_after
            assert stepped == built and built == stepped
            assert hash(stepped) == hash(built)
            assert repr(stepped) == repr(built)
            assert stepped != cf.SystemState(s.time, s.partition, s.remaining_debt, s.cash,
                                             s.cash)
            assert stepped != repr(stepped)

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_a_pickled_state_is_equal(self, mode):
        net = swampy_network(2, mode=mode)
        states = [initial_state(net)] + [e.state_after for e in unread_steps(net)]
        for state in states:
            copy = pickle.loads(pickle.dumps(state))
            assert type(copy) is cf.SystemState
            assert copy == state and repr(copy) == repr(state)

    @pytest.mark.parametrize(
        "name", ["time", "partition", "remaining_debt", "cash", "paid", "_anchors"]
    )
    def test_assigning_a_field_raises(self, net_1a, name):
        state = initial_state(net_1a)
        stepped = cf.step(net_1a, state).state_after
        before = repr(stepped)
        for s in (state, stepped):
            with pytest.raises(dataclasses.FrozenInstanceError, match=name):
                setattr(s, name, None)
        assert repr(stepped) == before

    def test_a_formed_state_holds_one_copy_of_its_amounts(self, net_1a):
        stepped = cf.step(net_1a, initial_state(net_1a)).state_after
        anchors = stepped._anchors
        assert stepped.cash is stepped.cash is anchors.cash
        assert stepped.remaining_debt is anchors.debt and stepped.paid is anchors.paid

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_an_old_state_read_after_later_steps_gives_its_values(self, mode):
        # read newest first, so each state is read after its successors
        # were stepped from it
        for seed in range(5):
            net = swampy_network(seed, mode=mode)
            recorded = cf.run_flow(net).trajectory
            events = unread_steps(net)
            assert len(events) == len(recorded)
            for event, kept in reversed(list(zip(events, recorded))):
                assert repr(event.state_after) == repr(kept.state_after)

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_forming_a_state_leaves_its_successor_unchanged(self, mode):
        for seed in range(5):
            net = swampy_network(seed, mode=mode)
            recorded = cf.run_flow(net).trajectory
            states = [event.state_after for event in unread_steps(net)]
            for state, successor in zip(states, states[1:]):
                anchors = successor._anchors
                kept = [list(getattr(anchors, name)) for name in ANCHORED_FIELDS]
                state.cash
                seen = [list(getattr(anchors, name)) for name in ANCHORED_FIELDS]
                assert all(
                    x is y for old, new in zip(kept, seen) for x, y in zip(old, new, strict=True)
                )
            assert [repr(s) for s in states] == [repr(e.state_after) for e in recorded]


class TestGuards:
    """Guards that no valid run reaches, forced by a patched routine."""

    def test_a_run_past_2n_events_names_the_event_and_time(self, monkeypatch, net_1a):
        # a step that leaves the state where it was never ends the run
        step = cf.flow.step

        def stuck(net, state, index=0, factor=None):
            return dataclasses.replace(step(net, state, index, factor), state_after=state)

        monkeypatch.setattr(cf.flow, "step", stuck)
        with pytest.raises(
            InvariantViolationError, match=r"^event count exceeded 2n \(event 10, time 0\)$"
        ):
            cf.run_flow(net_1a)

    @pytest.mark.parametrize("record", [True, False])
    def test_a_late_end_names_the_last_event_and_time(self, monkeypatch, net_1a, record):
        # the last state is moved 100 past its time
        step = cf.flow.step

        def late(net, state, index=0, factor=None):
            event = step(net, state, index, factor)
            s = event.state_after
            if s.partition.positive:
                return event
            moved = cf.SystemState(s.time + 100, s.partition, s.remaining_debt, s.cash, s.paid)
            return dataclasses.replace(event, state_after=moved)

        last = cf.run_flow(net_1a).trajectory[-1]
        monkeypatch.setattr(cf.flow, "step", late)
        end = last.time + 100
        message = (
            rf"^total time {end} exceeds the largest debt {max(net_1a.total_debt)} "
            rf"\(event {last.index}, time {end}\)$"
        )
        with pytest.raises(InvariantViolationError, match=message):
            cf.run_flow(net_1a, record_trajectory=record)

    def test_fd_names_the_round_whose_set_shrank(self, monkeypatch, net_1a):
        # fd's sets on example 1a are {2, 3} then {1, 2, 3}; the second
        # clamp is made to find bank 3 short alone
        clamp = cf.flow.clamp
        calls = []

        def shrinking(x, base, received, cap, banks):
            below = clamp(x, base, received, cap, banks)
            calls.append(below)
            return [3] if len(calls) == 2 else below

        monkeypatch.setattr(cf.flow, "clamp", shrinking)
        with pytest.raises(
            NoConvergenceError,
            match=r"^defaulting sets did not grow monotonically \(round 2\)$",
        ):
            cf.fictitious_defaults(net_1a)

    def test_fd_names_a_set_that_is_not_transient(self, monkeypatch, net_1a):
        def singular(self, banks, rhs):
            raise SingularSystemError("forced")

        monkeypatch.setattr(ZeroGroupFactor, "solve", singular)
        with pytest.raises(
            SingularSystemError, match=r"^defaulting set \[2, 3\] is not transient: forced$"
        ) as caught:
            cf.fictitious_defaults(net_1a)
        assert str(caught.value.__cause__) == "forced"


class TestBigBang:
    def test_example_1b_reveals_bank_two(self, net_1b):
        partition, revealed = cf.big_bang_partition(net_1b)
        assert revealed == frozenset({1})
        assert statuses_of(partition) == "ppzza"

    def test_example_1b_first_solve_exceeds_capacity(self, net_1b):
        # the raw equilibrium run over {2,3,4} puts bank 2 above unit rate,
        # which is what forces the modified partition
        sub = cf.restrict(net_1b.relative, [1, 2, 3])
        v = cf.fundamental_solve(sub, [F(2, 3), 0, 0])
        assert v == [F(4, 3), F(2, 3), F(2, 3)]
        assert v[0] >= 1

    def test_no_zero_group_is_identity(self, net_1a):
        partition, revealed = cf.big_bang_partition(net_1a)
        assert revealed == frozenset()
        assert partition == cf.initial_partition(net_1a)

    def test_swamp_banks_never_revealed(self, net_1c):
        partition, revealed = cf.big_bang_partition(net_1c)
        assert revealed == frozenset()
        assert statuses_of(partition) == "pzzza"

    def test_closed_active_cycle_is_revealed(self):
        # bank 0 feeds a two-bank cycle that owes only itself; the cycle
        # cannot run balanced because inflow keeps arriving from outside
        net = cf.build_network(
            [[0, 1, 0], [0, 0, 2], [0, 3, 0]], [1, 0, 0]
        )
        partition, revealed = cf.big_bang_partition(net)
        assert revealed == frozenset({1, 2})
        result = cf.run_flow(net)
        assert cf.verify_clearing(net, result.payments) == 0

    def test_boundary_unit_rate_is_revealed(self):
        # bank 1's only creditor pays at unit rate, so its balanced rate is
        # exactly one: revealed positive, consistent with the seed-cash probe
        net = cf.build_network([[0, 1], [2, 0]], [1, 0])
        partition, revealed = cf.big_bang_partition(net)
        assert revealed == frozenset({1})
        result = cf.run_flow(net)
        assert result.payments == (1, 1)
        assert cf.verify_clearing(net, result.payments) == 0


    def test_closed_group_partly_revealed(self):
        # the cashless group {1, 2, 3} owes only itself, and bank 0 feeds
        # bank 2 at rate 1/10: bank 1 receives 1 + 1/10 and stays at unit
        # rate, while banks 2 and 3 settle at 6/10 and 5/10
        net = cf.build_network(
            [[0, 0, 1, 0, 9], [0, 0, 1, 1, 0], [0, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0] * 5],
            [1, 0, 0, 0, 0],
        )
        partition, revealed = cf.big_bang_partition(net)
        assert revealed == frozenset({1}) == probe_revealed(net)
        assert statuses_of(partition) == "ppzza"
        rates = cf.equilibrium_rates(net, partition)
        assert rates.out == (1, 1, F(6, 10), F(5, 10), 0)
        assert cf.verify_clearing(net, cf.run_flow(net).payments) == 0

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_unit_in_rate_revealed_despite_rounding(self, mode):
        # bank 3's in-rate is 7/10 + 2/10 + 1/10 = 1, which sums to
        # 0.9999999999999999 in floats: a rate within ε of 1 stays at 1
        net = cf.build_network(
            [[0, 0, 0, 7, 3], [0, 0, 0, 2, 8], [0, 0, 0, 1, 9], [0, 0, 0, 0, 5], [0] * 5],
            [20, 20, 20, 0, 0],
            mode=mode,
        )
        assert cf.big_bang_partition(net)[1] == frozenset({3})

    def test_float_reveal_matches_rational(self):
        # the 500 networks of acceptance criterion 9
        rng = random.Random(9)
        for k in range(500):
            n = 2 + k % 7
            net = cf.generate_network(seed=20_000 + k, n=n, density=0.55, cash_scale=1)
            cash = list(net.cash)
            for i in rng.sample(range(n), 1 + rng.randrange(n)):
                cash[i] = F(0)
            net = with_cash(net, cash)
            approx = cf.convert_network(net, cf.FLOAT)
            assert cf.big_bang_partition(approx)[1] == cf.big_bang_partition(net)[1], k

    def test_matches_probe_on_swamp_networks(self):
        revealed = [cf.big_bang_partition(swampy_network(seed))[1] for seed in range(60)]
        for seed, found in enumerate(revealed):
            assert found == probe_revealed(swampy_network(seed)), seed
        assert sum(1 for found in revealed if found) > 45


class TestRunFlow:
    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_events_solve_nothing_from_scratch(self, mode, monkeypatch):
        # neither the big-bang fixed point nor any event starts a factor
        # afresh: a run builds two, the big bang's and the flow's, carries
        # each across its rounds and events, and never resets either
        net = cf.generate_network(1, 20, 0.3, "1/4", mode=mode)
        built, resets = [], []
        init, reset = ZeroGroupFactor.__init__, ZeroGroupFactor._reset

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counted_reset(self):
            resets.append(self)
            reset(self)

        monkeypatch.setattr(ZeroGroupFactor, "__init__", counted_init)
        monkeypatch.setattr(ZeroGroupFactor, "_reset", counted_reset)
        result = cf.run_flow(net)
        zero_groups = [e for e in result.trajectory if e.state_after.partition.zero & net.active]
        assert len(zero_groups) > 10
        assert len(built) == 2
        assert resets == []

    def test_example_1a_exact(self, net_1a):
        eps = F(1, 36)
        result = cf.run_flow(net_1a)
        assert result.payments == (1, F(2, 3) + 6 * eps, F(1, 3) + 4 * eps, F(1, 3) + 5 * eps, 0)
        assert result.total_time == 1
        assert [e.time for e in result.trajectory] == [2 * eps, 4 * eps, 18 * eps, 1]
        assert result.defaults == frozenset({1, 2, 3})
        assert result.final_cash == (0, 0, 0, 0, 1 + 3 * eps)

    def test_example_1a_partition_sequence(self, net_1a):
        result = cf.run_flow(net_1a)
        seen = [statuses_of(e.state_after.partition) for e in result.trajectory]
        assert seen == ["ppzpa", "ppzza", "pzzza", "azzza"]

    def test_example_1a_boundary_grouped_movers(self, net_1a_boundary):
        result = cf.run_flow(net_1a_boundary)
        assert result.payments == (1, 1, F(5, 9), F(11, 18), 0)
        assert result.total_time == 1
        last = result.trajectory[-1]
        assert set(last.movers) == {0, 1}

    def test_example_1b(self, net_1b):
        result = cf.run_flow(net_1b)
        assert result.payments == (1, F(4, 3), F(2, 3), F(2, 3), 0)
        assert result.total_time == F(4, 3)
        assert statuses_of(result.final_partition) == "azzza"

    def test_no_debts_no_events(self):
        net = cf.build_network([[0, 0], [0, 0]], [1, 2])
        result = cf.run_flow(net)
        assert result.payments == (0, 0)
        assert result.total_time == 0
        assert result.trajectory == ()

    def test_flow_solves_clearing_equation(self, net_1a, net_1b, net_1c):
        for net in (net_1a, net_1b, net_1c):
            result = cf.run_flow(net)
            assert cf.verify_clearing(net, result.payments) == 0

    def test_cash_conservation_along_trajectory(self, net_1a):
        total = sum(net_1a.cash)
        for event in cf.run_flow(net_1a).trajectory:
            assert sum(event.state_after.cash) == total

    def test_rates_monotone_along_trajectory(self, net_1b):
        result = cf.run_flow(net_1b)
        rates = [e.rates for e in result.trajectory]
        for before, after in zip(rates, rates[1:]):
            for i in range(net_1b.n):
                assert after.out[i] <= before.out[i]
                assert after.inflow[i] <= before.inflow[i]

    def test_float_mode_matches_rational(self, net_1a):
        exact = cf.run_flow(net_1a)
        approx = cf.run_flow(cf.convert_network(net_1a, cf.FLOAT))
        for x, y in zip(exact.payments, approx.payments):
            assert abs(float(x) - y) < 1e-12

    def test_float_matches_rational_on_wide_magnitudes(self):
        # amounts from 1e-6 to 1e6, so cash gains below zero_tol can still
        # exceed the conservation bound (seeds 224 and 369)
        for seed in range(400):
            approx = wide_magnitude_network(seed)
            exact = cf.convert_network(approx, cf.RATIONAL)
            result = cf.run_flow(approx, record_trajectory=False)
            reference = cf.fictitious_defaults(exact)[0]
            assert result.defaults == reference.defaults, seed
            scale = float(max(exact.total_debt))
            if scale:
                drift = max(abs(a - float(b)) for a, b in zip(result.payments, reference.payments))
                assert drift <= 1e-10 * scale, seed

    def test_terminal_debt_balance(self, net_1b):
        result = cf.run_flow(net_1b)
        residual_debt = sum(
            net_1b.total_debt[i] - result.payments[i] for i in result.defaults
        )
        assert sum(net_1b.total_debt) == sum(result.payments) + residual_debt

    def test_trace_lines_shape(self, net_1a):
        result = cf.run_flow(net_1a)
        line = cf.trace_line(net_1a, result.trajectory[0])
        assert line["k"] == 0
        assert line["time"] == "1/18"
        assert line["movers"] == ["3"]
        assert line["transitions"] == [{"id": "3", "from": "positive", "to": "zero"}]
        assert len(line["debt"]) == len(line["cash"]) == len(line["out_rates"]) == 5
