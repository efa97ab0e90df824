"""Flow engine: rates, events, stepping, time-zero normalization, full runs."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import clearflow as cf
from clearflow.errors import InvariantViolationError, NonTransientZeroGroupError, StalledError
from conftest import statuses_of, swampy_network, wide_magnitude_network, with_cash
from oracles import probe_revealed


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
    def test_swamp_in_zero_group_raises(self, net_1c, mode):
        net = cf.convert_network(net_1c, mode)
        with pytest.raises(NonTransientZeroGroupError, match="contains a closed subnetwork"):
            cf.equilibrium_rates(net, make_partition("pzzza"))

    def test_pinned_banks_are_excluded(self, net_1c):
        pinned = cf.pinned_banks(net_1c)
        assert pinned == frozenset({1, 2, 3})
        rates = cf.equilibrium_rates(net_1c, make_partition("pzzza"), pinned)
        assert rates.out == (1, 0, 0, 0, 0)


class TestBalanceRates:
    def test_interval_zero(self, net_1a):
        inflow, balance = cf.balance_rates(net_1a, (1, 1, 1, 1, 0))
        assert balance[:4] == (-1, F(1, 3), F(-1, 2), 0)
        assert balance[4] == F(7, 6)

    def test_interval_two(self, net_1a):
        _, balance = cf.balance_rates(net_1a, (1, 1, F(1, 2), F(1, 2), 0))
        assert balance[:4] == (-1, F(-1, 6), 0, 0)

    def test_zero_rates(self, net_1a):
        inflow, balance = cf.balance_rates(net_1a, (0, 0, 0, 0, 0))
        assert inflow == (0, 0, 0, 0, 0)
        assert balance == (0, 0, 0, 0, 0)


class TestNextEvent:
    def test_first_event_is_bank_three_cash(self, net_1a):
        state = initial_state(net_1a)
        rates = cf.equilibrium_rates(net_1a, state.partition)
        duration, movers = cf.next_event(net_1a, state, rates)
        assert duration == 2 * F(1, 36)
        assert movers == (2,)

    def test_event_from_interval_two(self, net_1a):
        eps = F(1, 36)
        state = initial_state(net_1a)
        for k in range(2):
            state = cf.step(net_1a, state, index=k).state_after
        assert state.time == 4 * eps
        assert statuses_of(state.partition) == "ppzza"
        rates = cf.equilibrium_rates(net_1a, state.partition)
        duration, movers = cf.next_event(net_1a, state, rates)
        assert duration == 14 * eps
        assert movers == (1,)
        assert state.time + duration == 18 * eps

    def test_single_funded_bank(self):
        net = cf.build_network([[0, 1], [0, 0]], [2, 0])
        state = initial_state(net)
        rates = cf.equilibrium_rates(net, state.partition)
        duration, movers = cf.next_event(net, state, rates)
        assert duration == 1
        assert movers == (0,)

    def test_stalled_when_no_candidates(self, net_1a):
        state = cf.SystemState(
            time=F(0),
            partition=make_partition("aaaaa"),
            remaining_debt=(F(0),) * 5,
            cash=net_1a.cash,
            paid=net_1a.total_debt,
        )
        rates = cf.IntervalRates(out=(F(0),) * 5, inflow=(F(0),) * 5, balance=(F(0),) * 5)
        with pytest.raises(StalledError):
            cf.next_event(net_1a, state, rates)


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
        rates = cf.equilibrium_rates(net, partition, cf.pinned_banks(net))
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
        # neither the big-bang fixed point nor any event eliminates from
        # scratch: each updates a carried factor
        net = cf.generate_network(1, 20, 0.3, "1/4", mode=mode)
        solves = []
        kernel = cf.markov.solve_linear

        def counted(rows, rhs):
            solves.append(len(rows))
            return kernel(rows, rhs)

        monkeypatch.setattr(cf.markov, "solve_linear", counted)
        cf.big_bang_partition(net)
        big_bang = len(solves)
        solves.clear()
        result = cf.run_flow(net)
        pinned = cf.pinned_banks(net)
        zero_groups = [e for e in result.trajectory if e.state_after.partition.zero - pinned]
        assert len(zero_groups) > 10
        assert len(solves) == big_bang == 0

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
