"""Property-based checks over randomly generated networks."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import clearflow as cf
from clearflow.errors import NonTransientZeroGroupError
from clearflow.markov import ZeroGroupFactor
from clearflow.scalars import zero_one
from conftest import swampy_network, with_cash
from oracles import (
    dense_balance_rates,
    dense_fixed_point,
    dense_proportions,
    flow_bailout,
    least_injection,
    reachability_transient,
)

#: float payments agree with exact ones to this fraction of the largest debt
FLOAT_PAYMENT_TOL = 1e-9

amounts = st.fractions(min_value=0, max_value=4, max_denominator=8)
positive_amounts = st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8)


@st.composite
def networks(draw, max_n=6, positive_cash=False):
    n = draw(st.integers(min_value=1, max_value=max_n))
    liabilities = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.booleans()):
                liabilities[i][j] = draw(amounts)
    cash_strategy = positive_amounts if positive_cash else amounts
    cash = [draw(cash_strategy) for _ in range(n)]
    return cf.build_network(liabilities, cash)


@given(networks())
@settings(max_examples=60, deadline=None)
def test_relative_rows_sum_to_one(net):
    for row in net.relative:
        assert sum(row) == 1


@given(networks())
@settings(max_examples=60, deadline=None)
def test_relative_reconstructs_liabilities(net):
    for i in range(net.n):
        if net.total_debt[i] > 0:
            for j in range(net.n):
                assert net.relative[i][j] * net.total_debt[i] == net.liabilities[i][j]


@given(networks())
@settings(max_examples=60, deadline=None)
def test_json_round_trip(net):
    assert cf.parse_network(cf.serialize_network(net)) == net


@given(networks())
@settings(max_examples=40, deadline=None)
def test_csv_round_trip(net):
    banks_text, liab_text = cf.serialize_network_csv(net)
    assert cf.parse_network_csv(banks_text, liab_text) == net


@given(networks(max_n=5), st.data())
@settings(max_examples=40, deadline=None)
def test_nested_restriction_composes(net, data):
    outer = data.draw(
        st.lists(st.integers(0, net.n - 1), min_size=1, max_size=net.n, unique=True)
    )
    inner_positions = data.draw(
        st.lists(st.integers(0, len(outer) - 1), min_size=1, max_size=len(outer), unique=True)
    )
    sub_outer = cf.restrict(net.relative, outer)
    sub_inner = cf.restrict(sub_outer.entries, inner_positions)
    direct = cf.restrict(net.relative, [outer[k] for k in inner_positions])
    assert sub_inner.entries == direct.entries


@given(networks(max_n=5), st.data())
@settings(max_examples=50, deadline=None)
def test_fundamental_solve_properties(net, data):
    banks = data.draw(
        st.lists(st.integers(0, net.n - 1), min_size=1, max_size=net.n, unique=True)
    )
    sub = cf.restrict(net.relative, banks)
    if not cf.is_transient(sub):
        return
    m = len(banks)
    e_lo = [data.draw(amounts) for _ in range(m)]
    e_hi = [x + data.draw(amounts) for x in e_lo]
    v_lo = cf.fundamental_solve(sub, e_lo)
    v_hi = cf.fundamental_solve(sub, e_hi)
    # defining equation, nonnegativity, monotonicity in the input
    for r in range(m):
        assert v_lo[r] == e_lo[r] + sum(sub.entries[s][r] * v_lo[s] for s in range(m))
        assert v_lo[r] >= 0
        assert v_lo[r] <= v_hi[r]


@given(networks(max_n=5), st.data())
@settings(max_examples=50, deadline=None)
def test_clipped_fixed_point_matches_unclipped_solution(net, data):
    # when the unclipped solve respects caps, iterating the clamped map
    # converges to the same point
    banks = data.draw(
        st.lists(st.integers(0, net.n - 1), min_size=1, max_size=net.n, unique=True)
    )
    sub = cf.restrict(net.relative, banks)
    if not cf.is_transient(sub):
        return
    m = len(banks)
    e = [data.draw(amounts) for _ in range(m)]
    v = cf.fundamental_solve(sub, e)
    caps = [x + F(1) for x in v]

    def clamped(u):
        return [
            min(e[r] + sum(sub.entries[s][r] * u[s] for s in range(m)), caps[r])
            for r in range(m)
        ]

    assert clamped(v) == v
    # the iterates stay above v and the gap u - v (1 at the start) shrinks
    # at least as fast as powers of Q_B^T; once every row of Q_B^K sums to
    # at most 1/2, each K steps halve its 1-norm (at most m), so this many
    # steps bring it under 10**-9 however slowly the subset escapes
    power, steps = [list(row) for row in sub.entries], 1
    while max(sum(row) for row in power) > F(1, 2):
        power = [
            [sum(power[r][k] * power[k][c] for k in range(m)) for c in range(m)]
            for r in range(m)
        ]
        steps *= 2
    u = list(caps)
    for _ in range(steps * math.ceil(math.log2(m * 10**9))):
        if max(abs(u[r] - v[r]) for r in range(m)) <= F(1, 10**9):
            break
        u = clamped(u)
    assert max(abs(u[r] - v[r]) for r in range(m)) <= F(1, 10**9)


@given(networks())
@settings(max_examples=60, deadline=None)
def test_flow_run_invariants(net):
    result = cf.run_flow(net)
    total_cash = sum(net.cash)
    for event in result.trajectory:
        assert sum(event.state_after.cash) == total_cash
        for t in event.transitions:
            assert t.before is not cf.Status.ABSORBING
            assert not (t.before is cf.Status.ZERO and t.after is not cf.Status.ABSORBING)
            assert t.after is not cf.Status.POSITIVE
    assert len(result.trajectory) <= 2 * net.n
    max_debt = max(net.total_debt) if net.n else F(0)
    assert result.total_time <= max_debt
    assert cf.verify_clearing(net, result.payments) == 0
    # terminal balance: debts split into payments and what defaulters still owe
    left_over = sum(net.total_debt[i] - result.payments[i] for i in result.defaults)
    assert sum(net.total_debt) == sum(result.payments) + left_over
    if any(c > 0 for c in net.cash):
        assert result.final_partition.absorbing


@given(networks(max_n=10), st.sampled_from([cf.RATIONAL, cf.FLOAT]), st.data())
@settings(max_examples=60, deadline=None)
def test_step_from_states_off_any_trajectory(net, mode, data):
    # any remaining debt and cash, statuses by classify_status: step still
    # moves a bank, only along P->Z, P->A or Z->A, and never back in time
    unit = st.fractions(min_value=F(1, 8), max_value=1, max_denominator=8)
    cash_amounts = st.fractions(min_value=0, max_value=2, max_denominator=8)
    cash = [data.draw(cash_amounts) if b else c for b, c in zip(net.total_debt, net.cash)]
    net = cf.build_network(net.liabilities, cash, mode=mode)
    convert = F if mode == cf.RATIONAL else float
    debt = tuple(b * convert(data.draw(unit)) if b else b for b in net.total_debt)
    partition = cf.Partition(
        tuple(cf.classify_status(d, c, net.zero_tol) for d, c in zip(debt, net.cash))
    )
    assume(partition.positive)
    try:
        cf.equilibrium_rates(net, partition)
    except NonTransientZeroGroupError:
        assume(False)
    time = convert(F(1, 2))
    state = cf.SystemState(
        time=time,
        partition=partition,
        remaining_debt=debt,
        cash=net.cash,
        paid=tuple(b - d for b, d in zip(net.total_debt, debt)),
    )
    event = cf.step(net, state)
    assert event.movers
    allowed = {
        (cf.Status.POSITIVE, cf.Status.ZERO),
        (cf.Status.POSITIVE, cf.Status.ABSORBING),
        (cf.Status.ZERO, cf.Status.ABSORBING),
    }
    after = event.state_after
    for t in event.transitions:
        assert (t.before, t.after) in allowed
        assert t.before is partition.statuses[t.bank]
        if t.after is cf.Status.ABSORBING:
            assert after.remaining_debt[t.bank] == 0
            assert after.paid[t.bank] == net.total_debt[t.bank]
    assert event.time >= time


@given(networks())
@settings(max_examples=40, deadline=None)
def test_flow_rates_monotone(net):
    result = cf.run_flow(net)
    rates = [event.rates for event in result.trajectory]
    for before, after in zip(rates, rates[1:]):
        for i in range(net.n):
            assert after.out[i] <= before.out[i]
            assert after.inflow[i] <= before.inflow[i]


@given(networks(positive_cash=True))
@settings(max_examples=50, deadline=None)
def test_three_algorithms_agree_without_swamps(net):
    flow_result = cf.run_flow(net)
    fd_result, trace = cf.fictitious_defaults(net)
    assert flow_result.payments == fd_result.payments
    assert len(trace.solves) <= net.n
    picard = cf.picard_iterate(cf.convert_network(net, cf.FLOAT))
    scale = max(1.0, float(max(net.total_debt)))
    for a, b in zip(flow_result.payments, picard):
        assert abs(float(a) - b) <= 1e-9 * scale


@given(networks())
@settings(max_examples=60, deadline=None)
def test_fd_equals_flow_with_cashless_banks(net):
    assert cf.fictitious_defaults(net)[0].payments == cf.run_flow(net).payments


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_fd_equals_flow_on_swamp_networks(seed):
    net = swampy_network(seed)
    assert cf.decompose_nonactive(net).swamps
    assert cf.fictitious_defaults(net)[0].payments == cf.run_flow(net).payments


@given(st.integers(0, 2**32 - 1), st.sampled_from((8, 16, 24)))
@settings(max_examples=20, deadline=None)
def test_float_payments_agree_with_rational(seed, n):
    for exact in (cf.generate_network(seed, n, 0.3, "1/4"), swampy_network(seed)):
        approx = cf.convert_network(exact, cf.FLOAT)
        reference = cf.fictitious_defaults(exact)[0].payments
        scale = float(max(exact.total_debt))
        for result in (cf.run_flow(approx), cf.fictitious_defaults(approx)[0]):
            drift = max(abs(a - float(b)) for a, b in zip(result.payments, reference))
            assert drift <= FLOAT_PAYMENT_TOL * scale


@given(networks(), st.data())
@settings(max_examples=50, deadline=None)
def test_payments_monotone_in_cash(net, data):
    scale = [data.draw(st.integers(0, 8)) for _ in range(net.n)]
    smaller = [c * F(k, 8) for c, k in zip(net.cash, scale)]
    net_small = cf.build_network(net.liabilities, smaller, ids=net.ids)
    p_big = cf.run_flow(net).payments
    p_small = cf.run_flow(net_small).payments
    for i in cf.active_set(net):
        assert p_small[i] <= p_big[i]


@given(networks(), st.data())
@settings(max_examples=40, deadline=None)
def test_family_members_clear(net, data):
    family = cf.solution_family(net)
    assert family.unique == (not family.swamps)
    coefficients = [
        F(data.draw(st.integers(0, 16)), 16) for _ in family.swamps
    ]
    member = family.member(coefficients)
    assert cf.verify_clearing(net, member) == 0
    assert list(family.greatest) == [
        b + sum(
            swamp.payments[k]
            for swamp in family.swamps
            for k, bank in enumerate(swamp.banks)
            if bank == i
        )
        for i, b in enumerate(family.basic)
    ]


@given(networks())
@settings(max_examples=40, deadline=None)
def test_swamp_decomposition_partitions(net):
    dec = cf.decompose_nonactive(net)
    groups = [set(dec.active), set(dec.nonactive_absorbing), set(dec.transient)]
    groups += [set(s) for s in dec.swamps]
    seen: set[int] = set()
    for group in groups:
        assert not (seen & group)
        seen |= group
    assert seen == set(range(net.n))
    for swamp in dec.swamps:
        sub = cf.restrict(net.relative, swamp)
        assert not cf.is_transient(sub)
        for r, bank in enumerate(swamp):
            assert sum(sub.entries[r]) == 1
            assert net.cash[bank] == 0
            assert net.total_debt[bank] > 0


@given(st.integers(0, 2**16), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_closed_group_transience_matches_reachability(seed, swampy, data):
    # swampy networks hold closed rings; cascades are mostly transient. A
    # restriction of a restriction has a substochastic parent whose mass
    # leaving the inner subset may be nothing at all.
    if swampy:
        net = swampy_network(seed, data.draw(st.sampled_from([cf.RATIONAL, cf.FLOAT])))
    else:
        net = cf.generate_network(seed, data.draw(st.integers(2, 12)), 0.3, "1/4")
    for matrix in (net.relative, net.liabilities):
        banks = data.draw(st.lists(st.integers(0, net.n - 1), min_size=1, unique=True))
        sub = cf.restrict(matrix, banks)
        assert cf.is_transient(sub) == reachability_transient(sub)
        positions = data.draw(
            st.lists(st.integers(0, sub.size - 1), min_size=1, unique=True)
        )
        inner = cf.restrict(sub.entries, positions)
        assert cf.is_transient(inner) == reachability_transient(inner)


@given(networks(positive_cash=True))
@settings(max_examples=30, deadline=None)
def test_bailout_postconditions_on_active_networks(net):
    result = cf.run_flow(net)
    plan = cf.bailout_vector(net)
    for x, k in zip(plan.injections, plan.unpaid):
        assert 0 <= x <= k
    assert plan.verified
    if not result.defaults:
        assert all(x == 0 for x in plan.injections)


def check_least_bailout(net):
    """The plan injects exactly x* = max(0, b - c - L^T 1). With x* added,
    fictitious defaults pays every debt outside the reported swamps; those
    are balanced, and one seed of cash in each clears everything."""
    plan = cf.bailout_vector(net)
    assert plan.verified
    assert plan.injections == least_injection(net)
    boosted = [c + x for c, x in zip(net.cash, plan.injections)]
    paid = cf.fictitious_defaults(with_cash(net, boosted))[0].payments
    seeded = {i for swamp in plan.seed_required for i in swamp}
    for i in range(net.n):
        if i not in seeded:
            assert paid[i] == net.total_debt[i]
    for swamp in plan.seed_required:
        for i in swamp:
            assert boosted[i] == 0
            owes = sum(net.liabilities[i][j] for j in swamp)
            owed = sum(net.liabilities[j][i] for j in swamp)
            assert owes == owed == net.total_debt[i] > 0
        boosted[swamp[0]] += F(1, 8)
    seeded_net = with_cash(net, boosted)
    assert cf.fictitious_defaults(seeded_net)[0].payments == net.total_debt


@given(networks())
@settings(max_examples=60, deadline=None)
def test_bailout_is_least_injection(net):
    check_least_bailout(net)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_bailout_is_least_injection_on_swamp_networks(seed):
    check_least_bailout(swampy_network(seed))


def check_matches_flow(net):
    """Bailout plan and least vector equal the flow-based ones in value and
    type."""
    assert repr(cf.bailout_vector(net)) == repr(flow_bailout(net))
    basic = cf.solution_family(net).basic
    assert repr(basic) == repr(cf.run_flow(net, record_trajectory=False).payments)


@given(networks())
@settings(max_examples=60, deadline=None)
def test_bailout_and_family_match_flow(net):
    check_matches_flow(net)


def test_bailout_and_family_match_flow_on_swamp_networks():
    for seed in range(30):
        check_matches_flow(swampy_network(seed))


def test_bailout_and_family_match_flow_on_generated_networks():
    for seed in range(10):
        check_matches_flow(cf.generate_network(seed, 20, 0.3, "1/4"))


@pytest.mark.parametrize("seed,n", [(1, 32)] + [(seed, 64) for seed in range(6)])
def test_float_bailout_and_family_match_flow(seed, n):
    net = cf.generate_network(seed, n, 0.3, "1/4", mode=cf.FLOAT)
    plan, reference = cf.bailout_vector(net), flow_bailout(net)
    flow_result = cf.run_flow(net, record_trajectory=False)
    bound = 1e-12 * max(net.total_debt)
    for got, want in [
        (plan.unpaid, reference.unpaid),
        (plan.injections, reference.injections),
        (cf.solution_family(net).basic, flow_result.payments),
    ]:
        assert max(abs(a - b) for a, b in zip(got, want)) <= bound
    defaulters = [i for i, k in enumerate(plan.unpaid) if k > 0]
    assert defaulters == [i for i, k in enumerate(reference.unpaid) if k > 0]
    assert cf.fictitious_defaults(net)[0].defaults == flow_result.defaults
    assert plan.seed_required == reference.seed_required


# -- sparse rows: each network's nonzero proportion entries -------------------


@st.composite
def spread_networks(draw, mode):
    """Up to 8 banks, some debt-free, some cashless; float amounts spread
    over 10^-6 to 10^6."""
    n = draw(st.integers(min_value=1, max_value=8))
    if mode == cf.RATIONAL:
        amount = positive_amounts
    else:
        amount = st.floats(min_value=-6, max_value=6).map(lambda k: 10**k)
    debt_free = draw(st.sets(st.integers(0, n - 1)))
    liabilities = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and i not in debt_free and draw(st.booleans()):
                liabilities[i][j] = draw(amount)
    cash = [draw(st.one_of(st.just(0), amount)) for _ in range(n)]
    return cf.build_network(liabilities, cash, mode=mode)


class RecordingFactor(ZeroGroupFactor):
    """The flow's factor, keeping the (set, input) of every solve."""

    def __init__(self, net):
        super().__init__(net.debts, net.total_debt, net.mode)
        self.inputs = []

    def solve(self, banks, e):
        self.inputs.append((tuple(banks), tuple(e)))
        return super().solve(banks, e)


def check_sparse_rows(net, partitions, outs):
    """The rows are the nonzero pattern of the dense proportions; the in-rates
    and each zero group's input equal their dense sums, by repr."""
    relative, _ = dense_proportions(net)
    pattern = tuple(tuple((j, q) for j, q in enumerate(row) if q) for row in relative)
    assert repr(net.shares) == repr(pattern)
    for out in outs:
        assert repr(cf.balance_rates(net, out)) == repr(dense_balance_rates(net, out))
    zero, _ = zero_one(net.mode)
    for partition in partitions:
        factor = RecordingFactor(net)
        try:
            cf.equilibrium_rates(net, partition, factor)
        except NonTransientZeroGroupError:
            pass
        solve_set = tuple(sorted(partition.zero & net.active))
        e = tuple(sum((net.relative[j][i] for j in partition.positive), zero) for i in solve_set)
        assert repr(factor.inputs) == repr([(solve_set, e)] if solve_set else [])


@given(st.sampled_from([cf.RATIONAL, cf.FLOAT]), st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_rows_match_dense_scans(mode, data):
    net = data.draw(spread_networks(mode))
    statuses = st.sampled_from(list(cf.Status))
    partitions = [cf.Partition(tuple(data.draw(statuses) for _ in range(net.n)))]
    convert = F if mode == cf.RATIONAL else float
    rates = st.one_of(st.just(0), positive_amounts).map(convert)
    drawn = tuple(data.draw(rates) for _ in range(net.n))
    check_sparse_rows(net, partitions, [net.total_debt, net.cash, drawn])


@pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
def test_sparse_rows_match_dense_scans_on_swamp_networks(mode):
    for seed in range(30):
        net = swampy_network(seed, mode)
        result = cf.run_flow(net)
        partitions = [cf.big_bang_partition(net)[0]]
        partitions += [event.state_after.partition for event in result.trajectory]
        outs = [net.total_debt, result.payments]
        outs += [event.rates.out for event in result.trajectory]
        check_sparse_rows(net, partitions, outs)


#: a cashless bank (2) owes 1/7 and 6/7 to the cash-holding banks 0 and 1,
#: and bank 0 owes it half its debt: at time zero bank 2 falls short, so the
#: big bang's factor solves for it alone, and its in-rates reach the held
#: banks 0 and 1 through the sevenths of bank 2's row
SEVENTHS = cf.build_network(
    [[0, 1, 1], [0, 0, 0], [F(1, 7), F(6, 7), 0]], [F(1, 4), F(1, 2), 0]
)


def fixed_point_cases(net):
    """The (banks, base, cap, held, tol) of fd and of the big bang."""
    zero, one = zero_one(net.mode)
    part = cf.initial_partition(net)
    held = [one if s is cf.Status.POSITIVE else zero for s in part.statuses]
    return [
        (net.active, net.cash, net.total_debt, [zero] * net.n, net.zero_tol),
        (part.zero & net.active, [zero] * net.n, [one] * net.n, held, net.zero_rel),
    ]


def rational_oracle_networks():
    yield SEVENTHS
    for seed in range(30):
        yield swampy_network(seed)
    for seed in range(20):
        yield cf.generate_network(seed, 16, 0.3, "1/4")


def test_rational_in_rates_match_dense_oracles():
    # the flow's in-rates and every fixed-point trace, which the factor forms
    # from its integers and a carried held part, equal plain Fraction sums
    # and Gauss-Jordan solves, by repr
    for net in rational_oracle_networks():
        for event in cf.run_flow(net).trajectory:
            assert repr(event.rates.inflow) == repr(dense_balance_rates(net, event.rates.out))
        fd_case, big_bang_case = fixed_point_cases(net)
        traces = [cf.fictitious_defaults(net)[1], cf.flow._greatest_fixed_point(net, *big_bang_case)]
        for trace, case in zip(traces, (fd_case, big_bang_case)):
            iterates, short_sets, solves = dense_fixed_point(net, *case)
            assert repr(trace.iterates) == repr(iterates)
            assert trace.default_sets == short_sets
            assert repr(trace.solves) == repr(solves)


def test_inflow_is_exact_outside_the_factor_scope():
    # the big bang solves bank 2 alone, whose row holds the sevenths; its
    # in-rates still reach banks 0 and 1 exactly
    net = SEVENTHS
    trace = cf.flow._greatest_fixed_point(net, *fixed_point_cases(net)[1])
    assert [banks for banks, _, _ in trace.solves] == [(2,)]
    factor = ZeroGroupFactor(net.debts, net.total_debt, net.mode)
    rates = [F(1), F(1), F(0)]
    e = factor.held_inflow(net, range(net.n), rates, [2])
    assert e == [F(1, 2)]
    rates[2] = factor.solve([2], e)[0]
    assert repr(factor.inflow(net, rates)) == repr(list(dense_balance_rates(net, rates)))
