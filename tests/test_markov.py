"""Restriction, transience, fundamental solves, active sets, swamps."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import clearflow as cf
from clearflow.errors import (
    EmptySetError,
    IndexOutOfRangeError,
    NegativeInputError,
    NotErgodicError,
    SingularSystemError,
    ZeroDebtInSwampError,
)
from conftest import swampy_network, with_cash
from oracles import gauss_jordan_solve

#: float solves agree with exact ones to this fraction of the largest entry
FLOAT_SOLVE_TOL = 1e-9


class TestRestrict:
    def test_example_restriction_matches_transpose(self, net_1a):
        sub = cf.restrict(net_1a.relative, [2, 3])
        q_t = [[sub.entries[s][r] for s in range(2)] for r in range(2)]
        assert q_t == [[0, 0], [1, 0]]

    def test_three_bank_restriction(self, net_1a):
        sub = cf.restrict(net_1a.relative, [1, 2, 3])
        q_t = [[sub.entries[s][r] for s in range(3)] for r in range(3)]
        assert q_t == [[0, 0, 1], [F(1, 2), 0, 0], [0, 1, 0]]

    def test_full_restriction_is_identity(self, net_1a):
        sub = cf.restrict(net_1a.relative, range(5))
        assert sub.entries == net_1a.relative

    def test_nested_restriction_composes(self, net_1a):
        outer = cf.restrict(net_1a.relative, [1, 2, 3])
        inner = cf.restrict(outer.entries, [0, 2])  # banks 1 and 3 of the outer set
        direct = cf.restrict(net_1a.relative, [1, 3])
        assert inner.entries == direct.entries

    def test_empty_set_rejected(self, net_1a):
        with pytest.raises(EmptySetError):
            cf.restrict(net_1a.relative, [])

    def test_out_of_range_rejected(self, net_1a):
        with pytest.raises(IndexOutOfRangeError):
            cf.restrict(net_1a.relative, [0, 7])

    def test_duplicate_rejected(self, net_1a):
        with pytest.raises(IndexOutOfRangeError):
            cf.restrict(net_1a.relative, [1, 1])


class TestIsTransient:
    def test_escaping_pair(self, net_1a):
        assert cf.is_transient(cf.restrict(net_1a.relative, [2, 3]))

    def test_closed_cycle_is_not(self, net_1c):
        assert not cf.is_transient(cf.restrict(net_1c.relative, [1, 2, 3]))

    def test_self_loop_is_not(self, net_1a):
        assert not cf.is_transient(cf.restrict(net_1a.relative, [4]))

    def test_matches_determinant_sign(self, net_1a, net_1c):
        # graph reachability must agree with invertibility of (I - Q_B)
        for net in (net_1a, net_1c):
            for banks in ([1, 2, 3], [2, 3], [1, 3], [1], [2]):
                sub = cf.restrict(net.relative, banks)
                m = len(banks)
                rows = [
                    [(1 if r == s else 0) - sub.entries[r][s] for s in range(m)]
                    for r in range(m)
                ]
                try:
                    cf.markov.solve_linear([list(r) for r in rows], [F(0)] * m)
                    invertible = True
                except SingularSystemError:
                    invertible = False
                assert cf.is_transient(sub) == invertible


class TestFundamentalSolve:
    def test_equilibrium_for_three_zeros(self, net_1a):
        sub = cf.restrict(net_1a.relative, [1, 2, 3])
        v = cf.fundamental_solve(sub, [F(1, 3), 0, 0])
        assert v == [F(2, 3), F(1, 3), F(1, 3)]

    def test_zero_input_gives_zero(self, net_1a):
        sub = cf.restrict(net_1a.relative, [1, 2, 3])
        assert cf.fundamental_solve(sub, [0, 0, 0]) == [0, 0, 0]

    def test_fd_inner_solve(self, net_1a):
        eps = F(1, 36)
        sub = cf.restrict(net_1a.relative, [2, 3])
        v = cf.fundamental_solve(sub, [eps + 1, eps])
        assert v == [eps + 1, 2 * eps + 1]

    def test_defining_equation_holds(self, net_1a):
        sub = cf.restrict(net_1a.relative, [1, 2, 3])
        e = [F(1, 5), F(2, 7), F(3, 11)]
        v = cf.fundamental_solve(sub, e)
        for r in range(3):
            assert v[r] == e[r] + sum(sub.entries[s][r] * v[s] for s in range(3))

    def test_monotone_in_input(self, net_1a):
        sub = cf.restrict(net_1a.relative, [1, 2, 3])
        lo = cf.fundamental_solve(sub, [F(1, 4), 0, F(1, 8)])
        hi = cf.fundamental_solve(sub, [F(1, 3), F(1, 9), F(1, 8)])
        assert all(x <= y for x, y in zip(lo, hi))

    def test_integer_input_gives_exact_fractions(self, net_1a):
        sub = cf.restrict(net_1a.relative, [1, 2, 3])
        solves = (cf.fundamental_solve(sub, [1, 0, 0]),
                  cf.markov.zero_group_solve(net_1a, [1, 2, 3], [1, 0, 0]))
        for v in solves:
            assert v == [2, 1, 1]
            assert all(isinstance(x, F) for x in v)

    def test_negative_input_rejected(self, net_1a):
        sub = cf.restrict(net_1a.relative, [1, 2])
        with pytest.raises(NegativeInputError):
            cf.fundamental_solve(sub, [F(-1), 0])

    def test_singular_rejected(self, net_1c):
        sub = cf.restrict(net_1c.relative, [1, 2, 3])
        with pytest.raises(SingularSystemError):
            cf.fundamental_solve(sub, [F(1), 0, 0])

    def test_clipped_map_fixed_point(self, net_1a):
        # when the unclipped solution already respects the caps, it is also
        # the unique fixed point of the min-clamped map
        sub = cf.restrict(net_1a.relative, [1, 2, 3])
        e = [F(1, 3), 0, 0]
        caps = [net_1a.total_debt[i] for i in (1, 2, 3)]
        v = cf.fundamental_solve(sub, e)
        assert all(x <= cap for x, cap in zip(v, caps))

        def clipped(u):
            return [
                min(e[r] + sum(sub.entries[s][r] * u[s] for s in range(3)), caps[r])
                for r in range(3)
            ]

        assert clipped(v) == v
        u = list(caps)
        for _ in range(200):
            nxt = clipped(u)
            if nxt == u:
                break
            u = nxt
        assert max(abs(u[r] - v[r]) for r in range(3)) < F(1, 10**12)


def balance_rows(sub):
    """Rows of (I - Q_B^T) for a restriction of the proportion matrix."""
    m = sub.size
    return [[(1 if i == j else 0) - sub.entries[j][i] for j in range(m)] for i in range(m)]


class TestSolveLinear:
    def test_singular_system_rejected_in_both_modes(self):
        for rows in ([[F(1), F(2)], [F(2), F(4)]], [[1.0, 2.0], [2.0, 4.0]]):
            with pytest.raises(SingularSystemError):
                cf.markov.solve_linear(rows, [rows[0][0], rows[0][0]])

    def test_zero_leading_entry_needs_a_row_swap(self):
        assert cf.markov.solve_linear([[0, F(1, 2)], [3, 0]], [1, 1]) == [F(1, 3), 2]
        assert cf.markov.solve_linear([[0.0, 0.5], [3.0, 0.0]], [1.0, 1.0]) == [1 / 3, 2.0]

    def test_empty_system(self):
        assert cf.markov.solve_linear([], []) == []


@st.composite
def generated_restrictions(draw):
    """A generated network, a transient set of 1 to 40 indebted banks, and a
    nonnegative input vector on it."""
    m = draw(st.integers(1, 40))
    n = m + draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    density = draw(st.sampled_from((0.15, 0.3, 0.6)))
    net = cf.generate_network(seed, n, density, "1/4")
    indebted = [i for i in range(n) if net.total_debt[i] > 0]
    assume(indebted)
    banks = sorted(draw(st.permutations(indebted))[:m])
    m = len(banks)
    assume(cf.is_transient(cf.restrict(net.relative, banks)))
    e = draw(st.lists(st.fractions(0, 4, max_denominator=12), min_size=m, max_size=m))
    return net, banks, e


@given(generated_restrictions())
@settings(max_examples=30, deadline=None)
def test_kernel_matches_gauss_jordan_oracle(case):
    net, banks, e = case
    sub = cf.restrict(net.relative, banks)
    rows = balance_rows(sub)
    expected = gauss_jordan_solve(rows, e)
    assert cf.markov.solve_linear(rows, e) == expected
    assert cf.fundamental_solve(sub, e) == expected
    assert cf.markov.zero_group_solve(net, banks, e) == expected
    # the same system in float mode, against the exact answer
    approx = cf.markov.solve_linear(
        [[float(x) for x in row] for row in rows], [float(x) for x in e]
    )
    scale = max(1.0, max(float(x) for x in expected))
    assert max(abs(a - float(x)) for a, x in zip(approx, expected)) <= FLOAT_SOLVE_TOL * scale


def assert_flow_solves_match_oracle(net):
    """Every zero group the flow solves, against Gauss-Jordan on (I - Q_B^T)."""
    pinned = cf.pinned_banks(net)
    partition, _ = cf.big_bang_partition(net)
    for event in cf.run_flow(net).trajectory:
        solve_set = sorted(partition.zero - pinned)
        if solve_set:
            e = [sum(net.relative[j][i] for j in partition.positive) for i in solve_set]
            expected = gauss_jordan_solve(balance_rows(cf.restrict(net.relative, solve_set)), e)
            assert [event.rates.out[i] for i in solve_set] == expected
        partition = event.state_after.partition


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_flow_zero_group_solves_match_oracle_on_swamp_networks(seed):
    assert_flow_solves_match_oracle(swampy_network(seed))


@pytest.mark.parametrize("seed", range(10))
def test_flow_zero_group_solves_match_oracle_on_cascades(seed):
    # the zero group grows towards n, and banks that pay off leave it, so
    # the flow's factor borders and deletes on every run
    assert_flow_solves_match_oracle(cf.generate_network(seed, 20, 0.3, "1/4"))


def assert_fd_solves_match_oracle(net):
    """Every default set fictitious defaults solves, against Gauss-Jordan on
    (I - Q_B^T); returns the number of solves."""
    _, trace = cf.fictitious_defaults(net)
    for banks, e, r in trace.solves:
        assert list(r) == gauss_jordan_solve(balance_rows(cf.restrict(net.relative, banks)), list(e))
    return len(trace.solves)


@pytest.mark.parametrize("seed", range(10))
def test_fd_solves_match_oracle_on_cascades(seed):
    # the default set grows over several rounds, so the carried factor borders
    assert assert_fd_solves_match_oracle(cf.generate_network(seed, 20, 0.3, "1/4")) > 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fd_solves_match_oracle_on_swamp_networks(seed):
    assert_fd_solves_match_oracle(swampy_network(seed))


@pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
def test_invariant_distribution_matches_oracle(mode):
    # (I - Q_S^T) pi = 0 with its last equation replaced by sum(pi) = 1
    swamps = 0
    for seed in range(30):
        net = swampy_network(seed, mode)
        for swamp in cf.decompose_nonactive(net, cf.active_set(net)).swamps:
            sub = cf.restrict(net.relative, swamp)
            rows = balance_rows(sub)
            rows[-1] = [1] * sub.size
            expected = gauss_jordan_solve(rows, [0] * (sub.size - 1) + [1])
            weights = cf.invariant_distribution(sub).weights
            if mode == cf.RATIONAL:
                assert list(weights) == expected
            else:
                assert max(abs(a - b) for a, b in zip(weights, expected)) <= 1e-12
            swamps += 1
    assert swamps >= 60


def test_rational_mode_never_eliminates(monkeypatch, net_1a, net_1a_boundary, net_1b, net_1c, net_1c_variant):
    # every rational solve is the bordered factor's; partial pivoting is
    # only the float factor's fallback
    def refuse(rows, rhs):
        raise AssertionError("solve_linear called in rational mode")

    monkeypatch.setattr(cf.markov, "solve_linear", refuse)
    nets = [net_1a, net_1a_boundary, net_1b, net_1c, net_1c_variant]
    nets += [cf.generate_network(seed, 20, 0.3, "1/4") for seed in range(10)]
    nets += [swampy_network(seed) for seed in range(10)]
    solves = swamps = 0
    for net in nets:
        cf.run_flow(net)
        cf.big_bang_partition(net)
        cf.solution_family(net)
        cf.bailout_vector(net)
        _, trace = cf.fictitious_defaults(net)
        for banks, e, r in trace.solves:
            assert cf.markov.zero_group_solve(net, banks, e) == list(r)
            assert cf.fundamental_solve(cf.restrict(net.relative, banks), e) == list(r)
            solves += 1
        for swamp in cf.decompose_nonactive(net, cf.active_set(net)).swamps:
            cf.invariant_distribution(cf.restrict(net.relative, swamp))
            swamps += 1
    assert solves > 20 and swamps > 10


def test_float_joins_decide_by_pivot(monkeypatch):
    # on these cascades no Schur pivot is small, so no solve falls back to
    # the graph test and elimination
    def refuse(*args):
        raise AssertionError("fallback taken")

    monkeypatch.setattr(cf.markov, "solve_linear", refuse)
    monkeypatch.setattr(cf.markov, "is_transient", refuse)
    for seed in range(6):
        net = cf.generate_network(seed, 64, 0.3, "1/4", mode=cf.FLOAT)
        assert cf.run_flow(net).defaults == cf.fictitious_defaults(net)[0].defaults


def network_factor(net):
    """The factor the flow carries: (diag(b) - L^T)_B over every bank."""
    return cf.markov.ZeroGroupFactor(net.liabilities, net.total_debt, net.mode)


def integer_balance_matrix(net, banks, scale):
    """K_B = scale * (diag(b) - L^T)_B of a rational network, as ints."""
    return [
        [int(scale * ((net.total_debt[i] if i == j else 0) - net.liabilities[j][i]))
         for j in banks]
        for i in banks
    ]


@pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
def test_factor_follows_scripted_transitions(mode):
    # every proper subset of this network's banks is transient
    net = cf.generate_network(3, 12, 0.4, "1/4", mode=mode)
    script = [
        [4, 0, 7],  # from the empty set
        [0, 4, 7, 9],  # one bank joins
        [0, 4, 9],  # one bank is absorbed
        [0, 4, 9],  # unchanged
        [2, 4],  # two out, one in
        [],  # empty
        [1, 3, 5, 6, 8, 10, 11],  # grown again
    ]
    rng = random.Random(mode)
    factor = network_factor(net)
    for banks in script:
        e = [F(rng.randint(0, 9), rng.randint(1, 7)) for _ in banks]
        if mode == cf.FLOAT:
            e = [float(x) for x in e]
        got = factor.solve(banks, e)
        assert sorted(factor.banks) == sorted(banks)  # carried, not rebuilt
        expected = cf.markov.zero_group_solve(net, banks, e) if banks else []
        if mode == cf.RATIONAL:
            assert got == expected
            k = integer_balance_matrix(net, factor.banks, factor.scale)
            m = len(k)
            # K_B adj K_B = det K_B I
            product = [
                [sum(k[i][t] * factor.adj[t][j] for t in range(m)) for j in range(m)]
                for i in range(m)
            ]
            assert product == [[factor.det if i == j else 0 for j in range(m)] for i in range(m)]
        else:
            scale = max([1.0, *map(abs, expected)])
            assert max([0.0, *(abs(a - b) for a, b in zip(got, expected))]) <= 1e-12 * scale


def test_float_factor_is_dropped_on_a_small_pivot():
    # banks 1 and 2 owe each other 1 and bank 0 only 1e-14: the Schur pivot
    # of the second join is about 2e-14, not above ε K_22
    net = cf.build_network([[0, 0, 0], [1e-14, 0, 1], [1e-14, 1, 0]], [1, 0, 0], mode=cf.FLOAT)
    factor = network_factor(net)
    factor.solve([1], [0.5])
    assert factor.banks == [1]
    assert factor.solve([1, 2], [0.5, 0.5]) == cf.markov.zero_group_solve(net, [1, 2], [0.5, 0.5])
    assert factor.banks == []


def test_float_fallback_solves_the_balance_system():
    # bank 2 owes bank 1 twice what bank 1 owes it, so the system is not
    # symmetric; the Schur pivot of the second join is about 3e-14
    net = cf.build_network([[0, 0, 0], [1e-14, 0, 1], [1e-14, 2, 0]], [1, 0, 0], mode=cf.FLOAT)
    factor = network_factor(net)
    e = [0.5, 0.25]
    v = factor.solve([1, 2], e)
    assert factor.banks == []
    # v = e + Q_B^T v
    q = net.relative
    for k, i in enumerate([1, 2]):
        inflow = e[k] + q[1][i] * v[0] + q[2][i] * v[1]
        assert abs(v[k] - inflow) <= 1e-12 * max(v)


@given(st.integers(0, 2**16), st.data())
@settings(max_examples=40, deadline=None)
def test_bordering_determinant_vanishes_exactly_off_transient_sets(seed, data):
    # swampy networks hold closed rings, so random sets are often not transient
    net = swampy_network(seed)
    indebted = [i for i in range(net.n) if net.total_debt[i] > 0]
    start = data.draw(st.lists(st.sampled_from(indebted), unique=True))
    target = data.draw(st.lists(st.sampled_from(indebted), min_size=1, unique=True))
    factor = network_factor(net)
    if start and cf.is_transient(cf.restrict(net.relative, start)):
        factor.solve(start, [F(0)] * len(start))
    try:
        factor.solve(target, [F(0)] * len(target))
        bordered = True
    except SingularSystemError:
        bordered = False
    assert bordered == cf.is_transient(cf.restrict(net.relative, target))
    if bordered:
        assert factor.det > 0 and sorted(factor.banks) == sorted(target)


class TestActiveSet:
    def test_any_positive_parameters_activate_all(self, net_1a):
        assert cf.active_set(net_1a) == frozenset(range(5))

    def test_zero_parameters_leave_two(self, net_1c):
        assert cf.active_set(net_1c) == frozenset({0, 4})

    def test_all_cash_positive(self):
        net = cf.build_network([[0, 1], [2, 0]], [1, 1])
        assert cf.active_set(net) == frozenset({0, 1})

    def test_no_cash_no_active(self, net_1c):
        net = with_cash(net_1c, [0, 0, 0, 0, 0])
        assert cf.active_set(net) == frozenset()


class TestDecomposeNonactive:
    def test_example_swamp(self, net_1c):
        dec = cf.decompose_nonactive(net_1c, cf.active_set(net_1c))
        assert dec.swamps == ((1, 2, 3),)
        assert dec.transient == frozenset()
        assert dec.nonactive_absorbing == frozenset()

    def test_all_active_all_empty(self, net_1a):
        dec = cf.decompose_nonactive(net_1a, cf.active_set(net_1a))
        assert dec.swamps == ()
        assert dec.transient == frozenset()
        assert dec.nonactive_absorbing == frozenset()

    def test_chain_into_active_is_transient(self):
        # bank 0 owes only the active bank 1; no swamp, and it never pays
        net = cf.build_network([[0, 2, 0], [0, 0, 1], [0, 0, 0]], [0, 1, 0])
        act = cf.active_set(net)
        assert 0 not in act
        dec = cf.decompose_nonactive(net, act)
        assert dec.transient == frozenset({0})
        assert dec.swamps == ()
        assert cf.picard_iterate(net)[0] == 0

    def test_partition_covers_everything(self, net_1c):
        dec = cf.decompose_nonactive(net_1c, cf.active_set(net_1c))
        parts = [set(dec.active), set(dec.nonactive_absorbing), set(dec.transient)]
        parts += [set(s) for s in dec.swamps]
        seen = set()
        for part in parts:
            assert not (seen & part)
            seen |= part
        assert seen == set(range(net_1c.n))


class TestInvariantDistribution:
    def test_cycle_is_uniform(self, net_1c):
        dist = cf.invariant_distribution(cf.restrict(net_1c.relative, [1, 2, 3]))
        assert dist.weights == (F(1, 3), F(1, 3), F(1, 3))

    def test_cycle_solves_three_by_three_system(self, net_1c):
        sub = cf.restrict(net_1c.relative, [1, 2, 3])
        pi = cf.invariant_distribution(sub).weights
        for r in range(3):
            assert pi[r] == sum(sub.entries[s][r] * pi[s] for s in range(3))
        assert sum(pi) == 1

    def test_variant_proportional_1_2_2(self, net_1c_variant):
        dist = cf.invariant_distribution(cf.restrict(net_1c_variant.relative, [1, 2, 3]))
        assert dist.weights == (F(1, 5), F(2, 5), F(2, 5))

    def test_self_loop_singleton(self, net_1a):
        dist = cf.invariant_distribution(cf.restrict(net_1a.relative, [4]))
        assert dist.weights == (F(1),)

    def test_open_set_rejected(self, net_1a):
        with pytest.raises(NotErgodicError):
            cf.invariant_distribution(cf.restrict(net_1a.relative, [2, 3]))


class TestSwampSolution:
    def test_example_swamp_payments(self, net_1c):
        dist = cf.invariant_distribution(cf.restrict(net_1c.relative, [1, 2, 3]))
        assert cf.swamp_solution(dist, net_1c.total_debt) == [F(2), F(2), F(2)]

    def test_variant_swamp_payments(self, net_1c_variant):
        dist = cf.invariant_distribution(cf.restrict(net_1c_variant.relative, [1, 2, 3]))
        assert cf.swamp_solution(dist, net_1c_variant.total_debt) == [F(3, 2), F(3), F(3)]

    def test_uniform_debts_pay_fully(self):
        # 3-cycle with equal debts: the binding constraint is every debt at once
        net = cf.build_network(
            [[0, 5, 0], [0, 0, 5], [5, 0, 0]], [0, 0, 0]
        )
        dist = cf.invariant_distribution(cf.restrict(net.relative, [0, 1, 2]))
        assert cf.swamp_solution(dist, net.total_debt) == [F(5), F(5), F(5)]

    def test_fixed_point_with_binding_debt(self, net_1c_variant):
        dist = cf.invariant_distribution(cf.restrict(net_1c_variant.relative, [1, 2, 3]))
        pay = cf.swamp_solution(dist, net_1c_variant.total_debt)
        full = [F(0)] * net_1c_variant.n
        for bank, x in zip((1, 2, 3), pay):
            full[bank] = x
        q = net_1c_variant.relative
        received = [sum(q[j][i] * full[j] for j in range(5)) for i in range(5)]
        for bank in (1, 2, 3):
            assert received[bank] == full[bank]
        assert any(
            full[bank] == net_1c_variant.total_debt[bank] for bank in (1, 2, 3)
        )

    def test_zero_debt_rejected(self, net_1c):
        dist = cf.invariant_distribution(cf.restrict(net_1c.relative, [1, 2, 3]))
        with pytest.raises(ZeroDebtInSwampError):
            cf.swamp_solution(dist, (1, 0, 0, 0, 0))
