"""Restriction, transience, fundamental solves, active sets, swamps."""

from __future__ import annotations

import fractions
import math
import random
import sys
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import clearflow as cf
from clearflow.errors import (
    EmptySetError,
    IndexOutOfRangeError,
    NegativeInputError,
    NotErgodicError,
    RowSumError,
    SingularSystemError,
    ZeroDebtInSwampError,
)
from conftest import swampy_network, with_cash
from oracles import (
    dense_balance_rates,
    dense_border,
    exact_form,
    gauss_jordan_solve,
    prime_denominator_network,
    primes_from,
    reachability_transient,
    row_scale,
)

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
                  network_factor(net_1a).solve([1, 2, 3], [1, 0, 0]))
        for v in solves:
            assert v == [2, 1, 1]
            assert all(isinstance(x, F) for x in v)

    def test_negative_input_rejected(self, net_1a):
        sub = cf.restrict(net_1a.relative, [1, 2])
        with pytest.raises(NegativeInputError):
            cf.fundamental_solve(sub, [F(-1), 0])

    def test_nan_input_rejected(self, net_1a):
        # a NaN is not below 0, but not nonnegative either
        net = cf.convert_network(net_1a, cf.FLOAT)
        sub = cf.restrict(net.relative, [0, 1])
        with pytest.raises(NegativeInputError):
            cf.fundamental_solve(sub, [math.nan, 0.0])
        with pytest.raises(NegativeInputError):
            network_factor(net).solve([1, 2], [0.0, math.nan])

    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_infinite_input_rejected(self, net_1a, mode):
        # inf is >= 0 but no amount: both entry points name it, in both
        # modes, where rational mode found no integer ratio for it
        net = net_1a if mode == cf.RATIONAL else cf.convert_network(net_1a, cf.FLOAT)
        sub = cf.restrict(net.relative, [0, 1])
        with pytest.raises(NegativeInputError, match="^input vector must be finite$"):
            cf.fundamental_solve(sub, [math.inf, 0])
        with pytest.raises(NegativeInputError, match="^input vector must be finite$"):
            network_factor(net).solve([1, 2], [F(1, 2), math.inf])
        # a negative or NaN entry keeps its message, also beside an infinity
        for e in ([-math.inf, 0], [math.inf, -1], [math.nan, math.inf], [F(-1), 0]):
            with pytest.raises(NegativeInputError, match="^input vector must be nonnegative$"):
                cf.fundamental_solve(sub, e)
            with pytest.raises(NegativeInputError, match="^input vector must be nonnegative$"):
                network_factor(net).solve([1, 2], e)

    def test_rational_input_check_compares_no_fraction(self, net_1a):
        # each input's sign is read from its integers
        compared = []

        def count(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename == fractions.__file__ and code.co_name in (
                "_richcmp", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
            ):
                compared.append(code.co_name)

        factor = network_factor(net_1a)
        e = [F(1, 3), F(0), F(2, 7)]
        sys.setprofile(count)
        try:
            factor.solve([1, 2, 3], e)
            with pytest.raises(NegativeInputError):
                factor.solve([1, 2, 3], [F(1, 3), F(-1, 5), 0])
        finally:
            sys.setprofile(None)
        assert compared == []
        # the hook sees a comparison when one is made
        sys.setprofile(count)
        try:
            assert e[0] >= 0
        finally:
            sys.setprofile(None)
        assert compared == ["__ge__", "_richcmp"]

    def test_rational_solve_reads_ints_and_floats_at_their_exact_values(self, net_1a):
        sub = cf.restrict(net_1a.relative, [0, 1])
        expected = cf.fundamental_solve(sub, [F(1, 2), F(1)])
        assert cf.fundamental_solve(sub, [0.5, F(1)]) == expected
        assert cf.fundamental_solve(sub, [F(1, 2), 1]) == expected
        factor = network_factor(net_1a)
        expected = factor.solve([1, 2, 3], [F(1, 3), F(1, 2), 0])
        for e in ([F(1, 3), 0.5, 0], [F(1, 3), F(1, 2), 0.0]):
            v = factor.solve([1, 2, 3], e)
            assert v == expected and all(isinstance(x, F) for x in v)
        # a float counts at its binary value, not at the decimal it prints as
        (v,) = network_factor(net_1a).solve([3], [0.1])
        assert v == F(0.1) * network_factor(net_1a).solve([3], [1])[0]

    def test_wrong_length_input_rejected(self, net_1a):
        sub = cf.restrict(net_1a.relative, [0, 1])
        with pytest.raises(IndexOutOfRangeError, match="input vector has length 1, expected 2"):
            cf.fundamental_solve(sub, [0])

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
    assert network_factor(net).solve(banks, e) == expected
    # the same system in float mode, against the exact answer
    approx = cf.markov.solve_linear(
        [[float(x) for x in row] for row in rows], [float(x) for x in e]
    )
    scale = max(1.0, max(float(x) for x in expected))
    assert max(abs(a - float(x)) for a, x in zip(approx, expected)) <= FLOAT_SOLVE_TOL * scale


def assert_flow_solves_match_oracle(net):
    """Every zero group the flow solves, against Gauss-Jordan on (I - Q_B^T)."""
    partition, _ = cf.big_bang_partition(net)
    for event in cf.run_flow(net).trajectory:
        solve_set = sorted(partition.zero & net.active)
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
        for swamp in cf.decompose_nonactive(net).swamps:
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
    # every rational solve is the bordered factor's; no solver eliminates
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
            assert network_factor(net).solve(banks, e) == list(r)
            assert cf.fundamental_solve(cf.restrict(net.relative, banks), e) == list(r)
            solves += 1
        for swamp in cf.decompose_nonactive(net).swamps:
            cf.invariant_distribution(cf.restrict(net.relative, swamp))
            swamps += 1
    assert solves > 20 and swamps > 10


#: balance systems on banks 1 and 2, who owe each other while their only
#: exits, to bank 0, are tiny: the Schur pivot of the second join cancels
#: in d - v^T K^-1 u
TINY_EXITS = [
    [[0, 0, 0], [1e-14, 0, 1], [1e-14, 2, 0]],
    [[0, 0, 0], [1e-14, 0, 1], [1e-14, 1, 0]],
    [[0, 0, 0], [1e-300, 0, 1], [0, 3, 0]],
]


def binary_twin(liabilities, cash):
    """The rational network of the float amounts' exact binary values."""
    return cf.build_network([[F(x) for x in row] for row in liabilities], [F(x) for x in cash])


def assert_relative_error_within(got, exact, bound):
    assert all(abs(F(a) - b) <= F(bound) * abs(b) for a, b in zip(got, exact, strict=True))


@pytest.mark.parametrize("liabilities", TINY_EXITS)
def test_float_solve_on_tiny_exits_matches_exact(liabilities):
    net = cf.build_network(liabilities, [1, 0, 0], mode=cf.FLOAT)
    got = cf.fundamental_solve(cf.restrict(net.relative, [1, 2]), [0.5, 0.25])
    exact = binary_twin(liabilities, [1, 0, 0])
    want = cf.fundamental_solve(cf.restrict(exact.relative, [1, 2]), [F(1, 2), F(1, 4)])
    assert_relative_error_within(got, want, 1e-15)


def test_fundamental_solve_rejects_rows_that_do_not_sum_to_one():
    # restricting twice makes the rows of {1, 2} the parent: they miss the
    # mass owed to bank 0. Exactly, 1e-14 is missing, and rational mode
    # names the row; to float mode the rows sum to one within ε n, so the
    # pair is closed and not transient
    liabilities = TINY_EXITS[1]
    e = [F(1, 2), F(1, 4)]
    net = cf.build_network(liabilities, [1, 0, 0])
    sub = cf.restrict(cf.restrict(net.relative, [1, 2]).entries, [0, 1])
    with pytest.raises(RowSumError, match="row 0 of the parent matrix sums to"):
        cf.fundamental_solve(sub, e)
    net = cf.build_network(liabilities, [1, 0, 0], mode=cf.FLOAT)
    sub = cf.restrict(cf.restrict(net.relative, [1, 2]).entries, [0, 1])
    with pytest.raises(SingularSystemError):
        cf.fundamental_solve(sub, [0.5, 0.25])
    # a float row short by more than ε n is named too
    net = cf.build_network([[0, 0, 0], [1e-9, 0, 1], [1e-9, 1, 0]], [1, 0, 0], mode=cf.FLOAT)
    sub = cf.restrict(cf.restrict(net.relative, [1, 2]).entries, [0, 1])
    with pytest.raises(RowSumError, match="row 0 of the parent matrix sums to"):
        cf.fundamental_solve(sub, [0.5, 0.25])
    # the rows of a proportion matrix sum to one, in both modes
    for mode in (cf.RATIONAL, cf.FLOAT):
        net = cf.build_network(liabilities, [1, 0, 0], mode=mode)
        assert all(v > 0 for v in cf.fundamental_solve(cf.restrict(net.relative, [1, 2]), e))


def test_float_joins_decide_by_pivot(monkeypatch):
    # no solve asks the graph test or eliminates: not on the cascades, not
    # where the pivot cancels, not on the swampy networks' many kinds of bank
    def refuse(*args):
        raise AssertionError("graph test or elimination called")

    monkeypatch.setattr(cf.markov, "solve_linear", refuse)
    monkeypatch.setattr(cf.markov, "is_transient", refuse)
    for seed in range(6):
        net = cf.generate_network(seed, 64, 0.3, "1/4", mode=cf.FLOAT)
        assert cf.run_flow(net).defaults == cf.fictitious_defaults(net)[0].defaults
    for liabilities in TINY_EXITS:
        net = cf.build_network(liabilities, [1, 0, 0], mode=cf.FLOAT)
        cf.fundamental_solve(cf.restrict(net.relative, [1, 2]), [0.5, 0.25])
        network_factor(net).solve([1, 2], [0.5, 0.25])
    for seed in range(10):
        net = swampy_network(seed, cf.FLOAT)
        assert cf.run_flow(net).defaults == cf.fictitious_defaults(net)[0].defaults
        cf.solution_family(net)
        cf.bailout_vector(net)


@given(st.integers(0, 2**16), st.sampled_from([cf.RATIONAL, cf.FLOAT]), st.data())
@settings(max_examples=60, deadline=None)
def test_fresh_solve_raises_exactly_off_transient_sets(seed, mode, data):
    # swampy networks hold closed rings and debt-free banks, so random sets
    # are often not transient
    net = swampy_network(seed, mode)
    banks = data.draw(st.lists(st.integers(0, net.n - 1), min_size=1, unique=True))
    e = [cf.scalars.zero_one(mode)[1]] * len(banks)
    for matrix, solve in (
        (net.relative, lambda: cf.fundamental_solve(cf.restrict(net.relative, banks), e)),
        (net.liabilities, lambda: network_factor(net).solve(banks, e)),
    ):
        try:
            solve()
            solved = True
        except SingularSystemError:
            solved = False
        assert solved == reachability_transient(cf.restrict(matrix, banks))


def network_factor(net):
    """The factor the flow carries: (diag(b) - L^T)_B over every bank."""
    return cf.markov.ZeroGroupFactor(net.debts, net.total_debt, net.mode)


def integer_balance_matrix(net, banks):
    """K_B = (diag(b) - L^T)_B diag(s) of a rational network, as ints: column
    j scaled by s_j (`oracles.row_scale`), which clears bank j's row."""
    scales = {j: row_scale(net.liabilities, net.total_debt, j) for j in banks}
    return [
        [int(scales[j] * ((net.total_debt[i] if i == j else 0) - net.liabilities[j][i]))
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
        expected = cf.fundamental_solve(cf.restrict(net.relative, banks), e) if banks else []
        if mode == cf.RATIONAL:
            assert got == expected
            k = integer_balance_matrix(net, factor.banks)
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


def test_float_factor_keeps_a_small_pivot():
    # banks 1 and 2 owe each other 1 and bank 0 only 1e-14: the Schur pivot
    # of the second join, about 2e-14, is recomputed from the exits
    net = cf.build_network(TINY_EXITS[1], [1, 0, 0], mode=cf.FLOAT)
    factor = network_factor(net)
    factor.solve([1], [0.5])
    assert factor.banks == [1]
    v = factor.solve([1, 2], [0.5, 0.5])
    assert factor.banks == [1, 2]
    exact = network_factor(binary_twin(TINY_EXITS[1], [1, 0, 0])).solve([1, 2], [F(1, 2), F(1, 2)])
    assert_relative_error_within(v, exact, 1e-15)
    # deleting bank 2 meets the same small pivot: the factor is reset and
    # bank 1 bordered afresh
    assert_relative_error_within(factor.solve([1], [0.5]), [F(1, 2)], 1e-15)
    assert factor.banks == [1]


def test_float_fallback_solves_the_balance_system():
    # bank 2 owes bank 1 twice what bank 1 owes it, so the system is not
    # symmetric; the Schur pivot of the second join is about 3e-14
    net = cf.build_network(TINY_EXITS[0], [1, 0, 0], mode=cf.FLOAT)
    factor = network_factor(net)
    e = [0.5, 0.25]
    v = factor.solve([1, 2], e)
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


def join_against_dense_oracle(factor, k):
    """Border bank k through `solve` and check the factor against
    `dense_border`: adj and det equal in rational mode, adj equal by
    `float.hex` in float mode; a join the oracle refuses raises and resets."""
    expected = dense_border(factor, k)
    banks = [*factor.banks, k]
    zero = F(0) if factor.exact else 0.0
    if expected is None:
        with pytest.raises(SingularSystemError):
            factor.solve(banks, [zero] * len(banks))
        assert factor.banks == [] and factor.adj == []
        return
    factor.solve(banks, [zero] * len(banks))
    adj, det = expected
    assert factor.banks == banks
    if factor.exact:
        assert factor.adj == adj and factor.det == det
    else:
        assert [[x.hex() for x in row] for row in factor.adj] == [
            [x.hex() for x in row] for row in adj
        ]


def nonzeros_in_group(factor, k):
    """How many entries of bank k's new column u and row v are nonzero,
    each counted up to 2 (several)."""
    column = sum(1 for b in factor.banks if b in dict(factor.rows[k]))
    row = sum(1 for b in factor.banks if k in dict(factor.rows[b]))
    return min(column, 2), min(row, 2)


@pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
def test_joins_match_the_dense_border_oracle(mode):
    # banks join in a shuffled order, on sparse networks with closed rings
    # (whose joins are refused and reset the factor) and on dense cascades
    seen = set()
    rng = random.Random(mode)
    networks = [swampy_network(seed, mode) for seed in range(8)]
    networks += [cf.generate_network(seed, 24, 0.3, "1/4", mode=mode) for seed in range(4)]
    for net in networks:
        order = [i for i in range(net.n) if net.total_debt[i] > 0]
        rng.shuffle(order)
        factor = network_factor(net)
        for k in order:
            seen.add(nonzeros_in_group(factor, k))
            join_against_dense_oracle(factor, k)
    # u and v each with no, one and several nonzero entries in B
    assert seen == {(a, b) for a in range(3) for b in range(3)}


@pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
def test_join_into_an_empty_factor_matches_the_dense_border_oracle(mode):
    net = cf.generate_network(5, 10, 0.4, "1/4", mode=mode)
    for k in range(net.n):
        if net.total_debt[k] > 0:
            join_against_dense_oracle(network_factor(net), k)
    # then joins one after another on the proportions with unit weights, as
    # `fundamental_solve` factors them; the first is into an empty factor
    _, one = cf.scalars.zero_one(mode)
    factor = cf.markov.ZeroGroupFactor(net.shares, [one] * net.n, mode)
    for k in range(net.n):
        join_against_dense_oracle(factor, k)


def test_float_join_after_a_reset_matches_the_dense_border_oracle():
    # deleting bank 2 meets a small Schur pivot and resets the factor; the
    # joins that follow start from the empty set, and bank 2's pivot is
    # recomputed from the masses leaving the set
    net = cf.build_network(TINY_EXITS[1], [1, 0, 0], mode=cf.FLOAT)
    factor = network_factor(net)
    factor.solve([1, 2], [0.5, 0.5])
    fresh = network_factor(net)
    join_against_dense_oracle(fresh, 1)
    factor.solve([1], [0.5])
    assert factor.banks == [1]
    assert [x.hex() for x in factor.adj[0]] == [x.hex() for x in fresh.adj[0]]
    join_against_dense_oracle(factor, 2)
    join_against_dense_oracle(factor, 0)


class RowReads(Sequence):
    """A matrix, or a vector, that counts the reads of each of its rows (or
    entries)."""

    def __init__(self, rows):
        self.rows, self.reads = rows, Counter()

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        self.reads[i] += 1
        return self.rows[i]

    @property
    def read(self) -> set[int]:
        return set(self.reads)


class EntryReads(RowReads):
    """Sparse rows that also count, per row, the entries its readers take."""

    def __init__(self, rows):
        super().__init__(rows)
        self.taken = Counter()

    def __getitem__(self, i):
        return self._counted(i, super().__getitem__(i))

    def _counted(self, i, row):
        for entry in row:
            self.taken[i] += 1
            yield entry


class AskedFactor(cf.markov.ZeroGroupFactor):
    """A factor of the network's sparse debt rows and total debts, read
    through `RowReads`, that keeps every bank it was asked to solve for."""

    def __init__(self, net):
        super().__init__(RowReads(net.debts), RowReads(net.total_debt), net.mode)
        self.asked = set()

    def solve(self, banks, e):
        self.asked.update(banks)
        return super().solve(banks, e)


@pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
def test_a_factor_reads_only_the_rows_of_banks_that_join(mode, monkeypatch):
    # the flow's, fd's and the big bang's factors, and fresh solves of
    # `fundamental_solve` and `invariant_distribution`, read no row of a
    # bank they never solve for
    factors = []

    def recording(net):
        factors.append(AskedFactor(net))
        return factors[-1]

    monkeypatch.setattr(cf.flow, "_network_factor", recording)
    networks = [swampy_network(seed, mode) for seed in range(6)]
    networks += [cf.generate_network(seed, 12, 0.3, "1/4", mode=mode) for seed in range(4)]
    unread = 0
    for net in networks:
        factors.clear()
        cf.run_flow(net)
        cf.fictitious_defaults(net)
        cf.big_bang_partition(net)
        assert factors
        for factor in factors:
            assert factor.rows.read <= factor.asked
            assert factor.diagonal.read <= factor.asked
            unread += net.n - len(factor.rows.read)
        decomposition = cf.decompose_nonactive(net)
        for swamp in decomposition.swamps:
            sub = cf.restrict(RowReads(net.relative), swamp)
            sub.parent.reads.clear()
            cf.invariant_distribution(sub)
            assert sub.parent.read <= set(swamp)
        banks = sorted(decomposition.transient)
        if banks:
            sub = cf.restrict(RowReads(net.relative), banks)
            sub.parent.reads.clear()
            _, one = cf.scalars.zero_one(mode)
            cf.fundamental_solve(sub, [one] * len(banks))
            assert sub.parent.read <= set(banks)
    # and some factor leaves some row unread
    assert unread > 0


@pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
def test_a_factor_reads_each_row_and_debt_once(mode, monkeypatch):
    # the flow's, fd's and the big bang's factors, and the fresh factors of
    # `fundamental_solve`, `invariant_distribution` and the family's swamp
    # weights, read each row of their matrix and each entry of their
    # diagonal at most once, however often its bank joins, leaves and is
    # solved for, and of a row only its bank's nonzero entries
    made = []

    class CountedFactor(cf.markov.ZeroGroupFactor):
        def __init__(self, rows, diagonal, mode):
            super().__init__(EntryReads(rows), RowReads(diagonal), mode)
            made.append(self)

    monkeypatch.setattr(cf.flow, "ZeroGroupFactor", CountedFactor)
    monkeypatch.setattr(cf.markov, "ZeroGroupFactor", CountedFactor)
    _, one = cf.scalars.zero_one(mode)
    networks = [swampy_network(seed, mode) for seed in range(6)]
    networks += [cf.generate_network(seed, 12, 0.3, "1/4", mode=mode) for seed in range(6)]
    fresh = 0
    for net in networks:
        first = len(made)
        cf.run_flow(net)
        cf.fictitious_defaults(net)
        cf.big_bang_partition(net)
        decomposition = cf.decompose_nonactive(net)
        before = len(made)
        for swamp in decomposition.swamps:
            cf.invariant_distribution(cf.restrict(net.relative, swamp))
        banks = sorted(decomposition.transient)
        if banks:
            cf.fundamental_solve(cf.restrict(net.relative, banks), [one] * len(banks))
        cf.solution_family(net)
        fresh += len(made) - before
        liabilities, relative = net.liabilities, net.relative
        for factor in made[first:]:
            dense = liabilities if factor.diagonal.rows is net.total_debt else relative
            assert factor.rows.taken == Counter(
                {k: sum(1 for x in dense[k] if x) for k in factor.rows.read}
            )
    assert fresh > 0 and len(made) > fresh
    reads = [
        count
        for factor in made
        for reader in (factor.rows, factor.diagonal)
        for count in reader.reads.values()
    ]
    assert reads and max(reads) == 1


def huge_prime_network(seed: int, digits: int) -> cf.FinancialNetwork:
    """A swampy network whose every nonzero debt gains m / p: a numerator
    m of `digits` digits over its own prime p above 10^6."""
    net = swampy_network(seed)
    rng = random.Random(seed)
    cells = [(i, j) for i in range(net.n) for j, _ in net.shares[i] if net.liabilities[i][j]]
    primes = iter(primes_from(10**6 + 10**4 * seed, len(cells)))
    debts = [list(row) for row in net.liabilities]
    for i, j in cells:
        debts[i][j] += F(rng.randint(1, 10**digits), next(primes))
    return cf.build_network(debts, net.cash)


@pytest.mark.parametrize("digits", [1, 4400])
@pytest.mark.parametrize("seed", range(4))
def test_rational_held_moves_match_fraction_sums(seed, digits):
    # banks join and leave the held set, at 1, at their caps and at other
    # rates; after each move the held in-rates, the solve on the banks left
    # out and the full in-rates equal plain Fraction sums
    net = huge_prime_network(seed, digits)
    rng = random.Random(seed)
    factor = network_factor(net)
    indebted = [i for i in range(net.n) if net.total_debt[i]]
    everyone = range(net.n)
    held = set(rng.sample(indebted, len(indebted) // 2))
    for _ in range(6):
        rates = [F(0)] * net.n
        for j in held:
            rates[j] = rng.choice([F(1), net.total_debt[j], F(rng.randint(1, 9), rng.randint(1, 9))])
        e = factor.held_inflow(net, sorted(held), rates, everyone)
        assert exact_form(e) == exact_form(dense_balance_rates(net, rates))
        assert exact_form(cf.balance_rates(net, rates)) == exact_form(e)
        solve_set = [i for i in cf.decompose_nonactive(net).transient if i not in held][:4]
        if solve_set:
            v = factor.solve(solve_set, [e[i] for i in solve_set])
            for i, x in zip(solve_set, v):
                rates[i] = x
        assert exact_form(factor.inflow(net, rates)) == exact_form(dense_balance_rates(net, rates))
        # the next round draws each held rate anew, so some change and
        # some stay; one bank leaves and another may join
        held.discard(rng.choice(sorted(held)))
        held.add(rng.choice(indebted))


@pytest.mark.parametrize("digits", [1, 4400])
@pytest.mark.parametrize("seed", range(4))
def test_rational_solve_answers_match_fraction_elimination(seed, digits):
    # the factor builds each answer from its integers with one gcd; inputs
    # of 0, ints, amounts over primes above 10^6 and numerators of up to
    # `digits` digits give the normalized Fractions of plain elimination
    net = huge_prime_network(seed, digits)
    rng = random.Random(seed)
    primes = iter(primes_from(2 * 10**6 + 10**4 * seed, 40))
    transient = sorted(cf.decompose_nonactive(net).transient)
    factor = network_factor(net)
    for _ in range(4):
        banks = rng.sample(transient, min(len(transient), rng.randint(1, 5)))
        e = [
            rng.choice([0, F(0), rng.randint(1, 9), F(rng.randint(1, 10**digits), next(primes))])
            for _ in banks
        ]
        expected = gauss_jordan_solve(balance_rows(cf.restrict(net.relative, banks)), e)
        assert exact_form(factor.solve(banks, e)) == exact_form(expected)


@pytest.mark.parametrize("seed", range(6))
def test_float_in_rates_equal_the_plain_loop(seed):
    net = swampy_network(seed, cf.FLOAT)
    rng = random.Random(seed)
    rates = [0.0 if rng.random() < 0.3 else rng.random() for _ in range(net.n)]
    banks = rng.sample(range(net.n), net.n)
    expected = [0.0] * net.n
    for j in banks:
        if rates[j]:
            for i, q in net.shares[j]:
                expected[i] += rates[j] * q
    got = cf.markov.in_rates(net, banks, rates)
    assert [x.hex() for x in got] == [x.hex() for x in expected]


@pytest.mark.parametrize("seed", range(8))
def test_factor_determinant_within_the_hadamard_bound(seed):
    # rows with their own prime denominators: the determinant on fd's final
    # system stays within the Hadamard bound of K_B with each column scaled
    # by its own row's s_j, far below one scale over every row
    net = prime_denominator_network(seed, 8 + seed % 5)
    _, trace = cf.fictitious_defaults(net)
    banks, e, r = trace.solves[-1]
    factor = network_factor(net)
    assert factor.solve(banks, list(e)) == list(r)
    k = integer_balance_matrix(net, factor.banks)
    m = len(k)
    assert m >= 3
    bound = sum(math.log2(sum(k[i][j] ** 2 for i in range(m))) / 2 for j in range(m))
    assert 0 < factor.det.bit_length() <= bound + 1
    product = [
        [sum(k[i][t] * factor.adj[t][j] for t in range(m)) for j in range(m)] for i in range(m)
    ]
    assert product == [[factor.det if i == j else 0 for j in range(m)] for i in range(m)]


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
        dec = cf.decompose_nonactive(net_1c)
        assert dec.swamps == ((1, 2, 3),)
        assert dec.transient == frozenset()
        assert dec.nonactive_absorbing == frozenset()

    def test_all_active_all_empty(self, net_1a):
        dec = cf.decompose_nonactive(net_1a)
        assert dec.swamps == ()
        assert dec.transient == frozenset()
        assert dec.nonactive_absorbing == frozenset()

    def test_chain_into_active_is_transient(self):
        # bank 0 owes only the active bank 1; no swamp, and it never pays
        net = cf.build_network([[0, 2, 0], [0, 0, 1], [0, 0, 0]], [0, 1, 0])
        act = cf.active_set(net)
        assert 0 not in act
        dec = cf.decompose_nonactive(net)
        assert dec.transient == frozenset({0})
        assert dec.swamps == ()
        assert cf.picard_iterate(net)[0] == 0

    def test_partition_covers_everything(self, net_1c):
        dec = cf.decompose_nonactive(net_1c)
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

    def test_two_closed_classes_rejected(self):
        # nothing leaves {0, 1, 2}, but the 2-cycle and the debt-free bank
        # (its unit self-loop) are two closed classes
        net = cf.build_network([[0, 1, 0], [2, 0, 0], [0, 0, 0]], [0, 0, 0])
        sub = cf.restrict(net.relative, [0, 1, 2])
        with pytest.raises(NotErgodicError, match="not a single communicating class"):
            cf.invariant_distribution(sub)


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
