"""Fictitious defaults, fixed-point iteration, verification, families, bailouts."""

from __future__ import annotations

import fractions
import importlib.util
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import clearflow as cf
from clearflow.errors import InvalidParamsError, NoConvergenceError, OutOfRangeError
from clearflow import flow, solvers
from conftest import BESIDE_LIABILITIES, wide_magnitude_network, with_cash


class TestPhi:
    def test_full_debt_image(self, net_1a):
        eps = F(1, 36)
        image = cf.phi(net_1a, net_1a.total_debt)
        assert image == [1, 2, eps + 1, eps + 3, 0]

    def test_clearing_vector_is_fixed(self, net_1a):
        p = cf.run_flow(net_1a).payments
        assert cf.phi(net_1a, p) == list(p)

    def test_zero_payments(self, net_1a):
        assert cf.phi(net_1a, (0,) * 5) == [
            min(net_1a.cash[i], net_1a.total_debt[i]) for i in range(5)
        ]

    def test_out_of_range_rejected(self, net_1a):
        with pytest.raises(OutOfRangeError):
            cf.phi(net_1a, (0, 0, 0, 5, 0))
        with pytest.raises(OutOfRangeError):
            cf.phi(net_1a, (0, 0, 0, -1, 0))


    def test_wrong_length_rejected(self, net_1a):
        with pytest.raises(OutOfRangeError, match="payment vector has length 4, expected 5"):
            cf.phi(net_1a, (0, 0, 0, 0))


class TestVerifyClearing:
    def test_flow_solution_has_zero_residual(self, net_1a):
        assert cf.verify_clearing(net_1a, cf.run_flow(net_1a).payments) == 0

    def test_full_payment_on_funded_network(self):
        net = cf.build_network([[0, 1], [1, 0]], [2, 2])
        assert cf.verify_clearing(net, net.total_debt) == 0

    def test_perturbation_is_detected(self, net_1a):
        p = list(cf.run_flow(net_1a).payments)
        for delta in (F(1, 7), F(1, 100), F(1, 10**6)):
            bumped = list(p)
            bumped[2] = bumped[2] - delta
            residual = cf.verify_clearing(net_1a, bumped)
            assert residual >= delta / 2


class TestFictitiousDefaults:
    def test_example_1a_trace(self, net_1a):
        eps = F(1, 36)
        result, trace = cf.fictitious_defaults(net_1a)
        assert trace.default_sets[0] == frozenset({2, 3})
        assert trace.default_sets[1] == frozenset({1, 2, 3})
        assert trace.solves[0][0] == (2, 3)
        assert trace.solves[0][2] == (eps + 1, 2 * eps + 1)
        assert trace.solves[1][1] == (eps + F(1, 3), eps, eps)
        assert result.payments == (1, 6 * eps + F(2, 3), 4 * eps + F(1, 3), 5 * eps + F(1, 3), 0)
        assert trace.outer_iterations == 3

    def test_trace_type_resolves_from_each_module(self, net_1a):
        _, trace = cf.fictitious_defaults(net_1a)
        assert type(trace) is cf.FDTrace is solvers.FDTrace is flow.FDTrace

    def test_fully_funded_one_application(self):
        net = cf.build_network([[0, 1], [1, 0]], [2, 2])
        result, trace = cf.fictitious_defaults(net)
        assert result.payments == (1, 1)
        assert trace.default_sets == (frozenset(),)
        assert trace.solves == ()

    def test_monotone_descent(self, net_1a, net_1b):
        for net in (net_1a, net_1b):
            result, trace = cf.fictitious_defaults(net)
            for prev, nxt in zip(trace.iterates, trace.iterates[1:]):
                assert all(y <= x for x, y in zip(prev, nxt))
            basic = cf.run_flow(net).payments
            for iterate in trace.iterates:
                assert all(b <= x for b, x in zip(basic, iterate))

    def test_default_sets_grow(self, net_1a):
        _, trace = cf.fictitious_defaults(net_1a)
        for prev, nxt in zip(trace.default_sets, trace.default_sets[1:]):
            assert prev <= nxt
        assert len(trace.solves) <= net_1a.n

    def test_agrees_with_flow_on_swamp_network(self, net_1c):
        result, _ = cf.fictitious_defaults(net_1c)
        assert result.payments == cf.run_flow(net_1c).payments == (1, 0, 0, 0, 0)

    def test_restricted_solve_respects_caps(self, net_1a):
        # each inner solve stays at or below the debts of its defaulting set
        _, trace = cf.fictitious_defaults(net_1a)
        for banks, _e, r in trace.solves:
            for bank, value in zip(banks, r):
                assert value <= net_1a.total_debt[bank]


class TestPicard:
    def test_example_1a_matches_flow(self, net_1a):
        flow_payments = cf.run_flow(net_1a).payments
        approx = cf.picard_iterate(net_1a, tol=F(1, 10**13))
        drift = max(abs(a - b) for a, b in zip(approx, flow_payments))
        assert drift <= F(1, 10**12)

    def test_no_debts_single_application(self):
        net = cf.build_network([[0, 0], [0, 0]], [1, 2])
        assert cf.picard_iterate(net) == [0, 0]

    def test_swamp_limit_is_greatest_vector(self, net_1c):
        assert cf.picard_iterate(net_1c) == [1, 2, 2, 2, 0]

    def test_float_mode(self, net_1a):
        as_float = cf.convert_network(net_1a, cf.FLOAT)
        flow_payments = cf.run_flow(net_1a).payments
        approx = cf.picard_iterate(as_float)
        drift = max(abs(float(a) - b) for a, b in zip(flow_payments, approx))
        assert drift <= 1e-12

    @pytest.mark.parametrize("params", [
        {"max_iter": 0}, {"max_iter": -3}, {"tol": -1e-9}, {"tol": math.nan}, {"tol": math.inf},
    ])
    def test_invalid_params_rejected(self, net_1a, params):
        with pytest.raises(InvalidParamsError):
            cf.picard_iterate(cf.convert_network(net_1a, cf.FLOAT), **params)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, False, "3", F(3)])
    def test_max_iter_must_be_a_plain_int(self, net_1a, max_iter):
        # a float would fail in range() and True would run one iteration
        with pytest.raises(InvalidParamsError, match="max_iter must be an int"):
            cf.picard_iterate(net_1a, max_iter=max_iter)
        assert cf.picard_iterate(net_1a, max_iter=1000) == cf.picard_iterate(net_1a)

    @pytest.mark.parametrize("liabilities, cash, expected", [
        ([[0, 1e300], [0, 0]], [1e-300, 0], [1e-300, 0.0]),
        ([[0, 1e308], [1e308, 0]], [0, 0], [1e308, 1e308]),
    ])
    def test_default_cap_beyond_float_range(self, liabilities, cash, expected):
        # total debt over the smallest entry overflows a float here
        net = cf.build_network(liabilities, cash, mode=cf.FLOAT)
        assert solvers._default_cap(net) == solvers.PICARD_MAX_CAP
        assert cf.picard_iterate(net) == expected

    def test_float_tol_in_rational_mode(self, net_1a):
        assert cf.picard_iterate(net_1a, tol=0.5) == cf.picard_iterate(net_1a, tol=F(1, 2))

    def test_default_cap_without_positive_amounts(self):
        assert solvers._default_cap(cf.build_network([[0, 0], [0, 0]], [0, 0])) == 20

    def test_empty_network(self):
        net = cf.build_network([], [])
        assert cf.picard_iterate(net) == []
        assert cf.run_flow(net).payments == ()
        result, trace = cf.fictitious_defaults(net)
        assert result.payments == ()
        assert trace.iterates == ((), ())

    def test_iteration_cap_reported(self, net_1a):
        with pytest.raises(NoConvergenceError):
            cf.picard_iterate(net_1a, max_iter=3, tol=F(0))


class TestSolutionFamily:
    def test_example_1c(self, net_1c):
        family = cf.solution_family(net_1c)
        assert family.basic == (1, 0, 0, 0, 0)
        assert not family.unique
        assert len(family.swamps) == 1
        swamp = family.swamps[0]
        assert swamp.banks == (1, 2, 3)
        assert swamp.scale == 6
        assert swamp.payments == (2, 2, 2)
        assert family.greatest == (1, 2, 2, 2, 0)

    def test_variant_bound(self, net_1c_variant):
        family = cf.solution_family(net_1c_variant)
        swamp = family.swamps[0]
        assert swamp.scale == F(15, 2)
        assert swamp.payments == (F(3, 2), 3, 3)
        assert family.greatest == (1, F(3, 2), 3, 3, 0)

    def test_no_swamp_family_is_point(self, net_1a):
        family = cf.solution_family(net_1a)
        assert family.unique
        assert family.basic == family.greatest

    def test_members_are_clearing_vectors(self, net_1c):
        family = cf.solution_family(net_1c)
        for s in (F(0), F(1, 3), F(1, 2), F(7, 8), F(1)):
            member = family.member([s])
            assert cf.verify_clearing(net_1c, member) == 0

    def test_member_coefficients_validated(self, net_1c):
        family = cf.solution_family(net_1c)
        with pytest.raises(OutOfRangeError):
            family.member([F(3, 2)])
        with pytest.raises(OutOfRangeError):
            family.member([])

    def test_greatest_equals_picard_limit(self, net_1c, net_1c_variant):
        for net in (net_1c, net_1c_variant):
            family = cf.solution_family(net)
            assert list(family.greatest) == cf.picard_iterate(net)


class TestBailout:
    def test_fully_funded_needs_nothing(self):
        net = cf.build_network([[0, 1], [1, 0]], [2, 2])
        plan = cf.bailout_vector(net)
        assert plan.injections == (0, 0)
        assert plan.verified

    def test_two_bank_chain(self):
        net = cf.build_network([[0, 1], [0, 0]], [0, 0])
        plan = cf.bailout_vector(net)
        assert plan.unpaid == (1, 0)
        assert plan.injections == (1, 0)
        assert plan.verified

    def test_example_1b_postconditions(self, net_1b):
        plan = cf.bailout_vector(net_1b)
        assert plan.unpaid == (0, F(2, 3), F(7, 3), F(10, 3), 0)
        for x, k in zip(plan.injections, plan.unpaid):
            assert 0 <= x <= k
        assert plan.verified

    def test_example_1b_injections(self, net_1b):
        # bank 2 is overfed once banks 3 and 4 are bailed out (it receives
        # 2/3 + 4 against a debt of 2), so its own injection floors at zero
        plan = cf.bailout_vector(net_1b)
        assert plan.injections == (0, 0, 2, 1, 0)

    def test_replay_with_injections_pays_everything(self, net_1b):
        plan = cf.bailout_vector(net_1b)
        boosted = [c + x for c, x in zip(net_1b.cash, plan.injections)]
        result = cf.run_flow(with_cash(net_1b, boosted))
        assert result.payments == net_1b.total_debt
        for i in cf.run_flow(net_1b).defaults:
            if plan.injections[i] > 0:
                assert result.final_cash[i] == 0

    def test_total_injection_no_more_than_unpaid(self, net_1b):
        plan = cf.bailout_vector(net_1b)
        assert sum(plan.injections) <= sum(plan.unpaid)

    def test_swamp_network_bailout(self, net_1c):
        # the cycle's own circulation covers most of its debts; only the
        # imbalance between cycle debts needs outside money
        plan = cf.bailout_vector(net_1c)
        assert plan.unpaid == (0, 2, 3, 4, 0)
        assert plan.injections == (0, 0, 1, 1, 0)
        assert plan.verified


    def test_one_verification_replay(self, net_1b, net_1c, monkeypatch):
        # payments and final cash come from fictitious defaults: one run for
        # the plan, one for the replay, one for a family, and no flow at all
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran")

        monkeypatch.setattr(flow, "run_flow", no_flow)
        runs = []
        real = solvers.fictitious_defaults
        monkeypatch.setattr(
            solvers, "fictitious_defaults", lambda net: runs.append(net) or real(net)
        )
        assert not hasattr(solvers, "run_flow")
        cf.bailout_vector(net_1b)
        assert len(runs) == 2
        assert runs[1].liabilities is net_1b.liabilities
        assert runs[1].relative is net_1b.relative
        runs.clear()
        cf.solution_family(net_1c)
        assert len(runs) == 1

    def test_balanced_swamp_needs_a_seed(self):
        # two cashless banks each owing the other 2/3: any cash at all clears
        # both debts, so no least injection exists and none is made
        net = cf.build_network([[0, F(2, 3)], [F(2, 3), 0]], [0, 0])
        plan = cf.bailout_vector(net)
        assert plan.unpaid == (F(2, 3), F(2, 3))
        assert plan.injections == (0, 0)
        assert plan.seed_required == ((0, 1),)
        assert plan.verified

    def test_balanced_swamp_beside_fed_swamp(self):
        # banks 2 and 3 form a swamp that clears once bank 4, owed nothing,
        # is injected and pays bank 2; banks 0 and 1 are a balanced swamp
        net = cf.build_network(BESIDE_LIABILITIES, [0] * 5)
        plan = cf.bailout_vector(net)
        assert plan.unpaid == (F(2, 3), F(2, 3), 2, 1, 1)
        assert plan.injections == (0, 0, 0, 0, 1)
        assert plan.seed_required == ((0, 1),)
        assert plan.verified
        replay = cf.run_flow(with_cash(net, plan.injections))
        assert replay.payments == (0, 0, 2, 1, 1)
        assert replay.final_cash == (0, 0, 0, 1, 0)


class TestFloatBailout:
    #: float answers agree with exact ones to this fraction of the largest debt
    TOL = 1e-9

    @pytest.mark.parametrize("seed,n", [(1, 32)] + [(seed, 64) for seed in range(6)])
    def test_generated_network_matches_rational(self, seed, n):
        # the verification replay used to stop on a zero-duration event: a
        # float debt snapped to zero without absorbing its bank
        exact = cf.generate_network(seed, n, 0.3, "1/4")
        plan = cf.bailout_vector(cf.convert_network(exact, cf.FLOAT))
        assert plan.verified
        paid = cf.fictitious_defaults(exact)[0].payments
        b, c, liabilities = exact.total_debt, exact.cash, exact.liabilities
        scale = float(max(b))
        for i in range(n):
            # least injection: whatever full payment by all others leaves short
            least = max(F(0), b[i] - c[i] - sum(liabilities[j][i] for j in range(n)))
            assert abs(plan.unpaid[i] - float(b[i] - paid[i])) <= self.TOL * scale
            assert abs(plan.injections[i] - float(least)) <= self.TOL * scale

    @pytest.mark.parametrize("seed", [224, 369])
    def test_wide_magnitude_network_matches_rational(self, seed):
        # neither the plan nor the family runs the flow; test_flow.py checks
        # the float flow on these networks
        approx = wide_magnitude_network(seed)
        exact = cf.convert_network(approx, cf.RATIONAL)
        plan, reference = cf.bailout_vector(approx), cf.bailout_vector(exact)
        basic = cf.solution_family(approx).basic
        least = cf.solution_family(exact).basic
        assert plan.verified
        assert plan.seed_required == reference.seed_required
        bound = 1e-12 * float(max(exact.total_debt))
        for got, want in [
            (plan.unpaid, reference.unpaid),
            (plan.injections, reference.injections),
            (basic, least),
        ]:
            assert max(abs(a - float(b)) for a, b in zip(got, want)) <= bound
        defaulters = [i for i, k in enumerate(plan.unpaid) if k > 0]
        assert defaulters == [i for i, k in enumerate(reference.unpaid) if k > 0]


class TestThreeWayAgreement:
    def test_examples_agree(self, net_1a, net_1a_boundary, net_1b):
        for net in (net_1a, net_1a_boundary, net_1b):
            flow_result = cf.run_flow(net)
            fd_result, _ = cf.fictitious_defaults(net)
            assert flow_result.payments == fd_result.payments
            approx = cf.picard_iterate(cf.convert_network(net, cf.FLOAT))
            drift = max(
                abs(float(a) - b) for a, b in zip(flow_result.payments, approx)
            )
            assert drift <= 1e-12


def bench_swamp_networks(count: int):
    """The first `count` networks of the benchmark's exact-swamps workload at
    seed 29, from `bench/workloads.py`: 80 sparse banks each, with swamps."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    for k in range(count):
        debts, cash = workloads.swamp_network(workloads.instance_seed("exact-swamps", 29, k))
        yield cf.build_network(debts, cash)


def fraction_operator_calls(function) -> int:
    """Calls of `Fraction`'s arithmetic operators, the forward and reverse
    functions of fractions.py, made while `function()` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (
            event == "call"
            and code.co_name in ("forward", "reverse")
            and code.co_filename == fractions.__file__
        ):
            calls += 1

    sys.setprofile(count)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


def test_command_edges_make_fewer_fraction_operations_than_banks():
    # parsing, wrapping fd's payments in a result and the clearing residual
    # work on integers: no per-bank Fraction operator is left in them
    for net in bench_swamp_networks(4):
        text = cf.serialize_network(net)
        payments = cf.fictitious_defaults(net)[0].payments
        assert net.n == 80
        assert fraction_operator_calls(lambda: cf.parse_network(text)) < net.n
        assert fraction_operator_calls(
            lambda: solvers.result_from_payments(net, payments, "fd")
        ) < net.n
        assert fraction_operator_calls(lambda: cf.verify_clearing(net, payments)) < net.n
