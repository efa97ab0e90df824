"""Network construction, validation, status classification, serialization."""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction as F

import pytest

import clearflow as cf
from clearflow.errors import (
    DimensionMismatchError,
    NegativeEntryError,
    ParseError,
    SchemaError,
    SelfDebtError,
)
from conftest import statuses_of, swampy_network, with_cash
from oracles import dense_proportions


class TestBuildNetwork:
    def test_example_total_debt_and_transposed_proportions(self, net_1a):
        assert net_1a.total_debt == (F(1), F(2), F(3), F(4), F(0))
        a, b = F(1, 3), F(1, 2)
        q_t_expected = [
            [0, 0, 0, 0, 0],
            [a, 0, 0, 1, 0],
            [0, 1 - b, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [1 - a, b, 0, 0, 1],
        ]
        q_t = [[net_1a.relative[j][i] for j in range(5)] for i in range(5)]
        assert q_t == q_t_expected

    def test_zero_debt_rows_become_self_loops(self):
        net = cf.build_network([[0, 0], [0, 0]], [1, 2])
        assert net.total_debt == (F(0), F(0))
        assert net.relative == ((F(1), F(0)), (F(0), F(1)))

    def test_bank_five_gets_unit_self_loop(self, net_1a):
        assert net_1a.relative[4] == (F(0), F(0), F(0), F(0), F(1))

    def test_row_stochastic(self, net_1a):
        for row in net_1a.relative:
            assert sum(row) == 1

    def test_reconstruction(self, net_1a):
        for i in range(net_1a.n):
            if net_1a.total_debt[i] > 0:
                for j in range(net_1a.n):
                    assert net_1a.relative[i][j] * net_1a.total_debt[i] == net_1a.liabilities[i][j]

    def test_rejects_self_debt(self):
        with pytest.raises(SelfDebtError):
            cf.build_network([[1, 0], [0, 0]], [1, 1])

    def test_rejects_negative_liability(self):
        with pytest.raises(NegativeEntryError):
            cf.build_network([[0, -1], [0, 0]], [1, 1])

    def test_rejects_negative_cash(self):
        with pytest.raises(NegativeEntryError):
            cf.build_network([[0, 1], [0, 0]], [1, -1])

    def test_rejects_ragged_matrix(self):
        with pytest.raises(DimensionMismatchError):
            cf.build_network([[0, 1], [0]], [1, 1])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cf.build_network([[0, 1], [0, 0]], [1, 1, 1])

    def test_rejects_nonfinite_float(self):
        with pytest.raises(NegativeEntryError):
            cf.build_network([[0.0, float("nan")], [0.0, 0.0]], [1.0, 1.0], mode=cf.FLOAT)

    def test_nonfinite_errors_name_the_entry(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(NegativeEntryError, match=r"cash\[1\] is not finite"):
                cf.build_network([[0.0, 1.0], [0.0, 0.0]], [1.0, bad], mode=cf.FLOAT)
        with pytest.raises(NegativeEntryError, match=r"liability\[0\]\[1\] is not finite"):
            cf.build_network([[0.0, float("-inf")], [0.0, 0.0]], [1.0, 1.0], mode=cf.FLOAT)

    def test_rejects_total_debt_beyond_float_range(self):
        # two finite debts of 1e308 sum to inf, which would make every
        # proportion 0 and zero_tol infinite
        with pytest.raises(NegativeEntryError, match=r"total debt of bank 0 is not finite"):
            cf.build_network(
                [[0.0, 1e308, 1e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                [1.0, 0.0, 0.0],
                mode=cf.FLOAT,
            )

    def test_huge_fraction_is_accepted(self):
        # exact amounts are never converted to float, so none can overflow
        huge = F(10**400, 3)
        net = cf.build_network([[0, huge], [0, 0]], [huge, 0])
        assert net.total_debt == (huge, 0)

    @pytest.mark.parametrize("mode,kind", [(cf.RATIONAL, F), (cf.FLOAT, float)])
    def test_proportions_have_the_mode_type(self, mode, kind):
        zero = kind(0)
        nets = [
            cf.build_network([[0, 1, 0], [0, 0, 0], [2, 3, 0]], [1, 0, 0], mode=mode),
            cf.generate_network(3, 12, 0.3, "1/4", mode=mode),
            swampy_network(3, mode=mode),
        ]
        for net in nets:
            for row in net.relative:
                assert all(type(x) is kind for x in row)
                assert all(repr(x) == repr(zero) for x in row if x == 0)
                if mode == cf.RATIONAL:
                    assert sum(row) == 1
            assert all(type(b) is kind for b in net.total_debt)

    def test_proportions_match_dense_construction(self):
        # the networks of acceptance criterion 9, and float gen at n=64
        rng = random.Random(9)
        nets = []
        for k in range(500):
            n = 2 + k % 7
            net = cf.generate_network(seed=20_000 + k, n=n, density=0.55, cash_scale=1)
            cash = list(net.cash)
            for i in rng.sample(range(n), 1 + rng.randrange(n)):
                cash[i] = F(0)
            nets.append(with_cash(net, cash))
        nets += [cf.generate_network(s, 64, 0.3, "1/4", mode=cf.FLOAT) for s in range(6)]
        for net in nets:
            assert repr((net.relative, net.total_debt)) == repr(dense_proportions(net))


class TestInitialPartition:
    def test_example_1a_all_positive_but_five(self, net_1a):
        assert statuses_of(cf.initial_partition(net_1a)) == "ppppa"

    def test_example_1b_one_positive(self, net_1b):
        assert statuses_of(cf.initial_partition(net_1b)) == "pzzza"

    def test_all_funded_all_positive(self):
        net = cf.build_network([[0, 1], [1, 0]], [1, 1])
        assert statuses_of(cf.initial_partition(net)) == "pp"

    def test_trichotomy_over_grid(self):
        for debt in (F(0), F(1)):
            for cash in (F(0), F(1)):
                status = cf.classify_status(debt, cash, F(0))
                expected = (
                    cf.Status.ABSORBING
                    if debt == 0
                    else cf.Status.POSITIVE if cash > 0 else cf.Status.ZERO
                )
                assert status is expected


class TestSerialization:
    EXAMPLE_1C = """
    {"banks": [{"id": "1", "cash": 1}, {"id": "2", "cash": 0},
               {"id": "3", "cash": 0}, {"id": "4", "cash": 0},
               {"id": "5", "cash": 0}],
     "liabilities": [{"from": "1", "to": "5", "amount": 1},
                     {"from": "2", "to": "3", "amount": 2},
                     {"from": "3", "to": "4", "amount": 3},
                     {"from": "4", "to": "2", "amount": 4}]}
    """

    def test_parse_example_1c(self):
        net = cf.parse_network(self.EXAMPLE_1C)
        assert net.cash == (F(1), F(0), F(0), F(0), F(0))
        assert net.total_debt == (F(1), F(2), F(3), F(4), F(0))

    def test_empty_banks_is_schema_error(self):
        with pytest.raises(SchemaError):
            cf.parse_network('{"banks": [], "liabilities": []}')

    def test_bad_json_is_parse_error(self):
        with pytest.raises(ParseError):
            cf.parse_network("{not json")

    def test_unknown_bank_in_liability(self):
        with pytest.raises(SchemaError):
            cf.parse_network(
                '{"banks": [{"id": "1", "cash": 1}],'
                ' "liabilities": [{"from": "1", "to": "9", "amount": 1}]}'
            )

    def test_rational_strings_parse_exactly(self):
        net = cf.parse_network(
            '{"banks": [{"id": "x", "cash": "2/3"}, {"id": "y", "cash": "0.25"}],'
            ' "liabilities": [{"from": "x", "to": "y", "amount": "7/2"}]}'
        )
        assert net.cash == (F(2, 3), F(1, 4))
        assert net.liabilities[0][1] == F(7, 2)

    def test_round_trip_example(self, net_1a):
        again = cf.parse_network(cf.serialize_network(net_1a))
        assert again == net_1a

    def test_round_trip_csv(self, net_1b):
        banks_text, liab_text = cf.serialize_network_csv(net_1b)
        again = cf.parse_network_csv(banks_text, liab_text)
        assert again == net_1b

    def test_serialized_rationals_are_strings(self, net_1a):
        doc = json.loads(cf.serialize_network(net_1a))
        assert doc["banks"][0]["cash"] == "1"
        amounts = {(e["from"], e["to"]): e["amount"] for e in doc["liabilities"]}
        assert amounts[("1", "2")] == "1/3"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SchemaError):
            cf.parse_network(
                '{"banks": [{"id": "1", "cash": 1}, {"id": "1", "cash": 2}],'
                ' "liabilities": []}'
            )

    def test_float_mode_parse(self):
        net = cf.parse_network(
            '{"banks": [{"id": "1", "cash": 0.5}, {"id": "2", "cash": 1}],'
            ' "liabilities": [{"from": "1", "to": "2", "amount": 2}]}',
            mode=cf.FLOAT,
        )
        assert net.mode == cf.FLOAT
        assert net.cash == (0.5, 1.0)
        assert isinstance(net.zero_tol, float) and net.zero_tol > 0

    def test_amount_beyond_float_range_is_schema_error(self):
        doc = '{"banks": [{"id": "a", "cash": 1e400}, {"id": "b", "cash": 0}]}'
        with pytest.raises(SchemaError, match="1e400"):
            cf.parse_network(doc, mode=cf.FLOAT)
        assert cf.parse_network(doc).cash[0] == 10**400
        for amount in (10**400, 10**5000, F(10**5000, 3)):
            with pytest.raises(SchemaError, match="beyond float range"):
                cf.build_network([[0]], [amount], mode=cf.FLOAT)

    def test_decimal_amount_digits_are_bounded(self):
        start = time.perf_counter()
        for mode in (cf.RATIONAL, cf.FLOAT):
            with pytest.raises(SchemaError, match="1e100000000"):
                cf.parse_network('{"banks": [{"id": "a", "cash": 1e100000000}]}', mode)
        assert time.perf_counter() - start < 1
        # the bound counts digits of the integer form, as int() does for "p/q"
        longest = "9" * 4300
        net = cf.parse_network(
            f'{{"banks": [{{"id": "a", "cash": {longest}}}, {{"id": "b", "cash": 1e-4299}},'
            ' {"id": "c", "cash": 0.1}, {"id": "d", "cash": "12.5e3"}]}'
        )
        assert net.cash == (F(10**4300 - 1), F(1, 10**4299), F(1, 10), F(12500))
        for amount in ("9" * 4301, "1e-4300", "1.5e4300"):
            with pytest.raises(SchemaError, match="4300 digits"):
                cf.parse_network(f'{{"banks": [{{"id": "a", "cash": "{amount}"}}]}}')


class TestConvert:
    def test_convert_to_float_and_back_scales(self, net_1a):
        as_float = cf.convert_network(net_1a, cf.FLOAT)
        assert as_float.mode == cf.FLOAT
        assert as_float.total_debt == (1.0, 2.0, 3.0, 4.0, 0.0)
        assert cf.convert_network(net_1a, cf.RATIONAL) is net_1a
