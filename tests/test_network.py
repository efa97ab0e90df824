"""Network construction, validation, status classification, serialization."""

from __future__ import annotations

import csv
import dataclasses
import gc
import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest

import clearflow as cf
from clearflow import network as network_module
from clearflow.errors import (
    DimensionMismatchError,
    InvalidParamsError,
    NegativeEntryError,
    ParseError,
    SchemaError,
    SelfDebtError,
)
from clearflow.scalars import to_scalar
from conftest import statuses_of, swampy_network, wide_magnitude_network, with_cash
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

    def test_negative_zero_cash_is_stored_as_zero(self):
        net = cf.build_network([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [1.0, 0.0, -0.0], mode="float")
        assert math.copysign(1.0, net.cash[2]) == 1.0
        parsed = cf.parse_network(cf.serialize_network(net), mode="float")
        assert repr(cf.run_flow(net).final_cash) == repr(cf.run_flow(parsed).final_cash)

    def test_total_cash(self, net_1a):
        assert net_1a.total_cash == sum(net_1a.cash)
        assert dataclasses.replace(net_1a, cash=(1,) * 5).total_cash == 5

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

    def test_rejects_total_cash_beyond_float_range(self):
        # the flow conserves total cash, so bank 1 would end holding inf
        with pytest.raises(NegativeEntryError, match=r"total cash is not finite"):
            cf.build_network(
                [[0.0, 1e308, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                [1e308, 1e308, 0.0],
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
            parsed = [
                cf.parse_network(cf.serialize_network(net), mode=net.mode),
                cf.parse_network_csv(*cf.serialize_network_csv(net), mode=net.mode),
            ]
            for again in parsed:
                assert repr(_fields(again)) == repr(_fields(net))

    def test_shares_equal_the_rows_of_the_dense_pattern(self):
        # the validator's rows equal those a pass over every cell of the
        # dense views finds, entry objects included; `replace` keeps them,
        # the positional constructor takes them, and the shares change no
        # network's equality, hash or repr
        nets = [swampy_network(seed, mode) for seed in range(20) for mode in (cf.RATIONAL, cf.FLOAT)]
        nets += [cf.generate_network(seed, 2 + seed % 14, 0.4, "1/2", mode=mode)
                 for seed in range(40) for mode in (cf.RATIONAL, cf.FLOAT)]
        nets += [wide_magnitude_network(seed) for seed in range(20)]
        nets += [cf.build_network([[0, 0], [0, 0]], [1, 2]),
                 cf.build_network([[0, 1e-300], [0, 0]], [1e300, 0], mode=cf.FLOAT)]
        for net in nets:
            relative, liabilities = net.relative, net.liabilities
            pattern = tuple(
                tuple((j, relative[i][j]) for j in itertools.compress(range(net.n), row))
                or ((i, relative[i][i]),)
                for i, row in enumerate(liabilities)
            )
            assert repr(net.shares) == repr(pattern)
            debts = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in liabilities)
            assert repr(net.debts) == repr(debts)
            assert all(
                q is relative[i][j] for i, row in enumerate(net.shares) for j, q in row
            )
            assert all(x is liabilities[i][j] for i, row in enumerate(net.debts) for j, x in row)
            moved = dataclasses.replace(net, cash=net.cash[::-1])
            assert moved.shares is net.shares and moved.debts is net.debts
            again = cf.FinancialNetwork(
                net.debts, net.cash, net.total_debt, net.shares, net.mode, net.ids
            )
            assert again.shares is net.shares
            assert again == net and hash(again) == hash(net) and repr(again) == repr(net)
            assert "shares" not in repr(net)

    def test_parsing_reads_each_amount_once(self, monkeypatch):
        calls = []

        def counted(value, mode):
            calls.append(value)
            return to_scalar(value, mode)

        monkeypatch.setattr(network_module, "to_scalar", counted)
        for seed in range(4):
            net = swampy_network(seed)
            k = sum(1 for row in net.liabilities for x in row if x)
            calls.clear()
            cf.parse_network(cf.serialize_network(net))
            assert len(calls) == k + net.n


def _fields(net):
    return net.liabilities, net.cash, net.total_debt, net.relative, net.ids


def _ring_document(n: int) -> str:
    """n banks in a ring, each owing the next two banks; every third holds
    no cash."""
    banks = [{"id": f"b{i}", "cash": "0" if i % 3 == 0 else f"{i % 7}/2"} for i in range(n)]
    debts = [
        {"from": f"b{i}", "to": f"b{(i + k) % n}", "amount": f"{k + i % 5}/{1 + i % 4}"}
        for i in range(n)
        for k in (1, 2)
    ]
    return json.dumps({"banks": banks, "liabilities": debts})


class TestSparseRows:
    @pytest.mark.parametrize("mode", [cf.RATIONAL, cf.FLOAT])
    def test_a_ring_network_holds_memory_linear_in_its_debts(self, mode):
        # 2000 banks with 4,000 debts: a network stores no n-length row, so
        # it holds about a megabyte where two dense n×n lists held 62 MB
        text = _ring_document(2000)
        gc.collect()
        tracemalloc.start()
        try:
            net = cf.parse_network(text, mode=mode)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.n == 2000 and [len(row) for row in net.debts] == [2] * 2000
        assert held < 4 * 2**20

    def test_every_input_route_gives_the_same_network(self):
        # a dense matrix, its JSON document, its CSV tables and a
        # rational -> float -> rational round trip (dyadic amounts, exact
        # in floats) agree in ==, hash and the dense views
        rng = random.Random(5)
        n = 9
        liabilities = [
            [F(rng.randint(1, 9), rng.choice((1, 2, 4, 8))) if i != j and rng.random() < 0.3
             else 0 for j in range(n)]
            for i in range(n)
        ]
        liabilities[4] = [0] * n  # a debt-free bank
        cash = [F(rng.randint(0, 4), 2) for _ in range(n)]
        net = cf.build_network(liabilities, cash, ids=[f"bank{i}" for i in range(n)])
        routes = [
            cf.parse_network(cf.serialize_network(net)),
            cf.parse_network_csv(*cf.serialize_network_csv(net)),
            cf.convert_network(cf.convert_network(net, cf.FLOAT), cf.RATIONAL),
        ]
        for again in routes:
            assert again == net and hash(again) == hash(net) and repr(again) == repr(net)
            assert repr(again.shares) == repr(net.shares)
            assert again.liabilities == net.liabilities and again.relative == net.relative
            assert repr(_fields(again)) == repr(_fields(net))
        assert net.liabilities == tuple(tuple(F(x) for x in row) for row in liabilities)
        assert net.relative[4] == tuple(F(j == 4) for j in range(n))


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


class TestPartitionMoved:
    def test_moved_partition_equals_a_fresh_one_and_iterates_alike(self):
        # the flow sums held in-rates in the order of `positive`, so a
        # derived set must iterate as the pass over the statuses builds it
        rng = random.Random(5)
        statuses = list(cf.Status)
        for _ in range(200):
            n = rng.randint(1, 70)
            part = cf.Partition(tuple(rng.choice(statuses) for _ in range(n)))
            for name in rng.sample(["positive", "zero", "absorbing"], rng.randint(0, 3)):
                getattr(part, name)
            positive, zero = sorted(part.positive), sorted(part.zero)
            absorbed = rng.sample(positive + zero, rng.randint(0, min(3, n)))
            emptied = [i for i in rng.sample(positive, min(2, len(positive))) if i not in absorbed]
            moved = part.moved(absorbed, emptied)
            statuses_after = list(part.statuses)
            for i in absorbed:
                statuses_after[i] = cf.Status.ABSORBING
            for i in emptied:
                statuses_after[i] = cf.Status.ZERO
            fresh = cf.Partition(tuple(statuses_after))
            assert moved == fresh
            for name in ("positive", "zero", "absorbing"):
                assert list(getattr(moved, name)) == list(getattr(fresh, name))


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

    def test_round_trip_csv_float(self):
        net = wide_magnitude_network(7)
        banks_text, liab_text = cf.serialize_network_csv(net)
        assert repr(net.cash[0]) in banks_text
        again = cf.parse_network_csv(banks_text, liab_text, mode=cf.FLOAT)
        assert again == net


def _doc(banks=(("a", 1), ("b", 0)), liabilities=()):
    return {
        "banks": [{"id": bank_id, "cash": cash} for bank_id, cash in banks],
        "liabilities": [{"from": s, "to": t, "amount": x} for s, t, x in liabilities],
    }


#: (document, error, message) for faults found before any amount is read
DOCUMENT_ERRORS = {
    "top-level-list": ([], SchemaError, "top-level document must be an object"),
    "bank-without-id": ({"banks": [{"cash": 1}]}, SchemaError, 'each bank needs "id" and "cash"'),
    "bank-without-cash": ({"banks": [{"id": "a"}]}, SchemaError, 'each bank needs "id" and "cash"'),
    "bank-not-object": ({"banks": ["a"]}, SchemaError, 'each bank needs "id" and "cash"'),
    "liabilities-not-list": (
        {**_doc(), "liabilities": {"from": "a"}}, SchemaError, '"liabilities" must be a list'
    ),
    "liability-without-amount": (
        {**_doc(), "liabilities": [{"from": "a", "to": "b"}]},
        SchemaError,
        'each liability needs "from", "to" and "amount"',
    ),
    "liability-not-object": (
        {**_doc(), "liabilities": [["a", "b", 1]]},
        SchemaError,
        'each liability needs "from", "to" and "amount"',
    ),
    "unknown-from-bank": (
        _doc(liabilities=[("z", "b", 1)]), SchemaError, "liability from unknown bank 'z'"
    ),
}

#: (banks CSV, liabilities CSV, error, message)
CSV_ERRORS = {
    "no-bank-rows": ("id,cash\n\n", "", SchemaError, "banks CSV has no data rows"),
    "bank-row-width": ("a,1\nb\n", "", SchemaError, "banks CSV row needs id,cash: ['b']"),
    "liability-row-width": (
        "a,1\nb,0\n", "from,to,amount\na,b\n", SchemaError,
        "liabilities CSV row needs from,to,amount: ['a', 'b']",
    ),
    "cell-over-field-limit": (
        "a,1\nb,0\n", '"' + "x" * (csv.field_size_limit() + 1) + '",b,1\n', ParseError,
        f"invalid CSV: field larger than field limit ({csv.field_size_limit()})",
    ),
}

#: (amount, mode, message): every amount goes through `scalars.to_scalar`
AMOUNT_ERRORS = {
    "bool": (True, cf.RATIONAL, "boolean is not a valid amount: True"),
    "bool-float": (False, cf.FLOAT, "boolean is not a valid amount: False"),
    "list-rational": ([1], cf.RATIONAL, "cannot read amount of type list: [1]"),
    "none-float": (None, cf.FLOAT, "cannot read amount of type NoneType: None"),
    "nan-rational": (float("nan"), cf.RATIONAL, "amount is not finite: nan"),
    "malformed-rational": ("1/x", cf.RATIONAL, "malformed rational string '1/x'"),
    "zero-denominator": (
        "3/0", cf.FLOAT, "rational string must have a positive denominator: '3/0'"
    ),
    "malformed-decimal": ("1.2.3", cf.FLOAT, "malformed number '1.2.3'"),
    "infinite-decimal": ("-Infinity", cf.RATIONAL, "amount is not finite: '-Infinity'"),
}


class TestInputErrors:
    @pytest.mark.parametrize("doc, error, message", DOCUMENT_ERRORS.values(), ids=DOCUMENT_ERRORS)
    def test_document_errors(self, doc, error, message):
        with pytest.raises(error) as info:
            cf.parse_network(json.dumps(doc))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "banks_text, liab_text, error, message", CSV_ERRORS.values(), ids=CSV_ERRORS
    )
    def test_csv_errors(self, banks_text, liab_text, error, message):
        with pytest.raises(error) as info:
            cf.parse_network_csv(banks_text, liab_text)
        assert str(info.value) == message

    def test_id_count_must_match(self):
        with pytest.raises(DimensionMismatchError) as info:
            cf.build_network([[0, 1], [0, 0]], [1, 0], ids=["a"])
        assert str(info.value) == "1 ids for 2 banks"

    def test_ids_must_be_unique(self):
        with pytest.raises(SchemaError) as info:
            cf.build_network([[0, 1], [0, 0]], [1, 0], ids=["a", "a"])
        assert str(info.value) == "bank ids must be unique"

    @pytest.mark.parametrize("amount, mode, message", AMOUNT_ERRORS.values(), ids=AMOUNT_ERRORS)
    def test_amount_errors(self, amount, mode, message):
        with pytest.raises(SchemaError) as info:
            cf.build_network([[0, 0], [0, 0]], [1, amount], mode=mode)
        assert str(info.value) == message
        with pytest.raises(SchemaError) as info:
            cf.build_network([[0, amount], [0, 0]], [1, 0], mode=mode)
        assert str(info.value) == message

    def test_unknown_mode(self):
        message = "unknown arithmetic mode 'exact'; expected one of ('rational', 'float')"
        for call in (
            lambda: cf.build_network([[0]], [1], mode="exact"),
            lambda: cf.parse_network(json.dumps(_doc()), mode="exact"),
            lambda: cf.parse_network_csv("a,1\n", "", mode="exact"),
        ):
            with pytest.raises(InvalidParamsError) as info:
                call()
            assert str(info.value) == message


class TestGenerate:
    @pytest.mark.parametrize("kwargs, message", [
        ({"density": 0}, "density must lie in (0, 1], got 0"),
        ({"density": 1.5}, "density must lie in (0, 1], got 1.5"),
        ({"cash_scale": "-1/2"}, "cash_scale must be nonnegative, got -1/2"),
    ])
    def test_invalid_params_rejected(self, kwargs, message):
        params = {"seed": 1, "n": 3, "density": 0.5, **kwargs}
        with pytest.raises(InvalidParamsError) as info:
            cf.generate_network(**params)
        assert str(info.value) == message


class TestConvert:
    def test_convert_to_float_and_back_scales(self, net_1a):
        as_float = cf.convert_network(net_1a, cf.FLOAT)
        assert as_float.mode == cf.FLOAT
        assert as_float.total_debt == (1.0, 2.0, 3.0, 4.0, 0.0)
        assert cf.convert_network(net_1a, cf.RATIONAL) is net_1a
