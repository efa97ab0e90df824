"""Command-line interface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

import clearflow as cf
from clearflow import cli
from clearflow.cli import main
from conftest import BESIDE_LIABILITIES, wide_magnitude_network


@pytest.fixture
def net_1b_path(tmp_path, net_1b):
    path = tmp_path / "net_1b.json"
    path.write_text(cf.serialize_network(net_1b))
    return str(path)


@pytest.fixture
def net_1a_path(tmp_path, net_1a):
    path = tmp_path / "net_1a.json"
    path.write_text(cf.serialize_network(net_1a))
    return str(path)


@pytest.fixture
def net_1c_path(tmp_path, net_1c):
    path = tmp_path / "net_1c.json"
    path.write_text(cf.serialize_network(net_1c))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_example_1b_flow_rational(self, capsys, net_1b_path):
        code, out, _ = run_cli(capsys, "solve", net_1b_path, "--algorithm", "flow")
        assert code == 0
        doc = json.loads(out)
        assert doc["payments"] == ["1", "4/3", "2/3", "2/3", "0"]
        assert doc["total_time"] == "4/3"
        assert doc["defaults"] == ["2", "3", "4"]
        assert doc["residual"] == "0"

    def test_empty_debt_network(self, capsys, tmp_path):
        net = cf.build_network([[0, 0], [0, 0]], [1, 2])
        path = tmp_path / "empty.json"
        path.write_text(cf.serialize_network(net))
        code, out, _ = run_cli(capsys, "solve", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["payments"] == ["0", "0"]
        assert doc["total_time"] == "0"

    def test_all_algorithms_agree(self, capsys, net_1a_path):
        code, out, _ = run_cli(capsys, "solve", net_1a_path, "--algorithm", "all")
        assert code == 0
        doc = json.loads(out)
        flow_payments = doc["results"]["flow"]["payments"]
        assert doc["results"]["fd"]["payments"] == flow_payments
        diff = F(doc["max_difference"])
        assert diff <= F(1, 10**9)

    def test_stdin_input(self, capsys, monkeypatch, net_1b):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(cf.serialize_network(net_1b)))
        code, out, _ = run_cli(capsys, "solve", "-")
        assert code == 0
        assert json.loads(out)["payments"] == ["1", "4/3", "2/3", "2/3", "0"]

    def test_float_mode_emits_numbers(self, capsys, net_1b_path):
        code, out, _ = run_cli(capsys, "solve", net_1b_path, "--mode", "float")
        doc = json.loads(out)
        assert code == 0
        assert doc["payments"][1] == pytest.approx(4 / 3)

    def test_csv_input(self, capsys, tmp_path, net_1b):
        banks_text, liab_text = cf.serialize_network_csv(net_1b)
        banks = tmp_path / "banks.csv"
        liabs = tmp_path / "liabs.csv"
        banks.write_text(banks_text)
        liabs.write_text(liab_text)
        code, out, _ = run_cli(
            capsys, "solve", str(banks), "--csv-liabilities", str(liabs)
        )
        assert code == 0
        assert json.loads(out)["payments"] == ["1", "4/3", "2/3", "2/3", "0"]

    def test_trace_flag_emits_events_on_stderr(self, capsys, net_1a_path):
        code, _out, err = run_cli(capsys, "solve", net_1a_path, "--trace")
        assert code == 0
        events = [json.loads(line) for line in err.strip().splitlines()]
        assert len(events) == 4
        assert events[0]["movers"] == ["3"]

    @pytest.mark.parametrize("command", ["solve", "trace"])
    def test_float_flow_on_wide_magnitudes(self, capsys, tmp_path, command):
        # revealed bank index 2 gains 5.9e-9 of cash in the first interval:
        # less than zero_tol (7.1e-7), more than the conservation bound (3.1e-9)
        path = tmp_path / "wide.json"
        path.write_text(cf.serialize_network(wide_magnitude_network(224)))
        code, out, err = run_cli(capsys, command, str(path), "--mode", "float")
        assert code == 0, err
        assert out

    def test_validation_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"banks": [], "liabilities": []}')
        code, _out, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "error" in err

    def test_amount_beyond_float_range_exit_code(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"banks": [{"id": "a", "cash": 1e400}, {"id": "b", "cash": 0}]}')
        code, _out, err = run_cli(capsys, "solve", str(path), "--mode", "float")
        assert code == 2
        assert err.startswith("error: amount '1e400' is beyond float range")

    @pytest.mark.parametrize("command", ["solve", "family", "bailout"])
    def test_total_debt_beyond_float_range_exit_code(self, capsys, tmp_path, command):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "banks": [{"id": "a", "cash": 1}, {"id": "b", "cash": 0}, {"id": "c", "cash": 0}],
            "liabilities": [
                {"from": "a", "to": "b", "amount": 1e308},
                {"from": "a", "to": "c", "amount": 1e308},
            ],
        }))
        code, out, err = run_cli(capsys, command, str(path), "--mode", "float")
        assert code == 2 and out == ""
        assert err.startswith("error: total debt of bank 0 is not finite")

    @pytest.mark.parametrize("liabilities, cash", [
        ([[0, 1e300], [0, 0]], [1e-300, 0]),
        ([[0, 1e308], [1e308, 0]], [0, 0]),
    ])
    @pytest.mark.parametrize("algorithm", ["picard", "all"])
    def test_picard_cap_beyond_float_range(self, capsys, tmp_path, liabilities, cash, algorithm):
        # the default iteration cap divides the debts by the smallest entry
        net = cf.build_network(liabilities, cash, mode=cf.FLOAT)
        path = tmp_path / "wide.json"
        path.write_text(cf.serialize_network(net))
        code, out, _ = run_cli(
            capsys, "solve", str(path), "--mode", "float", "--algorithm", algorithm
        )
        assert code == 0
        doc = json.loads(out)
        payments = doc["results"]["picard"]["payments"] if algorithm == "all" else doc["payments"]
        assert payments == cf.picard_iterate(net)

    def test_tol_rejected_in_rational_mode(self, capsys, net_1a_path):
        code, _out, err = run_cli(capsys, "solve", net_1a_path, "--tol", "1e-9")
        assert code == 2
        assert "float" in err

    def test_tol_allowed_in_float_mode(self, capsys, net_1a_path):
        code, _out, _err = run_cli(
            capsys, "solve", net_1a_path, "--mode", "float",
            "--algorithm", "picard", "--tol", "1e-9",
        )
        assert code == 0


class TestFamily:
    def test_example_1c(self, capsys, net_1c_path):
        code, out, _ = run_cli(capsys, "family", net_1c_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["unique"] is False
        assert doc["basic"] == ["1", "0", "0", "0", "0"]
        assert doc["greatest"] == ["1", "2", "2", "2", "0"]
        swamp = doc["swamps"][0]
        assert swamp["banks"] == ["2", "3", "4"]
        assert swamp["pi"] == ["1/3", "1/3", "1/3"]
        assert swamp["m"] == "6"

    def test_variant_bound(self, capsys, tmp_path, net_1c_variant):
        path = tmp_path / "variant.json"
        path.write_text(cf.serialize_network(net_1c_variant))
        code, out, _ = run_cli(capsys, "family", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["swamps"][0]["m"] == "15/2"
        assert doc["swamps"][0]["pi"] == ["1/5", "2/5", "2/5"]

    def test_unique_network(self, capsys, net_1a_path):
        code, out, _ = run_cli(capsys, "family", net_1a_path)
        doc = json.loads(out)
        assert code == 0
        assert doc["unique"] is True
        assert doc["swamps"] == []


class TestBailout:
    def test_two_bank_chain(self, capsys, tmp_path):
        net = cf.build_network([[0, 1], [0, 0]], [0, 0])
        path = tmp_path / "chain.json"
        path.write_text(cf.serialize_network(net))
        code, out, _ = run_cli(capsys, "bailout", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["injections"] == ["1", "0"]
        assert doc["verified"] is True

    def test_fully_funded(self, capsys, tmp_path):
        net = cf.build_network([[0, 1], [1, 0]], [2, 2])
        path = tmp_path / "funded.json"
        path.write_text(cf.serialize_network(net))
        code, out, _ = run_cli(capsys, "bailout", str(path))
        assert code == 0
        assert json.loads(out)["injections"] == ["0", "0"]

    def test_example_1b(self, capsys, net_1b_path):
        code, out, _ = run_cli(capsys, "bailout", net_1b_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["unpaid"] == ["0", "2/3", "7/3", "10/3", "0"]
        assert doc["injections"] == ["0", "0", "2", "1", "0"]

    def test_float_generated_network(self, capsys, tmp_path):
        path = str(tmp_path / "f.json")
        code, _, _ = run_cli(capsys, "gen", "--seed", "1", "--n", "32", "--density", "0.3",
                             "--cash-scale", "1/4", "--mode", "float", "--out", path)
        assert code == 0
        code, out, err = run_cli(capsys, "bailout", path, "--mode", "float")
        assert code == 0, err
        assert json.loads(out)["verified"] is True


    def test_balanced_swamp_reports_seed(self, capsys, tmp_path):
        net = cf.build_network([[0, F(2, 3)], [F(2, 3), 0]], [0, 0], ids=["a", "b"])
        path = tmp_path / "swamp.json"
        path.write_text(cf.serialize_network(net))
        code, out, err = run_cli(capsys, "bailout", str(path))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["injections"] == ["0", "0"]
        assert doc["seed_required"] == [["a", "b"]]
        assert doc["verified"] is True

    def test_balanced_swamp_beside_fed_swamp(self, capsys, tmp_path):
        net = cf.build_network(BESIDE_LIABILITIES, [0] * 5)
        path = tmp_path / "beside.json"
        path.write_text(cf.serialize_network(net))
        code, out, err = run_cli(capsys, "bailout", str(path))
        assert code == 0, err
        doc = json.loads(out)
        assert doc["injections"] == ["0", "0", "0", "0", "1"]
        assert doc["seed_required"] == [["1", "2"]]


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch, net_1a_path):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_cli(capsys, "solve", net_1a_path)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


class TestTrace:
    def test_event_lines(self, capsys, net_1a_path):
        code, out, _ = run_cli(capsys, "trace", net_1a_path)
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [e["k"] for e in lines] == [0, 1, 2, 3]
        assert lines[0]["time"] == "1/18"
        assert lines[-1]["time"] == "1"
        assert lines[0]["transitions"] == [{"id": "3", "from": "positive", "to": "zero"}]


class TestGen:
    def test_determinism(self, capsys):
        code1, out1, _ = run_cli(capsys, "gen", "--seed", "7", "--n", "4")
        code2, out2, _ = run_cli(capsys, "gen", "--seed", "7", "--n", "4")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_full_density_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--seed", "1", "--n", "3", "--density", "1.0"
        )
        assert code == 0
        net = cf.parse_network(out)
        off_diagonal = [
            net.liabilities[i][j] for i in range(3) for j in range(3) if i != j
        ]
        assert all(x > 0 for x in off_diagonal)

    def test_bad_params_exit_code(self, capsys):
        code, _out, err = run_cli(capsys, "gen", "--seed", "1", "--n", "0")
        assert code == 2
        assert "error" in err

    def test_generated_network_solves(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--seed", "11", "--n", "6")
        net = cf.parse_network(out)
        result = cf.run_flow(net)
        assert cf.verify_clearing(net, result.payments) == 0


class TestCompare:
    def test_small_batch_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--seed", "0", "--count", "8", "--n", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["instances"] == 8
        assert doc["failures"] == 0


class TestOutputFile:
    def test_out_flag(self, capsys, tmp_path, net_1b_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "solve", net_1b_path, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["total_time"] == "4/3"
