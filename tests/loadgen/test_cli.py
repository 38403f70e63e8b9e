"""Tests for the ``python -m repro.loadgen`` command line."""

import json

import pytest

from repro.loadgen.__main__ import _parse_aggressor, main


class TestAggressorParsing:
    def test_rank_and_multiplier(self):
        aggressor = _parse_aggressor("3:12.5")
        assert aggressor.rank == 3
        assert aggressor.multiplier == 12.5

    def test_multiplier_defaults_to_ten(self):
        assert _parse_aggressor("2").multiplier == 10.0

    def test_garbage_is_an_argument_error(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_aggressor("not-a-rank:much")


class TestMain:
    ARGS = ["--tenants", "20", "--rate", "65", "--duration", "2",
            "--seed", "7"]

    def test_text_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "discipline=fair" in out
        assert "busiest tenants" in out

    def test_json_report_parses(self, capsys):
        assert main([*self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["discipline"] == "fair"
        assert payload["arrivals"] > 0

    def test_output_is_deterministic(self, capsys):
        main([*self.ARGS, "--json"])
        first = capsys.readouterr().out
        main([*self.ARGS, "--json"])
        assert capsys.readouterr().out == first

    def test_fifo_and_aggressor_flags(self, capsys):
        assert main([*self.ARGS, "--discipline", "fifo",
                     "--aggressor", "0:10"]) == 0
        assert "discipline=fifo" in capsys.readouterr().out

    def test_bad_aggressor_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.ARGS, "--aggressor", "x:y"])
        assert excinfo.value.code == 2
