"""CLI surface tests: subcommands, exit codes, file outputs, determinism."""

import csv
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from transduction_mir.cli import build_parser, main
from oracles import MPMATH_MOMENTS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RESULTS_DIR = CONFIG_DIR.parent / "results"


@pytest.fixture
def point_config(tmp_path):
    """A self-contained single-point config in a temp directory."""
    receptor = {
        "name": "ChR2",
        "states": ["C1", "O2", "C3"],
        "transitions": [
            {"from": "C1", "to": "O2", "rate": 1.0, "sensitive": True},
            {"from": "O2", "to": "C3", "rate": 1.0, "sensitive": False},
            {"from": "C3", "to": "C1", "rate": 1.0, "sensitive": False},
        ],
    }
    doc = {
        "receptor": receptor,
        "distribution": {"mu_bar": 1.0, "sigma_bar": 0.5, "a": 1e-5, "b": 2.0},
        "sweep": {
            "a": 1e-5,
            "b": 2.0,
            "mu_bar": {"min": 0.5, "max": 1.5, "steps": 3},
            "sigma_bar": {"min": 0.3, "max": 0.6, "steps": 2},
            "methods": ["quadrature", "series", "bounds_s2"],
            "series_k": 20,
        },
        "seed": 77,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestMir:
    def test_quadrature_value(self, point_config, capsys):
        assert main(["mir", "--config", str(point_config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "quadrature"
        assert payload["value_bits_per_s"] == pytest.approx(0.05168672092450602, rel=1e-9)

    def test_series_method(self, point_config, capsys):
        assert main(["mir", "--config", str(point_config), "--method", "series", "--series-k", "20"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "series(20)"

    def test_discrete_method(self, point_config, capsys):
        assert main(["mir", "--config", str(point_config), "--method", "discrete", "--delta-t", "1e-3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value_bits_per_s"] == pytest.approx(0.0517332, rel=1e-4)

    @pytest.mark.parametrize(
        "argv, keys",
        [
            ([], {"pi", "nodes", "refine_delta"}),
            (["--method", "series"], {"tail_bound_nats"}),
            (
                ["--method", "discrete"],
                {"diagonal_bits_per_s", "off_diagonal_bits_per_s", "delta_t"},
            ),
        ],
    )
    def test_diagnostics_keys(self, point_config, capsys, argv, keys):
        assert main(["mir", "--config", str(point_config), *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["value_bits_per_s", "method", "gain", "gap_nats", "diagnostics"]
        assert set(payload["diagnostics"]) == keys

    def test_quadrature_cost_diagnostics(self, point_config, capsys):
        # certified at the ladder's first rung, 32 nodes on each of the 19
        # graded panels of [1e-5, 2]; refine_delta is the proved bound
        assert main(["mir", "--config", str(point_config)]) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["nodes"] == 32
        assert 0.0 < diagnostics["refine_delta"] <= 1e-14

    def test_numerical_failure_exit_code(self, point_config, capsys):
        code = main(["mir", "--config", str(point_config), "--method", "discrete", "--delta-t", "0.9"])
        assert code == 3



class TestBounds:
    def test_default_s2(self, point_config, capsys):
        assert main(["bounds", "--config", str(point_config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s"] == 2
        assert payload["lower_bits_per_s"] <= payload["upper_bits_per_s"]

    def test_s4(self, point_config, capsys):
        assert main(["bounds", "--config", str(point_config), "--s", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s"] == 4

    @pytest.mark.parametrize("s", ["2", "4"])
    def test_diagnostics_keys(self, point_config, capsys, s):
        assert main(["bounds", "--config", str(point_config), "--s", s]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "lower_bits_per_s", "upper_bits_per_s", "s", "gap_bounds_nats", "diagnostics",
        ]
        diagnostics = payload["diagnostics"]
        assert list(diagnostics) == ["gain", "mu", "sigma2", "central_s"]
        lower, upper = payload["gap_bounds_nats"]
        gain = diagnostics["gain"]
        assert payload["lower_bits_per_s"] == gain * lower
        assert payload["upper_bits_per_s"] == gain * upper
        if s == "2":
            assert diagnostics["central_s"] == pytest.approx(diagnostics["sigma2"], rel=1e-10)


def _with_upper_end(point_config, b):
    doc = json.loads(point_config.read_text())
    doc["distribution"]["b"] = b
    path = point_config.parent / f"b_{b}.json"
    path.write_text(json.dumps(doc))
    return path


class TestWideWindows:
    """Powers of b past the float range are +inf, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [["moments", "--order", "20"], ["moments", "--order", "64"], ["bounds", "--s", "4"],
         ["bounds", "--s", "2"]],
        ids=" ".join,
    )
    @pytest.mark.parametrize("b", [1e16, 1e80])
    def test_command_returns(self, point_config, capsys, argv, b):
        config = _with_upper_end(point_config, b)
        assert main([argv[0], "--config", str(config), *argv[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        if argv[0] == "bounds":
            assert 0.0 <= payload["lower_bits_per_s"] <= payload["upper_bits_per_s"] < 1.0
        else:
            assert all(math.isfinite(v) for v in payload["raw"] + payload["central"])


class TestMoments:
    def test_table(self, point_config, capsys):
        assert main(["moments", "--config", str(point_config), "--order", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["raw"][0] == 1.0
        assert len(payload["raw"]) == 7
        assert payload["central"][2] == pytest.approx(payload["sigma2"], rel=1e-10)

    def test_order_20_on_a_surface_row(self, point_config, capsys):
        # a row of results/capacity_surface.csv where a forward recursion in
        # the L_i once exited 0 with E[x^20] 15% low
        args = (1.8408163265306121, 3.0, 0.02, 2.0)
        doc = json.loads(point_config.read_text())
        doc["distribution"] = dict(zip(("mu_bar", "sigma_bar", "a", "b"), args))
        point_config.write_text(json.dumps(doc))
        assert main(["moments", "--config", str(point_config), "--order", "20"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for m, (raw, central) in MPMATH_MOMENTS[args].items():
            if m <= 20:
                assert payload["raw"][m] == pytest.approx(raw, rel=1e-12), m
                assert payload["central"][m] == pytest.approx(central, rel=1e-12), m

    @pytest.mark.parametrize("order", ["10", "20"])
    def test_moments_past_the_float_range_exit_3(self, point_config, capsys, order):
        doc = json.loads(point_config.read_text())
        doc["distribution"] = {
            "mu_bar": 3.457032552295589e44,
            "sigma_bar": 2.421867596011739e44,
            "a": 0.0,
            "b": 3.1664191723467982e53,
        }
        point_config.write_text(json.dumps(doc))
        assert main(["moments", "--config", str(point_config), "--order", order]) == 3
        assert "OrderTooHigh: moment E[(x - 0.0)^7] passes the float range" in capsys.readouterr().err


class TestSimulate:
    def test_estimate_and_dump(self, point_config, tmp_path, capsys):
        dump = tmp_path / "traj.tsv"
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(point_config),
                    "--mc-n",
                    "5000",
                    "--delta-t",
                    "1e-2",
                    "--seed",
                    "9",
                    "--dump",
                    str(dump),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 5000
        assert payload["stderr"] > 0
        assert payload.keys() == {"value_bits_per_s", "stderr", "n", "delta_t", "seed", "dump"}
        lines = dump.read_text().splitlines()
        assert lines[0] == "step\tx\ty"
        assert len(lines) == 5001


class TestSweep:
    def test_writes_csv(self, point_config, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(point_config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7  # header + 3*2 rows

    def test_byte_identical_reruns(self, point_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(point_config), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(point_config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_without_an_output_path(self, point_config, tmp_path, capsys, fmt):
        doc = json.loads(point_config.read_text())
        doc["output"] = {"format": fmt}
        config = tmp_path / "to_stdout.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / f"rows.{fmt}"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--config", str(config)]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_json_format(self, point_config, tmp_path):
        doc = json.loads(point_config.read_text())
        doc["output"] = {"format": "json"}
        config = point_config.parent / "json_rows.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "rows.json"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 6

    def test_per_point_failure_exit_code(self, point_config, tmp_path, capsys):
        doc = json.loads(point_config.read_text())
        doc["sweep"]["methods"] = ["quadrature", "discrete"]
        doc["sweep"]["delta_t"] = 0.75
        bad = point_config.parent / "bad_points.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 3
        assert "StepTooLarge" in out.read_text()

    def test_capacity_report(self, point_config, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "sweep",
                "--config",
                str(point_config),
                "--out",
                str(out),
                "--capacity-by",
                "mir_quadrature",
            ]
        )
        assert code == 0
        assert "capacity-achieving point" in capsys.readouterr().err

    def test_capacity_by_misspelled_field_is_a_usage_error(self, point_config, tmp_path, capsys):
        # rejected by the parser, before the sweep runs or writes anything
        out = tmp_path / "rows.csv"
        argv = ["sweep", "--config", str(point_config), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--capacity-by", "mir_qudrature"])
        assert exc.value.code == 2
        assert "invalid choice: 'mir_qudrature'" in capsys.readouterr().err
        assert not out.exists()

    def test_capacity_by_field_no_method_fills(self, point_config, tmp_path, capsys):
        doc = json.loads(point_config.read_text())
        doc["sweep"]["methods"] = ["quadrature"]
        config = point_config.parent / "quadrature_only.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        argv = ["sweep", "--config", str(config), "--out", str(out), "--capacity-by", "mir_series"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "configuration error: --capacity-by mir_series: no method of this sweep fills it\n"
        )
        assert not out.exists()

    def test_capacity_report_names_the_grid_edge(self, tmp_path, capsys):
        # on the shipped surface the rate still rises toward the smallest
        # mu_bar, so the argmax sits on that edge of the grid
        out = tmp_path / "surface.csv"
        config = CONFIG_DIR / "capacity_surface.json"
        argv = ["sweep", "--config", str(config), "--out", str(out), "--capacity-by", "mir_quadrature"]
        assert main(argv) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("capacity-achieving point by mir_quadrature: mu_bar=0.05 ")
        assert line.endswith(" on the mu_bar min edge; the maximum may lie outside the grid")
        assert out.read_bytes() == (RESULTS_DIR / "capacity_surface.csv").read_bytes()


class TestConfigErrors:
    def test_missing_file(self):
        assert main(["mir", "--config", "/nonexistent/nope.json"]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mir", "--config", str(bad)]) == 2

    def test_bad_grid(self, point_config):
        # a bad grid or truncation fails the whole sweep before any row is
        # computed; series is left out, as its own support check would reject
        # some of these intervals
        cases = [
            {"mu_bar": {"steps": 0}},
            {"mu_bar": {"steps": 2.7}},
            {"sigma_bar": {"steps": math.inf}},
            {"mu_bar": {"min": -math.inf}},
            {"a": -1.0},
            {"a": 3.0, "b": 2.0},
            {"b": math.inf},
        ]
        for case in cases:
            doc = json.loads(point_config.read_text())
            doc["sweep"]["methods"] = ["quadrature", "bounds_s2"]
            for key, value in case.items():
                if isinstance(value, dict):
                    doc["sweep"][key].update(value)
                else:
                    doc["sweep"][key] = value
            bad = point_config.parent / "bad_grid.json"
            bad.write_text(json.dumps(doc))
            out = point_config.parent / "bad_grid.csv"
            assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2, case
            assert not out.exists(), case

    @pytest.mark.parametrize(
        "field, value",
        [
            ("series_k", 20.7),
            ("mc_n", 1000.9),
            ("mc_n", math.inf),
            ("mc_n", math.nan),
            ("seed", 2.5),
            ("seed", math.inf),
        ],
        ids=["series_k=20.7", "mc_n=1000.9", "mc_n=inf", "mc_n=nan", "seed=2.5", "seed=inf"],
    )
    def test_run_parameter_not_whole(self, point_config, field, value, capsys):
        # a count is never truncated, and Infinity is a configuration error,
        # not an uncaught OverflowError
        doc = json.loads(point_config.read_text())
        (doc if field == "seed" else doc["sweep"])[field] = value
        bad = point_config.parent / "bad_run.json"
        bad.write_text(json.dumps(doc))
        out = point_config.parent / "bad_run.csv"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert f"{field} must be a whole number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["series_k", "mc_n", "steps", "seed"])
    def test_run_parameter_given_as_a_bool(self, point_config, field, capsys):
        # a JSON true is not the count 1; simulate refuses a bool seed, and
        # so does the config
        doc = json.loads(point_config.read_text())
        owner = {"seed": doc, "steps": doc["sweep"]["mu_bar"]}.get(field, doc["sweep"])
        owner[field] = True
        bad = point_config.parent / "bool_run.json"
        bad.write_text(json.dumps(doc))
        out = point_config.parent / "bool_run.csv"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert f"{field} must be a whole number, got True" in capsys.readouterr().err
        assert not out.exists()
        if field == "seed":
            assert main(["simulate", "--config", str(bad), "--mc-n", "10"]) == 2
            err = capsys.readouterr().err
            assert err == "configuration error: seed must be a whole number, got True\n"

    def test_whole_float_run_parameters_accepted(self, point_config, tmp_path):
        doc = json.loads(point_config.read_text())
        doc["sweep"].update(series_k=20.0, mc_n=1000.0)
        doc["seed"] = 77.0
        config = tmp_path / "whole.json"
        config.write_text(json.dumps(doc))
        out, reference = tmp_path / "whole.csv", tmp_path / "reference.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert main(["sweep", "--config", str(point_config), "--out", str(reference)]) == 0
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("field, value", [("b", 2.5), ("a", 0.0)], ids=["b=2.5", "a=0"])
    @pytest.mark.parametrize(
        "command", [["sweep"], ["mir", "--method", "series"]], ids=["sweep", "mir-series"]
    )
    def test_series_outside_region(self, point_config, command, field, value):
        # a support outside (0, 2] is a configuration error on every command
        doc = json.loads(point_config.read_text())
        doc["distribution"][field] = value
        doc["sweep"][field] = value
        bad = point_config.parent / "bad_series.json"
        bad.write_text(json.dumps(doc))
        assert main([*command, "--config", str(bad)]) == 2

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"], ids=["missing", "bad-json", "list"])
    def test_bad_receptor_file(self, point_config, text, capsys):
        doc = json.loads(point_config.read_text())
        doc["receptor"] = "receptor_file.json"
        if text is not None:
            (point_config.parent / "receptor_file.json").write_text(text)
        bad = point_config.parent / "bad_receptor_file.json"
        bad.write_text(json.dumps(doc))
        assert main(["mir", "--config", str(bad)]) == 2
        assert "receptor file receptor_file.json" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[1, 2], None, 3.0], ids=["list", "null", "number"])
    def test_sweep_distribution_not_an_object(self, point_config, value, capsys):
        # the sweep reads a and b from its own section; a distribution that is
        # present but not an object is a configuration error, not a traceback
        doc = json.loads(point_config.read_text())
        doc["distribution"] = value
        bad = point_config.parent / "bad_distribution.json"
        bad.write_text(json.dumps(doc))
        out = point_config.parent / "bad_distribution.csv"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert "distribution: not an object" in capsys.readouterr().err
        assert not out.exists()

    def test_output_not_an_object(self, point_config):
        doc = json.loads(point_config.read_text())
        doc["output"] = "rows.csv"
        bad = point_config.parent / "bad_output.json"
        bad.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(bad)]) == 2

    def test_unknown_receptor_state(self, point_config):
        doc = json.loads(point_config.read_text())
        doc["receptor"]["transitions"][0]["to"] = "Z9"
        bad = point_config.parent / "bad_receptor.json"
        bad.write_text(json.dumps(doc))
        assert main(["mir", "--config", str(bad)]) == 2

    def test_non_numeric_fields(self, point_config):
        doc = json.loads(point_config.read_text())
        doc["seed"] = "lots"
        bad = point_config.parent / "bad_seed.json"
        bad.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(bad)]) == 2
        doc = json.loads(point_config.read_text())
        doc["sweep"]["series_k"] = "forty"
        bad.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(bad)]) == 2


    @pytest.mark.parametrize("key", ["delta_t", "series_k", "mc_n"])
    def test_explicit_zero_override_reaches_validation(self, point_config, tmp_path, key):
        doc = json.loads(point_config.read_text())
        doc["sweep"][key] = 0
        bad = point_config.parent / "zero_override.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["mir", "--method", "discrete", "--delta-t", "0"],
            ["mir", "--method", "series", "--series-k", "1"],
            ["mir", "--method", "series", "--series-k", "65"],
            ["simulate", "--mc-n", "0"],
            ["simulate", "--delta-t", "0"],
            ["simulate", "--delta-t", "nan"],
            ["mir", "--method", "discrete", "--delta-t", "inf"],
            ["moments", "--order", "-1"],
            ["moments", "--order", "65"],
        ],
        ids=" ".join,
    )
    def test_single_point_out_of_range_is_config_error(self, point_config, argv, capsys):
        assert main([*argv, "--config", str(point_config)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("mir", lambda doc: [doc], "config {path} must be a JSON object"),
            ("mir", lambda doc: doc.pop("receptor"), "receptor: missing"),
            (
                "mir",
                lambda doc: doc.pop("distribution"),
                "distribution: missing or not an object",
            ),
            ("mir", lambda doc: doc["distribution"].pop("b"), "distribution: missing field 'b'"),
            (
                "mir",
                lambda doc: doc["distribution"].update(sigma_bar="wide"),
                "distribution: could not convert string to float: 'wide'",
            ),
            ("sweep", lambda doc: doc.pop("sweep"), "sweep: missing or not an object"),
            (
                "sweep",
                lambda doc: doc["sweep"].update(mu_bar=3),
                "sweep.mu_bar: missing or not an object",
            ),
            (
                "sweep",
                lambda doc: doc["sweep"]["sigma_bar"].pop("min"),
                "sweep.sigma_bar: missing field 'min'",
            ),
            (
                "sweep",
                lambda doc: doc["sweep"]["mu_bar"].update(min="low"),
                "sweep.mu_bar: could not convert string to float: 'low'",
            ),
            (
                "sweep",
                lambda doc: (doc["sweep"].pop("a"), doc["distribution"].pop("a")),
                "sweep.a / sweep.b: truncation interval is required",
            ),
            (
                "sweep",
                lambda doc: doc["sweep"].update(methods="quadrature"),
                "sweep.methods: must be a list of method names",
            ),
        ],
        ids=[
            "config-not-an-object", "no-receptor", "no-distribution",
            "distribution-field-missing", "distribution-field-not-numeric", "no-sweep",
            "axis-not-an-object", "axis-field-missing", "axis-field-not-numeric",
            "no-interval", "methods-not-a-list",
        ],
    )
    def test_config_faults_are_named(self, point_config, capsys, command, edit, message):
        doc = json.loads(point_config.read_text())
        # an edit returning a list replaces the whole document
        replaced = edit(doc)
        bad = point_config.parent / "bad_config.json"
        bad.write_text(json.dumps(replaced if isinstance(replaced, list) else doc))
        assert main([command, "--config", str(bad)]) == 2
        expected = message.format(path=bad)
        assert capsys.readouterr().err == f"configuration error: {expected}\n"

    def test_negative_simulate_seed(self, point_config, capsys):
        argv = ["simulate", "--config", str(point_config), "--mc-n", "10", "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "configuration error: seed must be >= 0, got -1\n"

    def test_negative_seed_of_a_monte_carlo_sweep(self, point_config, tmp_path, capsys):
        # the seed is checked only when a method draws from it, as series_k
        # is only with the series
        doc = json.loads(point_config.read_text())
        doc["seed"] = -3
        doc["sweep"]["methods"] = ["quadrature", "mc"]
        doc["sweep"]["mc_n"] = 10
        bad = point_config.parent / "negative_seed.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: seed must be >= 0, got -3\n"
        assert not out.exists()
        doc["sweep"]["methods"] = ["quadrature"]
        bad.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["mir", "--out", "{missing}/x.json"],
            ["sweep", "--out", "{missing}/x.csv"],
            ["simulate", "--mc-n", "10", "--dump", "{missing}/t.tsv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_output_that_cannot_be_written(self, point_config, tmp_path, argv, capsys):
        missing = tmp_path / "missing"
        argv = [arg.format(missing=missing) for arg in argv]
        assert main([*argv, "--config", str(point_config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {argv[-1]}: ")
        assert not missing.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--seed", "1"],
            ["moments", "--seed", "1"],
            ["mir", "--quad-nodes", "64"],
            ["sweep", "--quad-nodes", "64"],
            ["mir", "--method", "mc"],
            ["mir", "--mc-n", "10"],
            ["mir", "--seed", "1"],
            ["sweep", "--format", "json"],
            ["sweep", "--series-k", "20"],
            ["sweep", "--delta-t", "1e-3"],
            ["sweep", "--mc-n", "10"],
        ],
        ids=" ".join,
    )
    def test_removed_flags_rejected(self, point_config, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(point_config)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice: 'mc'" in err


class TestShippedConfigs:
    def test_point_config_runs(self, capsys):
        config = CONFIG_DIR / "chr2_point.json"
        assert main(["mir", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value_bits_per_s"] > 0

    def test_receptor_file_reference_resolves(self, capsys):
        assert main(["bounds", "--config", str(CONFIG_DIR / "chr2_point.json")]) == 0

    @pytest.mark.parametrize("name", ["capacity_surface", "chr2_mean_sweep", "chr2_spread_sweep"])
    def test_sweep_reproduces_committed_results(self, name, tmp_path):
        # rerun into a temp dir; results/ itself is never written
        out = tmp_path / f"{name}.csv"
        config = CONFIG_DIR / f"{name}.json"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == (RESULTS_DIR / f"{name}.csv").read_bytes()

    # sha256 of the 8x8 sweep of every deterministic method on [1e-5, 2],
    # where graded panels are active; it pins the series, s=4 and discrete
    # bytes that no committed results file covers
    PANEL_CSV = "37fc126c87b1abce973cf6ff26d0530df619e7dca25706700a7d9513bbe2598c"

    @staticmethod
    def panel_config(tmp_path) -> Path:
        doc = {
            "receptor": json.loads((CONFIG_DIR / "chr2_receptor.json").read_text()),
            "sweep": {
                "a": 1e-5,
                "b": 2.0,
                "mu_bar": {"min": 0.2, "max": 1.8, "steps": 8},
                "sigma_bar": {"min": 0.1, "max": 1.0, "steps": 8},
                "methods": ["quadrature", "series", "bounds_s2", "bounds_s4", "discrete"],
                "series_k": 40,
                "delta_t": 0.001,
            },
            "seed": 0,
        }
        config = tmp_path / "panel.json"
        config.write_text(json.dumps(doc))
        return config

    def test_panel_sweep_csv_frozen(self, tmp_path):
        out = tmp_path / "panel.csv"
        assert main(["sweep", "--config", str(self.panel_config(tmp_path)), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PANEL_CSV

    def test_sweeps_keep_their_bytes_under_another_blas_kernel(self, tmp_path):
        # no BLAS routine lies on the way to an output byte: the three
        # shipped sweeps and the panel sweep, rerun in a fresh interpreter
        # with OpenBLAS forced to its Haswell kernels, give the same bytes
        runs = [(CONFIG_DIR / f"{name}.json", tmp_path / f"{name}.csv")
                for name in ("capacity_surface", "chr2_mean_sweep", "chr2_spread_sweep")]
        runs.append((self.panel_config(tmp_path), tmp_path / "panel.csv"))
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
        src = str(CONFIG_DIR.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        body = (
            "import sys\n"
            "from transduction_mir.cli import main\n"
            "for config, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    assert main(['sweep', '--config', config, '--out', out]) == 0\n"
        )
        argv = [str(path) for run in runs for path in run]
        proc = subprocess.run([sys.executable, "-c", body, *argv], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        for config, out in runs[:3]:
            assert out.read_bytes() == (RESULTS_DIR / out.name).read_bytes()
        assert hashlib.sha256(runs[3][1].read_bytes()).hexdigest() == self.PANEL_CSV


class TestNoScipyAtRuntime:
    """Every command runs on numpy and the stdlib alone: scipy is a test
    oracle, not a dependency.  Each check is a fresh interpreter, since this
    test process has scipy loaded already."""

    PRELUDE = (
        "import json, sys\n"
        "from transduction_mir.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
    )

    def run(self, body: str, tmp_path) -> list:
        env = dict(os.environ)
        src = str(CONFIG_DIR.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", self.PRELUDE + body, str(CONFIG_DIR / "chr2_point.json"),
             str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_deterministic_commands_never_import_scipy(self, tmp_path):
        body = (
            "config, out = sys.argv[1], sys.argv[2] + '/sweep.csv'\n"
            "for argv in (['mir', '--config', config], ['moments', '--config', config],\n"
            "             ['bounds', '--config', config, '--s', '4'],\n"
            "             ['sweep', '--config', config, '--out', out]):\n"
            "    assert main(argv) == 0, argv\n"
            "print(json.dumps(scipy_modules()))\n"
        )
        assert self.run(body, tmp_path) == []
        # the sweep ran every deterministic method of chr2_point.json
        (row,) = csv.DictReader((tmp_path / "sweep.csv").open())
        assert row["status"] == "ok"
        assert [key for key, value in row.items() if not value] == ["mc_value", "mc_stderr"]

    def test_monte_carlo_commands_never_import_scipy(self, tmp_path):
        doc = json.loads((CONFIG_DIR / "chr2_point.json").read_text())
        doc["receptor"] = str(CONFIG_DIR / doc["receptor"])
        doc["sweep"].update(methods=["mc"], mc_n=2000)
        (tmp_path / "mc.json").write_text(json.dumps(doc))
        body = (
            "config, out = sys.argv[1], sys.argv[2]\n"
            "for argv in (['simulate', '--config', config, '--out', out + '/sim.json',\n"
            "              '--mc-n', '1000', '--seed', '3'],\n"
            "             ['sweep', '--config', out + '/mc.json', '--out', out + '/mc.csv']):\n"
            "    assert main(argv) == 0, argv\n"
            "print(json.dumps(scipy_modules()))\n"
        )
        assert self.run(body, tmp_path) == []
        assert json.loads((tmp_path / "sim.json").read_text())["n"] == 1000
        (row,) = csv.DictReader((tmp_path / "mc.csv").open())
        assert row["status"] == "ok" and row["mc_value"] and row["mc_stderr"]


class TestReadme:
    def test_command_lines_parse(self):
        # every example in the README's "Command line" block names only live
        # subcommands and flags
        text = (CONFIG_DIR.parent / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True) for line in lines if line.strip()]
        assert commands and all(c[0] == "transduction-mir" for c in commands)
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])
