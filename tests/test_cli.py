"""CLI surface tests: subcommands, exit codes, file outputs, determinism."""

import json
import shlex
from pathlib import Path

import pytest

from transduction_mir.cli import build_parser, main

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
            ([], {"pi"}),
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


class TestMoments:
    def test_table(self, point_config, capsys):
        assert main(["moments", "--config", str(point_config), "--order", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["raw"][0] == 1.0
        assert len(payload["raw"]) == 7
        assert payload["central"][2] == pytest.approx(payload["sigma2"], rel=1e-10)


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


class TestConfigErrors:
    def test_missing_file(self):
        assert main(["mir", "--config", "/nonexistent/nope.json"]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mir", "--config", str(bad)]) == 2

    def test_bad_grid(self, point_config):
        doc = json.loads(point_config.read_text())
        doc["sweep"]["mu_bar"]["steps"] = 0
        bad = point_config.parent / "bad_grid.json"
        bad.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(bad)]) == 2

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
