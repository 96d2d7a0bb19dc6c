"""End-to-end CLI behavior through cli_dispatch, including exit codes."""

import csv
import hashlib
import json
from dataclasses import replace

import pytest

from robolabor import SUPPORTED_PAIRS, StaticTheta, run_scenario
from robolabor.cli import cli_dispatch

BAD_SIGMA = """
params:
  alpha: 0.35
  theta: {mode: static, value: 0.5}
  sigma: -0.1
baseline:
  total_labor_force: 1000
  expat_share: 0.9
  sector_shares: {services: 0.5}
  min_wage: 1000
  low_wage_headcount: 100
  remittance_base: 1.0e+9
"""


def read_summary(directory):
    with open(directory / "summary.csv", encoding="utf-8", newline="") as handle:
        return {row["scenario"]: row for row in csv.DictReader(handle)}


class TestValidate:
    def test_default_config_passes(self, capsys):
        assert cli_dispatch(["validate"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config OK" in captured.err
        assert "6 scenarios" in captured.err

    def test_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_dispatch(["validate"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_invalid_config_exits_one_and_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(BAD_SIGMA)
        assert cli_dispatch(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err
        assert "sigma" in err


class TestSimulate:
    def test_single_scenario_run(self, tmp_path, capsys):
        code = cli_dispatch(["simulate", "--scenario", "high_adoption",
                             "--out", str(tmp_path), "--format", "both"])
        assert code == 0
        rows = read_summary(tmp_path)
        assert abs(float(rows["high_adoption"]["gdp_gain_gap"])) <= 1e-9
        assert abs(float(rows["high_adoption"]["displacement_gap"])) <= 1e-9
        captured = capsys.readouterr()
        assert "high_adoption" in captured.out
        assert "wrote" in captured.err
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {"high_adoption_timeseries.csv", "summary.csv",
                         "summary.json"}

    def test_full_run_writes_figure_data(self, tmp_path):
        assert cli_dispatch(["simulate", "--out", str(tmp_path)]) == 0
        names = {path.name for path in tmp_path.iterdir()}
        assert "figure1_data.csv" in names
        assert "summary.json" in names
        assert len(names) == 9

    def test_format_csv_skips_json(self, tmp_path):
        code = cli_dispatch(["simulate", "--scenario", "baseline",
                             "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {"baseline_timeseries.csv", "summary.csv"}

    def test_unknown_scenario_is_a_validation_failure(self, tmp_path, capsys):
        code = cli_dispatch(["simulate", "--scenario", "nope",
                             "--out", str(tmp_path)])
        assert code == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_dispatch(["simulate", "--config",
                             str(tmp_path / "absent.yaml")])
        assert code == 1
        assert "cannot read config file" in capsys.readouterr().err


class TestGoldenOutput:
    """``simulate --config default`` output is pinned byte for byte.

    A change to any digest below changes a result file users compare
    against; it must come with a note of which bytes changed and why.
    """

    DIGESTS = {
        "baseline_timeseries.csv":
            "797e232c5877c43a90eb7e55488a7c1ef77c0a4d27fc41427cb1854e101b1406",
        "figure1_data.csv":
            "2f799916b8c699e2f327e56b3aae6203c83ec9c4fe7a4d4a322c3316e6eee609",
        "high_adoption_timeseries.csv":
            "c35ccb06f3909406c3751149c002961222a4a3793dc9a985654393c96fa59953",
        "low_adoption_timeseries.csv":
            "4372989dc081d5517cdd8f235b7595ae452b26d4851daea0910348073d96fc06",
        "null_shock_timeseries.csv":
            "65ca13087d3a459bbe0181423e4df13ff9b0cc34b72acbdee5f0a54df11b3825",
        "productivity_spillover_timeseries.csv":
            "ba27998fa810f8bfcc7a98632332660a409cb60782b478707dddd9a58a0cb7b1",
        "staged_adoption_timeseries.csv":
            "5fe40e28d99f60ae63f314ce10a3435225d485001b8f3cf29a453c8b0d0619d9",
        "summary.csv":
            "0d22872b08d99934f32c5d0947ab9501d9bd27b6012636d99f1299374a2f73d6",
        "summary.json":
            "6f5b60508e0836d380484b8db135cfcbd8c66b772f802c7abb080c6a4e3c7ecc",
    }
    STDOUT = "12c63afd7e209660f5f8db13c8b02c7ae6b304a556cc82d6dc191f175410d791"

    def test_default_simulate_bytes(self, tmp_path, capsys):
        assert cli_dispatch(["simulate", "--config", "default",
                             "--out", str(tmp_path)]) == 0
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert written == self.DIGESTS
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == self.STDOUT


class TestCalibrate:
    def test_theta_from_gain(self, capsys):
        code = cli_dispatch(["calibrate", "--target", "gain=0.015",
                             "--solve", "theta"])
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["parameter"] == "theta"
        assert report["value"] == pytest.approx(0.30516, abs=1e-4)
        assert abs(report["residual"]) < 1e-12
        assert report["iterations"] > 0
        assert "solved theta" in captured.err

    def test_exposure_from_displacement(self, capsys):
        code = cli_dispatch(["calibrate", "--target", "displacement=0.032",
                             "--solve", "exposure"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(0.835941455612, rel=1e-9)

    def test_robotics_growth_with_spillover_counts_iterations(self, capsys):
        code = cli_dispatch(["calibrate", "--scenario", "productivity_spillover",
                             "--target", "gain=0.021",
                             "--solve", "robotics_growth"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(0.0300307881761, rel=1e-6)
        assert report["iterations"] > 0

    def test_unattainable_target_exits_two(self, capsys):
        code = cli_dispatch(["calibrate", "--target", "displacement=0.2",
                             "--solve", "exposure"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unsupported_combination(self, capsys):
        code = cli_dispatch(["calibrate", "--target", "gain=0.015",
                             "--solve", "sigma"])
        assert code == 64
        assert "cannot solve" in capsys.readouterr().err

    def calibrate(self, capsys, scenario, target, parameter):
        code = cli_dispatch(["calibrate", "--scenario", scenario, "--target", target,
                             "--solve", parameter])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def engine(self, cfg, name, **fields):
        scenario = replace(cfg.scenario(name), **fields)
        return run_scenario(scenario, cfg.params, cfg.initial_state,
                            cfg.baseline).summary

    def test_sigma_keeps_the_scenario_exposure(self, cfg, capsys):
        # solved at full exposure this gave 0.6666; baseline runs at 0.836
        code, out, _ = self.calibrate(capsys, "baseline", "displacement=0.032", "sigma")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(0.8, rel=1e-9)
        summary = self.engine(cfg, "baseline", sigma_override=report["value"])
        assert report["residual"] == summary.displacement_rate - 0.032

    def test_theta_counts_the_spillover(self, cfg, capsys):
        # without the TFP factor this gave 0.702, which the engine rejects
        code, out, _ = self.calibrate(capsys, "productivity_spillover", "gain=0.021",
                                      "theta")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(0.5, rel=1e-9)
        summary = self.engine(cfg, "productivity_spillover",
                              theta_override=StaticTheta(report["value"]))
        assert report["residual"] == summary.gdp_gain - 0.021

    def test_out_of_reach_gain_exits_two(self, capsys):
        code, out, err = self.calibrate(capsys, "staged_adoption", "gain=0.03", "theta")
        assert code == 2
        assert out == ""
        assert "gain=0.03 is out of reach by solving theta" in err
        assert "gives gain from 0.0615202 to 0.284004" in err
        assert "f - target" not in err

    def test_exposure_over_a_dynamic_horizon(self, cfg, capsys):
        # the single-year closed form asked for exposure 2.03 and exited 2
        code, out, _ = self.calibrate(capsys, "staged_adoption", "displacement=0.02",
                                      "exposure")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(0.852, rel=1e-9)
        summary = self.engine(cfg, "staged_adoption", exposure_override=report["value"])
        assert report["residual"] == summary.displacement_rate - 0.02

    def test_usage_lists_every_supported_pair(self, capsys):
        code, _, err = self.calibrate(capsys, "baseline", "output=1", "sigma")
        assert code == 64
        for target, parameter in SUPPORTED_PAIRS:
            assert f"{target}->{parameter}" in err

    @pytest.mark.parametrize("target", ["gain", "bogus=1", "gain=abc"])
    def test_malformed_targets(self, target, capsys):
        assert cli_dispatch(["calibrate", "--target", target,
                             "--solve", "theta"]) == 64
        capsys.readouterr()


class TestSensitivity:
    def test_writes_csv_when_asked(self, tmp_path, capsys):
        code = cli_dispatch(["sensitivity", "--scenario", "baseline",
                             "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sensitivity.csv").is_file()
        assert {path.name for path in tmp_path.iterdir()} == {"sensitivity.csv"}
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("parameter")
        assert "theta" in out

    def test_stdout_only_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_dispatch(["sensitivity", "--scenario", "baseline"]) == 0
        assert list(tmp_path.iterdir()) == []
        capsys.readouterr()

    def test_perturb_bounds(self, capsys):
        code = cli_dispatch(["sensitivity", "--scenario", "baseline",
                             "--perturb", "200"])
        assert code == 64
        assert "--perturb" in capsys.readouterr().err

    def test_scenario_is_required(self, capsys):
        assert cli_dispatch(["sensitivity"]) == 64
        capsys.readouterr()


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli_dispatch([]) == 64
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["transmogrify"]) == 64
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli_dispatch(["validate", "--frobnicate"]) == 64
        capsys.readouterr()

    def test_main_exits_with_dispatch_code(self, monkeypatch):
        import robolabor.cli as cli_module
        monkeypatch.setattr("sys.argv", ["robolabor", "validate"])
        with pytest.raises(SystemExit) as excinfo:
            cli_module.main()
        assert excinfo.value.code == 0
