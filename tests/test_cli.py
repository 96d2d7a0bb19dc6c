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

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(("# caf\u00e9\n" + BAD_SIGMA).encode("latin-1"))
        assert cli_dispatch(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"validation error: cannot read config file {path}: not UTF-8 at byte 5\n")


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


    def test_out_that_is_a_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert cli_dispatch(["simulate", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert path.read_text() == ""


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


class TestSensitivityGoldenOutput:
    """``sensitivity`` stdout and ``sensitivity.csv`` are pinned byte for byte.

    Every bundled scenario at four perturbation sizes, including
    ``low_adoption``'s invalid alpha-high side at 15% and 20%. Each value
    is the SHA-256 of stdout, then of ``sensitivity.csv``.
    """

    DIGESTS = {
        ("baseline", "5"): (
            "d0f44efa14081f2e9680e00802615984eea79b704a3eda6087fa68bbf6d7da2e",
            "3803be1e10631b74d854c3fc1af8bc79edc0f06647284b0e1f37a2c4520a4303"),
        ("baseline", "10"): (
            "defd853ac278060790bf33fb6a3ef2e4085bb06072d12d1da4ba0109e7971ca5",
            "0a1f726d32e94ef35c625f01a4ee6b8fb3b75af754d3551d80c2c730e8295717"),
        ("baseline", "15"): (
            "3b5be7fd06aec19607c2b1c914cc5894ef01bb1f27b5fe77b462835157e2ff2d",
            "42c0e000a76e3d9af5ab1e0ff3f4009469665ac3fb5703dd0985e8e9e78b5f41"),
        ("baseline", "20"): (
            "62c9f3390ee8e818a529201aa8b1e0a44e614235828027e1c483eb5eb588a077",
            "723491af1036dbd79fad2807663304e0c07e969ac594835adb8bea59965a8c72"),
        ("high_adoption", "5"): (
            "e574a5201c73d2f3d81706606f288243c91c0c9adf22fd45b46006b9bf0a5c08",
            "20c8595a4c740059340c6a353000b953eba31a6b0c19ffc9e024a91b7e11155c"),
        ("high_adoption", "10"): (
            "556238e172867a3cb618336ede85a57aa1b429b92fa4a679a02e14c97a870d45",
            "8a61dedf06c8abeb99e8c7d789879c6cc74a5d8b22a68cda059808d4e21c2052"),
        ("high_adoption", "15"): (
            "a536ef5f4ec91bb638017d7874f33bf4d691edea5856202a6ce12643a776fe88",
            "0e15dd7cd9f7c4564c0e6a2efe1a8a142830f80352d0b4c609e0f2d8ca7c074d"),
        ("high_adoption", "20"): (
            "862d421f4b9643c95324fc7a0c559881bb650b7b5d524e6285323dc2bb1cf9c3",
            "35859673b4ff5a3bec4a8be6cfd6cbbe2604ae3e638d63ff3b0bcadd24c1d102"),
        ("low_adoption", "5"): (
            "7725afddae4968fa1c070e3a6bc1f9858eb045ac2a8db6d4a4032be3d98e5443",
            "71b34bc31a4f6ff82bce30280687e5a1cd43c1c7add760c428cd501276bce413"),
        ("low_adoption", "10"): (
            "4c074ebc3dc5f882a0a6a30ff7489953306c9b125fc89e18ca332642fb15c3e8",
            "afff3dcd12c344324d880c6bfc88b117e35cdd051b5ba152b3b918f184cc4848"),
        ("low_adoption", "15"): (
            "5ea20a5255a9fb1afa620597ea79d31e7d5ebc919246fb16fefa6561d4e8287c",
            "3aba3bc004c341c71da3bc72e5e5196abb78f8edf5f0f0abd3d1d7d5025e4826"),
        ("low_adoption", "20"): (
            "9c7099cd7dbb2b1bf0df07dc985f85df0ead0620fca0f28734a4b598274ee91e",
            "0bdc0cf3fc40afed2dd7cbe2dec0475604cbebddac21dd1e06b5c90556a80d17"),
        ("productivity_spillover", "5"): (
            "38299b15786ec2e8f152af2083eadfbc88f0ba93b17afa41ea0da7331c493f39",
            "e91072981932ee2abf4f9501f4e9f24576cc58e7dda6e1befc9b46d96a2e70b7"),
        ("productivity_spillover", "10"): (
            "22a9cb256017730e6cb44a1c8f9df2e7c7a948504b0261c4e18df6670a1e9007",
            "bdd5c887447a3c0835dc78288fd2a1ce40cc3a0b312e4394a2aabe04b5e445ed"),
        ("productivity_spillover", "15"): (
            "fe7265634fe72306a339fa733eef35f18e7a2352f84f3ca7b80b04dd61c4e2cd",
            "f0f2d2b79f9b90041e8a2ee117189758080cd95484b8a0214b76df0b89c67ae4"),
        ("productivity_spillover", "20"): (
            "af2ee8cbd29c33044f2dc9f3e5a81c2f79da10c910dca90bc4ac836c9fe53a69",
            "228716a90c6d090d014b89333a95369c0907c106864076cd28cf3aa46142782e"),
        ("staged_adoption", "5"): (
            "2c63fa4caf17427aace4fbac3ab762ac2d07c0e4b8ddcf56a97fecf94758b328",
            "426f8478ef998fa4cc25c8cf9be1eef0689e8e5732afe4f4622133731c4df8ba"),
        ("staged_adoption", "10"): (
            "59aea804f0f5e6bb034bb24b577fa04c0048bb20e4b9713137d630f7c9ffed81",
            "bfcde6bd1bc9bd31aba36800d5f5674251547f66e59586acc26f47d54c2eaa49"),
        ("staged_adoption", "15"): (
            "0d6a4b92d5bfedfbd444e5ed699a8070526861bcceae951ffd9e71a400001634",
            "9638541f6b7f2ff94f5d9bc4bb153b17597c79a2ed3ea5e2becbc4504f4728c2"),
        ("staged_adoption", "20"): (
            "8c08a51a0a3b9d727954bab7c1ee8175583b16e37d4255d0ae6b4a8c90c5d8ad",
            "d2dcd19dabdae630dc0902f9137af3b46b24ae1bae32096104e6d077cf4b22d8"),
        ("null_shock", "5"): (
            "848423a930e2c3b312c123445ce0c79c7789800c4191a48e19d2edb13fb9ce6c",
            "d837b5845e6bf0f34bff0e34f6e8f590f52318f4d8065a710c6bc431f850e7e4"),
        ("null_shock", "10"): (
            "89a8a95155aca4a375a62297c94e23c930a1863864babd0491321cb0f113efc1",
            "52dbd6b0b376f7ce9c9c249e133e70da9457a234b692b11274804412720f5d42"),
        ("null_shock", "15"): (
            "88b85b24f5b0c4b7e65fd53f4ba253638ca14f292327259c1efec6ff36ba40ae",
            "e8d94a8ba525b3044fd1ca8b076238b0f7a78315b96ef1a6b14c305a13152f77"),
        ("null_shock", "20"): (
            "eba0775db5da080ce2bca42403ec5d7f5848de7c544618e1b82784bf2d27692f",
            "41b332126ed49008f54d57703eb002ba0be00e5522abc3f7beb167d409282dfd"),
    }

    @pytest.mark.parametrize("scenario,perturb", sorted(DIGESTS))
    def test_sensitivity_bytes(self, tmp_path, capsys, scenario, perturb):
        assert cli_dispatch(["sensitivity", "--scenario", scenario,
                             "--perturb", perturb, "--out", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out
        assert [path.name for path in tmp_path.iterdir()] == ["sensitivity.csv"]
        digests = (hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
                   hashlib.sha256((tmp_path / "sensitivity.csv").read_bytes()).hexdigest())
        assert digests == self.DIGESTS[scenario, perturb]


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

    @pytest.mark.parametrize("target, parameter", [
        ("gain=inf", "theta"), ("displacement=-inf", "sigma"), ("gain=nan", "theta"),
        ("output=inf", "tfp")])
    def test_non_finite_target_exits_two(self, capsys, target, parameter):
        # gain=inf once printed "solved theta = 1e-09" and a residual of
        # -Infinity, which is not JSON
        code, out, err = self.calibrate(capsys, "baseline", target, parameter)
        name, _, value = target.partition("=")
        assert code == 2
        assert out == ""
        assert f"error: {name} target must be finite, got {value}" in err

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

    def test_out_that_is_a_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert cli_dispatch(["sensitivity", "--scenario", "baseline",
                             "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert path.read_text() == ""

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
