"""Strict config parsing, dotted error paths, YAML round trips."""

import pytest
import yaml

from robolabor import (
    ConfigError,
    JobCreationRamp,
    JobCreationRatio,
    Readiness,
    StaticTheta,
    ThetaRamp,
    default_config_path,
    dump_config,
    load_config,
    loads_config,
)
from robolabor import config as config_module
from robolabor.config import to_dict

MINIMAL = """
params:
  alpha: 0.35
  theta: {mode: static, value: 0.5}
  sigma: 0.65
baseline:
  total_labor_force: 1000
  expat_share: 0.9
  sector_shares: {services: 0.5}
  min_wage: 1000
  low_wage_headcount: 100
  remittance_base: 1.0e+9
"""

ONE_SCENARIO = MINIMAL + """
scenarios:
  - name: s1
    mode: comparative_static
    horizon: [2030, 2030]
    robotics_growth: 0.05
    cost_ratio_path: 1.05
"""


class TestDefaultDataset:
    def test_bundled_file_exists(self):
        assert default_config_path().is_file()

    def test_params(self, cfg):
        assert cfg.params.alpha == 0.35
        assert cfg.params.sigma == 0.65
        assert cfg.params.tfp_boost_per_adoption_pct == 0.002
        assert cfg.params.exposure_share == 1.0
        theta = cfg.params.theta
        assert isinstance(theta, ThetaRamp)
        assert (theta.start, theta.end, theta.ramp_years) == (0.4, 0.6, 5)

    def test_initial_state(self, cfg):
        state = cfg.initial_state
        assert state.year == 2024
        assert state.labor == 2_130_000
        assert state.wage == 1000
        assert state.tfp == state.capital == state.robotics == state.robot_cost == 1.0

    def test_baseline(self, cfg):
        assert cfg.baseline.sector_shares["construction"] == 0.442
        assert cfg.baseline.remittance_reference_rate == 0.032

    def test_sectors(self, cfg):
        names = [s.name for s in cfg.sectors]
        assert names == ["construction", "manufacturing", "logistics",
                         "agriculture", "other_services"]
        residuals = [s for s in cfg.sectors if s.residual]
        assert len(residuals) == 1 and residuals[0].name == "other_services"
        assert cfg.sectors[0].readiness is Readiness.MODERATE

    def test_tasks(self, cfg):
        assert set(cfg.tasks) == {"construction", "logistics"}
        assert all("displacement_risk" in row for row in cfg.tasks["construction"])
        assert all("automation_potential" in row for row in cfg.tasks["logistics"])

    def test_scenarios(self, cfg):
        names = [s.name for s in cfg.scenarios]
        assert names == ["baseline", "high_adoption", "low_adoption",
                         "productivity_spillover", "staged_adoption", "null_shock"]
        staged = cfg.scenario("staged_adoption")
        assert isinstance(staged.job_creation_model, JobCreationRamp)
        assert isinstance(cfg.scenario("baseline").job_creation_model,
                          JobCreationRatio)
        assert cfg.scenario("baseline").theta_override == StaticTheta(0.5)

    def test_output_options(self, cfg):
        assert cfg.output.directory == "out"
        assert cfg.output.formats == ("csv", "json")
        assert cfg.output.figure_scenario == "staged_adoption"

    def test_load_by_keyword_and_by_path_agree(self, cfg):
        assert cfg == load_config(default_config_path())

    def test_scenario_lookup_failure(self, cfg):
        with pytest.raises(ConfigError, match="unknown scenario 'nope'"):
            cfg.scenario("nope")


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as excinfo:
            loads_config(MINIMAL + "\nbogus: 1\n")
        assert "bogus" in str(excinfo.value)
        assert excinfo.value.path == "<root>"

    def test_unknown_params_key(self):
        text = MINIMAL.replace("  sigma: 0.65", "  sigma: 0.65\n  beta: 0.1")
        with pytest.raises(ConfigError) as excinfo:
            loads_config(text)
        assert excinfo.value.path == "params"
        assert "beta" in str(excinfo.value)

    def test_unknown_scenario_key(self):
        with pytest.raises(ConfigError) as excinfo:
            loads_config(ONE_SCENARIO + "    bogus: 1\n")
        assert excinfo.value.path == "scenarios[0]"

    def test_negative_sigma_names_the_field(self):
        text = MINIMAL.replace("sigma: 0.65", "sigma: -0.1")
        with pytest.raises(ConfigError) as excinfo:
            loads_config(text)
        assert "sigma" in str(excinfo.value)
        assert excinfo.value.path == "params"

    def test_non_number_sigma_carries_dotted_path(self):
        text = MINIMAL.replace("sigma: 0.65", "sigma: high")
        with pytest.raises(ConfigError, match="params.sigma"):
            loads_config(text)

    def test_boolean_is_not_a_number(self):
        text = MINIMAL.replace("alpha: 0.35", "alpha: true")
        with pytest.raises(ConfigError, match="params.alpha"):
            loads_config(text)

    def test_share_sum_reported_with_total(self):
        text = MINIMAL.replace("sector_shares: {services: 0.5}",
                               "sector_shares: {a: 0.6, b: 0.42}")
        with pytest.raises(ConfigError) as excinfo:
            loads_config(text)
        assert "1.02" in str(excinfo.value)
        assert excinfo.value.path == "baseline"

    def test_yaml_parse_error_carries_position(self):
        with pytest.raises(ConfigError) as excinfo:
            loads_config("params: [unclosed\nbaseline: {", source="custom.yaml")
        message = str(excinfo.value)
        assert "invalid YAML in custom.yaml" in message
        assert "line" in message

    def test_empty_document(self):
        with pytest.raises(ConfigError, match="empty"):
            loads_config("# nothing here\n")

    def test_root_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="expected a mapping"):
            loads_config("- 1\n- 2\n")

    @pytest.mark.parametrize("missing", ["params", "baseline"])
    def test_missing_required_block(self, missing):
        lines = []
        skipping = False
        for line in MINIMAL.splitlines():
            if line.startswith(f"{missing}:"):
                skipping = True
                continue
            if skipping and line.startswith("  "):
                continue
            skipping = False
            lines.append(line)
        with pytest.raises(ConfigError, match=f"missing required key '{missing}'"):
            loads_config("\n".join(lines))

    def test_missing_theta(self):
        text = MINIMAL.replace("  theta: {mode: static, value: 0.5}\n", "")
        with pytest.raises(ConfigError, match="'theta'"):
            loads_config(text)

    def test_bad_theta_mode(self):
        text = MINIMAL.replace("{mode: static, value: 0.5}",
                               "{mode: linear, value: 0.5}")
        with pytest.raises(ConfigError, match="params.theta.mode"):
            loads_config(text)

    def test_theta_ramp_parses(self):
        text = MINIMAL.replace("{mode: static, value: 0.5}",
                               "{mode: ramp, start: 0.4, end: 0.6, ramp_years: 5}")
        config = loads_config(text)
        assert config.params.theta == ThetaRamp(0.4, 0.6, 5)

    def test_duplicate_scenario_names(self):
        text = ONE_SCENARIO + """  - name: s1
    mode: comparative_static
    horizon: [2030, 2030]
"""
        with pytest.raises(ConfigError, match="unique"):
            loads_config(text)

    def test_duplicate_sector_names(self):
        text = MINIMAL + """
sectors:
  - {name: a, employment_share: 0.2, risk_multiplier: 1.0,
     automation_potential: 0.5, readiness: low}
  - {name: a, employment_share: 0.2, risk_multiplier: 1.0,
     automation_potential: 0.5, readiness: low}
"""
        with pytest.raises(ConfigError, match="unique"):
            loads_config(text)

    def test_at_most_one_residual_sector(self):
        text = MINIMAL + """
sectors:
  - {name: a, employment_share: 0.2, risk_multiplier: null,
     automation_potential: 0.5, readiness: low, residual: true}
  - {name: b, employment_share: 0.2, risk_multiplier: null,
     automation_potential: 0.5, readiness: low, residual: true}
"""
        with pytest.raises(ConfigError, match="residual"):
            loads_config(text)

    def test_sector_share_budget(self):
        text = MINIMAL + """
sectors:
  - {name: a, employment_share: 0.7, risk_multiplier: 1.0,
     automation_potential: 0.5, readiness: low}
  - {name: b, employment_share: 0.5, risk_multiplier: 1.0,
     automation_potential: 0.5, readiness: low}
"""
        with pytest.raises(ConfigError, match="sum to 1.2"):
            loads_config(text)

    def test_bad_readiness(self):
        text = MINIMAL + """
sectors:
  - {name: a, employment_share: 0.2, risk_multiplier: 1.0,
     automation_potential: 0.5, readiness: extreme}
"""
        with pytest.raises(ConfigError, match="readiness must be one of"):
            loads_config(text)

    def test_figure_scenario_must_exist(self):
        text = ONE_SCENARIO + """
output:
  figure_scenario: missing
"""
        with pytest.raises(ConfigError, match="output.figure_scenario"):
            loads_config(text)

    def test_unsupported_format(self):
        text = MINIMAL + """
output:
  formats: [xml]
"""
        with pytest.raises(ConfigError, match="output.formats"):
            loads_config(text)

    def test_empty_formats(self):
        text = MINIMAL + """
output:
  formats: []
"""
        with pytest.raises(ConfigError, match="nonempty"):
            loads_config(text)

    def test_bad_job_creation_mode(self):
        with pytest.raises(ConfigError, match="job_creation"):
            loads_config(ONE_SCENARIO + "    job_creation: {mode: magic}\n")

    def test_horizon_must_be_a_pair(self):
        text = ONE_SCENARIO.replace("horizon: [2030, 2030]", "horizon: [2030]")
        with pytest.raises(ConfigError, match="horizon"):
            loads_config(text)

    def test_unknown_targets_key(self):
        with pytest.raises(ConfigError, match="targets"):
            loads_config(ONE_SCENARIO + "    targets: {gdp: 0.015}\n")

    def test_dataset_version_floor(self):
        with pytest.raises(ConfigError, match="dataset_version"):
            loads_config(MINIMAL + "\ndataset_version: 0\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "absent.yaml")


class TestDefaults:
    def test_initial_state_derived_from_baseline(self):
        config = loads_config(MINIMAL)
        state = config.initial_state
        assert state.year == 2024
        assert state.labor == 1000.0
        assert state.wage == 1000.0
        assert state.tfp == 1.0

    def test_empty_collections(self):
        config = loads_config(MINIMAL)
        assert config.sectors == ()
        assert config.tasks == {}
        assert config.scenarios == ()

    def test_output_defaults(self):
        config = loads_config(MINIMAL)
        assert config.output.directory == "out"
        assert config.output.formats == ("csv", "json")
        assert config.output.figure_scenario is None

    def test_params_defaults(self):
        config = loads_config(MINIMAL)
        assert config.params.tfp_boost_per_adoption_pct == 0.002
        assert config.params.exposure_share == 1.0

    def test_baseline_defaults(self):
        config = loads_config(MINIMAL)
        assert config.baseline.remittance_decline_band == (0.12, 0.18)
        assert config.baseline.remittance_reference_rate == 0.032

    def test_scenario_defaults(self):
        config = loads_config(ONE_SCENARIO)
        scenario = config.scenario("s1")
        assert scenario.sigma_override is None
        assert scenario.theta_override is None
        assert scenario.tfp_enabled is False
        assert scenario.job_creation_model == JobCreationRatio()
        assert scenario.targets is None
        assert scenario.raw_shocks is None


class TestRoundTrip:
    def test_default_dataset_round_trips(self, cfg):
        assert loads_config(dump_config(cfg)) == cfg

    def test_dump_is_idempotent(self, cfg):
        once = dump_config(cfg)
        assert dump_config(loads_config(once)) == once

    def test_scalar_and_list_paths_survive(self, cfg):
        reloaded = loads_config(dump_config(cfg))
        assert isinstance(reloaded.scenario("baseline").cost_ratio_path, float)
        staged = reloaded.scenario("staged_adoption")
        assert isinstance(staged.cost_ratio_path, tuple)
        assert len(staged.cost_ratio_path) == 6

    def test_to_dict_omits_unset_optionals(self, cfg):
        payload = to_dict(cfg)
        high = next(s for s in payload["scenarios"] if s["name"] == "high_adoption")
        assert "sigma" not in high
        null_shock = next(s for s in payload["scenarios"]
                          if s["name"] == "null_shock")
        assert "targets" not in null_shock and "raw_shocks" not in null_shock

    def test_minimal_round_trips(self):
        config = loads_config(ONE_SCENARIO)
        assert loads_config(dump_config(config)) == config


# scalars whose resolution depends on the resolver, not on the parser
SCALARS = """
name: "Doha – الدوحة"
hex: 0x1F
octal: 0o17
legacy_octal: 017
inf: .inf
negative_inf: -.Inf
exponent: 1.0e+9
date: 2024-02-29
stamp: 2024-02-29T12:30:00Z
flags: [yes, no, on, off, true, ~]
"""


LOADER_TEXTS = {
    "bundled": lambda: default_config_path().read_text(encoding="utf-8"),
    "minimal": lambda: ONE_SCENARIO,
    "dumped": lambda: dump_config(load_config("default")),
    "scalars": lambda: SCALARS,
}


needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML built without libyaml")


class TestLoaders:
    """libyaml's parser and the pure-Python one give the same results."""

    def test_libyaml_is_used_when_present(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert config_module._LOADER is expected

    @needs_libyaml
    @pytest.mark.parametrize("name", LOADER_TEXTS)
    def test_same_document(self, name):
        text = LOADER_TEXTS[name]()
        assert (yaml.load(text, Loader=yaml.CSafeLoader)
                == yaml.load(text, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("name", ["bundled", "minimal", "dumped"])
    def test_fallback_gives_the_same_config(self, name, monkeypatch):
        text = LOADER_TEXTS[name]()
        expected = loads_config(text)
        monkeypatch.setattr(config_module, "_LOADER", yaml.SafeLoader)
        assert loads_config(text) == expected

    @pytest.mark.parametrize("loader", ["SafeLoader",
                                        pytest.param("CSafeLoader", marks=needs_libyaml)])
    def test_malformed_yaml_reports_line_and_column(self, loader, monkeypatch):
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ConfigError, match="invalid YAML in custom.yaml at "
                                              "line 3, column 10: "):
            loads_config("params: 1\nbaseline: [unclosed\nscenarios: {",
                         source="custom.yaml")
