"""Strict config parsing and dotted error paths."""

import copy
import functools
import os
import re
import subprocess
import sys
import typing
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from robolabor import (
    ConfigError,
    EconomyState,
    JobCreationRamp,
    JobCreationRatio,
    LaborBaseline,
    ModelParams,
    OutputOptions,
    Readiness,
    RunConfig,
    Scenario,
    SectorProfile,
    StaticTheta,
    ThetaRamp,
    default_config_path,
    load_config,
    loads_config,
)
from robolabor import config as config_module
from robolabor.cli import cli_dispatch
from robolabor.config import _MAX_DEPTH

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
        assert state.tfp == state.capital == state.robotics == 1.0

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
        assert all(row.displacement_risk is not None for row in cfg.tasks["construction"])
        assert all(row.automation_potential is not None for row in cfg.tasks["logistics"])

    def test_scenarios(self, cfg):
        names = [s.name for s in cfg.scenarios]
        assert names == ["baseline", "high_adoption", "low_adoption",
                         "productivity_spillover", "staged_adoption", "null_shock"]
        staged = cfg.scenario("staged_adoption")
        assert isinstance(staged.job_creation_model, JobCreationRamp)
        assert isinstance(cfg.scenario("baseline").job_creation_model,
                          JobCreationRatio)
        assert cfg.scenario("baseline").theta_override == StaticTheta(0.5)

    def test_scalar_and_list_paths_load(self, cfg):
        assert isinstance(cfg.scenario("baseline").cost_ratio_path, float)
        staged = cfg.scenario("staged_adoption")
        assert isinstance(staged.cost_ratio_path, tuple)
        assert len(staged.cost_ratio_path) == 6

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

    def test_zero_total_sector_share(self, tmp_path, capsys):
        # no split has a share to weight by, so the table fails at load and
        # not in simulate or sensitivity
        text = MINIMAL + """
sectors:
  - {name: a, employment_share: 0, risk_multiplier: 1.0,
     automation_potential: 0.5, readiness: low}
  - {name: b, employment_share: 0.0, risk_multiplier: 2.0,
     automation_potential: 0.5, readiness: low}
"""
        with pytest.raises(ConfigError) as caught:
            loads_config(text)
        assert caught.value.path == "sectors"
        message = "sectors: sector dataset has zero total employment share"
        assert str(caught.value) == message
        path = tmp_path / "zero.yaml"
        path.write_text(text)
        assert cli_dispatch(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"

    def test_bad_readiness(self):
        text = MINIMAL + """
sectors:
  - {name: a, employment_share: 0.2, risk_multiplier: 1.0,
     automation_potential: 0.5, readiness: extreme}
"""
        with pytest.raises(ConfigError, match="readiness must be one of"):
            loads_config(text)

    def test_null_required_section(self):
        text = "params: ~\n" + MINIMAL[MINIMAL.index("baseline:"):]
        with pytest.raises(ConfigError) as caught:
            loads_config(text)
        assert str(caught.value) == "params: expected a mapping, got null"

    @pytest.mark.parametrize("key", ["wage", "robot_cost"])
    def test_price_levels_are_unknown_state_keys(self, key):
        # the engine prices robots against wages in ratio space only
        with pytest.raises(ConfigError) as caught:
            loads_config(MINIMAL + f"initial_state: {{{key}: 1}}\n")
        assert str(caught.value).startswith(f"initial_state: unknown key(s) {key!r}; ")

    @pytest.mark.parametrize("key", ["displacement_risk", "automation_potential"])
    def test_task_share_out_of_range(self, key):
        text = MINIMAL + f"tasks:\n  site:\n    - {{name: weld, readiness: low, {key}: 1.5}}\n"
        with pytest.raises(ConfigError) as caught:
            loads_config(text)
        assert str(caught.value) == f"tasks.site[0]: weld: {key} must lie in [0, 1], got 1.5"

    def test_nan_tfp_is_rejected(self):
        # with a boost of 0, TFP grows by 0 * (100 * 1e307), which is 0 * inf
        text = (ONE_SCENARIO.replace("  sigma: 0.65\n",
                                     "  sigma: 0.65\n  tfp_boost_per_adoption_pct: 0\n")
                .replace("    robotics_growth: 0.05\n",
                         "    robotics_growth: 1.0e+307\n    tfp_enabled: true\n"))
        with pytest.raises(ConfigError) as caught:
            loads_config(text)
        assert str(caught.value) == ("scenarios[0]: robotics_growth compounds TFP to nan by "
                                     "2030 through tfp_enabled, outside the float range")

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
        assert state.tfp == 1.0

    def test_empty_collections(self):
        config = loads_config(MINIMAL)
        assert config.sectors == ()
        # an empty table has no share total to check
        assert loads_config(MINIMAL + "sectors: []\n").sectors == ()
        assert config.tasks == {}
        assert config.scenarios == ()

    @pytest.mark.parametrize("section", ["initial_state", "sectors", "tasks", "scenarios",
                                         "output"])
    def test_null_optional_section_reads_as_left_out(self, section):
        assert loads_config(MINIMAL + f"{section}: ~\n") == loads_config(MINIMAL)

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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_text(workload, seed):
    """The config text the benchmark generates for ``workload`` at ``seed``."""

    @functools.cache  # the fixture is session-scoped: one text per session
    def text(load_perfbench):
        with pytest.MonkeyPatch.context() as patch:
            # gen imports the reference model by its bare module name
            patch.setitem(sys.modules, "reference", load_perfbench("reference"))
            gen = load_perfbench("gen")
        inputs = getattr(gen, f"{workload}_inputs")(seed, gen.bundled_config(PERFBENCH.parent))
        return gen.to_yaml(inputs["cfg"])

    return text


# each takes the load_perfbench fixture and returns a text
LOADER_TEXTS = {
    "bundled": lambda _: default_config_path().read_text(encoding="utf-8"),
    "minimal": lambda _: ONE_SCENARIO,
    "scalars": lambda _: SCALARS,
    **{f"{workload}_{seed}": perfbench_text(workload, seed)
       for workload in ("wide", "sweep") for seed in (1, 5)},
}
CONFIG_TEXTS = [name for name in LOADER_TEXTS if name != "scalars"]


needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML built without libyaml")
BOTH_LOADERS = ["SafeLoader", pytest.param("CSafeLoader", marks=needs_libyaml)]


def assert_same(got, expected, pairs=None):
    """``got`` and ``expected`` hold equal values of the same types, floats to
    the bit (NaN too), and alias the same collections in the same places."""
    pairs = {} if pairs is None else pairs
    assert type(got) is type(expected)
    if isinstance(got, float):
        assert got.hex() == expected.hex()
    elif isinstance(got, (list, dict)):
        # a collection met again must be the object met before, on both sides
        assert pairs.setdefault(id(got), expected) is expected
        assert pairs.setdefault(("expected", id(expected)), got) is got
        if isinstance(got, dict):
            assert_same(list(got), list(expected), {})
            got, expected = got.values(), expected.values()
        assert len(got) == len(expected)
        for item, other in zip(got, expected):
            assert_same(item, other, pairs)
    else:
        assert got == expected


# scalar spellings that YAML 1.1 resolves to non-str values, and their look-alikes
SPELLINGS = ["1_000", "017", "0o17", "0x1F", "1:30", ".inf", "-.Inf", ".NaN", "1__0.5",
             "1_.5", "1.", "+1.5", "-0.0", "1e5", "1.0e+9", "yes", "no", "on", "off",
             "~", "null", "True", "plain", "'017'", '"1.5"', "!!str 017", "!!float 1",
             "!!int '12'", "!!bool yes", "!!null ''", "2024-02-29", "!!binary aGk=",
             "!!set {a, b}"]
# keys of distinct values: "=" is a str key, "017" the int 15, "~" None
KEYS = ["a", "b", "c", "=", "017", "~", "1.5"]


class YamlText:
    """A block-style YAML text drawn with anchors, aliases and merges.

    Anchors are set only on nodes already written, so no alias is recursive.
    A merge source is an alias, a list of aliases, or an anchored map written
    in place that itself merges a map and states one of its keys again. A
    ``<<`` key may be anchored, and a later map may name it by an alias as
    its own merge key.
    With ``repeat``, one map states one of its keys a second time, and
    ``repeated`` holds that key and its 0-based line and column.
    """

    def __init__(self, draw, repeat):
        self.draw, self.repeat = draw, repeat
        self.lines, self.anchors, self.maps = [], [], {}  # maps: anchor -> own keys
        self.merge_keys = []  # the anchors set on "<<" keys
        self.repeated = None
        self.mapping(0, depth=3)
        if repeat and self.repeated is None:  # no map drew the repeat: the root does
            key = self.draw(st.sampled_from(KEYS))
            self.lines.insert(0, f"{key}: 1")
            self.lines.insert(0, f"{key}: 0")
            self.repeated = (key, 1, 0)
        self.text = "\n".join(self.lines) + "\n"

    def __repr__(self):
        return f"YamlText({self.text!r})"

    def node(self, head, indent, depth):
        """Write a node after ``head``, a ``key:`` or ``-`` at ``indent``."""
        kinds = ["scalar"] + ["alias"] * bool(self.anchors) + ["map", "seq"] * (depth > 0)
        kind = self.draw(st.sampled_from(kinds))
        if kind == "alias":
            self.lines.append(f"{' ' * indent}{head} *{self.draw(st.sampled_from(self.anchors))}")
            return
        anchor = f"n{len(self.lines)}" if self.draw(st.booleans()) else None
        props = f" &{anchor}" * bool(anchor)
        if kind == "scalar":
            self.lines.append(f"{' ' * indent}{head}{props} {self.draw(st.sampled_from(SPELLINGS))}")
        else:
            tag = self.draw(st.sampled_from(["", " !!map" if kind == "map" else " !!seq"]))
            self.lines.append(f"{' ' * indent}{head}{props}{tag}")
            if kind == "map":
                keys = self.mapping(indent + 2, depth - 1)
            else:
                for _ in range(self.draw(st.integers(1, 3))):
                    self.node("-", indent + 2, depth - 1)
        if anchor:
            self.anchors.append(anchor)
            if kind == "map":
                self.maps[anchor] = keys

    def merge_key(self):
        """A ``<<`` key, maybe anchored, or an alias to one written before."""
        kinds = ["plain", "anchored"] + ["alias"] * bool(self.merge_keys)
        kind = self.draw(st.sampled_from(kinds))
        if kind == "alias":
            return f"*{self.draw(st.sampled_from(self.merge_keys))} "
        if kind == "plain":
            return "<<"
        self.merge_keys.append(f"m{len(self.lines)}")
        return f"&{self.merge_keys[-1]} <<"

    def mapping(self, indent, depth, source=None):
        """Write a block map at ``indent``; return its own keys. A map given a
        ``source`` merges that map and states one of its keys again."""
        keys = self.draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True))
        merge = ("source" if source is not None
                 else self.draw(st.sampled_from(["none", "alias", "inline"])) if self.maps
                 else "none")
        if merge == "source":
            self.lines.append(f"{' ' * indent}{self.merge_key()}: *{source}")
            override = self.draw(st.sampled_from(self.maps[source]))
            if override not in keys:
                keys[self.draw(st.integers(0, len(keys) - 1))] = override
        elif merge == "alias":
            sources = self.draw(st.lists(st.sampled_from(list(self.maps)), min_size=1,
                                         max_size=2, unique=True))
            merge = (f"*{sources[0]}" if len(sources) == 1
                     else "[" + ", ".join(f"*{name}" for name in sources) + "]")
            self.lines.append(f"{' ' * indent}{self.merge_key()}: {merge}")
        elif merge == "inline" and depth > 0:
            # PyYAML's flatten_mapping rewrites this map in place when it
            # flattens the map that merges it; an alias may build it later
            anchor = f"n{len(self.lines)}"
            self.lines.append(f"{' ' * indent}{self.merge_key()}: &{anchor}")
            inner = self.mapping(indent + 2, depth - 1,
                                 self.draw(st.sampled_from(list(self.maps))))
            self.anchors.append(anchor)
            self.maps[anchor] = inner
        at = None
        # a repeat in a merge source written in place would be built only
        # where an alias names it
        if self.repeat and self.repeated is None and source is None and self.draw(st.booleans()):
            at = self.draw(st.integers(1, len(keys)))
            keys.insert(at, self.draw(st.sampled_from(keys[:at])))
            self.repeated = (keys[at], None, indent)  # its line is known when written
        for i, key in enumerate(keys):
            if i == at:
                self.repeated = (key, len(self.lines), indent)
            self.node(f"{key}:", indent, depth)
        return keys


@st.composite
def yaml_texts(draw, repeat=False):
    return YamlText(draw, repeat)


class TestLoaders:
    """libyaml's parser and the pure-Python one give the same results."""

    def test_libyaml_is_used_when_present(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert config_module._LOADER is expected

    @needs_libyaml
    @pytest.mark.parametrize("name", LOADER_TEXTS)
    def test_same_document(self, name, load_perfbench):
        text = LOADER_TEXTS[name](load_perfbench)
        assert (yaml.load(text, Loader=yaml.CSafeLoader)
                == yaml.load(text, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @pytest.mark.parametrize("name", LOADER_TEXTS)
    def test_one_pass_builds_pyyamls_document(self, loader, name, load_perfbench):
        text = LOADER_TEXTS[name](load_perfbench)
        base = getattr(yaml, loader)
        assert_same(yaml.load(text, Loader=config_module._one_pass(base)),
                    yaml.load(text, Loader=base))

    @pytest.mark.parametrize("name", CONFIG_TEXTS)
    def test_fallback_gives_the_same_config(self, name, monkeypatch, load_perfbench):
        text = LOADER_TEXTS[name](load_perfbench)
        expected = loads_config(text)
        monkeypatch.setattr(config_module, "_LOADER", yaml.SafeLoader)
        assert loads_config(text) == expected

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    def test_malformed_yaml_reports_line_and_column(self, loader, monkeypatch):
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ConfigError, match="invalid YAML in custom.yaml at "
                                              "line 3, column 10: "):
            loads_config("params: 1\nbaseline: [unclosed\nscenarios: {",
                         source="custom.yaml")

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    def test_duplicate_key_reports_line_and_column(self, loader, monkeypatch):
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        text = MINIMAL.replace("  alpha: 0.35\n", "  alpha: 0.35\n  alpha: 0.30\n")
        with pytest.raises(ConfigError, match="^invalid YAML in custom.yaml at line 4, "
                                              "column 3: found duplicate key 'alpha'$"):
            loads_config(text, source="custom.yaml")

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    def test_merged_keys_may_be_overridden(self, loader, monkeypatch):
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        text = ONE_SCENARIO.replace("  - name: s1\n", "  - &s1\n    name: s1\n")
        config = loads_config(text + "  - <<: *s1\n    name: s2\n    robotics_growth: 0.07\n")
        assert config.scenario("s2") == replace(config.scenario("s1"), name="s2",
                                                robotics_growth=0.07)
        with pytest.raises(ConfigError, match="line 23, column 5: found duplicate key 'name'"):
            loads_config(text + "  - <<: *s1\n    name: s2\n    name: s3\n")

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @settings(max_examples=150)
    @given(yaml_text=yaml_texts())
    def test_one_pass_matches_pyyaml(self, loader, yaml_text):
        base = getattr(yaml, loader)
        assert_same(yaml.load(yaml_text.text, Loader=config_module._one_pass(base)),
                    yaml.load(yaml_text.text, Loader=base))

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @settings(max_examples=100)
    @given(yaml_text=yaml_texts(repeat=True))
    def test_repeated_own_key_reports_its_line_and_column(self, loader, yaml_text):
        key, line, column = yaml_text.repeated
        value = next(iter(yaml.safe_load(f"{key}: 0")))
        with pytest.MonkeyPatch.context() as patch, pytest.raises(ConfigError) as caught:
            patch.setattr(config_module, "_LOADER", getattr(yaml, loader))
            loads_config(yaml_text.text, source="custom.yaml")
        assert str(caught.value) == (f"invalid YAML in custom.yaml at line {line + 1}, "
                                     f"column {column + 1}: found duplicate key {value!r}")

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    def test_merge_source_deeper_than_its_user(self, loader):
        # the anchored map, itself merged, is built before the shallower map
        # that merges it; PyYAML's later pass used to read the pairs merged
        # into it as its own, and so as a repeated "q"
        text = "x:\n  a: &a {<<: {q: 1}, q: 2}\ny: {<<: *a, r: 3}\n"
        base = getattr(yaml, loader)
        assert (yaml.load(text, Loader=config_module._one_pass(base))
                == {"x": {"a": {"q": 2}}, "y": {"q": 2, "r": 3}})

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @pytest.mark.parametrize("text,line,column,problem", [
        # a repeated key nested deep, before an unknown tag at the top level:
        # PyYAML's own constructor, shallowest first, reported the tag
        ("a: {b: {c: {d: 1, d: 2}}}\ne: !!bogus 1\n", 1, 19, "found duplicate key 'd'"),
        # a !!set's members are checked where they stand, before a later map
        ("s: !!set {? x, ? x}\nt: {u: 1, u: 2}\n", 1, 18, "found duplicate key 'x'"),
        ("s: !!set {? x, ? x}\nt: {u: 1}\n", 1, 18, "found duplicate key 'x'"),
        # a tag holding a closer, on the first of 250 nested lists: the tag
        # is unknown before the lists pass the limit
        ("params: " + "[!<a]> x, " * 250 + "]" * 250, 1, 10,
         "could not determine a constructor for the tag 'a]'"),
    ], ids=["deep_before_shallow", "set_members_last", "set_member", "tag_before_depth"])
    def test_first_fault_in_document_order_is_reported(self, loader, text, line, column,
                                                       problem, monkeypatch):
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ConfigError) as caught:
            loads_config(text, source="custom.yaml")
        assert str(caught.value) == (f"invalid YAML in custom.yaml at line {line}, "
                                     f"column {column}: {problem}")

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @pytest.mark.parametrize("text", ["params: &p {k: *p}", "params: &p [*p]"])
    def test_recursive_alias_is_invalid_yaml(self, loader, text, monkeypatch):
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ConfigError) as caught:
            loads_config(text, source="custom.yaml")
        assert str(caught.value) == ("invalid YAML in custom.yaml at line 1, column 9: "
                                     "found unconstructable recursive node")

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @pytest.mark.parametrize("text,line,column,problem", [
        ("a: 1\n---\nb: 2\n", 2, 1, "but found another document"),
        ("a: *x\n", 1, 4, "found undefined alias 'x'"),
        ("a: &x 1\nb: &x 2\n", 2, 4, "second occurrence"),
        ("a: {<<: 1}\n", 1, 9,
         "expected a mapping or list of mappings for merging, but found scalar"),
        ("a: {<<: [1, 2]}\n", 1, 9, "expected a mapping for merging, but found scalar"),
        ("a: {[1]: 2}\n", 1, 5, "found unhashable key"),
        ("a: {&m <<: {x: 1}}\nb: *m\n", 1, 5,
         "could not determine a constructor for the tag 'tag:yaml.org,2002:merge'"),
    ], ids=["two_documents", "undefined_alias", "duplicate_anchor", "scalar_merge",
            "scalar_list_merge", "unhashable_key", "merge_key_as_value"])
    def test_stream_faults_are_invalid_yaml(self, loader, text, line, column, problem,
                                            monkeypatch):
        # the composer's rules and the merge rules, each in the pure-Python
        # parser's words under both parsers
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ConfigError) as caught:
            loads_config(text, source="custom.yaml")
        assert str(caught.value) == (f"invalid YAML in custom.yaml at line {line}, "
                                     f"column {column}: {problem}")

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    def test_plain_nodes_skip_pyyamls_generic_constructor(self, loader, monkeypatch,
                                                          load_perfbench):
        texts = [LOADER_TEXTS[name](load_perfbench) for name in ("bundled", "wide_1")]
        # the tags each of PyYAML's generic methods was called on
        calls = {"construct_object": [], "construct_mapping": []}
        for cls, name in ((yaml.constructor.BaseConstructor, "construct_object"),
                          (yaml.constructor.SafeConstructor, "construct_mapping")):
            def spy(self, node, *args, _original=getattr(cls, name), _name=name, **kwargs):
                calls[_name].append(node.tag)
                return _original(self, node, *args, **kwargs)
            monkeypatch.setattr(cls, name, spy)
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        for text in texts:
            loads_config(text)
        assert calls == {"construct_object": [], "construct_mapping": []}
        with pytest.raises(ConfigError, match="^tasks: expected a mapping, got set$"):
            loads_config(ONE_SCENARIO + "tasks: !!set {a, b}\n")
        assert calls["construct_object"] == ["tag:yaml.org,2002:set"]
        assert set(calls["construct_mapping"]) <= {"tag:yaml.org,2002:set"}


def nesting(text):
    """How deep collections nest in text, from the pure-Python parser's events."""
    depth = deepest = 0
    for event in yaml.parse(text, Loader=yaml.SafeLoader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            deepest = max(deepest, depth)
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return deepest


def deep_flow(levels):
    return "params: " + "[" * levels + "]" * levels


# texts nesting past the limit in ways a plain bracket count misses: closers
# in quoted scalars and comments, quotes inside plain scalars, pairs
# that nest without a brace, and block collections indented across YAML's
# other line breaks. Each stays within what the pure-Python composer
# survives, so a guard that misses one shows as a missing error, not a crash.
LEVELS = 250
DEEP_TEXTS = {
    "quoted_closers": "params: " + '["]}", ' * LEVELS + "]" * LEVELS,
    "escaped_quote_closers": "params: " + '["\\"]", ' * LEVELS + "]" * LEVELS,
    "single_quoted_closers": "params: " + "['a]''}', " * LEVELS + "]" * LEVELS,
    "commented_closers": "params: " + "[ # ]}\n" * LEVELS + "]" * LEVELS,
    # each plain scalar's quote would pair with the next scalar's opening
    # quote and close the list at the "]" inside that scalar
    "quote_after_a_space": "params: " + '[a "x, "]", ' * LEVELS + "]" * LEVELS,
    "quote_after_a_bare_colon": "params: " + '[a:"x, "]", ' * LEVELS + "]" * LEVELS,
    "quote_after_a_no_break_space": "params: " + '[\u00a0"x, "]", ' * LEVELS + "]" * LEVELS,
    "flow_pairs": "params: " + "[a: " * (LEVELS // 2) + "b" + "]" * (LEVELS // 2),
    "lone_cr_indentation": ("".join(" " * i + "a:\r" for i in range(LEVELS))
                            + " " * LEVELS + "b\r"),
    "line_separator_indentation": ("".join(" " * i + "a:\u2028" for i in range(LEVELS))
                                   + " " * LEVELS + "b"),
    "compact_sequences": "- " * LEVELS + "x\n",
    "indentless_sequences": "k:\n" + "".join("  " * i + "- k:\n" for i in range(LEVELS // 2)),
    "block_then_flow": ("".join(" " * i + "a:\n" for i in range(LEVELS // 2))
                        + " " * (LEVELS // 2) + "[" * (LEVELS // 2) + "]" * (LEVELS // 2) + "\n"),
}

class TestYamlLimits:
    """Deep nesting and bad characters are config errors with a line and column."""

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @pytest.mark.parametrize("text,line,column", [
        (default_config_path().read_text(encoding="utf-8") + "\x00", 188, 1),
        ("a: \u00e9\nb: \x00", 2, 4),  # libyaml counts the position in bytes
        ("a: 1\r\nb: 2\r\x00", 3, 1),  # a lone CR breaks the line too
    ], ids=["bundled", "after_non_ascii", "after_lone_cr"])
    def test_control_character_reports_line_and_column(self, loader, text, line, column,
                                                       monkeypatch):
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ConfigError) as caught:
            loads_config(text, source="custom.yaml")
        assert re.fullmatch(f"invalid YAML in custom.yaml at line {line}, column {column}: "
                            "unacceptable character #x0000: [a-z ]+ are not allowed",
                            str(caught.value))

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    def test_nesting_up_to_the_limit_loads(self, loader, monkeypatch):
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        # the root mapping is the first level
        with pytest.raises(ConfigError, match="^params: expected a mapping, got list$"):
            loads_config(deep_flow(_MAX_DEPTH - 1))
        with pytest.raises(ConfigError, match=(
                f"^invalid YAML in custom.yaml at line 1, column {9 + _MAX_DEPTH - 1}: "
                f"collections nest deeper than {_MAX_DEPTH} levels$")):
            loads_config(deep_flow(_MAX_DEPTH), source="custom.yaml")

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @pytest.mark.parametrize("name", DEEP_TEXTS)
    def test_nesting_that_a_bracket_count_misses(self, loader, name, monkeypatch):
        text = DEEP_TEXTS[name]
        assert nesting(text) > _MAX_DEPTH
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ConfigError, match=f"collections nest deeper than {_MAX_DEPTH}"):
            loads_config(text)

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @pytest.mark.parametrize("opener,closer", [("[", "]"), ("{k: ", "}")],
                             ids=["lists", "maps"])
    def test_nesting_through_aliases(self, loader, opener, closer, monkeypatch):
        # three anchored collections, each 190 deep and holding an alias to
        # the one before: "y" holds a value 1 + 3 * 190 levels deep where the
        # text nests 193. An alias gives the value already built, so only the
        # text's nesting counts, and the text reaches the schema
        depth = 190
        members = "".join(f"  - a{i}: &a{i} {opener * depth}{f'*a{i - 1}' if i else 0}"
                          f"{closer * depth}\n" for i in range(3))
        text = f"x: !!omap\n{members}y: [*a2]\n"
        assert nesting(text) == 3 + depth
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ConfigError, match=r"^<root>: unknown key\(s\) 'x', 'y'; allowed: "):
            loads_config(text, source="custom.yaml")

    @staticmethod
    def merge_chain(links):
        # an !!omap of anchored maps, each merging the one before, and a map
        # merging the last
        members = "".join(f"  - a{i}: &a{i} {{<<: *a{i - 1}, k{i}: {i}}}\n"
                          for i in range(1, links))
        return f"x: !!omap\n  - a0: &a0 {{k0: 0}}\n{members}y: {{<<: *a{links - 1}}}\n"

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    def test_merge_chain_adds_no_depth(self, loader, monkeypatch):
        # a merge copies a map already built, so 1,000 links load as YAML,
        # and the text fails on the schema
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ConfigError, match=r"^<root>: unknown key\(s\) 'x', 'y'; allowed: "):
            loads_config(self.merge_chain(1000), source="chain.yaml")

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @pytest.mark.parametrize("chain", ["merges", "aliases"])
    def test_chains_past_the_recursion_limit_load(self, loader, chain):
        # 10,000 links, each merging or holding the one before: the builder
        # keeps its own stack, so nothing recurses
        links = 10_000
        assert links > sys.getrecursionlimit()
        if chain == "merges":
            members = "".join(f"  - &a{i} {{<<: *a{i - 1}, k: {i}}}\n" for i in range(1, links))
            text = f"x:\n  - &a0 {{k: 0}}\n{members}y: {{<<: *a{links - 1}}}\n"
        else:
            members = "".join(f"  - &a{i} [*a{i - 1}]\n" for i in range(1, links))
            text = f"x:\n  - &a0 [0]\n{members}y: *a{links - 1}\n"
        data = yaml.load(text, Loader=config_module._one_pass(getattr(yaml, loader)))
        if chain == "merges":
            assert data["y"] == {"k": links - 1}
        else:
            value, depth = data["y"], 1
            while value != [0]:
                (value,), depth = value, depth + 1
            assert depth == links

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    def test_merge_chain_up_to_the_limit_loads(self, loader):
        # PyYAML's own flatten_mapping recurses once a link: a chain it survives
        base = getattr(yaml, loader)
        text = self.merge_chain(_MAX_DEPTH - 3)
        assert_same(yaml.load(text, Loader=config_module._one_pass(base)),
                    yaml.load(text, Loader=base))

    @pytest.mark.parametrize("loader", BOTH_LOADERS)
    @pytest.mark.parametrize("shape", ["deep", "wide"])
    def test_alias_built_values_are_named_by_kind(self, loader, shape, monkeypatch):
        # eight anchored 190-deep lists, each holding the one before, nest
        # 1,520 deep, past what repr survives; a 10-wide, 6-level lattice,
        # each list holding every list of the level below, repeats its
        # leaves a million times
        if shape == "deep":
            value = ", ".join(f"&a{i} {'[' * 190}{f'*a{i - 1}' if i else 0}{']' * 190}"
                              for i in range(8))
        else:
            value = ", ".join(
                f"&n{level}_{i} [" + (", ".join(f"*n{level - 1}_{j}" for j in range(10))
                                      if level else str(i)) + "]"
                for level in range(6) for i in range(10))
        text = MINIMAL.replace("  alpha: 0.35\n", f"  alpha: [{value}]\n")
        monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ConfigError) as caught:
            loads_config(text)
        assert str(caught.value) == "params.alpha: expected a number, got list"

    def test_deep_nesting_under_the_pure_python_loader(self, monkeypatch):
        monkeypatch.setattr(config_module, "_LOADER", yaml.SafeLoader)
        with pytest.raises(ConfigError, match="line 1, column 208: collections nest deeper"):
            loads_config(deep_flow(50_000))

    @needs_libyaml
    def test_deep_nesting_under_libyaml(self, tmp_path):
        # in a subprocess: without the guard, libyaml's composer crashes the process
        path = tmp_path / "deep.yaml"
        path.write_text(deep_flow(100_000))
        src = str(Path(config_module.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "robolabor.cli", "validate",
                              "--config", str(path)],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 1
        assert run.stderr == (f"validation error: invalid YAML in {path} at line 1, "
                              f"column 208: collections nest deeper than 200 levels\n")


# every key of every section set, so each one can be broken or removed alone
FULL = {
    "dataset_version": 2,
    "params": {"alpha": 0.35, "theta": {"mode": "static", "value": 0.5}, "sigma": 0.65,
               "tfp_boost_per_adoption_pct": 0.003, "exposure_share": 0.9},
    "initial_state": {"year": 2025, "tfp": 1.1, "capital": 1.2, "labor": 900.0,
                      "robotics": 1.3},
    "baseline": {"total_labor_force": 1000.0, "expat_share": 0.9,
                 "sector_shares": {"a": 0.2, "rest": 0.3}, "min_wage": 1000.0,
                 "low_wage_headcount": 100.0, "remittance_base": 1.0e+9,
                 "remittance_decline_band": [0.1, 0.2],
                 "remittance_reference_rate": 0.04},
    "sectors": [
        {"name": "a", "employment_share": 0.2, "risk_multiplier": 1.5,
         "automation_potential": 0.5, "readiness": "low", "readiness_score": 4.0,
         "residual": False, "notes": "prefab"},
        {"name": "rest", "employment_share": 0.3, "risk_multiplier": None,
         "automation_potential": 0.4, "readiness": "high", "residual": True},
    ],
    "tasks": {"construction": [{"name": "bricklaying", "displacement_risk": 0.1,
                                "automation_potential": 0.3, "readiness": "moderate",
                                "notes": "site work"}]},
    "scenarios": [
        {"name": "s1", "mode": "dynamic", "horizon": [2030, 2031],
         "robotics_growth": [0.05, 0.06], "cost_ratio_path": [1.05, 1.1],
         "sigma": 0.7, "theta": {"mode": "ramp", "start": 0.4, "end": 0.5, "ramp_years": 3},
         "exposure_share": 0.8, "tfp_enabled": True,
         "job_creation": {"mode": "ramp", "terminal_ratio": 0.6}, "key_driver": "k",
         "targets": {"gdp_gain": 0.01, "displacement": 0.02},
         "raw_shocks": {"robotics_growth": 0.05, "cost_ratio": 1.1}},
    ],
    "output": {"directory": "res", "formats": ["json"], "figure_scenario": "s1"},
}

NUMBER = "expected a number, got 'x'"

# (location in FULL, replacement value, error path, error message)
WRONG_TYPES = [
    (("dataset_version",), 1.5, "dataset_version", "expected an integer, got 1.5"),
    (("dataset_version",), None, "dataset_version", "expected an integer, got null"),
    (("params",), "x", "params", "expected a mapping, got str"),
    (("params", "alpha"), "x", "params.alpha", NUMBER),
    (("params", "alpha"), None, "params.alpha", "expected a number, got null"),
    (("params", "theta"), "x", "params.theta", "expected a mapping, got str"),
    (("params", "theta", "mode"), 1, "params.theta.mode", "expected a string, got 1"),
    (("params", "theta", "value"), "x", "params.theta.value", NUMBER),
    (("params", "sigma"), "x", "params.sigma", NUMBER),
    (("params", "tfp_boost_per_adoption_pct"), "x",
     "params.tfp_boost_per_adoption_pct", NUMBER),
    (("params", "exposure_share"), "x", "params.exposure_share", NUMBER),
    (("initial_state",), "x", "initial_state", "expected a mapping, got str"),
    (("initial_state", "year"), 1.5, "initial_state.year", "expected an integer, got 1.5"),
    *[(("initial_state", key), "x", f"initial_state.{key}", NUMBER)
      for key in ("tfp", "capital", "labor", "robotics")],
    (("baseline",), "x", "baseline", "expected a mapping, got str"),
    *[(("baseline", key), "x", f"baseline.{key}", NUMBER)
      for key in ("total_labor_force", "expat_share", "min_wage", "low_wage_headcount",
                  "remittance_base", "remittance_reference_rate")],
    (("baseline", "sector_shares"), "x", "baseline.sector_shares",
     "expected a mapping, got str"),
    (("baseline", "sector_shares", "a"), "x", "baseline.sector_shares.a", NUMBER),
    (("baseline", "sector_shares"), {1: 0.2}, "baseline.sector_shares",
     "expected a string, got 1"),
    (("baseline", "remittance_decline_band"), "x", "baseline.remittance_decline_band",
     "expected a list, got str"),
    (("baseline", "remittance_decline_band", 1), "x",
     "baseline.remittance_decline_band[1]", NUMBER),
    (("sectors",), "x", "sectors", "expected a list, got str"),
    (("sectors", 0), "x", "sectors[0]", "expected a mapping, got str"),
    (("sectors", 0, "name"), 1, "sectors[0].name", "expected a string, got 1"),
    *[(("sectors", 0, key), "x", f"sectors[0].{key}", NUMBER)
      for key in ("employment_share", "risk_multiplier", "automation_potential",
                  "readiness_score")],
    (("sectors", 0, "readiness"), 1, "sectors[0].readiness", "expected a string, got 1"),
    (("sectors", 0, "readiness"), "x", "sectors[0].readiness",
     "readiness must be one of ['low', 'moderate', 'high'], got 'x'"),
    (("sectors", 0, "residual"), "x", "sectors[0].residual", "expected a boolean, got 'x'"),
    (("sectors", 0, "residual"), None, "sectors[0].residual", "expected a boolean, got null"),
    (("sectors", 0, "notes"), 1, "sectors[0].notes", "expected a string, got 1"),
    (("scenarios",), "x", "scenarios", "expected a list, got str"),
    (("scenarios", 0), "x", "scenarios[0]", "expected a mapping, got str"),
    (("scenarios", 0, "name"), 1, "scenarios[0].name", "expected a string, got 1"),
    (("scenarios", 0, "mode"), 1, "scenarios[0].mode", "expected a string, got 1"),
    (("scenarios", 0, "horizon"), "x", "scenarios[0].horizon", "expected a list, got str"),
    (("scenarios", 0, "horizon", 1), "x", "scenarios[0].horizon[1]",
     "expected an integer, got 'x'"),
    *[(("scenarios", 0, key), "x", f"scenarios[0].{key}", NUMBER)
      for key in ("robotics_growth", "cost_ratio_path", "sigma", "exposure_share")],
    *[(("scenarios", 0, key, 1), "x", f"scenarios[0].{key}[1]", NUMBER)
      for key in ("robotics_growth", "cost_ratio_path")],
    (("scenarios", 0, "theta"), "x", "scenarios[0].theta", "expected a mapping, got str"),
    *[(("scenarios", 0, "theta", key), "x", f"scenarios[0].theta.{key}", NUMBER)
      for key in ("start", "end")],
    (("scenarios", 0, "theta", "ramp_years"), 1.5, "scenarios[0].theta.ramp_years",
     "expected an integer, got 1.5"),
    (("scenarios", 0, "tfp_enabled"), "x", "scenarios[0].tfp_enabled",
     "expected a boolean, got 'x'"),
    (("scenarios", 0, "job_creation"), "x", "scenarios[0].job_creation",
     "expected a mapping, got str"),
    (("scenarios", 0, "job_creation", "mode"), 1, "scenarios[0].job_creation.mode",
     "expected a string, got 1"),
    (("scenarios", 0, "job_creation", "terminal_ratio"), "x",
     "scenarios[0].job_creation.terminal_ratio", NUMBER),
    (("scenarios", 0, "job_creation"), {"mode": "ratio", "ratio": "x"},
     "scenarios[0].job_creation.ratio", NUMBER),
    (("scenarios", 0, "key_driver"), 1, "scenarios[0].key_driver",
     "expected a string, got 1"),
    (("scenarios", 0, "targets"), "x", "scenarios[0].targets", "expected a mapping, got str"),
    *[(("scenarios", 0, "targets", key), "x", f"scenarios[0].targets.{key}", NUMBER)
      for key in ("gdp_gain", "displacement")],
    (("scenarios", 0, "raw_shocks"), "x", "scenarios[0].raw_shocks",
     "expected a mapping, got str"),
    *[(("scenarios", 0, "raw_shocks", key), "x", f"scenarios[0].raw_shocks.{key}", NUMBER)
      for key in ("robotics_growth", "cost_ratio")],
    (("output",), "x", "output", "expected a mapping, got str"),
    (("output", "directory"), 1, "output.directory", "expected a string, got 1"),
    (("output", "directory"), None, "output.directory", "expected a string, got null"),
    (("output", "formats"), "x", "output.formats", "expected a list, got str"),
    (("output", "formats", 0), 1, "output.formats[0]", "expected a string, got 1"),
    (("output", "figure_scenario"), 1, "output.figure_scenario", "expected a string, got 1"),
]

# (location of the block in FULL, the key left out)
REQUIRED = [
    ((), "params"), ((), "baseline"),
    *[(("params",), key) for key in ("alpha", "theta", "sigma")],
    *[(("params", "theta"), key) for key in ("mode", "value")],
    *[(("scenarios", 0, "theta"), key) for key in ("start", "end", "ramp_years")],
    *[(("baseline",), key) for key in ("total_labor_force", "expat_share", "sector_shares",
                                       "min_wage", "low_wage_headcount", "remittance_base")],
    *[(("sectors", 0), key) for key in ("name", "employment_share", "risk_multiplier",
                                        "automation_potential", "readiness")],
    *[(("scenarios", 0), key) for key in ("name", "mode", "horizon")],
    (("scenarios", 0, "job_creation"), "mode"),
]


def _block_path(location) -> str:
    path = ""
    for key in location:
        path += f"[{key}]" if isinstance(key, int) else f".{key}"
    return path.lstrip(".") or "<root>"


def _edited(location, value=None, delete=False) -> str:
    data = copy.deepcopy(FULL)
    node = data
    for key in location[:-1]:
        node = node[key]
    if delete:
        del node[location[-1]]
    else:
        node[location[-1]] = value
    return yaml.safe_dump(data, sort_keys=False)


class TestErrorPaths:
    """Each malformed key fails alone, at its dotted path, with a stable message."""

    def test_full_config_loads(self):
        config = loads_config(yaml.safe_dump(FULL))
        assert config.scenario("s1").theta_override == ThetaRamp(0.4, 0.5, 3)

    def test_unknown_keys_of_mixed_types(self):
        with pytest.raises(ConfigError) as excinfo:
            loads_config(yaml.safe_dump(FULL) + "2: x\nfoo: y\n")
        assert excinfo.value.path == "<root>"
        assert str(excinfo.value).startswith("<root>: unknown key(s) 'foo', 2; allowed: ")

    @pytest.mark.parametrize("location,value,path,message", WRONG_TYPES,
                             ids=[f"{_block_path(c[0])}={c[1]!r}" for c in WRONG_TYPES])
    def test_wrong_type(self, location, value, path, message):
        with pytest.raises(ConfigError) as excinfo:
            loads_config(_edited(location, value))
        assert excinfo.value.path == path
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("location,key", REQUIRED,
                             ids=[f"{_block_path(loc)}-{key}" for loc, key in REQUIRED])
    def test_missing_required_key(self, location, key):
        path = _block_path(location)
        with pytest.raises(ConfigError) as excinfo:
            loads_config(_edited((*location, key), delete=True))
        assert excinfo.value.path == path
        assert str(excinfo.value) == f"{path}: missing required key {key!r}"


def _section_classes(tp=RunConfig, found=None) -> set:
    """Every dataclass a config section is read into, reached from RunConfig."""
    found = set() if found is None else found
    for arg in typing.get_args(tp):
        _section_classes(arg, found)
    for cls in config_module._MODES.get(tp, {}).values():
        _section_classes(cls, found)
    if is_dataclass(tp) and tp not in found:
        found.add(tp)
        for hint in typing.get_type_hints(tp).values():
            _section_classes(hint, found)
    return found


def plan_from_type_hints(cls) -> list:
    """Per field its name, key, declared type and whether it is required, as
    ``typing.get_type_hints`` reads the declarations: the oracle for _plan."""
    hints = typing.get_type_hints(cls)
    return [(f.name, config_module._KEYS.get(f.name, f.name), hints[f.name],
             f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)]


class TestPlan:
    def test_every_section_class_is_covered(self):
        assert {ModelParams, EconomyState, LaborBaseline, SectorProfile, Scenario,
                OutputOptions, StaticTheta, ThetaRamp, JobCreationRatio,
                JobCreationRamp} < _section_classes()

    # loads_config reads RunConfig's own fields itself, not through a plan
    @pytest.mark.parametrize("cls", sorted(_section_classes() - {RunConfig},
                                           key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_plan_matches_type_hints(self, cls):
        keys, plan = config_module._plan(cls)
        declared = config_module._field_types(cls)
        assert [(name, key, declared[name], required) for name, key, _, required in plan] \
            == plan_from_type_hints(cls)
        assert keys == config_module._keys(cls)


SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "config_schema.md"

# the key table under each section heading of the schema doc, and what fills it
DOC_SECTIONS = {
    "Top level": RunConfig,
    "`params`": ModelParams,
    "`initial_state`": EconomyState,
    "`baseline`": LaborBaseline,
    "`sectors`": SectorProfile,
    "`tasks`": config_module.TaskProfile,
    "`scenarios`": Scenario,
    "`output`": OutputOptions,
}


def _doc_key_tables() -> dict[str, set[str]]:
    tables: dict[str, set[str]] = {}
    heading = None
    for line in SCHEMA_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            heading = line[3:].strip()
        elif line.startswith("|"):
            key = re.match(r"\|\s*`([a-z_]+)`\s*\|", line)
            if key:
                tables.setdefault(heading, set()).add(key.group(1))
    return tables


class TestSchemaDoc:
    """Each key table in the schema doc lists exactly the keys the reader accepts."""

    def test_every_section_has_a_table(self):
        assert set(_doc_key_tables()) == set(DOC_SECTIONS)

    @pytest.mark.parametrize("heading", DOC_SECTIONS)
    def test_table_lists_the_accepted_keys(self, heading):
        assert _doc_key_tables()[heading] == config_module._keys(DOC_SECTIONS[heading])
