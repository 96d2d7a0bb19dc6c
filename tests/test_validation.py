"""Bad input is rejected once, at the boundary, naming the field.

Every rule a run depends on is checked when a scenario, parameter set or
config is built, or before the first simulated year. A run that starts
therefore finishes, and no error names an engine-internal variable.
"""

import copy
import dataclasses
import math
import os
import subprocess
import sys
import tempfile
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import robolabor
from robolabor import (
    SUPPORTED_PAIRS,
    ConfigError,
    DomainError,
    EconomyState,
    JobCreationRamp,
    JobCreationRatio,
    LaborBaseline,
    ModelError,
    ModelParams,
    Readiness,
    Scenario,
    SectorProfile,
    SimulationMode,
    StaticTheta,
    TargetSet,
    ThetaRamp,
    ValidationError,
    build_output_bundle,
    calibrate_scenario,
    default_specs,
    loads_config,
    one_at_a_time,
    run_scenario,
    write_outputs,
)
from robolabor.cli import cli_dispatch

# names the engine uses internally; user-facing errors must not lean on them
INTERNAL = ("observed_output", "labor must", "displaced_cumulative", "adoption_growth_pct")

CONFIG = """
params:
  alpha: 0.35
  theta: {{mode: static, value: 0.5}}
  sigma: 0.65
baseline:
  total_labor_force: 1000
  expat_share: 0.9
  sector_shares: {{services: 0.5}}
  min_wage: 1000
  low_wage_headcount: 100
  remittance_base: {remittance_base}
scenarios:
  - name: ok
    mode: comparative_static
    horizon: [2030, 2030]
  - name: s1
    mode: dynamic
    horizon: [2030, 2031]
    robotics_growth: {growth}
    cost_ratio_path: {cost}
    tfp_enabled: {tfp}
{extra}"""


def config_text(remittance_base="1.0e+9", growth="0.05", cost="1.05", tfp="false",
                extra=""):
    return CONFIG.format(remittance_base=remittance_base, growth=growth, cost=cost,
                         tfp=tfp, extra=extra)


def scenario(**overrides):
    fields = dict(name="case", mode=SimulationMode.DYNAMIC, horizon=(2030, 2031),
                  robotics_growth=0.05, cost_ratio_path=1.05,
                  theta_override=StaticTheta(0.5))
    fields.update(overrides)
    return Scenario(**fields)


def config_error(text) -> ConfigError:
    with pytest.raises(ConfigError) as info:
        loads_config(text)
    return info.value


def assert_user_facing(message: str) -> None:
    for name in INTERNAL:
        assert name not in message


def test_reference_config_loads():
    config = loads_config(config_text())
    assert [s.name for s in config.scenarios] == ["ok", "s1"]


class TestScenarioRules:
    """Rules that need only the scenario, run on every construction."""

    @pytest.mark.parametrize("field", ["robotics_growth", "cost_ratio_path",
                                       "sigma_override", "exposure_override"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers(self, field, value):
        with pytest.raises(DomainError, match=field):
            scenario(**{field: value})

    def test_non_finite_path_entry(self):
        with pytest.raises(DomainError, match="cost_ratio_path entries must be finite"):
            scenario(cost_ratio_path=(1.05, math.inf))

    def test_negative_growth_with_spillover(self):
        with pytest.raises(DomainError, match="robotics_growth must be >= 0 when "
                                              "tfp_enabled") as info:
            scenario(robotics_growth=(0.05, -0.01), tfp_enabled=True)
        assert_user_facing(str(info.value))

    def test_negative_growth_without_spillover_still_runs(self, params, state0,
                                                          baseline):
        result = run_scenario(scenario(robotics_growth=-0.01), params, state0,
                              baseline)
        assert result.summary.gdp_gain < 0

    def test_cost_ratio_below_one(self):
        with pytest.raises(DomainError, match="cost_ratio_path entries must be "
                                              ">= 1, got 0.9") as info:
            scenario(cost_ratio_path=0.9)
        assert_user_facing(str(info.value))

    def test_rules_rerun_on_replace(self):
        base = scenario(tfp_enabled=True)
        with pytest.raises(DomainError, match="tfp_enabled"):
            replace(base, robotics_growth=-0.01)


def _path_rules(growth, cost, n_years, tfp_enabled):
    """The path rules of ``Scenario``, entry by entry: the stored
    ``(robotics_growth, cost_ratio_path)``, or the first rule broken."""

    def values(name, path):
        if not isinstance(path, (tuple, list)):
            return path, (float(path),)
        stored = tuple(float(v) for v in path)
        if len(stored) != n_years:
            raise DomainError(f"{name} needs {n_years} entries, got {len(stored)}")
        return stored, stored

    def finite(name, entries):
        for v in entries:
            if not math.isfinite(v):
                raise DomainError(f"{name} entries must be finite, got {v}")

    growth, entries = values("robotics_growth", growth)
    finite("robotics_growth", entries)
    for g in entries:
        if not g > -1:
            raise DomainError(f"robotics_growth must exceed -1, got {g}")
        if tfp_enabled and not g >= 0:
            raise DomainError(f"robotics_growth must be >= 0 when tfp_enabled, got {g}")
    cost, ratios = values("cost_ratio_path", cost)
    finite("cost_ratio_path", ratios)
    if not ratios[0] >= 1:
        raise DomainError(f"cost_ratio_path entries must be >= 1, got {ratios[0]}")
    for before, after in zip(ratios, ratios[1:]):
        if not after >= before:
            raise DomainError(f"cost_ratio_path must not fall over the horizon, "
                              f"got {before} then {after}")
    return growth, cost


_ENTRIES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -2.0, -1.0, math.nextafter(-1.0, 0.0),
                     -1e-300, -0.0, 0.0, 1e-300, 0.5, math.nextafter(1.0, 0.0), 1.0, 1.5,
                     1e300]),
    st.floats(-1.5, 3.0))


@st.composite
def _path(draw, n_years, valid):
    """A scalar, or a list or tuple of about ``n_years`` entries: mixed
    entries that break the path rules, or entries drawn from ``valid``
    and sorted, a rising path whose rules a single entry may break."""
    if draw(st.booleans()):
        return draw(_ENTRIES)
    if draw(st.booleans()):
        entries = sorted(draw(st.lists(valid, min_size=n_years, max_size=n_years)))
        if draw(st.booleans()):
            entries[draw(st.integers(0, n_years - 1))] = draw(_ENTRIES)
    else:
        entries = draw(st.lists(_ENTRIES, min_size=max(n_years - 1, 0),
                                max_size=n_years + 1))
    return draw(st.sampled_from((tuple, list)))(entries)


class TestPathRules:
    """``Scenario`` finds a path's first failing entry with one search per
    rule; it keeps what the rules stated entry by entry give."""

    @given(data=st.data(), n_years=st.sampled_from((1, 2, 3, 5, 82)),
           tfp_enabled=st.booleans())
    @settings(max_examples=300)
    def test_matches_the_per_entry_rules(self, data, n_years, tfp_enabled):
        growth = data.draw(_path(n_years, st.floats(-0.5, 0.5)))
        cost = data.draw(_path(n_years, st.floats(1.0, 3.0)))

        def outcome(build):
            try:
                return repr(build())
            except ModelError as exc:
                return type(exc), str(exc)

        def built():
            case = Scenario(name="path", mode=SimulationMode.DYNAMIC,
                            horizon=(2019, 2019 + n_years - 1), robotics_growth=growth,
                            cost_ratio_path=cost, tfp_enabled=tfp_enabled)
            return case.robotics_growth, case.cost_ratio_path

        assert outcome(built) == outcome(
            lambda: _path_rules(growth, cost, n_years, tfp_enabled))


class TestScenarioAgainstParams:
    """Rules that need the scenario and the parameters run before year one."""

    def test_terminal_cost_ratio_must_leave_a_workforce(self, params, state0,
                                                        baseline):
        bad = scenario(cost_ratio_path=1e300, sigma_override=2.0,
                       exposure_override=1.0)
        with pytest.raises(DomainError, match="cost_ratio_path reaches 1e\\+300") \
                as info:
            run_scenario(bad, params, state0, baseline)
        assert_user_facing(str(info.value))

    def test_huge_ratio_fine_below_full_exposure(self, params, state0, baseline):
        result = run_scenario(scenario(cost_ratio_path=1e300, sigma_override=2.0,
                                       exposure_override=0.5),
                              params, state0, baseline)
        assert result.summary.displacement_rate == 0.5


class TestCompoundedStocks:
    """A growth path whose compounded stock leaves the float range is
    rejected before the first simulated year."""

    LONG = (2019, 2100)

    @pytest.mark.parametrize("growth, reached", [(1e4, "inf by 2096"),
                                                 (-0.999999, "0.0 by 2072")])
    def test_robotics_stock_leaves_the_range(self, params, state0, baseline,
                                             growth, reached):
        bad = scenario(horizon=self.LONG, robotics_growth=growth)
        with pytest.raises(DomainError, match="robotics_growth compounds the "
                                              f"robotics stock to {reached}"):
            run_scenario(bad, params, state0, baseline)

    def test_stock_just_inside_the_range_runs(self, params, state0, baseline):
        # 5001 ** 82 is about 2e303
        result = run_scenario(scenario(horizon=self.LONG, robotics_growth=5e3),
                              params, state0, baseline)
        assert math.isfinite(result.summary.gdp_gain)

    def test_tfp_overflow(self, params, state0, baseline):
        # the stock stays finite (11 ** 82 is about 2e85); TFP grows by 1 + 1000 g
        boosted = replace(params, tfp_boost_per_adoption_pct=10.0)
        bad = scenario(horizon=self.LONG, robotics_growth=10.0, tfp_enabled=True)
        with pytest.raises(DomainError, match="robotics_growth compounds TFP to "
                                              "inf by 2096 through tfp_enabled"):
            run_scenario(bad, boosted, state0, baseline)

    def test_tfp_times_stock_overflow(self, params, state0, baseline):
        # both stocks stay finite (5001 ** 82 is about 2e303, 1001 ** 82 about
        # 1e246), but TFP times the stock to the power theta does not
        bad = Scenario(name="x", mode="dynamic", horizon=self.LONG,
                       robotics_growth=5000.0, tfp_enabled=True)
        with pytest.raises(DomainError, match="robotics_growth compounds TFP times the "
                                              "robotics stock to the power 0.6 to inf "
                                              "by 2078"):
            run_scenario(bad, params, state0, baseline)

    def test_tfp_times_stock_just_inside_the_range_runs(self, params, state0, baseline):
        # TFP times the whole stock overflows (about 1e349), TFP times the
        # stock to the power 0.6 stays near 1e268
        ok = Scenario(name="x", mode="dynamic", horizon=self.LONG,
                      robotics_growth=300.0, tfp_enabled=True)
        result = run_scenario(ok, params, state0, baseline)
        assert math.isfinite(result.summary.gdp_gain)
        assert math.isfinite(result.records[-1].output)

    # output carries capital**alpha * labor**(1 - alpha - theta) on top of
    # TFP times the stock to the power theta, with labor in workers
    OUTPUT_OVERFLOW = 607.9498436903095

    def test_output_overflow(self, params, state0, baseline):
        bad = Scenario(name="x", mode="dynamic", horizon=self.LONG,
                       robotics_growth=self.OUTPUT_OVERFLOW, tfp_enabled=True)
        with pytest.raises(DomainError, match="robotics_growth compounds output at "
                                              "baseline labor to inf by 2100") as info:
            run_scenario(bad, params, state0, baseline)
        assert_user_facing(str(info.value))

    def test_output_just_inside_the_range_runs(self, params, state0, baseline):
        ok = Scenario(name="x", mode="dynamic", horizon=self.LONG,
                      robotics_growth=604.56, tfp_enabled=True)
        result = run_scenario(ok, params, state0, baseline)
        assert math.isfinite(result.records[-1].output)
        assert math.isfinite(result.summary.realized_gain)
        assert math.isfinite(result.summary.gdp_gain)

    # every stock stays finite from a tiny initial stock, but the gains over
    # state0 divide by it: the stock's ratio to it grows by 2e7 + 1 a year
    TINY = 1e-300

    @pytest.mark.parametrize("end, reached", [(2063, 2063), (2100, 2089)])
    def test_gain_over_a_tiny_stock_overflows(self, params, state0, baseline, end,
                                              reached):
        # the terminal gdp_gain overflows first; from 2089 on, a year's
        # output over the baseline output does too
        bad = scenario(horizon=(2019, end), robotics_growth=2e7,
                       theta_override=StaticTheta(0.6))
        with pytest.raises(DomainError, match="robotics_growth compounds the gain over "
                                              f"initial_state to inf by {reached}") as info:
            run_scenario(bad, params, replace(state0, robotics=self.TINY), baseline)
        assert_user_facing(str(info.value))

    def test_gain_over_a_tiny_stock_just_inside_the_range_runs(self, params, state0,
                                                               baseline):
        # 41 years: the ratio reaches about 1e299, to the power 0.6 about 1e180;
        # from 45 years on the ratio itself overflows
        ok = scenario(horizon=(2019, 2059), robotics_growth=2e7,
                      theta_override=StaticTheta(0.6))
        result = run_scenario(ok, params, replace(state0, robotics=self.TINY), baseline)
        assert math.isfinite(result.summary.gdp_gain)
        assert math.isfinite(result.summary.realized_gain)
        assert all(math.isfinite(r.output_gain_vs_baseline) for r in result.records)

    @pytest.mark.parametrize("theta", [StaticTheta(0.3), ThetaRamp(0.6, 0.3, 40)])
    def test_output_bound_follows_the_theta_schedule(self, params, state0, baseline,
                                                     theta):
        # at theta 0.3, TFP times the stock to the power theta stays near
        # 1e263; 1e300 workers to the power 0.35 add another 1e105
        bad = scenario(horizon=self.LONG, robotics_growth=1e3, tfp_enabled=True,
                       theta_override=theta)
        big_labor = replace(state0, labor=1e300)
        with pytest.raises(DomainError, match="compounds output at baseline labor"):
            run_scenario(bad, params, big_labor, baseline)
        assert math.isfinite(run_scenario(bad, params, state0, baseline)
                             .records[-1].output)


class TestStateAtTheTerminalRatio:
    """Labor is lowest in the terminal year; it must stay a positive float,
    not only its ratio to state0."""

    def test_labor_underflow(self, params, state0, baseline):
        # a labor ratio of about 1e-14 leaves 1e-329 workers out of 1e-315,
        # which rounds to 0
        tiny = replace(state0, labor=1e-315)
        bad = scenario(cost_ratio_path=1e14, sigma_override=1.0, exposure_override=1.0)
        with pytest.raises(DomainError, match="cost_ratio_path reaches 100000000000000.0, "
                                              "which displaces the whole workforce") \
                as info:
            run_scenario(bad, params, tiny, baseline)
        assert_user_facing(str(info.value))
        assert run_scenario(bad, params, state0, baseline).records[-1].labor > 0


class TestInitialOutput:
    """Each year's gain divides by state0's output, which must not round to 0."""

    def test_underflowing_output(self, cfg):
        tiny = replace(cfg.initial_state, tfp=1e-300, labor=1e-300)
        dynamic = [s for s in cfg.scenarios if s.mode is SimulationMode.DYNAMIC]
        assert dynamic
        for bundled in dynamic:
            with pytest.raises(DomainError, match="initial_state gives output 0.0 at "
                                                  "theta 0.[45], which must be positive"
                               ) as info:
                run_scenario(bundled, cfg.params, tiny, cfg.baseline)
            assert_user_facing(str(info.value))

    def test_every_theta_of_a_ramp(self, params, state0, baseline):
        # the output is about 1e-315 at the ramp's start, theta 0.05, and
        # 1e-435, below the smallest float, at its end, theta 0.45
        tiny = replace(state0, tfp=1e-300, labor=1.0, robotics=1e-300)
        ramp = scenario(theta_override=ThetaRamp(start=0.05, end=0.45, ramp_years=1))
        with pytest.raises(DomainError, match="output 0.0 at theta 0.45"):
            run_scenario(ramp, params, tiny, baseline)

    def test_validate_command(self, tmp_path, capsys):
        text = config_text(extra="initial_state: {tfp: 1.0e-300, labor: 1.0e-300}\n")
        error = config_error(text)
        assert error.path == "scenarios[0]"
        assert "initial_state gives output 0.0" in str(error)
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert cli_dispatch(["validate", "--config", str(path)]) == 1
        assert "scenarios[0]: initial_state gives output 0.0" in capsys.readouterr().err


class TestCalibrationTarget:
    """A bad target is named as the target, not as the helper argument it feeds."""

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_output_target_must_be_positive(self, capsys, value):
        code = cli_dispatch(["calibrate", "--target", f"output={value}", "--solve", "tfp"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: output target must be positive, got {value}\n"
        assert_user_facing(captured.err)


class TestModelInputs:
    @pytest.mark.parametrize("field", ["sigma", "tfp_boost_per_adoption_pct"])
    def test_params_reject_non_finite(self, field):
        fields = dict(alpha=0.35, theta=StaticTheta(0.5), sigma=0.65)
        fields[field] = math.inf
        with pytest.raises(DomainError, match=f"{field} must be finite and >= 0"):
            ModelParams(**fields)

    @pytest.mark.parametrize("field", ["tfp", "capital", "labor", "robotics"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_state_rejects_non_finite(self, field, value):
        fields = dict(year=2024, tfp=1.0, capital=1.0, labor=1.0, robotics=1.0)
        fields[field] = value
        with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
            EconomyState(**fields)

    @pytest.mark.parametrize("field", ["total_labor_force", "min_wage",
                                       "low_wage_headcount", "remittance_base",
                                       "remittance_reference_rate"])
    def test_baseline_rejects_non_finite(self, field):
        fields = dict(total_labor_force=1000.0, expat_share=0.9,
                      sector_shares={"services": 0.5}, min_wage=1000.0,
                      low_wage_headcount=100.0, remittance_base=1e9)
        fields[field] = math.inf
        with pytest.raises(DomainError, match=field):
            LaborBaseline(**fields)

    def test_baseline_rejects_overflowing_remittance_band(self, baseline):
        with pytest.raises(DomainError, match="remittance_reference_rate 1e-300 scales "
                                              "the remittance band to inf"):
            replace(baseline, remittance_reference_rate=1e-300)
        # the high end at rate 1 is 45e9 * 0.18 / 1e-297, still a float
        assert replace(baseline, remittance_reference_rate=1e-297).remittance_base == 45e9

    def test_config_rejects_overflowing_remittance_band(self):
        error = config_error(config_text().replace(
            "  remittance_base: 1.0e+9\n",
            "  remittance_base: 1.0e+9\n  remittance_reference_rate: 1.0e-300\n"))
        assert error.path == "baseline"
        assert "remittance_reference_rate" in str(error)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("model, field", [(JobCreationRatio, "ratio"),
                                              (JobCreationRamp, "terminal_ratio")])
    def test_job_creation_rejects_non_finite(self, model, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite and >= 0"):
            model(value)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_sector_rejects_non_finite_risk_multiplier(self, value):
        with pytest.raises(DomainError, match="a: risk_multiplier must be finite "
                                              "and >= 0"):
            SectorProfile(name="a", employment_share=0.2, risk_multiplier=value,
                          automation_potential=0.5, readiness=Readiness.LOW)


class TestConfigBoundary:
    """The same defects through a config file fail at load with a dotted path."""

    @pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
    def test_non_finite_growth(self, value):
        error = config_error(config_text(growth=value))
        assert error.path == "scenarios[1].robotics_growth"
        assert "finite" in str(error)

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_non_finite_cost_ratio(self, value):
        error = config_error(config_text(cost=f"[1.05, {value}]"))
        assert error.path == "scenarios[1].cost_ratio_path[1]"

    @pytest.mark.parametrize("value", [".inf", ".nan"])
    def test_non_finite_remittance_base(self, value):
        error = config_error(config_text(remittance_base=value))
        assert error.path == "baseline.remittance_base"

    def test_integer_too_large_for_a_float(self):
        error = config_error(config_text(remittance_base="1" + "0" * 400))
        assert error.path == "baseline.remittance_base"
        assert "finite" in str(error)

    @pytest.mark.parametrize("path, old, new", [
        ("params.sigma", "sigma: 0.65", "sigma: .inf"),
        ("params.theta.value", "value: 0.5", "value: .nan"),
    ])
    def test_non_finite_params(self, path, old, new):
        assert config_error(config_text().replace(old, new)).path == path

    def test_non_finite_sector_field(self):
        extra = """sectors:
  - {name: a, employment_share: 0.2, risk_multiplier: .inf,
     automation_potential: 0.5, readiness: low}
"""
        assert config_error(config_text(extra=extra)).path == \
            "sectors[0].risk_multiplier"

    def test_negative_growth_with_spillover(self):
        error = config_error(config_text(growth="[0.05, -0.01]", tfp="true"))
        assert error.path == "scenarios[1]"
        assert "robotics_growth must be >= 0 when tfp_enabled" in str(error)
        assert_user_facing(str(error))

    def test_cost_ratio_below_one(self):
        error = config_error(config_text(cost="0.9"))
        assert error.path == "scenarios[1]"
        assert "cost_ratio_path entries must be >= 1" in str(error)
        assert_user_facing(str(error))

    def test_falling_cost_path(self):
        error = config_error(config_text(cost="[1.05, 1.02]"))
        assert error.path == "scenarios[1]"
        assert "cost_ratio_path must not fall" in str(error)

    def test_terminal_cost_ratio_checked_at_load(self):
        text = config_text(cost="1.0e+300", extra="""    sigma: 2
    exposure_share: 1.0
""")
        error = config_error(text)
        assert error.path == "scenarios[1]"
        assert "cost_ratio_path reaches 1e+300" in str(error)
        assert_user_facing(str(error))

    def test_theta_override_checked_at_load(self):
        error = config_error(config_text(extra="    theta: {mode: static, value: 0.7}\n"))
        assert error.path == "scenarios[1]"
        assert "alpha + theta must stay below 1, got 0.35 + 0.7" in str(error)

    def test_robotics_stock_overflow_checked_at_load(self):
        text = config_text(growth="1.0e+4").replace("horizon: [2030, 2031]",
                                                    "horizon: [2019, 2100]")
        error = config_error(text)
        assert error.path == "scenarios[1]"
        assert "robotics_growth compounds the robotics stock to inf" in str(error)

    def test_tfp_overflow_checked_at_load(self):
        text = (config_text(growth="10.0", tfp="true")
                .replace("horizon: [2030, 2031]", "horizon: [2019, 2100]")
                .replace("sigma: 0.65", "sigma: 0.65\n  tfp_boost_per_adoption_pct: 10"))
        error = config_error(text)
        assert error.path == "scenarios[1]"
        assert "robotics_growth compounds TFP to inf" in str(error)

    def test_tfp_times_stock_overflow_checked_at_load(self):
        text = (config_text(growth="5000.0", tfp="true")
                .replace("horizon: [2030, 2031]", "horizon: [2019, 2100]")
                .replace("sigma: 0.65", "sigma: 0.65\n  tfp_boost_per_adoption_pct: 0.002"))
        error = config_error(text)
        assert error.path == "scenarios[1]"
        assert "robotics_growth compounds TFP times the robotics stock" in str(error)
        assert_user_facing(str(error))

    def test_output_overflow_checked_at_load(self):
        # the bundled parameters and labor force, as in TestCompoundedStocks
        text = (config_text(growth="607.9498436903095", tfp="true", extra="    theta: "
                            "{mode: ramp, start: 0.4, end: 0.6, ramp_years: 5}\n")
                .replace("horizon: [2030, 2031]", "horizon: [2019, 2100]")
                .replace("total_labor_force: 1000", "total_labor_force: 2130000"))
        error = config_error(text)
        assert error.path == "scenarios[1]"
        assert "robotics_growth compounds output at baseline labor to inf" in str(error)
        assert_user_facing(str(error))

    def test_gain_over_a_tiny_stock_checked_at_load(self):
        text = config_text(growth="2.0e+7", extra="    theta: {mode: static, value: 0.6}\n"
                           "initial_state: {robotics: 1.0e-300}\n"
                           ).replace("horizon: [2030, 2031]", "horizon: [2019, 2100]")
        error = config_error(text)
        assert error.path == "scenarios[1]"
        assert "robotics_growth compounds the gain over initial_state to inf" in str(error)
        assert_user_facing(str(error))

    def test_validate_command_rejects_with_path(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(config_text(cost="[1.05, 1.02]"))
        assert cli_dispatch(["validate", "--config", str(path)]) == 1
        assert "scenarios[1]: cost_ratio_path must not fall" in capsys.readouterr().err

    def test_validate_command_rejects_overflowing_growth(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(config_text(growth="1.0e+4").replace(
            "horizon: [2030, 2031]", "horizon: [2019, 2100]"))
        assert cli_dispatch(["validate", "--config", str(path)]) == 1
        assert "scenarios[1]: robotics_growth compounds" in capsys.readouterr().err


class TestUnknownMode:
    """A scenario mode outside the enum is a config error, not a crash."""

    MODES = "['comparative_static', 'dynamic']"
    TEXT = config_text().replace("mode: comparative_static", "mode: bogus")

    def test_scenario_built_in_code(self):
        with pytest.raises(DomainError, match=r"mode must be one of .*'bogus'"):
            scenario(mode="bogus")

    def test_loads_config(self):
        error = config_error(self.TEXT)
        assert error.path == "scenarios[0].mode"
        assert str(error) == f"scenarios[0].mode: mode must be one of {self.MODES}, got 'bogus'"

    def test_validate_command(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(self.TEXT)
        src = str(Path(robolabor.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "robolabor.cli", "validate",
                              "--config", str(path)],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 1
        assert "scenarios[0].mode: mode must be one of" in run.stderr
        assert "Traceback" not in run.stderr


class TestYamlConstructorErrors:
    """Scalars the YAML constructor cannot build fail as config errors."""

    CASES = {"huge_integer": "params: " + "1" * 5000,
             "impossible_date": "a: 2024-13-45"}

    @pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
    def test_loads_config(self, text):
        with pytest.raises(ConfigError, match="invalid YAML in custom.yaml: "):
            loads_config(text, source="custom.yaml")

    @pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
    def test_validate_command(self, text, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert cli_dispatch(["validate", "--config", str(path)]) == 1
        assert f"invalid YAML in {path}: " in capsys.readouterr().err


BUNDLED = yaml.safe_load(robolabor.default_config_path().read_text(encoding="utf-8"))


def _numeric_leaves(node, path=()) -> list[tuple]:
    """The path of every number in a parsed config; booleans are no numbers."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items for leaf in _numeric_leaves(value, (*path, key))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


LEAVES = _numeric_leaves(BUNDLED)
EXTREMES = (0, 5e-324, -5e-324, 1e-300, 1e-20, math.nextafter(1.0, 0.0),
            math.nextafter(1.0, 2.0), 1e300, sys.float_info.max, None, True, "x")
# the calibration target of each metric a scenario does not state
DEFAULT_TARGETS = {"gain": 0.015, "displacement": 0.032, "output": 1.0}


def _edited_bundle(edits) -> str:
    data = copy.deepcopy(BUNDLED)
    for path, value in edits:
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return yaml.safe_dump(data)


def _assert_in_range(result) -> None:
    """Every number a run reports is finite, a gain exceeds -1 and a rate lies in [0, 1]."""
    summary = result.summary
    numbers = [value for record in result.records for value in dataclasses.astuple(record)]
    numbers += [value for value in dataclasses.astuple(summary) if not isinstance(value, str)]
    assert all(math.isfinite(value) for value in numbers if value is not None), result
    for gain in (summary.gdp_gain, summary.raw_gdp_gain):
        assert gain is None or gain > -1, result
    for rate in (summary.displacement_rate, summary.raw_displacement_rate):
        assert rate is None or 0 <= rate <= 1, result


# edits of the bundled config that loaded and then failed to run (an
# OverflowError, an inf or a gain below -1 written), and the one line
# validate prints for each
REJECTED = {
    # a raw cost ratio whose power overflows at sigma 20
    "raw_cost_ratio_below_1": (
        [(("scenarios", 0, "sigma"), 20), (("scenarios", 0, "raw_shocks", "cost_ratio"), 1e-20)],
        "scenarios[0].raw_shocks: raw cost_ratio must be finite and >= 1, got 1e-20"),
    # a raw growth whose gain overflows through the TFP spillover
    "raw_gain_overflow": (
        [(("scenarios", 3, "raw_shocks", "robotics_growth"), 1e300)],
        "scenarios[3]: raw robotics_growth 1e+300 gives a raw gdp_gain of inf"),
    # a negative raw growth under the spillover, whose raw gain falls below -1
    "negative_raw_growth_with_tfp": (
        [(("params", "tfp_boost_per_adoption_pct"), 0.02),
         (("scenarios", 3, "raw_shocks", "robotics_growth"), -0.9)],
        "scenarios[3]: raw robotics_growth must be >= 0 when tfp_enabled, got -0.9"),
    # a creation ratio whose jobs created overflow
    "jobs_created_overflow": (
        [(("scenarios", 4, "job_creation", "terminal_ratio"), sys.float_info.max)],
        "scenarios[4]: job_creation ratio 1.7976931348623157e+308 times the "),
}
# a sector whose share times multiplier rounds to 0, which the split divided by
ZERO_WEIGHTED_MULTIPLIER = [(("scenarios", 0, "cost_ratio_path"), 1e300),
                            (("sectors", 0, "risk_multiplier"), 5e-324)]


class TestValidatedConfigsRun:
    """A config that loads runs every command to an answer or a model error."""

    @given(st.lists(st.tuples(st.sampled_from(LEAVES), st.sampled_from(EXTREMES)),
                    min_size=1, max_size=3))
    @example(REJECTED["raw_cost_ratio_below_1"][0])
    @example(REJECTED["raw_gain_overflow"][0])
    @example(REJECTED["negative_raw_growth_with_tfp"][0])
    @example(REJECTED["jobs_created_overflow"][0])
    @example(ZERO_WEIGHTED_MULTIPLIER)
    @settings(max_examples=50)
    def test_every_command_answers_or_raises_a_model_error(self, edits):
        try:
            config = loads_config(_edited_bundle(edits), source="<edited>")
        except ValidationError:
            return
        params, state0, baseline = config.params, config.initial_state, config.baseline
        results = []
        for scenario in config.scenarios:
            with suppress(ModelError):
                results.append(run_scenario(scenario, params, state0, baseline,
                                            config.sectors))
                _assert_in_range(results[-1])
            with suppress(ModelError):
                one_at_a_time(scenario, params, state0, baseline, default_specs(),
                              config.sectors)
            targets = scenario.targets or TargetSet()
            stated = {"gain": targets.gdp_gain, "displacement": targets.displacement}
            for target_name, parameter in SUPPORTED_PAIRS:
                target = stated.get(target_name)
                target = DEFAULT_TARGETS[target_name] if target is None else target
                with suppress(ModelError):
                    calibrate_scenario(scenario, params, state0, target_name, target,
                                       parameter)
        with tempfile.TemporaryDirectory() as directory:
            write_outputs(build_output_bundle(config, results), directory,
                          config.output.formats)

    @pytest.mark.parametrize("edits,message", REJECTED.values(), ids=REJECTED)
    def test_validate_rejects_in_one_line(self, edits, message, tmp_path, capsys):
        path = tmp_path / "edited.yaml"
        path.write_text(_edited_bundle(edits), encoding="utf-8")
        assert cli_dispatch(["validate", "--config", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"validation error: {message}")

    def test_simulate_reports_an_unmovable_split_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "edited.yaml"
        path.write_text(_edited_bundle(ZERO_WEIGHTED_MULTIPLIER), encoding="utf-8")
        assert cli_dispatch(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli_dispatch(["simulate", "--config", str(path),
                             "--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: national rate 0.835941455612 is unattainable")
