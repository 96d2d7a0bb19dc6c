"""One-at-a-time perturbations, tornado ordering, FD elasticities."""

import itertools
import math
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, strategies as st
from mpmath import mp

import robolabor
import robolabor.engine as engine_module
import robolabor.sensitivity as sensitivity_module
from robolabor import sectors as sectors_module
from robolabor import (
    DomainError,
    EconomyState,
    JobCreationRamp,
    JobCreationRatio,
    ModelError,
    ModelParams,
    PerturbationSpec,
    RawShocks,
    Readiness,
    Scenario,
    SectorProfile,
    SimulationMode,
    StaticTheta,
    ThetaRamp,
    UnattainableTargetError,
    default_specs,
    elasticity_fd,
    loads_config,
    one_at_a_time,
    production_output,
    run_scenario,
)
from robolabor.core import _with_field
from robolabor.sectors import _Table
from robolabor.sensitivity import METRICS, PARAMETERS


def by_parameter(records):
    return {record.parameter: record for record in records}


class TestOneAtATime:
    def test_terminal_labor_runs_once_per_checked_record(self, cfg, params, state0,
                                                         baseline, sectors, monkeypatch):
        # once for the base, whatever its metrics, and once for each side of
        # sigma, the cost ratio and the exposure share: no other side moves it
        calls = []
        terminal_labor = engine_module._terminal_labor
        monkeypatch.setattr(engine_module, "_terminal_labor",
                            lambda *args: calls.append(args) or terminal_labor(*args))
        one_at_a_time(cfg.scenario("baseline"), params, state0, baseline,
                      default_specs(0.10), sectors)
        assert len(calls) == 1 + 2 * 3 == 7

    def test_theta_schedule_runs_once_per_theta_stage(self, cfg, params, state0, baseline,
                                                      sectors, monkeypatch):
        # once for the base and once for each side of alpha and theta
        calls = []
        schedule = engine_module._theta_schedule
        monkeypatch.setattr(engine_module, "_theta_schedule",
                            lambda *args: calls.append(args) or schedule(*args))
        one_at_a_time(cfg.scenario("baseline"), params, state0, baseline,
                      default_specs(0.10), sectors)
        assert len(calls) == 1 + 2 * 2 == 5

    @pytest.mark.parametrize("name, calls", [("baseline", 7), ("staged_adoption", 6)])
    def test_base_checks_the_split_once(self, cfg, params, state0, baseline, sectors,
                                        monkeypatch, name, calls):
        # once for the base, whatever its metrics, and once for each side of
        # sigma, the cost ratio and the exposure share that passes its checks:
        # staged_adoption's high exposure side fails. No other side moves the rate
        counted = []
        split_fits = engine_module._split_fits
        monkeypatch.setattr(engine_module, "_split_fits",
                            lambda *args: counted.append(args) or split_fits(*args))
        one_at_a_time(cfg.scenario(name), params, state0, baseline, default_specs(0.10),
                      sectors)
        assert len(counted) == calls

    def test_theta_swing_reference_values(self, cfg, params, state0, baseline):
        records = one_at_a_time(cfg.scenario("baseline"), params, state0,
                                baseline, specs=[PerturbationSpec("theta")])
        (record,) = records
        # 1.05**0.45 - 1 and 1.05**0.55 - 1
        assert record.low_result == pytest.approx(0.022198371150337317, rel=1e-9)
        assert record.high_result == pytest.approx(0.02719788021025307, rel=1e-9)
        mp.dps = 50
        low = float(mp.mpf("1.05") ** mp.mpf(0.45) - 1)
        high = float(mp.mpf("1.05") ** mp.mpf(0.55) - 1)
        assert record.low_result == pytest.approx(low, rel=1e-12)
        assert record.high_result == pytest.approx(high, rel=1e-12)
        assert record.swing == record.high_result - record.low_result

    def test_zero_perturbation_zero_swings(self, cfg, params, state0, baseline):
        records = one_at_a_time(cfg.scenario("baseline"), params, state0,
                                baseline, specs=default_specs(0.0))
        assert len(records) == len(PARAMETERS)
        for record in records:
            assert record.swing == 0.0
            assert record.low_result == record.baseline_result
            assert record.pct_deviation_low == 0.0
            assert record.pct_deviation_high == 0.0
            assert record.error is None

    def test_baseline_makes_no_full_run(self, cfg, params, state0, baseline,
                                        monkeypatch, full_metric):
        calls = []
        inner = run_scenario

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(sensitivity_module, "run_scenario", counting)
        for scenario, table in itertools.product(cfg.scenarios, (None, cfg.sectors)):
            records = one_at_a_time(scenario, params, state0, baseline, sectors=table)
            # the base evaluates each metric alone, as the sides do
            assert calls == [], scenario.name
            full = inner(scenario, params, state0, baseline, table)
            for record in records:
                assert (record.baseline_result.hex()
                        == full_metric(record.metric, full).hex()), (
                    scenario.name, record.parameter)

    def test_no_specs_evaluate_nothing(self, cfg, params, state0, baseline):
        # a base the engine rejects: alpha + theta reaches 1
        steep = replace(cfg.scenario("baseline"), theta_override=StaticTheta(0.7))
        with pytest.raises(DomainError, match="alpha \\+ theta"):
            one_at_a_time(steep, params, state0, baseline)
        assert one_at_a_time(steep, params, state0, baseline, specs=[]) == []

    def test_tornado_ordering(self, cfg, params, state0, baseline):
        records = one_at_a_time(cfg.scenario("baseline"), params, state0,
                                baseline)
        failed = [math.isnan(record.swing) for record in records]
        # failures, if any, are all at the tail
        assert failed == sorted(failed)
        magnitudes = [abs(record.swing) for record in records
                      if not math.isnan(record.swing)]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_domain_breach_is_recorded_not_raised(self, state0, baseline):
        # alpha*1.1 + theta = 0.506 + 0.5 breaches the unit elasticity budget
        params = ModelParams(alpha=0.46, theta=StaticTheta(0.5), sigma=0.65)
        scenario = Scenario(name="edge", mode=SimulationMode.COMPARATIVE_STATIC,
                            horizon=(2030, 2030), robotics_growth=0.05,
                            cost_ratio_path=1.05)
        (record,) = one_at_a_time(
            scenario, params, state0, baseline,
            specs=[PerturbationSpec("alpha", metric="terminal_output")])
        assert record.error is not None
        assert "high perturbation invalid" in record.error
        assert math.isnan(record.high_result)
        assert math.isnan(record.swing)
        assert not math.isnan(record.low_result)

    def test_failed_records_sort_last(self, state0, baseline):
        # alpha*1.1 and theta*1.1 breach the elasticity budget, and full
        # exposure cannot scale above 1; the three failures sort by name
        params = ModelParams(alpha=0.46, theta=StaticTheta(0.5), sigma=0.65)
        scenario = Scenario(name="edge", mode=SimulationMode.COMPARATIVE_STATIC,
                            horizon=(2030, 2030), robotics_growth=0.05,
                            cost_ratio_path=1.05)
        records = one_at_a_time(scenario, params, state0, baseline)
        assert [r.parameter for r in records[-3:]] == \
            ["alpha", "exposure_share", "theta"]
        assert all(record.error is not None for record in records[-3:])
        assert all(record.error is None for record in records[:-3])

    def test_full_exposure_high_side_breach(self, cfg, params, state0, baseline):
        # low_adoption runs at full exposure; scaling it to 1.1 is invalid
        records = one_at_a_time(
            cfg.scenario("low_adoption"), params, state0, baseline,
            specs=[PerturbationSpec("exposure_share", metric="displacement")])
        (record,) = records
        assert record.error is not None and "high" in record.error
        assert record.high_value == pytest.approx(1.1, rel=1e-12)
        assert record.low_result == pytest.approx(0.9 * 0.019, rel=1e-6)

    def test_cost_ratio_perturbs_the_deviation_from_one(self, cfg, params,
                                                        state0, baseline):
        records = one_at_a_time(cfg.scenario("baseline"), params, state0,
                                baseline, specs=[PerturbationSpec("cost_ratio",
                                                 metric="displacement")])
        (record,) = records
        assert record.baseline_value == 1.05
        assert record.low_value == pytest.approx(1.045, rel=1e-12)
        assert record.high_value == pytest.approx(1.055, rel=1e-12)
        assert record.low_result < record.baseline_result < record.high_result

    def test_sign_consistency(self, cfg, params, state0, baseline):
        records = by_parameter(one_at_a_time(cfg.scenario("baseline"), params,
                                             state0, baseline))
        # more elastic output, cheaper robots, higher substitutability:
        # each pushes its own metric up
        for name in ("theta", "cost_ratio", "sigma", "exposure_share"):
            record = records[name]
            assert record.high_result > record.low_result, name

    def test_tfp_boost_inert_when_spillover_disabled(self, cfg, params, state0,
                                                     baseline):
        records = by_parameter(one_at_a_time(cfg.scenario("baseline"), params,
                                             state0, baseline))
        assert records["tfp_boost"].swing == 0.0

    def test_tfp_boost_active_in_spillover_scenario(self, cfg, params, state0,
                                                    baseline):
        records = by_parameter(one_at_a_time(
            cfg.scenario("productivity_spillover"), params, state0, baseline))
        assert records["tfp_boost"].swing > 0.0

    def test_sector_argument_is_optional(self, cfg, params, state0, baseline,
                                         sectors):
        with_sectors = one_at_a_time(cfg.scenario("baseline"), params, state0,
                                     baseline, sectors=sectors,
                                     specs=[PerturbationSpec("theta")])
        without = one_at_a_time(cfg.scenario("baseline"), params, state0,
                                baseline, specs=[PerturbationSpec("theta")])
        assert with_sectors[0].swing == without[0].swing


class TestSpecs:
    def test_default_specs_cover_all_parameters(self):
        specs = default_specs()
        assert tuple(spec.parameter for spec in specs) == PARAMETERS
        assert all(spec.perturbation == 0.10 for spec in specs)
        assert {spec.metric for spec in specs} <= set(METRICS)

    def test_metric_routing(self):
        specs = {spec.parameter: spec.metric for spec in default_specs()}
        assert specs["alpha"] == "terminal_output"
        assert specs["theta"] == "output_gain"
        assert specs["sigma"] == "displacement"
        assert specs["cost_ratio"] == "displacement"

    @pytest.mark.parametrize("parameter, metric", [
        ("alpha", "terminal_output"), ("theta", "output_gain"), ("sigma", "displacement"),
        ("robotics_growth", "output_gain"), ("cost_ratio", "displacement"),
        ("exposure_share", "displacement"), ("tfp_boost", "output_gain"),
    ])
    def test_default_metric_is_the_parameters_own(self, parameter, metric):
        spec = PerturbationSpec(parameter)
        assert spec.metric == metric
        assert spec == next(s for s in default_specs() if s.parameter == parameter)

    @pytest.mark.parametrize("parameter", ["alpha", "sigma", "cost_ratio", "exposure_share"])
    def test_default_metric_moves_on_baseline(self, cfg, params, state0, baseline,
                                              parameter):
        # each acts through a metric other than output_gain, whose swing is zero
        (record,) = one_at_a_time(cfg.scenario("baseline"), params, state0, baseline,
                                  specs=[PerturbationSpec(parameter)])
        assert record.swing != 0.0

    @pytest.mark.parametrize("kwargs", [
        {"parameter": "beta"}, {"parameter": "theta", "perturbation": 1.0},
        {"parameter": "theta", "perturbation": -0.1},
        {"parameter": "theta", "metric": "gdp"},
    ])
    def test_spec_validation(self, kwargs):
        with pytest.raises(DomainError):
            PerturbationSpec(**kwargs)


class TestElasticityFd:
    def test_power_law_recovered_exactly(self):
        assert elasticity_fd(lambda p: 3.0 * p ** 2.7, 5.0) == \
            pytest.approx(2.7, rel=1e-12)

    def test_constant_metric(self):
        assert elasticity_fd(lambda p: 42.0, 5.0) == 0.0

    def test_step_size_does_not_matter_for_power_laws(self):
        wide = elasticity_fd(lambda p: p ** -1.3, 2.0, step=0.5)
        narrow = elasticity_fd(lambda p: p ** -1.3, 2.0, step=0.01)
        assert wide == pytest.approx(narrow, rel=1e-9)

    def test_recovers_robotics_elasticity_of_output(self, state0):
        def metric(robotics):
            state = EconomyState(year=state0.year, tfp=state0.tfp,
                                 capital=state0.capital, labor=state0.labor,
                                 robotics=robotics)
            return production_output(state, 0.35, 0.5)

        assert elasticity_fd(metric, 1.0) == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("value,step", [(0.0, 0.1), (-1.0, 0.1),
                                            (1.0, 0.0), (1.0, 1.0)])
    def test_validation(self, value, step):
        with pytest.raises(DomainError):
            elasticity_fd(lambda p: p, value, step=step)

    def test_negative_metric_rejected(self):
        with pytest.raises(DomainError):
            elasticity_fd(lambda p: p - 10.0, 1.0)


BUNDLED = Path(robolabor.__file__).resolve().parent / "data" / "default_config.yaml"
# a dynamic scenario whose every path varies by year: growth, cost and theta
DYNAMIC = {
    "name": "dynamic_paths",
    "mode": "dynamic",
    "horizon": [2026, 2035],
    "robotics_growth": [0.02, 0.035, 0.05, 0.04, 0.06, 0.03, 0.045, 0.05, 0.025, 0.04],
    "cost_ratio_path": [1.01, 1.02, 1.02, 1.04, 1.07, 1.09, 1.12, 1.12, 1.15, 1.2],
    "theta": {"mode": "ramp", "start": 0.3, "end": 0.45, "ramp_years": 6},
    "sigma": 0.7,
    "exposure_share": 0.6,
    "tfp_enabled": True,
    "job_creation": {"mode": "ramp", "terminal_ratio": 0.5},
    "key_driver": "per-year paths",
}


class TestAgainstReference:
    """Tornados agree with the benchmark's independent reference model.

    ``perfbench/reference.py`` recomputes each row from the plain config
    data and ``perfbench/checks.py::check_tornado`` compares the records
    to it: every value to 1e-9, the invalid sides, swing = high - low and
    tornado order.
    """

    @pytest.fixture(scope="class")
    def bench(self, load_perfbench):
        cfg = yaml.safe_load(BUNDLED.read_text(encoding="utf-8"))
        cfg["scenarios"].append(DYNAMIC)
        return (load_perfbench("reference"), load_perfbench("checks"), cfg,
                loads_config(yaml.safe_dump(cfg), source="<reference>"))

    @pytest.mark.parametrize("perturbation", [0.05, 0.10, 0.15, 0.20])
    @pytest.mark.parametrize("name", ["baseline", "high_adoption", "low_adoption",
                                      "productivity_spillover", "staged_adoption",
                                      "null_shock", "dynamic_paths"])
    def test_tornado_matches_reference(self, bench, name, perturbation):
        reference, checks, cfg, config = bench
        records = one_at_a_time(config.scenario(name), config.params,
                                config.initial_state, config.baseline,
                                default_specs(perturbation), config.sectors)
        scenario = next(s for s in cfg["scenarios"] if s["name"] == name)
        checks.check_tornado(records, reference.tornado(cfg, scenario, perturbation))


def _tight_wide_table():
    """240 sectors and a residual whose caps sum to a rate of about 0.035,
    so the bundled scenarios' rates, perturbed, land on both sides of it;
    compiled once, as a loaded config's table is."""
    rng = random.Random(7)
    named = [SectorProfile(name=f"s{i:03d}", employment_share=0.9 / 240,
                           risk_multiplier=rng.lognormvariate(0.0, 0.5),
                           automation_potential=rng.uniform(0.0, 0.07),
                           readiness=Readiness.MODERATE) for i in range(240)]
    return _Table((*named, SectorProfile(name="rest", employment_share=0.1,
                                         risk_multiplier=None, automation_potential=0.03,
                                         readiness=Readiness.MODERATE, residual=True)))


class TestTerminalMetric:
    """The sides' metric-only evaluation gives the full run's float, and
    raises where the full run raises, with the same error."""

    @pytest.fixture(scope="class")
    def config(self):
        cfg = yaml.safe_load(BUNDLED.read_text(encoding="utf-8"))
        cfg["scenarios"].append(DYNAMIC)
        return loads_config(yaml.safe_dump(cfg), source="<bundled and dynamic>")

    def test_equals_the_full_run(self, config, full_metric):
        wide = _tight_wide_table()
        scenarios = [*config.scenarios,
                     # a raw growth whose gain overflows under the spillover
                     replace(config.scenario("baseline"), tfp_enabled=True,
                             raw_shocks=RawShocks(robotics_growth=1e300))]
        seen = {"fits": 0, "split": 0, "unattainable": 0, "domain": 0, "raw_gain": 0}

        def outcome(call):
            try:
                return call().hex()
            except ModelError as exc:
                return type(exc), str(exc)

        for scenario, table in itertools.product(scenarios, (None, config.sectors, wide)):
            for parameter, factor in itertools.product(PARAMETERS, (0.1, 0.8, 1.0, 1.2, 1.9)):
                holder, field = sensitivity_module._holder(parameter, scenario, config.params)
                try:
                    changed = replace(holder, **{field: sensitivity_module._scaled(
                        getattr(holder, field), factor, field)})
                except ModelError:
                    continue  # the side fails before either evaluation
                side, params = ((changed, config.params) if holder is scenario
                                else (scenario, changed))
                inputs = (side, params, config.initial_state)
                full = {metric: outcome(lambda: full_metric(
                            metric, run_scenario(*inputs, config.baseline, table)))
                        for metric in METRICS}
                alone = {metric: outcome(lambda: sensitivity_module._terminal_metric(
                             metric, *inputs, table))
                         for metric in METRICS}
                assert alone == full, (side.name, parameter, factor)
                rate = full["displacement"]
                if isinstance(rate, tuple):
                    raw_gain = rate[0] is DomainError and rate[1].startswith("raw ")
                    seen["unattainable" if rate[0] is UnattainableTargetError
                         else "raw_gain" if raw_gain else "domain"] += 1
                elif table is wide:
                    fits = sectors_module._split_fits(float.fromhex(rate), wide)
                    seen["fits" if fits else "split"] += 1
        # each path of the evaluation was taken
        assert min(seen.values()) > 0, seen

    def test_checked_fields_equal_the_full_run(self, config):
        """Each field of ``_effective_params``' record is the float the full
        run reports or compounds: a field read under the wrong name fails."""
        seen = {"raw": 0, "no raw": 0}
        for scenario in config.scenarios:
            inputs = (scenario, config.params, config.initial_state)
            checked = engine_module._effective_params(*inputs)
            result = run_scenario(*inputs, config.baseline)
            records, summary, last = result.records, result.summary, result.records[-1]
            assert checked.gain.hex() == summary.gdp_gain.hex(), scenario.name
            if summary.raw_gdp_gain is None:
                assert checked.raw_gain is None, scenario.name
                seen["no raw"] += 1
            else:
                assert checked.raw_gain.hex() == summary.raw_gdp_gain.hex(), scenario.name
                seen["raw"] += 1
            assert ([theta.hex() for theta in checked.thetas]
                    == [record.theta.hex() for record in records]), scenario.name
            assert checked.tfp.hex() == last.tfp.hex(), scenario.name
            assert ((config.initial_state.labor * checked.ratio).hex()
                    == last.labor.hex()), scenario.name
            sigma, _, exposure = engine_module._resolved(scenario, config.params)
            assert checked.sigma.hex() == sigma.hex(), scenario.name
            assert checked.exposure.hex() == exposure.hex(), scenario.name
            # the stock and the baseline outputs through the last record's
            # output and each record's gain, as the year loop computes them
            alpha, theta = config.params.alpha, last.theta
            output = (checked.tfp * config.initial_state.capital ** alpha
                      * last.labor ** (1.0 - alpha - theta) * checked.robotics ** theta)
            assert output.hex() == last.output.hex(), scenario.name
            assert set(checked.base_by_theta) == {record.theta for record in records}
            for record in records:
                gain = record.output / checked.base_by_theta[record.theta] - 1.0
                assert gain.hex() == record.output_gain_vs_baseline.hex(), scenario.name
        # both kinds of raw gain were pinned
        assert min(seen.values()) > 0, seen

    def test_reused_side_equals_the_full_run(self, config, full_metric):
        """A side whose record re-runs only its field's stage of
        ``_effective_params`` on its base's record, and that splits its rate
        only where its field is a labour field, as a tornado's side does,
        gives every metric as a full run of the side does, or its error."""
        wide = _tight_wide_table()
        base = config.scenario("baseline")
        state0 = config.initial_state
        # the base keeps 1.5**-80, about 8e-15, of the workforce; sigma 20%
        # higher keeps none
        edge = replace(base, name="edge", sigma_override=80.0, exposure_override=1.0,
                       cost_ratio_path=1.5)
        # a creation ratio that overflows once 5% more workers are displaced
        displaced = state0.labor * run_scenario(
            base, config.params, state0, config.baseline).summary.displacement_rate
        jobs = replace(base, name="jobs",
                       job_creation_model=JobCreationRatio(sys.float_info.max / displaced / 1.05))
        # a raw gain of about 1.2e308 under the spillover: theta 20% higher
        # or the boost 90% higher overflows it
        raw = replace(base, name="raw", tfp_enabled=True,
                      raw_shocks=RawShocks(robotics_growth=7e205))
        params = config.params
        cases = [*((scenario, params, state0)
                   for scenario in (*config.scenarios, edge, jobs, raw)),
                 # a model theta below the scenario's, so that alpha 90% higher
                 # passes the parameters' own check and breaches alpha + theta
                 # only at the scenario's theta
                 (base, replace(params, theta=StaticTheta(0.3)), state0),
                 # over a tiny initial stock, 45 years of growth 6e6 raise the
                 # stock about 1e306-fold: growth 20% higher overflows that
                 # ratio, which the gain divides by, as the year-by-year pass finds
                 (replace(base, name="tiny", mode=SimulationMode.DYNAMIC, horizon=(2026, 2070),
                          robotics_growth=6e6), params, replace(state0, robotics=1e-300)),
                 # TFP 1e300 times the stock 5e3**4 to the power 0.5 stays
                 # finite, to the power 0.6 does not; the tiny capital keeps
                 # the output bound finite
                 (replace(base, name="huge", mode=SimulationMode.DYNAMIC, horizon=(2026, 2029),
                          robotics_growth=5e3), params,
                  replace(state0, tfp=1e300, capital=1e-300))]
        seen = dict.fromkeys(("value", "split", "workforce", "job_creation", "unattainable",
                              "alpha + theta on alpha", "alpha + theta on theta",
                              "alpha + theta on a theta ramp", "theta value", "stocks value",
                              "stock overflow on theta", "stock overflow on robotics_growth",
                              "raw gain on theta", "raw gain on tfp_boost"), 0)

        def outcome(call):
            try:
                return call().hex()
            except ModelError as exc:
                return type(exc), str(exc)

        for (scenario, params, state), table in itertools.product(
                cases, (None, config.sectors, wide)):
            inputs = (scenario, params, state)
            try:
                checked = engine_module._effective_params(*inputs)
                engine_module._terminal_metric("displacement", *inputs, table, checked)
            except ModelError:
                continue  # the tornado raises before any side
            for parameter, factor in itertools.product(
                    PARAMETERS, (0.0, 0.1, 0.8, 1.0, 1.2, 1.9, 3.0)):
                holder, field = sensitivity_module._holder(parameter, scenario, params)
                stage = engine_module._STAGE_OF[field]
                try:
                    changed = replace(holder, **{field: sensitivity_module._scaled(
                        getattr(holder, field), factor, field)})
                except ModelError:
                    continue  # the side fails before either evaluation
                side = ((changed, params) if holder is scenario
                        else (scenario, changed)) + (state,)
                full = {metric: outcome(lambda: full_metric(
                            metric, run_scenario(*side, config.baseline, table)))
                        for metric in METRICS}
                labour = field in engine_module._LABOR_ONLY_FIELDS
                reused = {metric: outcome(lambda: engine_module._terminal_metric(
                              metric, *side, table if labour else None,
                              engine_module._effective_params(*side, checked, field)))
                          for metric in METRICS}
                assert reused == full, (scenario.name, parameter, factor)
                rate = full["displacement"]
                if isinstance(rate, str):
                    seen["split" if labour and table is wide
                         else "value" if labour else f"{stage} value"] += 1
                elif rate[0] is UnattainableTargetError:
                    seen["unattainable"] += 1
                elif labour:
                    seen["workforce" if "whole workforce" in rate[1] else "job_creation"] += 1
                elif rate[1].startswith("alpha + theta"):
                    ramp = isinstance(getattr(holder, field), ThetaRamp)
                    seen[f"alpha + theta on {'a theta ramp' if ramp else parameter}"] += 1
                else:
                    kind = "raw gain" if rate[1].startswith("raw ") else "stock overflow"
                    seen[f"{kind} on {parameter}"] += 1
        # each outcome of each stage and of the split was reached
        assert min(seen.values()) > 0, seen

    def test_every_tornado_field_has_a_stage(self):
        fields = {name for params_field, scenario_field, _ in sensitivity_module._TABLE.values()
                  for name in (params_field, scenario_field) if name is not None}
        assert fields == set(engine_module._STAGE_OF)
        assert engine_module._LABOR_ONLY_FIELDS < fields


# every field, not only those a tornado side or a calibration step changes: a
# check that reads a field its _CHECKS entry leaves out then passes a copy that
# replace rejects, and a merged check re-reads the fields beside the changed one
FIELDS = sorted({*Scenario.__dataclass_fields__, *ModelParams.__dataclass_fields__})
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, -2.0, -1.0, -1e-300, -0.0,
                            0.0, 1e-300, 0.5, 1.0, 1.5, 1e300])
_NUMBERS = st.one_of(_SPECIAL, st.floats(-2.0, 3.0), st.floats(0.0, 1.0), st.floats())
_SCHEDULES = st.one_of(
    st.builds(StaticTheta, st.floats(1e-9, 1.0)),
    st.builds(ThetaRamp, st.floats(1e-9, 1.0), st.floats(1e-9, 1.0), st.integers(1, 40)))


def _paths(n_years):
    """Scalars, tuples of the right length and one off, non-decreasing
    tuples and lists, over values that break each path rule."""
    entries = st.one_of(_SPECIAL, st.floats(-2.0, 3.0))
    return st.one_of(
        entries,
        st.lists(entries, min_size=max(n_years - 1, 0), max_size=n_years + 1).map(tuple),
        st.lists(st.floats(0.5, 3.0), min_size=n_years, max_size=n_years).map(
            lambda values: tuple(sorted(values))),
        st.lists(st.floats(-0.5, 0.5), min_size=n_years, max_size=n_years))


_YEARS = st.one_of(st.integers(2010, 2110), st.floats(2018.5, 2100.5),
                  st.sampled_from([2019, 2025.0, 2030, 2100]))
_OTHER_VALUES = {
    "name": st.one_of(st.from_regex(r"[A-Za-z0-9_-]+", fullmatch=True), st.text(max_size=4),
                      st.none()),
    "mode": st.one_of(st.sampled_from([*SimulationMode, *(m.value for m in SimulationMode)]),
                      st.text(max_size=4), st.none()),
    "horizon": st.one_of(st.tuples(_YEARS, _YEARS), st.tuples(_YEARS, _YEARS).map(sorted),
                         st.lists(_YEARS, max_size=3), st.just((2030, 2030))),
    "tfp_enabled": st.booleans(),
    "raw_shocks": st.one_of(st.none(), st.builds(
        RawShocks, st.one_of(st.none(), st.floats(-0.9, 2.0)),
        st.one_of(st.none(), st.floats(1.0, 3.0)))),
    "job_creation_model": st.one_of(st.builds(JobCreationRatio, st.floats(0.0, 2.0)),
                                    st.builds(JobCreationRamp, st.floats(0.0, 2.0)),
                                    _NUMBERS, st.none()),
}


def _side_values(field, holder):
    if field in ("robotics_growth", "cost_ratio_path"):
        return _paths(holder.n_years)
    if field in ("theta", "theta_override"):
        return st.one_of(_SCHEDULES, _NUMBERS, st.none())
    return _OTHER_VALUES.get(field, st.one_of(_NUMBERS, st.none()))


class TestWithField:
    """A copy of a scenario or the model parameters that changes one field,
    as a tornado side or calibration step does, and runs only the checks
    that ``_CHECKS`` lists as reading it, is what ``dataclasses.replace``
    gives: an equal object, or the same exception type and message. Covers
    the values ``TestTerminalMetric`` skips because ``replace`` rejects
    them."""

    @pytest.fixture(scope="class")
    def holders(self):
        cfg = yaml.safe_load(BUNDLED.read_text(encoding="utf-8"))
        cfg["scenarios"].append(DYNAMIC)
        config = loads_config(yaml.safe_dump(cfg), source="<bundled and dynamic>")
        ramp = replace(config.params, theta=ThetaRamp(start=0.3, end=0.45, ramp_years=6))
        # a shrinking stock, then a shrinking raw stock alone, each of which
        # turning the TFP spillover on rejects
        shrinking = replace(config.scenario("dynamic_paths"), name="shrinking",
                            tfp_enabled=False, robotics_growth=-0.1,
                            raw_shocks=RawShocks(robotics_growth=-0.2))
        raw_shrinking = replace(config.scenario("baseline"), name="raw_shrinking",
                                raw_shocks=RawShocks(robotics_growth=-0.2))
        return (*config.scenarios, shrinking, raw_shrinking), (config.params, ramp)

    @pytest.mark.parametrize("field", FIELDS)
    @given(data=st.data())
    def test_equals_replace(self, holders, field, data):
        scenarios, params = holders
        holder = data.draw(st.sampled_from(
            scenarios if field in Scenario.__dataclass_fields__ else params))
        value = data.draw(_side_values(field, holder))

        def outcome(build):
            try:
                return build()
            except Exception as exc:  # the error is the outcome compared
                return type(exc), str(exc)

        assert (outcome(lambda: _with_field(holder, field, value))
                == outcome(lambda: replace(holder, **{field: value})))
