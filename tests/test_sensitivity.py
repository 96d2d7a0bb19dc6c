"""One-at-a-time perturbations, tornado ordering, FD elasticities."""

import importlib.util
import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, strategies as st
from mpmath import mp

import robolabor
import robolabor.calibrate as calibrate_module
import robolabor.sensitivity as sensitivity_module
from robolabor import sectors as sectors_module
from robolabor import (
    DomainError,
    EconomyState,
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
from robolabor.sensitivity import METRICS, PARAMETERS


def by_parameter(records):
    return {record.parameter: record for record in records}


class TestOneAtATime:
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
                                        monkeypatch):
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
                        == sensitivity_module._extract(record.metric, full).hex()), (
                    scenario.name, record.parameter)

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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAgainstReference:
    """Tornados agree with the benchmark's independent reference model.

    ``perfbench/reference.py`` recomputes each row from the plain config
    data and ``perfbench/checks.py::check_tornado`` compares the records
    to it: every value to 1e-9, the invalid sides, swing = high - low and
    tornado order.
    """

    @pytest.fixture(scope="class")
    def bench(self):
        cfg = yaml.safe_load(BUNDLED.read_text(encoding="utf-8"))
        cfg["scenarios"].append(DYNAMIC)
        return (_load_perfbench("reference"), _load_perfbench("checks"), cfg,
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
    so the bundled scenarios' rates, perturbed, land on both sides of it."""
    rng = random.Random(7)
    named = [SectorProfile(name=f"s{i:03d}", employment_share=0.9 / 240,
                           risk_multiplier=rng.lognormvariate(0.0, 0.5),
                           automation_potential=rng.uniform(0.0, 0.07),
                           readiness=Readiness.MODERATE) for i in range(240)]
    return (*named, SectorProfile(name="rest", employment_share=0.1, risk_multiplier=None,
                                  automation_potential=0.03, readiness=Readiness.MODERATE,
                                  residual=True))


class TestTerminalMetric:
    """The sides' metric-only evaluation gives the full run's float, and
    raises where the full run raises, with the same error."""

    @pytest.fixture(scope="class")
    def config(self):
        cfg = yaml.safe_load(BUNDLED.read_text(encoding="utf-8"))
        cfg["scenarios"].append(DYNAMIC)
        return loads_config(yaml.safe_dump(cfg), source="<bundled and dynamic>")

    def test_equals_the_full_run(self, config):
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
                full = {metric: outcome(lambda: sensitivity_module._extract(
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


# every field a tornado side or a calibration step changes
SIDE_FIELDS = sorted(
    {name for row in sensitivity_module._TABLE.values() for name in row[:2] if name}
    | {row[0] for row in calibrate_module._ENGINE_SOLVES.values()})
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


def _side_values(field, holder):
    if field in ("robotics_growth", "cost_ratio_path"):
        return _paths(holder.n_years)
    if field in ("theta", "theta_override"):
        return st.one_of(_SCHEDULES, _NUMBERS, st.none())
    return st.one_of(_NUMBERS, st.none())


class TestWithField:
    """A tornado side's or calibration step's copy, which runs only the
    checks that read its field, is what ``dataclasses.replace`` gives: an
    equal object, or the same exception type and message. Covers the
    values ``TestTerminalMetric`` skips because ``replace`` rejects them."""

    @pytest.fixture(scope="class")
    def holders(self):
        cfg = yaml.safe_load(BUNDLED.read_text(encoding="utf-8"))
        cfg["scenarios"].append(DYNAMIC)
        config = loads_config(yaml.safe_dump(cfg), source="<bundled and dynamic>")
        ramp = replace(config.params, theta=ThetaRamp(start=0.3, end=0.45, ramp_years=6))
        return config.scenarios, (config.params, ramp)

    @pytest.mark.parametrize("field", SIDE_FIELDS)
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
