"""Scenario runs: comparative statics, multi-year dynamics, target gaps, and
the year loop's bit identity with the public helpers."""

import dataclasses
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from robolabor import (
    DomainError,
    EconomyState,
    HeadcountBreakdown,
    JobCreationRamp,
    JobCreationRatio,
    ModelParams,
    RawShocks,
    ResultSummary,
    Scenario,
    SimulationMode,
    SimulationResult,
    StaticTheta,
    TargetGap,
    TargetSet,
    ThetaRamp,
    YearRecord,
    displacement_headcounts,
    job_creation,
    labor_demand_ratio,
    load_config,
    loads_config,
    one_at_a_time,
    production_output,
    remittance_impact,
    run_scenario,
    tfp_step,
    theta_at,
)
from robolabor import engine as engine_module
from robolabor.core import _cobb_douglas, _filled, _theta_extremes
from robolabor.engine import _Checked, _effective_params, _resolved, _terminal_labor
from robolabor.errors import _require

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

STATIC_HORIZON = (2030, 2030)


def static_scenario(**overrides):
    base = dict(name="case", mode=SimulationMode.COMPARATIVE_STATIC,
                horizon=STATIC_HORIZON, robotics_growth=0.05,
                cost_ratio_path=1.05, theta_override=StaticTheta(0.5))
    base.update(overrides)
    return Scenario(**base)


class TestComparativeStatic:
    def test_baseline_scenario_reference_values(self, cfg, params, state0,
                                                baseline, sectors):
        result = run_scenario(cfg.scenario("baseline"), params, state0,
                              baseline, sectors)
        mp.dps = 50
        gain = float(mp.mpf("1.05") ** mp.mpf("0.5") - 1)
        assert result.summary.gdp_gain == pytest.approx(gain, rel=1e-12)
        assert result.summary.displacement_rate == pytest.approx(0.032, abs=1e-12)
        assert result.summary.displaced_total == pytest.approx(68160, rel=1e-9)
        assert result.summary.jobs_created == pytest.approx(0.23 * 68160, rel=1e-9)
        assert result.summary.key_driver == "mid-range adoption path"

    def test_realized_gain_carries_labor_drag(self, cfg, params, state0,
                                              baseline):
        result = run_scenario(cfg.scenario("baseline"), params, state0, baseline)
        assert result.summary.realized_gain < result.summary.gdp_gain
        assert result.summary.realized_gain == \
            result.records[-1].output_gain_vs_baseline

    def test_null_shock_changes_nothing(self, cfg, params, state0, baseline):
        result = run_scenario(cfg.scenario("null_shock"), params, state0, baseline)
        summary = result.summary
        assert summary.gdp_gain == 0.0
        assert summary.realized_gain == 0.0
        assert summary.displacement_rate == 0.0
        assert summary.displaced_total == 0.0
        assert summary.jobs_created == 0.0
        record = result.records[0]
        assert record.remittance_low == 0.0 and record.remittance_high == 0.0
        assert record.labor == state0.labor

    def test_high_adoption_hits_both_targets(self, cfg, params, state0, baseline):
        result = run_scenario(cfg.scenario("high_adoption"), params, state0,
                              baseline)
        gaps = {gap.metric: gap for gap in result.target_comparison}
        assert abs(gaps["gdp_gain"].gap) <= 1e-9
        assert abs(gaps["displacement"].gap) <= 1e-9
        # the stated 10% growth figure overshoots the calibrated gain
        assert gaps["gdp_gain"].raw_computed == pytest.approx(0.0488088, abs=1e-6)

    def test_low_adoption_sigma_override(self, cfg, params, state0, baseline):
        scenario = cfg.scenario("low_adoption")
        assert scenario.sigma_override == 0.5
        result = run_scenario(scenario, params, state0, baseline)
        assert result.summary.displacement_rate == pytest.approx(0.019, abs=1e-9)
        assert result.summary.gdp_gain == pytest.approx(0.012, abs=1e-9)

    def test_spillover_lifts_tfp_inside_the_gain(self, cfg, params, state0,
                                                 baseline):
        scenario = cfg.scenario("productivity_spillover")
        result = run_scenario(scenario, params, state0, baseline)
        g = scenario.robotics_growth
        assert result.records[0].tfp == pytest.approx(1.0 + 0.2 * g, rel=1e-12)
        assert result.summary.gdp_gain == pytest.approx(0.021, abs=1e-9)
        assert result.summary.displacement_rate == pytest.approx(0.030, abs=1e-9)

    def test_headcounts_and_sector_rates_attached(self, cfg, params, state0,
                                                  baseline, sectors):
        result = run_scenario(cfg.scenario("baseline"), params, state0,
                              baseline, sectors)
        assert result.headcounts.total == pytest.approx(
            result.summary.displacement_rate * baseline.total_labor_force,
            rel=1e-12)
        assert result.sector_rates["construction"] == pytest.approx(0.048, abs=1e-9)

    def test_sector_rates_empty_without_profiles(self, cfg, params, state0,
                                                 baseline):
        result = run_scenario(cfg.scenario("baseline"), params, state0, baseline)
        assert result.sector_rates == {}

    def test_remittance_fields_match_helper(self, cfg, params, state0, baseline):
        result = run_scenario(cfg.scenario("baseline"), params, state0, baseline)
        record = result.records[0]
        low, high = remittance_impact(record.displacement_rate, baseline)
        assert record.remittance_low == low
        assert record.remittance_high == high


class TestDynamic:
    def test_one_year_dynamic_equals_static(self, params, state0, baseline,
                                            sectors):
        static = static_scenario(name="oneshot")
        dynamic = static_scenario(name="oneshot", mode=SimulationMode.DYNAMIC)
        a = run_scenario(static, params, state0, baseline, sectors)
        b = run_scenario(dynamic, params, state0, baseline, sectors)
        assert a.records == b.records
        assert a.summary == b.summary
        assert a.sector_rates == b.sector_rates
        assert a.headcounts == b.headcounts

    def test_reruns_are_bit_identical(self, cfg, params, state0, baseline):
        scenario = cfg.scenario("staged_adoption")
        first = run_scenario(scenario, params, state0, baseline)
        second = run_scenario(scenario, params, state0, baseline)
        assert first.records == second.records
        assert first.summary == second.summary

    def test_five_year_tfp_compounding(self, params, state0, baseline):
        scenario = Scenario(name="tfp", mode=SimulationMode.DYNAMIC,
                            horizon=(2025, 2029), robotics_growth=0.05,
                            cost_ratio_path=1.0, theta_override=StaticTheta(0.5),
                            tfp_enabled=True)
        result = run_scenario(scenario, params, state0, baseline)
        assert result.records[-1].tfp == pytest.approx(1.01 ** 5, rel=1e-12)

    def test_theta_ramp_schedule_over_horizon(self, params, state0, baseline):
        scenario = Scenario(name="ramp", mode=SimulationMode.DYNAMIC,
                            horizon=(2025, 2030), robotics_growth=0.05,
                            cost_ratio_path=1.0)
        result = run_scenario(scenario, params, state0, baseline)
        thetas = [record.theta for record in result.records]
        assert thetas[0] == 0.4
        assert thetas[-1] == 0.6
        expected = [0.4, 0.44, 0.48, 0.52, 0.56, 0.6]
        for got, want in zip(thetas, expected):
            assert got == pytest.approx(want, rel=1e-12)

    def test_gain_flat_once_ramp_clamps_and_stock_stops(self, params, state0,
                                                        baseline):
        scenario = Scenario(name="clamp", mode=SimulationMode.DYNAMIC,
                            horizon=(2024, 2030),
                            robotics_growth=(0.05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                            cost_ratio_path=1.0)
        result = run_scenario(scenario, params, state0, baseline)
        # indices 5 and 6 share the clamped elasticity and a frozen stock
        assert result.records[5].output_gain_vs_baseline == \
            result.records[6].output_gain_vs_baseline
        # before the clamp the rising elasticity still moves the gain
        assert result.records[4].output_gain_vs_baseline != \
            result.records[5].output_gain_vs_baseline

    def test_falling_cost_path_is_rejected(self):
        with pytest.raises(DomainError, match="cost_ratio_path must not fall over "
                                              "the horizon, got 1.05 then 1.02"):
            Scenario(name="fall", mode=SimulationMode.DYNAMIC,
                     horizon=(2025, 2026), robotics_growth=0.05,
                     cost_ratio_path=(1.05, 1.02),
                     theta_override=StaticTheta(0.5))

    def test_higher_sigma_displaces_more(self, params, state0, baseline):
        low = run_scenario(static_scenario(sigma_override=0.5), params, state0,
                           baseline)
        high = run_scenario(static_scenario(sigma_override=1.2), params, state0,
                            baseline)
        assert high.summary.displacement_rate > low.summary.displacement_rate

    def test_staged_job_ramp_starts_at_zero(self, cfg, params, state0, baseline):
        result = run_scenario(cfg.scenario("staged_adoption"), params, state0,
                              baseline)
        jobs = [record.jobs_created_cumulative for record in result.records]
        assert jobs[0] == 0.0
        assert all(a <= b for a, b in zip(jobs, jobs[1:]))
        assert jobs[-1] == pytest.approx(32_000, rel=1e-9)

    def test_staged_terminal_displacement(self, cfg, params, state0, baseline):
        result = run_scenario(cfg.scenario("staged_adoption"), params, state0,
                              baseline)
        assert result.records[-1].displaced_cumulative == \
            pytest.approx(50_000, rel=1e-9)
        years = [record.year for record in result.records]
        assert years == list(range(2025, 2031))

    def test_staged_gap_peaks_then_narrows(self, cfg, params, state0, baseline):
        result = run_scenario(cfg.scenario("staged_adoption"), params, state0,
                              baseline)
        gaps = [record.displaced_cumulative - record.jobs_created_cumulative
                for record in result.records]
        assert max(gaps) == gaps[1]  # 2026
        for before, after in zip(gaps[1:], gaps[2:]):
            assert after < before


class TestTargetComparison:
    def test_no_targets_no_comparison(self, cfg, params, state0, baseline):
        result = run_scenario(cfg.scenario("null_shock"), params, state0, baseline)
        assert result.target_comparison is None

    def test_baseline_gap_is_the_stated_discrepancy(self, cfg, params, state0,
                                                    baseline):
        # the stated 5% shock yields 2.47%, not the published 1.5%; the gap
        # is surfaced rather than hidden
        result = run_scenario(cfg.scenario("baseline"), params, state0, baseline)
        gaps = {gap.metric: gap for gap in result.target_comparison}
        assert gaps["gdp_gain"].gap == pytest.approx(0.009695, abs=1e-5)
        assert gaps["gdp_gain"].gap == \
            result.summary.gdp_gain - gaps["gdp_gain"].target

    def test_raw_fields_absent_without_raw_shocks(self, params, state0, baseline):
        scenario = static_scenario(targets=TargetSet(displacement=0.032))
        result = run_scenario(scenario, params, state0, baseline)
        (gap,) = result.target_comparison
        assert gap.raw_computed is None and gap.raw_gap is None

    def test_raw_gap_uses_stated_shocks(self, params, state0, baseline):
        scenario = static_scenario(
            targets=TargetSet(gdp_gain=0.015),
            raw_shocks=RawShocks(robotics_growth=0.05, cost_ratio=1.05))
        result = run_scenario(scenario, params, state0, baseline)
        (gap,) = result.target_comparison
        assert gap.raw_computed == pytest.approx(1.05 ** 0.5 - 1.0, rel=1e-12)
        assert gap.raw_gap == gap.raw_computed - 0.015

    def test_comparison_of_the_result_is_the_one_it_carries(self, cfg, params,
                                                             state0, baseline):
        summary_metric = {"gdp_gain": "gdp_gain", "displacement": "displacement_rate"}
        for scenario in cfg.scenarios:
            result = run_scenario(scenario, params, state0, baseline)
            if scenario.targets is None:
                assert result.target_comparison is None
                continue
            stated = {metric: target for metric, target
                      in dataclasses.asdict(scenario.targets).items() if target is not None}
            assert {gap.metric: gap.target for gap in result.target_comparison} == stated
            for gap in result.target_comparison:
                computed = getattr(result.summary, summary_metric[gap.metric])
                assert gap.computed == computed
                assert gap.gap == computed - gap.target


class TestRecords:
    @pytest.mark.parametrize("part, field", [
        (lambda result: result.records[0], "output"),
        (lambda result: result.summary, "gdp_gain"),
        (lambda result: result.target_comparison[0], "gap"),
    ])
    def test_fields_are_read_only(self, cfg, params, state0, baseline, part, field):
        record = part(run_scenario(cfg.scenario("high_adoption"), params, state0,
                                   baseline))
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.added = 0.0

    @pytest.mark.parametrize("theta", [StaticTheta(0.35), ThetaRamp(0.3, 0.4, 30)])
    def test_loop_builds_what_the_constructor_builds(self, params, state0, baseline,
                                                      theta):
        scenario = Scenario(name="long", mode=SimulationMode.DYNAMIC,
                            horizon=(2019, 2100), robotics_growth=0.05,
                            cost_ratio_path=1.2, theta_override=theta)
        names = [f.name for f in dataclasses.fields(YearRecord)]
        for record in run_scenario(scenario, params, state0, baseline).records:
            built = YearRecord(**vars(record))
            assert list(vars(record)) == names
            assert record == built and hash(record) == hash(built)
            assert repr(record) == repr(built)

    def test_filled_records_equal_constructed_ones(self, cfg, params, state0, baseline,
                                                   sectors):
        # every record built without __init__ besides the year records, over
        # every bundled scenario and a dynamic one with targets and raw shocks
        targeted = Scenario(name="targeted", mode=SimulationMode.DYNAMIC,
                            horizon=(2025, 2040), robotics_growth=0.05,
                            cost_ratio_path=1.2,
                            targets=TargetSet(gdp_gain=0.2, displacement=0.05),
                            raw_shocks=RawShocks(robotics_growth=0.06, cost_ratio=1.3))
        kinds = set()
        for scenario in (*cfg.scenarios, targeted):
            result = run_scenario(scenario, params, state0, baseline, sectors)
            rate = result.summary.displacement_rate
            for record in (result, result.summary, result.headcounts,
                           displacement_headcounts(rate, baseline),
                           *(result.target_comparison or ())):
                kinds.add(type(record))
                built = type(record)(**vars(record))
                names = [f.name for f in dataclasses.fields(record)]
                assert list(vars(record)) == names
                assert record == built and repr(record) == repr(built)
                # the others hold dicts, so they have no hash
                if isinstance(record, (ResultSummary, TargetGap)):
                    assert hash(record) == hash(built)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, names[0], getattr(record, names[0]))
        assert kinds == {SimulationResult, ResultSummary, HeadcountBreakdown, TargetGap}
        # the targeted run, last, compares raw values too
        assert all(gap.raw_gap is not None for gap in result.target_comparison)

    @pytest.mark.parametrize("count", [5, 7])
    def test_filled_needs_one_value_per_field(self, count):
        with pytest.raises(ValueError):
            _filled(TargetGap, ("gdp_gain", 0.1, 0.2, 0.1, None, None, None)[:count])

    def test_records_stay_dataclasses(self, cfg, params, state0, baseline):
        result = run_scenario(cfg.scenario("high_adoption"), params, state0, baseline)
        for record in (result.records[0], result.summary, result.target_comparison[0]):
            assert dataclasses.is_dataclass(record)
            assert dataclasses.replace(record) == record
            assert type(record)(**dataclasses.asdict(record)) == record


class TestScenarioValidation:
    def test_static_requires_single_year(self):
        with pytest.raises(DomainError):
            static_scenario(horizon=(2025, 2030))

    @pytest.mark.parametrize("horizon", [(2030, 2025), (2018, 2018),
                                         (2030.5, 2030.5), (2030,)])
    def test_bad_horizons(self, horizon):
        with pytest.raises(DomainError):
            static_scenario(horizon=horizon)

    @pytest.mark.parametrize("horizon", [("x", 2030), (None, 2030), (2030, "2030.0"),
                                         (2030, [2030])])
    def test_horizon_years_that_are_no_integers(self, horizon):
        # float() raises ValueError for "x" and TypeError for None and a list
        with pytest.raises(DomainError, match="^horizon years must be integers, got "):
            static_scenario(horizon=horizon)

    @pytest.mark.parametrize("horizon", [2030, None])
    def test_horizon_that_is_not_iterable(self, horizon):
        scenario = static_scenario()
        with pytest.raises(DomainError, match=r"^horizon must be a \(start, end\) pair$"):
            dataclasses.replace(scenario, horizon=horizon)

    def test_bad_name(self):
        with pytest.raises(DomainError):
            static_scenario(name="no spaces allowed")

    def test_path_length_must_match_horizon(self):
        with pytest.raises(DomainError):
            Scenario(name="short", mode=SimulationMode.DYNAMIC,
                     horizon=(2025, 2030), robotics_growth=(0.05, 0.05),
                     cost_ratio_path=1.0)
        with pytest.raises(DomainError):
            Scenario(name="short", mode=SimulationMode.DYNAMIC,
                     horizon=(2025, 2030), robotics_growth=0.05,
                     cost_ratio_path=(1.01, 1.02))

    @pytest.mark.parametrize("kwargs", [
        {"robotics_growth": -1.0}, {"cost_ratio_path": 0.0},
        {"sigma_override": -0.1}, {"exposure_override": 1.5},
        {"exposure_override": -0.1},
    ])
    def test_bad_shock_values(self, kwargs):
        with pytest.raises(DomainError):
            static_scenario(**kwargs)

    def test_theta_override_joint_guard_fires_at_run_time(self, params, state0,
                                                          baseline):
        # alpha 0.35 + theta 0.7 leaves no labor share
        scenario = static_scenario(theta_override=StaticTheta(0.7))
        with pytest.raises(DomainError, match=r"^alpha \+ theta must stay below 1, "
                                              r"got 0\.35 \+ 0\.7$"):
            run_scenario(scenario, params, state0, baseline)

    def test_ramp_override_end_checked_too(self, params, state0, baseline):
        scenario = Scenario(name="ramp", mode=SimulationMode.DYNAMIC,
                            horizon=(2025, 2030), robotics_growth=0.05,
                            cost_ratio_path=1.0,
                            theta_override=ThetaRamp(0.4, 0.66, 5))
        with pytest.raises(DomainError, match="alpha"):
            run_scenario(scenario, params, state0, baseline)

    def test_target_set_validation(self):
        with pytest.raises(DomainError):
            TargetSet(gdp_gain=-1.5)
        with pytest.raises(DomainError):
            TargetSet(displacement=1.0)

    def test_raw_shocks_validation(self):
        with pytest.raises(DomainError):
            RawShocks(robotics_growth=-1.0)
        with pytest.raises(DomainError):
            RawShocks(cost_ratio=0.0)
        # a raw shock follows the rules of the path it stands in for
        with pytest.raises(DomainError, match="raw cost_ratio must be finite and >= 1"):
            RawShocks(cost_ratio=math.nextafter(1.0, 0.0))
        assert RawShocks(cost_ratio=1.0).cost_ratio == 1.0
        with pytest.raises(DomainError, match="raw robotics_growth must be >= 0 when tfp"):
            static_scenario(tfp_enabled=True, raw_shocks=RawShocks(robotics_growth=-0.9))
        assert static_scenario(raw_shocks=RawShocks(robotics_growth=-0.9)).tfp_enabled is False

    def test_raw_gain_must_stay_finite(self, params, state0, baseline):
        scenario = static_scenario(tfp_enabled=True, raw_shocks=RawShocks(robotics_growth=1e300))
        with pytest.raises(DomainError, match="raw robotics_growth 1e[+]300 gives a raw "
                                              "gdp_gain of inf"):
            run_scenario(scenario, params, state0, baseline)
        # without the spillover the raw gain is (1 + g)**theta - 1, finite for finite g
        plain = dataclasses.replace(scenario, tfp_enabled=False)
        summary = run_scenario(plain, params, state0, baseline).summary
        assert summary.raw_gdp_gain == (1.0 + 1e300) ** 0.5 - 1.0

    def test_path_expansion(self):
        scenario = Scenario(name="expand", mode=SimulationMode.DYNAMIC,
                            horizon=(2025, 2027), robotics_growth=0.05,
                            cost_ratio_path=(1.01, 1.02, 1.03))
        assert scenario.growth_path() == (0.05, 0.05, 0.05)
        assert scenario.cost_path() == (1.01, 1.02, 1.03)
        assert scenario.n_years == 3

    def test_job_creation_model_type_checked(self):
        with pytest.raises(DomainError):
            static_scenario(job_creation_model="ratio")


def helper_run(scenario, params, state0, baseline):
    """The year loop rebuilt from the public helpers, each with its checks."""
    sigma = params.sigma if scenario.sigma_override is None else scenario.sigma_override
    theta_mode = scenario.theta_override or params.theta
    exposure = (params.exposure_share if scenario.exposure_override is None
                else scenario.exposure_override)
    n_years = scenario.n_years
    tfp, robotics, records = state0.tfp, state0.robotics, []
    for index, (g_t, r_t) in enumerate(zip(scenario.growth_path(), scenario.cost_path())):
        theta_t = theta_at(index, theta_mode)
        robotics = robotics * (1.0 + g_t)
        if scenario.tfp_enabled:
            tfp = tfp_step(tfp, 100.0 * g_t, params.tfp_boost_per_adoption_pct)
        ratio = labor_demand_ratio(r_t, sigma, exposure)
        labor_t = state0.labor * ratio
        displaced = state0.labor - labor_t
        state_t = EconomyState(year=scenario.horizon[0] + index, tfp=tfp,
                               capital=state0.capital, labor=labor_t, robotics=robotics)
        output_t = production_output(state_t, params.alpha, theta_t)
        base_t = production_output(state0, params.alpha, theta_t)
        progress = index / (n_years - 1) if n_years > 1 else 1.0
        records.append(YearRecord(
            state_t.year, theta_t, tfp, output_t, output_t / base_t - 1.0, labor_t,
            1.0 - ratio, displaced,
            job_creation(displaced, scenario.job_creation_model, progress=progress),
            *remittance_impact(1.0 - ratio, baseline)))
    return records, tfp, robotics


def hexed(record):
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(record))


def assert_kernel_matches_helpers(scenario, params, state0, baseline):
    result = run_scenario(scenario, params, state0, baseline)
    records, tfp, robotics = helper_run(scenario, params, state0, baseline)
    assert [hexed(r) for r in result.records] == [hexed(r) for r in records]
    terminal = records[-1]
    # the raw-shock metrics come from the scenario's stated shocks, not the loop
    summary = ResultSummary(
        gdp_gain=(tfp / state0.tfp) * (robotics / state0.robotics) ** terminal.theta - 1.0,
        realized_gain=terminal.output_gain_vs_baseline,
        displacement_rate=terminal.displacement_rate,
        displaced_total=terminal.displaced_cumulative,
        jobs_created=terminal.jobs_created_cumulative,
        key_driver=scenario.key_driver,
        raw_gdp_gain=result.summary.raw_gdp_gain,
        raw_displacement_rate=result.summary.raw_displacement_rate)
    assert hexed(result.summary) == hexed(summary)


@st.composite
def kernel_inputs(draw):
    """A dynamic scenario, and changes to the bundled parameters and state."""
    n_years = draw(st.sampled_from([1, 2, 82]) | st.integers(1, 82))
    start = draw(st.integers(2019, 2101 - n_years))
    tfp_enabled = draw(st.booleans())
    rates = st.floats(0.0 if tfp_enabled else -0.05, 0.1)
    growth = draw(rates | st.tuples(*[rates] * n_years))
    costs = draw(st.floats(1.0, 3.0) | st.lists(st.floats(1.0, 3.0), min_size=n_years,
                                                  max_size=n_years).map(sorted))
    thetas = st.floats(0.05, 0.6)
    theta = draw(thetas.map(StaticTheta)
                 | st.builds(ThetaRamp, thetas, thetas, st.integers(1, 30)))
    job = draw(st.builds(JobCreationRatio, st.floats(0.0, 1.0))
               | st.builds(JobCreationRamp, st.floats(0.0, 1.0)))
    scenario = Scenario(name="drawn", mode=SimulationMode.DYNAMIC,
                        horizon=(start, start + n_years - 1), robotics_growth=growth,
                        cost_ratio_path=tuple(costs) if isinstance(costs, list) else costs,
                        sigma_override=draw(st.none() | st.floats(0.0, 3.0)),
                        theta_override=theta,
                        exposure_override=draw(st.none() | st.floats(0.0, 1.0)),
                        tfp_enabled=tfp_enabled, job_creation_model=job)
    params = dict(alpha=draw(st.floats(0.1, 0.39)),
                  tfp_boost_per_adoption_pct=draw(st.floats(0.0, 0.01)))
    state = {name: draw(st.floats(0.5, 3.0)) for name in ("tfp", "capital", "robotics")}
    state["labor"] = draw(st.floats(1e3, 1e7))
    return scenario, params, state


class TestKernelMatchesHelpers:
    """run_scenario's unchecked year loop gives the public helpers' floats."""

    @pytest.mark.parametrize("job", [None, JobCreationRamp(0.5)])
    def test_bundled_scenarios(self, cfg, params, state0, baseline, job):
        # the ramp also covers its single-year case
        for scenario in cfg.scenarios:
            if job is not None:
                scenario = dataclasses.replace(scenario, job_creation_model=job)
            assert_kernel_matches_helpers(scenario, params, state0, baseline)

    @given(inputs=kernel_inputs())
    def test_drawn_dynamic_scenarios(self, params, state0, baseline, inputs):
        scenario, param_changes, state_changes = inputs
        assert_kernel_matches_helpers(scenario, dataclasses.replace(params, **param_changes),
                                      dataclasses.replace(state0, **state_changes), baseline)


def _ramp_theta_oracle(index, ramp):
    """``theta_at``'s ramp rule as it was stated before the schedule function."""
    if index >= ramp.ramp_years:
        return ramp.end
    if index == 0:
        return ramp.start
    return ramp.start + (ramp.end - ramp.start) * (index / ramp.ramp_years)


def year_by_year_oracle(scenario, params, state0):
    """``engine._effective_params`` as it was before the terminal-stock proof:
    every year's stocks, powers, output bound and gain checked in turn."""
    sigma, theta_mode, exposure = _resolved(scenario, params)
    for value in _theta_extremes(theta_mode):
        _require(params.alpha + value < 1,
                 "alpha + theta must stay below 1, got {} + {}", params.alpha, value)
    n_years = scenario.n_years
    thetas = ((theta_mode.value,) * n_years if isinstance(theta_mode, StaticTheta)
              else [_ramp_theta_oracle(index, theta_mode) for index in range(n_years)])
    alpha = params.alpha
    first, *others = dict.fromkeys(thetas)
    base_by_theta = {first: production_output(state0, alpha, first)}
    for theta in others:
        base_by_theta[theta] = _cobb_douglas(state0, alpha, theta)
    for theta, base in base_by_theta.items():
        _require(0 < base < math.inf, "initial_state gives output {} at theta {}, "
                 "which must be positive and finite", base, theta)
    ratio = _terminal_labor(scenario, state0, sigma, exposure)
    labor0, boost = state0.labor, params.tfp_boost_per_adoption_pct
    labor_cap = max(labor0, 1.0)
    robotics, tfp = state0.robotics, state0.tfp
    base_low = min(base_by_theta.values())
    kalpha = state0.capital ** alpha
    overflow = output_overflow = gain_overflow = None
    for year, g_t in enumerate(scenario.growth_path(), start=scenario.horizon[0]):
        robotics = robotics * (1.0 + g_t)
        if scenario.tfp_enabled:
            tfp = tfp * (1.0 + boost * (100.0 * g_t))
        if not 0 < robotics < math.inf:
            raise DomainError(f"robotics_growth compounds the robotics stock to "
                              f"{robotics} by {year}, outside the float range")
        if tfp == math.inf:
            raise DomainError(f"robotics_growth compounds TFP to {tfp} by {year} "
                              f"through tfp_enabled, outside the float range")
        if overflow is None and tfp * robotics == math.inf:
            theta_t = thetas[year - scenario.horizon[0]]
            if tfp * robotics ** theta_t == math.inf:
                overflow = f"the power {theta_t} to inf by {year}"
        robotics_cap = robotics if robotics > 1.0 else 1.0
        if tfp * kalpha * labor_cap * robotics_cap / base_low == math.inf:
            theta_t = thetas[year - scenario.horizon[0]]
            output = tfp * kalpha * labor0 ** (1.0 - alpha - theta_t) * robotics ** theta_t
            if output_overflow is None and output == math.inf:
                output_overflow = year
            if gain_overflow is None and output / base_by_theta[theta_t] == math.inf:
                gain_overflow = year
    gain = (tfp / state0.tfp) * (robotics / state0.robotics) ** thetas[-1] - 1.0
    if gain_overflow is None and gain == math.inf:
        gain_overflow = scenario.horizon[1]
    if overflow is not None:
        raise DomainError(f"robotics_growth compounds TFP times the robotics stock to "
                          f"{overflow}, outside the float range")
    if output_overflow is not None:
        raise DomainError(f"robotics_growth compounds output at baseline labor to inf "
                          f"by {output_overflow}, outside the float range")
    if gain_overflow is not None:
        raise DomainError(f"robotics_growth compounds the gain over initial_state to inf "
                          f"by {gain_overflow}, outside the float range")
    raw, raw_gain = scenario.raw_shocks, None
    if raw is not None and raw.robotics_growth is not None:
        g_raw = raw.robotics_growth
        factor = 1.0 + boost * 100.0 * g_raw if scenario.tfp_enabled else 1.0
        raw_gain = factor * (1.0 + g_raw) ** thetas[0] - 1.0
        _require(raw_gain < math.inf, "raw robotics_growth {} gives a raw gdp_gain of inf "
                 "through tfp_enabled, outside the float range", g_raw)
    return _Checked(sigma, thetas, base_by_theta, exposure, ratio, tfp, robotics, gain,
                    raw_gain)


def bits(value):
    """``value`` with every float as its hex string, sequences and dicts by type."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(map(bits, value))
    if isinstance(value, dict):
        return tuple((bits(key), bits(item)) for key, item in value.items())
    return value


def pass_outcome(check, scenario, params, state0):
    """Each field of ``check``'s record in bits, or its error's type and message."""
    try:
        checked = check(scenario, params, state0)
    except Exception as error:  # noqa: BLE001 - the types are compared
        return type(error), str(error)
    return {name: bits(value) for name, value in checked._asdict().items()}


def pass_case(n_years=82, growth=0.05, theta=StaticTheta(0.5), tfp_enabled=False,
              boost=0.002, alpha=0.35, raw_growth=None, **state):
    """A pass's inputs: a dynamic scenario from 2019, parameters and a state."""
    scenario = Scenario(name="drawn", mode=SimulationMode.DYNAMIC,
                        horizon=(2019, 2018 + n_years), robotics_growth=growth,
                        cost_ratio_path=1.05, theta_override=theta, tfp_enabled=tfp_enabled,
                        raw_shocks=None if raw_growth is None else RawShocks(raw_growth))
    params = ModelParams(alpha=alpha, theta=StaticTheta(0.5), sigma=0.65,
                         tfp_boost_per_adoption_pct=boost)
    state0 = EconomyState(**{"year": 2019, "tfp": 1.0, "capital": 1.0, "labor": 2.13e6,
                             "robotics": 1.0, **state})
    return scenario, params, state0


# one case per overflow the pass reports, each failing one terminal bound alone
# where it can: a stock leaving the range, TFP, TFP times the stock to the power
# theta (with a capital so small that the output bound stays finite), the output
# at baseline labor and the gain over a tiny initial stock
OVERFLOWS = {
    "the robotics stock to inf by 2096": pass_case(growth=1e4),
    "TFP to inf by 2096": pass_case(growth=10.0, tfp_enabled=True, boost=10.0),
    "TFP times the robotics stock to the power 0.6 to inf by 2022": pass_case(
        n_years=4, growth=5e3, theta=StaticTheta(0.6), tfp=1e300, capital=1e-300),
    "output at baseline labor to inf by 2021": pass_case(
        n_years=4, growth=1e5, theta=StaticTheta(0.3), tfp=1e200, labor=1e300),
    "the gain over initial_state to inf by 2063": pass_case(
        n_years=45, growth=2e7, theta=StaticTheta(0.6), robotics=1e-300),
}

def with_overflows(test):
    """``test`` with each of :data:`OVERFLOWS` as an explicit example."""
    for inputs in OVERFLOWS.values():
        test = example(inputs=inputs)(test)
    return test


# stocks, TFP, capital and labor from tiny to huge
LEVELS = st.sampled_from([1e-300, 1e-30, 0.5, 1.0, 2.13e6, 1e30, 1e300]) | st.floats(1e-3, 1e3)
GROWTH = (st.sampled_from([0.0, 0.05, -0.5, -0.999999, 300.0, 607.9498436903095, 5e3, 1e4,
                           2e7, 1e300])
          | st.floats(-0.99, 10.0))


@st.composite
def pass_inputs(draw):
    n_years = draw(st.sampled_from([1, 2, 4, 45, 82]) | st.integers(1, 82))
    tfp_enabled = draw(st.booleans())
    entries = GROWTH.map(abs) if tfp_enabled else GROWTH  # the spillover's rule
    growth = draw(entries | st.lists(entries, min_size=n_years, max_size=n_years).map(tuple))
    thetas = st.floats(0.05, 0.6)
    theta = draw(thetas.map(StaticTheta)
                 | st.builds(ThetaRamp, thetas, thetas, st.integers(1, 90)))
    return pass_case(n_years, growth, theta, tfp_enabled,
                     boost=draw(st.sampled_from([0.0, 0.002, 10.0]) | st.floats(0.0, 0.01)),
                     alpha=draw(st.floats(0.05, 0.39)),
                     raw_growth=draw(st.none() | GROWTH.map(abs)),
                     **{name: draw(LEVELS) for name in ("tfp", "capital", "labor", "robotics")})


class TestTerminalProof:
    """The pass proves a horizon from its terminal stocks and checks year by
    year only where that fails, with the year-by-year pass's floats and errors."""

    @pytest.mark.parametrize("reached", OVERFLOWS)
    def test_each_overflow_is_reached(self, reached):
        with pytest.raises(DomainError, match=f"^robotics_growth compounds {reached}[ ,]"):
            _effective_params(*OVERFLOWS[reached])

    @settings(max_examples=600)
    @given(inputs=pass_inputs())
    @with_overflows
    # the stock to 0.0 over years, and in one year from the least subnormal
    @example(inputs=pass_case(n_years=41, growth=-0.999999))
    @example(inputs=pass_case(n_years=1, growth=-0.5, robotics=5e-324))
    # the stock overflows TFP times it to the power theta in 2019, then falls back
    @example(inputs=pass_case(n_years=6, growth=(1e20,) + (-0.999999,) * 5,
                              theta=StaticTheta(0.6), tfp=1e300))
    # 100 * 1e300 is inf, and 0.0 * inf a NaN TFP
    @example(inputs=pass_case(growth=1e300, tfp_enabled=True, boost=0.0, robotics=1e-300))
    def test_pass_matches_the_year_by_year_pass(self, inputs):
        assert (pass_outcome(_effective_params, *inputs)
                == pass_outcome(year_by_year_oracle, *inputs))

    @pytest.fixture
    def located(self, monkeypatch):
        """A list that gets one entry per call of the year-by-year check."""
        calls = []

        def counted(*args, _original=engine_module._locate_failure):
            calls.append(args[0].name)
            return _original(*args)

        monkeypatch.setattr(engine_module, "_locate_failure", counted)
        return calls

    @pytest.mark.parametrize("name", ["bundled", "sweep", "wide"])
    def test_loads_runs_and_tornados_need_no_year_by_year_check(self, name, located,
                                                                load_perfbench):
        if name == "bundled":
            cfg = load_config("default")
        else:
            with pytest.MonkeyPatch.context() as patch:
                patch.setitem(sys.modules, "reference", load_perfbench("reference"))
                gen = load_perfbench("gen")
            inputs = getattr(gen, f"{name}_inputs")(1, gen.bundled_config(PERFBENCH.parent))
            cfg = loads_config(gen.to_yaml(inputs["cfg"]))
        for scenario in cfg.scenarios:
            run_scenario(scenario, cfg.params, cfg.initial_state, cfg.baseline, cfg.sectors)
            one_at_a_time(scenario, cfg.params, cfg.initial_state, cfg.baseline,
                          sectors=cfg.sectors)
        assert located == []

    def test_negative_growth_and_overflows_are_checked_year_by_year(self, located):
        falling = pass_case(n_years=3, growth=(0.05, -0.01, 0.02))
        _effective_params(*falling)
        assert located == ["drawn"]
        for inputs in OVERFLOWS.values():
            with pytest.raises(DomainError):
                _effective_params(*inputs)
        assert len(located) == 1 + len(OVERFLOWS)


class TestThetaSchedule:
    """The engine's theta schedule and ``theta_at`` read one statement of the rule."""

    @pytest.mark.parametrize("start,end", [(0.4, 0.6), (0.6, 0.3), (0.1, 0.1),
                                           (0.123456789, 0.5987654321)])
    def test_engine_schedule_is_theta_at(self, start, end):
        params = ModelParams(alpha=0.35, theta=StaticTheta(0.5), sigma=0.65)
        state0 = EconomyState(2019, 1.0, 1.0, 2.13e6, 1.0)
        for ramp_years in range(1, 91):
            ramp = ThetaRamp(start, end, ramp_years)
            for n_years in range(1, 83):
                scenario = Scenario(name="ramp", mode=SimulationMode.DYNAMIC,
                                    horizon=(2019, 2018 + n_years), theta_override=ramp)
                schedule = _effective_params(scenario, params, state0).thetas
                assert len(schedule) == n_years
                for index, theta in enumerate(schedule):
                    assert theta.hex() == theta_at(index, ramp).hex()
                    assert theta.hex() == _ramp_theta_oracle(index, ramp).hex()
                    if index >= ramp_years:
                        assert theta == end
