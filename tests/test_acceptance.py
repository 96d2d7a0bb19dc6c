"""Acceptance checks for the shipped dataset and model claims.

Each test verifies one headline claim end to end at its stated tolerance
and prints a single PASS line (run with ``pytest -s`` to see them). The
reference numbers quoted here were frozen from 50-digit recomputations of
the model formulas; tolerances are part of the claim, not safety margin.
"""

import math
import random

import pytest
from mpmath import mp

from robolabor import (
    EconomyState,
    PerturbationSpec,
    default_specs,
    disaggregate_displacement,
    displacement_headcounts,
    elasticity_fd,
    implied_cost_ratio,
    implied_exposure,
    implied_sigma,
    implied_theta,
    labor_demand_ratio,
    one_at_a_time,
    production_output,
    remittance_impact,
    robotics_output_gain,
    run_scenario,
    theta_at,
    tfp_step,
    write_outputs,
    build_output_bundle,
)
from robolabor.engine import Scenario, SimulationMode
from robolabor.core import StaticTheta


def _ok(label: str) -> None:
    print(f"PASS {label}")


class TestAcceptance:
    def test_01_remittance_band_at_reference_rate(self, baseline):
        low, high = remittance_impact(0.032, baseline)
        assert low == 5.4e9
        assert high == 8.1e9
        _ok("criterion 1: remittance decline band at 3.2% displacement is "
            f"QAR {low:.3g}..{high:.3g} (exact)")

    def test_02_headcounts_match_reported_totals(self, baseline):
        counts = displacement_headcounts(0.032, baseline)
        assert counts.total == pytest.approx(68_060, rel=2e-3)
        assert counts.expat == pytest.approx(64_250, rel=2e-3)
        assert counts.by_sector["construction"] == pytest.approx(28_400, rel=2e-3)
        _ok("criterion 2: displacement headcounts "
            f"{counts.total:.0f}/{counts.expat:.0f}/"
            f"{counts.by_sector['construction']:.0f} within 0.2% of "
            "68060/64250/28400")

    def test_03_sector_rates_at_national_rate(self, sectors):
        rates = disaggregate_displacement(0.032, sectors)
        assert rates["construction"] == pytest.approx(0.048, abs=1e-9)
        assert rates["manufacturing"] == pytest.approx(0.035, abs=1e-9)
        assert rates["logistics"] == pytest.approx(0.021, abs=1e-9)
        assert rates["agriculture"] == pytest.approx(0.0, abs=1e-9)
        mean = sum(s.employment_share * rates[s.name] for s in sectors)
        assert mean == pytest.approx(0.032, abs=1e-9)
        _ok("criterion 3: sector displacement rates 4.8/3.5/2.1/0.0% "
            "reproduce the 3.2% weighted mean within 1e-9")

    def test_04_staged_rollout_reaches_terminal_levels(self, cfg, params,
                                                       state0, baseline):
        result = run_scenario(cfg.scenario("staged_adoption"), params, state0,
                              baseline)
        terminal = result.records[-1]
        assert abs(terminal.displaced_cumulative - 50_000) <= 500
        assert abs(terminal.jobs_created_cumulative - 32_000) <= 320
        gaps = [r.displaced_cumulative - r.jobs_created_cumulative
                for r in result.records]
        assert max(gaps) == gaps[1]  # widest in 2026
        for before, after in zip(gaps[1:], gaps[2:]):
            assert after < before  # then narrows every year
        _ok("criterion 4: staged rollout ends 2030 at "
            f"{terminal.displaced_cumulative:.0f} displaced / "
            f"{terminal.jobs_created_cumulative:.0f} created; gap peaks 2026 "
            "and narrows monotonically")

    def test_05_calibrated_scenarios_hit_published_targets(self, cfg, params,
                                                           state0, baseline,
                                                           sectors, tmp_path):
        results = [run_scenario(s, params, state0, baseline, sectors)
                   for s in cfg.scenarios]
        write_outputs(build_output_bundle(cfg, results), tmp_path,
                      formats=["csv"])
        import csv as csv_module
        with open(tmp_path / "summary.csv", encoding="utf-8",
                  newline="") as handle:
            rows = {row["scenario"]: row
                    for row in csv_module.DictReader(handle)}
        for name in ("high_adoption", "low_adoption", "productivity_spillover"):
            row = rows[name]
            assert abs(float(row["gdp_gain_gap"])) <= 1e-3, name
            assert abs(float(row["displacement_gap"])) <= 1e-3, name
            assert row["raw_gdp_gain_gap"] != "", name
        _ok("criterion 5: high/low/spillover scenario gaps <= 1e-3 on both "
            "metrics in summary.csv, raw-shock gaps reported alongside")

    def test_06_stated_shock_discrepancy_is_surfaced(self, cfg, params, state0,
                                                     baseline):
        result = run_scenario(cfg.scenario("baseline"), params, state0, baseline)
        assert result.summary.gdp_gain == pytest.approx(0.0246951, abs=1e-6)
        gaps = {g.metric: g for g in result.target_comparison}
        assert gaps["gdp_gain"].gap == pytest.approx(0.0097, abs=1e-4)
        assert implied_theta(0.015, 0.05) == pytest.approx(0.30516, abs=1e-4)
        _ok("criterion 6: stated 5% shock yields 2.4695% against the 1.5% "
            "target (gap +0.97pp surfaced); consistent elasticity would be "
            "0.30516")

    def test_07_structural_invariants(self, params, state0, baseline, sectors,
                                      cfg, tmp_path):
        rng = random.Random(20260822)

        # constant returns over K, L, R at 100 random points
        for _ in range(100):
            alpha = rng.uniform(0.05, 0.9)
            theta = rng.uniform(0.1, 0.95) * (0.97 - alpha)
            state = EconomyState(year=2024, tfp=rng.uniform(0.5, 2.0),
                                 capital=rng.uniform(0.1, 10.0),
                                 labor=rng.uniform(0.1, 10.0),
                                 robotics=rng.uniform(0.1, 10.0))
            scale = rng.uniform(0.5, 3.0)
            scaled = EconomyState(year=2024, tfp=state.tfp,
                                  capital=state.capital * scale,
                                  labor=state.labor * scale,
                                  robotics=state.robotics * scale)
            ratio = (production_output(scaled, alpha, theta)
                     / production_output(state, alpha, theta))
            assert ratio == pytest.approx(scale, rel=1e-12)

        # finite-difference elasticities recover each exponent
        for _ in range(100):
            alpha = rng.uniform(0.1, 0.6)
            theta = rng.uniform(0.1, 0.9) * (0.95 - alpha)
            base = EconomyState(year=2024, tfp=1.3, capital=rng.uniform(0.5, 5.0),
                                labor=rng.uniform(0.5, 5.0),
                                robotics=rng.uniform(0.5, 5.0))

            def output_in(field, value):
                fields = dict(year=base.year, tfp=base.tfp, capital=base.capital,
                              labor=base.labor, robotics=base.robotics)
                fields[field] = value
                return production_output(EconomyState(**fields), alpha, theta)

            assert elasticity_fd(lambda v: output_in("capital", v),
                                 base.capital) == pytest.approx(alpha, abs=1e-6)
            assert elasticity_fd(lambda v: output_in("robotics", v),
                                 base.robotics) == pytest.approx(theta, abs=1e-6)
            assert elasticity_fd(lambda v: output_in("labor", v),
                                 base.labor) == pytest.approx(
                1.0 - alpha - theta, abs=1e-6)

        # calibration closed forms invert the forward maps
        for _ in range(100):
            theta = rng.uniform(0.05, 0.95)
            growth = rng.uniform(0.005, 0.4)
            assert implied_theta(robotics_output_gain(growth, theta), growth) \
                == pytest.approx(theta, rel=1e-9)
            sigma = rng.uniform(0.1, 2.5)
            ratio = rng.uniform(1.01, 1.8)
            displacement = 1.0 - labor_demand_ratio(ratio, sigma)
            assert implied_sigma(displacement, ratio) == \
                pytest.approx(sigma, rel=1e-9)
            exposure = rng.uniform(0.05, 1.0)
            partial = exposure * displacement
            assert implied_exposure(partial, ratio, sigma) == \
                pytest.approx(exposure, rel=1e-9)
            target = rng.uniform(0.001, 0.3)
            solved = implied_cost_ratio(target, sigma)
            assert 1.0 - labor_demand_ratio(solved, sigma) == \
                pytest.approx(target, rel=1e-9)

        # a one-year dynamic run is the comparative static, field by field
        shock = dict(name="equiv", horizon=(2030, 2030), robotics_growth=0.05,
                     cost_ratio_path=1.05, theta_override=StaticTheta(0.5))
        static = Scenario(mode=SimulationMode.COMPARATIVE_STATIC, **shock)
        dynamic = Scenario(mode=SimulationMode.DYNAMIC, **shock)
        left = run_scenario(static, params, state0, baseline, sectors)
        right = run_scenario(dynamic, params, state0, baseline, sectors)
        assert left.records == right.records
        assert left.summary == right.summary

        # no cost shift, no displacement: exact identity across sigma
        for sigma in (0.0, 0.3, 0.65, 0.8, 1.5, 3.0):
            for exposure in (0.25, 0.8359, 1.0):
                assert labor_demand_ratio(1.0, sigma, exposure) == 1.0

        # identical runs serialize to identical bytes
        results = [run_scenario(s, params, state0, baseline, sectors)
                   for s in cfg.scenarios]
        bundle = build_output_bundle(cfg, results)
        first = write_outputs(bundle, tmp_path / "a")
        second = write_outputs(bundle, tmp_path / "b")
        assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]

        _ok("criterion 7: structural invariants hold (constant returns, "
            "FD elasticities, calibration round trips, static/dynamic "
            "equivalence, unit-ratio identity, byte-stable outputs)")

    def test_08_elasticity_perturbation_swings(self, cfg, params, state0,
                                               baseline):
        (record,) = one_at_a_time(cfg.scenario("baseline"), params, state0,
                                  baseline, specs=[PerturbationSpec("theta")])
        # frozen 50-digit recomputation of 1.05**0.45 - 1 and 1.05**0.55 - 1
        assert record.low_result == pytest.approx(0.022198371150337317, abs=1e-6)
        assert record.high_result == pytest.approx(0.02719788021025307, abs=1e-6)
        mp.dps = 50
        assert record.low_result == pytest.approx(
            float(mp.mpf("1.05") ** mp.mpf(0.45) - 1), rel=1e-9)
        assert record.high_result == pytest.approx(
            float(mp.mpf("1.05") ** mp.mpf(0.55) - 1), rel=1e-9)
        # and against the four-digit quoted form of the same numbers
        assert record.low_result == pytest.approx(0.022198, abs=1e-5)
        assert record.high_result == pytest.approx(0.027198, abs=1e-5)

        null_records = one_at_a_time(cfg.scenario("baseline"), params, state0,
                                     baseline, specs=default_specs(0.0))
        assert len(null_records) == 7
        assert all(r.swing == 0.0 for r in null_records)
        _ok("criterion 8: theta +-10% moves the gain to 2.2198%/2.7198% "
            "(1e-6 vs high-precision reference); zero perturbation zeroes "
            "all seven swings")

    def test_09_schedules_are_exact_at_the_ends(self, cfg):
        ramp = cfg.params.theta
        assert theta_at(0, ramp) == 0.4
        assert theta_at(5, ramp) == 0.6
        assert theta_at(9, ramp) == 0.6
        tfp = 1.0
        for _ in range(5):
            tfp = tfp_step(tfp, 5.0)
        assert tfp == pytest.approx(1.01 ** 5, rel=1e-12)
        _ok("criterion 9: elasticity ramp hits 0.4 and 0.6 exactly at its "
            "endpoints; five years of 5% adoption compound TFP to 1.01^5 "
            "within 1e-12")
