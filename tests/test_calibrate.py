"""Closed-form inversions, the root solver, and solves through the engine."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from robolabor import (
    SUPPORTED_PAIRS,
    CalibrationError,
    CalibrationReport,
    DomainError,
    MaxIterationsError,
    NoSignChangeError,
    SolverConfig,
    StaticTheta,
    UnattainableTargetError,
    bisect,
    calibrate_scenario,
    implied_cost_ratio,
    implied_exposure,
    implied_robotics_growth,
    implied_sigma,
    implied_theta,
    labor_demand_ratio,
    production_output,
    robotics_output_gain,
    run_scenario,
    solve_tfp_level,
)
from robolabor.calibrate import _ENGINE_SOLVES, _labor_end
from robolabor.core import EconomyState
from robolabor.engine import _leaves_labor


def midpoint_oracle(f, target, config):
    """The midpoint loop ``bisect`` ran before Brent's method, kept as an oracle."""
    if not math.isfinite(target):
        raise DomainError(f"target must be finite, got {target}")
    tol = config.relative_tolerance * max(1.0, abs(target))
    lo, hi = config.lo, config.hi
    flo = f(lo) - target
    fhi = f(hi) - target
    if abs(flo) <= tol:
        return lo
    if abs(fhi) <= tol:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoSignChangeError("f - target has the same sign at both ends")
    for _ in range(config.max_iterations):
        mid = 0.5 * (lo + hi)
        fmid = f(mid) - target
        if abs(fmid) <= tol:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    raise MaxIterationsError("no convergence", best_x=mid, best_residual=abs(fmid),
                             iterations=config.max_iterations)


@st.composite
def root_problems(draw):
    """A function of one family, a bracket, a target and a relative tolerance.

    The targets mostly lie between the bracket ends' values, a few beyond
    them, and a few are not finite. A steep tanh is flat at +-1 over most of
    its bracket, and the step function never meets a tolerance below its jump.
    """
    family = draw(st.sampled_from(["power", "exp", "log", "tanh", "kinked", "step"]))
    if family in ("power", "exp", "log"):
        lo = draw(st.floats(*{"power": (0.0, 2.0), "exp": (-5.0, 5.0),
                              "log": (1e-9, 2.0)}[family]))
        hi = lo + draw(st.floats(1e-6, 10.0 if family == "exp" else 50.0))
        if family == "power":
            p = draw(st.sampled_from([0.3, 0.5, 2.0, 3.0, 7.0]))
            f = lambda x: x ** p  # noqa: E731
        elif family == "exp":
            k = draw(st.floats(-20.0, 20.0))
            f = lambda x: math.exp(k * x)  # noqa: E731
        else:
            f = math.log
    else:
        x0 = draw(st.floats(-1.0, 1.0))
        lo = x0 - draw(st.floats(1e-3, 3.0))
        hi = x0 + draw(st.floats(1e-3, 3.0))
        if family == "tanh":
            k = 10.0 ** draw(st.floats(0.0, 7.0))
            f = lambda x: math.tanh(k * (x - x0))  # noqa: E731
        elif family == "kinked":
            left, right = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
            f = lambda x: (left if x < x0 else right) * (x - x0)  # noqa: E731
        else:
            f = lambda x: 1.0 if x >= x0 else 0.0  # noqa: E731
    where = draw(st.integers(0, 19))
    if where == 0:
        target = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    else:
        share = st.floats(-0.25, 1.25) if where == 1 else st.floats(0.01, 0.99)
        target = f(lo) + draw(share) * (f(hi) - f(lo))
    tolerance = draw(st.sampled_from([1e-6, 1e-10, 1e-12, 1e-14]))
    return f, target, SolverConfig(lo=lo, hi=hi, relative_tolerance=tolerance)


def solve_counting(solver, f, target, config):
    """The solver's root or the class of its error, and the points it evaluated."""
    calls = []
    try:
        outcome = solver(lambda x: calls.append(x) or f(x), target, config)
    except (DomainError, NoSignChangeError, MaxIterationsError) as err:
        outcome = type(err)
    return outcome, calls


def bracket_widths(f, target, calls):
    """Width of the narrowest sign-change interval between evaluated points,
    after the two ends and after every third evaluation from there."""
    above = [f(x) - target > 0 for x in calls]
    widths = []
    for count in range(2, len(calls) + 1, 3):
        points = sorted(zip(calls[:count], above[:count]))
        widths.append(min(right - left for (left, a), (right, b)
                          in zip(points, points[1:]) if a != b))
    return widths


class TestBisect:
    @settings(derandomize=True, max_examples=1000)
    @given(problem=root_problems())
    def test_agrees_with_midpoint_oracle(self, problem):
        f, target, config = problem
        outcome, calls = solve_counting(bisect, f, target, config)
        expected, oracle_calls = solve_counting(midpoint_oracle, f, target, config)
        assert all(config.lo <= x <= config.hi for x in calls)
        if isinstance(outcome, float):
            assert outcome in calls
            tol = config.relative_tolerance * max(1.0, abs(target))
            assert abs(f(outcome) - target) <= tol
        for error in (NoSignChangeError, DomainError):
            assert (outcome is error) == (expected is error)
        if outcome is MaxIterationsError:
            assert expected is MaxIterationsError
        if len(calls) > 2:
            # the forced midpoint halves the bracket at least every third
            # step, up to rounding and to a bracket of adjacent floats
            span = config.hi - config.lo
            ulp = math.ulp(max(abs(config.lo), abs(config.hi)))
            for steps, width in enumerate(bracket_widths(f, target, calls)):
                assert width <= span / 2 ** steps + ulp
        # at most 4 evaluations beyond halving's; halving can stop early where
        # a midpoint lands on the root by chance (x**2 = 0.25 on [0, 1] takes
        # it 1 step and Brent's method 6), so its count is floored at 8
        assert len(calls) <= max(len(oracle_calls), 8) + 4

    def test_square_root(self):
        root = bisect(lambda x: x * x, 4.0, SolverConfig(lo=0.0, hi=10.0))
        assert root == pytest.approx(2.0, abs=1e-9)

    def test_deterministic_reruns(self):
        config = SolverConfig(lo=0.0, hi=10.0)
        first = bisect(lambda x: x * x, 4.0, config)
        second = bisect(lambda x: x * x, 4.0, config)
        assert first == second

    def test_iteration_count_is_bounded(self):
        calls = []
        bisect(lambda x: calls.append(x) or x * x, 4.0,
               SolverConfig(lo=0.0, hi=10.0))
        # 2 endpoint evaluations, then 9 interpolation and midpoint steps;
        # halving alone needs 36 more to bring the residual below 1e-10
        assert len(calls) <= 12

    def test_endpoint_already_solves(self):
        assert bisect(lambda x: x, 0.0, SolverConfig(lo=0.0, hi=1.0)) == 0.0
        assert bisect(lambda x: x, 1.0, SolverConfig(lo=0.0, hi=1.0)) == 1.0

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            bisect(lambda x: x * x, 4.0, SolverConfig(lo=3.0, hi=10.0))

    def test_max_iterations_carries_best_iterate(self):
        config = SolverConfig(lo=0.0, hi=10.0, relative_tolerance=1e-15,
                              max_iterations=8)
        with pytest.raises(MaxIterationsError) as excinfo:
            bisect(lambda x: x * x, 4.0, config)
        err = excinfo.value
        assert err.iterations == 8
        assert err.best_x == pytest.approx(2.0, abs=10.0 / 2 ** 8)
        assert err.best_residual == abs(err.best_x ** 2 - 4.0)

    def test_step_stops_once_the_bracket_closes(self):
        # the bracket shrinks onto the jump at 0.3, where no float meets the
        # target; once its ends are adjacent floats, a point would repeat one
        calls = []
        with pytest.raises(MaxIterationsError, match="iterations: the bracket closed on the "
                           "adjacent floats 0.29999999999999993 and 0.3; best") as excinfo:
            bisect(lambda x: calls.append(x) or (1.0 if x >= 0.3 else 0.0), 0.5,
                   SolverConfig(lo=0.0, hi=1.0))
        err = excinfo.value
        assert len(calls) == len(set(calls)) <= 60
        assert err.iterations == len(calls) - 2
        assert (err.best_x, err.best_residual) == (0.0, 0.5)

    def test_decreasing_function(self):
        root = bisect(lambda x: -x, -3.0, SolverConfig(lo=0.0, hi=10.0))
        assert root == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan])
    def test_non_finite_target(self, target):
        # an infinite target made the tolerance infinite, so the first
        # bracket end passed as a solution
        calls = []
        with pytest.raises(DomainError, match=f"target must be finite, got {target}"):
            bisect(lambda x: calls.append(x) or x, target, SolverConfig(lo=0.0, hi=1.0))
        assert calls == []

    @pytest.mark.parametrize("lo,hi,tol,iters", [
        (1.0, 0.0, 1e-10, 200), (0.0, 1.0, 0.0, 200), (0.0, 1.0, 1e-10, 0),
    ])
    def test_config_validation(self, lo, hi, tol, iters):
        with pytest.raises(DomainError):
            SolverConfig(lo=lo, hi=hi, relative_tolerance=tol,
                         max_iterations=iters)


class TestImpliedTheta:
    def test_reference_inversion(self):
        # 1.5% gain from 5% stock growth
        assert implied_theta(0.015, 0.05) == pytest.approx(0.30516, abs=1e-4)

    def test_against_high_precision(self):
        mp.dps = 50
        expected = float(mp.log(mp.mpf("1.015")) / mp.log(mp.mpf("1.05")))
        assert implied_theta(0.015, 0.05) == pytest.approx(expected, rel=1e-12)

    def test_zero_gain(self):
        assert implied_theta(0.0, 0.05) == 0.0

    def test_round_trip(self):
        theta = implied_theta(0.021, 0.04)
        assert robotics_output_gain(0.04, theta) == pytest.approx(0.021, rel=1e-12)

    @pytest.mark.parametrize("gain,growth", [(-1.0, 0.05), (0.015, -1.0),
                                             (0.015, 0.0)])
    def test_validation(self, gain, growth):
        with pytest.raises(DomainError):
            implied_theta(gain, growth)


class TestImpliedSigma:
    def test_round_trip(self):
        displacement = 1.0 - labor_demand_ratio(1.05, 0.8)
        assert implied_sigma(displacement, 1.05) == pytest.approx(0.8, rel=1e-9)

    def test_zero_displacement(self):
        assert implied_sigma(0.0, 1.05) == 0.0

    @pytest.mark.parametrize("d,r", [(1.0, 1.05), (-0.1, 1.05), (0.03, 0.0),
                                     (0.03, 1.0)])
    def test_validation(self, d, r):
        with pytest.raises(DomainError):
            implied_sigma(d, r)


class TestImpliedExposure:
    def test_shipped_baseline_value(self):
        # 3.2% national displacement at r=1.05, sigma=0.8
        assert implied_exposure(0.032, 1.05, 0.8) == \
            pytest.approx(0.835941455612, rel=1e-9)

    def test_shipped_high_adoption_value(self):
        assert implied_exposure(0.041, 1.25, 0.65) == \
            pytest.approx(0.303669583007, rel=1e-9)

    def test_round_trip(self):
        exposure = implied_exposure(0.032, 1.05, 0.8)
        assert 1.0 - labor_demand_ratio(1.05, 0.8, exposure) == \
            pytest.approx(0.032, rel=1e-9)

    def test_zero_target(self):
        assert implied_exposure(0.0, 1.05, 0.8) == 0.0

    def test_unattainable_target(self):
        # full exposure at r=1.05, sigma=0.8 yields only ~3.8%
        with pytest.raises(UnattainableTargetError):
            implied_exposure(0.2, 1.05, 0.8)

    @pytest.mark.parametrize("d,r,s", [(1.0, 1.05, 0.8), (0.03, 0.9, 0.8),
                                       (0.03, 1.05, 0.0)])
    def test_validation(self, d, r, s):
        with pytest.raises(DomainError):
            implied_exposure(d, r, s)


class TestImpliedCostRatio:
    def test_round_trip(self):
        ratio = implied_cost_ratio(0.032, 0.8)
        assert 1.0 - labor_demand_ratio(ratio, 0.8) == pytest.approx(0.032, rel=1e-9)

    def test_partial_exposure_round_trip(self):
        ratio = implied_cost_ratio(0.0234741784038, 0.8, exposure_share=0.835941455612)
        displacement = 1.0 - labor_demand_ratio(ratio, 0.8, 0.835941455612)
        assert displacement == pytest.approx(0.0234741784038, rel=1e-9)

    def test_zero_target(self):
        assert implied_cost_ratio(0.0, 0.8) == 1.0

    def test_unattainable_beyond_exposure(self):
        with pytest.raises(UnattainableTargetError):
            implied_cost_ratio(0.5, 0.8, exposure_share=0.4)

    @pytest.mark.parametrize("d,s,e", [(1.0, 0.8, 1.0), (0.03, 0.0, 1.0),
                                       (0.03, 0.8, 0.0), (0.03, 0.8, 1.5)])
    def test_validation(self, d, s, e):
        with pytest.raises(DomainError):
            implied_cost_ratio(d, s, exposure_share=e)


class TestImpliedRoboticsGrowth:
    def test_closed_form_without_spillover(self):
        # invert a 1.5% gain at theta=0.5: g = 1.015^2 - 1
        growth = implied_robotics_growth(0.015, 0.5)
        assert growth == pytest.approx(0.030225, rel=1e-10)

    def test_round_trip_without_spillover(self):
        growth = implied_robotics_growth(0.025, 0.6)
        assert robotics_output_gain(growth, 0.6) == pytest.approx(0.025, rel=1e-12)

    def test_spillover_solution_is_below_direct_solution(self, cfg):
        # the spillover contributes part of the gain, so less adoption is
        # needed than the closed form without it asks for
        spillover = solve(cfg, "productivity_spillover", "gain", 0.021, "robotics_growth")
        assert spillover.value < implied_robotics_growth(0.021, 0.5)

    @pytest.mark.parametrize("gain,theta", [(-1.0, 0.5), (0.02, 0.0), (0.02, 1.5)])
    def test_validation(self, gain, theta):
        with pytest.raises(DomainError):
            implied_robotics_growth(gain, theta)


class TestSolveTfpLevel:
    def test_round_trip(self):
        state = EconomyState(year=2024, tfp=1.37, capital=120.0, labor=2.13,
                             robotics=1.8)
        output = production_output(state, 0.35, 0.5)
        recovered = solve_tfp_level(output, state.capital, state.labor,
                                    state.robotics, 0.35, 0.5)
        assert recovered == pytest.approx(1.37, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"observed_output": 0.0}, {"capital": -1.0}, {"labor": 0.0},
        {"robotics": 0.0}, {"alpha": 1.0}, {"theta": 0.0}, {"alpha": 0.6, "theta": 0.4},
    ])
    def test_validation(self, kwargs):
        base = dict(observed_output=100.0, capital=50.0, labor=2.0,
                    robotics=1.0, alpha=0.35, theta=0.5)
        base.update(kwargs)
        with pytest.raises(DomainError):
            solve_tfp_level(**base)


class TestCalibrationReport:
    def test_to_dict_round_trip(self):
        report = CalibrationReport(target_name="gain", target_value=0.015,
                                   parameter="theta", value=0.3052,
                                   residual=-1e-16, iterations=0)
        payload = report.to_dict()
        assert payload == {
            "target_name": "gain", "target_value": 0.015, "parameter": "theta",
            "value": 0.3052, "residual": -1e-16, "iterations": 0,
        }


class TestRoundTripProperties:
    @given(theta=st.floats(0.05, 0.95), growth=st.floats(0.001, 0.5))
    def test_theta_inversion(self, theta, growth):
        gain = robotics_output_gain(growth, theta)
        assert implied_theta(gain, growth) == pytest.approx(theta, rel=1e-9)

    @given(sigma=st.floats(0.05, 3.0), ratio=st.floats(1.001, 2.0))
    def test_sigma_inversion(self, sigma, ratio):
        displacement = 1.0 - labor_demand_ratio(ratio, sigma)
        assert implied_sigma(displacement, ratio) == pytest.approx(sigma, rel=1e-9)

    @given(sigma=st.floats(0.1, 3.0), ratio=st.floats(1.01, 2.0),
           exposure=st.floats(0.05, 1.0))
    def test_exposure_inversion(self, sigma, ratio, exposure):
        displacement = exposure * (1.0 - ratio ** -sigma)
        assert implied_exposure(displacement, ratio, sigma) == \
            pytest.approx(exposure, rel=1e-9)

    @given(sigma=st.floats(0.1, 3.0), target=st.floats(0.001, 0.3))
    def test_cost_ratio_inversion(self, sigma, target):
        ratio = implied_cost_ratio(target, sigma)
        assert 1.0 - labor_demand_ratio(ratio, sigma) == \
            pytest.approx(target, rel=1e-9)

    @settings(derandomize=True, max_examples=200)
    @given(growth=st.floats(0.001, 0.3), theta=st.floats(0.1, 0.64),
           boost=st.floats(0.0, 0.005))
    def test_robotics_growth_inversion(self, cfg, growth, theta, boost):
        # one year with the TFP spillover on, where the gain compounds the
        # power law and the boost; alpha 0.35 keeps alpha + theta < 1
        scenario = replace(cfg.scenario("productivity_spillover"), robotics_growth=growth,
                           theta_override=StaticTheta(theta))
        params = replace(cfg.params, tfp_boost_per_adoption_pct=boost)
        gain = run_scenario(scenario, params, cfg.initial_state,
                            cfg.baseline).summary.gdp_gain
        report = calibrate_scenario(scenario, params, cfg.initial_state, "gain", gain,
                                    "robotics_growth")
        assert report.value == pytest.approx(growth, rel=1e-6)


# the substitution rule of each solvable parameter, written out independently
# of the solver: the solved value replaces the field, or the whole path
SUBSTITUTE = {
    "theta": lambda s, v: replace(s, theta_override=StaticTheta(v)),
    "sigma": lambda s, v: replace(s, sigma_override=v),
    "exposure": lambda s, v: replace(s, exposure_override=v),
    "cost_ratio": lambda s, v: replace(s, cost_ratio_path=v),
    "robotics_growth": lambda s, v: replace(s, robotics_growth=v),
}
TARGET_OF = {"theta": "gain", "robotics_growth": "gain", "sigma": "displacement",
             "exposure": "displacement", "cost_ratio": "displacement"}
METRIC = {"gain": "gdp_gain", "displacement": "displacement_rate"}
# a value inside each bracket whose engine metric becomes the target
PROBE = {"theta": 0.45, "sigma": 0.7, "exposure": 0.6, "cost_ratio": 1.04,
         "robotics_growth": 0.03}


def engine_metric(cfg, scenario, parameter, value):
    trial = SUBSTITUTE[parameter](scenario, value)
    summary = run_scenario(trial, cfg.params, cfg.initial_state, cfg.baseline).summary
    return getattr(summary, METRIC[TARGET_OF[parameter]])


def configured(cfg, scenario, parameter):
    """The value of a solvable parameter the scenario runs with."""
    params = cfg.params
    return {
        "theta": getattr(scenario.theta_override or params.theta, "value", None),
        "sigma": (params.sigma if scenario.sigma_override is None
                  else scenario.sigma_override),
        "exposure": (params.exposure_share if scenario.exposure_override is None
                     else scenario.exposure_override),
        "cost_ratio": scenario.cost_ratio_path,
        "robotics_growth": scenario.robotics_growth,
    }[parameter]


def solve(cfg, name, target_name, target, parameter):
    return calibrate_scenario(cfg.scenario(name), cfg.params, cfg.initial_state,
                              target_name, target, parameter)


class TestCalibrateScenario:
    @pytest.mark.parametrize("parameter", sorted(SUBSTITUTE))
    @pytest.mark.parametrize("name", ["baseline", "low_adoption",
                                      "productivity_spillover", "staged_adoption"])
    def test_residual_is_the_engine_gap(self, cfg, name, parameter):
        scenario = cfg.scenario(name)
        target = engine_metric(cfg, scenario, parameter, PROBE[parameter])
        report = solve(cfg, name, TARGET_OF[parameter], target, parameter)
        gap = engine_metric(cfg, scenario, parameter, report.value) - target
        assert report.residual == gap
        assert abs(gap) <= 1e-12
        assert report.value == pytest.approx(PROBE[parameter], rel=1e-9)
        assert report.iterations > 2

    @pytest.mark.parametrize("name, parameter", [
        (name, parameter)
        for name in ("baseline", "high_adoption", "low_adoption",
                     "productivity_spillover", "staged_adoption")
        for parameter in sorted(SUBSTITUTE)
        # staged_adoption runs a theta ramp and a cost path, not one value
        if (name, parameter) not in {("staged_adoption", "theta"),
                                     ("staged_adoption", "cost_ratio")}])
    def test_bundled_scenarios_give_back_their_values(self, cfg, name, parameter):
        scenario = cfg.scenario(name)
        value = configured(cfg, scenario, parameter)
        target = engine_metric(cfg, scenario, parameter, value)
        report = solve(cfg, name, TARGET_OF[parameter], target, parameter)
        assert report.value == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("target_name, parameter", list(_ENGINE_SOLVES))
    def test_solves_take_few_engine_runs(self, cfg, target_name, parameter):
        # Brent's method takes at most 9 runs on these solves; the midpoint
        # rule took up to 44
        for scenario in cfg.scenarios:
            summary = run_scenario(scenario, cfg.params, cfg.initial_state,
                                   cfg.baseline).summary
            own = getattr(summary, METRIC[target_name])
            for factor in (0.8, 1.0, 1.2):
                try:
                    report = calibrate_scenario(scenario, cfg.params, cfg.initial_state,
                                                target_name, factor * own, parameter)
                except UnattainableTargetError:
                    continue
                assert report.iterations <= 12, (scenario.name, factor)

    def test_calibrated_literals_reproduce(self, cfg):
        # the solves the bundled dataset's comments describe, against the
        # published targets
        cases = [("baseline", "displacement", 0.032, "exposure", 0.835941455612),
                 ("baseline", "displacement", 0.032, "sigma", 0.8),
                 ("low_adoption", "displacement", 0.019, "cost_ratio", 1.03911110280),
                 ("productivity_spillover", "gain", 0.021, "robotics_growth",
                  0.0300307881761)]
        for name, target_name, target, parameter, value in cases:
            report = solve(cfg, name, target_name, target, parameter)
            assert report.value == pytest.approx(value, rel=1e-9), (name, parameter)

    def test_spillover_round_trip(self, cfg):
        # the engine run at the solved growth gives the target back, and its
        # one-year gain is the power law compounded with the TFP boost
        scenario = cfg.scenario("productivity_spillover")
        growth = solve(cfg, "productivity_spillover", "gain", 0.021, "robotics_growth").value
        gain = run_scenario(replace(scenario, robotics_growth=growth), cfg.params,
                            cfg.initial_state, cfg.baseline).summary.gdp_gain
        assert gain == pytest.approx(0.021, rel=1e-9)
        boost = cfg.params.tfp_boost_per_adoption_pct
        assert gain == pytest.approx((1.0 + boost * 100.0 * growth) * (1.0 + growth) ** 0.5
                                     - 1.0, rel=1e-9)

    def test_dynamic_scenario_solves_against_its_horizon(self, cfg):
        # the single-year closed forms miss the six-year ramp and spillover
        assert solve(cfg, "staged_adoption", "displacement", 0.02,
                     "exposure").value == pytest.approx(0.852, rel=1e-9)
        assert solve(cfg, "staged_adoption", "displacement", 0.03,
                     "sigma").value == pytest.approx(0.833477, rel=1e-6)
        assert solve(cfg, "staged_adoption", "gain", 0.03,
                     "robotics_growth").value == pytest.approx(0.0061733, rel=1e-4)

    def test_out_of_reach_target(self, cfg):
        # at theta near 0 the six years of TFP spillover already give 6.2%
        with pytest.raises(UnattainableTargetError) as info:
            solve(cfg, "staged_adoption", "gain", 0.03, "theta")
        message = str(info.value)
        assert "solving theta" in message
        assert "theta in [1e-09, 0.65]" in message
        assert "gives gain from 0.0615202 to 0.284004" in message
        assert "f - target" not in message

    def test_spillover_out_of_reach(self, cfg):
        # growth 1 gives (1 + 0.002 * 100) * 2**0.6 - 1 = 0.819, short of 0.9
        scenario = replace(cfg.scenario("productivity_spillover"),
                           theta_override=StaticTheta(0.6))
        assert scenario.n_years == 1 and scenario.tfp_enabled
        with pytest.raises(UnattainableTargetError) as info:
            calibrate_scenario(scenario, cfg.params, cfg.initial_state, "gain", 0.9,
                               "robotics_growth")
        message = str(info.value)
        assert "gain=0.9 is out of reach by solving robotics_growth" in message
        assert "robotics_growth in [0, 1]" in message
        assert "gives gain from 0 to 0.81886" in message
        assert "f - target" not in message

    @pytest.mark.parametrize("target_name, parameter", SUPPORTED_PAIRS)
    @pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan])
    def test_non_finite_target(self, cfg, target_name, parameter, target):
        with pytest.raises(DomainError,
                           match=f"{target_name} target must be finite, got {target}"):
            solve(cfg, "baseline", target_name, target, parameter)

    def test_theta_bracket_stays_below_one_minus_alpha(self, cfg):
        # the engine rejects alpha + theta >= 1, so the bracket ends below it
        with pytest.raises(UnattainableTargetError, match=r"theta in \[1e-09, 0.65\]"):
            solve(cfg, "baseline", "gain", 0.5, "theta")

    def test_sigma_end_lowered_to_leave_labor(self, cfg):
        # at cost ratio 7 and full exposure, sigma 20 leaves 7**-20 = 1.3e-17 of
        # the workforce, which rounds to none; sigma near 0.36 reaches 0.5
        scenario = replace(cfg.scenario("low_adoption"), cost_ratio_path=7.0)
        assert cfg.params.exposure_share == 1.0
        report = calibrate_scenario(scenario, cfg.params, cfg.initial_state,
                                    "displacement", 0.5, "sigma")
        assert report.value == pytest.approx(math.log(2) / math.log(7), rel=1e-9)
        solved = replace(scenario, sigma_override=report.value)
        rate = run_scenario(solved, cfg.params, cfg.initial_state,
                            cfg.baseline).summary.displacement_rate
        assert report.residual == rate - 0.5
        assert abs(rate - 0.5) <= 1e-12
        end = _labor_end(scenario, cfg.params, cfg.initial_state, "sigma", 0.0, 20.0)
        assert 18 < end < 20
        assert _leaves_labor(cfg.initial_state, 7.0, end, 1.0)
        assert not _leaves_labor(cfg.initial_state, 7.0, math.nextafter(end, 20.0), 1.0)

    def test_cost_ratio_end_lowered_to_leave_labor(self, cfg):
        scenario = replace(cfg.scenario("low_adoption"), sigma_override=20.0)
        report = calibrate_scenario(scenario, cfg.params, cfg.initial_state,
                                    "displacement", 0.5, "cost_ratio")
        assert report.value == pytest.approx(2 ** (1 / 20), rel=1e-9)
        end = _labor_end(scenario, cfg.params, cfg.initial_state, "cost_ratio", 1.0, 10.0)
        assert 1 < end < 10
        assert _leaves_labor(cfg.initial_state, end, 20.0, 1.0)
        assert not _leaves_labor(cfg.initial_state, math.nextafter(end, 10.0), 20.0, 1.0)

    @pytest.mark.parametrize("parameter", ["sigma", "exposure", "cost_ratio"])
    def test_bundled_solves_keep_their_brackets(self, cfg, parameter):
        _, _, lo, hi = _ENGINE_SOLVES["displacement", parameter]
        for scenario in cfg.scenarios:
            assert _labor_end(scenario, cfg.params, cfg.initial_state, parameter,
                              lo, hi) == hi

    def test_output_solves_tfp_at_the_initial_state(self, cfg):
        state = cfg.initial_state
        report = solve(cfg, "baseline", "output", 2.0, "tfp")
        output = production_output(replace(state, tfp=report.value), cfg.params.alpha, 0.5)
        assert report.residual == output - 2.0
        assert abs(report.residual) < 1e-12
        assert report.iterations == 0

    def test_unsupported_pair(self, cfg):
        assert ("gain", "sigma") not in SUPPORTED_PAIRS
        with pytest.raises(CalibrationError, match="cannot solve 'sigma'"):
            solve(cfg, "baseline", "gain", 0.015, "sigma")
