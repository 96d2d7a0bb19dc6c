"""Production function, labor demand and schedule primitives."""

import math

import pytest
from hypothesis import assume, given, strategies as st
from mpmath import mp, mpf, power

from robolabor import (
    DomainError,
    EconomyState,
    ModelParams,
    StaticTheta,
    ThetaRamp,
    labor_demand_ratio,
    production_output,
    robotics_output_gain,
    tfp_step,
    theta_at,
)

mp.dps = 50


def state(**overrides):
    base = dict(year=2024, tfp=1.0, capital=1.0, labor=1.0, robotics=1.0)
    base.update(overrides)
    return EconomyState(**base)


class TestProductionOutput:
    def test_unit_inputs_give_unit_output(self):
        assert production_output(state(), 0.35, 0.5) == 1.0

    def test_robotics_bump_matches_high_precision_power(self):
        # independent oracle: 1.05**0.5 at 50 digits
        expected = float(power(mpf("1.05"), mpf("0.5")))
        got = production_output(state(robotics=1.05), 0.35, 0.5)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.0246950766, abs=1e-10)

    def test_scaling_productive_factors_scales_output(self):
        # constant returns: K, L, R exponents sum to 1 (TFP enters linearly,
        # so scaling it too would scale output by lambda squared)
        base = state(tfp=1.3, capital=2.0, labor=3.0, robotics=0.7)
        doubled = state(tfp=1.3, capital=4.0, labor=6.0, robotics=1.4)
        y0 = production_output(base, 0.35, 0.5)
        y1 = production_output(doubled, 0.35, 0.5)
        assert y1 == pytest.approx(2.0 * y0, rel=1e-12)

    @pytest.mark.parametrize("field", ["tfp", "capital", "labor", "robotics"])
    def test_monotone_in_each_factor(self, field):
        lo = production_output(state(), 0.35, 0.5)
        hi = production_output(state(**{field: 1.2}), 0.35, 0.5)
        assert hi > lo

    @pytest.mark.parametrize("alpha,theta", [
        (0.5, 0.5),    # labor exponent hits zero
        (0.6, 0.5),    # negative labor exponent
        (0.0, 0.5),
        (1.0, 0.5),
        (0.35, 0.0),
        (0.35, 1.1),
        (-0.1, 0.5),
    ])
    def test_rejects_bad_elasticities(self, alpha, theta):
        with pytest.raises(DomainError):
            production_output(state(), alpha, theta)

    @given(alpha=st.floats(0.05, 0.85), theta_frac=st.floats(0.05, 0.95),
           tfp=st.floats(0.1, 10.0), capital=st.floats(1e-3, 1e3),
           labor=st.floats(1e-3, 1e3), robotics=st.floats(1e-3, 1e3),
           scale=st.floats(0.1, 10.0))
    def test_constant_returns_property(self, alpha, theta_frac, tfp, capital,
                                       labor, robotics, scale):
        theta = theta_frac * (0.97 - alpha)
        assume(theta > 1e-3)
        y0 = production_output(state(tfp=tfp, capital=capital, labor=labor,
                                     robotics=robotics), alpha, theta)
        y1 = production_output(state(tfp=tfp, capital=capital * scale,
                                     labor=labor * scale,
                                     robotics=robotics * scale), alpha, theta)
        assert y1 == pytest.approx(scale * y0, rel=1e-12)

    def test_log_derivative_in_robotics_recovers_theta(self):
        # symmetric log difference is exact for a power law
        alpha, theta = 0.35, 0.5
        u = 1.0 + 1e-4
        y_hi = production_output(state(robotics=1.3 * u), alpha, theta)
        y_lo = production_output(state(robotics=1.3 / u), alpha, theta)
        slope = (math.log(y_hi) - math.log(y_lo)) / (2.0 * math.log(u))
        assert slope == pytest.approx(theta, abs=1e-9)


class TestEconomyState:
    @pytest.mark.parametrize("field", ["tfp", "capital", "labor", "robotics"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(DomainError):
            state(**{field: 0.0})
        with pytest.raises(DomainError):
            state(**{field: -1.0})

    @pytest.mark.parametrize("year", [2018, 2101, 2024.5])
    def test_rejects_bad_year(self, year):
        with pytest.raises(DomainError):
            state(year=year)

    def test_accepts_integral_float_year(self):
        assert state(year=2030.0).year == 2030

    @pytest.mark.parametrize("year", ["x", "2030.5", "2030.0", None, math.inf, math.nan])
    def test_rejects_a_year_that_is_no_integer(self, year):
        # neither a string float() cannot read nor one int() cannot read is an integer
        with pytest.raises(DomainError, match="^year must be an integer, got "):
            state(year=year)


class TestRoboticsOutputGain:
    def test_reference_value(self):
        expected = float(power(mpf("1.05"), mpf("0.5")) - 1)
        assert robotics_output_gain(0.05, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_theta_one_passes_growth_through(self):
        assert robotics_output_gain(0.07, 1.0) == pytest.approx(0.07, rel=1e-15)

    def test_zero_growth_zero_gain(self):
        assert robotics_output_gain(0.0, 0.5) == 0.0

    @pytest.mark.parametrize("growth,theta", [(-1.0, 0.5), (-1.5, 0.5),
                                              (0.05, 0.0), (0.05, 1.5)])
    def test_domain(self, growth, theta):
        with pytest.raises(DomainError):
            robotics_output_gain(growth, theta)


class TestLaborDemandRatio:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 0.8, 2.0])
    @pytest.mark.parametrize("exposure", [0.0, 0.3, 1.0])
    def test_identity_at_unit_ratio(self, sigma, exposure):
        assert labor_demand_ratio(1.0, sigma, exposure) == 1.0

    def test_reference_values(self):
        assert labor_demand_ratio(1.05, 0.8, 1.0) == pytest.approx(
            float(power(mpf("1.05"), -mpf("0.8"))), rel=1e-12)
        # sigma calibrated to a 3.2% displacement leaves a 96.8% survival share
        assert labor_demand_ratio(1.05, 0.66667, 1.0) == pytest.approx(0.96800, abs=5e-6)
        assert labor_demand_ratio(1.25, 0.65, 1.0) == pytest.approx(
            float(power(mpf("1.25"), -mpf("0.65"))), rel=1e-12)

    def test_exposure_scales_response(self):
        full = 1.0 - labor_demand_ratio(1.25, 0.65, 1.0)
        half = 1.0 - labor_demand_ratio(1.25, 0.65, 0.5)
        assert half == pytest.approx(0.5 * full, rel=1e-12)

    def test_zero_sigma_never_displaces(self):
        assert labor_demand_ratio(2.0, 0.0, 1.0) == 1.0

    @given(r=st.floats(1.0, 4.0), sigma=st.floats(0.01, 3.0),
           exposure=st.floats(0.0, 1.0))
    def test_bounds_for_cheaper_robots(self, r, sigma, exposure):
        ratio = labor_demand_ratio(r, sigma, exposure)
        assert 1.0 - exposure <= ratio <= 1.0

    @given(sigma=st.floats(0.05, 3.0), exposure=st.floats(0.1, 1.0))
    def test_monotone_in_cost_ratio(self, sigma, exposure):
        grid = [1.0, 1.05, 1.1, 1.3, 2.0]
        values = [labor_demand_ratio(r, sigma, exposure) for r in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_sigma_when_robots_cheapen(self):
        values = [labor_demand_ratio(1.25, s, 1.0) for s in (0.1, 0.5, 0.8, 1.5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("r,sigma,exposure", [
        (0.0, 0.8, 1.0), (-0.5, 0.8, 1.0), (1.05, -0.1, 1.0),
        (1.05, 0.8, -0.1), (1.05, 0.8, 1.1),
    ])
    def test_domain(self, r, sigma, exposure):
        with pytest.raises(DomainError):
            labor_demand_ratio(r, sigma, exposure)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(DomainError, match="sigma must be finite and >= 0"):
            labor_demand_ratio(0.5, sigma)

    def test_power_outside_the_float_range_is_a_domain_error(self):
        # 1e-300 ** -5 is past the float range, where Python raises OverflowError
        with pytest.raises(DomainError, match="outside the float range"):
            labor_demand_ratio(1e-300, 5.0)

    @given(st.floats(min_value=5e-324, allow_infinity=True),
           st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1.0))
    def test_ratio_is_finite_or_a_domain_error(self, r, sigma, exposure):
        try:
            ratio = labor_demand_ratio(r, sigma, exposure)
        except DomainError:
            return
        assert math.isfinite(ratio)


class TestThetaSchedule:
    def test_ramp_endpoints_exact(self):
        ramp = ThetaRamp(start=0.4, end=0.6, ramp_years=5)
        # exact float equality required at both ends; 0.4 + 5 * 0.04 != 0.6
        assert theta_at(0, ramp) == 0.4
        assert theta_at(5, ramp) == 0.6
        assert theta_at(7, ramp) == 0.6

    def test_ramp_interpolates_linearly(self):
        ramp = ThetaRamp(start=0.4, end=0.6, ramp_years=5)
        assert theta_at(1, ramp) == pytest.approx(0.44, rel=1e-12)
        assert theta_at(2, ramp) == pytest.approx(0.48, rel=1e-12)
        assert theta_at(4, ramp) == pytest.approx(0.56, rel=1e-12)

    def test_ramp_nondecreasing_and_clamped(self):
        ramp = ThetaRamp(start=0.4, end=0.6, ramp_years=5)
        values = [theta_at(i, ramp) for i in range(12)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.6

    def test_declining_ramp_allowed(self):
        ramp = ThetaRamp(start=0.6, end=0.3, ramp_years=3)
        assert theta_at(0, ramp) == 0.6
        assert theta_at(3, ramp) == 0.3

    def test_static_everywhere(self):
        static = StaticTheta(0.5)
        assert all(theta_at(i, static) == 0.5 for i in (0, 1, 50))

    def test_accepts_integral_float_index(self):
        assert theta_at(2.0, StaticTheta(0.5)) == 0.5

    @pytest.mark.parametrize("index", [-1, 2.5, "a", None])
    def test_rejects_bad_index(self, index):
        with pytest.raises(DomainError):
            theta_at(index, StaticTheta(0.5))

    @pytest.mark.parametrize("theta", [0.5, None, "static"])
    def test_rejects_a_schedule_of_another_type(self, theta):
        with pytest.raises(DomainError, match="theta must be StaticTheta or ThetaRamp, got "):
            theta_at(0, theta)

    @pytest.mark.parametrize("kwargs", [
        dict(start=0.0, end=0.6, ramp_years=5),
        dict(start=0.4, end=1.2, ramp_years=5),
        dict(start=0.4, end=0.6, ramp_years=0),
        dict(start=0.4, end=0.6, ramp_years="x"),
        dict(start=0.4, end=0.6, ramp_years=None),
    ])
    def test_ramp_validation(self, kwargs):
        with pytest.raises(DomainError):
            ThetaRamp(**kwargs)


class TestTfpStep:
    def test_five_percent_adoption_gives_one_percent_tfp(self):
        assert tfp_step(1.0, 5.0) == pytest.approx(1.01, rel=1e-15)

    def test_zero_growth_is_identity(self):
        assert tfp_step(1.0, 0.0) == 1.0
        assert tfp_step(1.2345, 0.0) == 1.2345

    def test_five_year_compounding(self):
        tfp = 1.0
        for _ in range(5):
            tfp = tfp_step(tfp, 5.0)
        assert tfp == pytest.approx(1.01 ** 5, rel=1e-12)

    def test_custom_boost(self):
        assert tfp_step(2.0, 10.0, boost_per_pct=0.001) == pytest.approx(2.02, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(tfp_prev=0.0, adoption_growth_pct=5.0),
        dict(tfp_prev=-1.0, adoption_growth_pct=5.0),
        dict(tfp_prev=1.0, adoption_growth_pct=-0.5),
        dict(tfp_prev=1.0, adoption_growth_pct=5.0, boost_per_pct=-0.002),
    ])
    def test_domain(self, kwargs):
        with pytest.raises(DomainError):
            tfp_step(**kwargs)

    @pytest.mark.parametrize("boost", [math.inf, math.nan])
    def test_boost_must_be_finite(self, boost):
        # an infinite boost would give nan at zero growth and inf above it
        for growth in (0.0, 1.0):
            with pytest.raises(DomainError, match="boost_per_pct must be finite and >= 0"):
                tfp_step(1.0, growth, boost)

    @pytest.mark.parametrize("tfp_prev, growth, boost", [
        (1.0, math.inf, 0.0),      # 0 * inf is nan
        (1.0, math.inf, 0.002),
        (1e308, 1e6, 1.0),         # a finite product past the float range
        (math.inf, 1.0, 0.002),
    ])
    def test_result_must_be_finite(self, tfp_prev, growth, boost):
        with pytest.raises(DomainError, match="not a finite number"):
            tfp_step(tfp_prev, growth, boost)


class TestModelParams:
    def test_joint_elasticity_guard(self):
        with pytest.raises(DomainError):
            ModelParams(alpha=0.95, theta=StaticTheta(0.5), sigma=0.65)
        with pytest.raises(DomainError):
            # ramp end breaches even though the start is fine
            ModelParams(alpha=0.45, theta=ThetaRamp(0.4, 0.6, 5), sigma=0.65)

    def test_valid_construction(self):
        params = ModelParams(alpha=0.35, theta=ThetaRamp(0.4, 0.6, 5), sigma=0.65)
        assert params.exposure_share == 1.0
        assert params.tfp_boost_per_adoption_pct == 0.002

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.35, theta=StaticTheta(0.5), sigma=-0.1),
        dict(alpha=0.35, theta=StaticTheta(0.5), sigma=0.65, exposure_share=1.5),
        dict(alpha=0.35, theta=StaticTheta(0.5), sigma=0.65,
             tfp_boost_per_adoption_pct=-0.001),
        dict(alpha=0.35, theta=0.5, sigma=0.65),  # bare float is not a schedule
    ])
    def test_field_validation(self, kwargs):
        with pytest.raises(DomainError):
            ModelParams(**kwargs)
