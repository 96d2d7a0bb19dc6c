"""One-at-a-time sensitivity analysis and finite-difference elasticities.

Each listed parameter is perturbed multiplicatively around its scenario
value while everything else stays put, the scenario is rerun, and the swing
in a chosen result metric is recorded. Records come back in tornado order:
largest absolute swing first, failed perturbations last, names breaking
ties. Cost-ratio shocks are perturbed in their deviation from 1.0 so a
downside perturbation shrinks the shock instead of flipping its direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .core import EconomyState, ModelParams, StaticTheta, ThetaRamp
from .engine import Scenario, SimulationResult, run_scenario
from .errors import ModelError, _require
from .sectors import LaborBaseline, SectorProfile

__all__ = [
    "PARAMETERS",
    "METRICS",
    "PerturbationSpec",
    "SensitivityRecord",
    "default_specs",
    "one_at_a_time",
    "elasticity_fd",
]

PARAMETERS = ("alpha", "theta", "sigma", "robotics_growth", "cost_ratio",
              "exposure_share", "tfp_boost")
METRICS = ("output_gain", "displacement", "terminal_output")

# default metric per parameter: the channel the parameter acts through
_DEFAULT_METRIC = {
    "alpha": "terminal_output",
    "theta": "output_gain",
    "sigma": "displacement",
    "robotics_growth": "output_gain",
    "cost_ratio": "displacement",
    "exposure_share": "displacement",
    "tfp_boost": "output_gain",
}


@dataclass(frozen=True)
class PerturbationSpec:
    """What to perturb, by how much, and which metric to read off."""

    parameter: str
    perturbation: float = 0.10
    metric: str = "output_gain"

    def __post_init__(self) -> None:
        _require(self.parameter in PARAMETERS,
                 "parameter must be one of {}, got {!r}", PARAMETERS, self.parameter)
        _require(0 <= self.perturbation < 1,
                 "perturbation must lie in [0, 1), got {}", self.perturbation)
        _require(self.metric in METRICS,
                 "metric must be one of {}, got {!r}", METRICS, self.metric)


@dataclass(frozen=True)
class SensitivityRecord:
    """Outcome of perturbing one parameter both ways.

    Results are also expressed as percentage deviations from the baseline
    metric. A record whose perturbation violated a domain constraint
    carries the message in ``error`` and NaN results; the analysis itself
    continues.
    """

    parameter: str
    metric: str
    perturbation: float
    baseline_value: float
    low_value: float
    high_value: float
    baseline_result: float
    low_result: float
    high_result: float
    swing: float
    pct_deviation_low: float
    pct_deviation_high: float
    error: str | None = None


def default_specs(perturbation: float = 0.10) -> tuple[PerturbationSpec, ...]:
    """One spec per supported parameter at a common perturbation size."""
    return tuple(PerturbationSpec(parameter=name, perturbation=perturbation,
                                  metric=_DEFAULT_METRIC[name])
                 for name in PARAMETERS)


def _effective_value(spec_name: str, scenario: Scenario, params: ModelParams) -> float:
    """Representative current value of a parameter (first-year entry for paths)."""
    if spec_name == "alpha":
        return params.alpha
    if spec_name == "theta":
        theta = scenario.theta_override or params.theta
        return theta.value if isinstance(theta, StaticTheta) else theta.start
    if spec_name == "sigma":
        return (scenario.sigma_override if scenario.sigma_override is not None
                else params.sigma)
    if spec_name == "robotics_growth":
        return scenario.growth_path()[0]
    if spec_name == "cost_ratio":
        return scenario.cost_path()[0]
    if spec_name == "exposure_share":
        return (scenario.exposure_override if scenario.exposure_override is not None
                else params.exposure_share)
    return params.tfp_boost_per_adoption_pct


def _scaled_theta(theta, factor: float):
    if isinstance(theta, StaticTheta):
        return StaticTheta(theta.value * factor)
    return ThetaRamp(start=theta.start * factor, end=theta.end * factor,
                     ramp_years=theta.ramp_years)


def _apply(spec_name: str, factor: float, scenario: Scenario,
           params: ModelParams) -> tuple[Scenario, ModelParams]:
    """Return copies with one parameter scaled; validation may raise."""
    if spec_name == "alpha":
        return scenario, replace(params, alpha=params.alpha * factor)
    if spec_name == "theta":
        if scenario.theta_override is not None:
            return (replace(scenario,
                            theta_override=_scaled_theta(scenario.theta_override, factor)),
                    params)
        return scenario, replace(params, theta=_scaled_theta(params.theta, factor))
    if spec_name == "sigma":
        if scenario.sigma_override is not None:
            return replace(scenario, sigma_override=scenario.sigma_override * factor), params
        return scenario, replace(params, sigma=params.sigma * factor)
    if spec_name == "robotics_growth":
        path = scenario.robotics_growth
        if isinstance(path, tuple):
            scaled = tuple(g * factor for g in path)
        else:
            scaled = path * factor
        return replace(scenario, robotics_growth=scaled), params
    if spec_name == "cost_ratio":
        path = scenario.cost_ratio_path
        if isinstance(path, tuple):
            scaled = tuple(1.0 + (r - 1.0) * factor for r in path)
        else:
            scaled = 1.0 + (path - 1.0) * factor
        return replace(scenario, cost_ratio_path=scaled), params
    if spec_name == "exposure_share":
        if scenario.exposure_override is not None:
            return (replace(scenario, exposure_override=scenario.exposure_override * factor),
                    params)
        return scenario, replace(params, exposure_share=params.exposure_share * factor)
    return scenario, replace(
        params, tfp_boost_per_adoption_pct=params.tfp_boost_per_adoption_pct * factor)


def _perturbed_value(spec_name: str, base_value: float, factor: float) -> float:
    if spec_name == "cost_ratio":
        return 1.0 + (base_value - 1.0) * factor
    return base_value * factor


def _extract(metric: str, result: SimulationResult) -> float:
    if metric == "output_gain":
        return result.summary.gdp_gain
    if metric == "displacement":
        return result.summary.displacement_rate
    return result.records[-1].output


def _pct_deviation(side: float, base: float) -> float:
    if base == 0:
        return 0.0 if side == base else math.nan
    return 100.0 * (side - base) / base


def one_at_a_time(scenario: Scenario, params: ModelParams, state0: EconomyState,
                  baseline: LaborBaseline,
                  specs: Sequence[PerturbationSpec] | None = None,
                  sectors: Sequence[SectorProfile] | None = None
                  ) -> list[SensitivityRecord]:
    """Perturb each spec's parameter by +-perturbation and rerun the scenario.

    The unperturbed scenario runs exactly once; its metric values are shared
    by every record. A perturbation that violates a domain constraint
    produces a record with the error message instead of aborting the whole
    analysis. Records come back in tornado order.
    """
    if specs is None:
        specs = default_specs()
    base_result = run_scenario(scenario, params, state0, baseline, sectors)
    records: list[SensitivityRecord] = []
    for spec in specs:
        base_value = _effective_value(spec.parameter, scenario, params)
        base_metric = _extract(spec.metric, base_result)
        side_values: list[float] = []
        side_results: list[float] = []
        error: str | None = None
        for factor in (1.0 - spec.perturbation, 1.0 + spec.perturbation):
            try:
                mod_scenario, mod_params = _apply(spec.parameter, factor,
                                                  scenario, params)
                side_result = run_scenario(mod_scenario, mod_params, state0,
                                           baseline, sectors)
                side_values.append(_effective_value(spec.parameter, mod_scenario,
                                                    mod_params))
                side_results.append(_extract(spec.metric, side_result))
            except ModelError as exc:
                side = "low" if factor < 1 else "high"
                message = f"{side} perturbation invalid: {exc}"
                error = message if error is None else f"{error}; {message}"
                side_values.append(_perturbed_value(spec.parameter, base_value, factor))
                side_results.append(math.nan)
        low_res, high_res = side_results
        records.append(SensitivityRecord(
            parameter=spec.parameter,
            metric=spec.metric,
            perturbation=spec.perturbation,
            baseline_value=base_value,
            low_value=side_values[0],
            high_value=side_values[1],
            baseline_result=base_metric,
            low_result=low_res,
            high_result=high_res,
            swing=high_res - low_res,
            pct_deviation_low=_pct_deviation(low_res, base_metric),
            pct_deviation_high=_pct_deviation(high_res, base_metric),
            error=error,
        ))

    def tornado_key(record: SensitivityRecord):
        failed = math.isnan(record.swing)
        return (1 if failed else 0,
                0.0 if failed else -abs(record.swing),
                record.parameter)

    records.sort(key=tornado_key)
    return records


def elasticity_fd(metric: Callable[[float], float], value: float,
                  step: float = 0.10) -> float:
    """Central log-difference elasticity of a metric in one parameter.

    Evaluates the metric at ``value*(1-step)`` and ``value*(1+step)`` and
    returns ``(ln f_hi - ln f_lo) / (ln(1+step) - ln(1-step))``. For a pure
    power law ``f = c * p**k`` this recovers ``k`` exactly up to float
    rounding, whatever the step. A constant metric has elasticity 0.
    """
    _require(value > 0, "value must be positive, got {}", value)
    _require(0 < step < 1, "step must lie in (0, 1), got {}", step)
    f_lo = metric(value * (1.0 - step))
    f_hi = metric(value * (1.0 + step))
    if f_hi == f_lo:
        return 0.0
    _require(f_lo > 0 and f_hi > 0,
             "metric must stay positive for a log elasticity, "
             "got {} and {}", f_lo, f_hi)
    return (math.log(f_hi) - math.log(f_lo)) / (math.log1p(step) - math.log1p(-step))
