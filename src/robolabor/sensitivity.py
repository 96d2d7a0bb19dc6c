"""One-at-a-time sensitivity analysis and finite-difference elasticities.

Each listed parameter is perturbed multiplicatively around its scenario
value while everything else stays put, the chosen result metric is
evaluated again, and its swing is recorded. Nothing runs in full: each
metric is read alone by ``engine._terminal_metric`` off the record of
``engine._effective_params``, which makes every check of a run, the sector
split's included. A side re-runs only the stage of that function that
reads its field (``engine._STAGE_OF``: the terminal labour, the theta
schedule or the compounded stocks) and reuses its base's record for the
rest; a ``calibrate`` step does the same on its solve's first step's
record. Records come back in tornado order: largest absolute swing first,
failed perturbations last, names breaking ties.

A parameter is scaled where the run reads it: the scenario's override when
one is set, otherwise the model parameter. A shock path scales every entry
and a theta schedule its whole schedule. Cost-ratio shocks are perturbed in
their deviation from 1.0 so a downside perturbation shrinks the shock
instead of flipping its direction. Reported values are first-year entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from . import _EXPORTS
from .core import EconomyState, ModelParams, StaticTheta, ThetaRamp, _with_field
# one_at_a_time makes no full run; run_scenario stays imported because the
# benchmark's tracer (perfbench/spans.py) counts a tornado's engine runs by
# wrapping this name
from .engine import Scenario, _effective_params, _terminal_metric, run_scenario
from .errors import ModelError, _require
from .sectors import LaborBaseline, SectorProfile

__all__ = _EXPORTS["sensitivity"]


class _Parameter(NamedTuple):
    """Where a tornado parameter lives, and the metric it acts through."""

    params_field: str | None    # the ModelParams field holding it
    scenario_field: str | None  # the Scenario field overriding it, or holding a shock path
    metric: str                 # its default metric


_TABLE = {
    "alpha": _Parameter("alpha", None, "terminal_output"),
    "theta": _Parameter("theta", "theta_override", "output_gain"),
    "sigma": _Parameter("sigma", "sigma_override", "displacement"),
    "robotics_growth": _Parameter(None, "robotics_growth", "output_gain"),
    "cost_ratio": _Parameter(None, "cost_ratio_path", "displacement"),
    "exposure_share": _Parameter("exposure_share", "exposure_override", "displacement"),
    "tfp_boost": _Parameter("tfp_boost_per_adoption_pct", None, "output_gain"),
}

PARAMETERS = tuple(_TABLE)
METRICS = ("output_gain", "displacement", "terminal_output")


@dataclass(frozen=True)
class PerturbationSpec:
    """What to perturb, by how much, and which metric to read off.

    ``metric`` defaults to the metric the parameter acts through, so a
    default spec's swing is not zero merely because it reads the wrong one.
    """

    parameter: str
    perturbation: float = 0.10
    metric: str | None = None

    def __post_init__(self) -> None:
        _require(self.parameter in PARAMETERS,
                 "parameter must be one of {}, got {!r}", PARAMETERS, self.parameter)
        if self.metric is None:
            object.__setattr__(self, "metric", _TABLE[self.parameter].metric)
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
    return tuple(PerturbationSpec(name, perturbation) for name in PARAMETERS)


def _holder(parameter: str, scenario: Scenario,
            params: ModelParams) -> tuple[Scenario | ModelParams, str]:
    """The object and field the run reads a parameter from."""
    params_field, scenario_field, _ = _TABLE[parameter]
    if scenario_field is not None and getattr(scenario, scenario_field) is not None:
        return scenario, scenario_field
    return params, params_field


def _scaled(value, factor: float, field: str):
    """``value`` times ``factor``: a cost ratio in its deviation from 1, a
    path in every entry, a theta schedule in its whole schedule."""
    if isinstance(value, StaticTheta):
        return StaticTheta(value.value * factor)
    if isinstance(value, ThetaRamp):
        return ThetaRamp(start=value.start * factor, end=value.end * factor,
                         ramp_years=value.ramp_years)
    if field == "cost_ratio_path":
        if isinstance(value, tuple):
            return tuple([1.0 + (v - 1.0) * factor for v in value])
        return 1.0 + (value - 1.0) * factor
    if isinstance(value, tuple):
        return tuple([v * factor for v in value])
    return value * factor


def _first(value) -> float:
    """The reported value of a parameter: a path's or schedule's first year."""
    if isinstance(value, StaticTheta):
        return value.value
    if isinstance(value, ThetaRamp):
        return value.start
    return value[0] if isinstance(value, tuple) else float(value)


def _pct_deviation(side: float, base: float) -> float:
    if base == 0:
        return 0.0 if side == base else math.nan
    return 100.0 * (side - base) / base


def one_at_a_time(scenario: Scenario, params: ModelParams, state0: EconomyState,
                  baseline: LaborBaseline,
                  specs: Sequence[PerturbationSpec] | None = None,
                  sectors: Sequence[SectorProfile] | None = None
                  ) -> list[SensitivityRecord]:
    """Perturb each spec's parameter by +-perturbation and re-evaluate its metric.

    No scenario runs in full: the base and each side evaluate only their
    metrics, by ``engine._terminal_metric``, on the base's record checked
    once or a side's. A side changes one field of the scenario or the
    parameters and runs only the checks that read that field, which raise
    what ``dataclasses.replace`` would. Every record comes from
    ``engine._effective_params`` given ``sectors``, a side's also given the
    base's record and that field, so it re-runs only the field's stage, and
    the engine decides which records check the split: the base's and each
    labour side's (sigma, the exposure share or the cost ratio), the only
    sides that move the national rate. A perturbation that violates a
    domain constraint, or whose national rate the sector table cannot
    split, produces a record with the error message instead of aborting the
    whole analysis. Records come back in tornado order; an empty ``specs``
    gives no records and evaluates nothing. ``baseline`` is not read: no
    tornado metric reads headcounts.
    """
    if specs is None:
        specs = default_specs()
    if not specs:
        return []
    checked = _effective_params(scenario, params, state0, sectors=sectors)
    base_metrics = {metric: _terminal_metric(metric, scenario, params, state0, checked)
                    for metric in dict.fromkeys(s.metric for s in specs)}
    records: list[SensitivityRecord] = []
    for spec in specs:
        holder, field = _holder(spec.parameter, scenario, params)
        value = getattr(holder, field)
        base_value = _first(value)
        base_metric = base_metrics[spec.metric]
        side_values: list[float] = []
        side_results: list[float] = []
        error: str | None = None
        for factor in (1.0 - spec.perturbation, 1.0 + spec.perturbation):
            side_values.append(_scaled(base_value, factor, field))
            try:
                changed = _with_field(holder, field, _scaled(value, factor, field))
                inputs = (changed, params) if holder is scenario else (scenario, changed)
                side_results.append(_terminal_metric(
                    spec.metric, *inputs, state0,
                    _effective_params(*inputs, state0, checked, field, sectors)))
            except ModelError as exc:
                side = "low" if factor < 1 else "high"
                message = f"{side} perturbation invalid: {exc}"
                error = message if error is None else f"{error}; {message}"
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
