"""Scenario simulation over single-shock and multi-year horizons.

A scenario bundles shock paths (robotics stock growth, relative cost
shifts), optional parameter overrides, and reporting metadata. The engine
walks the horizon year by year, carries TFP and the robotics stock forward,
prices labor demand off the cumulative cost shift, and emits one record per
year plus a terminal summary with sector, headcount and remittance
breakdowns.

Two gain metrics are reported and they answer different questions:

* ``YearRecord.output_gain_vs_baseline`` is the realized economy-wide gain
  including the drag from displaced labor.
* ``ResultSummary.gdp_gain`` holds labor at its baseline level and isolates
  the robotics-capital and TFP channels. Headline projections are quoted
  this way, so scenario targets compare against it.

Comparative statics are one-year dynamics: running ``mode=dynamic`` over a
single year reproduces the comparative-static result field by field.

``_effective_params`` proves the model's domain for the whole horizon once,
before the first year. The year loop is then unchecked arithmetic, and it
must give the same floats as the public helpers of ``core`` and ``sectors``.

The one state kept: a run with the same terminal displacement rate, sector
tuple (or no table) and baseline as the run before it copies that run's
sector rates and headcounts instead of computing them again.

A caller that reads one terminal metric, a tornado's base or side or a
calibration step, calls ``_terminal_metric``: the same checks and the same
float, with no year records, headcounts or sector rates built. The one
check left outside ``_effective_params`` is the sector split, which it runs
only where the split might raise, so it fails where a full run fails.

``Scenario`` keeps one check per field, listed with the fields it reads in
``_CHECKS``; ``__post_init__`` runs them all. A side or step that changes
one field builds its scenario with ``core._with_field``, which runs only
the checks that read that field and gives what ``dataclasses.replace``
gives.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    EconomyState,
    ModelParams,
    StaticTheta,
    ThetaMode,
    ThetaRamp,
    YEAR_MAX,
    YEAR_MIN,
    _cobb_douglas,
    _ramp_theta,
    _theta_extremes,
    labor_demand_ratio,
    production_output,
)
from .errors import DomainError, _require
from .sectors import (
    HeadcountBreakdown,
    JobCreationModel,
    JobCreationRamp,
    JobCreationRatio,
    LaborBaseline,
    SectorProfile,
    _split_fits,
    disaggregate_displacement,
    displacement_headcounts,
)

__all__ = [
    "SimulationMode",
    "TargetSet",
    "RawShocks",
    "Scenario",
    "YearRecord",
    "ResultSummary",
    "TargetGap",
    "SimulationResult",
    "run_scenario",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")

# the last run's terminal rate, sector table and baseline, then the sector
# rates and headcounts they gave; read once and replaced whole, so a run in
# another thread sees a whole entry or none and at worst computes again
_last_outcome = _NO_OUTCOME = (math.nan, None, None, None, None)


class SimulationMode(str, enum.Enum):
    COMPARATIVE_STATIC = "comparative_static"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class TargetSet:
    """Published outcomes a scenario is calibrated to reproduce."""

    gdp_gain: float | None = None
    displacement: float | None = None

    def __post_init__(self) -> None:
        if self.gdp_gain is not None:
            _require(-1 < self.gdp_gain < math.inf,
                     "gdp_gain target must be finite and exceed -1, got {}", self.gdp_gain)
        if self.displacement is not None:
            _require(0 <= self.displacement < 1,
                     "displacement target must lie in [0, 1), got {}", self.displacement)


@dataclass(frozen=True)
class RawShocks:
    """Shock values as stated before calibration, kept for gap reporting.

    A cost ratio is at least 1, as on the path it stands in for."""

    robotics_growth: float | None = None
    cost_ratio: float | None = None

    def __post_init__(self) -> None:
        if self.robotics_growth is not None:
            _require(-1 < self.robotics_growth < math.inf,
                     "raw robotics_growth must be finite and exceed -1, "
                     "got {}", self.robotics_growth)
        if self.cost_ratio is not None:
            _require(1 <= self.cost_ratio < math.inf,
                     "raw cost_ratio must be finite and >= 1, got {}", self.cost_ratio)


def _path_values(scenario: "Scenario", name: str, n_years: int) -> tuple[float, ...]:
    """Store a sequence-valued shock path as a float tuple; return its values.

    A scalar path yields its single value. Every value must be finite.
    """
    path = getattr(scenario, name)
    if isinstance(path, (tuple, list)):
        values = tuple(float(v) for v in path)
        _require(len(values) == n_years,
                 "{} needs {} entries, got {}", name, n_years, len(values))
        object.__setattr__(scenario, name, values)
    else:
        values = (float(path),)
    for v in values:
        _require(math.isfinite(v), "{} entries must be finite, got {}", name, v)
    return values


@dataclass(frozen=True)
class Scenario:
    """One simulation case: shocks, overrides and reporting metadata.

    Shock paths may be scalars (applied every year) or sequences with one
    entry per horizon year. ``cost_ratio_path`` entries are cumulative
    wage-to-robot-cost ratios relative to the baseline year, not
    year-over-year increments, so they start at 1 or above and never fall.
    With the TFP spillover on, robotics growth, raw or not, is never negative.
    """

    name: str
    mode: SimulationMode
    horizon: tuple[int, int]
    robotics_growth: float | tuple[float, ...] = 0.0
    cost_ratio_path: float | tuple[float, ...] = 1.0
    sigma_override: float | None = None
    theta_override: ThetaMode | None = None
    exposure_override: float | None = None
    tfp_enabled: bool = False
    job_creation_model: JobCreationModel = field(default_factory=JobCreationRatio)
    key_driver: str = ""
    targets: TargetSet | None = None
    raw_shocks: RawShocks | None = None

    def __post_init__(self) -> None:
        for check, _ in self._CHECKS:
            check(self)

    def _check_name(self) -> None:
        _require(bool(_NAME_RE.match(self.name)),
                 "scenario name must match [A-Za-z0-9_-]+, got {!r}", self.name)

    def _check_mode(self) -> None:
        try:
            mode = SimulationMode(self.mode)
        except ValueError:
            raise DomainError(f"mode must be one of {[m.value for m in SimulationMode]}, "
                              f"got {self.mode!r}") from None
        object.__setattr__(self, "mode", mode)

    def _check_horizon(self) -> None:
        horizon = tuple(self.horizon)
        _require(len(horizon) == 2, "horizon must be a (start, end) pair")
        start, end = horizon
        _require(float(start).is_integer() and float(end).is_integer(),
                 "horizon years must be integers, got {}", horizon)
        start, end = int(start), int(end)
        _require(YEAR_MIN <= start <= end <= YEAR_MAX,
                 "horizon must satisfy {} <= start <= end <= {}, "
                 "got {}", YEAR_MIN, YEAR_MAX, horizon)
        object.__setattr__(self, "horizon", (start, end))
        if self.mode is SimulationMode.COMPARATIVE_STATIC:
            _require(start == end,
                     "comparative_static scenarios take a single-year horizon")

    def _check_growth(self) -> None:
        for g in _path_values(self, "robotics_growth", self.n_years):
            _require(g > -1, "robotics_growth must exceed -1, got {}", g)
            if self.tfp_enabled:
                _require(g >= 0,
                         "robotics_growth must be >= 0 when tfp_enabled, got {}", g)

    def _check_raw_shocks(self) -> None:
        raw = self.raw_shocks
        if self.tfp_enabled and raw is not None and raw.robotics_growth is not None:
            _require(raw.robotics_growth >= 0, "raw robotics_growth must be >= 0 "
                     "when tfp_enabled, got {}", raw.robotics_growth)

    def _check_cost_path(self) -> None:
        ratios = _path_values(self, "cost_ratio_path", self.n_years)
        _require(ratios[0] >= 1, "cost_ratio_path entries must be >= 1, got {}", ratios[0])
        for before, after in zip(ratios, ratios[1:]):
            _require(after >= before,
                     "cost_ratio_path must not fall over the horizon, "
                     "got {} then {}", before, after)

    def _check_sigma_override(self) -> None:
        if self.sigma_override is not None:
            _require(0 <= self.sigma_override < math.inf,
                     "sigma_override must be finite and >= 0, got {}", self.sigma_override)

    def _check_theta_override(self) -> None:
        if self.theta_override is not None:
            _require(isinstance(self.theta_override, (StaticTheta, ThetaRamp)),
                     "theta_override must be StaticTheta or ThetaRamp")

    def _check_exposure_override(self) -> None:
        if self.exposure_override is not None:
            _require(0 <= self.exposure_override <= 1,
                     "exposure_override must lie in [0, 1], got {}", self.exposure_override)

    def _check_job_creation_model(self) -> None:
        _require(isinstance(self.job_creation_model, (JobCreationRatio, JobCreationRamp)),
                 "job_creation_model must be JobCreationRatio or JobCreationRamp")

    # each check with the fields it reads, in the order __post_init__ runs them
    _CHECKS = ((_check_name, ("name",)),
               (_check_mode, ("mode",)),
               (_check_horizon, ("horizon", "mode")),
               (_check_growth, ("robotics_growth", "horizon", "tfp_enabled")),
               (_check_raw_shocks, ("raw_shocks", "tfp_enabled")),
               (_check_cost_path, ("cost_ratio_path", "horizon")),
               (_check_sigma_override, ("sigma_override",)),
               (_check_theta_override, ("theta_override",)),
               (_check_exposure_override, ("exposure_override",)),
               (_check_job_creation_model, ("job_creation_model",)))

    @property
    def n_years(self) -> int:
        return self.horizon[1] - self.horizon[0] + 1

    def growth_path(self) -> tuple[float, ...]:
        if isinstance(self.robotics_growth, tuple):
            return self.robotics_growth
        return (float(self.robotics_growth),) * self.n_years

    def cost_path(self) -> tuple[float, ...]:
        if isinstance(self.cost_ratio_path, tuple):
            return self.cost_ratio_path
        return (float(self.cost_ratio_path),) * self.n_years


# run_scenario's year loop fills these without calling __init__, so a field
# added here is added there too (tests/test_engine.py pins the two together)
@dataclass(frozen=True)
class YearRecord:
    """State of one simulated year."""

    year: int
    theta: float
    tfp: float
    output: float
    output_gain_vs_baseline: float
    labor: float
    displacement_rate: float
    displaced_cumulative: float
    jobs_created_cumulative: float
    remittance_low: float
    remittance_high: float


@dataclass(frozen=True)
class ResultSummary:
    """Terminal metrics of one scenario run."""

    gdp_gain: float
    realized_gain: float
    displacement_rate: float
    displaced_total: float
    jobs_created: float
    key_driver: str = ""
    raw_gdp_gain: float | None = None
    raw_displacement_rate: float | None = None


@dataclass(frozen=True)
class TargetGap:
    """Computed-versus-target comparison for one metric."""

    metric: str
    target: float
    computed: float
    gap: float
    raw_computed: float | None = None
    raw_gap: float | None = None


@dataclass(frozen=True)
class SimulationResult:
    """Everything a scenario run produced."""

    scenario: str
    mode: SimulationMode
    records: tuple[YearRecord, ...]
    summary: ResultSummary
    sector_rates: dict[str, float]
    headcounts: HeadcountBreakdown
    target_comparison: tuple[TargetGap, ...] | None = None


def _leaves_labor(state0: EconomyState, cost_ratio: float, sigma: float,
                  exposure: float) -> bool:
    """Whether some of ``state0``'s labor survives a cost ratio, as a float:
    the rule :func:`_effective_params` holds the terminal ratio to."""
    return state0.labor * labor_demand_ratio(cost_ratio, sigma, exposure) > 0


def _resolved(scenario: Scenario, params: ModelParams) -> tuple[float, ThetaMode, float]:
    """The sigma, theta schedule and exposure share a run reads: each
    scenario override where set, otherwise the model parameter."""
    return (params.sigma if scenario.sigma_override is None else scenario.sigma_override,
            params.theta if scenario.theta_override is None else scenario.theta_override,
            (params.exposure_share if scenario.exposure_override is None
             else scenario.exposure_override))


def _effective_params(scenario: Scenario, params: ModelParams, state0: EconomyState
                      ) -> tuple[float, Sequence[float], dict[float, float], float,
                                 float, float, float, float, float | None]:
    """Resolve the scenario overrides; prove every simulated year in-domain.

    Returns ``(sigma, theta per year, baseline output by theta,
    exposure_share, terminal labor ratio, terminal TFP, terminal robotics
    stock, gdp_gain, raw_gdp_gain)``, each the float ``run_scenario``
    reports or compounds, from the same operands; ``raw_gdp_gain`` is None
    without a raw robotics growth. Every value of the theta schedule must keep
    ``alpha + theta < 1``, and ``state0``'s output at each must be positive
    and finite, since each year's gain divides by it; the terminal cost
    ratio, the path's largest, must leave some labor, and the jobs created
    from the workers it displaces must stay finite; the robotics stock
    and TFP, compounded from ``state0`` by the growth path, must stay
    positive and finite, and so must TFP times the stock to the power
    theta, the output at ``state0``'s labor, and the gains over ``state0``,
    which divide by its stocks and output, so a tiny initial stock can
    overflow them while every stock stays finite. The raw gain must be
    finite too; with the raw shocks' own rules it exceeds -1, and the raw
    displacement lies in [0, 1]. With the inputs' own rules, every
    precondition of the public helpers then holds every year.
    """
    sigma, theta_mode, exposure = _resolved(scenario, params)
    for value in _theta_extremes(theta_mode):
        _require(params.alpha + value < 1,
                 "alpha + theta must stay below 1, got {} + {}", params.alpha, value)
    n_years = scenario.n_years
    thetas = ((theta_mode.value,) * n_years if isinstance(theta_mode, StaticTheta)
              else [_ramp_theta(index, theta_mode) for index in range(n_years)])
    # the first theta through the checked helper, which also checks alpha;
    # the others through its product alone: ThetaRamp checked their range
    alpha = params.alpha
    first, *others = dict.fromkeys(thetas)
    base_by_theta = {first: production_output(state0, alpha, first)}
    for theta in others:
        base_by_theta[theta] = _cobb_douglas(state0, alpha, theta)
    for theta, base in base_by_theta.items():
        _require(0 < base < math.inf, "initial_state gives output {} at theta {}, "
                 "which must be positive and finite", base, theta)
    # labor is lowest at the terminal ratio
    terminal = scenario.cost_path()[-1]
    ratio = labor_demand_ratio(terminal, sigma, exposure)
    _require(state0.labor * ratio > 0,
             "cost_ratio_path reaches {}, which displaces the whole workforce at "
             "sigma {} and exposure_share {}", terminal, sigma, exposure)
    # and jobs created are highest there, at the largest creation ratio
    model = scenario.job_creation_model
    job_ratio = model.ratio if isinstance(model, JobCreationRatio) else model.terminal_ratio
    displaced = state0.labor - state0.labor * ratio
    _require(job_ratio * displaced < math.inf, "job_creation ratio {} times the {} workers "
             "displaced by the terminal year is inf, outside the float range",
             job_ratio, displaced)
    # compound exactly as run_scenario does, so a pass here is a pass there
    labor0, boost = state0.labor, params.tfp_boost_per_adoption_pct
    labor_cap = max(labor0, 1.0)  # labor <= labor0, and x ** p <= max(x, 1) for p in (0, 1]
    robotics = state0.robotics
    tfp = state0.tfp
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
        # TFP is finite here and theta lies in (0, 1], so TFP times
        # robotics**theta can overflow only once TFP times the stock does
        if overflow is None and tfp * robotics == math.inf:
            theta_t = thetas[year - scenario.horizon[0]]
            if tfp * robotics ** theta_t == math.inf:
                overflow = f"the power {theta_t} to inf by {year}"
        robotics_cap = robotics if robotics > 1.0 else 1.0  # max() costs more here
        # bounds the year's output at state0's labor, its highest, and over the
        # lowest baseline output the year's gain; only an overflowing bound
        # needs the exact values
        if tfp * kalpha * labor_cap * robotics_cap / base_low == math.inf:
            theta_t = thetas[year - scenario.horizon[0]]
            output = tfp * kalpha * labor0 ** (1.0 - alpha - theta_t) * robotics ** theta_t
            if output_overflow is None and output == math.inf:
                output_overflow = year
            if gain_overflow is None and output / base_by_theta[theta_t] == math.inf:
                gain_overflow = year
    # gdp_gain, the terminal year's channel gain: robotics stock and TFP
    # moved, labor held at baseline
    gain = (tfp / state0.tfp) * (robotics / state0.robotics) ** thetas[-1] - 1.0
    if gain_overflow is None and gain == math.inf:
        gain_overflow = scenario.horizon[1]
    # a stock that leaves the range anywhere is reported first
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
        # the stated growth as one year at the first theta
        g_raw = raw.robotics_growth
        factor = 1.0 + boost * 100.0 * g_raw if scenario.tfp_enabled else 1.0
        raw_gain = factor * (1.0 + g_raw) ** thetas[0] - 1.0
        _require(raw_gain < math.inf, "raw robotics_growth {} gives a raw gdp_gain of inf "
                 "through tfp_enabled, outside the float range", g_raw)
    return sigma, thetas, base_by_theta, exposure, ratio, tfp, robotics, gain, raw_gain


def _terminal_metric(metric: str, scenario: Scenario, params: ModelParams,
                     state0: EconomyState,
                     sectors: Sequence[SectorProfile] | None = None) -> float:
    """One terminal metric of :func:`run_scenario`, computed alone.

    ``"output_gain"`` is the summary ``gdp_gain``, ``"displacement"`` the
    summary ``displacement_rate`` and ``"terminal_output"`` the last
    record's ``output``, each the same float as the full run gives, from the
    same operands; no record, headcount or sector rate is built. Where the
    full run raises, this raises the same error: every check is in
    :func:`_effective_params`, except the sector split. The split runs only
    where ``sectors._split_fits`` cannot rule out its
    :class:`UnattainableTargetError`.
    """
    _, thetas, _, _, ratio, tfp, robotics, gain, _ = _effective_params(scenario, params,
                                                                       state0)
    rate = 1.0 - ratio
    if sectors and not _split_fits(rate, sectors):
        disaggregate_displacement(rate, sectors)
    if metric == "displacement":
        return rate
    if metric == "output_gain":
        return gain
    alpha, theta = params.alpha, thetas[-1]
    return (tfp * state0.capital ** alpha * (state0.labor * ratio) ** (1.0 - alpha - theta)
            * robotics ** theta)


def run_scenario(scenario: Scenario, params: ModelParams, state0: EconomyState,
                 baseline: LaborBaseline,
                 sectors: Sequence[SectorProfile] | None = None) -> SimulationResult:
    """Walk the horizon year by year, compounding stocks and TFP.

    The robotics stock compounds by the per-year growth path, TFP compounds
    by the adoption spillover when enabled, the elasticity follows its
    schedule, and labor demand prices off the cumulative cost ratio. Yields
    one record per horizon year; a comparative-static scenario is the
    single-year case.

    After :func:`_effective_params`, the loop is the arithmetic of
    ``tfp_step``, ``labor_demand_ratio``, ``production_output``,
    ``job_creation`` and ``remittance_impact`` without their checks, operand
    for operand, so it gives their floats (``tests/test_engine.py`` pins it).
    """
    sigma, thetas, base_by_theta, exposure, _, _, _, gain, raw_gain = _effective_params(
        scenario, params, state0)

    start, end = scenario.horizon
    n_years = scenario.n_years
    alpha, boost = params.alpha, params.tfp_boost_per_adoption_pct
    model = scenario.job_creation_model
    job_ratios = ((model.ratio,) * n_years if isinstance(model, JobCreationRatio)
                  else [model.terminal_ratio * (index / (n_years - 1) if n_years > 1 else 1.0)
                        for index in range(n_years)])
    kalpha = state0.capital ** alpha
    remit_low, remit_high = (baseline.remittance_base * band
                             for band in baseline.remittance_decline_band)
    reference = baseline.remittance_reference_rate

    tfp = state0.tfp
    robotics = state0.robotics
    labor0 = state0.labor
    new_record = object.__new__
    records: list[YearRecord] = []
    for year, g_t, r_t, theta_t, job_ratio in zip(
            range(start, end + 1), scenario.growth_path(), scenario.cost_path(),
            thetas, job_ratios):
        robotics = robotics * (1.0 + g_t)
        if scenario.tfp_enabled:
            tfp = tfp * (1.0 + boost * (100.0 * g_t))
        ratio = 1.0 - exposure * (1.0 - r_t ** (-sigma))
        labor_t = labor0 * ratio
        displacement_rate = 1.0 - ratio
        displaced = labor0 - labor_t
        output_t = tfp * kalpha * labor_t ** (1.0 - alpha - theta_t) * robotics ** theta_t
        scale = displacement_rate / reference
        # the fields YearRecord's __init__ would set, in its order, stored
        # straight into the instance dict: the frozen __init__ pays one
        # object.__setattr__ per field, more than the year's arithmetic
        record = new_record(YearRecord)
        fields = record.__dict__
        fields["year"] = year
        fields["theta"] = theta_t
        fields["tfp"] = tfp
        fields["output"] = output_t
        fields["output_gain_vs_baseline"] = output_t / base_by_theta[theta_t] - 1.0
        fields["labor"] = labor_t
        fields["displacement_rate"] = displacement_rate
        fields["displaced_cumulative"] = displaced
        fields["jobs_created_cumulative"] = job_ratio * displaced
        fields["remittance_low"] = remit_low * scale
        fields["remittance_high"] = remit_high * scale
        records.append(record)

    terminal = records[-1]
    raw = scenario.raw_shocks
    # raw displacement at full exposure: the exposure share is itself a
    # calibrated quantity
    raw_disp = (None if raw is None or raw.cost_ratio is None
                else 1.0 - labor_demand_ratio(raw.cost_ratio, sigma, 1.0))
    summary = ResultSummary(
        gdp_gain=gain,
        realized_gain=terminal.output_gain_vs_baseline,
        displacement_rate=terminal.displacement_rate,
        displaced_total=terminal.displaced_cumulative,
        jobs_created=terminal.jobs_created_cumulative,
        key_driver=scenario.key_driver,
        raw_gdp_gain=raw_gain,
        raw_displacement_rate=raw_disp,
    )
    global _last_outcome
    rate = terminal.displacement_rate
    last_rate, last_sectors, last_baseline, sector_rates, headcounts = _last_outcome
    # 1.0 - ratio is never -0.0, so == is exact; a list may have changed. Each
    # result gets copies (HeadcountBreakdown copies by_sector)
    if not (rate == last_rate and sectors is last_sectors and baseline is last_baseline
            and (sectors is None or isinstance(sectors, tuple))):
        sector_rates = disaggregate_displacement(rate, sectors) if sectors else {}
        headcounts = displacement_headcounts(rate, baseline)
        _last_outcome = (rate, sectors, baseline, sector_rates, headcounts)
    targets = scenario.targets
    return SimulationResult(
        scenario=scenario.name,
        mode=scenario.mode,
        records=tuple(records),
        summary=summary,
        sector_rates=dict(sector_rates),
        headcounts=HeadcountBreakdown(headcounts.total, headcounts.expat,
                                      headcounts.by_sector),
        target_comparison=None if targets is None else _target_gaps(targets, summary),
    )


def _target_gaps(targets: TargetSet, summary: ResultSummary) -> tuple[TargetGap, ...]:
    """Gap of each summary metric against its target, raw metrics when stated."""
    gaps: list[TargetGap] = []
    for metric, computed, raw in (
            ("gdp_gain", summary.gdp_gain, summary.raw_gdp_gain),
            ("displacement", summary.displacement_rate, summary.raw_displacement_rate)):
        target = getattr(targets, metric)
        if target is not None:
            gaps.append(TargetGap(metric, target, computed, computed - target, raw,
                                  None if raw is None else raw - target))
    return tuple(gaps)
