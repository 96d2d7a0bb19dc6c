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
before the first year, from the terminal stocks alone: it compounds the
robotics stock and TFP to the horizon's end without a check, and where no
growth entry is negative, neither stock falls, so bounds that hold at the
terminal year hold in every year. Only where that proof fails, or a growth
entry is negative, does ``_locate_failure`` walk the horizon, computing
each year's values exactly, to raise the first failing year's error.
Given a sector table, the pass last checks that the table splits the
terminal national rate: its record proves that ``run_scenario`` does not
raise. The year loop is then unchecked arithmetic, and it must give the same
floats as the public helpers of ``core`` and ``sectors``.

The engine keeps no process-global state. The one reuse is a one-slot memo
on a config's compiled sector table: a run on that table with the same
terminal displacement rate and baseline as the table's last run copies that
run's sector rates and headcounts instead of computing them again. A run
with no table, or with a plain sequence, computes them.

Given a base's record and the one field a tornado side or a calibrate
step changes, ``_effective_params`` re-runs only the stage that
``_STAGE_OF`` names for that field: the terminal labour check, the theta
stage or the compounding of the stocks; a solve's base is its first step.
A theta or stock stage is followed by the terminal proof, and a labour
stage by the split check, since only it moves the national rate; the
other stages' values are the base's.

A caller that reads only terminal metrics reads them off that record with
``_terminal_metric``.
``Scenario._CHECKS`` lists each check with the fields it reads: all run in
``__post_init__``, and those that read one field in ``core._with_field``.

Output records (``YearRecord``, ``ResultSummary``, ``TargetGap``,
``SimulationResult``, ``HeadcountBreakdown``) check nothing, so each is built by
filling its instance dict: a frozen ``__init__`` pays a setattr call per field.
"""

import enum
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from . import _EXPORTS
from .core import (
    EconomyState,
    ModelParams,
    StaticTheta,
    ThetaMode,
    ThetaRamp,
    YEAR_MAX,
    YEAR_MIN,
    _as_integer,
    _cobb_douglas,
    _filled,
    _theta_extremes,
    _theta_schedule,
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
    _compiled,
    _split_fits,
    _Table,
    disaggregate_displacement,
    displacement_headcounts,
)

__all__ = _EXPORTS["engine"]

_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")


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
        values = tuple(map(float, path))
        _require(len(values) == n_years,
                 "{} needs {} entries, got {}", name, n_years, len(values))
        object.__setattr__(scenario, name, values)
    else:
        values = (float(path),)
    bad = next(itertools.filterfalse(math.isfinite, values), None)
    _require(bad is None, "{} entries must be finite, got {}", name, bad)
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

    def _check_horizon(self) -> None:
        try:
            mode = SimulationMode(self.mode)
        except ValueError:
            raise DomainError(f"mode must be one of {[m.value for m in SimulationMode]}, "
                              f"got {self.mode!r}") from None
        object.__setattr__(self, "mode", mode)
        try:
            horizon = tuple(self.horizon)
        except TypeError:  # not iterable, such as a bare year or None
            horizon = ()
        _require(len(horizon) == 2, "horizon must be a (start, end) pair")
        start, end = map(_as_integer, horizon)
        _require(start is not None and end is not None,
                 "horizon years must be integers, got {}", horizon)
        _require(YEAR_MIN <= start <= end <= YEAR_MAX,
                 "horizon must satisfy {} <= start <= end <= {}, "
                 "got {}", YEAR_MIN, YEAR_MAX, horizon)
        object.__setattr__(self, "horizon", (start, end))
        if mode is SimulationMode.COMPARATIVE_STATIC:
            _require(start == end,
                     "comparative_static scenarios take a single-year horizon")

    def _check_growth(self) -> None:
        values = _path_values(self, "robotics_growth", self.n_years)
        # the first entry to fail: the entries are finite, so under
        # tfp_enabled the first below 0, otherwise the first at or below -1
        fails = (map(operator.lt, values, itertools.repeat(0.0)) if self.tfp_enabled
                 else map(operator.le, values, itertools.repeat(-1.0)))
        bad = next(itertools.compress(values, fails), None)
        if bad is not None:
            raise DomainError(f"robotics_growth must exceed -1, got {bad}" if bad <= -1 else
                              f"robotics_growth must be >= 0 when tfp_enabled, got {bad}")
        raw = self.raw_shocks
        if self.tfp_enabled and raw is not None and raw.robotics_growth is not None:
            _require(raw.robotics_growth >= 0, "raw robotics_growth must be >= 0 "
                     "when tfp_enabled, got {}", raw.robotics_growth)

    def _check_cost_path(self) -> None:
        ratios = _path_values(self, "cost_ratio_path", self.n_years)
        _require(ratios[0] >= 1, "cost_ratio_path entries must be >= 1, got {}", ratios[0])
        # the index of the first entry that the next one falls below
        fall = next(itertools.compress(itertools.count(),
                                       map(operator.gt, ratios, ratios[1:])), None)
        if fall is not None:
            raise DomainError(f"cost_ratio_path must not fall over the horizon, "
                              f"got {ratios[fall]} then {ratios[fall + 1]}")

    def _check_overrides(self) -> None:
        if self.sigma_override is not None:
            _require(0 <= self.sigma_override < math.inf,
                     "sigma_override must be finite and >= 0, got {}", self.sigma_override)
        if self.theta_override is not None:
            _require(isinstance(self.theta_override, (StaticTheta, ThetaRamp)),
                     "theta_override must be StaticTheta or ThetaRamp")
        if self.exposure_override is not None:
            _require(0 <= self.exposure_override <= 1,
                     "exposure_override must lie in [0, 1], got {}", self.exposure_override)
        _require(isinstance(self.job_creation_model, (JobCreationRatio, JobCreationRamp)),
                 "job_creation_model must be JobCreationRatio or JobCreationRamp")

    # each check with the fields it reads, in the order __post_init__ runs them
    _CHECKS = ((_check_name, ("name",)),
               (_check_horizon, ("mode", "horizon")),
               (_check_growth, ("robotics_growth", "horizon", "tfp_enabled", "raw_shocks")),
               (_check_cost_path, ("cost_ratio_path", "horizon")),
               (_check_overrides, ("sigma_override", "theta_override", "exposure_override",
                                   "job_creation_model")))

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


# built without __init__ (module docstring): the year loop fills this one inline,
# cheaper than core._filled, so a field added here is added there (tests pin them)
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
                  exposure: float) -> float:
    """The labor demand ratio at ``cost_ratio`` where some of ``state0``'s
    labor survives it, else 0.0: the rule the terminal ratio is held to,
    as a float that is true exactly where the rule holds."""
    ratio = labor_demand_ratio(cost_ratio, sigma, exposure)
    return ratio if state0.labor * ratio > 0 else 0.0


# each Scenario and ModelParams field a tornado side changes, with the one
# stage of _effective_params that reads it: the labour stage is
# _terminal_labor, the theta stage the alpha + theta checks, the schedule and
# state0's output at each theta, and the stock stage the compounding loop
_LABOR, _THETA, _STOCKS = "labour", "theta", "stocks"
_STAGE_OF = {
    "sigma": _LABOR, "sigma_override": _LABOR, "exposure_share": _LABOR,
    "exposure_override": _LABOR, "cost_ratio_path": _LABOR,
    "alpha": _THETA, "theta": _THETA, "theta_override": _THETA,
    "robotics_growth": _STOCKS, "tfp_boost_per_adoption_pct": _STOCKS,
}


class _Checked(NamedTuple):
    """What :func:`_effective_params` resolves and proves for a run, each
    the float ``run_scenario`` reports or compounds, from the same operands."""

    sigma: float
    thetas: Sequence[float]            # theta per year
    base_by_theta: dict[float, float]  # state0's output at each theta
    exposure: float                    # the exposure share
    ratio: float                       # the terminal labor demand ratio
    tfp: float                         # terminal TFP
    robotics: float                    # the terminal robotics stock
    gain: float                        # gdp_gain
    raw_gain: float | None             # raw_gdp_gain, None without a raw growth


def _resolved(scenario: Scenario, params: ModelParams) -> tuple[float, ThetaMode, float]:
    """The sigma, theta schedule and exposure share a run reads: each
    scenario override where set, otherwise the model parameter."""
    return (params.sigma if scenario.sigma_override is None else scenario.sigma_override,
            params.theta if scenario.theta_override is None else scenario.theta_override,
            (params.exposure_share if scenario.exposure_override is None
             else scenario.exposure_override))


def _terminal_labor(scenario: Scenario, state0: EconomyState, sigma: float,
                    exposure: float) -> float:
    """The terminal labor demand ratio, checked: it must leave some labor,
    and the jobs created from the workers it displaces must stay finite."""
    # labor is lowest at the terminal ratio
    terminal = scenario.cost_path()[-1]
    ratio = _leaves_labor(state0, terminal, sigma, exposure)
    _require(ratio > 0, "cost_ratio_path reaches {}, which displaces the whole workforce at "
             "sigma {} and exposure_share {}", terminal, sigma, exposure)
    # and jobs created are highest there, at the largest creation ratio
    model = scenario.job_creation_model
    job_ratio = model.ratio if isinstance(model, JobCreationRatio) else model.terminal_ratio
    displaced = state0.labor - state0.labor * ratio
    _require(job_ratio * displaced < math.inf, "job_creation ratio {} times the {} workers "
             "displaced by the terminal year is inf, outside the float range",
             job_ratio, displaced)
    return ratio


def _effective_params(scenario: Scenario, params: ModelParams, state0: EconomyState,
                      base: _Checked | None = None, field: str | None = None,
                      sectors: Sequence[SectorProfile] | None = None) -> _Checked:
    """Resolve the scenario overrides; prove every simulated year in-domain,
    and, given ``sectors``, that they split the terminal national rate.

    Every value of the theta schedule must keep ``alpha + theta < 1``, and
    ``state0``'s output at each must be positive and finite, since each
    year's gain divides by it; the terminal cost ratio, the path's largest,
    must leave some labor, and the jobs created from the workers it
    displaces must stay finite; the robotics stock and TFP, compounded from
    ``state0`` by the growth path, must stay positive and finite, and so
    must TFP times the stock to the power theta, the output at ``state0``'s
    labor, and the gains over ``state0``, which divide by its stocks and
    output, so a tiny initial stock can overflow them while every stock
    stays finite. The raw gain must be finite too; with the raw shocks' own
    rules it exceeds -1, and the raw displacement lies in [0, 1]. With the
    inputs' own rules, every precondition of the public helpers then holds
    every year. Last, the split of the terminal rate ``1 - ratio`` over a
    nonempty ``sectors`` must not raise: the record then proves that
    ``run_scenario`` does not raise, and an error is the one it raises first.

    The stocks are compounded to the terminal year unchecked, and the
    horizon is proven from the terminal stocks alone: where no growth entry
    is negative, neither stock falls, and rounding is monotone, so every
    year's stocks, and every bound below built from them by multiplying and
    dividing by positive operands, are at most the terminal year's. Where
    that proof fails, or a growth entry is negative, :func:`_locate_failure`
    walks the horizon year by year to raise the first failure's error.

    ``base``, where given, is this function's record for inputs that differ
    from these in ``field`` alone, as a tornado side's do, on the same
    ``sectors``. Then only the stage that :data:`_STAGE_OF` names for
    ``field`` runs, and the others' values are ``base``'s: they read nothing
    that differs, and ``base`` passed their checks. A theta or stock stage
    is followed by the proof from the terminal stocks and the raw gain,
    which read both; a labour stage by the split check, the one check that
    reads the labour ratio.
    """
    stage = None if base is None else _STAGE_OF[field]
    sigma, theta_mode, exposure = _resolved(scenario, params)
    alpha = params.alpha
    if stage is None or stage is _THETA:
        for value in _theta_extremes(theta_mode):
            _require(alpha + value < 1,
                     "alpha + theta must stay below 1, got {} + {}", alpha, value)
        thetas = _theta_schedule(theta_mode, scenario.n_years)
        # the first theta through the checked helper, which also checks alpha;
        # the others through its product alone: ThetaRamp checked their range
        first, *others = dict.fromkeys(thetas)
        base_by_theta = {first: production_output(state0, alpha, first)}
        for theta in others:
            base_by_theta[theta] = _cobb_douglas(state0, alpha, theta)
        # positive, finite factors give no NaN, so the extremes decide
        base_low = min(base_by_theta.values())
        if not (0 < base_low and max(base_by_theta.values()) < math.inf):
            for theta, output in base_by_theta.items():
                _require(0 < output < math.inf, "initial_state gives output {} at theta {}, "
                         "which must be positive and finite", output, theta)
    else:
        thetas, base_by_theta = base.thetas, base.base_by_theta
        base_low = min(base_by_theta.values())
    if stage is None or stage is _LABOR:
        ratio = _terminal_labor(scenario, state0, sigma, exposure)
        if stage is _LABOR:
            if sectors:
                _check_split(1.0 - ratio, sectors)
            return _Checked(sigma, thetas, base_by_theta, exposure, ratio, base.tfp,
                            base.robotics, base.gain, base.raw_gain)
    else:
        ratio = base.ratio
    growth, boost = scenario.growth_path(), params.tfp_boost_per_adoption_pct
    if stage is None or stage is _STOCKS:
        # compound exactly as run_scenario does, so the terminal stocks are its own
        robotics, tfp = state0.robotics, state0.tfp
        if scenario.tfp_enabled:
            for g_t in growth:
                robotics = robotics * (1.0 + g_t)
                tfp = tfp * (1.0 + boost * (100.0 * g_t))
        else:
            for g_t in growth:
                robotics = robotics * (1.0 + g_t)
    else:
        robotics, tfp = base.robotics, base.tfp
    # gdp_gain, the terminal year's channel gain: robotics stock and TFP
    # moved, labor held at baseline
    gain = (tfp / state0.tfp) * (robotics / state0.robotics) ** thetas[-1] - 1.0
    # the terminal year's stock, TFP times the stock (finite only where TFP
    # is), a bound on the year's gain (its output at state0's labor, each power
    # at most max(base, 1), over the lowest baseline output) and the gain, each
    # compared so that a NaN fails; where no entry is negative, every year's
    # are at most these. Under tfp_enabled none is, and one year is its own terminal year
    if not (0 < robotics < math.inf and tfp * robotics < math.inf and gain < math.inf
            and (tfp * state0.capital ** alpha * max(state0.labor, 1.0)
                 * (robotics if robotics > 1.0 else 1.0) / base_low < math.inf)
            and (scenario.tfp_enabled or len(growth) == 1 or min(growth) >= 0)):
        _locate_failure(scenario, params, state0, thetas, base_by_theta, gain)
    raw, raw_gain = scenario.raw_shocks, None
    if raw is not None and raw.robotics_growth is not None:
        # the stated growth as one year at the first theta
        g_raw = raw.robotics_growth
        factor = 1.0 + boost * 100.0 * g_raw if scenario.tfp_enabled else 1.0
        raw_gain = factor * (1.0 + g_raw) ** thetas[0] - 1.0
        _require(raw_gain < math.inf, "raw robotics_growth {} gives a raw gdp_gain of inf "
                 "through tfp_enabled, outside the float range", g_raw)
    if sectors and stage is None:
        _check_split(1.0 - ratio, sectors)
    return _Checked(sigma, thetas, base_by_theta, exposure, ratio, tfp, robotics, gain,
                    raw_gain)


def _locate_failure(scenario: Scenario, params: ModelParams, state0: EconomyState,
                    thetas: Sequence[float], base_by_theta: dict[float, float],
                    gain: float) -> None:
    """Check the compounded stocks year by year, for a horizon that
    :func:`_effective_params` could not prove from its terminal stocks;
    raise the error of the first year that fails, else return.

    Each year's TFP times the stock to the power theta, output at
    ``state0``'s labor and gain over ``state0`` are computed exactly.
    ``gain`` is the terminal ``gdp_gain``; a stock that leaves the range
    anywhere is reported before any other overflow.
    """
    alpha, boost = params.alpha, params.tfp_boost_per_adoption_pct
    robotics, tfp = state0.robotics, state0.tfp
    kalpha = state0.capital ** alpha
    overflow = output_overflow = gain_overflow = None
    for year, g_t, theta_t in zip(itertools.count(scenario.horizon[0]),
                                  scenario.growth_path(), thetas):
        robotics = robotics * (1.0 + g_t)
        if scenario.tfp_enabled:
            tfp = tfp * (1.0 + boost * (100.0 * g_t))
        if not 0 < robotics < math.inf:
            raise DomainError(f"robotics_growth compounds the robotics stock to "
                              f"{robotics} by {year}, outside the float range")
        if not tfp < math.inf:  # also a NaN, from a boost of 0 times an inf
            raise DomainError(f"robotics_growth compounds TFP to {tfp} by {year} "
                              f"through tfp_enabled, outside the float range")
        power = robotics ** theta_t
        if overflow is None and tfp * power == math.inf:
            overflow = f"the power {theta_t} to inf by {year}"
        output = tfp * kalpha * state0.labor ** (1.0 - alpha - theta_t) * power
        if output_overflow is None and output == math.inf:
            output_overflow = year
        if gain_overflow is None and output / base_by_theta[theta_t] == math.inf:
            gain_overflow = year
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


def _terminal_metric(metric: str, scenario: Scenario, params: ModelParams,
                     state0: EconomyState, checked: _Checked) -> float:
    """One terminal metric of :func:`run_scenario`, computed alone.

    ``"output_gain"`` is the summary ``gdp_gain``, ``"displacement"`` the
    summary ``displacement_rate`` and ``"terminal_output"`` the last
    record's ``output``, each the same float as the full run gives, from the
    same operands; no record, headcount or sector rate is built. Every
    check is in :func:`_effective_params`, so this only reads its record.

    ``checked`` is what ``_effective_params`` gives for exactly these
    inputs (given its base's record, a tornado side's or a calibrate step's;
    given a sector table, one whose split it checked); none of its checks
    runs again.
    """
    if metric == "displacement":
        return 1.0 - checked.ratio
    if metric == "output_gain":
        return checked.gain
    alpha, theta, ratio = params.alpha, checked.thetas[-1], checked.ratio
    return (checked.tfp * state0.capital ** alpha
            * (state0.labor * ratio) ** (1.0 - alpha - theta) * checked.robotics ** theta)


def _check_split(rate: float, sectors: Sequence[SectorProfile]) -> None:
    """Raise what :func:`run_scenario`'s split of ``rate`` over ``sectors``
    raises, else return: the split runs only where ``_split_fits`` cannot
    rule out its :class:`UnattainableTargetError`."""
    table = _compiled(sectors)
    if not _split_fits(rate, table):
        disaggregate_displacement(rate, table)


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
    checked = _effective_params(scenario, params, state0)
    sigma, exposure, base_by_theta = checked.sigma, checked.exposure, checked.base_by_theta

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

    tfp, robotics, labor0 = state0.tfp, state0.robotics, state0.labor
    new_record = object.__new__
    records: list[YearRecord] = []
    for year, g_t, r_t, theta_t, job_ratio in zip(
            range(start, end + 1), scenario.growth_path(), scenario.cost_path(),
            checked.thetas, job_ratios):
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
    # raw displacement at full exposure: the exposure share is itself calibrated
    raw_disp = (None if raw is None or raw.cost_ratio is None
                else 1.0 - labor_demand_ratio(raw.cost_ratio, sigma, 1.0))
    summary = _filled(ResultSummary, (
        checked.gain, terminal.output_gain_vs_baseline, terminal.displacement_rate,
        terminal.displaced_cumulative, terminal.jobs_created_cumulative,
        scenario.key_driver, checked.raw_gain, raw_disp))
    rate = terminal.displacement_rate
    # the compiled table's memo, read once; 1.0 - ratio is never -0.0, so == is exact
    memo = isinstance(sectors, _Table)
    kept = sectors.outcome if memo else None
    if kept is not None and kept[0] == rate and kept[1] is baseline:
        sector_rates, headcounts = kept[2], kept[3]
    else:
        sector_rates = disaggregate_displacement(rate, sectors) if sectors else {}
        headcounts = displacement_headcounts(rate, baseline)
        if memo:
            sectors.outcome = (rate, baseline, sector_rates, headcounts)
    targets = scenario.targets
    return _filled(SimulationResult, (
        scenario.name, scenario.mode, tuple(records), summary, dict(sector_rates),
        _filled(HeadcountBreakdown, (headcounts.total, headcounts.expat,
                                     dict(headcounts.by_sector))),
        None if targets is None else _target_gaps(targets, summary)))


def _target_gaps(targets: TargetSet, summary: ResultSummary) -> tuple[TargetGap, ...]:
    """Gap of each summary metric against its target, raw metrics when stated."""
    return tuple(_filled(TargetGap, (metric, target, computed, computed - target, raw,
                                     None if raw is None else raw - target))
                 for metric, target, computed, raw in (
                     ("gdp_gain", targets.gdp_gain, summary.gdp_gain, summary.raw_gdp_gain),
                     ("displacement", targets.displacement, summary.displacement_rate,
                      summary.raw_displacement_rate))
                 if target is not None)
