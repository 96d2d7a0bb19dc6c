"""Sector disaggregation, headcount accounting and downstream impacts.

A national displacement rate is split across sectors by relative risk
multipliers, headcounts follow the workforce composition, and two downstream
channels are quantified: foregone remittance outflows and offsetting job
creation in robot maintenance, programming and supervision roles.

The module keeps no process-global state. A loaded config's sector table
is compiled once (``_Table``), and the one reuse is a one-slot memo on it
that ``run_scenario`` keeps; no function here reads or writes it.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter, mul
from typing import Iterable, Mapping, Sequence, Union

from .core import _filled
from .errors import DomainError, UnattainableTargetError, _require

__all__ = [
    "Readiness",
    "SectorProfile",
    "LaborBaseline",
    "HeadcountBreakdown",
    "JobCreationRatio",
    "JobCreationRamp",
    "JobCreationModel",
    "disaggregate_displacement",
    "displacement_headcounts",
    "remittance_impact",
    "job_creation",
]

# employment-weighted sector rates must recover the national rate this closely
MEAN_TOLERANCE = 1e-9


class Readiness(str, enum.Enum):
    """Qualitative automation readiness of a sector."""

    LOW = "low"
    MODERATE = "moderate"
    HIGH = "high"


@dataclass(frozen=True)
class SectorProfile:
    """Automation characteristics of one sector.

    Parameters
    ----------
    name : str
        Sector identifier, unique within a dataset.
    employment_share : float
        Share of total employment, in [0, 1].
    risk_multiplier : float or None
        Ratio of the sector displacement rate to the national rate. ``None``
        is required for (and only for) the residual sector, whose rate is
        computed to absorb slack.
    automation_potential : float
        Cap on the sector displacement rate, in [0, 1].
    readiness : Readiness
        Qualitative readiness class.
    readiness_score : float or None
        Optional 0-10 numeric readiness score.
    residual : bool
        Marks the catch-all bucket for sectors not modeled explicitly.
    notes : str
        Key determinants, free text.
    """

    name: str
    employment_share: float
    risk_multiplier: float | None
    automation_potential: float
    readiness: Readiness
    readiness_score: float | None = None
    residual: bool = False
    notes: str = ""

    def __post_init__(self) -> None:
        _require(bool(self.name), "sector name must be nonempty")
        _require(0 <= self.employment_share <= 1,
                 "{}: employment_share must lie in [0, 1], "
                 "got {}", self.name, self.employment_share)
        if self.residual:
            _require(self.risk_multiplier is None,
                     "{}: residual sector must not carry a risk_multiplier", self.name)
            _require(self.employment_share > 0,
                     "{}: residual sector needs a positive employment_share", self.name)
        else:
            _require(self.risk_multiplier is not None,
                     "{}: risk_multiplier is required for non-residual sectors", self.name)
            _require(0 <= self.risk_multiplier < math.inf,
                     "{}: risk_multiplier must be finite and >= 0, "
                     "got {}", self.name, self.risk_multiplier)
        _require(0 <= self.automation_potential <= 1,
                 "{}: automation_potential must lie in [0, 1], "
                 "got {}", self.name, self.automation_potential)
        if not isinstance(self.readiness, Readiness):
            raise DomainError(f"{self.name}: readiness must be a Readiness value")
        if self.readiness_score is not None:
            _require(0 <= self.readiness_score <= 10,
                     "{}: readiness_score must lie in [0, 10], "
                     "got {}", self.name, self.readiness_score)


@dataclass(frozen=True)
class LaborBaseline:
    """Workforce composition and remittance facts for the baseline year."""

    total_labor_force: float
    expat_share: float
    sector_shares: Mapping[str, float]
    min_wage: float
    low_wage_headcount: float
    remittance_base: float
    remittance_decline_band: tuple[float, float] = (0.12, 0.18)
    remittance_reference_rate: float = 0.032

    def __post_init__(self) -> None:
        _require(0 < self.total_labor_force < math.inf,
                 "total_labor_force must be positive and finite, got {}", self.total_labor_force)
        _require(0 <= self.expat_share <= 1,
                 "expat_share must lie in [0, 1], got {}", self.expat_share)
        shares = dict(self.sector_shares)
        object.__setattr__(self, "sector_shares", shares)
        total = 0.0
        for name, share in shares.items():
            _require(0 <= share <= 1,
                     "sector_shares[{}] must lie in [0, 1], got {}", name, share)
            total += share
        _require(total <= 1 + 1e-9,
                 "sector_shares must sum to at most 1, got {}", total)
        # what displacement_headcounts reads: the shares as checked here, out
        # of reach of a later change to the public dict
        object.__setattr__(self, "_shares", tuple(shares.items()))
        _require(0 < self.min_wage < math.inf,
                 "min_wage must be positive and finite, got {}", self.min_wage)
        _require(self.low_wage_headcount >= 0,
                 "low_wage_headcount must be >= 0, got {}", self.low_wage_headcount)
        _require(self.low_wage_headcount <= self.total_labor_force,
                 "low_wage_headcount cannot exceed total_labor_force")
        _require(0 < self.remittance_base < math.inf,
                 "remittance_base must be positive and finite, got {}", self.remittance_base)
        band = tuple(self.remittance_decline_band)
        object.__setattr__(self, "remittance_decline_band", band)
        _require(len(band) == 2, "remittance_decline_band needs exactly two entries")
        _require(0 <= band[0] <= band[1] <= 1,
                 "remittance_decline_band must be ordered within [0, 1], got {}", band)
        _require(0 < self.remittance_reference_rate < math.inf,
                 "remittance_reference_rate must be positive and finite, "
                 "got {}", self.remittance_reference_rate)
        # the band's high end at displacement rate 1, the largest a run reports,
        # in the order remittance_impact multiplies
        high = self.remittance_base * band[1] * (1.0 / self.remittance_reference_rate)
        _require(math.isfinite(high),
                 "remittance_reference_rate {} scales the remittance band to {} at "
                 "displacement rate 1, which must be finite",
                 self.remittance_reference_rate, high)


@dataclass(frozen=True)
class HeadcountBreakdown:
    """Displacement expressed in workers."""

    total: float
    expat: float
    by_sector: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "by_sector", dict(self.by_sector))


class _Table(tuple):
    """A checked sector table: its ``SectorProfile``s as a tuple, which it
    equals, hashes and prints as, and the columns the split reads, computed
    once, when it is built.

    Building one checks the rules a table obeys as a whole: names are
    unique, at most one sector is the residual, and the employment shares
    of a nonempty table sum to more than 0 and at most 1 (a tolerance of
    1e-9 absorbs rounding); ``total`` is that sum. An empty table builds,
    and no split takes it.

    ``names``, ``weights`` and ``caps`` run over every sector in dataset
    order, ``multipliers`` and ``named_*`` over the named ones, and
    ``residual`` is the residual's index or ``None``. The named sectors that
    can take more (a positive cap, and a share times multiplier that does
    not round to 0) are sorted by ``cap / multiplier``: the ``t`` at which
    ``min(t * multiplier, cap)`` binds, whatever the national rate. With
    the first ``k`` of them capped and the rest at ``t * multiplier``, their
    employment-weighted sum is ``capped_before[k] + t * free_after[k]``;
    ``reach[k]`` is that sum at the ``t`` where the ``k``-th one caps.

    ``outcome`` is the one memo the package keeps: ``run_scenario``'s last
    terminal rate and baseline on this table with the sector rates and
    headcounts they gave, or ``None``. It is replaced whole, so a run in
    another thread sees a whole entry or none.
    """

    def __new__(cls, sectors: Iterable[SectorProfile] = ()) -> "_Table":
        self = super().__new__(cls, sectors)
        self.names = [s.name for s in self]
        _require(len(set(self.names)) == len(self.names), "sector names must be unique")
        _require(sum(s.residual for s in self) <= 1, "at most one residual sector is allowed")
        self.weights = [s.employment_share for s in self]
        self.total = total = sum(self.weights)
        _require(total <= 1 + 1e-9,
                 "sector employment shares sum to {:.6g}, must be <= 1", total)
        _require(total > 0 or not self, "sector dataset has zero total employment share")
        self.caps = [s.automation_potential for s in self]
        named = [s for s in self if not s.residual]
        self.multipliers = [s.risk_multiplier for s in named]
        self.named_weights = [s.employment_share for s in named]
        self.named_caps = [s.automation_potential for s in named]
        self.residual = next((i for i, s in enumerate(self) if s.residual), None)
        # (t at which the cap binds, weighted cap, weighted multiplier)
        movable = sorted([(cap / m, w * cap, w * m) for m, w, cap
                          in zip(self.multipliers, self.named_weights, self.named_caps)
                          if w * m > 0 and cap > 0], key=itemgetter(0))
        binds, capped, free = zip(*movable) if movable else ((), (), ())
        self.capped_before = [0.0, *accumulate(capped)]
        self.free_after = [0.0, *accumulate(reversed(free))][::-1]
        self.reach = [before + t * after
                      for t, before, after in zip(binds, self.capped_before, self.free_after)]
        self.outcome = None
        return self


def _compiled(sectors: Sequence[SectorProfile]) -> _Table:
    """``sectors`` as a nonempty compiled table: itself when it is one,
    otherwise checked and compiled afresh, since a list may have changed."""
    table = sectors if isinstance(sectors, _Table) else _Table(sectors)
    _require(len(table) > 0, "sector dataset must be nonempty")
    return table


def _split_fits(national_rate: float, sectors: Sequence[SectorProfile]) -> bool:
    """Whether :func:`disaggregate_displacement` surely splits a rate in [0, 1].

    True when a named sector can take more and the rate's weighted sum is
    within ``reach[-1]``, the sum with all of them capped: what the split's
    named sectors must cover is at most that sum, so it cannot raise.
    False proves nothing. A compiled table's columns are read as they are;
    any other sequence is checked and compiled as the split does it, so a
    bad table raises the split's error here.
    """
    table = _compiled(sectors)
    return bool(table.reach) and national_rate * table.total <= table.reach[-1]


def disaggregate_displacement(national_rate: float,
                              sectors: Sequence[SectorProfile]) -> dict[str, float]:
    """Split a national displacement rate into per-sector rates.

    Named sectors get ``national_rate * risk_multiplier``, capped at their
    automation potential. The residual sector, when present, absorbs the
    slack so the employment-weighted mean of sector rates equals the
    national rate within ``MEAN_TOLERANCE``. When the rates overshoot it
    (the residual clamps at 0, or there is none), every positive rate is
    scaled down by one factor. When they fall short (the residual clamps at
    its cap, or there is none), the named sectors take ``min(t * risk_multiplier, automation_potential)``
    for the one ``t`` at which the mean meets the national rate: an exact
    capped proportional allocation, found by one search over the sectors
    presorted by the ``t`` at which their caps bind. When every sector is
    pinned at its cap and the national rate still cannot be reached, the
    target is unattainable and an error is raised.

    A compiled table, such as a loaded config's, is read as it is; any
    other sequence is checked and compiled on each call.

    Returns a new dict of rates keyed by sector name, in dataset order.
    """
    _require(0 <= national_rate <= 1,
             "national_rate must lie in [0, 1], got {}", national_rate)
    table = _compiled(sectors)
    weights, caps, residual = table.weights, table.caps, table.residual
    target_sum = national_rate * table.total
    # on the weighted sum; the mean is the sum over the share total
    tolerance = MEAN_TOLERANCE * table.total
    # min(national_rate * m, cap), spelled out: the call costs more than the work
    rates = [cap if cap < (value := national_rate * m) else value
             for m, cap in zip(table.multipliers, table.named_caps)]
    if residual is not None:
        named_sum = sum(map(mul, table.named_weights, rates))
        raw = (target_sum - named_sum) / weights[residual]
        rates.insert(residual, min(max(raw, 0.0), caps[residual]))
    deficit = target_sum - sum(map(mul, weights, rates))
    if deficit < -tolerance:
        # scaling down leaves every cap slack
        free = [i for i, rate in enumerate(rates) if rate > 0]
        free_sum = sum(weights[i] * rates[i] for i in free)
        scale = (free_sum + deficit) / free_sum
        for i in free:
            rates[i] = min(max(rates[i] * scale, 0.0), caps[i])
    elif deficit > tolerance:
        # what the named sectors must cover, the residual pinned at its cap
        need = target_sum - (weights[residual] * rates[residual]
                             if residual is not None else 0.0)
        reach = table.reach
        # past the last entry every sector that can move is capped; the scale
        # that would close the gap then only sets the zero-share sectors
        k = min(bisect_left(reach, need), len(reach) - 1)
        if k >= 0:
            t = (need - table.capped_before[k]) / table.free_after[k]
            named = [cap if cap < (value := t * m) else value
                     for m, cap in zip(table.multipliers, table.named_caps)]
            if residual is not None:
                named.insert(residual, rates[residual])
            rates = named
        if k < 0 or (need > reach[-1]
                     and target_sum - sum(map(mul, weights, rates)) > tolerance):
            raise UnattainableTargetError(
                f"national rate {national_rate} is unattainable: every sector "
                f"is pinned at its automation_potential cap")
    return dict(zip(table.names, rates))


def displacement_headcounts(national_rate: float,
                            baseline: LaborBaseline) -> HeadcountBreakdown:
    """Convert a displacement rate into worker headcounts.

    Total displaced workers, the expatriate slice, and per-sector counts of
    displaced expatriates following the baseline sector shares, as they
    were when the baseline was built. Values are exact products.
    """
    _require(0 <= national_rate <= 1,
             "national_rate must lie in [0, 1], got {}", national_rate)
    total = national_rate * baseline.total_labor_force
    expat = total * baseline.expat_share
    return _filled(HeadcountBreakdown, (total, expat, {
        name: expat * share for name, share in baseline._shares}))


def remittance_impact(displacement_rate: float, baseline: LaborBaseline) -> tuple[float, float]:
    """Annual remittance outflow reduction band for a displacement rate.

    The baseline's decline band applies at its reference displacement rate
    and scales linearly with the actual rate:

        impact = remittance_base * band * (rate / reference_rate)

    Returns the (low, high) bounds in the remittance base currency. At the
    reference rate the band applies exactly. ``dataclasses.replace`` on the
    baseline gives another band or reference rate.
    """
    _require(0 <= displacement_rate <= 1,
             "displacement_rate must lie in [0, 1], got {}", displacement_rate)
    band = baseline.remittance_decline_band
    scale = displacement_rate / baseline.remittance_reference_rate
    return (baseline.remittance_base * band[0] * scale,
            baseline.remittance_base * band[1] * scale)


@dataclass(frozen=True)
class JobCreationRatio:
    """Jobs created as a fixed ratio of cumulative displacement."""

    ratio: float = 0.23

    def __post_init__(self) -> None:
        _require(0 <= self.ratio < math.inf,
                 "ratio must be finite and >= 0, got {}", self.ratio)


@dataclass(frozen=True)
class JobCreationRamp:
    """Creation ratio ramping linearly from 0 to ``terminal_ratio``.

    The ramp position is the fraction of the horizon elapsed; a degenerate
    single-year horizon uses the terminal ratio.
    """

    terminal_ratio: float = 0.64

    def __post_init__(self) -> None:
        _require(0 <= self.terminal_ratio < math.inf,
                 "terminal_ratio must be finite and >= 0, got {}", self.terminal_ratio)


JobCreationModel = Union[JobCreationRatio, JobCreationRamp]


def job_creation(displaced_cumulative: float, model: JobCreationModel,
                 progress: float = 1.0) -> float:
    """Cumulative jobs created in automation-adjacent roles.

    ``progress`` is the elapsed fraction of the horizon in [0, 1]; ratio
    models ignore it, ramp models scale their terminal ratio by it.
    """
    _require(displaced_cumulative >= 0,
             "displaced_cumulative must be >= 0, got {}", displaced_cumulative)
    _require(0 <= progress <= 1, "progress must lie in [0, 1], got {}", progress)
    if isinstance(model, JobCreationRatio):
        return model.ratio * displaced_cumulative
    if isinstance(model, JobCreationRamp):
        return model.terminal_ratio * progress * displaced_cumulative
    raise DomainError(
        f"model must be JobCreationRatio or JobCreationRamp, got {type(model).__name__}")
