"""Core production and labor-demand primitives.

The model is a capital-augmenting Cobb-Douglas economy where robotics capital
enters as a third factor:

    Y = A * K**alpha * L**(1 - alpha - theta) * R**theta

``A`` is total factor productivity, ``K`` physical capital, ``L`` labor and
``R`` the robotics capital stock. Exponents sum to one, so the function has
constant returns to scale in the three factors. Labor demand responds to the
cost of robots relative to wages through a constant substitution elasticity,
with an exposure share bounding how much of the workforce competes with
automation at all.

Everything in this module is scalar and pure. State is carried in frozen
dataclasses; the public classes and helpers validate eagerly, at construction
or call time, and raise :class:`~robolabor.errors.DomainError`.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Union

from . import _EXPORTS
from .errors import DomainError, _require

__all__ = _EXPORTS["core"]

YEAR_MIN = 2019
YEAR_MAX = 2100


def _as_integer(value) -> int | None:
    """``value`` as an ``int`` where it is an integral number, else None."""
    try:
        return int(value) if float(value).is_integer() else None
    except (TypeError, ValueError, OverflowError):
        return None


def _require_integer(value, name: str) -> int:
    integer = _as_integer(value)
    _require(integer is not None, "{} must be an integer, got {!r}", name, value)
    return integer


@dataclass(frozen=True)
class EconomyState:
    """Snapshot of the economy in one year.

    Factor quantities are in ratio space (baseline year = 1.0) except labor,
    which is carried in workers so displacement converts to headcounts
    directly.
    """

    year: int
    tfp: float
    capital: float
    labor: float
    robotics: float

    def __post_init__(self) -> None:
        year = _require_integer(self.year, "year")
        object.__setattr__(self, "year", year)
        _require(YEAR_MIN <= year <= YEAR_MAX,
                 "year must lie in [{}, {}], got {}", YEAR_MIN, YEAR_MAX, year)
        for name in ("tfp", "capital", "labor", "robotics"):
            value = getattr(self, name)
            _require(0 < value < math.inf,
                     "{} must be positive and finite, got {}", name, value)


@dataclass(frozen=True)
class StaticTheta:
    """Constant robotics output elasticity."""

    value: float

    def __post_init__(self) -> None:
        _require(0 < self.value <= 1,
                 "theta must lie in (0, 1], got {}", self.value)


@dataclass(frozen=True)
class ThetaRamp:
    """Robotics output elasticity ramping linearly over ``ramp_years`` years.

    The schedule evaluates to ``start`` at year index 0, interpolates
    linearly, and holds ``end`` from index ``ramp_years`` onward.
    """

    start: float
    end: float
    ramp_years: int

    def __post_init__(self) -> None:
        ramp_years = _require_integer(self.ramp_years, "ramp_years")
        object.__setattr__(self, "ramp_years", ramp_years)
        _require(ramp_years >= 1, "ramp_years must be >= 1, got {}", ramp_years)
        for name in ("start", "end"):
            value = getattr(self, name)
            _require(0 < value <= 1, "theta {} must lie in (0, 1], got {}", name, value)


ThetaMode = Union[StaticTheta, ThetaRamp]


def _theta_extremes(theta: ThetaMode) -> tuple[float, ...]:
    # linear schedule, so checking the endpoints covers every year
    if isinstance(theta, StaticTheta):
        return (theta.value,)
    return (theta.start, theta.end)


@dataclass(frozen=True)
class ModelParams:
    """Structural parameters of the model.

    Parameters
    ----------
    alpha : float
        Capital output elasticity, in (0, 1).
    theta : StaticTheta or ThetaRamp
        Robotics output elasticity schedule. Every value the schedule can
        take must keep the labor exponent ``1 - alpha - theta`` positive.
    sigma : float
        Elasticity of labor-robot substitution, >= 0.
    tfp_boost_per_adoption_pct : float
        Fractional TFP gain per percentage point of robotics stock growth.
    exposure_share : float
        Share of the workforce exposed to automation, in [0, 1].
    """

    alpha: float
    theta: ThetaMode
    sigma: float
    tfp_boost_per_adoption_pct: float = 0.002
    exposure_share: float = 1.0

    def __post_init__(self) -> None:
        for check, _ in self._CHECKS:
            check(self)

    def _check_theta(self) -> None:
        _require(0 < self.alpha < 1, "alpha must lie in (0, 1), got {}", self.alpha)
        if not isinstance(self.theta, (StaticTheta, ThetaRamp)):
            raise DomainError(
                f"theta must be StaticTheta or ThetaRamp, got {type(self.theta).__name__}")
        for value in _theta_extremes(self.theta):
            _require(self.alpha + value < 1,
                     "alpha + theta must stay below 1, got {} + {}", self.alpha, value)

    def _check_rates(self) -> None:
        _require(0 <= self.sigma < math.inf,
                 "sigma must be finite and >= 0, got {}", self.sigma)
        _require(0 <= self.tfp_boost_per_adoption_pct < math.inf,
                 "tfp_boost_per_adoption_pct must be finite and >= 0, got {}",
                 self.tfp_boost_per_adoption_pct)
        _require(0 <= self.exposure_share <= 1,
                 "exposure_share must lie in [0, 1], got {}", self.exposure_share)

    # each check with the fields it reads, in the order __post_init__ runs them
    _CHECKS = ((_check_theta, ("alpha", "theta")),
               (_check_rates, ("sigma", "tfp_boost_per_adoption_pct", "exposure_share")))


def _with_field(instance, name: str, value):
    """``dataclasses.replace(instance, **{name: value})``, checking less.

    ``instance`` is a frozen dataclass that passed its ``__post_init__``,
    whose ``_CHECKS`` lists its checks, each with the fields it reads.
    The copy takes its fields, sets ``name`` and runs only the checks that
    read ``name``, in ``__post_init__``'s order. The others read fields that
    passed already, so the copy, or the first error, is the one ``replace``
    gives. Fields are set one by one, as ``__init__`` sets them: copying
    ``__dict__`` would give these inputs, which the engine reads on its hot
    path, a second object layout. Output records are built by :func:`_filled`.
    """
    changed = object.__new__(type(instance))
    set_field = object.__setattr__
    for key in instance.__dataclass_fields__:
        set_field(changed, key, value if key == name else getattr(instance, key))
    for check, reads in instance._CHECKS:
        if name in reads:
            check(changed)
    return changed


def _filled(cls, values):
    """``cls(*values)`` for a frozen output dataclass, without ``__init__``: any
    ``__post_init__`` is skipped, so the values must be what it would leave."""
    names = cls.__dataclass_fields__
    if len(values) != len(names):  # zip(strict=True) costs a third of the fill
        raise ValueError(f"{cls.__name__} has {len(names)} fields, got {len(values)} values")
    instance = object.__new__(cls)
    instance.__dict__.update(zip(names, values))
    return instance


def production_output(state: EconomyState, alpha: float, theta: float) -> float:
    """Evaluate ``A * K**alpha * L**(1-alpha-theta) * R**theta``.

    Parameters
    ----------
    state : EconomyState
        Factor quantities and TFP level.
    alpha, theta : float
        Capital and robotics output elasticities. Must satisfy
        ``0 < alpha < 1``, ``0 < theta <= 1`` and ``alpha + theta < 1`` so
        the labor exponent stays positive.

    Returns
    -------
    float
        Output in the same units as ``state.tfp`` times factor powers.
    """
    _require(0 < alpha < 1, "alpha must lie in (0, 1), got {}", alpha)
    _require(0 < theta <= 1, "theta must lie in (0, 1], got {}", theta)
    return _cobb_douglas(state, alpha, theta)


def _cobb_douglas(state: EconomyState, alpha: float, theta: float) -> float:
    # production_output without its range checks on alpha and theta, for a
    # caller that proved them; the labor exponent is still checked
    labor_exponent = 1.0 - alpha - theta
    _require(labor_exponent > 0,
             "labor exponent 1 - alpha - theta must be positive, got {}", labor_exponent)
    return (state.tfp
            * state.capital ** alpha
            * state.labor ** labor_exponent
            * state.robotics ** theta)


def robotics_output_gain(robotics_growth: float, theta: float) -> float:
    """Fractional output gain from robotics stock growth, other factors fixed.

    Equals ``(1 + robotics_growth)**theta - 1``, the comparative-static
    response of a Cobb-Douglas output to scaling one factor.
    """
    _require(robotics_growth > -1,
             "robotics_growth must exceed -1, got {}", robotics_growth)
    _require(0 < theta <= 1, "theta must lie in (0, 1], got {}", theta)
    return (1.0 + robotics_growth) ** theta - 1.0


def labor_demand_ratio(cost_ratio_change: float, sigma: float,
                       exposure_share: float = 1.0) -> float:
    """Surviving share of baseline labor demand after a robot-cost shift.

    ``cost_ratio_change`` is the wage-to-robot-cost ratio relative to its
    baseline value, so 1.0 means no change and values above 1.0 mean robots
    got relatively cheaper. The exposed slice of the workforce shrinks by the
    substitution response ``1 - cost_ratio_change**(-sigma)``; the rest is
    untouched:

        ratio = 1 - exposure_share * (1 - cost_ratio_change**(-sigma))

    At ``cost_ratio_change == 1`` the ratio is exactly 1.0. ``sigma`` must be finite
    and >= 0; a power outside the float range raises :class:`DomainError`.
    """
    _require(cost_ratio_change > 0,
             "cost_ratio_change must be positive, got {}", cost_ratio_change)
    _require(0 <= sigma < math.inf, "sigma must be finite and >= 0, got {}", sigma)
    _require(0 <= exposure_share <= 1,
             "exposure_share must lie in [0, 1], got {}", exposure_share)
    try:
        return 1.0 - exposure_share * (1.0 - cost_ratio_change ** (-sigma))
    except OverflowError:
        raise DomainError(f"cost_ratio_change {cost_ratio_change} to the power -sigma "
                          f"{-sigma} is outside the float range") from None


def theta_at(year_index: float, theta: ThetaMode) -> float:
    """Robotics elasticity at an integer year index into the horizon.

    Static schedules return their value everywhere. Ramp schedules return
    the exact ``start`` at index 0 and the exact ``end`` literal from
    ``ramp_years`` onward; intermediate indices interpolate linearly.
    """
    index = _require_integer(year_index, "year_index")
    _require(index >= 0, "year_index must be >= 0, got {}", index)
    if not isinstance(theta, (StaticTheta, ThetaRamp)):
        raise DomainError(
            f"theta must be StaticTheta or ThetaRamp, got {type(theta).__name__}")
    return _theta_schedule(theta, index + 1, index)[0]


def _theta_schedule(theta: ThetaMode, stop: int, first: int = 0) -> Sequence[float]:
    """The elasticity at each year index from ``first`` up to ``stop``, for
    ``0 <= first < stop``: :func:`theta_at`'s rule, stated once, without its
    checks and with no call per year."""
    if isinstance(theta, StaticTheta):
        return (theta.value,) * (stop - first)
    start, end, ramp_years = theta.start, theta.end, theta.ramp_years
    step = end - start
    # index 0 gives start + (+-0.0), the exact start; clamp from ramp_years
    # on: start + full step in floats need not reproduce the end literal
    schedule = [start + step * (index / ramp_years)
                for index in range(first, min(stop, ramp_years))]
    schedule += [end] * (stop - max(first, ramp_years))
    return schedule


def tfp_step(tfp_prev: float, adoption_growth_pct: float,
             boost_per_pct: float = 0.002) -> float:
    """Advance TFP one year given robotics adoption growth in percent.

    Returns ``tfp_prev * (1 + boost_per_pct * adoption_growth_pct)``. With
    the default boost, one percentage point of adoption growth lifts TFP by
    0.2 percent. Growth of zero returns ``tfp_prev`` unchanged. ``boost_per_pct``
    must be finite and >= 0; a result that is not finite raises :class:`DomainError`.
    """
    _require(tfp_prev > 0, "tfp_prev must be positive, got {}", tfp_prev)
    _require(adoption_growth_pct >= 0,
             "adoption_growth_pct must be >= 0, got {}", adoption_growth_pct)
    _require(0 <= boost_per_pct < math.inf,
             "boost_per_pct must be finite and >= 0, got {}", boost_per_pct)
    tfp = tfp_prev * (1.0 + boost_per_pct * adoption_growth_pct)
    _require(tfp < math.inf, "tfp {} * (1 + {} * {}) is {}, not a finite number",
             tfp_prev, boost_per_pct, adoption_growth_pct, tfp)
    return tfp
