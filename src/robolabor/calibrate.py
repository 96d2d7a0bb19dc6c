"""Solvers that recover unstated inputs from published outcomes.

:func:`calibrate_scenario`, which the ``calibrate`` command calls, solves by
Brent's method (:func:`bisect`) over the engine's terminal metric, the float
:func:`~robolabor.engine.run_scenario` reports, so a solved value reproduces
its target in the model the engine runs and the residual is the engine's gap.
An output level is an identity in TFP at the initial state, solved by
:func:`solve_tfp_level`. The closed forms (``implied_*``) are library
helpers: each inverts one single-year channel under the assumptions its
docstring states, and agrees with the engine only where those hold. Channels
that compound, such as robotics growth with the TFP spillover on, are solved
by :func:`calibrate_scenario`.

All solves are in ratio space: targets are fractional changes against the
frozen baseline year.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

from .core import (EconomyState, ModelParams, StaticTheta, _with_field, production_output,
                   theta_at)
from .engine import Scenario, _leaves_labor, _resolved, _terminal_metric
from .errors import (CalibrationError, MaxIterationsError, NoSignChangeError,
                     UnattainableTargetError, _require)

__all__ = [
    "SolverConfig", "CalibrationReport", "SUPPORTED_PAIRS", "calibrate_scenario",
    "bisect", "solve_tfp_level", "implied_theta", "implied_sigma", "implied_exposure",
    "implied_cost_ratio", "implied_robotics_growth",
]

@dataclass(frozen=True)
class SolverConfig:
    """Bracket, residual tolerance and evaluation budget for :func:`bisect`.

    ``max_iterations`` counts evaluations after the two bracket ends.
    """

    lo: float
    hi: float
    relative_tolerance: float = 1e-10
    max_iterations: int = 200

    def __post_init__(self) -> None:
        _require(self.lo < self.hi,
                 "bracket must satisfy lo < hi, got [{}, {}]", self.lo, self.hi)
        _require(self.relative_tolerance > 0,
                 "relative_tolerance must be positive, got {}", self.relative_tolerance)
        _require(self.max_iterations >= 1,
                 "max_iterations must be >= 1, got {}", self.max_iterations)


@dataclass(frozen=True)
class CalibrationReport:
    """Record of one solve, serializable for the calibration output file."""

    target_name: str
    target_value: float
    parameter: str
    value: float
    residual: float
    iterations: int

    def to_dict(self) -> dict:
        return asdict(self)


def bisect(f: Callable[[float], float], target: float, config: SolverConfig) -> float:
    """Solve ``f(x) = target`` on the configured bracket by Brent's method.

    The name ``bisect`` is kept for its callers; the solver is Brent's
    (*Algorithms for Minimization without Derivatives*, 1973, ch. 4). It
    keeps a bracket on which ``f - target`` changes sign and steps by inverse
    quadratic interpolation through the bracket's ends and the point last
    dropped from it, or by the secant through the ends. It takes the
    bracket's midpoint instead when that step would leave the three quarters
    of the bracket nearest its better end, when the dropped point's value
    equals an end's (``f`` is flat there), and whenever the bracket has not
    halved over the last two steps, so it halves at least every third step.
    A smooth ``f`` typically meets the tolerance 3-7 evaluations after the
    two ends, where plain halving needs about 35. Every point evaluated lies
    in the bracket, the returned point is one ``f`` was evaluated at, and
    the iterate sequence is deterministic for a given ``f`` and bracket.

    Stops when ``|f(x) - target| <= relative_tolerance * max(1, |target|)``.

    Raises
    ------
    DomainError
        If ``target`` is not finite.
    NoSignChangeError
        If ``f - target`` has the same sign at both bracket ends.
    MaxIterationsError
        If the tolerance is not met within ``max_iterations`` evaluations
        after the two ends, or once the bracket's ends are adjacent floats;
        the error carries the best iterate seen and the evaluations made.
    """
    _require(math.isfinite(target), "target must be finite, got {}", target)
    tol = config.relative_tolerance * max(1.0, abs(target))
    lo, hi = config.lo, config.hi
    flo = f(lo) - target
    fhi = f(hi) - target
    if abs(flo) <= tol:
        return lo
    if abs(fhi) <= tol:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoSignChangeError(
            f"f - target has the same sign at both ends of [{lo}, {hi}]: "
            f"{flo:.6g} and {fhi:.6g}")
    best_x, best_res = lo, abs(flo)
    if abs(fhi) < best_res:
        best_x, best_res = hi, abs(fhi)
    # b is the bracket end with the smaller residual, a the other end, and c
    # the point last dropped from the bracket (at first, a itself); the
    # bracket's width two steps back sets whether this step may interpolate
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    older = old = math.inf
    iterations = 0  # stops once a and b are adjacent floats: no untried point is left
    while iterations < config.max_iterations and math.nextafter(a, b) != b:
        iterations += 1
        if abs(fa) < abs(fb):
            a, fa, b, fb = b, fb, a, fa
        width = abs(b - a)
        x = 0.5 * (a + b)
        if width <= 0.5 * older and (c in (a, b) or fc not in (fa, fb)):
            # the secant through a and b, plus the quadratic term of inverse
            # interpolation through a, b and c in Newton's divided-difference
            # form
            dx_df = (b - a) / (fb - fa)
            step = b - fb * dx_df
            if c not in (a, b):
                step += fa * fb * ((c - b) / (fc - fb) - dx_df) / (fc - fa)
            edge = 0.25 * (3.0 * a + b)
            if min(b, edge) < step < max(b, edge):
                x = step
        older, old = old, width
        fx = f(x) - target
        if abs(fx) < best_res:
            best_x, best_res = x, abs(fx)
        if abs(fx) <= tol:
            return x
        if (fx > 0) == (fb > 0):
            c, fc, b, fb = b, fb, x, fx
        else:
            c, fc, a, fa = a, fa, x, fx
    closed = (f": the bracket closed on the adjacent floats {min(a, b)!r} and {max(a, b)!r}"
              if iterations < config.max_iterations else "")
    raise MaxIterationsError(
        f"no convergence in {iterations} iterations{closed}; "
        f"best iterate {best_x:.12g} with residual {best_res:.6g}",
        best_x=best_x, best_residual=best_res, iterations=iterations)


def solve_tfp_level(observed_output: float, capital: float, labor: float,
                    robotics: float, alpha: float, theta: float) -> float:
    """TFP level consistent with an observed output and factor quantities.

    Inverts the production function directly:
    ``A = Y / (K**alpha * L**(1-alpha-theta) * R**theta)``.
    """
    _require(observed_output > 0,
             "observed_output must be positive, got {}", observed_output)
    for name, value in (("capital", capital), ("labor", labor), ("robotics", robotics)):
        _require(value > 0, "{} must be positive, got {}", name, value)
    _require(0 < alpha < 1, "alpha must lie in (0, 1), got {}", alpha)
    _require(0 < theta <= 1, "theta must lie in (0, 1], got {}", theta)
    labor_exponent = 1.0 - alpha - theta
    _require(labor_exponent > 0,
             "labor exponent 1 - alpha - theta must be positive, got {}", labor_exponent)
    return observed_output / (
        capital ** alpha * labor ** labor_exponent * robotics ** theta)


def implied_theta(output_gain: float, robotics_growth: float) -> float:
    """Robotics elasticity that maps a stock growth rate into an output gain.

    Inverts ``(1+g)**theta - 1 = gain``:
    ``theta = ln(1 + gain) / ln(1 + g)``. A zero gain returns exactly 0.0.
    """
    _require(output_gain > -1, "output_gain must exceed -1, got {}", output_gain)
    _require(robotics_growth > -1,
             "robotics_growth must exceed -1, got {}", robotics_growth)
    _require(robotics_growth != 0, "robotics_growth must be nonzero")
    if output_gain == 0:
        return 0.0
    return math.log1p(output_gain) / math.log1p(robotics_growth)


def implied_sigma(displacement: float, cost_ratio_change: float) -> float:
    """Substitution elasticity that yields a displacement rate at full exposure.

    Inverts ``1 - r**(-sigma) = d``: ``sigma = -ln(1 - d) / ln(r)``.
    """
    _require(0 <= displacement < 1,
             "displacement must lie in [0, 1), got {}", displacement)
    _require(cost_ratio_change > 0,
             "cost_ratio_change must be positive, got {}", cost_ratio_change)
    _require(cost_ratio_change != 1, "cost_ratio_change must differ from 1")
    return -math.log1p(-displacement) / math.log(cost_ratio_change)


def implied_exposure(displacement_target: float, cost_ratio_change: float,
                     sigma: float) -> float:
    """Exposure share that scales the substitution response to a target rate.

    Solves ``exposure * (1 - r**(-sigma)) = target``. Raises
    :class:`UnattainableTargetError` when even full exposure falls short.
    """
    _require(0 <= displacement_target < 1,
             "displacement_target must lie in [0, 1), got {}", displacement_target)
    _require(cost_ratio_change > 1,
             "cost_ratio_change must exceed 1, got {}", cost_ratio_change)
    _require(sigma > 0, "sigma must be positive, got {}", sigma)
    if displacement_target == 0:
        return 0.0
    response = 1.0 - cost_ratio_change ** (-sigma)
    exposure = displacement_target / response
    if exposure > 1.0:
        raise UnattainableTargetError(
            f"displacement target {displacement_target} needs exposure "
            f"{exposure:.6g} > 1 at cost ratio {cost_ratio_change}, sigma {sigma}")
    return exposure


def implied_cost_ratio(displacement_target: float, sigma: float,
                       exposure_share: float = 1.0) -> float:
    """Cost-ratio change that produces a displacement target.

    Solves ``exposure * (1 - r**(-sigma)) = target`` for ``r``:
    ``r = (1 - target/exposure)**(-1/sigma)``.
    """
    _require(0 <= displacement_target < 1,
             "displacement_target must lie in [0, 1), got {}", displacement_target)
    _require(sigma > 0, "sigma must be positive, got {}", sigma)
    _require(0 < exposure_share <= 1,
             "exposure_share must lie in (0, 1], got {}", exposure_share)
    if displacement_target == 0:
        return 1.0
    if displacement_target >= exposure_share:
        raise UnattainableTargetError(
            f"displacement target {displacement_target} is out of reach for "
            f"exposure share {exposure_share}")
    return (1.0 - displacement_target / exposure_share) ** (-1.0 / sigma)


def implied_robotics_growth(gain_target: float, theta: float) -> float:
    """Adoption growth rate that reproduces an output-gain target.

    Inverts the power law ``(1+g)**theta - 1 = gain`` with the TFP spillover
    off: ``g = (1 + gain)**(1/theta) - 1``. With the spillover on, solve
    through the engine with :func:`calibrate_scenario`.
    """
    _require(gain_target > -1, "gain_target must exceed -1, got {}", gain_target)
    _require(0 < theta <= 1, "theta must lie in (0, 1], got {}", theta)
    return (1.0 + gain_target) ** (1.0 / theta) - 1.0


# (target, parameter) -> the Scenario field the solved value replaces, how the
# value is wrapped, and the bracket searched; theta's upper end is further
# capped below 1 - alpha, and an end that displaces the whole workforce is
# lowered (_labor_end). A scalar replaces a whole path.
_ENGINE_SOLVES = {
    ("gain", "theta"): ("theta_override", StaticTheta, 1e-9, 1.0),
    ("displacement", "sigma"): ("sigma_override", float, 0.0, 20.0),
    ("displacement", "exposure"): ("exposure_override", float, 0.0, 1.0),
    ("displacement", "cost_ratio"): ("cost_ratio_path", float, 1.0, 10.0),
    ("gain", "robotics_growth"): ("robotics_growth", float, 0.0, 1.0),
}
_METRICS = {"gain": "output_gain", "displacement": "displacement"}

SUPPORTED_PAIRS = (*_ENGINE_SOLVES, ("output", "tfp"))


def _labor_end(scenario: Scenario, params: ModelParams, state0: EconomyState,
               parameter: str, lo: float, hi: float) -> float:
    """``hi``, or the largest float below it that leaves the engine some labor.

    The engine rejects a scenario whose terminal cost ratio displaces the
    whole workforce. Displacement rises with sigma, the exposure share and
    the cost ratio, so when ``hi`` fails that check and ``lo`` passes, the
    values that pass form an interval from ``lo``; halving finds its last
    float. Other parameters, and an ``lo`` that fails too, keep ``hi``.
    """
    sigma, _, exposure = _resolved(scenario, params)
    terminal = scenario.cost_path()[-1]
    checks = {"sigma": lambda x: _leaves_labor(state0, terminal, x, exposure),
              "exposure": lambda x: _leaves_labor(state0, terminal, sigma, x),
              "cost_ratio": lambda x: _leaves_labor(state0, x, sigma, exposure)}
    leaves_labor = checks.get(parameter)
    if leaves_labor is None or leaves_labor(hi) or not leaves_labor(lo):
        return hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if leaves_labor(mid):
            lo = mid
        else:
            hi = mid
    return lo


def calibrate_scenario(scenario: Scenario, params: ModelParams, state0: EconomyState,
                       target_name: str, target_value: float,
                       parameter: str) -> CalibrationReport:
    """Solve one scenario input so the engine reproduces a target outcome.

    ``gain`` is the summary ``gdp_gain`` and ``displacement`` the terminal
    ``displacement_rate`` of a run without a sector table, with the solved
    value in place of the scenario's field or whole path. ``iterations``
    counts evaluations of the metric, each the checks that read the solved
    field, then the engine's checks and terminal-year arithmetic without the
    year records; ``residual`` is the engine's gap at the solved value.
    ``output`` solves TFP at the initial state and runs no engine. Raises
    :class:`DomainError` for a target that is not finite or an ``output``
    target that is not positive, and :class:`UnattainableTargetError` when
    the target lies outside what the engine reaches over the parameter's
    bracket.
    """
    _require(math.isfinite(target_value),
             "{} target must be finite, got {}", target_name, target_value)
    _require(target_name != "output" or target_value > 0,
             "output target must be positive, got {:g}", target_value)
    if (target_name, parameter) == ("output", "tfp"):
        theta0 = theta_at(0, _resolved(scenario, params)[1])
        value = solve_tfp_level(target_value, state0.capital, state0.labor,
                                state0.robotics, params.alpha, theta0)
        output = production_output(replace(state0, tfp=value), params.alpha, theta0)
        return CalibrationReport(target_name, target_value, parameter, value,
                                 output - target_value, 0)
    if (target_name, parameter) not in _ENGINE_SOLVES:
        raise CalibrationError(f"cannot solve {parameter!r} from target {target_name!r}")
    field, wrap, lo, hi = _ENGINE_SOLVES[target_name, parameter]
    if parameter == "theta":
        hi = min(hi, (1.0 - params.alpha) * (1.0 - 1e-9))
    hi = _labor_end(scenario, params, state0, parameter, lo, hi)
    metric = _METRICS[target_name]
    runs: list[tuple[float, float]] = []

    def engine_metric(x: float) -> float:
        trial = _with_field(scenario, field, wrap(x))
        runs.append((x, _terminal_metric(metric, trial, params, state0)))
        return runs[-1][1]

    try:
        value = bisect(engine_metric, target_value,
                       SolverConfig(lo=lo, hi=hi, relative_tolerance=1e-12))
    except NoSignChangeError:
        reached = dict(runs)
        low, high = sorted((reached[lo], reached[hi]))
        raise UnattainableTargetError(
            f"{target_name}={target_value:g} is out of reach by solving {parameter}: "
            f"over {parameter} in [{lo:.6g}, {hi:.6g}] scenario {scenario.name} "
            f"gives {target_name} from {low:.6g} to {high:.6g}") from None
    return CalibrationReport(target_name, target_value, parameter, value,
                             dict(runs)[value] - target_value, len(runs))
