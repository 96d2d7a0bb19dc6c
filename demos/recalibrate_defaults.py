#!/usr/bin/env python3
"""Regenerate every calibrated number in the bundled dataset.

The shipped config marks several shock values as "calibrated": they are
not free inputs but solutions that make each scenario reproduce its
published targets. This script re-derives all of them from the targets
and verifies the shipped literals match to 1e-9, so the dataset's
provenance is checkable by running one file. The test suite runs the
same derivations through :func:`derivations`.
"""

from robolabor import (
    calibrate_scenario,
    implied_cost_ratio,
    implied_exposure,
    load_config,
)

# staged rollout: cumulative share of the terminal displacement reached
# at the end of each year, 2025 through 2030
STAGED_SHARES = (0.42, 0.58, 0.67, 0.78, 0.89, 1.0)
TERMINAL_DISPLACED = 50_000


def derivations(cfg):
    """Yield ``(heading, label, re-derived value, shipped value)`` per literal."""
    labor = cfg.baseline.total_labor_force

    heading = "baseline: exposure share from 3.2% displacement at r=1.05, sigma=0.8"
    scenario = cfg.scenario("baseline")
    yield (heading, "exposure_share", implied_exposure(0.032, 1.05, 0.8),
           scenario.exposure_override)

    heading = ("high_adoption: growth from the 2.5% gain, exposure from 4.1% "
               "displacement")
    scenario = cfg.scenario("high_adoption")
    yield heading, "robotics_growth", 1.025 ** 2 - 1, scenario.robotics_growth
    yield (heading, "exposure_share", implied_exposure(0.041, 1.25, 0.65),
           scenario.exposure_override)

    heading = ("low_adoption: growth from the 1.2% gain, cost ratio from 1.9% "
               "displacement at sigma=0.5")
    scenario = cfg.scenario("low_adoption")
    yield heading, "robotics_growth", 1.012 ** 2 - 1, scenario.robotics_growth
    yield (heading, "cost_ratio_path", implied_cost_ratio(0.019, 0.5),
           scenario.cost_ratio_path)

    heading = ("productivity_spillover: growth from the 2.1% gain with the TFP "
               "channel on, cost ratio from 3.0% displacement")
    scenario = cfg.scenario("productivity_spillover")
    # the spillover compounds with the power law, so the engine solves it
    growth = calibrate_scenario(scenario, cfg.params, cfg.initial_state, "gain",
                                0.021, "robotics_growth").value
    yield heading, "robotics_growth", growth, scenario.robotics_growth
    yield (heading, "cost_ratio_path", implied_cost_ratio(0.030, 0.65),
           scenario.cost_ratio_path)

    heading = "staged_adoption: cost path tracking the staged displacement shares"
    scenario = cfg.scenario("staged_adoption")
    sigma = cfg.params.sigma
    for index, share in enumerate(STAGED_SHARES):
        rate = share * TERMINAL_DISPLACED / labor
        yield (heading, f"cost_ratio_path[{index}] ({2025 + index})",
               implied_cost_ratio(rate, sigma), scenario.cost_ratio_path[index])
    yield (heading, "displacement target", TERMINAL_DISPLACED / labor,
           scenario.targets.displacement)


def matches(value, shipped):
    return abs(value - shipped) <= 1e-9 * max(1.0, abs(shipped))


def main():
    checks = []
    current = None
    for heading, label, value, shipped in derivations(load_config("default")):
        if heading != current:
            if current is not None:
                print()
            print(heading)
            current = heading
        ok = matches(value, shipped)
        print(f"  {label:<42} {value:.12g}  [{'ok' if ok else 'MISMATCH'}]")
        checks.append(ok)
    print()

    if all(checks):
        print("All shipped literals match their re-derived values to 1e-9.")
    else:
        raise SystemExit("shipped dataset out of sync with its targets")


if __name__ == "__main__":
    main()
