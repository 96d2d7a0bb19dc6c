#!/usr/bin/env python3
"""Backing model parameters out of published outcomes, step by step.

Every solve here is in ratio space: a target is a fractional change
against the frozen baseline year. Closed forms cover the single-channel
inversions; the spillover case, where two channels compound, is solved
through the engine by ``calibrate_scenario``.
"""

from dataclasses import replace

from robolabor import (
    calibrate_scenario,
    implied_cost_ratio,
    implied_exposure,
    implied_robotics_growth,
    implied_sigma,
    implied_theta,
    labor_demand_ratio,
    load_config,
    robotics_output_gain,
    run_scenario,
)


def show(label, value, check):
    print(f"  {label:<34} {value:.12g}   (check: {check:.12g})")


def main():
    print("1. Which elasticity turns 5% stock growth into a 1.5% gain?")
    theta = implied_theta(0.015, 0.05)
    show("implied theta", theta, robotics_output_gain(0.05, theta))
    print()

    print("2. Which substitution elasticity yields 3.2% displacement at r=1.05?")
    sigma = implied_sigma(0.032, 1.05)
    show("implied sigma (full exposure)", sigma,
         1 - labor_demand_ratio(1.05, sigma))
    print()

    print("3. Holding sigma=0.8 instead, which exposure share fits?")
    exposure = implied_exposure(0.032, 1.05, 0.8)
    show("implied exposure share", exposure,
         1 - labor_demand_ratio(1.05, 0.8, exposure))
    print()

    print("4. Which cost shift gives 1.9% displacement at sigma=0.5?")
    ratio = implied_cost_ratio(0.019, 0.5)
    show("implied cost ratio", ratio, 1 - labor_demand_ratio(ratio, 0.5))
    print()

    print("5. Which adoption rate hits a 2.1% gain with the TFP spillover on?")
    # the power law and the TFP spillover compound here and no closed form
    # inverts them, so the engine solves the bundled productivity_spillover
    # scenario (theta 0.5, boost 0.002) by Brent's method on growth 0-1
    cfg = load_config("default")
    scenario = cfg.scenario("productivity_spillover")
    report = calibrate_scenario(scenario, cfg.params, cfg.initial_state,
                                "gain", 0.021, "robotics_growth")
    solved = replace(scenario, robotics_growth=report.value)
    gain = run_scenario(solved, cfg.params, cfg.initial_state,
                        cfg.baseline).summary.gdp_gain
    show("solved robotics growth", report.value, gain)
    # with the spillover off, the power law alone inverts in closed form and
    # needs more adoption for the same gain
    growth = implied_robotics_growth(0.021, 0.5)
    show("closed form, spillover off", growth, robotics_output_gain(growth, 0.5))
    print()
    print("Each check column reproduces its target, so the inversions are")
    print("consistent with the forward model.")


if __name__ == "__main__":
    main()
