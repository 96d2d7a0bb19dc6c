#!/usr/bin/env python3
"""Backing model parameters out of published outcomes, step by step.

Every solve here is in ratio space: a target is a fractional change
against the frozen baseline year. Closed forms cover the single-channel
inversions; the composite spillover case is solved numerically, by
Brent's method.
"""

from robolabor import (
    SolverConfig,
    implied_cost_ratio,
    implied_exposure,
    implied_robotics_growth,
    implied_sigma,
    implied_theta,
    labor_demand_ratio,
    robotics_output_gain,
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
    # two channels interact here, so this one is solved numerically, by
    # Brent's method on the growth bracket 0-1
    growth = implied_robotics_growth(
        0.021, 0.5, tfp_boost_per_pct=0.002,
        solver=SolverConfig(0.0, 1.0, relative_tolerance=1e-13))
    gain = (1 + 0.002 * 100 * growth) * (1 + growth) ** 0.5 - 1
    show("implied robotics growth", growth, gain)
    print()
    print("Each check column reproduces its target, so the inversions are")
    print("consistent with the forward model.")


if __name__ == "__main__":
    main()
