"""robolabor: deterministic scenario engine for robotics-driven labor substitution.

A small, pure-Python library built around a capital-augmenting Cobb-Douglas
production function with robotics capital as a third factor. It simulates
adoption scenarios for small open economies with large expatriate
workforces, disaggregates displacement by sector, quantifies remittance and
job-creation effects, calibrates unstated inputs from published outcomes,
and runs one-at-a-time sensitivity analyses. Ships with a Qatar-calibrated
default dataset.

Same inputs, same outputs, bit for bit: no randomness, and the only state
kept between calls is reuse that never changes a result: ``run_scenario``
copies the last run's sector outcome for a run with the same terminal rate,
sector tuple and baseline, and the sector split keeps its last few compiled
tables.
"""

from __future__ import annotations

from .calibrate import (
    SUPPORTED_PAIRS,
    CalibrationReport,
    SolverConfig,
    bisect,
    calibrate_scenario,
    implied_cost_ratio,
    implied_exposure,
    implied_robotics_growth,
    implied_sigma,
    implied_theta,
    solve_tfp_level,
)
from .config import (
    OutputOptions,
    RunConfig,
    default_config_path,
    load_config,
    loads_config,
)
from .core import (
    EconomyState,
    ModelParams,
    StaticTheta,
    ThetaMode,
    ThetaRamp,
    labor_demand_ratio,
    production_output,
    robotics_output_gain,
    tfp_step,
    theta_at,
)
from .engine import (
    RawShocks,
    ResultSummary,
    Scenario,
    SimulationMode,
    SimulationResult,
    TargetGap,
    TargetSet,
    YearRecord,
    run_scenario,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DomainError,
    MaxIterationsError,
    ModelError,
    NoSignChangeError,
    UnattainableTargetError,
    ValidationError,
)
from .report import (
    OutputBundle,
    build_output_bundle,
    summary_table,
    write_outputs,
    write_sensitivity_csv,
)
from .sectors import (
    HeadcountBreakdown,
    JobCreationRamp,
    JobCreationRatio,
    LaborBaseline,
    Readiness,
    SectorProfile,
    disaggregate_displacement,
    displacement_headcounts,
    job_creation,
    remittance_impact,
)
from .sensitivity import (
    PerturbationSpec,
    SensitivityRecord,
    default_specs,
    elasticity_fd,
    one_at_a_time,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "EconomyState", "ModelParams", "StaticTheta", "ThetaRamp", "ThetaMode",
    "production_output", "robotics_output_gain", "labor_demand_ratio",
    "theta_at", "tfp_step",
    # sectors
    "Readiness", "SectorProfile", "LaborBaseline", "HeadcountBreakdown",
    "JobCreationRatio", "JobCreationRamp", "disaggregate_displacement",
    "displacement_headcounts", "remittance_impact", "job_creation",
    # engine
    "SimulationMode", "TargetSet", "RawShocks", "Scenario", "YearRecord",
    "ResultSummary", "TargetGap", "SimulationResult", "run_scenario",
    # calibration
    "SolverConfig", "CalibrationReport", "SUPPORTED_PAIRS", "calibrate_scenario",
    "bisect", "solve_tfp_level",
    "implied_theta", "implied_sigma", "implied_exposure", "implied_cost_ratio",
    "implied_robotics_growth",
    # sensitivity
    "PerturbationSpec", "SensitivityRecord", "default_specs", "one_at_a_time",
    "elasticity_fd",
    # config and output
    "RunConfig", "OutputOptions", "load_config", "loads_config",
    "default_config_path", "OutputBundle", "build_output_bundle",
    "write_outputs", "write_sensitivity_csv", "summary_table",
    # errors
    "ModelError", "DomainError", "ValidationError", "ConfigError",
    "CalibrationError", "NoSignChangeError", "MaxIterationsError",
    "UnattainableTargetError",
]
