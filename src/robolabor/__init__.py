"""robolabor: deterministic scenario engine for robotics-driven labor substitution.

A small, pure-Python library built around a capital-augmenting Cobb-Douglas
production function with robotics capital as a third factor. It simulates
adoption scenarios for small open economies with large expatriate
workforces, disaggregates displacement by sector, quantifies remittance and
job-creation effects, calibrates unstated inputs from published outcomes,
and runs one-at-a-time sensitivity analyses. Ships with a Qatar-calibrated
default dataset.

Same inputs, same outputs, bit for bit: no randomness and no process-global
state. The one reuse, which never changes a result, is a one-slot memo on a
config's compiled sector table: ``run_scenario`` copies the table's last
sector outcome for a run with the same terminal rate and baseline.

``import robolabor`` imports none of its modules. The package's
``__getattr__`` (PEP 562) imports a module when one of its public names, or
the module itself, is first looked up on the package (``robolabor.run_scenario``,
``from robolabor import *``), and binds that name on the package, so every
later lookup is a plain attribute read. A command-line run therefore loads
only the modules its command uses; ``robolabor.cli`` resolves the names its
commands call, and those a tracer wraps on it, the same lazy way. Which
modules are loaded, and when, changes no result.

``_EXPORTS`` is the one list of public names: the loader must know which
module holds a name without importing it, and each module's ``__all__`` is
its entry there.
"""

import sys

__version__ = "0.1.0"

# each module's public names: the one list, which each module takes as its __all__
_EXPORTS = {
    "core": ("EconomyState", "StaticTheta", "ThetaRamp", "ThetaMode", "ModelParams",
             "production_output", "robotics_output_gain", "labor_demand_ratio", "theta_at",
             "tfp_step"),
    "sectors": ("Readiness", "SectorProfile", "LaborBaseline", "HeadcountBreakdown",
                "JobCreationRatio", "JobCreationRamp", "JobCreationModel",
                "disaggregate_displacement", "displacement_headcounts", "remittance_impact",
                "job_creation"),
    "engine": ("SimulationMode", "TargetSet", "RawShocks", "Scenario", "YearRecord",
               "ResultSummary", "TargetGap", "SimulationResult", "run_scenario"),
    "calibrate": ("SolverConfig", "CalibrationReport", "SUPPORTED_PAIRS", "calibrate_scenario",
                  "bisect", "solve_tfp_level", "implied_theta", "implied_sigma",
                  "implied_exposure", "implied_cost_ratio", "implied_robotics_growth"),
    "sensitivity": ("PARAMETERS", "METRICS", "PerturbationSpec", "SensitivityRecord",
                    "default_specs", "one_at_a_time", "elasticity_fd"),
    "config": ("OutputOptions", "RunConfig", "load_config", "loads_config",
               "default_config_path"),
    "report": ("OutputBundle", "build_output_bundle", "write_outputs", "write_sensitivity_csv",
               "summary_table", "format_number"),
    "errors": ("ModelError", "DomainError", "ValidationError", "ConfigError",
               "CalibrationError", "NoSignChangeError", "MaxIterationsError",
               "UnattainableTargetError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def _module(name):
    # an import statement's path, unlike importlib.import_module's, is one
    # that ``python -X importtime`` reports
    path = f"{__name__}.{name}"
    __import__(path)
    return sys.modules[path]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(_module(_MODULE_OF[name]), name)
    elif name in _EXPORTS:
        value = _module(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
