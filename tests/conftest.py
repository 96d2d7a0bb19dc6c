import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import robolabor
from robolabor import load_config

# property tests must be reproducible run to run
settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def cfg():
    return load_config("default")


@pytest.fixture(scope="session")
def params(cfg):
    return cfg.params


@pytest.fixture(scope="session")
def state0(cfg):
    return cfg.initial_state


@pytest.fixture(scope="session")
def baseline(cfg):
    return cfg.baseline


@pytest.fixture(scope="session")
def sectors(cfg):
    return cfg.sectors


@pytest.fixture(scope="session")
def full_metric():
    """A tornado metric as a full run reports it: the float
    ``engine._terminal_metric`` gives alone, which the tests hold it to."""

    def read(metric, result):
        if metric == "output_gain":
            return result.summary.gdp_gain
        if metric == "displacement":
            return result.summary.displacement_rate
        return result.records[-1].output

    return read


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def load_perfbench():
    """Load ``perfbench/<name>.py`` by path as a new module on each call:
    the benchmark's directory is not a package."""

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture(scope="session")
def fresh_python():
    """Run ``python ARGS...`` in a new interpreter on this robolabor source,
    with ``PYTHONDONTWRITEBYTECODE=1`` set, as the benchmark runs a command."""
    src = str(Path(robolabor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args, cwd=None):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, cwd=cwd, timeout=120)

    return run


# CI's capped.yaml with a cost ratio of 1.5: two sectors, each capped at 0.1,
# so no split reaches a national rate above 0.1, and the base rate is about 0.185
CAPPED_YAML = """\
params: {alpha: 0.35, theta: {mode: static, value: 0.5}, sigma: 0.65}
baseline: {total_labor_force: 1000, expat_share: 0.9, sector_shares: {a: 0.5, rest: 0.5},
           min_wage: 1000, low_wage_headcount: 100, remittance_base: 1.0e+9}
sectors:
  - {name: a, employment_share: 0.5, risk_multiplier: 1.0, automation_potential: 0.1,
     readiness: moderate}
  - {name: rest, employment_share: 0.5, risk_multiplier: null,
     automation_potential: 0.1, readiness: low, residual: true}
scenarios:
  - {name: capped, mode: comparative_static, horizon: [2030, 2030],
     robotics_growth: 0.05, cost_ratio_path: 1.5, exposure_share: 0.8}
"""


@pytest.fixture(scope="session")
def capped_yaml():
    """A config whose one scenario's national rate exceeds what its sector
    table's caps reach."""
    return CAPPED_YAML
