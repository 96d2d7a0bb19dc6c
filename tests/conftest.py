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
