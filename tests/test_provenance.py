"""Every calibrated literal in the bundled dataset re-derives from its target.

The derivations live in ``demos/recalibrate_defaults.py`` so the demo and
this test cannot drift apart; a shipped literal edited by hand, or a
target changed without re-solving, fails here.
"""

import importlib.util
from pathlib import Path

import pytest

from robolabor import default_config_path, loads_config

DEMO = Path(__file__).resolve().parents[1] / "demos" / "recalibrate_defaults.py"


@pytest.fixture(scope="module")
def demo():
    spec = importlib.util.spec_from_file_location("recalibrate_defaults", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mismatches(demo, cfg):
    return [label for _, label, value, shipped in demo.derivations(cfg)
            if not demo.matches(value, shipped)]


def test_shipped_literals_match_their_derivations(demo, cfg):
    rows = list(demo.derivations(cfg))
    assert len(rows) == 14
    assert mismatches(demo, cfg) == []


@pytest.mark.parametrize("literal, drifted, label", [
    ("exposure_share: 0.835941455612", "exposure_share: 0.8359415", "exposure_share"),
    ("robotics_growth: 0.0300307881761", "robotics_growth: 0.03003079",
     "robotics_growth"),
    ("1.02468859540", "1.02468860", "cost_ratio_path[2] (2027)"),
    ("displacement: 0.0234741784038}", "displacement: 0.0234742}",
     "displacement target"),
])
def test_drifted_literal_fails(demo, literal, drifted, label):
    text = default_config_path().read_text(encoding="utf-8")
    assert text.count(literal) == 1
    cfg = loads_config(text.replace(literal, drifted))
    assert mismatches(demo, cfg) == [label]
