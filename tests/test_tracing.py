"""The benchmark's span tracer wraps names that the live modules still define.

``perfbench/spans.py`` replaces functions at the names their callers
imported them under. A refactor that drops or renames one of them would
otherwise surface only in a traced benchmark run.
"""

import pytest

import robolabor
import robolabor.cli
import robolabor.engine
import robolabor.sensitivity


@pytest.fixture(scope="module")
def spans(load_perfbench):
    return load_perfbench("spans")


def namespace(*modules):
    return [dict(vars(module)) for module in modules]


@pytest.mark.parametrize("entry,target", [("instrument", robolabor),
                                          ("instrument_cli", robolabor.cli)])
def test_instrument_and_restore(spans, entry, target, cfg):
    modules = (target, robolabor.engine, robolabor.sensitivity)
    before = namespace(*modules)
    tracer = spans.Tracer()
    getattr(spans, entry)(tracer, target)
    try:
        assert tracer._patched
        for module, attr, original in tracer._patched:
            assert getattr(module, attr) is not original
        # a traced run records the engine's spans through the wrapped names;
        # a plain list carries no memo, so the run splits and the split is
        # recorded too
        robolabor.sensitivity.run_scenario(cfg.scenario("baseline"), cfg.params,
                                           cfg.initial_state, cfg.baseline, list(cfg.sectors))
        names = {span[spans.NAME] for span in tracer.spans}
        assert {"engine.run_scenario", "sectors.disaggregate"} <= names
    finally:
        tracer.restore()
    assert namespace(*modules) == before
