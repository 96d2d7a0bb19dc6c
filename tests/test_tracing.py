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
    # every run replaces the engine's kept sector outcome
    return [{name: value for name, value in vars(module).items() if name != "_last_outcome"}
            for module in modules]


@pytest.mark.parametrize("entry,target", [("instrument", robolabor),
                                          ("instrument_cli", robolabor.cli)])
def test_instrument_and_restore(spans, entry, target, cfg, monkeypatch):
    modules = (target, robolabor.engine, robolabor.sensitivity)
    before = namespace(*modules)
    tracer = spans.Tracer()
    getattr(spans, entry)(tracer, target)
    try:
        assert tracer._patched
        for module, attr, original in tracer._patched:
            assert getattr(module, attr) is not original
        # a traced run records the engine's spans through the wrapped names;
        # with no kept outcome the run splits, so the split is recorded too
        monkeypatch.setattr(robolabor.engine, "_last_outcome", robolabor.engine._NO_OUTCOME)
        robolabor.sensitivity.run_scenario(cfg.scenario("baseline"), cfg.params,
                                           cfg.initial_state, cfg.baseline, cfg.sectors)
        names = {span[spans.NAME] for span in tracer.spans}
        assert {"engine.run_scenario", "sectors.disaggregate"} <= names
    finally:
        tracer.restore()
    assert namespace(*modules) == before
