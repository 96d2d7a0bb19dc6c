"""The benchmark's span tracer wraps names that the live modules still define.

``perfbench/spans.py`` replaces functions at the names their callers
imported them under. A refactor that drops or renames one of them would
otherwise surface only in a traced benchmark run.
"""

import json
from pathlib import Path

import pytest

import robolabor
import robolabor.cli
import robolabor.engine
import robolabor.sensitivity


TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


@pytest.fixture(scope="module")
def spans(load_perfbench):
    return load_perfbench("spans")


def namespace(*modules):
    return [dict(vars(module)) for module in modules]


@pytest.mark.parametrize("entry,target", [("instrument", robolabor),
                                          ("instrument_cli", robolabor.cli)])
def test_instrument_and_restore(spans, entry, target, cfg):
    modules = (target, robolabor.engine, robolabor.sensitivity)
    # the package and the CLI bind a lazily imported name on its first lookup,
    # which instrumenting makes; restoring then leaves the name bound, so the
    # namespace is taken after one instrument and restore
    warm = spans.Tracer()
    getattr(spans, entry)(warm, target)
    warm.restore()
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


@pytest.mark.parametrize("args, recorded", [
    (["sensitivity", "--scenario", "baseline", "--out", "out"],
     {"config.load", "sensitivity.one_at_a_time", "report.write_sensitivity_csv"}),
    (["simulate"], {"config.load", "report.write_outputs"}),
], ids=["sensitivity", "simulate"])
def test_traced_cli_run_records_its_spans(spans, fresh_python, tmp_path, args, recorded):
    # the commands import these names late, and call them through robolabor.cli,
    # where the tracer wraps them
    run = fresh_python(str(TRACED_CLI), "spans.json", *args, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    payload = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert recorded <= {span[spans.NAME] for span in payload["spans"]}
