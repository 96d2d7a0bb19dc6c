"""Span tracing from the benchmark's side of each layer boundary.

A :class:`Tracer` replaces public functions at the names their callers
imported them under (``robolabor.engine.disaggregate_displacement``,
``robolabor.sensitivity.run_scenario``, ...) with wrappers that record a
span: name, start, end, parent span and an optional weight taken from the
arguments (years for a scenario run). Counted functions only add one to the
enclosing span. Spans stay in memory until :meth:`Tracer.dump`; reduction to
self time happens after the run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# span record layout: [name, start_ns, end_ns, parent, weight, counted_calls]
NAME, START, END, PARENT, WEIGHT, COUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str, weight) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, weight, 0])
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str, weight=None):
        index = self._open(name, weight)
        record = self.spans[index]
        record[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, weight=None) -> None:
        """Record a span around every call made through ``module.attr``."""
        original = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name, weight(args) if weight else None)
            record = spans[index]
            record[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def count(self, module, attr: str) -> None:
        """Count calls made through ``module.attr`` on the enclosing span."""
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if stack:
                spans[stack[-1]][COUNT] += 1
            return original(*args, **kwargs)

        setattr(module, attr, counted)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path, extra: dict | None = None) -> None:
        """Write every span once, as columns, to ``path``."""
        payload = dict(extra or {})
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _years(args) -> int:
    return args[0].n_years  # the scenario is the first argument


def _instrument_engine(tracer: Tracer) -> None:
    """The program's own calls into the engine, the sector split and the production function."""
    import robolabor.engine
    import robolabor.sensitivity

    tracer.wrap(robolabor.sensitivity, "run_scenario", "engine.run_scenario", _years)
    tracer.wrap(robolabor.engine, "disaggregate_displacement", "sectors.disaggregate")
    tracer.count(robolabor.engine, "production_output")


_CALIBRATE = [(name, f"calibrate.{name}", None) for name in (
    "bisect", "implied_theta", "implied_sigma", "implied_exposure", "implied_cost_ratio")]


def instrument(tracer: Tracer, robolabor) -> None:
    """Wrap the names the benchmark calls on the package, and the engine's own calls."""
    for attr, name, weight in [
            ("loads_config", "config.load", None),
            ("run_scenario", "engine.run_scenario", _years),
            ("one_at_a_time", "sensitivity.one_at_a_time", None),
            ("build_output_bundle", "report.build_output_bundle", None),
            ("write_outputs", "report.write_outputs", None),
            ("summary_table", "report.summary_table", None)] + _CALIBRATE:
        tracer.wrap(robolabor, attr, name, weight)
    _instrument_engine(tracer)


def instrument_cli(tracer: Tracer, cli) -> None:
    """Wrap the names ``robolabor.cli`` imported, and the engine's own calls."""
    for attr, name, weight in [
            ("load_config", "config.load", None),
            ("run_scenario", "engine.run_scenario", _years),
            ("one_at_a_time", "sensitivity.one_at_a_time", None),
            ("build_output_bundle", "report.build_output_bundle", None),
            ("write_outputs", "report.write_outputs", None),
            ("write_sensitivity_csv", "report.write_sensitivity_csv", None),
            ("summary_table", "report.summary_table", None),
            ("solve_tfp_level", "calibrate.solve_tfp_level", None)] + _CALIBRATE:
        tracer.wrap(cli, attr, name, weight)
    _instrument_engine(tracer)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def reduce(spans: list) -> list[dict]:
    """Per span: name, duration, self time, weight, counted calls, children."""
    out = [{"name": s[NAME], "dur": s[END] - s[START], "weight": s[WEIGHT],
            "count": s[COUNT], "parent": s[PARENT], "children": []} for s in spans]
    for index, span in enumerate(out):
        if span["parent"] >= 0:
            out[span["parent"]]["children"].append(index)
    for span in out:
        span["self"] = span["dur"] - sum(out[c]["dur"] for c in span["children"])
    return out


def _median(values: list) -> float:
    values = sorted(values)
    if not values:
        return float("nan")
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else float("nan")


def layer_metrics(spans: list[dict], import_ns: list) -> dict:
    """Per-layer figures from reduced spans of the in-process run and the CLI runs."""
    def named(name):
        return [s for s in spans if s["name"] == name]

    runs = named("engine.run_scenario")
    years = sum(s["weight"] for s in runs)
    engine_ns = sum(s["dur"] - sum(spans[c]["dur"] for c in s["children"]
                                   if spans[c]["name"] == "sectors.disaggregate")
                    for s in runs)
    tornados = named("sensitivity.one_at_a_time")
    tornado_runs = sum(1 for s in runs if s["parent"] >= 0
                       and spans[s["parent"]]["name"] == "sensitivity.one_at_a_time")
    solves = named("op.solve")
    solve_ns, forward = 0, 0
    for op in solves:
        for c in op["children"]:
            if spans[c]["name"].startswith("calibrate."):
                solve_ns += spans[c]["dur"]
                forward += _descendants(spans, c, "engine.run_scenario")
    dispatch = named("cli.dispatch")
    return {
        "import.robolabor_ms": _median(import_ns) / 1e6,
        "config.load_ms": _median([s["dur"] for s in named("config.load")]) / 1e6,
        "cli.dispatch_self_ms": _median([s["self"] for s in dispatch]) / 1e6,
        "engine.year_us": engine_ns / years / 1e3 if years else float("nan"),
        "engine.run_scenario_us": _mean([s["dur"] for s in runs]) / 1e3,
        "core.production_output_calls_per_year":
            sum(s["count"] for s in runs) / years if years else float("nan"),
        "sectors.disaggregate_us": _mean([s["dur"] for s in named("sectors.disaggregate")]) / 1e3,
        "sensitivity.one_at_a_time_ms": _mean([s["dur"] for s in tornados]) / 1e6,
        "sensitivity.engine_runs_per_tornado":
            tornado_runs / len(tornados) if tornados else float("nan"),
        "calibrate.solve_us": solve_ns / len(solves) / 1e3 if solves else float("nan"),
        "calibrate.forward_evals_per_solve":
            forward / len(solves) if solves else float("nan"),
        "report.write_outputs_ms": _mean([s["dur"] for s in named("report.write_outputs")]) / 1e6,
        "report.build_output_bundle_us":
            _mean([s["dur"] for s in named("report.build_output_bundle")]) / 1e3,
        "report.summary_table_us": _mean([s["dur"] for s in named("report.summary_table")]) / 1e3,
    }


def _descendants(spans: list[dict], index: int, name: str) -> int:
    total = 0
    for c in spans[index]["children"]:
        total += (spans[c]["name"] == name) + _descendants(spans, c, name)
    return total
