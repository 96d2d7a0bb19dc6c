"""Workloads: set-up, one round of operations, checks, metrics.

A run repeats whole rounds of the same operations until ``--seconds`` have
passed, so every run attempts the same mix and the failed share is the same
whatever the seed and the run length. Only the program call of an operation
is timed; its checks against the reference model run after the clock stops.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import checks
import gen
import reference
import spans
from checks import Mismatch

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7

# Speed probe: a fixed pure-Python kernel (the reference model on a
# benchmark-owned scenario) timed between operations. The host's speed
# drifts by tens of percent over seconds; every timing is scaled by
# PROBE_NOMINAL_S / (mean of the probes either side of it), so the figures
# read as seconds on a host that runs the kernel in PROBE_NOMINAL_S.
PROBE_CFG = {
    "params": {"alpha": 0.33, "sigma": 0.7,
               "theta": {"mode": "ramp", "start": 0.4, "end": 0.5, "ramp_years": 10}},
    "baseline": {"total_labor_force": 1.0e6, "expat_share": 0.8, "remittance_base": 1.0e9,
                 "sector_shares": {"a": 0.6, "b": 0.4}},
    "sectors": [{"name": "a", "employment_share": 0.6, "risk_multiplier": 1.2,
                 "automation_potential": 0.8},
                {"name": "b", "employment_share": 0.4, "risk_multiplier": None,
                 "automation_potential": 0.6, "residual": True}],
}
PROBE_SCN = {"name": "probe", "mode": "dynamic", "horizon": [2025, 2054],
             "robotics_growth": 0.04, "tfp_enabled": True,
             "cost_ratio_path": [1.0 + 0.005 * i for i in range(30)]}
PROBE_REPS = 30
PROBE_NOMINAL_S = 0.003
PROBE_EVERY_S = 0.1


def probe() -> float:
    start = time.perf_counter()
    for _ in range(PROBE_REPS):
        reference.simulate(PROBE_CFG, PROBE_SCN)
    return time.perf_counter() - start


def scaled(measure) -> float:
    """Run ``measure()`` (returning raw seconds) between two probes; scale it."""
    before = probe()
    raw = measure()
    return raw * PROBE_NOMINAL_S / (0.5 * (before + probe()))


def settle(directory: Path) -> None:
    """Flush the files an operation wrote, outside the timed region.

    Without this, the writeback of earlier output lands inside later timed
    writes: interleaved with CLI runs, write times spread 16% within a
    minute, and 6% with it. It touches only the benchmark's own files.
    """
    for path in Path(directory).iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class Failed(Exception):
    """The operation did not do its job (a program fault, counted in ``failed``)."""


class Context:
    def __init__(self, root: Path, work: Path, seed: int, seconds: float, trace: bool):
        self.root, self.work, self.seed, self.seconds = root, work, seed, seconds
        self.tracer = spans.Tracer() if trace else None
        self.env = dict(os.environ)
        src = str(root / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (":" + path if path else "")
        self.cli_traces: list[Path] = []

    def cli(self, args: list) -> subprocess.CompletedProcess:
        """Run one robolabor command; the traced form writes a span file."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "robolabor.cli", *args]
        else:
            out = self.work / f"cli-{len(self.cli_traces):05d}.json"
            self.cli_traces.append(out)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(out), *args]
        return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              check=False)


class Op:
    """One timed program call plus its untimed check.

    ``call()`` returns the output; ``check(output)`` raises Mismatch when the
    output is wrong, Failed when the operation did not do its job, and may
    return a dict of work units (years, bytes) for rate metrics.
    """

    def __init__(self, kind: str, label: str, call, check):
        self.kind, self.label, self.call, self.check = kind, label, call, check


class Runner:
    def __init__(self, ctx: Context, program):
        self.ctx, self.rl = ctx, program
        # every op that succeeded: (kind, round, probes before it, raw seconds, work units)
        self.log: list[tuple] = []
        self.probes: list[float] = []
        self._last_probe = 0.0
        self.attempted = Counter()
        self.failed = Counter()
        self.mismatches: list[str] = []
        self.rounds = 0

    def execute(self, op: Op) -> None:
        self.attempted[op.kind] += 1
        tracer = self.ctx.tracer
        error = None
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                output = op.call()
            else:
                with tracer.span(f"op.{op.kind}"):
                    output = op.call()
        except self.rl.ModelError as exc:
            error = exc
        elapsed = (time.perf_counter_ns() - start) / 1e9
        try:
            if error is not None:
                raise Failed(f"{type(error).__name__}: {error}")
            units = op.check(output) or {}
        except Failed as exc:
            self.failed[op.kind] += 1
            self._note(f"failed {op.label}: {exc}")
            return
        except Mismatch as exc:
            self.mismatches.append(f"{op.label}: {exc}")
            return
        self.log.append((op.kind, self.rounds, len(self.probes), elapsed, units))

    def _note(self, message: str) -> None:
        if self.rounds == 0:
            print(f"perfbench: {message}", file=sys.stderr)

    def run(self, ops: list) -> None:
        start = time.perf_counter()
        while self.rounds == 0 or time.perf_counter() - start < self.ctx.seconds:
            self._probe()
            for op in ops:
                if time.perf_counter() - self._last_probe >= PROBE_EVERY_S:
                    self._probe()
                self.execute(op)
            self.rounds += 1
        self._probe()

    def _probe(self) -> None:
        self.probes.append(probe())
        self._last_probe = time.perf_counter()

    def _scale(self, after: int) -> float:
        """Raw seconds to nominal-speed seconds, from the probes either side of an op."""
        return PROBE_NOMINAL_S / (0.5 * (self.probes[after - 1] + self.probes[after]))

    def run_factor(self) -> float:
        return PROBE_NOMINAL_S / statistics.median(self.probes)

    def scaled_times(self, kind: str) -> list:
        return [elapsed * self._scale(after)
                for k, _, after, elapsed, _ in self.log if k == kind]

    def op_rates(self, kind: str, unit: str) -> list:
        """Per op: work done per nominal second."""
        return [units[unit] / (elapsed * self._scale(after))
                for k, _, after, elapsed, units in self.log if k == kind]

    def round_rates(self, kind: str, unit: str) -> list:
        """Per round: work done per nominal second of that kind's ops."""
        work, seconds = defaultdict(float), defaultdict(float)
        for k, r, after, elapsed, units in self.log:
            if k == kind:
                work[r] += 1 if unit == "ops" else units[unit]
                seconds[r] += elapsed * self._scale(after)
        return [work[r] / seconds[r] for r in seconds if seconds[r]]


# ---------------------------------------------------------------------------
# operation builders shared by the workloads
# ---------------------------------------------------------------------------

class Shared:
    """Program objects and cached reference results for one config."""

    def __init__(self, runner: Runner, cfg: dict, config, work: Path, name: str):
        self.runner, self.rl, self.cfg, self.config = runner, runner.rl, cfg, config
        self.work, self.name = work, name
        self.by_name = {s.name: s for s in config.scenarios}
        self.dicts = {s["name"]: s for s in cfg["scenarios"]}
        self.sectors = cfg.get("sectors") or []
        self._refs: dict = {}
        self.last_results: dict = {}
        self.snapshots: dict = {}

    def ref(self, name: str) -> dict:
        if name not in self._refs:
            self._refs[name] = reference.simulate(self.cfg, self.dicts[name])
        return self._refs[name]

    def run(self, scenario):
        c = self.config
        return self.rl.run_scenario(scenario, c.params, c.initial_state, c.baseline,
                                    c.sectors)

    # -- scenario runs ------------------------------------------------------
    def scenario_op(self, name: str) -> Op:
        scenario = self.by_name[name]

        def check(result):
            checks.check_result(result, self.ref(name), self.sectors)
            self.last_results[name] = result
            return {"years": scenario.n_years}

        return Op("scenario", f"{self.name} run {name}", lambda: self.run(scenario), check)

    # -- result writing ------------------------------------------------------
    def write_op(self) -> Op:
        rl, config = self.rl, self.config
        directory = self.work / f"{self.name}-written"
        names = [s.name for s in config.scenarios]

        def call():
            results = [self.last_results[n] for n in names]
            bundle = rl.build_output_bundle(config, results)
            rl.write_outputs(bundle, directory, ("csv", "json"))
            return rl.summary_table(results)

        def check(table):
            settle(directory)
            files = checks.read_dir(directory)
            first = self.snapshots.get("write")
            if first is None:
                refs = [self.ref(n) for n in names]
                checks.check_output_files(files, refs, self.sectors,
                                          config.output.figure_scenario)
                if len(table.splitlines()) != len(names) + 1:
                    raise Mismatch("summary table lacks a row per scenario")
                self.snapshots["write"] = (files, table)
            else:
                checks.check_identical(files, first[0], "written results")
                if table != first[1]:
                    raise Mismatch("summary table differs from the first run")
            return {"bytes": sum(len(v) for v in files.values()) + len(table)}

        return Op("write", f"{self.name} write", call, check)

    # -- tornados ------------------------------------------------------------
    def tornado_op(self, name: str, perturbation: float) -> Op:
        rl, config = self.rl, self.config
        scenario = self.by_name[name]
        cached = {}

        def call():
            return rl.one_at_a_time(scenario, config.params, config.initial_state,
                                    config.baseline, rl.default_specs(perturbation),
                                    config.sectors)

        def check(records):
            if "rows" not in cached:
                cached["rows"] = reference.tornado(self.cfg, self.dicts[name], perturbation)
            checks.check_tornado(records, cached["rows"])

        return Op("tornado", f"{self.name} tornado {name} {perturbation:g}", call, check)

    # -- solves --------------------------------------------------------------
    def solve_op(self, spec: dict) -> Op:
        if spec["kind"].startswith("bisect_"):
            return self._bisect_op(spec)
        return self._closed_form_op(spec)

    def _closed_form_op(self, spec: dict) -> Op:
        rl = self.rl
        kind = spec["kind"]
        calls = {
            "theta": lambda: rl.implied_theta(spec["gain"], spec["growth"]),
            "sigma": lambda: rl.implied_sigma(spec["displacement"], spec["cost_ratio"]),
            "exposure": lambda: rl.implied_exposure(spec["displacement"],
                                                    spec["cost_ratio"], spec["sigma"]),
            "cost_ratio": lambda: rl.implied_cost_ratio(spec["displacement"], spec["sigma"],
                                                        spec["exposure"]),
        }
        template = next(iter(self.by_name.values()))

        def check(value):
            checks.expect(value, gen.closed_form(spec), f"implied_{kind}")
            # substitute into a single-year run of the engine
            fields = dict(mode="comparative_static", horizon=(2030, 2030),
                          robotics_growth=0.05, cost_ratio_path=1.1, sigma_override=0.7,
                          exposure_override=1.0, theta_override=rl.StaticTheta(0.4),
                          tfp_enabled=False, targets=None, raw_shocks=None)
            if kind == "theta":
                fields.update(robotics_growth=spec["growth"],
                              theta_override=rl.StaticTheta(value))
                target, metric = spec["gain"], "gdp_gain"
            else:
                fields.update(
                    cost_ratio_path=spec.get("cost_ratio", value),
                    sigma_override=spec.get("sigma", value),
                    exposure_override=spec.get("exposure", value if kind == "exposure"
                                               else 1.0))
                target, metric = spec["displacement"], "displacement_rate"
            result = self.run(replace(template, **fields))
            reason = checks.solve_reproduces(getattr(result.summary, metric), target)
            if reason:
                raise Mismatch(f"implied_{kind}: {reason}")

        return Op("solve", f"{self.name} implied_{kind}", calls[kind], check)

    def _bisect_op(self, spec: dict) -> Op:
        rl = self.rl
        fixed = dict(spec["fixed"])
        base = replace(self.by_name[spec["scenario"]], **fixed)
        field = "robotics_growth" if spec["kind"] == "bisect_growth" else "theta_override"
        wrap = (lambda x: x) if field == "robotics_growth" else rl.StaticTheta
        lo, hi = spec["bracket"]

        def forward(x):
            return self.run(replace(base, **{field: wrap(x)})).summary.gdp_gain

        def call():
            return rl.bisect(forward, spec["target"], rl.SolverConfig(lo=lo, hi=hi))

        def check(value):
            checks.expect(value, spec["expected"], f"{spec['kind']} value", scale=1e3)
            result = self.run(replace(base, **{field: wrap(value)}))
            reason = checks.solve_reproduces(result.summary.gdp_gain, spec["target"])
            if reason:
                raise Mismatch(f"{spec['kind']} on {spec['scenario']}: {reason}")
            key = "robotics_growth" if field == "robotics_growth" else "theta"
            entry = dict(self.dicts[spec["scenario"]], **fixed)
            entry[key] = value if key == "robotics_growth" else {"mode": "static",
                                                                 "value": value}
            checks.check_result(result, reference.simulate(self.cfg, entry),
                                self.sectors)

        return Op("solve", f"{self.name} {spec['kind']} {spec['scenario']}", call, check)

    # -- CLI -----------------------------------------------------------------
    def cli_simulate_op(self, config_arg: str, tag: str) -> Op:
        ctx = self.runner.ctx
        out = self.work / f"cli-simulate-{tag}"
        names = [s.name for s in self.config.scenarios]

        def check(proc):
            if proc.returncode != 0:
                raise Failed(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
            settle(out)
            files = checks.read_dir(out)
            first = self.snapshots.get("cli_simulate")
            if first is None:
                refs = [self.ref(n) for n in names]
                checks.check_output_files(files, refs, self.sectors,
                                          self.config.output.figure_scenario)
                self.snapshots["cli_simulate"] = (files, proc.stdout)
            else:
                checks.check_identical(files, first[0], "simulate output directory")
                if proc.stdout != first[1]:
                    raise Mismatch("simulate summary table differs from the first run")

        return Op("cli_simulate", f"{self.name} cli simulate",
                  lambda: ctx.cli(["simulate", "--config", config_arg, "--out", str(out)]),
                  check)

    def cli_sensitivity_op(self, config_arg: str, name: str, perturbation: float) -> Op:
        ctx = self.runner.ctx
        out = self.work / f"cli-sensitivity-{name}-{perturbation:g}"
        key = ("cli_sensitivity", name, perturbation)
        args = ["sensitivity", "--config", config_arg, "--scenario", name,
                "--perturb", f"{100 * perturbation:g}", "--out", str(out)]

        def check(proc):
            if proc.returncode != 0:
                raise Failed(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
            settle(out)
            data = (out / "sensitivity.csv").read_bytes()
            if key not in self.snapshots:
                rows = reference.tornado(self.cfg, self.dicts[name], perturbation)
                checks.check_sensitivity_csv(data, rows)
                if len(proc.stdout.decode().splitlines()) != len(rows) + 1:
                    raise Mismatch("sensitivity table lacks a row per parameter")
                self.snapshots[key] = (data, proc.stdout)
            elif (data, proc.stdout) != self.snapshots[key]:
                raise Mismatch(f"sensitivity output for {name} differs from the first run")

        return Op("cli_sensitivity", f"{self.name} cli sensitivity {name}",
                  lambda: ctx.cli(args), check)

    def cli_calibrate_op(self, case: tuple) -> Op:
        """A CLI solve passes when the engine, run with the solved value, hits the target."""
        ctx, rl = self.runner.ctx, self.rl
        scenario_name, target_name, target, parameter = case
        args = ["calibrate", "--config", "default", "--scenario", scenario_name,
                "--target", f"{target_name}={target!r}", "--solve", parameter]
        verdict = {}

        def substitute(value):
            scenario = self.by_name[scenario_name]
            entry = dict(self.dicts[scenario_name])
            if parameter == "theta":
                scenario = replace(scenario, theta_override=rl.StaticTheta(value))
                entry["theta"] = {"mode": "static", "value": value}
            else:
                field, key = {"robotics_growth": ("robotics_growth", "robotics_growth"),
                              "sigma": ("sigma_override", "sigma"),
                              "exposure": ("exposure_override", "exposure_share"),
                              "cost_ratio": ("cost_ratio_path", "cost_ratio_path")}[parameter]
                scenario = replace(scenario, **{field: value})
                entry[key] = value
            return scenario, entry

        def check(proc):
            if "stdout" in verdict:
                if proc.stdout != verdict["stdout"] or proc.returncode != verdict["code"]:
                    raise Mismatch(f"calibrate {case} output differs from the first run")
            else:
                verdict.update(stdout=proc.stdout, code=proc.returncode,
                               reason=judge(proc))
            if verdict["reason"]:
                raise Failed(verdict["reason"])

        def judge(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.decode().strip()[-200:]}"
            report = json.loads(proc.stdout)
            if (report["parameter"], report["target_name"]) != (parameter, target_name):
                raise Mismatch(f"calibrate report names {report['parameter']}")
            scenario, entry = substitute(report["value"])
            result = self.run(scenario)
            checks.check_result(result, reference.simulate(self.cfg, entry),
                                self.sectors)
            metric = "gdp_gain" if target_name == "gain" else "displacement_rate"
            return checks.solve_reproduces(getattr(result.summary, metric), target,
                                           residual=report["residual"])

        return Op("cli_calibrate", f"calibrate {scenario_name} {target_name}={target:g} "
                  f"--solve {parameter}", lambda: ctx.cli(args), check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _timed_setup(rl, make_inputs):
    """Generate the inputs and load the config text, several times; median seconds."""
    loaded = {}

    def load():
        start = time.perf_counter()
        loaded["inputs"] = make_inputs()
        loaded["text"] = gen.to_yaml(loaded["inputs"]["cfg"])
        loaded["config"] = rl.loads_config(loaded["text"], source="<generated>")
        return time.perf_counter() - start

    setup_s = statistics.median(scaled(load) for _ in range(SETUP_REPEATS))
    return setup_s, (loaded["inputs"], loaded["text"], loaded["config"])


def cli_batch(runner: Runner) -> tuple:
    ctx, rl = runner.ctx, runner.rl
    bundled = gen.bundled_config(ctx.root)
    inputs = gen.batch_inputs(ctx.seed, bundled)

    def warm_up():
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "robolabor.cli", "simulate", "--config",
                               "default", "--out", str(ctx.work / "warm-up")],
                              cwd=ctx.root, env=ctx.env, capture_output=True, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: warm-up simulate failed: {proc.stderr.decode()}")
        settle(ctx.work / "warm-up")
        return elapsed

    warm = [scaled(warm_up) for _ in range(SETUP_REPEATS)]
    config = rl.load_config("default")
    shared = Shared(runner, bundled, config, ctx.work, "cli_batch")
    ops = []
    for k in range(4):
        ops.append(shared.cli_simulate_op("default", "default"))
        ops.append(shared.cli_sensitivity_op("default", *inputs["sensitivity"][k]))
    ops += [shared.cli_calibrate_op(case) for case in inputs["calibrate"]]
    # the same engine, sensitivity, calibration and report calls in-process
    for _ in range(10):
        ops += [shared.scenario_op(s.name) for s in config.scenarios]
    # enough in-process work per round for steady rates next to the CLI calls
    ops += [shared.write_op() for _ in range(20)]
    for _ in range(6):
        ops += [shared.tornado_op(name, p) for name, p in inputs["tornados"]]
    for _ in range(3):
        ops += [shared.solve_op(spec) for spec in inputs["solves"]]
    return statistics.median(warm), ops


def horizon_sweep(runner: Runner) -> tuple:
    ctx, rl = runner.ctx, runner.rl
    bundled = gen.bundled_config(ctx.root)
    setup_s, (inputs, text, config) = _timed_setup(
        rl, lambda: gen.sweep_inputs(ctx.seed, bundled))
    path = ctx.work / "sweep.yaml"
    path.write_text(text, encoding="utf-8")
    shared = Shared(runner, inputs["cfg"], config, ctx.work, "horizon_sweep")
    ops = [shared.scenario_op(s.name) for s in config.scenarios]
    ops += [shared.write_op() for _ in range(2)]
    ops += [shared.tornado_op(name, p) for name, p in inputs["tornados"]]
    ops += [shared.solve_op(spec) for spec in inputs["solves"]]
    ops.append(shared.cli_simulate_op(str(path), "sweep"))
    ops.append(shared.cli_sensitivity_op(str(path), *inputs["tornados"][0]))
    return setup_s, ops


def wide_sectors_analysis(runner: Runner) -> tuple:
    ctx, rl = runner.ctx, runner.rl
    bundled = gen.bundled_config(ctx.root)

    def make():
        inputs = gen.wide_inputs(ctx.seed, bundled)
        inputs["fault"] = gen.fault_inputs(bundled)
        inputs["fault_config"] = rl.loads_config(gen.to_yaml(inputs["fault"]["cfg"]),
                                                 source="<over-cap>")
        return inputs

    setup_s, (inputs, text, config) = _timed_setup(rl, make)
    path = ctx.work / "wide.yaml"
    path.write_text(text, encoding="utf-8")
    shared = Shared(runner, inputs["cfg"], config, ctx.work, "wide")
    fault = Shared(runner, inputs["fault"]["cfg"], inputs["fault_config"], ctx.work,
                   "over_cap")
    ops = [shared.scenario_op(s.name) for s in config.scenarios]
    ops.append(shared.write_op())
    ops += [shared.tornado_op(name, p) for name, p in inputs["tornados"]]
    ops += [shared.solve_op(spec) for spec in inputs["solves"]]
    ops += [over_cap_op(fault, s.name) for s in inputs["fault_config"].scenarios]
    ops.append(shared.cli_simulate_op(str(path), "wide"))
    ops.append(shared.cli_sensitivity_op(str(path), *inputs["tornados"][0]))
    return setup_s, ops


def over_cap_op(shared: Shared, name: str) -> Op:
    """A run whose national rate exceeds the employment-weighted cap sum.

    It passes once the program returns the national results (matching the
    reference) with every sector rate within its cap; raising is a failure.
    """
    scenario = shared.by_name[name]

    def check(result):
        checks.check_capped_result(result, shared.ref(name), shared.sectors)

    return Op("over_cap", f"over-cap run {name}", lambda: shared.run(scenario), check)


WORKLOADS = {
    "cli_batch": cli_batch,
    "horizon_sweep": horizon_sweep,
    "wide_sectors_analysis": wide_sectors_analysis,
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(samples: list) -> float:
    return statistics.median(samples) if samples else math.nan


def _rate(runner: Runner, kind: str, unit: str = "ops") -> float:
    """Median over rounds of the work done per second of that kind's ops."""
    return _median(runner.round_rates(kind, unit))


def end_to_end(runner: Runner, setup_s: float, workload: str) -> dict:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli_batch"
                               else resource.RUSAGE_SELF)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        "cli_simulate_s": (_median(runner.scaled_times("cli_simulate")), "s"),
        "cli_sensitivity_s": (_median(runner.scaled_times("cli_sensitivity")), "s"),
        "scenario_years_per_s": (_rate(runner, "scenario", "years"), "1/s"),
        # every write op writes the same bundle, so its median op is the figure
        "result_mb_per_s": (_median(runner.op_rates("write", "bytes")) / 1e6, "MB/s"),
        "scenarios_per_s": (_rate(runner, "scenario"), "1/s"),
        "tornados_per_s": (_rate(runner, "tornado"), "1/s"),
        "solves_per_s": (_rate(runner, "solve"), "1/s"),
    }


def per_layer(runner: Runner) -> dict:
    ctx = runner.ctx
    reduced = spans.reduce(ctx.tracer.spans)
    import_ns = []
    for path in ctx.cli_traces:
        payload = json.loads(path.read_text(encoding="utf-8"))
        offset = len(reduced)
        child = spans.reduce(payload["spans"])
        for span in child:
            span["children"] = [c + offset for c in span["children"]]
            if span["parent"] >= 0:
                span["parent"] += offset
        reduced += child
        import_ns.append(payload["import_ns"])
    units = {"import.robolabor_ms": "ms", "config.load_ms": "ms",
             "cli.dispatch_self_ms": "ms", "engine.year_us": "us",
             "engine.run_scenario_us": "us", "core.production_output_calls_per_year": "count",
             "sectors.disaggregate_us": "us", "sensitivity.one_at_a_time_ms": "ms",
             "sensitivity.engine_runs_per_tornado": "count", "calibrate.solve_us": "us",
             "calibrate.forward_evals_per_solve": "count", "report.write_outputs_ms": "ms",
             "report.build_output_bundle_us": "us", "report.summary_table_us": "us"}
    values = spans.layer_metrics(reduced, import_ns)
    factor = runner.run_factor()
    return {name: (values[name] * (1.0 if units[name] == "count" else factor), units[name])
            for name in units}


def tail(samples: list) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    text = f"n={n} median={statistics.median(ordered):.6g}"
    if n >= 40:
        q = math.floor(100 * (1 - 10 / n))
        text += f" p{q}={ordered[min(n - 1, math.ceil(q / 100 * n) - 1)]:.6g}"
    return text
