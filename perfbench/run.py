"""robolabor benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_batch, horizon_sweep, wide_sectors_analysis (see README.md).
Prints a human-readable report on stderr and, as the last line of stdout,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``. Exits 2 when ``src/robolabor`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path


def _args(argv):
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "robolabor" / "__init__.py").is_file():
        print("perfbench: no src/robolabor here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # one CPU for the benchmark and its children, so the speed probe runs
    # where the timed work runs
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import robolabor

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(root, work, args.seed, args.seconds, bool(args.trace))
    runner = workloads.Runner(ctx, robolabor)
    try:
        if ctx.tracer is not None:
            spans.instrument(ctx.tracer, robolabor)
        setup_s, ops = workloads.WORKLOADS[args.workload](runner)
        runner.run(ops)
        e2e = metrics = workloads.end_to_end(runner, setup_s, args.workload)
        if ctx.tracer is not None:
            ctx.tracer.restore()
            metrics = workloads.per_layer(runner)
            out = root / ".perfbench_out"
            out.mkdir(exist_ok=True)
            ctx.tracer.dump(out / f"trace-{args.workload}-{args.seed}.json",
                            {"cli_traces": len(ctx.cli_traces)})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, runner, metrics, e2e)
    print(json.dumps({
        "correct": not runner.mismatches,
        "attempted": sum(runner.attempted.values()),
        "failed": sum(runner.failed.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def report(args, runner, metrics: dict, e2e: dict) -> None:
    import workloads

    err = sys.stderr
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} {mode}: {runner.rounds} rounds",
          file=err)
    print(f"  speed probe: median {1e3 / runner.run_factor() * workloads.PROBE_NOMINAL_S:.4g} ms"
          f" (nominal {1e3 * workloads.PROBE_NOMINAL_S:g} ms); op times below are scaled",
          file=err)
    for kind in sorted(runner.attempted):
        samples = runner.scaled_times(kind)
        timing = workloads.tail(samples) if samples else "no timed samples"
        print(f"  {kind:<16} attempted={runner.attempted[kind]:<6} "
              f"failed={runner.failed[kind]:<5} {timing} s", file=err)
    shown = metrics if args.trace else e2e
    for name, (value, unit) in shown.items():
        print(f"  {name:<40} {value:>14.6g} {unit}", file=err)
    if args.trace:
        print("  end-to-end figures of this traced run (tracing overhead = traced - untraced):",
              file=err)
        for name, (value, unit) in e2e.items():
            print(f"    {name:<38} {value:>14.6g} {unit}", file=err)
    for message in runner.mismatches[:10]:
        print(f"  MISMATCH {message}", file=err)


if __name__ == "__main__":
    sys.exit(main())
