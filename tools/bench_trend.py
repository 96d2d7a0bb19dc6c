"""Compound change/parent ratios of the benchmark's end-to-end metrics over changes.

Each ``BENCH_<n>.json`` at the repository root records the benchmark of the
repository's n-th numbered change: for every workload, the medians of
alternating parent and change runs. Judged one change at a time, against its
parent and a bound per metric, a loss of a few percent per change passes
every time; the product of the change/parent medians over a range of
changes shows the drift.

For each workload and end-to-end metric of ``BENCHMARK.json`` this prints
that product, then each change's ratio and the pairs it won where the file
records them, and names the changes in the range that have no file. It
flags a metric whose compound move in its bad direction exceeds half its
``BENCHMARK.json`` bound, and exits 1 if any is flagged.

``BENCH_6`` to ``BENCH_10.json`` record one workload in an older schema
(``medians_trace0``); they are skipped and named as skipped.

Usage: python tools/bench_trend.py [--from N] [--to N]
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

OLD_SCHEMA = range(6, 11)
ROOT = Path(__file__).resolve().parents[1]


def bench_files(root: Path) -> dict[int, Path]:
    """Every ``BENCH_<n>.json`` under ``root``, by change number."""
    files = {}
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            files[int(match.group(1))] = path
    return files


def trend(root: Path, first: int, last: int) -> dict:
    """The compound ratios over changes ``first`` to ``last``, inclusive.

    Returns ``rows``, one per workload and metric with its compound ratio,
    per-change ``(n, ratio, pairs won or None)`` steps and whether it is
    flagged, and the changes of the range that are ``missing`` a file or
    ``skipped`` for the older schema.
    """
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    files = bench_files(root)
    numbers = range(first, last + 1)
    skipped = [n for n in numbers if n in files and n in OLD_SCHEMA]
    read = {n: json.loads(files[n].read_text(encoding="utf-8"))["workloads"]
            for n in numbers if n in files and n not in OLD_SCHEMA}
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name, steps = metric["name"], []
            for number, workloads in read.items():
                sides = workloads[workload]
                wins = (sides.get("change_wins_of_pairs", {}).get(name)
                        or sides.get(f"{name}_change_wins"))
                steps.append((number, sides["change"]["medians"][name]
                              / sides["parent"]["medians"][name], wins))
            ratio = math.prod(step[1] for step in steps)
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            rows.append({"workload": workload, "metric": name, "ratio": ratio,
                         "steps": steps, "flagged": worse > metric["bound"] / 2})
    return {"rows": rows, "missing": [n for n in numbers if n not in files],
            "skipped": skipped}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--from", dest="first", type=int, default=OLD_SCHEMA.stop,
                        help="first change of the range (default: 11, the first with workloads)")
    parser.add_argument("--to", dest="last", type=int,
                        help="last change of the range (default: the newest file)")
    args = parser.parse_args(argv)
    last = args.last if args.last is not None else max(bench_files(ROOT))
    result = trend(ROOT, args.first, last)
    print(f"changes {args.first}-{last}; no BENCH file: "
          f"{', '.join(map(str, result['missing'])) or 'none'}")
    if result["skipped"]:
        print(f"skipped, older single-workload schema: "
              f"{', '.join(map(str, result['skipped']))}")
    workload = None
    for row in result["rows"]:
        if row["workload"] != workload:
            workload = row["workload"]
            print(workload)
        steps = ", ".join(f"{number} x{ratio:.3f}" + (f" {wins}" if wins else "")
                          for number, ratio, wins in row["steps"])
        flag = "  FLAG" if row["flagged"] else ""
        print(f"  {row['metric']:<22} x{row['ratio']:.3f}{flag}  ({steps})")
    flagged = [row for row in result["rows"] if row["flagged"]]
    for row in flagged:
        print(f"flagged: {row['workload']} {row['metric']} compounds to x{row['ratio']:.3f}, "
              f"beyond half its BENCHMARK.json bound", file=sys.stderr)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
