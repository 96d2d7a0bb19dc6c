"""Result serialization: CSV and JSON files with deterministic bytes.

Numbers are written at 12 significant digits so every cell round-trips
through text losslessly for this model's magnitudes. Rows are LF-terminated
UTF-8; identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from .calibrate import RATIO_SPACE_NOTE, CalibrationReport
from .config import RunConfig
from .engine import SimulationResult
from .sensitivity import SensitivityRecord

__all__ = [
    "OutputBundle",
    "build_output_bundle",
    "write_outputs",
    "write_sensitivity_csv",
    "summary_table",
    "format_number",
]

# 12 significant digits, for CSV cells and JSON numbers alike
_NUMBER_FORMAT = ".12g"

GAIN_SEMANTICS_NOTE = (
    "gdp_gain isolates the robotics-capital and TFP channels with labor held "
    "at its baseline level; realized_gain includes the drag from displaced "
    "labor; dynamic scenarios report terminal values against the frozen "
    "baseline year"
)

_SUMMARY_COLUMNS = (
    "scenario", "mode", "gdp_gain", "gdp_gain_target", "gdp_gain_gap",
    "raw_gdp_gain", "raw_gdp_gain_gap", "displacement_rate",
    "displacement_target", "displacement_gap", "raw_displacement_rate",
    "raw_displacement_gap", "realized_gain", "displaced_total", "jobs_created",
    "key_driver",
)

_TIMESERIES_COLUMNS = (
    "year", "theta", "tfp", "output", "output_gain_vs_baseline", "labor",
    "displacement_rate", "displaced_cumulative", "jobs_created_cumulative",
    "remittance_low", "remittance_high",
)

_SENSITIVITY_COLUMNS = (
    "parameter", "metric", "perturbation", "baseline_value", "low_value",
    "high_value", "baseline_result", "low_result", "high_result", "swing",
    "pct_deviation_low", "pct_deviation_high", "error",
)


def format_number(value) -> str:
    """Serialize one numeric cell; None becomes an empty cell."""
    if isinstance(value, float):
        return format(value, _NUMBER_FORMAT)  # NaN comes out as "nan"
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    return format(value, _NUMBER_FORMAT)


@dataclass(frozen=True)
class OutputBundle:
    """Everything one run wants written to disk."""

    results: tuple[SimulationResult, ...]
    sensitivity: tuple[SensitivityRecord, ...] | None = None
    calibration: tuple[CalibrationReport, ...] | None = None
    figure_scenario: str | None = None


def build_output_bundle(config: RunConfig, results: Sequence[SimulationResult],
                        sensitivity: Sequence[SensitivityRecord] | None = None,
                        calibration: Sequence[CalibrationReport] | None = None
                        ) -> OutputBundle:
    """Assemble a bundle, resolving the figure scenario from the config."""
    names = {r.scenario for r in results}
    figure = config.output.figure_scenario
    return OutputBundle(
        results=tuple(results),
        sensitivity=None if sensitivity is None else tuple(sensitivity),
        calibration=None if calibration is None else tuple(calibration),
        figure_scenario=figure if figure in names else None,
    )


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else format_number(cell)
                             for cell in row])


def _json_chunks(node, indent: str = "\n"):
    """Yield ``json.dumps(node, indent=2)`` for a dict or list, floats at 12 digits.

    Streamed an item at a time like ``json.dump``, so a wide
    ``summary.json`` is never held whole in memory; rounding in a pass
    ahead of ``json.dump`` made writing it a third slower.
    """
    if isinstance(node, dict):
        opener, closer = "{", "}"
        items = [(encode_basestring_ascii(key) + ": ", value) for key, value in node.items()]
    else:
        opener, closer = "[", "]"
        items = [("", value) for value in node]
    if not items:
        yield opener + closer
        return
    inner = indent + "  "
    for key, value in items:
        if isinstance(value, float) and math.isfinite(value):
            yield f"{opener}{inner}{key}{float(format(value, _NUMBER_FORMAT))!r}"
        elif isinstance(value, (dict, list, tuple)):
            yield opener + inner + key
            yield from _json_chunks(value, inner)
        else:
            yield opener + inner + key + json.dumps(value)  # str, int, bool, None, NaN, inf
        opener = ","
    yield indent + closer


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(_json_chunks(payload))
        handle.write("\n")


def _gap_fields(result: SimulationResult, metric: str):
    if result.target_comparison:
        for gap in result.target_comparison:
            if gap.metric == metric:
                return gap.target, gap.gap, gap.raw_gap
    return None, None, None


def _summary_rows(results: Sequence[SimulationResult]) -> list[list]:
    rows = []
    for result in results:
        summary = result.summary
        gain_target, gain_gap, raw_gain_gap = _gap_fields(result, "gdp_gain")
        disp_target, disp_gap, raw_disp_gap = _gap_fields(result, "displacement")
        rows.append([
            result.scenario, result.mode.value,
            summary.gdp_gain, gain_target, gain_gap,
            summary.raw_gdp_gain, raw_gain_gap,
            summary.displacement_rate, disp_target, disp_gap,
            summary.raw_displacement_rate, raw_disp_gap,
            summary.realized_gain, summary.displaced_total, summary.jobs_created,
            summary.key_driver,
        ])
    return rows


def _summary_payload(results: Sequence[SimulationResult]) -> dict:
    scenarios = []
    for result in results:
        summary = result.summary
        entry = {
            "scenario": result.scenario,
            "mode": result.mode.value,
            "gdp_gain": summary.gdp_gain,
            "realized_gain": summary.realized_gain,
            "displacement_rate": summary.displacement_rate,
            "displaced_total": summary.displaced_total,
            "jobs_created": summary.jobs_created,
            "key_driver": summary.key_driver,
            "raw_gdp_gain": summary.raw_gdp_gain,
            "raw_displacement_rate": summary.raw_displacement_rate,
            "sector_rates": dict(result.sector_rates),
            "headcounts": {
                "total": result.headcounts.total,
                "expat": result.headcounts.expat,
                "by_sector": dict(result.headcounts.by_sector),
            },
        }
        if result.target_comparison:
            entry["target_comparison"] = [
                {"metric": g.metric, "target": g.target, "computed": g.computed,
                 "gap": g.gap, "raw_computed": g.raw_computed, "raw_gap": g.raw_gap}
                for g in result.target_comparison
            ]
        scenarios.append(entry)
    return {"notes": [GAIN_SEMANTICS_NOTE, RATIO_SPACE_NOTE], "scenarios": scenarios}


def write_outputs(bundle: OutputBundle, directory: str | Path,
                  formats: Sequence[str] = ("csv", "json")) -> list[Path]:
    """Write the bundle's files and return the sorted manifest of paths.

    The name set is deterministic: one ``<scenario>_timeseries.csv`` per
    result plus ``summary.csv`` (CSV format), ``summary.json`` and
    ``calibration.json`` (JSON format), ``sensitivity.csv`` and
    ``figure1_data.csv`` when the bundle carries them. An empty result list
    still produces the summary header.
    """
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: list[Path] = []

    if "csv" in formats:
        for result in bundle.results:
            path = directory / f"{result.scenario}_timeseries.csv"
            rows = [[r.year, r.theta, r.tfp, r.output, r.output_gain_vs_baseline,
                     r.labor, r.displacement_rate, r.displaced_cumulative,
                     r.jobs_created_cumulative, r.remittance_low, r.remittance_high]
                    for r in result.records]
            _write_csv(path, _TIMESERIES_COLUMNS, rows)
            manifest.append(path)
        path = directory / "summary.csv"
        _write_csv(path, _SUMMARY_COLUMNS, _summary_rows(bundle.results))
        manifest.append(path)
        if bundle.sensitivity is not None:
            manifest.append(write_sensitivity_csv(bundle.sensitivity, directory))
        if bundle.figure_scenario is not None:
            for result in bundle.results:
                if result.scenario == bundle.figure_scenario:
                    path = directory / "figure1_data.csv"
                    rows = [[r.year, r.displaced_cumulative, r.jobs_created_cumulative]
                            for r in result.records]
                    _write_csv(path, ("year", "displaced_cumulative",
                                      "jobs_created_cumulative"), rows)
                    manifest.append(path)

    if "json" in formats:
        path = directory / "summary.json"
        _write_json(path, _summary_payload(bundle.results))
        manifest.append(path)
        if bundle.calibration is not None:
            path = directory / "calibration.json"
            _write_json(path, {"notes": [RATIO_SPACE_NOTE],
                               "reports": [r.to_dict() for r in bundle.calibration]})
            manifest.append(path)

    return sorted(manifest)


def write_sensitivity_csv(records: Sequence[SensitivityRecord],
                          directory: str | Path) -> Path:
    """Write the tornado table to ``sensitivity.csv`` in ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "sensitivity.csv"
    rows = [[r.parameter, r.metric, r.perturbation, r.baseline_value,
             r.low_value, r.high_value, r.baseline_result, r.low_result,
             r.high_result, r.swing, r.pct_deviation_low,
             r.pct_deviation_high, r.error or ""]
            for r in records]
    _write_csv(path, _SENSITIVITY_COLUMNS, rows)
    return path


def summary_table(results: Sequence[SimulationResult]) -> str:
    """Fixed-width text table of scenario summaries for terminal output."""
    header = ("scenario", "gdp_gain", "target", "gap", "raw_gap",
              "displacement", "target", "gap", "raw_gap", "key_driver")
    body = []
    for result in results:
        summary = result.summary
        gain_target, gain_gap, raw_gain_gap = _gap_fields(result, "gdp_gain")
        disp_target, disp_gap, raw_disp_gap = _gap_fields(result, "displacement")

        def pct(value):
            return "" if value is None else f"{100.0 * value:.4f}%"

        body.append((result.scenario, pct(summary.gdp_gain), pct(gain_target),
                     pct(gain_gap), pct(raw_gain_gap),
                     pct(summary.displacement_rate), pct(disp_target),
                     pct(disp_gap), pct(raw_disp_gap), summary.key_driver))
    widths = [max(len(row[i]) for row in [header] + body)
              for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in [header] + body]
    return "\n".join(lines)
