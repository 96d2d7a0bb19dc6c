"""Result serialization: CSV and JSON files with deterministic bytes.

Numbers are written at 12 significant digits so every cell round-trips
through text losslessly for this model's magnitudes. Rows are LF-terminated
UTF-8; identical inputs produce byte-identical files. ``summary_table``, the
terminal table, shows ten of ``summary.csv``'s columns, fractions as percentages.

Each CSV file is built as one string and written with one ``write``. A row
whose cell types match its table's declared types (an ``int`` year, then
``float`` values, as the engine's records carry) is formatted by one ``%``
template; ``%.12g`` gives the same text as ``format_number`` for every
float. Any other row, and every row of a table that holds strings, goes
cell by cell through ``format_number`` and ``csv`` quoting. JSON files are
streamed one ``summary.json`` scenario entry at a time, so a wide file is
never held whole in memory; each entry is built as one string with joins.
A dict whose values are all exact floats, such as a scenario's sector
rates or sector headcounts, is formatted by one ``%.12g`` call for all its
values; only its integral, exponent and non-finite cells are respelled,
and its keys' layout is built once per file. Scalars, lists and other
dicts are formatted item by item.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from . import _EXPORTS
from .config import _FORMATS, RunConfig
from .engine import ResultSummary, SimulationResult, TargetGap, YearRecord
from .sectors import HeadcountBreakdown

if TYPE_CHECKING:
    from .sensitivity import SensitivityRecord

__all__ = _EXPORTS["report"]

# 12 significant digits, for CSV cells and JSON numbers alike
_NUMBER_FORMAT = ".12g"

GAIN_SEMANTICS_NOTE = (
    "gdp_gain isolates the robotics-capital and TFP channels with labor held "
    "at its baseline level; realized_gain includes the drag from displaced "
    "labor; dynamic scenarios report terminal values against the frozen "
    "baseline year"
)

RATIO_SPACE_NOTE = (
    "all calibration is performed in ratio space: targets are fractional "
    "changes against the frozen baseline year"
)

_SUMMARY_COLUMNS = (
    "scenario", "mode", "gdp_gain", "gdp_gain_target", "gdp_gain_gap",
    "raw_gdp_gain", "raw_gdp_gain_gap", "displacement_rate",
    "displacement_target", "displacement_gap", "raw_displacement_rate",
    "raw_displacement_gap", "realized_gain", "displaced_total", "jobs_created",
    "key_driver",
)


def _field_names(record_type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(record_type))


# a record's CSV columns or JSON keys are its fields, in field order
_TIMESERIES_COLUMNS = _field_names(YearRecord)
_RESULT_SUMMARY_FIELDS = _field_names(ResultSummary)
_HEADCOUNT_FIELDS = _field_names(HeadcountBreakdown)
_TARGET_GAP_FIELDS = _field_names(TargetGap)


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


# a row of a table whose declared cell types are all here is formatted by
# one template; the float field gives format_number's text for every float
_TEMPLATE_FIELDS = {int: "%d", float: "%.12g"}
_TIMESERIES_TYPES = (int,) + (float,) * (len(_TIMESERIES_COLUMNS) - 1)
_FIGURE_COLUMNS = ("year", "displaced_cumulative", "jobs_created_cumulative")
_FIGURE_TYPES = (int, float, float)


class _Echo:
    """A file-like target whose ``write`` returns the text it is given."""

    @staticmethod
    def write(text: str) -> str:
        return text


# csv.writer's writerow returns its target's write result: here, the row's text
_csv_row = csv.writer(_Echo(), lineterminator="\n").writerow


@dataclass(frozen=True)
class OutputBundle:
    """Everything one run wants written to disk."""

    results: tuple[SimulationResult, ...]
    figure_scenario: str | None = None


def build_output_bundle(config: RunConfig, results: Sequence[SimulationResult]) -> OutputBundle:
    """Assemble a bundle, resolving the figure scenario from the config."""
    names = {r.scenario for r in results}
    figure = config.output.figure_scenario
    return OutputBundle(results=tuple(results),
                        figure_scenario=figure if figure in names else None)


def _cells_text(row: Sequence) -> str:
    return _csv_row([cell if isinstance(cell, str) else format_number(cell)
                     for cell in row])


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence],
               types: Sequence[type] = ()) -> None:
    """Write a table; rows whose cell types equal ``types`` take one template each."""
    template = ",".join([_TEMPLATE_FIELDS[t] for t in types]) + "\n"
    # compared as lists: a tuple per row raised the horizon_sweep benchmark's
    # peak RSS by about 0.3 MB more than a list does
    types = list(types)
    lines = [_csv_row(header)]
    lines += [template % row if list(map(type, row)) == types else _cells_text(row)
              for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(lines))


_CONTAINERS = (dict, list, tuple)


def _float_dict_text(node: dict, indent: str, layouts: dict) -> str:
    """``_json_text`` of a nonempty dict whose values are all exact floats.

    One ``%.12g`` call formats every value. Its text for a cell with a
    ``.`` and no exponent is already the JSON number; only the other cells
    (integral, exponent, non-finite) go through ``_json_text`` one by one.
    The dict's layout, its keys' texts around ``%s`` fields, is built once
    per indent and key order and kept in ``layouts``.
    """
    values = tuple(node.values())
    text = "%.12g\n" * len(values) % values
    cells = text.split("\n")
    cells.pop()  # the empty text after the last newline
    if "e" in text or text.count(".") != len(values):
        cells = [cell if "." in cell and "e" not in cell else _json_text(value, indent, layouts)
                 for cell, value in zip(cells, values)]
    key = (indent, tuple(node))
    layout = layouts.get(key)
    if layout is None:
        inner = indent + "  "
        layout = layouts[key] = "{" + inner + ("," + inner).join([
            encode_basestring_ascii(name).replace("%", "%%") + ": %s" for name in node
        ]) + indent + "}"
    return layout % tuple(cells)


def _json_text(node, indent: str, layouts: dict) -> str:
    """``json.dumps(node, indent=2)`` nested at ``indent``, floats at 12 digits."""
    if isinstance(node, float) and math.isfinite(node):
        # repr of the value rounded to 12 digits. Text of at most 15 digits
        # is the shortest that round-trips, so repr keeps the digits and
        # changes only the layout: an exponent from 1e12 up, ".0" if integral
        text = format(node, _NUMBER_FORMAT)
        if "e" in text:
            return repr(float(text))
        return text if "." in text else text + ".0"
    if not isinstance(node, _CONTAINERS):
        return json.dumps(node)  # str, int, bool, None, NaN, inf
    if not node:
        return "{}" if isinstance(node, dict) else "[]"
    inner = indent + "  "
    if isinstance(node, dict):
        if set(map(type, node.values())) == {float}:
            return _float_dict_text(node, indent, layouts)
        opener, closer = "{", "}"
        items = [encode_basestring_ascii(key) + ": " + _json_text(value, inner, layouts)
                 for key, value in node.items()]
    else:
        opener, closer = "[", "]"
        items = [_json_text(value, inner, layouts) for value in node]
    return opener + inner + ("," + inner).join(items) + indent + closer


def _json_chunks(node, indent: str = "\n", levels: int = 2, layouts: dict | None = None):
    """Yield ``json.dumps(node, indent=2)`` for a dict or list, floats at 12 digits.

    The outer ``levels`` containers are streamed an item at a time, like
    ``json.dump``, so a wide ``summary.json`` goes out one scenario entry
    at a time and is never held whole in memory. ``layouts`` holds the
    all-float dicts' layouts for the whole call.
    """
    if layouts is None:
        layouts = {}
    if not (levels and isinstance(node, _CONTAINERS) and node):
        yield _json_text(node, indent, layouts)
        return
    if isinstance(node, dict):
        opener, closer = "{", "}"
        items = [(encode_basestring_ascii(key) + ": ", value) for key, value in node.items()]
    else:
        opener, closer = "[", "]"
        items = [("", value) for value in node]
    inner = indent + "  "
    for key, value in items:
        yield opener + inner + key
        yield from _json_chunks(value, inner, levels - 1, layouts)
        opener = ","
    yield indent + closer


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(_json_chunks(payload))
        handle.write("\n")


def _summary_rows(results: Sequence[SimulationResult]) -> list[list]:
    rows = []
    for result in results:
        summary = result.summary
        gaps = {g.metric: (g.target, g.gap, g.raw_gap) for g in result.target_comparison or ()}
        gain_target, gain_gap, raw_gain_gap = gaps.get("gdp_gain", (None,) * 3)
        disp_target, disp_gap, raw_disp_gap = gaps.get("displacement", (None,) * 3)
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


def _as_dict(record, names: Sequence[str]) -> dict:
    # the names come precomputed: dataclasses.fields costs about 2 us a call
    return {name: getattr(record, name) for name in names}


def _summary_payload(results: Sequence[SimulationResult]) -> dict:
    scenarios = []
    for result in results:
        entry = {"scenario": result.scenario, "mode": result.mode.value,
                 **_as_dict(result.summary, _RESULT_SUMMARY_FIELDS),
                 "sector_rates": result.sector_rates,
                 "headcounts": _as_dict(result.headcounts, _HEADCOUNT_FIELDS)}
        if result.target_comparison:
            entry["target_comparison"] = [_as_dict(gap, _TARGET_GAP_FIELDS)
                                          for gap in result.target_comparison]
        scenarios.append(entry)
    return {"notes": [GAIN_SEMANTICS_NOTE, RATIO_SPACE_NOTE], "scenarios": scenarios}


def write_outputs(bundle: OutputBundle, directory: str | Path,
                  formats: Sequence[str] = ("csv", "json")) -> list[Path]:
    """Write the bundle's files and return the sorted manifest of paths.

    The name set is deterministic: ``<scenario>_timeseries.csv`` per result,
    ``summary.csv`` and the figure scenario's ``figure1_data.csv`` (CSV), and
    ``summary.json`` (JSON). An empty result list still writes the summary header.
    """
    for fmt in formats:
        if fmt not in _FORMATS:
            raise ValueError(f"format must be one of {list(_FORMATS)}, got {fmt!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: list[Path] = []

    if "csv" in formats:
        for result in bundle.results:
            path = directory / f"{result.scenario}_timeseries.csv"
            _write_csv(path, _TIMESERIES_COLUMNS,
                       map(attrgetter(*_TIMESERIES_COLUMNS), result.records),
                       _TIMESERIES_TYPES)
            manifest.append(path)
            if result.scenario == bundle.figure_scenario:
                path = directory / "figure1_data.csv"
                _write_csv(path, _FIGURE_COLUMNS,
                           map(attrgetter(*_FIGURE_COLUMNS), result.records),
                           _FIGURE_TYPES)
                manifest.append(path)
        path = directory / "summary.csv"
        _write_csv(path, _SUMMARY_COLUMNS, _summary_rows(bundle.results))
        manifest.append(path)

    if "json" in formats:
        path = directory / "summary.json"
        _write_json(path, _summary_payload(bundle.results))
        manifest.append(path)

    return sorted(manifest)


def write_sensitivity_csv(records: Sequence[SensitivityRecord],
                          directory: str | Path) -> Path:
    """Write the tornado table to ``sensitivity.csv`` in ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "sensitivity.csv"
    # imported here, so that simulate, which imports this module, does not load it
    from .sensitivity import SensitivityRecord
    columns = _field_names(SensitivityRecord)
    _write_csv(path, columns, map(attrgetter(*columns), records))
    return path


# the summary.csv columns the terminal table shows, each under its heading
_TABLE_HEADINGS = {"scenario": "scenario", "gdp_gain": "gdp_gain", "gdp_gain_target": "target",
                   "gdp_gain_gap": "gap", "raw_gdp_gain_gap": "raw_gap",
                   "displacement_rate": "displacement", "displacement_target": "target",
                   "displacement_gap": "gap", "raw_displacement_gap": "raw_gap",
                   "key_driver": "key_driver"}
_table_cells = itemgetter(*map(_SUMMARY_COLUMNS.index, _TABLE_HEADINGS))


def _table_text(cell) -> str:
    return cell if isinstance(cell, str) else "" if cell is None else f"{100.0 * cell:.4f}%"


def summary_table(results: Sequence[SimulationResult]) -> str:
    """Fixed-width text table of ten ``summary.csv`` columns, fractions in percent."""
    rows = [tuple(_TABLE_HEADINGS.values())]
    rows += [tuple(map(_table_text, _table_cells(row))) for row in _summary_rows(results)]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                     for row in rows)
