"""Checks of the program's outputs against the reference model and properties.

Every check raises :class:`Mismatch` naming what differs. Numbers compare
to 1e-9 relative: ``|a - b| <= 1e-9 * max(|a|, |b|, scale)``, where
``scale`` is the magnitude the quantity was computed from (1 for gains and
rates that are a ratio minus one, the target for a gap).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

RELATIVE = 1e-9

RECORD_FIELDS = ("year", "theta", "tfp", "output", "output_gain_vs_baseline", "labor",
                 "displacement_rate", "displaced_cumulative", "jobs_created_cumulative",
                 "remittance_low", "remittance_high")
# quantities computed as (ratio - 1) or (1 - ratio): compare against a scale of 1
UNIT_SCALED = {"output_gain_vs_baseline", "displacement_rate", "gdp_gain",
               "realized_gain", "raw_gdp_gain", "raw_displacement_rate"}
SUMMARY_FIELDS = ("gdp_gain", "realized_gain", "displacement_rate", "displaced_total",
                  "jobs_created", "raw_gdp_gain", "raw_displacement_rate")
TORNADO_FIELDS = ("perturbation", "baseline_value", "low_value", "high_value",
                  "baseline_result", "low_result", "high_result", "swing",
                  "pct_deviation_low", "pct_deviation_high")
_NUMBER = re.compile(r"^-?(\d+)(?:\.(\d+))?(?:e[+-]?\d+)?$")


class Mismatch(Exception):
    """A program output disagrees with the reference or breaks a property."""


def close(a, b, scale: float = 0.0, rel: float = RELATIVE) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def expect(a, b, what: str, scale: float = 0.0) -> None:
    if not close(a, b, scale):
        raise Mismatch(f"{what}: program {a!r}, reference {b!r}")


def _scale(field: str) -> float:
    return 1.0 if field in UNIT_SCALED else 0.0


# ---------------------------------------------------------------------------
# in-process results
# ---------------------------------------------------------------------------

def check_split(rates: dict, national: float, sectors: list, uncapped) -> None:
    """Sector rates: exact uncapped split when no cap binds, else properties."""
    names = [s["name"] for s in sectors]
    if list(rates) != names:
        raise Mismatch("sector rates do not list every sector in dataset order")
    weight = sum(s["employment_share"] for s in sectors)
    mean = sum(s["employment_share"] * rates[s["name"]] for s in sectors)
    if abs(mean - national * weight) > RELATIVE * max(1.0, national * weight):
        raise Mismatch(f"employment-weighted sector mean {mean / weight!r} "
                       f"differs from the national rate {national!r}")
    for s in sectors:
        value = rates[s["name"]]
        if not 0 <= value <= s["automation_potential"]:
            raise Mismatch(f"sector {s['name']} rate {value!r} outside "
                           f"[0, {s['automation_potential']}]")
    if uncapped is not None:
        for name in names:
            expect(rates[name], uncapped[name], f"sector {name} rate", scale=national)


def check_national(result, ref: dict) -> None:
    """Records, summary, headcounts and target gaps of one in-process result."""
    if result.scenario != ref["name"] or result.mode.value != ref["mode"]:
        raise Mismatch(f"result names {result.scenario}/{result.mode.value}, "
                       f"expected {ref['name']}/{ref['mode']}")
    if len(result.records) != len(ref["records"]):
        raise Mismatch(f"{ref['name']}: {len(result.records)} records, "
                       f"expected {len(ref['records'])}")
    for record, expected in zip(result.records, ref["records"]):
        for field in RECORD_FIELDS:
            expect(getattr(record, field), expected[field],
                   f"{ref['name']} {expected['year']} {field}", _scale(field))
    for field in SUMMARY_FIELDS:
        expect(getattr(result.summary, field), ref["summary"][field],
               f"{ref['name']} summary {field}", _scale(field))
    heads = result.headcounts
    expect(heads.total, ref["headcounts"]["total"], f"{ref['name']} headcount total")
    expect(heads.expat, ref["headcounts"]["expat"], f"{ref['name']} expat headcount")
    if dict(heads.by_sector).keys() != ref["headcounts"]["by_sector"].keys():
        raise Mismatch(f"{ref['name']}: headcount sectors differ")
    for name, value in ref["headcounts"]["by_sector"].items():
        expect(heads.by_sector[name], value, f"{ref['name']} headcount {name}")
    gaps = result.target_comparison or ()
    if len(gaps) != len(ref["target_comparison"]):
        raise Mismatch(f"{ref['name']}: {len(gaps)} target gaps, "
                       f"expected {len(ref['target_comparison'])}")
    for gap, expected in zip(gaps, ref["target_comparison"]):
        if gap.metric != expected["metric"]:
            raise Mismatch(f"{ref['name']}: gap metric {gap.metric}")
        scale = max(1.0, abs(expected["target"]))
        for field in ("target", "computed", "gap", "raw_computed", "raw_gap"):
            expect(getattr(gap, field), expected[field],
                   f"{ref['name']} {gap.metric} {field}", scale)


def check_result(result, ref: dict, sectors: list) -> None:
    check_national(result, ref)
    if sectors:
        check_split(dict(result.sector_rates), ref["national_rate"], sectors, ref["split"])
    elif result.sector_rates:
        raise Mismatch(f"{ref['name']}: sector rates without a sector table")


def check_capped_result(result, ref: dict, sectors: list) -> None:
    """A run above the cap sum: national results must match, rates stay capped."""
    check_national(result, ref)
    for s in sectors:
        value = dict(result.sector_rates).get(s["name"])
        if value is not None and not 0 <= value <= s["automation_potential"]:
            raise Mismatch(f"sector {s['name']} rate {value!r} above its cap")


def check_tornado(records, ref_rows: dict) -> None:
    """Tornado rows against the reference, swing = high - low, tornado order."""
    if sorted(r.parameter for r in records) != sorted(ref_rows):
        raise Mismatch("tornado does not cover every parameter once")
    for record in records:
        expected = ref_rows[record.parameter]
        if record.metric != expected["metric"]:
            raise Mismatch(f"tornado {record.parameter}: metric {record.metric}")
        for field in TORNADO_FIELDS:
            expect(getattr(record, field), expected[field],
                   f"tornado {record.parameter} {field}")
        failed = tuple(side for side in ("low", "high")
                       if record.error and f"{side} perturbation invalid" in record.error)
        if failed != expected["invalid"]:
            raise Mismatch(f"tornado {record.parameter}: invalid sides {failed}, "
                           f"expected {expected['invalid']}")
        swing = record.high_result - record.low_result
        if not (swing == record.swing or (math.isnan(swing) and math.isnan(record.swing))):
            raise Mismatch(f"tornado {record.parameter}: swing {record.swing!r} "
                           f"is not high - low = {swing!r}")
    check_tornado_order([(r.parameter, r.swing) for r in records])


def check_tornado_order(rows: list) -> None:
    """Largest absolute swing first, failed rows last, names breaking ties."""
    keys = [(1, 0.0, name) if math.isnan(swing) else (0, -abs(swing), name)
            for name, swing in rows]
    if keys != sorted(keys):
        raise Mismatch(f"tornado rows out of order: {[name for name, _ in rows]}")


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def check_file_format(path: Path, data: bytes) -> None:
    """LF line endings; CSV numbers carry at most 12 significant digits."""
    if b"\r" in data:
        raise Mismatch(f"{path.name}: CR in line endings")
    if not data.endswith(b"\n"):
        raise Mismatch(f"{path.name}: last line lacks LF")
    if path.suffix != ".csv":
        return
    for row in csv.reader(io.StringIO(data.decode("utf-8"))):
        for cell in row:
            match = _NUMBER.match(cell)
            if match:
                digits = (match.group(1) + (match.group(2) or "")).lstrip("0")
                if "e" not in cell and match.group(2) is None:
                    digits = digits.rstrip("0")
                if len(digits) > 12:
                    raise Mismatch(f"{path.name}: {cell} has more than 12 "
                                   f"significant digits")


def _cell(text: str):
    return None if text == "" else float(text)


def _read_csv(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def check_timeseries(data: bytes, ref: dict) -> None:
    rows = _read_csv(data)
    if len(rows) != len(ref["records"]):
        raise Mismatch(f"{ref['name']}_timeseries.csv: {len(rows)} rows, "
                       f"expected {len(ref['records'])}")
    for row, expected in zip(rows, ref["records"]):
        for field in RECORD_FIELDS:
            expect(_cell(row[field]), expected[field],
                   f"{ref['name']}_timeseries.csv {expected['year']} {field}", _scale(field))


def check_summary_csv(data: bytes, refs: list) -> None:
    rows = _read_csv(data)
    if [r["scenario"] for r in rows] != [ref["name"] for ref in refs]:
        raise Mismatch("summary.csv scenarios differ")
    for row, ref in zip(rows, refs):
        if row["mode"] != ref["mode"]:
            raise Mismatch(f"summary.csv {ref['name']} mode {row['mode']}")
        for field in SUMMARY_FIELDS:
            expect(_cell(row[field]), ref["summary"][field],
                   f"summary.csv {ref['name']} {field}", _scale(field))
        gaps = {g["metric"]: g for g in ref["target_comparison"]}
        for metric, prefix, raw_prefix in (("gdp_gain", "gdp_gain", "raw_gdp_gain"),
                                           ("displacement", "displacement",
                                            "raw_displacement")):
            gap = gaps.get(metric, {})
            scale = max(1.0, abs(gap.get("target") or 0.0))
            for column, key in ((f"{prefix}_target", "target"), (f"{prefix}_gap", "gap"),
                                (f"{raw_prefix}_gap", "raw_gap")):
                expect(_cell(row[column]), gap.get(key), f"summary.csv {ref['name']} "
                       f"{column}", scale)


def check_summary_json(data: bytes, refs: list, sector_table: list) -> None:
    payload = json.loads(data)
    entries = payload["scenarios"]
    if [e["scenario"] for e in entries] != [ref["name"] for ref in refs]:
        raise Mismatch("summary.json scenarios differ")
    for entry, ref in zip(entries, refs):
        for field in SUMMARY_FIELDS:
            expect(entry[field], ref["summary"][field],
                   f"summary.json {ref['name']} {field}", _scale(field))
        heads = entry["headcounts"]
        expect(heads["total"], ref["headcounts"]["total"], f"summary.json {ref['name']} total")
        expect(heads["expat"], ref["headcounts"]["expat"], f"summary.json {ref['name']} expat")
        for name, value in ref["headcounts"]["by_sector"].items():
            expect(heads["by_sector"].get(name), value,
                   f"summary.json {ref['name']} headcount {name}")
        if sector_table:
            check_split(entry["sector_rates"], ref["national_rate"], sector_table,
                        ref["split"])
        gaps = entry.get("target_comparison", [])
        if [g["metric"] for g in gaps] != [g["metric"] for g in ref["target_comparison"]]:
            raise Mismatch(f"summary.json {ref['name']} target metrics differ")
        for gap, expected in zip(gaps, ref["target_comparison"]):
            scale = max(1.0, abs(expected["target"]))
            for field in ("target", "computed", "gap", "raw_computed", "raw_gap"):
                expect(gap[field], expected[field],
                       f"summary.json {ref['name']} {gap['metric']} {field}", scale)


def check_figure(data: bytes, ref: dict) -> None:
    rows = _read_csv(data)
    if len(rows) != len(ref["records"]):
        raise Mismatch("figure1_data.csv row count differs")
    for row, expected in zip(rows, ref["records"]):
        for field in ("year", "displaced_cumulative", "jobs_created_cumulative"):
            expect(_cell(row[field]), expected[field], f"figure1_data.csv {field}")


def read_dir(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def check_output_files(files: dict, refs: list, sector_table: list,
                       figure: str | None) -> None:
    """Every file a simulate run writes, against the reference results."""
    expected = {f"{ref['name']}_timeseries.csv" for ref in refs}
    expected |= {"summary.csv", "summary.json"}
    if figure is not None:
        expected.add("figure1_data.csv")
    if set(files) != expected:
        raise Mismatch(f"written files {sorted(files)}, expected {sorted(expected)}")
    for name, data in files.items():
        check_file_format(Path(name), data)
    by_name = {ref["name"]: ref for ref in refs}
    for ref in refs:
        check_timeseries(files[f"{ref['name']}_timeseries.csv"], ref)
    check_summary_csv(files["summary.csv"], refs)
    check_summary_json(files["summary.json"], refs, sector_table)
    if figure is not None:
        check_figure(files["figure1_data.csv"], by_name[figure])


def check_identical(files: dict, first: dict, what: str) -> None:
    """Two runs of the same inputs must write byte-identical directories."""
    if files.keys() != first.keys():
        raise Mismatch(f"{what}: file set differs from the first run")
    for name in files:
        if files[name] != first[name]:
            raise Mismatch(f"{what}: {name} differs from the first run")


def check_sensitivity_csv(data: bytes, ref_rows: dict) -> None:
    check_file_format(Path("sensitivity.csv"), data)
    rows = _read_csv(data)
    if sorted(r["parameter"] for r in rows) != sorted(ref_rows):
        raise Mismatch("sensitivity.csv does not cover every parameter once")
    for row in rows:
        expected = ref_rows[row["parameter"]]
        for field in TORNADO_FIELDS:
            expect(_cell(row[field]), expected[field],
                   f"sensitivity.csv {row['parameter']} {field}")
        high, low, swing = (_cell(row[k]) for k in ("high_result", "low_result", "swing"))
        if not close(swing, high - low):
            raise Mismatch(f"sensitivity.csv {row['parameter']}: swing is not high - low")
        if bool(row["error"]) != bool(expected["invalid"]):
            raise Mismatch(f"sensitivity.csv {row['parameter']}: error column "
                           f"{row['error']!r}, expected invalid sides {expected['invalid']}")
    check_tornado_order([(r["parameter"], _cell(r["swing"])) for r in rows])


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def solve_reproduces(engine_value: float, target: float, residual=None,
                     tolerance: float = RELATIVE) -> str | None:
    """Why a solved value fails its target, or None when it reproduces it.

    ``engine_value`` is the metric of a run with the solved value
    substituted; a reported ``residual`` must equal that run's gap.
    """
    gap = engine_value - target
    limit = tolerance * max(1.0, abs(target))
    if abs(gap) > limit:
        return f"engine gap {gap:.3g} with the solved value exceeds {limit:.1g}"
    if residual is not None and abs(residual - gap) > limit:
        return f"reported residual {residual:.3g} differs from the engine gap {gap:.3g}"
    return None
