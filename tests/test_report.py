"""Deterministic file emission: manifests, bytes, round trips."""

import csv
import dataclasses
import json
import math
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robolabor import (
    OutputBundle,
    ResultSummary,
    SensitivityRecord,
    SimulationMode,
    TargetGap,
    YearRecord,
    build_output_bundle,
    loads_config,
    one_at_a_time,
    run_scenario,
    summary_table,
    write_outputs,
    write_sensitivity_csv,
)
from robolabor.report import (
    RATIO_SPACE_NOTE,
    _SUMMARY_COLUMNS,
    _TIMESERIES_COLUMNS,
    _json_chunks,
    _json_text,
    _summary_payload,
    _write_csv,
    format_number,
)


# -- the writer before row templates and joined JSON containers, kept as the
# -- oracle the writer must match byte for byte

def oracle_format_number(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    return format(value, ".12g")


def oracle_write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else oracle_format_number(cell)
                             for cell in row])


def oracle_json_chunks(node, indent="\n"):
    if isinstance(node, dict):
        opener, closer = "{", "}"
        items = [(json.dumps(key) + ": ", value) for key, value in node.items()]
    else:
        opener, closer = "[", "]"
        items = [("", value) for value in node]
    if not items:
        yield opener + closer
        return
    inner = indent + "  "
    for key, value in items:
        if isinstance(value, float) and math.isfinite(value):
            yield f"{opener}{inner}{key}{float(format(value, '.12g'))!r}"
        elif isinstance(value, (dict, list, tuple)):
            yield opener + inner + key
            yield from oracle_json_chunks(value, inner)
        else:
            yield opener + inner + key + json.dumps(value)
        opener = ","
    yield indent + closer


# -- the terminal table before it read summary.csv's rows, kept as the oracle
# -- summary_table must match character for character

def oracle_gap_fields(result, metric):
    if result.target_comparison:
        for gap in result.target_comparison:
            if gap.metric == metric:
                return gap.target, gap.gap, gap.raw_gap
    return None, None, None


def oracle_summary_table(results) -> str:
    header = ("scenario", "gdp_gain", "target", "gap", "raw_gap",
              "displacement", "target", "gap", "raw_gap", "key_driver")
    body = []
    for result in results:
        summary = result.summary
        gain_target, gain_gap, raw_gain_gap = oracle_gap_fields(result, "gdp_gain")
        disp_target, disp_gap, raw_disp_gap = oracle_gap_fields(result, "displacement")

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


EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308,
               1e12, 999999999999.5, 123456789012345.6, 1e16, -1e15, 0.1 + 0.2)
floats = st.one_of(
    st.floats(),  # nan and both infinities included
    st.floats(min_value=1e12, max_value=1e16),
    st.floats(min_value=-1e16, max_value=-1e12),
    st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals
    st.sampled_from(EDGE_FLOATS),
)
# ints, bools and None force a row off the template onto the per-cell path
non_floats = st.one_of(st.integers(), st.integers(min_value=10**12, max_value=10**17),
                       st.booleans(), st.none())
value_cells = st.one_of(floats, floats, floats, non_floats)
years = st.one_of(st.integers(min_value=1900, max_value=2200),
                  st.integers(min_value=1900, max_value=2200), floats, non_floats)
texts = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)),
                          st.sampled_from(',"\n\r \'')), max_size=12)
# JSON keys, some holding the characters a %-template and a JSON string treat apart
json_keys = st.one_of(texts, st.text(st.sampled_from('%s(x)"\\ '), max_size=6))
float_dicts = st.dictionaries(json_keys, floats, max_size=300)


@st.composite
def summarized(draw, result):
    """``result`` with a drawn summary, whose gain and displacement targets,
    and whose raw values, are each present or absent."""
    summary = ResultSummary(*[draw(floats) for _ in range(5)], draw(texts),
                            draw(st.none() | floats), draw(st.none() | floats))
    gaps = [TargetGap(metric, draw(floats), computed, draw(floats), raw,
                      None if raw is None else draw(floats))
            for metric, computed, raw in (
                ("gdp_gain", summary.gdp_gain, summary.raw_gdp_gain),
                ("displacement", summary.displacement_rate, summary.raw_displacement_rate))
            if draw(st.booleans())]
    comparison = draw(st.sampled_from([None, tuple(gaps), tuple(reversed(gaps))]))
    return dataclasses.replace(result, scenario=draw(texts),
                               mode=draw(st.sampled_from(SimulationMode)),
                               summary=summary, target_comparison=comparison)


def written(write, rows, header=_TIMESERIES_COLUMNS) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "t.csv"
        write(path, header, rows)
        return path.read_bytes()


@pytest.fixture(scope="module")
def results(cfg, params, state0, baseline, sectors):
    return tuple(run_scenario(scenario, params, state0, baseline, sectors)
                 for scenario in cfg.scenarios)


@pytest.fixture(scope="module")
def bundle(cfg, results):
    return build_output_bundle(cfg, results)


@pytest.fixture(scope="module")
def sensitivity(cfg, params, state0, baseline):
    return one_at_a_time(cfg.scenario("baseline"), params, state0, baseline)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


class TestManifest:
    def test_full_bundle_names(self, bundle, tmp_path):
        manifest = write_outputs(bundle, tmp_path)
        names = [path.name for path in manifest]
        assert names == sorted([
            "baseline_timeseries.csv", "figure1_data.csv",
            "high_adoption_timeseries.csv", "low_adoption_timeseries.csv",
            "null_shock_timeseries.csv", "productivity_spillover_timeseries.csv",
            "staged_adoption_timeseries.csv", "summary.csv", "summary.json",
        ])
        assert all(path.parent == tmp_path for path in manifest)

    def test_csv_only(self, bundle, tmp_path):
        manifest = write_outputs(bundle, tmp_path, formats=["csv"])
        names = {path.name for path in manifest}
        assert "summary.json" not in names
        assert "summary.csv" in names

    def test_json_only(self, bundle, tmp_path):
        manifest = write_outputs(bundle, tmp_path, formats=["json"])
        names = {path.name for path in manifest}
        assert names == {"summary.json"}

    def test_unknown_format_rejected(self, bundle, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_outputs(bundle, tmp_path, formats=["xml"])

    def test_reruns_are_byte_identical(self, bundle, tmp_path):
        first = write_outputs(bundle, tmp_path / "a")
        second = write_outputs(bundle, tmp_path / "b")
        for path_a, path_b in zip(first, second):
            assert path_a.name == path_b.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_lf_terminators_no_cr(self, bundle, tmp_path):
        for path in write_outputs(bundle, tmp_path):
            data = path.read_bytes()
            assert b"\r" not in data
            assert data.endswith(b"\n")

    def test_empty_results_still_write_headers(self, tmp_path):
        manifest = write_outputs(OutputBundle(results=()), tmp_path)
        summary_csv = tmp_path / "summary.csv"
        assert summary_csv in manifest
        lines = summary_csv.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("scenario,")
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["scenarios"] == []


class TestSummaryCsv:
    def test_gap_columns(self, bundle, tmp_path):
        write_outputs(bundle, tmp_path, formats=["csv"])
        rows = {row["scenario"]: row for row in read_csv(tmp_path / "summary.csv")}
        high = rows["high_adoption"]
        assert abs(float(high["gdp_gain_gap"])) <= 1e-9
        assert abs(float(high["displacement_gap"])) <= 1e-9
        assert float(high["raw_gdp_gain"]) == pytest.approx(0.0488088, abs=1e-6)
        assert float(high["raw_gdp_gain_gap"]) == \
            pytest.approx(0.0488088 - 0.025, abs=1e-6)

    def test_scenarios_without_targets_leave_cells_empty(self, bundle, tmp_path):
        write_outputs(bundle, tmp_path, formats=["csv"])
        rows = {row["scenario"]: row for row in read_csv(tmp_path / "summary.csv")}
        null = rows["null_shock"]
        assert null["gdp_gain_target"] == ""
        assert null["gdp_gain_gap"] == ""
        assert null["raw_gdp_gain"] == ""

    def test_cells_round_trip_at_twelve_digits(self, bundle, results, tmp_path):
        write_outputs(bundle, tmp_path, formats=["csv"])
        rows = {row["scenario"]: row for row in read_csv(tmp_path / "summary.csv")}
        for result in results:
            row = rows[result.scenario]
            assert float(row["gdp_gain"]) == \
                pytest.approx(result.summary.gdp_gain, rel=1e-11, abs=1e-15)
            assert float(row["displaced_total"]) == \
                pytest.approx(result.summary.displaced_total, rel=1e-11, abs=1e-15)

    def test_row_order_follows_results(self, bundle, results, tmp_path):
        write_outputs(bundle, tmp_path, formats=["csv"])
        names = [row["scenario"] for row in read_csv(tmp_path / "summary.csv")]
        assert names == [result.scenario for result in results]


class TestTimeseriesAndFigure:
    def test_figure_rows_track_the_staged_scenario(self, bundle, tmp_path):
        write_outputs(bundle, tmp_path, formats=["csv"])
        rows = read_csv(tmp_path / "figure1_data.csv")
        assert [row["year"] for row in rows] == [str(y) for y in range(2025, 2031)]
        last = rows[-1]
        assert float(last["displaced_cumulative"]) == pytest.approx(50_000, rel=1e-6)
        assert float(last["jobs_created_cumulative"]) == \
            pytest.approx(32_000, rel=1e-6)

    def test_figure_omitted_when_scenario_not_run(self, cfg, results, tmp_path):
        only_baseline = [r for r in results if r.scenario == "baseline"]
        partial = build_output_bundle(cfg, only_baseline)
        assert partial.figure_scenario is None
        manifest = write_outputs(partial, tmp_path, formats=["csv"])
        assert "figure1_data.csv" not in {path.name for path in manifest}

    def test_timeseries_columns(self, bundle, tmp_path):
        write_outputs(bundle, tmp_path, formats=["csv"])
        rows = read_csv(tmp_path / "staged_adoption_timeseries.csv")
        assert len(rows) == 6
        assert list(rows[0]) == ["year", "theta", "tfp", "output",
                                 "output_gain_vs_baseline", "labor",
                                 "displacement_rate", "displaced_cumulative",
                                 "jobs_created_cumulative", "remittance_low",
                                 "remittance_high"]


class TestJsonPayloads:
    def test_summary_notes_and_content(self, bundle, results, tmp_path):
        write_outputs(bundle, tmp_path, formats=["json"])
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert RATIO_SPACE_NOTE in payload["notes"]
        assert any("baseline level" in note for note in payload["notes"])
        by_name = {entry["scenario"]: entry for entry in payload["scenarios"]}
        baseline_entry = by_name["baseline"]
        assert baseline_entry["sector_rates"]["construction"] == \
            pytest.approx(0.048, abs=1e-9)
        assert baseline_entry["headcounts"]["total"] == \
            pytest.approx(68_160, rel=1e-9)
        gaps = {g["metric"]: g for g in baseline_entry["target_comparison"]}
        assert gaps["gdp_gain"]["target"] == 0.015

    def test_null_values_serialize_as_json_null(self, bundle, tmp_path):
        write_outputs(bundle, tmp_path, formats=["json"])
        payload = json.loads((tmp_path / "summary.json").read_text())
        null_entry = next(e for e in payload["scenarios"]
                          if e["scenario"] == "null_shock")
        assert null_entry["raw_gdp_gain"] is None
        assert "target_comparison" not in null_entry

    def test_json_numbers_carry_at_most_12_significant_digits(self, bundle,
                                                              tmp_path):
        write_outputs(bundle, tmp_path, formats=["json"])
        numbers = []
        json.loads((tmp_path / "summary.json").read_text(), parse_float=numbers.append,
                   parse_int=numbers.append)
        assert len(numbers) > 100
        for text in numbers:
            mantissa = text.lstrip("-").split("e")[0].replace(".", "")
            assert len(mantissa.strip("0")) <= 12, text
        # the same digits the CSV files carry
        payload = json.loads((tmp_path / "summary.json").read_text())
        entry = next(e for e in payload["scenarios"] if e["scenario"] == "baseline")
        assert entry["displacement_rate"] == 0.032
        assert format_number(entry["gdp_gain"]) == \
            format_number(bundle.results[0].summary.gdp_gain)

    def test_json_layout_matches_the_standard_encoder(self):
        import math
        from robolabor.report import _json_chunks

        def rounded(node):
            if isinstance(node, float) and math.isfinite(node):
                return float(format(node, ".12g"))
            if isinstance(node, dict):
                return {key: rounded(value) for key, value in node.items()}
            if isinstance(node, (list, tuple)):
                return [rounded(value) for value in node]
            return node

        payload = {"floats": [0.1 + 0.2, -0.0, 1e300, 5.4e12, 1e16, 68159.99999997951,
                              math.nan, math.inf, -math.inf],
                   "nested": {"a": {}, "b": [], "c": [[], {"d": (1, 2.5)}],
                              "ratio": 0.03199999999999037},
                   "scalars": [None, True, False, 3, "caf\u00e9 \"q\""],
                   "empty": {}}
        for node in (payload, [], {}, [0.1 + 0.2, "x"]):
            assert "".join(_json_chunks(node)) == json.dumps(rounded(node), indent=2)

    @given(st.recursive(
        st.one_of(floats, non_floats, texts),
        lambda children: st.one_of(st.lists(children, max_size=4),
                                   st.dictionaries(texts, children, max_size=4)),
        max_leaves=30))
    def test_json_matches_the_per_item_oracle(self, node):
        node = {"root": node}
        assert "".join(_json_chunks(node)) == "".join(oracle_json_chunks(node))

    @settings(max_examples=500)
    @given(floats)
    def test_json_float_text_matches_the_oracle(self, value):
        assert "".join(_json_chunks([value])) == "".join(oracle_json_chunks([value]))

    @given(float_dicts, float_dicts)
    def test_all_float_dicts_match_the_oracle(self, first, second):
        for node in ({"root": first}, {"scenarios": [{"rates": first, "k": [second]}]}):
            assert "".join(_json_chunks(node)) == "".join(oracle_json_chunks(node))

    @given(st.data(), float_dicts)
    def test_one_key_set_in_two_orders(self, data, first):
        second = dict(data.draw(st.permutations(list(first.items()))))
        # at one depth, as two scenarios' sector tables are
        for node in ({"scenarios": [{"rates": first}, {"rates": second}]},
                     {"root": [first, second, first]}):
            assert "".join(_json_chunks(node)) == "".join(oracle_json_chunks(node))

    @settings(max_examples=300)
    @given(st.lists(floats, min_size=1, max_size=40))
    def test_batched_floats_match_the_scalar_path(self, values):
        node = {str(i): value for i, value in enumerate(values)}
        scalar = ",\n  ".join(f'"{i}": ' + _json_text(value, "\n  ", {})
                              for i, value in enumerate(values))
        assert _json_text(node, "\n", {}) == "{\n  " + scalar + "\n}"


class TestSensitivityCsv:
    def test_standalone_writer(self, sensitivity, tmp_path):
        path = write_sensitivity_csv(sensitivity, tmp_path)
        assert path.name == "sensitivity.csv"
        rows = read_csv(path)
        assert len(rows) == 7
        assert rows[0]["error"] == ""

    def test_nan_cells_written_as_nan(self, tmp_path, sensitivity):
        import dataclasses
        import math
        broken = dataclasses.replace(sensitivity[0],
                                     low_result=math.nan, swing=math.nan,
                                     error="low perturbation invalid: x")
        path = write_sensitivity_csv([broken], tmp_path)
        (row,) = read_csv(path)
        assert row["low_result"] == "nan"
        assert row["swing"] == "nan"
        assert row["error"] == "low perturbation invalid: x"


class TestFormatNumber:
    @pytest.mark.parametrize("value,expected", [
        (None, ""), (0.5, "0.5"), (42, "42"), (True, "true"),
        (0.032, "0.032"), (5.4e9, "5400000000"),
        (0.8359414556123456, "0.835941455612"),
    ])
    def test_cells(self, value, expected):
        assert format_number(value) == expected

    def test_nan(self):
        assert format_number(float("nan")) == "nan"

    def test_other_numbers_take_the_float_format(self):
        assert format_number(Decimal("1.5")) == "1.5"
        assert format_number(Decimal("0.12345678901234")) == "0.123456789012"


class TestSummaryTable:
    def test_renders_percentages(self, results):
        table = summary_table(results)
        lines = table.splitlines()
        assert lines[0].startswith("scenario")
        assert any("baseline" in line and "2.4695%" in line for line in lines)
        assert len(lines) == 1 + len(results)

    def test_matches_the_oracle_on_the_bundled_runs(self, results):
        assert summary_table(results) == oracle_summary_table(results)
        assert summary_table(()) == oracle_summary_table(())

    @given(st.data())
    def test_matches_the_oracle(self, results, data):
        drawn = [data.draw(summarized(result))
                 for result in data.draw(st.lists(st.sampled_from(results), max_size=4))]
        assert summary_table(drawn) == oracle_summary_table(drawn)


class TestWriterOracle:
    """Rows written by the templates or the per-cell path give the oracle's bytes."""

    @given(st.lists(st.tuples(years, *[value_cells] * 10), max_size=8))
    def test_timeseries_rows(self, results, rows):
        result = dataclasses.replace(results[0],
                                     records=tuple(YearRecord(*row) for row in rows))
        bundle = OutputBundle(results=(result,), figure_scenario=result.scenario)
        with tempfile.TemporaryDirectory() as directory:
            write_outputs(bundle, directory, ["csv"])
            timeseries = (Path(directory) / f"{result.scenario}_timeseries.csv").read_bytes()
            figure = (Path(directory) / "figure1_data.csv").read_bytes()
        assert timeseries == written(oracle_write_csv, rows)
        assert figure == written(oracle_write_csv, [(r[0], r[7], r[8]) for r in rows],
                                 ("year", "displaced_cumulative",
                                  "jobs_created_cumulative"))

    @given(st.lists(st.lists(st.one_of(texts, value_cells), min_size=len(_SUMMARY_COLUMNS),
                             max_size=len(_SUMMARY_COLUMNS)), max_size=6))
    def test_rows_with_strings(self, rows):
        assert (written(_write_csv, rows, _SUMMARY_COLUMNS)
                == written(oracle_write_csv, rows, _SUMMARY_COLUMNS))

    @given(st.lists(st.tuples(texts, texts, *[value_cells] * 10,
                              st.one_of(texts, st.none())), max_size=6))
    def test_sensitivity_records(self, rows):
        records = [SensitivityRecord(*row) for row in rows]
        with tempfile.TemporaryDirectory() as directory:
            got = write_sensitivity_csv(records, directory).read_bytes()
        expected = [row[:-1] + (row[-1] or "",) for row in rows]
        columns = tuple(field.name for field in dataclasses.fields(SensitivityRecord))
        assert got == written(oracle_write_csv, expected, columns)

    @given(floats)
    def test_template_float_text(self, value):
        # the template's field and format_number agree on every float
        assert "%.12g" % value == format_number(value) == oracle_format_number(value)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestAgainstReference:
    """Written files agree with the benchmark's independent reference model.

    ``perfbench/checks.py::check_output_files`` reads every file
    ``write_outputs`` wrote back and compares it to ``reference.simulate``:
    the file set, each timeseries, both summaries, the sector split and the
    figure. The configs are the bundled one and the benchmark's wide
    (240 sectors, caps binding) and horizon-sweep ones at two seeds.
    ``summary.json`` must also equal ``oracle_json_chunks``' bytes.
    """

    @pytest.fixture(scope="class")
    def bench(self, load_perfbench):
        reference = load_perfbench("reference")
        with pytest.MonkeyPatch.context() as patch:
            # gen imports the reference model by its bare module name
            patch.setitem(sys.modules, "reference", reference)
            gen = load_perfbench("gen")
        return gen, reference, load_perfbench("checks")

    @pytest.mark.parametrize("inputs, seed", [("wide", 1), ("wide", 5), ("sweep", 1),
                                              ("sweep", 5), ("bundled", None)])
    def test_written_files_match_reference(self, bench, tmp_path, inputs, seed):
        gen, reference, checks = bench
        cfg = gen.bundled_config(PERFBENCH.parent)
        if inputs != "bundled":
            cfg = getattr(gen, f"{inputs}_inputs")(seed, cfg)["cfg"]
        config = loads_config(gen.to_yaml(cfg), source=inputs)
        results = [run_scenario(scenario, config.params, config.initial_state,
                                config.baseline, config.sectors)
                   for scenario in config.scenarios]
        bundle = build_output_bundle(config, results)
        assert summary_table(results) == oracle_summary_table(results)
        write_outputs(bundle, tmp_path)
        expected = "".join(oracle_json_chunks(_summary_payload(results))) + "\n"
        assert (tmp_path / "summary.json").read_bytes() == expected.encode("utf-8")
        checks.check_output_files(checks.read_dir(tmp_path),
                                  [reference.simulate(cfg, s) for s in cfg["scenarios"]],
                                  cfg.get("sectors") or [], bundle.figure_scenario)
