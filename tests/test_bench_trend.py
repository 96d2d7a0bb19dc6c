"""``tools/bench_trend.py`` compounds the committed BENCH files' ratios."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_trend():
    spec = importlib.util.spec_from_file_location("bench_trend",
                                                  ROOT / "tools" / "bench_trend.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compound_ratios_over_changes_16_to_20(bench_trend):
    # the products of the change/parent medians in BENCH_16, _18, _19 and
    # _20.json, as computed by hand when the drift was first noticed
    result = bench_trend.trend(ROOT, 16, 20)
    ratios = {(row["workload"], row["metric"]): row for row in result["rows"]}
    sweep = ratios["horizon_sweep", "solves_per_s"]
    assert sweep["ratio"] == pytest.approx(0.910, abs=1e-3)
    assert [number for number, _, _ in sweep["steps"]] == [16, 18, 19, 20]
    assert ratios["wide_sectors_analysis", "tornados_per_s"]["ratio"] == pytest.approx(
        1.861, abs=1e-3)
    assert result["missing"] == [17] and result["skipped"] == []
    # wide's solves lost 11%, beyond half the 20% bound; sweep's 9% is not
    assert ratios["wide_sectors_analysis", "solves_per_s"]["flagged"]
    assert not sweep["flagged"]


def test_command_names_missing_and_skipped_files(bench_trend, capsys):
    assert bench_trend.main(["--from", "16", "--to", "20"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("changes 16-20; no BENCH file: 17\n")
    assert "flagged: wide_sectors_analysis solves_per_s compounds to x0.890" in err
    bench_trend.main(["--from", "9", "--to", "11"])
    assert "skipped, older single-workload schema: 9, 10\n" in capsys.readouterr().out

