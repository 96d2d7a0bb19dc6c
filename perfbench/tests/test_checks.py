"""Each benchmark check accepts the program's real output and rejects a corrupted one.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import gen
import reference
import robolabor
from checks import Mismatch

ROOT = Path(__file__).resolve().parents[2]
BUNDLED = gen.bundled_config(ROOT)
CONFIG = robolabor.load_config("default")
SECTORS = BUNDLED["sectors"]


def run(name, config=CONFIG):
    scenario = config.scenario(name)
    return robolabor.run_scenario(scenario, config.params, config.initial_state,
                                  config.baseline, config.sectors)


def ref(name, cfg=BUNDLED):
    return reference.simulate(cfg, next(s for s in cfg["scenarios"] if s["name"] == name))


def bump(value, factor=1 + 1e-6):
    return value * factor


# ---------------------------------------------------------------------------
# scenario results
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", [s.name for s in CONFIG.scenarios])
def test_real_results_pass(name):
    checks.check_result(run(name), ref(name), SECTORS)


def test_corrupted_record_is_rejected():
    result = run("staged_adoption")
    records = list(result.records)
    records[3] = replace(records[3], output=bump(records[3].output))
    with pytest.raises(Mismatch, match="output"):
        checks.check_result(replace(result, records=tuple(records)),
                            ref("staged_adoption"), SECTORS)


def test_corrupted_summary_is_rejected():
    result = run("baseline")
    summary = replace(result.summary, gdp_gain=bump(result.summary.gdp_gain))
    with pytest.raises(Mismatch, match="gdp_gain"):
        checks.check_result(replace(result, summary=summary), ref("baseline"), SECTORS)


def test_corrupted_headcount_is_rejected():
    result = run("baseline")
    heads = replace(result.headcounts, expat=bump(result.headcounts.expat))
    with pytest.raises(Mismatch, match="expat"):
        checks.check_result(replace(result, headcounts=heads), ref("baseline"), SECTORS)


def test_corrupted_target_gap_is_rejected():
    result = run("high_adoption")
    gaps = list(result.target_comparison)
    gaps[0] = replace(gaps[0], gap=gaps[0].gap + 1e-6)
    with pytest.raises(Mismatch, match="gap"):
        checks.check_result(replace(result, target_comparison=tuple(gaps)),
                            ref("high_adoption"), SECTORS)


# ---------------------------------------------------------------------------
# sector split
# ---------------------------------------------------------------------------

def test_split_mean_must_equal_national_rate():
    result = run("baseline")
    rates = dict(result.sector_rates)
    rates["construction"] = bump(rates["construction"])
    with pytest.raises(Mismatch, match="weighted sector mean"):
        checks.check_split(rates, result.summary.displacement_rate, SECTORS, None)


def test_split_rate_above_cap_is_rejected():
    rates = {s["name"]: 0.0 for s in SECTORS}
    rates["agriculture"] = 0.06  # cap 0.05
    national = sum(s["employment_share"] * rates[s["name"]] for s in SECTORS)
    with pytest.raises(Mismatch, match="outside"):
        checks.check_split(rates, national, SECTORS, None)


def test_split_must_match_uncapped_reference():
    result = run("baseline")
    rates = dict(result.sector_rates)
    # move weight between two sectors without changing the mean
    shares = {s["name"]: s["employment_share"] for s in SECTORS}
    rates["construction"] += 1e-6 / shares["construction"]
    rates["other_services"] -= 1e-6 / shares["other_services"]
    uncapped = reference.uncapped_split(result.summary.displacement_rate, SECTORS)
    with pytest.raises(Mismatch, match="sector construction rate"):
        checks.check_split(rates, result.summary.displacement_rate, SECTORS, uncapped)


def test_capped_result_rejects_rate_above_cap():
    result = run("baseline")
    rates = dict(result.sector_rates, agriculture=0.5)
    with pytest.raises(Mismatch, match="above its cap"):
        checks.check_capped_result(replace(result, sector_rates=rates), ref("baseline"),
                                   SECTORS)


# ---------------------------------------------------------------------------
# tornados
# ---------------------------------------------------------------------------

def tornado(name="staged_adoption", perturbation=0.1):
    scenario = CONFIG.scenario(name)
    records = robolabor.one_at_a_time(scenario, CONFIG.params, CONFIG.initial_state,
                                      CONFIG.baseline, robolabor.default_specs(perturbation),
                                      CONFIG.sectors)
    scn = next(s for s in BUNDLED["scenarios"] if s["name"] == name)
    return records, reference.tornado(BUNDLED, scn, perturbation)


@pytest.mark.parametrize("name", ["baseline", "low_adoption", "staged_adoption"])
def test_real_tornado_passes(name):
    records, rows = tornado(name, 0.2)
    checks.check_tornado(records, rows)


def test_corrupted_tornado_result_is_rejected():
    records, rows = tornado()
    records[0] = replace(records[0], high_result=bump(records[0].high_result),
                         swing=bump(records[0].high_result) - records[0].low_result)
    with pytest.raises(Mismatch, match="high_result"):
        checks.check_tornado(records, rows)


def test_swing_must_be_high_minus_low():
    records, rows = tornado()
    records[0] = replace(records[0], swing=records[0].swing * (1 + 1e-15) + 1e-18)
    with pytest.raises(Mismatch, match="swing"):
        checks.check_tornado(records, rows)


def test_tornado_order_is_enforced():
    records, rows = tornado()
    records[0], records[1] = records[1], records[0]
    with pytest.raises(Mismatch, match="order"):
        checks.check_tornado(records, rows)


def test_invalid_side_must_match_reference():
    records, rows = tornado()
    failed = next(r for r in records if r.error)
    records[records.index(failed)] = replace(failed, error=None)
    with pytest.raises(Mismatch, match="invalid sides"):
        checks.check_tornado(records, rows)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def written(tmp_path_factory):
    directory = tmp_path_factory.mktemp("out")
    results = [run(s.name) for s in CONFIG.scenarios]
    robolabor.write_outputs(robolabor.build_output_bundle(CONFIG, results), directory)
    return checks.read_dir(directory)


def check_files(files):
    refs = [ref(s.name) for s in CONFIG.scenarios]
    checks.check_output_files(files, refs, SECTORS, CONFIG.output.figure_scenario)


def test_real_files_pass(written):
    check_files(written)


def test_crlf_is_rejected(written):
    files = dict(written, **{"summary.csv": written["summary.csv"].replace(b"\n", b"\r\n")})
    with pytest.raises(Mismatch, match="CR"):
        check_files(files)


def test_thirteen_digit_number_is_rejected():
    with pytest.raises(Mismatch, match="12 significant digits"):
        checks.check_file_format(Path("x.csv"), b"a,b\n1.23456789012,0.1234567890123\n")
    checks.check_file_format(Path("x.csv"), b"a,b\n45000000000,1.23456789012e-15\n")


def _replace_cell(data: bytes, row: int, column: str, value: str) -> bytes:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def test_corrupted_timeseries_cell_is_rejected(written):
    name = "staged_adoption_timeseries.csv"
    files = dict(written, **{name: _replace_cell(written[name], 2, "labor", "2101000.01")})
    with pytest.raises(Mismatch, match="labor"):
        check_files(files)


def test_corrupted_summary_csv_is_rejected(written):
    files = dict(written, **{"summary.csv": _replace_cell(written["summary.csv"], 1,
                                                         "jobs_created", "15676.9")})
    with pytest.raises(Mismatch, match="jobs_created"):
        check_files(files)


def test_corrupted_summary_json_is_rejected(written):
    payload = json.loads(written["summary.json"])
    payload["scenarios"][0]["sector_rates"]["construction"] *= 1.001
    files = dict(written, **{"summary.json": (json.dumps(payload, indent=2) + "\n").encode()})
    with pytest.raises(Mismatch, match="sector"):
        check_files(files)


def test_missing_file_is_rejected(written):
    files = {k: v for k, v in written.items() if k != "figure1_data.csv"}
    with pytest.raises(Mismatch, match="written files"):
        check_files(files)


def test_reruns_must_be_byte_identical(written):
    checks.check_identical(dict(written), written, "rerun")
    files = dict(written, **{"summary.json": written["summary.json"] + b" "})
    with pytest.raises(Mismatch, match="summary.json differs"):
        checks.check_identical(files, written, "rerun")


def test_corrupted_sensitivity_csv_is_rejected(tmp_path):
    records, rows = tornado()
    path = robolabor.write_sensitivity_csv(records, tmp_path)
    data = path.read_bytes()
    checks.check_sensitivity_csv(data, rows)
    broken = _replace_cell(data, 1, "swing", "1")
    with pytest.raises(Mismatch, match="swing"):
        checks.check_sensitivity_csv(broken, rows)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_solve_that_misses_its_target_is_rejected():
    assert checks.solve_reproduces(0.03 + 1e-12, 0.03) is None
    assert "engine gap" in checks.solve_reproduces(0.268, 0.03)


def test_residual_must_equal_engine_gap():
    # a closed form that reports a near-zero residual while the engine misses
    assert "engine gap" in checks.solve_reproduces(0.268, 0.03, residual=3e-17)
    assert "reported residual" in checks.solve_reproduces(0.03 + 8e-10, 0.03,
                                                          residual=-8e-10)


def test_closed_forms_match_the_paper():
    for spec in ({"kind": "theta", "gain": 0.02, "growth": 0.05},
                 {"kind": "sigma", "displacement": 0.032, "cost_ratio": 1.05},
                 {"kind": "exposure", "displacement": 0.03, "cost_ratio": 1.1, "sigma": 0.7},
                 {"kind": "cost_ratio", "displacement": 0.03, "sigma": 0.7, "exposure": 0.8}):
        program = {"theta": lambda: robolabor.implied_theta(0.02, 0.05),
                   "sigma": lambda: robolabor.implied_sigma(0.032, 1.05),
                   "exposure": lambda: robolabor.implied_exposure(0.03, 1.1, 0.7),
                   "cost_ratio": lambda: robolabor.implied_cost_ratio(0.03, 0.7, 0.8)}
        assert checks.close(program[spec["kind"]](), gen.closed_form(spec))
        assert not checks.close(program[spec["kind"]]() * (1 + 1e-6), gen.closed_form(spec))


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [gen.sweep_inputs, gen.wide_inputs])
def test_generator_is_seeded(make):
    assert gen.to_yaml(make(7, BUNDLED)["cfg"]) == gen.to_yaml(make(7, BUNDLED)["cfg"])
    assert gen.to_yaml(make(7, BUNDLED)["cfg"]) != gen.to_yaml(make(8, BUNDLED)["cfg"])


def test_generated_cost_paths_never_fall():
    for make in (gen.sweep_inputs, gen.wide_inputs):
        for scn in make(3, BUNDLED)["cfg"]["scenarios"]:
            path = scn["cost_ratio_path"]
            if isinstance(path, list):
                assert all(b >= a for a, b in zip(path, path[1:]))


def test_over_cap_inputs_exceed_the_cap_sum():
    fault = gen.fault_inputs(BUNDLED)
    for scn in fault["cfg"]["scenarios"]:
        assert not reference.simulate(fault["cfg"], scn)["feasible"]


def test_wide_tornados_stay_below_the_cap_sum():
    inputs = gen.wide_inputs(5, BUNDLED)
    cfg = inputs["cfg"]
    for name, perturbation in inputs["tornados"]:
        scn = next(s for s in cfg["scenarios"] if s["name"] == name)
        rows = reference.tornado(cfg, scn, perturbation)
        assert all(not row["invalid"] for row in rows.values())
        assert not any(math.isnan(row["swing"]) for row in rows.values())
