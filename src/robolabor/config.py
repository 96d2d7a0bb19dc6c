"""Config ingestion, validation and emission.

Configs are YAML mappings with a fixed schema (see docs/config_schema.md).
Validation is strict: unknown keys are rejected, every error names the
offending field by its dotted path, and parse failures carry line and
column. ``dump_config`` emits YAML that loads back to an equal
:class:`RunConfig`, so configs round-trip.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .core import EconomyState, ModelParams, StaticTheta, ThetaMode, ThetaRamp
from .engine import RawShocks, Scenario, TargetSet, _effective_params
from .errors import ConfigError, DomainError
from .sectors import (
    JobCreationModel,
    JobCreationRamp,
    JobCreationRatio,
    LaborBaseline,
    Readiness,
    SectorProfile,
    _check_sector_table,
)

__all__ = [
    "OutputOptions",
    "RunConfig",
    "load_config",
    "loads_config",
    "dump_config",
    "default_config_path",
]

_FORMATS = ("csv", "json")

# libyaml's C parser when PyYAML was built with it. Both loaders share
# PyYAML's SafeConstructor and Resolver, so they build the same document.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


@dataclass(frozen=True)
class OutputOptions:
    """Where and in which formats result files are written."""

    directory: str = "out"
    formats: tuple[str, ...] = _FORMATS
    figure_scenario: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run setup: parameters, datasets and scenarios."""

    params: ModelParams
    initial_state: EconomyState
    baseline: LaborBaseline
    sectors: tuple[SectorProfile, ...] = ()
    tasks: dict[str, tuple[dict, ...]] = None  # type: ignore[assignment]
    scenarios: tuple[Scenario, ...] = ()
    output: OutputOptions = OutputOptions()
    dataset_version: int = 1

    def __post_init__(self) -> None:
        if self.tasks is None:
            object.__setattr__(self, "tasks", {})

    def scenario(self, name: str) -> Scenario:
        """Look up a scenario by name; raises ConfigError when absent."""
        for candidate in self.scenarios:
            if candidate.name == name:
                return candidate
        known = ", ".join(s.name for s in self.scenarios) or "none"
        raise ConfigError(f"unknown scenario {name!r}; configured: {known}",
                          path="scenarios")


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _check_keys(node: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}", path=path)


def _as_map(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"expected a mapping, got {type(node).__name__}", path=path)
    return node


def _as_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigError(f"expected a list, got {type(node).__name__}", path=path)
    return node


def _as_float(node: Any, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"expected a number, got {node!r}", path=path)
    try:
        value = float(node)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {node!r}", path=path)
    return value


def _as_int(node: Any, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"expected an integer, got {node!r}", path=path)
    return node


def _as_bool(node: Any, path: str) -> bool:
    if not isinstance(node, bool):
        raise ConfigError(f"expected a boolean, got {node!r}", path=path)
    return node


def _as_str(node: Any, path: str) -> str:
    if not isinstance(node, str):
        raise ConfigError(f"expected a string, got {node!r}", path=path)
    return node


def _get(node: dict, key: str, path: str) -> Any:
    if key not in node:
        raise ConfigError(f"missing required key {key!r}", path=path)
    return node[key]


def _domain_checked(builder, path: str):
    try:
        return builder()
    except DomainError as exc:
        raise ConfigError(str(exc), path=path) from exc


def _parse_theta(node: Any, path: str) -> ThetaMode:
    node = _as_map(node, path)
    mode = _as_str(_get(node, "mode", path), f"{path}.mode")
    if mode == "static":
        _check_keys(node, {"mode", "value"}, path)
        value = _as_float(_get(node, "value", path), f"{path}.value")
        return _domain_checked(lambda: StaticTheta(value), path)
    if mode == "ramp":
        _check_keys(node, {"mode", "start", "end", "ramp_years"}, path)
        start = _as_float(_get(node, "start", path), f"{path}.start")
        end = _as_float(_get(node, "end", path), f"{path}.end")
        years = _as_int(_get(node, "ramp_years", path), f"{path}.ramp_years")
        return _domain_checked(lambda: ThetaRamp(start, end, years), path)
    raise ConfigError(f"theta mode must be 'static' or 'ramp', got {mode!r}",
                      path=f"{path}.mode")


def _parse_params(node: Any, path: str) -> ModelParams:
    node = _as_map(node, path)
    _check_keys(node, {"alpha", "theta", "sigma", "tfp_boost_per_adoption_pct",
                       "exposure_share"}, path)
    alpha = _as_float(_get(node, "alpha", path), f"{path}.alpha")
    theta = _parse_theta(_get(node, "theta", path), f"{path}.theta")
    sigma = _as_float(_get(node, "sigma", path), f"{path}.sigma")
    boost = _as_float(node.get("tfp_boost_per_adoption_pct", 0.002),
                      f"{path}.tfp_boost_per_adoption_pct")
    exposure = _as_float(node.get("exposure_share", 1.0), f"{path}.exposure_share")
    return _domain_checked(
        lambda: ModelParams(alpha=alpha, theta=theta, sigma=sigma,
                            tfp_boost_per_adoption_pct=boost,
                            exposure_share=exposure), path)


def _parse_baseline(node: Any, path: str) -> LaborBaseline:
    node = _as_map(node, path)
    _check_keys(node, {"total_labor_force", "expat_share", "sector_shares",
                       "min_wage", "low_wage_headcount", "remittance_base",
                       "remittance_decline_band", "remittance_reference_rate"}, path)
    shares_node = _as_map(_get(node, "sector_shares", path), f"{path}.sector_shares")
    shares = {}
    for name, value in shares_node.items():
        shares[_as_str(name, f"{path}.sector_shares")] = _as_float(
            value, f"{path}.sector_shares.{name}")
    band_node = _as_list(node.get("remittance_decline_band", [0.12, 0.18]),
                         f"{path}.remittance_decline_band")
    if len(band_node) != 2:
        raise ConfigError("expected exactly two entries",
                          path=f"{path}.remittance_decline_band")
    band = tuple(_as_float(v, f"{path}.remittance_decline_band[{i}]")
                 for i, v in enumerate(band_node))
    return _domain_checked(lambda: LaborBaseline(
        total_labor_force=_as_float(_get(node, "total_labor_force", path),
                                    f"{path}.total_labor_force"),
        expat_share=_as_float(_get(node, "expat_share", path), f"{path}.expat_share"),
        sector_shares=shares,
        min_wage=_as_float(_get(node, "min_wage", path), f"{path}.min_wage"),
        low_wage_headcount=_as_float(_get(node, "low_wage_headcount", path),
                                     f"{path}.low_wage_headcount"),
        remittance_base=_as_float(_get(node, "remittance_base", path),
                                  f"{path}.remittance_base"),
        remittance_decline_band=band,
        remittance_reference_rate=_as_float(
            node.get("remittance_reference_rate", 0.032),
            f"{path}.remittance_reference_rate"),
    ), path)


def _parse_state(node: Any, baseline: LaborBaseline, path: str) -> EconomyState:
    if node is None:
        return EconomyState(year=2024, tfp=1.0, capital=1.0,
                            labor=baseline.total_labor_force, robotics=1.0,
                            wage=baseline.min_wage, robot_cost=1.0)
    node = _as_map(node, path)
    _check_keys(node, {"year", "tfp", "capital", "labor", "robotics", "wage",
                       "robot_cost"}, path)
    return _domain_checked(lambda: EconomyState(
        year=_as_int(node.get("year", 2024), f"{path}.year"),
        tfp=_as_float(node.get("tfp", 1.0), f"{path}.tfp"),
        capital=_as_float(node.get("capital", 1.0), f"{path}.capital"),
        labor=_as_float(node.get("labor", baseline.total_labor_force), f"{path}.labor"),
        robotics=_as_float(node.get("robotics", 1.0), f"{path}.robotics"),
        wage=_as_float(node.get("wage", baseline.min_wage), f"{path}.wage"),
        robot_cost=_as_float(node.get("robot_cost", 1.0), f"{path}.robot_cost"),
    ), path)


def _parse_readiness(node: Any, path: str) -> Readiness:
    text = _as_str(node, path)
    try:
        return Readiness(text)
    except ValueError:
        raise ConfigError(
            f"readiness must be one of {[r.value for r in Readiness]}, got {text!r}",
            path=path) from None


def _parse_sector(node: Any, path: str) -> SectorProfile:
    node = _as_map(node, path)
    _check_keys(node, {"name", "employment_share", "risk_multiplier",
                       "automation_potential", "readiness", "readiness_score",
                       "residual", "notes"}, path)
    multiplier_node = _get(node, "risk_multiplier", path)
    multiplier = (None if multiplier_node is None
                  else _as_float(multiplier_node, f"{path}.risk_multiplier"))
    score = node.get("readiness_score")
    return _domain_checked(lambda: SectorProfile(
        name=_as_str(_get(node, "name", path), f"{path}.name"),
        employment_share=_as_float(_get(node, "employment_share", path),
                                   f"{path}.employment_share"),
        risk_multiplier=multiplier,
        automation_potential=_as_float(_get(node, "automation_potential", path),
                                       f"{path}.automation_potential"),
        readiness=_parse_readiness(_get(node, "readiness", path), f"{path}.readiness"),
        readiness_score=(None if score is None
                         else _as_float(score, f"{path}.readiness_score")),
        residual=_as_bool(node.get("residual", False), f"{path}.residual"),
        notes=_as_str(node.get("notes", ""), f"{path}.notes"),
    ), path)


def _parse_sectors(node: Any, path: str) -> tuple[SectorProfile, ...]:
    sectors = tuple(_parse_sector(entry, f"{path}[{i}]")
                    for i, entry in enumerate(_as_list(node, path)))
    _domain_checked(lambda: _check_sector_table(sectors), path)
    return sectors


def _parse_tasks(node: Any, path: str) -> dict[str, tuple[dict, ...]]:
    node = _as_map(node, path)
    tasks: dict[str, tuple[dict, ...]] = {}
    for domain, entries in node.items():
        domain = _as_str(domain, path)
        rows = []
        for i, entry in enumerate(_as_list(entries, f"{path}.{domain}")):
            epath = f"{path}.{domain}[{i}]"
            entry = _as_map(entry, epath)
            _check_keys(entry, {"name", "displacement_risk", "automation_potential",
                                "readiness", "notes"}, epath)
            row = {"name": _as_str(_get(entry, "name", epath), f"{epath}.name"),
                   "readiness": _parse_readiness(_get(entry, "readiness", epath),
                                                 f"{epath}.readiness").value}
            for key in ("displacement_risk", "automation_potential"):
                if key in entry:
                    value = _as_float(entry[key], f"{epath}.{key}")
                    if not 0 <= value <= 1:
                        raise ConfigError(f"must lie in [0, 1], got {value}",
                                          path=f"{epath}.{key}")
                    row[key] = value
            if "notes" in entry:
                row["notes"] = _as_str(entry["notes"], f"{epath}.notes")
            rows.append(row)
        tasks[domain] = tuple(rows)
    return tasks


def _parse_job_creation(node: Any, path: str) -> JobCreationModel:
    node = _as_map(node, path)
    mode = _as_str(_get(node, "mode", path), f"{path}.mode")
    if mode == "ratio":
        _check_keys(node, {"mode", "ratio"}, path)
        return _domain_checked(
            lambda: JobCreationRatio(_as_float(node.get("ratio", 0.23),
                                               f"{path}.ratio")), path)
    if mode == "ramp":
        _check_keys(node, {"mode", "terminal_ratio"}, path)
        return _domain_checked(
            lambda: JobCreationRamp(_as_float(node.get("terminal_ratio", 0.64),
                                              f"{path}.terminal_ratio")), path)
    raise ConfigError(f"job_creation mode must be 'ratio' or 'ramp', got {mode!r}",
                      path=f"{path}.mode")


def _parse_path_values(node: Any, path: str):
    if isinstance(node, list):
        return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(node))
    return _as_float(node, path)


def _parse_scenario(node: Any, path: str) -> Scenario:
    node = _as_map(node, path)
    _check_keys(node, {"name", "mode", "horizon", "robotics_growth",
                       "cost_ratio_path", "sigma", "theta", "exposure_share",
                       "tfp_enabled", "job_creation", "key_driver", "targets",
                       "raw_shocks"}, path)
    horizon_node = _as_list(_get(node, "horizon", path), f"{path}.horizon")
    if len(horizon_node) != 2:
        raise ConfigError("horizon must be a [start, end] pair", path=f"{path}.horizon")
    horizon = tuple(_as_int(v, f"{path}.horizon[{i}]")
                    for i, v in enumerate(horizon_node))
    sigma = node.get("sigma")
    theta = node.get("theta")
    exposure = node.get("exposure_share")
    targets_node = node.get("targets")
    targets = None
    if targets_node is not None:
        targets_node = _as_map(targets_node, f"{path}.targets")
        _check_keys(targets_node, {"gdp_gain", "displacement"}, f"{path}.targets")
        targets = _domain_checked(lambda: TargetSet(
            gdp_gain=(None if "gdp_gain" not in targets_node else
                      _as_float(targets_node["gdp_gain"], f"{path}.targets.gdp_gain")),
            displacement=(None if "displacement" not in targets_node else
                          _as_float(targets_node["displacement"],
                                    f"{path}.targets.displacement")),
        ), f"{path}.targets")
    raw_node = node.get("raw_shocks")
    raw = None
    if raw_node is not None:
        raw_node = _as_map(raw_node, f"{path}.raw_shocks")
        _check_keys(raw_node, {"robotics_growth", "cost_ratio"}, f"{path}.raw_shocks")
        raw = _domain_checked(lambda: RawShocks(
            robotics_growth=(None if "robotics_growth" not in raw_node else
                             _as_float(raw_node["robotics_growth"],
                                       f"{path}.raw_shocks.robotics_growth")),
            cost_ratio=(None if "cost_ratio" not in raw_node else
                        _as_float(raw_node["cost_ratio"],
                                  f"{path}.raw_shocks.cost_ratio")),
        ), f"{path}.raw_shocks")
    return _domain_checked(lambda: Scenario(
        name=_as_str(_get(node, "name", path), f"{path}.name"),
        mode=_as_str(_get(node, "mode", path), f"{path}.mode"),
        horizon=horizon,
        robotics_growth=_parse_path_values(node.get("robotics_growth", 0.0),
                                           f"{path}.robotics_growth"),
        cost_ratio_path=_parse_path_values(node.get("cost_ratio_path", 1.0),
                                           f"{path}.cost_ratio_path"),
        sigma_override=None if sigma is None else _as_float(sigma, f"{path}.sigma"),
        theta_override=None if theta is None else _parse_theta(theta, f"{path}.theta"),
        exposure_override=(None if exposure is None
                           else _as_float(exposure, f"{path}.exposure_share")),
        tfp_enabled=_as_bool(node.get("tfp_enabled", False), f"{path}.tfp_enabled"),
        job_creation_model=(_parse_job_creation(node["job_creation"],
                                                f"{path}.job_creation")
                            if "job_creation" in node else JobCreationRatio()),
        key_driver=_as_str(node.get("key_driver", ""), f"{path}.key_driver"),
        targets=targets,
        raw_shocks=raw,
    ), path)


def _parse_output(node: Any, names: set[str], path: str) -> OutputOptions:
    if node is None:
        return OutputOptions()
    node = _as_map(node, path)
    _check_keys(node, {"directory", "formats", "figure_scenario"}, path)
    formats_node = node.get("formats", list(_FORMATS))
    formats = tuple(_as_str(v, f"{path}.formats[{i}]")
                    for i, v in enumerate(_as_list(formats_node, f"{path}.formats")))
    if not formats:
        raise ConfigError("formats must be nonempty", path=f"{path}.formats")
    for fmt in formats:
        if fmt not in _FORMATS:
            raise ConfigError(f"format must be one of {list(_FORMATS)}, got {fmt!r}",
                              path=f"{path}.formats")
    figure = node.get("figure_scenario")
    if figure is not None:
        figure = _as_str(figure, f"{path}.figure_scenario")
        if figure not in names:
            raise ConfigError(f"figure_scenario {figure!r} names no configured scenario",
                              path=f"{path}.figure_scenario")
    return OutputOptions(directory=_as_str(node.get("directory", "out"),
                                           f"{path}.directory"),
                         formats=formats, figure_scenario=figure)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def loads_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse and validate config YAML from a string."""
    try:
        data = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc)
        raise ConfigError(f"invalid YAML in {source}{where}: {problem}") from exc
    except ValueError as exc:
        # the constructor's int() and date() calls: an integer past Python's
        # digit limit, or an impossible calendar date
        raise ConfigError(f"invalid YAML in {source}: {exc}") from exc
    if data is None:
        raise ConfigError(f"{source} is empty")
    data = _as_map(data, "<root>")
    _check_keys(data, {"dataset_version", "params", "initial_state", "baseline",
                       "sectors", "tasks", "scenarios", "output"}, "<root>")
    version = _as_int(data.get("dataset_version", 1), "dataset_version")
    if version < 1:
        raise ConfigError(f"must be >= 1, got {version}", path="dataset_version")
    params = _parse_params(_get(data, "params", "<root>"), "params")
    baseline = _parse_baseline(_get(data, "baseline", "<root>"), "baseline")
    state = _parse_state(data.get("initial_state"), baseline, "initial_state")
    sectors = (_parse_sectors(data["sectors"], "sectors")
               if "sectors" in data else ())
    tasks = _parse_tasks(data.get("tasks", {}), "tasks")
    scenarios = tuple(_parse_scenario(entry, f"scenarios[{i}]")
                      for i, entry in enumerate(
                          _as_list(data.get("scenarios", []), "scenarios")))
    for i, scenario in enumerate(scenarios):
        _domain_checked(lambda: _effective_params(scenario, params, state),
                        f"scenarios[{i}]")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ConfigError("scenario names must be unique", path="scenarios")
    output = _parse_output(data.get("output"), set(names), "output")
    return RunConfig(params=params, initial_state=state, baseline=baseline,
                     sectors=sectors, tasks=tasks, scenarios=scenarios,
                     output=output, dataset_version=version)


def default_config_path() -> Path:
    """Filesystem path of the bundled default dataset."""
    return Path(str(importlib.resources.files(__package__) / "data"
                    / "default_config.yaml"))


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a config file; ``"default"`` loads the bundled dataset."""
    if str(path) == "default":
        path = default_config_path()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return loads_config(text, source=str(path))


def _theta_dict(theta: ThetaMode) -> dict:
    if isinstance(theta, StaticTheta):
        return {"mode": "static", "value": theta.value}
    return {"mode": "ramp", "start": theta.start, "end": theta.end,
            "ramp_years": theta.ramp_years}


def _path_value(value):
    return list(value) if isinstance(value, tuple) else value


def _scenario_dict(s: Scenario) -> dict:
    out: dict[str, Any] = {
        "name": s.name,
        "mode": s.mode.value,
        "horizon": list(s.horizon),
        "robotics_growth": _path_value(s.robotics_growth),
        "cost_ratio_path": _path_value(s.cost_ratio_path),
    }
    if s.sigma_override is not None:
        out["sigma"] = s.sigma_override
    if s.theta_override is not None:
        out["theta"] = _theta_dict(s.theta_override)
    if s.exposure_override is not None:
        out["exposure_share"] = s.exposure_override
    out["tfp_enabled"] = s.tfp_enabled
    model = s.job_creation_model
    if isinstance(model, JobCreationRatio):
        out["job_creation"] = {"mode": "ratio", "ratio": model.ratio}
    else:
        out["job_creation"] = {"mode": "ramp", "terminal_ratio": model.terminal_ratio}
    if s.key_driver:
        out["key_driver"] = s.key_driver
    if s.targets is not None:
        targets = {}
        if s.targets.gdp_gain is not None:
            targets["gdp_gain"] = s.targets.gdp_gain
        if s.targets.displacement is not None:
            targets["displacement"] = s.targets.displacement
        out["targets"] = targets
    if s.raw_shocks is not None:
        raw = {}
        if s.raw_shocks.robotics_growth is not None:
            raw["robotics_growth"] = s.raw_shocks.robotics_growth
        if s.raw_shocks.cost_ratio is not None:
            raw["cost_ratio"] = s.raw_shocks.cost_ratio
        out["raw_shocks"] = raw
    return out


def _sector_dict(s: SectorProfile) -> dict:
    out: dict[str, Any] = {
        "name": s.name,
        "employment_share": s.employment_share,
        "risk_multiplier": s.risk_multiplier,
        "automation_potential": s.automation_potential,
        "readiness": s.readiness.value,
    }
    if s.readiness_score is not None:
        out["readiness_score"] = s.readiness_score
    if s.residual:
        out["residual"] = True
    if s.notes:
        out["notes"] = s.notes
    return out


def to_dict(config: RunConfig) -> dict:
    """Plain-data form of a config, as ``loads_config`` would accept."""
    state = config.initial_state
    baseline = config.baseline
    return {
        "dataset_version": config.dataset_version,
        "params": {
            "alpha": config.params.alpha,
            "theta": _theta_dict(config.params.theta),
            "sigma": config.params.sigma,
            "tfp_boost_per_adoption_pct": config.params.tfp_boost_per_adoption_pct,
            "exposure_share": config.params.exposure_share,
        },
        "initial_state": {
            "year": state.year, "tfp": state.tfp, "capital": state.capital,
            "labor": state.labor, "robotics": state.robotics, "wage": state.wage,
            "robot_cost": state.robot_cost,
        },
        "baseline": {
            "total_labor_force": baseline.total_labor_force,
            "expat_share": baseline.expat_share,
            "sector_shares": dict(baseline.sector_shares),
            "min_wage": baseline.min_wage,
            "low_wage_headcount": baseline.low_wage_headcount,
            "remittance_base": baseline.remittance_base,
            "remittance_decline_band": list(baseline.remittance_decline_band),
            "remittance_reference_rate": baseline.remittance_reference_rate,
        },
        "sectors": [_sector_dict(s) for s in config.sectors],
        "tasks": {domain: [dict(row) for row in rows]
                  for domain, rows in config.tasks.items()},
        "scenarios": [_scenario_dict(s) for s in config.scenarios],
        "output": {
            "directory": config.output.directory,
            "formats": list(config.output.formats),
            **({"figure_scenario": config.output.figure_scenario}
               if config.output.figure_scenario else {}),
        },
    }


def dump_config(config: RunConfig) -> str:
    """Emit YAML that loads back to an equal config."""
    return yaml.safe_dump(to_dict(config), sort_keys=False,
                          default_flow_style=False, allow_unicode=True)
