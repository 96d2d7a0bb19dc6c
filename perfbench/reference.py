"""Independent reference model of the robolabor paper.

Recomputes every number the program reports from the plain config data
(the dict the benchmark generated, or the bundled YAML parsed by the
benchmark itself). Nothing here imports robolabor: the formulas are written
from the paper's model so that a fault in the program cannot also hide in
the reference.

Model, per horizon year index i (0-based) of a scenario:

    theta_i    static value, or start + (end - start) * i / ramp_years,
               held at end from ramp_years on
    R_i        R_0 * prod_{j<=i} (1 + g_j)
    A_i        A_0 * prod_{j<=i} (1 + b * 100 * g_j)      (TFP spillover on)
    d_i        e * (1 - r_i ** -sigma)                   displacement rate
    L_i        L_0 * (1 - d_i)
    Y_i        A_i * K**alpha * L_i**(1-alpha-theta_i) * R_i**theta_i
    gain_i     Y_i / (A_0 * K**alpha * L_0**(1-alpha-theta_i) * R_0**theta_i) - 1

The channel gain of a scenario is prod(1 + b*100*g) * prod(1 + g)**theta_T - 1.
"""

from __future__ import annotations

import math

PARAMETERS = ("alpha", "theta", "sigma", "robotics_growth", "cost_ratio",
              "exposure_share", "tfp_boost")
DEFAULT_METRIC = {
    "alpha": "terminal_output",
    "theta": "output_gain",
    "sigma": "displacement",
    "robotics_growth": "output_gain",
    "cost_ratio": "displacement",
    "exposure_share": "displacement",
    "tfp_boost": "output_gain",
}


class Invalid(Exception):
    """The inputs lie outside the model's domain."""


def theta_at(theta: dict, index: int) -> float:
    if theta["mode"] == "static":
        return theta["value"]
    if index >= theta["ramp_years"]:
        return theta["end"]
    if index == 0:
        return theta["start"]
    return theta["start"] + (theta["end"] - theta["start"]) * (index / theta["ramp_years"])


def theta_values(theta: dict) -> tuple:
    if theta["mode"] == "static":
        return (theta["value"],)
    return (theta["start"], theta["end"])


def _path(value, n: int) -> list:
    return [float(v) for v in value] if isinstance(value, list) else [float(value)] * n


def resolve(cfg: dict, scn: dict) -> dict:
    """Effective inputs of one scenario run, with every config default applied."""
    params = cfg["params"]
    baseline = cfg["baseline"]
    state = dict(year=2024, tfp=1.0, capital=1.0,
                 labor=baseline["total_labor_force"], robotics=1.0)
    state.update({k: v for k, v in (cfg.get("initial_state") or {}).items()
                  if k in state})
    start, end = scn["horizon"]
    n = end - start + 1
    job = scn.get("job_creation", {"mode": "ratio", "ratio": 0.23})
    return {
        "name": scn["name"],
        "mode": scn["mode"],
        "start": start,
        "n": n,
        "alpha": params["alpha"],
        "theta": scn.get("theta", params["theta"]),
        "params_theta": params["theta"],
        "sigma": scn.get("sigma", params["sigma"]),
        "exposure": scn.get("exposure_share", params.get("exposure_share", 1.0)),
        "boost": params.get("tfp_boost_per_adoption_pct", 0.002),
        "tfp_enabled": scn.get("tfp_enabled", False),
        "growth": _path(scn.get("robotics_growth", 0.0), n),
        "cost": _path(scn.get("cost_ratio_path", 1.0), n),
        "job_mode": job["mode"],
        "job_ratio": (job.get("ratio", 0.23) if job["mode"] == "ratio"
                      else job.get("terminal_ratio", 0.64)),
        "targets": scn.get("targets"),
        "raw": scn.get("raw_shocks"),
        "state": state,
        "labor_force": baseline["total_labor_force"],
        "expat_share": baseline["expat_share"],
        "sector_shares": baseline["sector_shares"],
        "remit_base": baseline["remittance_base"],
        "band": baseline.get("remittance_decline_band", [0.12, 0.18]),
        "ref_rate": baseline.get("remittance_reference_rate", 0.032),
    }


def validate(m: dict) -> None:
    """Raise Invalid where the paper's model is undefined for these inputs."""
    alpha = m["alpha"]
    if not 0 < alpha < 1:
        raise Invalid("alpha outside (0, 1)")
    # the parameter set must be valid on its own, even where a scenario
    # overrides its theta
    for value in theta_values(m["theta"]) + theta_values(m["params_theta"]):
        if not 0 < value <= 1:
            raise Invalid("theta outside (0, 1]")
        if alpha + value >= 1:
            raise Invalid("labor exponent not positive")
    if m["sigma"] < 0:
        raise Invalid("negative sigma")
    if not 0 <= m["exposure"] <= 1:
        raise Invalid("exposure outside [0, 1]")
    if m["boost"] < 0:
        raise Invalid("negative TFP boost")
    if any(g <= -1 for g in m["growth"]):
        raise Invalid("robotics growth at or below -1")
    if m["tfp_enabled"] and any(g < 0 for g in m["growth"]):
        raise Invalid("negative adoption growth with the spillover on")
    if any(r <= 0 for r in m["cost"]):
        raise Invalid("non-positive cost ratio")
    if any(b < a for a, b in zip(m["cost"], m["cost"][1:])):
        raise Invalid("falling cost path")


def cap_sum_rate(sectors: list) -> float:
    """Highest national rate the sector caps allow: sum(w * cap) / sum(w)."""
    weight = sum(s["employment_share"] for s in sectors)
    return sum(s["employment_share"] * s["automation_potential"] for s in sectors) / weight


def uncapped_split(rate: float, sectors: list):
    """Named sectors at rate * multiplier, the residual taking the slack.

    Returns None when a cap binds (or the residual would leave [0, cap]);
    then only the split's properties can be checked.
    """
    weight = sum(s["employment_share"] for s in sectors)
    rates = {}
    named = 0.0
    residual = None
    for s in sectors:
        if s.get("residual"):
            residual = s
            continue
        value = rate * s["risk_multiplier"]
        if value > s["automation_potential"]:
            return None
        rates[s["name"]] = value
        named += s["employment_share"] * value
    if residual is None:
        if abs(named - rate * weight) > 1e-12:
            return None
    else:
        value = (rate * weight - named) / residual["employment_share"]
        if not 0 <= value <= residual["automation_potential"]:
            return None
        rates[residual["name"]] = value
    return {s["name"]: rates[s["name"]] for s in sectors}


def simulate(cfg: dict, scn: dict) -> dict:
    """Reference result of one scenario: records, summary, headcounts, split."""
    m = resolve(cfg, scn)
    validate(m)
    state = m["state"]
    alpha, sigma, exposure, boost = m["alpha"], m["sigma"], m["exposure"], m["boost"]
    labor0, capital = state["labor"], state["capital"]
    n = m["n"]
    tfp_factor = 1.0
    stock_factor = 1.0
    records = []
    for i in range(n):
        g = m["growth"][i]
        theta = theta_at(m["theta"], i)
        stock_factor *= 1.0 + g
        if m["tfp_enabled"]:
            tfp_factor *= 1.0 + boost * 100.0 * g
        rate = exposure * (1.0 - m["cost"][i] ** (-sigma))
        labor = labor0 * (1.0 - rate)
        exponent = 1.0 - alpha - theta
        output = (state["tfp"] * tfp_factor * capital ** alpha * labor ** exponent
                  * (state["robotics"] * stock_factor) ** theta)
        gain = tfp_factor * (labor / labor0) ** exponent * stock_factor ** theta - 1.0
        displaced = labor0 * rate
        progress = i / (n - 1) if n > 1 else 1.0
        jobs = m["job_ratio"] * displaced * (progress if m["job_mode"] == "ramp" else 1.0)
        scale = rate / m["ref_rate"]
        records.append({
            "year": m["start"] + i, "theta": theta, "tfp": state["tfp"] * tfp_factor,
            "output": output, "output_gain_vs_baseline": gain, "labor": labor,
            "displacement_rate": rate, "displaced_cumulative": displaced,
            "jobs_created_cumulative": jobs,
            "remittance_low": m["remit_base"] * m["band"][0] * scale,
            "remittance_high": m["remit_base"] * m["band"][1] * scale,
        })
    last = records[-1]
    summary = {
        "gdp_gain": tfp_factor * stock_factor ** last["theta"] - 1.0,
        "realized_gain": last["output_gain_vs_baseline"],
        "displacement_rate": last["displacement_rate"],
        "displaced_total": last["displaced_cumulative"],
        "jobs_created": last["jobs_created_cumulative"],
        "raw_gdp_gain": None,
        "raw_displacement_rate": None,
    }
    raw = m["raw"] or {}
    if raw.get("robotics_growth") is not None:
        g_raw = raw["robotics_growth"]
        factor = 1.0 + boost * 100.0 * g_raw if m["tfp_enabled"] else 1.0
        summary["raw_gdp_gain"] = factor * (1.0 + g_raw) ** theta_at(m["theta"], 0) - 1.0
    if raw.get("cost_ratio") is not None:
        summary["raw_displacement_rate"] = 1.0 - raw["cost_ratio"] ** (-sigma)
    gaps = []
    targets = m["targets"] or {}
    for metric, key, raw_key in (("gdp_gain", "gdp_gain", "raw_gdp_gain"),
                                 ("displacement", "displacement_rate",
                                  "raw_displacement_rate")):
        if targets.get(metric) is not None:
            target = targets[metric]
            raw_value = summary[raw_key]
            gaps.append({"metric": metric, "target": target, "computed": summary[key],
                         "gap": summary[key] - target, "raw_computed": raw_value,
                         "raw_gap": None if raw_value is None else raw_value - target})
    total = last["displacement_rate"] * m["labor_force"]
    expat = total * m["expat_share"]
    sectors = cfg.get("sectors") or []
    rate = last["displacement_rate"]
    return {
        "name": m["name"], "mode": m["mode"], "years": n, "records": records,
        "summary": summary, "target_comparison": gaps,
        "headcounts": {"total": total, "expat": expat,
                       "by_sector": {k: expat * v for k, v in m["sector_shares"].items()}},
        "national_rate": rate,
        "feasible": not sectors or rate <= cap_sum_rate(sectors) * (1 + 1e-12),
        "split": uncapped_split(rate, sectors) if sectors else {},
    }


def _metric(result: dict, metric: str) -> float:
    if metric == "output_gain":
        return result["summary"]["gdp_gain"]
    if metric == "displacement":
        return result["summary"]["displacement_rate"]
    return result["records"][-1]["output"]


def _scaled_theta(theta: dict, factor: float) -> dict:
    if theta["mode"] == "static":
        return {"mode": "static", "value": theta["value"] * factor}
    return dict(theta, start=theta["start"] * factor, end=theta["end"] * factor)


def perturb(cfg: dict, scn: dict, parameter: str, factor: float):
    """Copies of (cfg, scn) with one parameter scaled as the paper's tornado does.

    Cost ratios scale in their deviation from 1 so a downside perturbation
    shrinks the shock instead of flipping it.
    """
    cfg = dict(cfg, params=dict(cfg["params"]))
    scn = dict(scn)
    params = cfg["params"]
    params.setdefault("tfp_boost_per_adoption_pct", 0.002)
    params.setdefault("exposure_share", 1.0)

    def scale(value):
        if isinstance(value, list):
            return [v * factor for v in value]
        return value * factor

    if parameter == "alpha":
        params["alpha"] *= factor
    elif parameter == "theta":
        holder = scn if "theta" in scn else params
        holder["theta"] = _scaled_theta(holder["theta"], factor)
    elif parameter == "sigma":
        holder = scn if "sigma" in scn else params
        holder["sigma"] *= factor
    elif parameter == "robotics_growth":
        scn["robotics_growth"] = scale(scn.get("robotics_growth", 0.0))
    elif parameter == "cost_ratio":
        path = scn.get("cost_ratio_path", 1.0)
        if isinstance(path, list):
            scn["cost_ratio_path"] = [1.0 + (r - 1.0) * factor for r in path]
        else:
            scn["cost_ratio_path"] = 1.0 + (path - 1.0) * factor
    elif parameter == "exposure_share":
        holder = scn if "exposure_share" in scn else params
        holder["exposure_share"] *= factor
    else:
        params["tfp_boost_per_adoption_pct"] *= factor
    return cfg, scn


def effective_value(cfg: dict, scn: dict, parameter: str) -> float:
    """The representative parameter value a tornado row reports."""
    m = resolve(cfg, scn)
    if parameter == "alpha":
        return m["alpha"]
    if parameter == "theta":
        return theta_values(m["theta"])[0]
    if parameter == "sigma":
        return m["sigma"]
    if parameter == "robotics_growth":
        return m["growth"][0]
    if parameter == "cost_ratio":
        return m["cost"][0]
    if parameter == "exposure_share":
        return m["exposure"]
    return m["boost"]


def _pct(side: float, base: float) -> float:
    if base == 0:
        return 0.0 if side == base else math.nan
    return 100.0 * (side - base) / base


def tornado(cfg: dict, scn: dict, perturbation: float) -> dict:
    """Reference one-at-a-time rows keyed by parameter (order is not implied)."""
    base = simulate(cfg, scn)
    rows = {}
    for parameter in PARAMETERS:
        metric = DEFAULT_METRIC[parameter]
        base_value = effective_value(cfg, scn, parameter)
        values, results, invalid = [], [], []
        for factor in (1.0 - perturbation, 1.0 + perturbation):
            p_cfg, p_scn = perturb(cfg, scn, parameter, factor)
            try:
                side = simulate(p_cfg, p_scn)
                if not side["feasible"]:
                    raise Invalid("national rate above the sector cap sum")
                results.append(_metric(side, metric))
            except Invalid:
                invalid.append("low" if factor < 1 else "high")
                results.append(math.nan)
            values.append(effective_value(p_cfg, p_scn, parameter))
        base_metric = _metric(base, metric)
        rows[parameter] = {
            "parameter": parameter, "metric": metric, "perturbation": perturbation,
            "baseline_value": base_value, "low_value": values[0], "high_value": values[1],
            "baseline_result": base_metric, "low_result": results[0],
            "high_result": results[1], "swing": results[1] - results[0],
            "pct_deviation_low": _pct(results[0], base_metric),
            "pct_deviation_high": _pct(results[1], base_metric),
            "invalid": tuple(invalid),
        }
    return rows
