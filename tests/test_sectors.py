"""Sector disaggregation, headcounts, remittances and job creation."""

import copy
import math
import random
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import robolabor.engine as engine_module
import robolabor.sensitivity as sensitivity_module
from robolabor import (
    DomainError,
    JobCreationRamp,
    JobCreationRatio,
    LaborBaseline,
    Readiness,
    RunConfig,
    Scenario,
    SectorProfile,
    SimulationMode,
    StaticTheta,
    UnattainableTargetError,
    default_config_path,
    default_specs,
    disaggregate_displacement,
    displacement_headcounts,
    job_creation,
    loads_config,
    one_at_a_time,
    remittance_impact,
    run_scenario,
)
from robolabor import sectors as sectors_module
from robolabor.errors import _require
from robolabor.sectors import MEAN_TOLERANCE, _Table


def profile(name, share, multiplier, cap=1.0, residual=False):
    return SectorProfile(name=name, employment_share=share,
                         risk_multiplier=multiplier, automation_potential=cap,
                         readiness=Readiness.MODERATE, residual=residual)


def rescale_oracle(national_rate, sectors):
    """The fixed-point rescale loop the exact split replaced, kept as an oracle."""
    _require(0 <= national_rate <= 1,
             "national_rate must lie in [0, 1], got {}", national_rate)
    _require(len(sectors) > 0, "sector dataset must be nonempty")
    total_weight = _Table(sectors).total
    _require(total_weight > 0, "sector dataset has zero total employment share")

    target_sum = national_rate * total_weight
    rates = {s.name: min(national_rate * (s.risk_multiplier or 0.0),
                         s.automation_potential)
             for s in sectors if not s.residual}

    residual = next((s for s in sectors if s.residual), None)
    if residual is not None:
        named_sum = sum(s.employment_share * rates[s.name]
                        for s in sectors if not s.residual)
        raw = (target_sum - named_sum) / residual.employment_share
        rates[residual.name] = min(max(raw, 0.0), residual.automation_potential)

    def weighted_sum():
        return sum(s.employment_share * rates[s.name] for s in sectors)

    for _ in range(len(sectors) + 1):
        deficit = target_sum - weighted_sum()
        if abs(deficit) <= MEAN_TOLERANCE * total_weight:
            break
        if deficit > 0:
            free = [s for s in sectors
                    if 0 < rates[s.name] < s.automation_potential]
        else:
            free = [s for s in sectors if rates[s.name] > 0]
        free_sum = sum(s.employment_share * rates[s.name] for s in free)
        if not free or free_sum == 0:
            raise UnattainableTargetError("every sector is pinned at its cap")
        scale = (free_sum + deficit) / free_sum
        for s in free:
            rates[s.name] = min(max(rates[s.name] * scale, 0.0),
                                s.automation_potential)
    else:
        raise UnattainableTargetError("unattainable under the caps")
    return {s.name: rates[s.name] for s in sectors}


def split_or_none(split, national, table):
    try:
        return split(national, table)
    except UnattainableTargetError:
        return None


@st.composite
def split_cases(draw):
    """A table of 2-40 sectors, with or without a residual, and a national
    rate from 0 to 1.2 times the highest rate its caps allow.

    Hypothesis draws the shape and the rate; a seeded generator fills in the
    rows, which keeps a 40-row example cheap to draw.
    """
    n = draw(st.integers(2, 40))
    has_residual = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    raw = [0.0 if rng.random() < 0.1 else rng.uniform(0.05, 1.0) for _ in range(n)]
    raw[-1] = rng.uniform(0.05, 1.0)
    fill = draw(st.floats(0.5, 1.0))
    shares = [fill * r / sum(raw) for r in raw]
    table = [profile(f"s{i}", share,
                     0.0 if rng.random() < 0.1 else rng.uniform(0.1, 3.0), rng.random())
             for i, share in enumerate(shares[:-1])]
    table.append(profile("rest", shares[-1], None, rng.random(), residual=True)
                 if has_residual else profile("last", shares[-1], rng.uniform(0.1, 3.0),
                                              rng.random()))
    weight = sum(s.employment_share for s in table)
    highest = sum(s.employment_share * s.automation_potential for s in table
                  if s.residual or s.risk_multiplier > 0) / weight
    national = min(1.0, highest * draw(st.floats(0.0, 1.2)))
    return national, tuple(table)


@st.composite
def near_miss_cases(draw):
    """A table of 1-5 named sectors whose shares sum to 0.5-1, every
    multiplier 1 - eps, and a national rate: the uncapped rates' mean misses
    the rate by ``rate * eps``, which lands near ``MEAN_TOLERANCE``."""
    n = draw(st.integers(1, 5))
    fill = draw(st.floats(0.5, 1.0))
    eps = draw(st.floats(0.0, 1e-8))
    table = tuple(profile(f"s{i}", fill / n, 1.0 - eps) for i in range(n))
    return draw(st.floats(0.05, 1.0)), table


@st.composite
def above_cap_cases(draw):
    """A ``split_cases`` table at a national rate up to 2e-9 above the
    highest rate its caps allow, where the split may still return."""
    _, table = draw(split_cases())
    weight = sum(s.employment_share for s in table)
    highest = sum(s.employment_share * s.automation_potential for s in table
                  if s.residual or s.risk_multiplier > 0) / weight
    return min(1.0, highest + draw(st.floats(0.0, 2e-9))), table


class TestDisaggregateDisplacement:
    def test_shipped_dataset_reference_rates(self, sectors):
        rates = disaggregate_displacement(0.032, sectors)
        # multipliers are exact binary ratios: 0.048/0.032 = 1.5,
        # 0.035/0.032 = 35/32, 0.021/0.032 = 21/32
        assert rates["construction"] == pytest.approx(0.048, abs=1e-9)
        assert rates["manufacturing"] == pytest.approx(0.035, abs=1e-9)
        assert rates["logistics"] == pytest.approx(0.021, abs=1e-9)
        assert rates["agriculture"] == pytest.approx(0.0, abs=1e-9)

    def test_residual_absorbs_slack(self, sectors):
        rates = disaggregate_displacement(0.032, sectors)
        # slack: (0.032 - 0.442*0.048 - 0.076*0.035 - 0.08*0.021) / 0.39
        assert rates["other_services"] == pytest.approx(0.0165230769231, rel=1e-9)

    @pytest.mark.parametrize("national", [0.0, 0.01, 0.032, 0.08, 0.2])
    def test_weighted_mean_recovers_national(self, sectors, national):
        rates = disaggregate_displacement(national, sectors)
        total = sum(s.employment_share for s in sectors)
        mean = sum(s.employment_share * rates[s.name] for s in sectors) / total
        assert mean == pytest.approx(national, abs=1e-9)

    def test_zero_rate_zeroes_everything(self, sectors):
        assert all(rate == 0.0
                   for rate in disaggregate_displacement(0.0, sectors).values())

    def test_preserves_dataset_order(self, sectors):
        rates = disaggregate_displacement(0.032, sectors)
        assert list(rates) == [s.name for s in sectors]

    def test_cap_binds_and_others_rescale(self):
        dataset = [profile("hot", 0.5, 2.0, cap=0.05),
                   profile("cold", 0.5, 0.5, cap=1.0)]
        rates = disaggregate_displacement(0.04, dataset)
        # hot clamps at 0.05; cold must cover (0.04 - 0.5*0.05)/0.5 = 0.03
        assert rates["hot"] == 0.05
        assert rates["cold"] == pytest.approx(0.03, rel=1e-9)

    def test_residual_clamp_then_rescale(self):
        dataset = [profile("named", 0.5, 0.5, cap=1.0),
                   profile("rest", 0.5, None, cap=0.01, residual=True)]
        rates = disaggregate_displacement(0.04, dataset)
        # residual wants (0.04 - 0.5*0.02)/0.5 = 0.06, clamps at 0.01,
        # so named must rise to (0.04 - 0.5*0.01)/0.5 = 0.07
        assert rates["rest"] == 0.01
        assert rates["named"] == pytest.approx(0.07, rel=1e-9)

    def test_unattainable_when_all_caps_bind(self):
        dataset = [profile("a", 0.5, 1.0, cap=0.01),
                   profile("b", 0.5, 1.0, cap=0.02)]
        with pytest.raises(UnattainableTargetError):
            disaggregate_displacement(0.5, dataset)

    def test_sector_whose_weighted_multiplier_rounds_to_zero_cannot_move(self):
        # 0.5 * 5e-324 rounds to 0: past b's cap nothing can take more
        dataset = (profile("tiny", 0.5, 5e-324, cap=0.62), profile("b", 0.5, 1.0, cap=0.1))
        rates = disaggregate_displacement(0.04, dataset)
        assert rates["tiny"] == 0.0 and rates["b"] == pytest.approx(0.08, rel=1e-12)
        with pytest.raises(UnattainableTargetError):
            disaggregate_displacement(0.5, dataset)

    def test_validation(self):
        with pytest.raises(DomainError):
            disaggregate_displacement(1.5, [profile("a", 1.0, 1.0)])
        with pytest.raises(DomainError):
            disaggregate_displacement(0.03, [])
        with pytest.raises(DomainError):
            disaggregate_displacement(0.03, [profile("a", 0.5, 1.0),
                                             profile("a", 0.5, 1.0)])
        with pytest.raises(DomainError):
            disaggregate_displacement(0.03, [profile("a", 0.5, None, residual=True),
                                             profile("b", 0.5, None, residual=True)])
        with pytest.raises(DomainError):
            disaggregate_displacement(0.03, [profile("a", 0.7, 1.0),
                                             profile("b", 0.5, 1.0)])

    @given(national=st.floats(0.0, 0.3),
           m1=st.floats(0.0, 3.0), m2=st.floats(0.0, 3.0),
           w1=st.floats(0.05, 0.45), w2=st.floats(0.05, 0.45))
    def test_mean_identity_with_residual_property(self, national, m1, m2, w1, w2):
        w_res = 1.0 - w1 - w2
        assume(w_res > 0.05)
        dataset = [profile("s1", w1, m1), profile("s2", w2, m2),
                   profile("rest", w_res, None, residual=True)]
        try:
            rates = disaggregate_displacement(national, dataset)
        except UnattainableTargetError:
            return
        mean = sum(s.employment_share * rates[s.name] for s in dataset)
        assert mean == pytest.approx(national, abs=1e-9)
        for sector in dataset:
            assert 0.0 <= rates[sector.name] <= sector.automation_potential + 1e-15


class TestExactSplit:
    """The exact split against the rescale loop it replaced."""

    @settings(max_examples=400)
    @given(case=split_cases())
    # the uncapped sum misses by 0.8e-9, inside 1e-9, but the mean by 1.6e-9
    @example(case=(0.5, (profile("a", 0.5, 1.0 - 3.2e-9),)))
    def test_agrees_with_rescale_loop(self, case):
        national, table = case
        exact = split_or_none(disaggregate_displacement, national, table)
        loop = split_or_none(rescale_oracle, national, table)
        assert (exact is None) == (loop is None)
        if exact is None:
            return
        assert list(exact) == [s.name for s in table]
        assert max(abs(exact[name] - loop[name]) for name in exact) <= 1e-12
        # the tolerance MEAN_TOLERANCE sets, on the employment-weighted sum
        target = national * sum(s.employment_share for s in table)
        covered = sum(s.employment_share * exact[s.name] for s in table)
        assert abs(covered - target) <= 1e-9 * max(1.0, target)
        for s in table:
            assert 0.0 <= exact[s.name] <= s.automation_potential

    @settings(max_examples=400)
    @given(case=split_cases() | near_miss_cases() | above_cap_cases())
    # the uncapped sum misses by 0.8e-9, inside 1e-9, but the mean by 1.6e-9
    @example(case=(0.5, (profile("a", 0.5, 1.0 - 3.2e-9),)))
    def test_weighted_mean_meets_the_rate(self, case):
        national, table = case
        rates = split_or_none(disaggregate_displacement, national, table)
        if rates is None:
            return
        weight = sum(s.employment_share for s in table)
        mean = sum(s.employment_share * rates[s.name] for s in table) / weight
        assert abs(mean - national) <= MEAN_TOLERANCE

    @settings(max_examples=400)
    @given(case=split_cases() | above_cap_cases())
    # the cap of b binds, and the named sectors then cover the rate at t = 0.6;
    # at 0.6 both caps bind and the bound holds with equality
    @example(case=(0.3, (profile("a", 0.5, 0.5, 0.9), profile("b", 0.5, 3.0, 0.3))))
    @example(case=(0.6, (profile("a", 0.5, 0.5, 0.9), profile("b", 0.5, 3.0, 0.3))))
    def test_split_returns_where_the_bound_holds(self, case):
        national, table = case
        if sectors_module._split_fits(national, table):
            disaggregate_displacement(national, table)

    @pytest.mark.parametrize("national", [0.0, 0.01, 0.032, 0.08, 0.2, 0.3])
    def test_uncapped_split_is_bit_identical(self, sectors, national):
        exact = disaggregate_displacement(national, sectors)
        assert all(exact[s.name] < s.automation_potential for s in sectors)
        assert ({k: v.hex() for k, v in exact.items()}
                == {k: v.hex() for k, v in rescale_oracle(national, sectors).items()})

    def test_scale_down_split_is_bit_identical(self):
        # the named sectors overshoot, the residual clamps at 0, and every
        # positive rate scales down by one factor
        table = (profile("a", 0.3, 2.5, cap=0.9), profile("b", 0.2, 1.7),
                 profile("c", 0.1, 0.0), profile("rest", 0.3, None, residual=True))
        exact = disaggregate_displacement(0.07, table)
        assert exact["rest"] == 0.0 and exact["a"] < 0.07 * 2.5
        assert ({k: v.hex() for k, v in exact.items()}
                == {k: v.hex() for k, v in rescale_oracle(0.07, table).items()})

    def test_distinct_tuples_alternate(self):
        first = (profile("a", 0.5, 2.0, cap=0.05), profile("b", 0.5, 0.5))
        second = (profile("a", 0.5, 1.0, cap=0.05), profile("b", 0.5, 1.0))
        for table in (first, second, first, second):
            assert disaggregate_displacement(0.04, table) == pytest.approx(
                rescale_oracle(0.04, table), abs=1e-12)
        assert disaggregate_displacement(0.04, first)["a"] == 0.05
        assert disaggregate_displacement(0.04, second)["a"] == 0.04

    def test_mutated_list_is_read_again(self):
        table = [profile("a", 0.5, 2.0, cap=0.05), profile("b", 0.5, 0.5)]
        assert disaggregate_displacement(0.04, table)["a"] == 0.05
        table[0] = profile("a", 0.5, 1.0, cap=0.05)
        table[1] = profile("b", 0.5, 1.0)
        assert disaggregate_displacement(0.04, table) == {"a": 0.04, "b": 0.04}
        table.append(profile("c", 0.0, 1.0))
        assert list(disaggregate_displacement(0.04, table)) == ["a", "b", "c"]

    @pytest.mark.parametrize("bad", [(), (profile("a", 0.5, 1.0), profile("a", 0.5, 1.0))])
    def test_bad_table_is_not_remembered(self, bad):
        for _ in range(2):
            with pytest.raises(DomainError):
                disaggregate_displacement(0.03, bad)


class TestSectorProfile:
    def test_residual_must_not_carry_multiplier(self):
        with pytest.raises(DomainError):
            SectorProfile(name="rest", employment_share=0.3, risk_multiplier=1.0,
                          automation_potential=0.4, readiness=Readiness.LOW,
                          residual=True)

    def test_named_requires_multiplier(self):
        with pytest.raises(DomainError):
            SectorProfile(name="x", employment_share=0.3, risk_multiplier=None,
                          automation_potential=0.4, readiness=Readiness.LOW)

    def test_readiness_score_range(self):
        with pytest.raises(DomainError):
            SectorProfile(name="x", employment_share=0.3, risk_multiplier=1.0,
                          automation_potential=0.4, readiness=Readiness.HIGH,
                          readiness_score=11.0)

    @pytest.mark.parametrize("readiness", ["low", None])
    def test_readiness_must_be_a_readiness(self, readiness):
        with pytest.raises(DomainError, match="^x: readiness must be a Readiness value$"):
            SectorProfile(name="x", employment_share=0.3, risk_multiplier=1.0,
                          automation_potential=0.4, readiness=readiness)

    def test_shipped_dataset_readiness(self, sectors):
        by_name = {s.name: s for s in sectors}
        assert by_name["manufacturing"].readiness is Readiness.HIGH
        assert by_name["manufacturing"].readiness_score == 8.2
        assert by_name["logistics"].readiness_score == 7.6
        assert by_name["agriculture"].readiness is Readiness.LOW


class TestHeadcounts:
    def test_chain_from_national_rate(self, baseline):
        counts = displacement_headcounts(0.032, baseline)
        assert counts.total == pytest.approx(0.032 * 2_130_000, rel=1e-12)
        assert counts.expat == pytest.approx(counts.total * 0.944, rel=1e-12)
        assert counts.by_sector["construction"] == pytest.approx(
            counts.expat * 0.442, rel=1e-12)

    def test_against_reported_totals(self, baseline):
        # reported at 68,060 / 64,250 / 28,400; the exact chain lands within 0.2%
        counts = displacement_headcounts(0.032, baseline)
        assert counts.total == pytest.approx(68_060, rel=2e-3)
        assert counts.expat == pytest.approx(64_250, rel=2e-3)
        assert counts.by_sector["construction"] == pytest.approx(28_400, rel=2e-3)

    def test_zero_rate(self, baseline):
        counts = displacement_headcounts(0.0, baseline)
        assert counts.total == 0.0 and counts.expat == 0.0

    def test_rate_validation(self, baseline):
        with pytest.raises(DomainError):
            displacement_headcounts(-0.01, baseline)


class TestRemittanceImpact:
    def test_band_exact_at_reference_rate(self, baseline):
        low, high = remittance_impact(0.032, baseline)
        # 45e9 * 0.12 and 45e9 * 0.18 are exact in binary
        assert low == 5.4e9
        assert high == 8.1e9

    def test_scales_linearly_with_rate(self, baseline):
        low, high = remittance_impact(0.016, baseline)
        assert low == pytest.approx(2.7e9, rel=1e-12)
        assert high == pytest.approx(4.05e9, rel=1e-12)

    def test_zero_rate_zero_impact(self, baseline):
        assert remittance_impact(0.0, baseline) == (0.0, 0.0)

    def test_band_of_a_replaced_baseline(self, baseline):
        low, high = remittance_impact(
            0.032, replace(baseline, remittance_decline_band=(0.10, 0.20)))
        assert low == pytest.approx(4.5e9, rel=1e-12)
        assert high == pytest.approx(9.0e9, rel=1e-12)

    def test_validation(self, baseline):
        with pytest.raises(DomainError):
            remittance_impact(1.5, baseline)

    @pytest.mark.parametrize("field,value,message", [
        ("remittance_decline_band", (0.3, 0.1), "remittance_decline_band must be ordered"),
        ("remittance_reference_rate", 0.0, "remittance_reference_rate must be positive"),
    ])
    def test_replaced_baseline_is_validated(self, baseline, field, value, message):
        with pytest.raises(DomainError, match=message):
            replace(baseline, **{field: value})

    @given(rate=st.floats(0.0, 1.0))
    def test_low_never_exceeds_high(self, baseline, rate):
        low, high = remittance_impact(rate, baseline)
        assert 0.0 <= low <= high


class TestJobCreation:
    def test_fixed_ratio(self):
        assert job_creation(100.0, JobCreationRatio(0.23)) == pytest.approx(23.0)

    def test_ramp_reaches_terminal_ratio(self):
        # staged reskilling: 64% of displaced at horizon end
        assert job_creation(50_000.0, JobCreationRamp(0.64), progress=1.0) == 32_000.0

    def test_ramp_starts_at_zero(self):
        assert job_creation(50_000.0, JobCreationRamp(0.64), progress=0.0) == 0.0

    def test_ramp_midpoint(self):
        assert job_creation(1000.0, JobCreationRamp(0.64), progress=0.5) == \
            pytest.approx(320.0, rel=1e-12)

    def test_monotone_in_displacement(self):
        model = JobCreationRatio(0.23)
        values = [job_creation(d, model) for d in (0.0, 10.0, 100.0, 1e5)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            job_creation(-1.0, JobCreationRatio(0.23))
        with pytest.raises(DomainError):
            job_creation(10.0, JobCreationRamp(0.64), progress=1.5)
        with pytest.raises(DomainError):
            JobCreationRatio(-0.1)

    @pytest.mark.parametrize("model", [0.23, None])
    def test_unknown_model(self, model):
        with pytest.raises(DomainError, match="^model must be JobCreationRatio or "
                                              "JobCreationRamp, got "):
            job_creation(10.0, model)


class TestLaborBaseline:
    def test_share_sum_guard(self):
        with pytest.raises(DomainError):
            LaborBaseline(total_labor_force=1000.0, expat_share=0.9,
                          sector_shares={"a": 0.6, "b": 0.42}, min_wage=1000.0,
                          low_wage_headcount=100.0, remittance_base=1e9)

    def test_band_order_guard(self):
        with pytest.raises(DomainError):
            LaborBaseline(total_labor_force=1000.0, expat_share=0.9,
                          sector_shares={"a": 0.5}, min_wage=1000.0,
                          low_wage_headcount=100.0, remittance_base=1e9,
                          remittance_decline_band=(0.18, 0.12))

    def test_shipped_values(self, baseline):
        assert baseline.total_labor_force == 2_130_000
        assert baseline.expat_share == 0.944
        assert baseline.min_wage == 1000
        assert baseline.low_wage_headcount == 280_000
        assert baseline.remittance_base == 45e9
        assert baseline.remittance_decline_band == (0.12, 0.18)


def wide_table(seed, count=240):
    """Many small named sectors whose caps bind at modest rates, and a residual."""
    rng = random.Random(seed)
    raw = [rng.expovariate(1.0) for _ in range(count - 1)]
    residual_share = rng.uniform(0.15, 0.25)
    scale = (0.98 - residual_share) / sum(raw)
    table = []
    for i, weight in enumerate(raw):
        multiplier = 0.0 if rng.random() < 0.05 else rng.lognormvariate(0.0, 0.5)
        cap = min(0.95, max(0.02, multiplier * rng.uniform(0.1, 0.9)))
        table.append(profile(f"s{i:03d}", weight * scale, multiplier, cap))
    table.append(profile("rest", residual_share, None, rng.uniform(0.3, 0.6), residual=True))
    return tuple(table)


def shares_baseline(table, **overrides):
    fields = dict(total_labor_force=2_130_000.0, expat_share=0.944,
                  sector_shares={s.name: s.employment_share for s in table},
                  min_wage=1000.0, low_wage_headcount=280_000.0, remittance_base=45e9)
    fields.update(overrides)
    return LaborBaseline(**fields)


def cold(table):
    """A table as a first run sees it: a compiled one compiled afresh, with
    an empty memo; a list, or no table, as it is."""
    return _Table(table) if isinstance(table, _Table) else table


def sector_state(table, baseline):
    """What a split or a headcount call could change: the sectors and engine
    modules' names, a compiled table's columns and memo, and the arguments
    (copied one level down: what they hold is immutable)."""
    return (dict(vars(sectors_module)), dict(vars(engine_module)),
            {name: copy.copy(value) for name, value in getattr(table, "__dict__", {}).items()},
            list(table), {name: copy.copy(value) for name, value in vars(baseline).items()})


def hexed_split(national, table):
    try:
        return {name: rate.hex() for name, rate in
                disaggregate_displacement(national, table).items()}
    except UnattainableTargetError as exc:
        return str(exc)


def hexed_headcounts(national, baseline):
    counts = displacement_headcounts(national, baseline)
    return (counts.total.hex(), counts.expat.hex(),
            {name: value.hex() for name, value in counts.by_sector.items()})


# compiled once, as a loaded config's table is, so the many splits on them
# read their columns and runs on them keep their memo
SMALL_TABLE = _Table((profile("a", 0.3, 2.5, cap=0.2), profile("b", 0.2, 1.7, cap=0.5),
                      profile("c", 0.1, 0.0), profile("rest", 0.3, None, cap=0.4,
                                                      residual=True)))
WIDE_TABLE = _Table(wide_table(5))
BASELINES = (shares_baseline(WIDE_TABLE),
             shares_baseline(SMALL_TABLE, expat_share=0.5, total_labor_force=1e6))
# rates seen twice in a row in tornados and solves, both zeros, and the
# top of the range, where the small table's caps cannot reach the rate
REPEATED_RATES = (0.0, -0.0, 0.032, 0.1, 0.25, 1.0)


def static(name, **fields):
    return Scenario(name=name, mode=SimulationMode.COMPARATIVE_STATIC,
                    horizon=(2030, 2030), **fields)


# on the bundled parameters: the first three end at one rate, the next two at
# 0.0 (cost ratio 1), and the last two above the small and the wide table's
# cap sums, where the split raises
RUN_SCENARIOS = (
    static("a", cost_ratio_path=1.4),
    static("b", robotics_growth=0.3, cost_ratio_path=1.4),
    Scenario(name="c", mode=SimulationMode.DYNAMIC, horizon=(2026, 2030),
             cost_ratio_path=(1.0, 1.1, 1.2, 1.3, 1.4)),
    static("d"),
    Scenario(name="e", mode=SimulationMode.DYNAMIC, horizon=(2026, 2030),
             robotics_growth=0.1),
    static("f", cost_ratio_path=2.5, exposure_override=1.0),
    static("g", cost_ratio_path=6.0, sigma_override=1.0, exposure_override=1.0),
)


def run_outcome(scenario, params, state0, baseline, table):
    """A run's sector rates and headcounts as hex, or the split's error."""
    try:
        result = run_scenario(scenario, params, state0, baseline, table)
    except UnattainableTargetError as exc:
        return str(exc)
    counts = result.headcounts
    return ({name: rate.hex() for name, rate in result.sector_rates.items()},
            counts.total.hex(), counts.expat.hex(),
            {name: value.hex() for name, value in counts.by_sector.items()})


class TestLastOutcome:
    """The sector helpers keep no state; run_scenario reuses a compiled
    table's last outcome for a repeated rate and baseline on that table."""

    @settings(max_examples=150)
    @given(calls=st.lists(
        st.tuples(st.sampled_from(REPEATED_RATES) | st.floats(0.0, 1.0),
                  st.sampled_from(("wide", "small", "wide list", "small list")),
                  st.sampled_from((0, 1))),
        min_size=1, max_size=12))
    def test_helpers_keep_no_state(self, calls):
        tables = {"wide": WIDE_TABLE, "small": SMALL_TABLE}
        for national, which, index in calls:
            table = tables[which.split()[0]]
            if which.endswith("list"):
                table = list(table)
            baseline = BASELINES[index]
            before = sector_state(table, baseline)
            split, counts = hexed_split(national, table), hexed_headcounts(national, baseline)
            assert sector_state(table, baseline) == before
            # a list table is compiled, and a copied baseline read, afresh
            assert split == hexed_split(national, list(table))
            assert counts == hexed_headcounts(national, replace(baseline))

    @pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zeros_are_told_apart(self, first, second):
        for national in (first, second, second):
            rates = disaggregate_displacement(national, SMALL_TABLE)
            assert {math.copysign(1.0, rate) for rate in rates.values()} == {
                math.copysign(1.0, national)}
            counts = displacement_headcounts(national, BASELINES[1])
            assert {math.copysign(1.0, count) for count in counts.by_sector.values()} == {
                math.copysign(1.0, national)}

    def test_returned_dicts_are_fresh(self):
        cold = disaggregate_displacement(0.1, list(SMALL_TABLE))
        first = disaggregate_displacement(0.1, SMALL_TABLE)
        first["a"] = 99.0
        assert disaggregate_displacement(0.1, SMALL_TABLE) == cold
        cold = displacement_headcounts(0.1, replace(BASELINES[1])).by_sector
        displacement_headcounts(0.1, BASELINES[1]).by_sector["a"] = 99.0
        assert displacement_headcounts(0.1, BASELINES[1]).by_sector == cold

    def test_mutating_a_result_leaves_the_next_one_alone(self, params, state0):
        scenario = Scenario(name="x", mode=SimulationMode.COMPARATIVE_STATIC,
                            horizon=(2030, 2030), cost_ratio_path=1.4)
        baseline = BASELINES[0]
        first = run_scenario(scenario, params, state0, baseline, WIDE_TABLE)
        expected = (dict(first.sector_rates), dict(first.headcounts.by_sector))
        first.sector_rates["rest"] = 99.0
        first.headcounts.by_sector["rest"] = 99.0
        second = run_scenario(scenario, params, state0, baseline, WIDE_TABLE)
        assert (second.sector_rates, second.headcounts.by_sector) == expected

    def test_shares_are_read_when_the_baseline_is_built(self):
        baseline = shares_baseline(SMALL_TABLE)
        before = hexed_headcounts(0.1, baseline)
        baseline.sector_shares["a"] = 0.9
        baseline.sector_shares["new"] = 0.5
        assert hexed_headcounts(0.1, baseline) == before
        counts = displacement_headcounts(0.2, baseline)
        assert list(counts.by_sector) == [s.name for s in SMALL_TABLE]
        assert counts.by_sector["a"] == counts.expat * 0.3

    @settings(max_examples=100)
    @given(steps=st.lists(
        st.tuples(st.integers(0, len(RUN_SCENARIOS) - 1),
                  st.sampled_from(("wide", "small", "list wide", "list small", "none")),
                  st.sampled_from((0, 1))),
        min_size=1, max_size=12))
    def test_every_run_equals_a_cold_run(self, params, state0, steps):
        tables = {"wide": WIDE_TABLE, "small": SMALL_TABLE, "none": None}
        listed = []  # one list, refilled in place between runs
        for index, which, baseline_index in steps:
            if which.startswith("list"):
                listed[:] = tables[which.split()[1]]
                table = listed
            else:
                table = tables[which]
            args = (RUN_SCENARIOS[index], params, state0, BASELINES[baseline_index])
            assert run_outcome(*args, cold(table)) == run_outcome(*args, table)

    def test_only_a_repeated_rate_table_and_baseline_is_reused(self, params, state0,
                                                                monkeypatch):
        calls = []

        def counted(helper):
            def call(*args):
                calls.append(helper.__name__)
                return helper(*args)
            return call

        for helper in (disaggregate_displacement, displacement_headcounts):
            monkeypatch.setattr(engine_module, helper.__name__, counted(helper))
        a, b, c, d, e = RUN_SCENARIOS[:5]
        wide, other, copied = BASELINES[0], BASELINES[1], replace(BASELINES[1])
        wide_table, small_table, empty = cold(WIDE_TABLE), cold(SMALL_TABLE), _Table()
        listed = list(SMALL_TABLE)
        # each run, and how many helper calls it makes
        for scenario, baseline, table, expected in (
                (a, wide, wide_table, 2), (b, wide, wide_table, 0), (c, wide, wide_table, 0),
                (a, other, wide_table, 2),   # another baseline
                (a, copied, wide_table, 2),  # an equal baseline, but another object
                (a, copied, small_table, 2),
                (b, copied, wide_table, 0),  # each compiled table keeps its own slot
                (a, copied, cold(wide_table), 2),  # an equal table, but another object
                (a, copied, tuple(wide_table), 2), (a, copied, tuple(wide_table), 2),
                (a, copied, listed, 2), (a, copied, listed, 2),
                (a, copied, None, 1), (b, copied, None, 1),
                (d, copied, None, 1), (e, copied, None, 1), (e, copied, (), 1),
                # an empty compiled table, as `sectors: []` loads, keeps headcounts
                (d, copied, empty, 1), (e, copied, empty, 0)):
            del calls[:]
            run_scenario(scenario, params, state0, baseline, table)
            assert len(calls) == expected, (scenario.name, type(table).__name__)

    @pytest.fixture
    def built(self, monkeypatch):
        """The ``_Table`` builds made from here on, one class per build."""
        built = []
        build = _Table.__new__

        def counting(cls, sectors=()):
            built.append(cls)
            return build(cls, sectors)

        monkeypatch.setattr(_Table, "__new__", counting)
        return built

    def test_a_config_compiles_its_table_once(self, built):
        config = loads_config(default_config_path().read_text(encoding="utf-8"))
        assert len(built) == 1 and type(config.sectors) is _Table
        runs = [config.params, config.initial_state, config.baseline]
        for scenario in config.scenarios:
            run_scenario(scenario, *runs, config.sectors)
        one_at_a_time(config.scenario("baseline"), *runs, default_specs(0.1), config.sectors)
        assert len(built) == 1
        # the table equals, hashes and prints as the plain tuple of its profiles
        plain = tuple(config.sectors)
        assert (config.sectors == plain and hash(config.sectors) == hash(plain)
                and repr(config.sectors) == repr(plain))

    def test_a_config_compiles_a_plain_table_once(self, built):
        loaded = loads_config(default_config_path().read_text(encoding="utf-8"))
        runs = [loaded.params, loaded.initial_state, loaded.baseline]
        direct = RunConfig(*runs, sectors=list(loaded.sectors))
        config = replace(loaded, sectors=tuple(loaded.sectors))
        for table in (direct.sectors, config.sectors):
            assert type(table) is _Table and table == loaded.sectors
        del built[:]
        one_at_a_time(config.scenario("baseline"), *runs, default_specs(0.1), config.sectors)
        assert built == []
        # a bad table raises when the config is built, not at its first run
        twice = (profile("a", 0.3, 1.0), profile("a", 0.2, 1.0))
        with pytest.raises(DomainError, match="sector names must be unique"):
            RunConfig(*runs, sectors=twice)

    def test_interleaved_tables_each_give_cold_runs(self, params, state0):
        # two configs' tables, and runs that alternate between them: each
        # table's slot holds its own last run, so none reads the other's
        first = loads_config(default_config_path().read_text(encoding="utf-8"))
        tables = (first.sectors, cold(WIDE_TABLE))
        baselines = (first.baseline, BASELINES[0])
        for index in (0, 1, 1, 2, 0, 3, 4, 4, 5):
            for table, baseline in zip(tables, baselines):
                args = (RUN_SCENARIOS[index], params, state0, baseline)
                assert run_outcome(*args, table) == run_outcome(*args, cold(table))
                assert table.outcome is None or table.outcome[1] is baseline

    def test_concurrent_runs_each_get_their_own_outcome(self, params, state0):
        cases = [(RUN_SCENARIOS[index], params, state0, baseline, table)
                 for index in (0, 3, 6) for baseline in BASELINES
                 for table in (WIDE_TABLE, SMALL_TABLE, None)]
        expected = [run_outcome(*case[:4], cold(case[4])) for case in cases]
        wrong = []

        def worker(offset):
            # each case twice in a row, so threads hit each other's entries
            try:
                for step in range(400):
                    index = (step // 2 * 5 + offset) % len(cases)
                    if run_outcome(*cases[index]) != expected[index]:
                        wrong.append(index)
            except Exception as exc:  # fails the test below, not just the thread
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_wide_tornado_equals_a_cold_one(self, params, state0, monkeypatch, full_metric):
        # rate about 0.24 at exposure 0.8 and sigma 0.6, where many caps bind
        scenario = Scenario(name="wide", mode=SimulationMode.COMPARATIVE_STATIC,
                            horizon=(2030, 2030), robotics_growth=0.05,
                            cost_ratio_path=1.8, sigma_override=0.6,
                            theta_override=StaticTheta(0.4), exposure_override=0.8,
                            tfp_enabled=True)
        baseline = BASELINES[0]
        tornado = one_at_a_time(scenario, params, state0, baseline, default_specs(0.2),
                                WIDE_TABLE)

        def cold_run(metric, side, side_params, side_state, table, checked=None):
            # the oracle: the base and every side a full run that reuses
            # nothing, neither a table's memo nor the base's checked values
            return full_metric(
                metric, run_scenario(side, side_params, side_state, baseline, cold(table)))

        monkeypatch.setattr(sensitivity_module, "_terminal_metric", cold_run)
        # repr, because an invalid side's results are nan
        assert repr(one_at_a_time(scenario, params, state0, baseline, default_specs(0.2),
                                  WIDE_TABLE)) == repr(tornado)
        rates = disaggregate_displacement(tornado[0].baseline_result, WIDE_TABLE)
        assert sum(rates[s.name] == s.automation_potential for s in WIDE_TABLE) > 20
